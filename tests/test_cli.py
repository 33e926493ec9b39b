import argparse
import json

import pytest

from bnexplain import cli
from bnexplain.datasets import network_path

DRUG = str(network_path("drug"))
ASIA = str(network_path("asia"))
ACADEME = str(network_path("academe"))
REC_E = {"Recovery": "rec"}

CYCLIC = """{
  "name": "cyclic",
  "variables": [{"name": "A", "states": ["t", "f"]},
                {"name": "B", "states": ["t", "f"]}],
  "cpts": {"A": {"parents": ["B"], "table": [[0.5, 0.5], [0.5, 0.5]]},
           "B": {"parents": ["A"], "table": [[0.5, 0.5], [0.5, 0.5]]}}
}"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cet_drug_example(capsys):
    code, out, err = run(capsys, "cet", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--hypothesis", "Sex,Drug", "--alpha", "0", "--format", "ascii")
    assert code == 0
    assert out.splitlines()[0] == "Sex"
    for needle in ["Drug=no: 0.6374", "Drug=yes: 0.4150", "Drug=no: -0.5850", "Drug=yes: -1.1699"]:
        assert needle in out


def test_nan_alpha_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cet", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--alpha", "nan")
    assert code == 1
    assert out == ""
    assert "alpha" in err


def test_infinite_alpha_prints_the_empty_tree(capsys):
    code, out, err = run(capsys, "cet", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--alpha", "inf")
    assert code == 0
    assert out == "(empty explanation tree)\n"


def test_query_intervention_prints_04(capsys):
    code, out, err = run(capsys, "query", "--network", DRUG,
                         "--event", "Recovery=rec", "--do", "Drug=yes")
    assert code == 0
    assert out == "0.4\n"


def test_query_json(capsys):
    code, out, err = run(capsys, "query", "--network", DRUG, "--format", "json",
                         "--event", "Recovery=rec", "--observe", "Drug=yes")
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(0.5, abs=1e-12)


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--network", DRUG)
    assert code == 0
    assert "OK" in out


def test_validate_cyclic_exits_2(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(CYCLIC)
    code, out, err = run(capsys, "validate", "--network", str(path))
    assert code == 2
    assert "cycle" in err


def test_validate_non_printable_name_exits_2(capsys, tmp_path):
    path = tmp_path / "newline.json"
    path.write_text(json.dumps({
        "name": "newline", "variables": [{"name": "Rain\nfall", "states": ["t", "f"]}],
        "cpts": {"Rain\nfall": {"parents": [], "table": [[0.5, 0.5]]}}}))
    code, out, err = run(capsys, "validate", "--network", str(path))
    assert code == 2
    assert "non-printable" in err


def test_missing_network_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--network", str(tmp_path / "nope.json"))
    assert code == 2


def test_asia_observed_smoker_cet_root_bronchitis(capsys):
    code, out, err = run(capsys, "cet", "--network", ASIA,
                         "--observe", "Smoker=yes", "--explanandum", "Dyspnea=yes")
    assert code == 0
    assert out.splitlines()[0] == "Bronchitis"


def test_cet_exclude_flag(capsys):
    code, out, err = run(capsys, "cet", "--network", ASIA, "--explanandum", "X-ray=abnormal",
                         "--exclude", "TbOrCa", "--alpha", "0.01")
    assert code == 0
    assert out.splitlines()[0] == "LungCancer"
    assert "TbOrCa" not in out


def test_query_self_conditioning(capsys):
    code, out, err = run(capsys, "query", "--network", DRUG,
                         "--event", "Sex=m", "--observe", "Sex=m")
    assert code == 0
    assert out == "1\n"


def test_cet_consistent_explanandum_rebinding_in_observe(capsys):
    base_code, base_out, _ = run(capsys, "cet", "--network", DRUG,
                                 "--explanandum", "Recovery=rec")
    code, out, err = run(capsys, "cet", "--network", DRUG,
                         "--explanandum", "Recovery=rec", "--observe", "Recovery=rec")
    assert base_code == code == 0
    assert out == base_out


def test_et_folds_observations_into_conditioning(capsys):
    code, out, err = run(capsys, "et", "--network", ASIA,
                         "--observe", "Smoker=yes", "--explanandum", "Dyspnea=yes",
                         "--alpha", "0.001", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "et"
    # the observed variable cannot appear inside the tree

    def variables_in(node):
        if node.get("leaf"):
            return
        yield node["variable"]
        for b in node["branches"]:
            yield from variables_in(b["subtree"])

    assert "Smoker" not in set(variables_in(doc["tree"]))
    assert "Dyspnea" not in set(variables_in(doc["tree"]))


def test_mpe_subcommand(capsys):
    code, out, err = run(capsys, "mpe", "--network", DRUG, "--evidence", "Recovery=rec")
    assert code == 0
    assert out == "1. Sex=m Drug=yes  p=0.5000\n"


def test_bf_subcommand(capsys):
    code, out, err = run(capsys, "bf", "--network", DRUG, "--explanandum", "Recovery=rec")
    assert code == 0
    assert out.splitlines() == [
        "1. Sex=m  BF=2.2727",
        "2. Sex=m Drug=no  BF=1.6897",
        "3. Drug=yes  BF=1.2500",
    ]


def test_bf_raw_odds_flag(capsys):
    code, out, err = run(capsys, "bf", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--raw-odds", "--no-dedup", "--top-k", "2")
    assert code == 0
    assert out.splitlines()[0] == "1. Sex=m  BF=2.2727"
    assert out.splitlines()[1] == "2. Drug=yes  BF=1.2500"


def test_cet_json_round_trips(capsys, drug):
    from bnexplain import ExplainerConfig, causal_explanation_tree
    from bnexplain.render import tree_from_json_obj

    code, out, err = run(capsys, "cet", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    direct = causal_explanation_tree(drug, ["Sex", "Drug"], {}, {"Recovery": "rec"},
                                     ExplainerConfig(alpha=0.0))
    assert tree_from_json_obj(doc["tree"]) == direct


def test_usage_errors_exit_1(capsys):
    cases = [
        ("cet", "--network", DRUG),                                        # missing explanandum
        ("cet", "--network", DRUG, "--explanandum", "Recovery"),           # token without '='
        ("cet", "--network", DRUG, "--explanandum", "Ghost=1"),            # unknown variable
        ("cet", "--network", DRUG, "--explanandum", "Recovery=nope"),      # unknown state
        ("query", "--network", DRUG, "--event", "Recovery=rec", "--bogus"),
        ("mpe", "--network", DRUG, "--evidence", "Recovery=rec", "--format", "dot"),
        ("query", "--network", DRUG, "--event", "Drug=yes", "--do", "Drug=no"),  # role clash
        ("cet", "--network", DRUG, "--explanandum", "Recovery=rec,Recovery=norec"),  # conflict
        *((cmd, "--network", DRUG, flag, ",") for cmd, flag in                   # binds nothing
          [("cet", "--explanandum"), ("et", "--explanandum"), ("bf", "--explanandum"),
           ("mpe", "--evidence"), ("query", "--event")]),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, f"{argv} -> {code}, err={err!r}"


def test_impossible_conditioning_exits_3(capsys):
    code, out, err = run(capsys, "query", "--network", ASIA, "--event", "Dyspnea=yes",
                         "--observe", "TbOrCa=yes,Tuberculosis=no,LungCancer=no")
    assert code == 3
    assert "impossible" in err


def test_mpe_impossible_evidence_exits_3(capsys):
    code, out, err = run(capsys, "mpe", "--network", ASIA,
                         "--evidence", "TbOrCa=yes,Tuberculosis=no,LungCancer=no")
    assert code == 3


def test_oracle_check_happy_paths(capsys):
    for argv in [
        ("query", "--network", DRUG, "--event", "Recovery=rec", "--do", "Drug=yes",
         "--oracle-check"),
        ("cet", "--network", DRUG, "--explanandum", "Recovery=rec", "--oracle-check"),
        ("mpe", "--network", DRUG, "--evidence", "Recovery=rec", "--oracle-check"),
        ("bf", "--network", DRUG, "--explanandum", "Recovery=rec", "--oracle-check"),
        ("et", "--network", DRUG, "--explanandum", "Recovery=rec", "--oracle-check"),
        ("et", "--network", ACADEME, "--explanandum", "FinalMark=pass", "--oracle-check"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0, f"{argv} -> {code}, err={err!r}"


def test_oracle_check_compares_every_forced_joint_of_a_causal_tree(capsys, monkeypatch):
    from bnexplain.inference import ExactEngine
    from bnexplain.oracle import CheckedEngine

    asked, checked, inside, reduced_sets = [], [], [], []
    exact, compare = ExactEngine._joint, CheckedEngine._joint

    def spy_exact(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
        asked.append(bool(inside))
        return exact(self, net, targets, observed, do, sources, reduced=reduced)

    def spy_checked(self, net, targets, observed=None, do=None, sources=(), *, reduced=None):
        checked.append((tuple(sources), tuple(targets), bool(observed)))
        reduced_sets.append(reduced)
        return compare(self, net, targets, observed, do, sources, reduced=reduced)

    def checking(method):  # marks the eliminations that a CheckedEngine method reaches
        def spy(self, *args, **kwargs):
            inside.append(method.__name__)
            try:
                return method(self, *args, **kwargs)
            finally:
                inside.pop()
        return spy

    monkeypatch.setattr(ExactEngine, "_joint", spy_exact)
    monkeypatch.setattr(CheckedEngine, "_joint", checking(spy_checked))
    monkeypatch.setattr(CheckedEngine, "query", checking(CheckedEngine.query))
    monkeypatch.setattr(CheckedEngine, "probability", checking(CheckedEngine.probability))
    code, out, err = run(capsys, "cet", "--network", ASIA, "--explanandum", "Dyspnea=yes",
                         "--observe", "Smoker=yes", "--oracle-check")
    assert code == 0, err
    assert out.splitlines()[0] == "Bronchitis"
    # no elimination bypasses the comparison with the oracle
    assert asked and all(asked)
    assert all(observed for _, _, observed in checked)
    # the root's p(x | o') is a joint without sources; the picks' joints have two
    assert any(not sources for sources, _, _ in checked)
    assert any(len(sources) == 2 for sources, _, _ in checked)
    # a causal tree's joints are interventional, which no factor set answers
    assert not any(reduced_sets)


def test_oracle_check_compares_every_query_of_a_noncausal_tree(capsys, monkeypatch):
    from bnexplain.inference import ExactEngine
    from bnexplain.oracle import CheckedEngine

    asked, checked, reduced_sets = [], [], []
    exact, compare = ExactEngine.query, CheckedEngine.query

    def spy_exact(self, net, targets=(), observed=None, do=None, *, _reduced=None):
        asked.append(tuple(targets))
        return exact(self, net, targets, observed, do, _reduced=_reduced)

    def spy_checked(self, net, targets=(), observed=None, do=None, *, _reduced=None):
        checked.append(tuple(targets))
        reduced_sets.append(_reduced)
        return compare(self, net, targets, observed, do, _reduced=_reduced)

    monkeypatch.setattr(ExactEngine, "query", spy_exact)
    monkeypatch.setattr(CheckedEngine, "query", spy_checked)
    code, out, err = run(capsys, "et", "--network", ASIA, "--explanandum", "Dyspnea=yes",
                         "--oracle-check")
    assert code == 0, err
    assert out.splitlines()[0] == "TbOrCa"
    # the tree asks no p(e): every query has targets and is compared with the oracle
    assert asked == checked and all(asked)
    assert any(len(t) == 3 for t in checked) and max(map(len, checked)) == 3
    # on asia too few variables lie outside the hypothesis and e for a factor set
    assert not any(reduced_sets)


@pytest.mark.parametrize("argv", [
    ("et", "--alpha", "0"),
    ("bf", "--max-subset-size", "3"),
])
def test_oracle_check_where_explainers_build_a_factor_set(capsys, monkeypatch, tmp_path, argv):
    """V15 of this seeded 16-variable network has 12 ancestors, 8 of them
    outside the hypothesis, so ET and BF answer from a factor set; the oracle,
    which enumerates all 2**16 cells, checks every answer and prints nothing
    of its own. A 40-variable network would exceed its cell cap."""
    import numpy as np
    from conftest import make_random_network

    from bnexplain.fileformat import serialize_network
    from bnexplain.inference import ExactEngine

    path = tmp_path / "random16.json"
    path.write_text(serialize_network(make_random_network(np.random.default_rng(21), 16)))
    built, build = [], ExactEngine._factor_set

    def spy(self, *args, **kwargs):
        built.append(build(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ExactEngine, "_factor_set", spy)
    command = (*argv[:1], "--network", str(path), "--explanandum", "V15=s0",
               "--hypothesis", "V8,V10,V11,V12", *argv[1:])
    plain = run(capsys, *command)
    checked = run(capsys, *command, "--oracle-check")
    assert plain[0] == 0 and checked == plain
    assert len(built) == 2 and all(s is not None for s in built)


def test_oracle_check_where_no_pick_asks_a_joint_for_its_labels(capsys, monkeypatch):
    """With X-ray=abnormal explained, the root picks TbOrCa, which blocks every
    path of the other candidates to X-ray: the 62 picks below are scored zero
    and no intervention on them moves X-ray, so their labels are their node's
    p(e | do(path)) and none asks a joint. The checked run prints the same."""
    from bnexplain import explain

    own_joints = []
    monkeypatch.setattr(explain, "_forced_event", lambda *args: own_joints.append(args))
    command = ("cet", "--network", ASIA, "--explanandum", "X-ray=abnormal", "--hypothesis",
               "VisitAsia,Tuberculosis,LungCancer,Smoker,Bronchitis,TbOrCa", "--alpha", "0")
    plain = run(capsys, *command)
    checked = run(capsys, *command, "--oracle-check")
    assert plain[0] == 0 and checked == plain
    assert plain[1].splitlines()[0] == "TbOrCa" and not own_joints


def test_oracle_divergence_exits_4(capsys, monkeypatch):
    from bnexplain.errors import OracleDivergenceError

    class Rigged:
        def __init__(self, *args, **kwargs):
            pass

        def probability(self, *args, **kwargs):
            raise OracleDivergenceError("rigged for testing")

        def query(self, *args, **kwargs):
            raise OracleDivergenceError("rigged for testing")

    monkeypatch.setattr(cli, "CheckedEngine", Rigged)
    code, out, err = run(capsys, "query", "--network", DRUG, "--event", "Recovery=rec",
                         "--oracle-check")
    assert code == 4
    assert "oracle" in err


def test_mpe_oracle_check_checks_the_evidence_through_checked_engine(capsys, monkeypatch):
    from bnexplain.errors import OracleDivergenceError

    class Rigged:
        def query(self, *args, **kwargs):
            raise OracleDivergenceError("rigged for testing")

    monkeypatch.setattr(cli, "CheckedEngine", Rigged)
    code, out, err = run(capsys, "mpe", "--network", DRUG, "--evidence", "Recovery=rec",
                         "--oracle-check")
    assert (code, out) == (4, "")
    assert "rigged for testing" in err


def test_mpe_oracle_check_exits_4_when_enumeration_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_mpe", lambda net, evidence: ({"Sex": "f", "Drug": "no"}, 0.5))
    code, out, err = run(capsys, "mpe", "--network", DRUG, "--evidence", "Recovery=rec",
                         "--oracle-check")
    assert (code, out) == (4, "")
    assert err.startswith("bnexplain: oracle cross-check failed: mpe diverges from enumeration")


@pytest.mark.parametrize("argv", [
    ("bf", "--network", DRUG, "--explanandum", "Recovery=rec"),
    ("mpe", "--network", DRUG, "--evidence", "Recovery=rec"),
])
def test_rankings_print_as_json(capsys, argv):
    from bnexplain import bayes_factor_search, load_network, mpe_explanation
    from bnexplain.render import ranking_to_json_obj, to_json_text

    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    drug = load_network(DRUG)
    if argv[0] == "bf":
        ranking = bayes_factor_search(drug, ["Sex", "Drug"], REC_E)
    else:
        ranking = mpe_explanation(drug, REC_E)
    assert out == to_json_text(ranking_to_json_obj(ranking))
    assert json.loads(out)["entries"][0]["assignment"]["Sex"] == "m"


@pytest.mark.parametrize("command, alpha", [("cet", "0"), ("et", "0.02")])
def test_trees_print_as_dot(capsys, command, alpha):
    from bnexplain import (
        ExplainerConfig, causal_explanation_tree, explanation_tree, load_network,
    )
    from bnexplain.render import tree_to_dot

    code, out, err = run(capsys, command, "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--alpha", alpha, "--format", "dot")
    assert code == 0, err
    drug, config = load_network(DRUG), ExplainerConfig(alpha=float(alpha))
    if command == "cet":
        tree = causal_explanation_tree(drug, ["Sex", "Drug"], {}, REC_E, config)
    else:
        tree = explanation_tree(drug, ["Sex", "Drug"], REC_E, config)
    assert out == tree_to_dot(tree)
    assert out.startswith("digraph explanation_tree {\n  n0 [label=")


def test_unknown_hypothesis_exits_1(capsys):
    code, out, err = run(capsys, "cet", "--network", DRUG, "--explanandum", "Recovery=rec",
                         "--hypothesis", "Sex,Ghost")
    assert (code, out) == (1, "")
    assert err == "bnexplain: error: --hypothesis: unknown variable 'Ghost'\n"


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    from conftest import child_env

    done = subprocess.run([sys.executable, "-m", "bnexplain", "validate", "--network", DRUG],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"{DRUG}: OK (3 variables, 3 edges)\n", "")


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0


def test_every_option_of_every_subcommand_has_help():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"cet", "et", "mpe", "bf", "query", "validate"}
    for name, p in sub.choices.items():
        text = p.format_help()
        for action in p._actions:
            assert action.help, (name, action.option_strings)
            assert action.option_strings[-1] in text, (name, action.option_strings)


def test_repeated_in_process_runs_match_fresh_processes(capsys):
    # one parser serves every in-process run, so no flag of one run may leak into the next
    import subprocess
    import sys

    from conftest import child_env

    assert cli.build_parser() is cli.build_parser()
    for argv in [
        ("query", "--network", DRUG, "--event", "Recovery=rec", "--observe", "Drug=yes"),
        ("query", "--network", DRUG, "--event", "Recovery=rec"),
        ("cet", "--network", ASIA, "--explanandum", "Dyspnea=yes", "--observe", "Smoker=yes"),
        ("cet", "--network", ASIA, "--explanandum", "Dyspnea=yes"),
    ]:
        fresh = subprocess.run([sys.executable, "-m", "bnexplain", *argv],
                               capture_output=True, text=True, timeout=120, env=child_env())
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
