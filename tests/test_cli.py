import json

import pytest

from bnexplain import cli
from bnexplain.datasets import network_path

DRUG = str(network_path("drug"))
ASIA = str(network_path("asia"))
ACADEME = str(network_path("academe"))

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


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0


def test_repeated_in_process_runs_match_fresh_processes(capsys):
    # one parser serves every in-process run, so no flag of one run may leak into the next
    import subprocess
    import sys

    assert cli.build_parser() is cli.build_parser()
    for argv in [
        ("query", "--network", DRUG, "--event", "Recovery=rec", "--observe", "Drug=yes"),
        ("query", "--network", DRUG, "--event", "Recovery=rec"),
        ("cet", "--network", ASIA, "--explanandum", "Dyspnea=yes", "--observe", "Smoker=yes"),
        ("cet", "--network", ASIA, "--explanandum", "Dyspnea=yes"),
    ]:
        fresh = subprocess.run([sys.executable, "-m", "bnexplain", *argv],
                               capture_output=True, text=True, timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
