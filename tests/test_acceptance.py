"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside pytest's own output.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bnexplain import (
    ExactEngine,
    ExplainerConfig,
    ImpossibleEvidenceError,
    bayes_factor_search,
    causal_explanation_tree,
    conditional_mutual_information,
    count_nodes,
    event_probability,
    explanation_tree,
    flow_to_state,
    information_flow,
    interventional_probability,
    iter_paths,
    mpe_explanation,
    oracle_event_probability,
    oracle_flow_to_state,
    oracle_interventional_probability,
    reachable,
)
from bnexplain.datasets import network_path

from conftest import child_env, make_chain
from test_causal import copy_child_net


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


def test_acceptance_1_drug_mpe(drug):
    with criterion(1, "drug MPE"):
        started = time.perf_counter()
        ranking = mpe_explanation(drug, {"Recovery": "rec"})
        elapsed = time.perf_counter() - started
        (entry,) = ranking.entries
        assert entry.as_dict() == {"Sex": "m", "Drug": "yes"}
        assert abs(entry.score - 0.5) <= 1e-9
        assert elapsed < 1.0


def test_acceptance_2_drug_bayes_factors(drug):
    with criterion(2, "drug Bayes factors"):
        started = time.perf_counter()
        ranking = bayes_factor_search(drug, ["Sex", "Drug"], {"Recovery": "rec"},
                                      ExplainerConfig(max_subset_size=2, top_k=3))
        elapsed = time.perf_counter() - started
        got = {tuple(sorted(e.as_dict().items())): e.score for e in ranking.entries}
        assert abs(got[(("Sex", "m"),)] - 2.27) <= 0.01
        assert abs(got[(("Drug", "no"), ("Sex", "m"))] - 1.69) <= 0.01
        assert abs(got[(("Drug", "yes"),)] - 1.25) <= 0.01
        assert elapsed < 1.0


def test_acceptance_3_drug_cet(drug):
    with criterion(3, "drug causal explanation tree"):
        started = time.perf_counter()
        rec = {"Recovery": "rec"}
        flow_sex = flow_to_state(drug, "Sex", rec)
        flow_drug = flow_to_state(drug, "Drug", rec)
        tree = causal_explanation_tree(drug, ["Sex", "Drug"], {}, rec,
                                       ExplainerConfig(alpha=0.0))
        elapsed = time.perf_counter() - started

        assert tree.variable == "Sex"
        assert flow_sex > flow_drug
        assert abs(flow_sex - 0.11204) <= 1e-4
        assert abs(flow_drug - 0.00892) <= 1e-4
        assert abs(flow_sex - oracle_flow_to_state(drug, "Sex", rec)) <= 1e-9
        assert abs(flow_drug - oracle_flow_to_state(drug, "Drug", rec)) <= 1e-9

        labels = {}
        for pairs, label, pruned in iter_paths(tree):
            assert not pruned
            bound = dict(pairs)
            labels[(bound["Sex"], bound["Drug"])] = label
        expected = {
            ("m", "no"): math.log2(0.7 / 0.45),
            ("m", "yes"): math.log2(0.6 / 0.45),
            ("f", "no"): math.log2(0.3 / 0.45),
            ("f", "yes"): math.log2(0.2 / 0.45),
        }
        assert set(labels) == set(expected)
        for key, want in expected.items():
            assert abs(labels[key] - want) <= 1e-6
        assert (labels[("m", "no")] > labels[("m", "yes")] > 0.0
                > labels[("f", "no")] > labels[("f", "yes")])
        assert elapsed < 1.0


def test_acceptance_4_simpson_gap(drug):
    with criterion(4, "drug Simpson gap"):
        rec = {"Recovery": "rec"}
        observed = event_probability(drug, rec, {"Drug": "yes"})
        forced = interventional_probability(drug, rec, do={"Drug": "yes"})
        assert abs(observed - oracle_event_probability(drug, rec, {"Drug": "yes"})) <= 1e-9
        assert abs(forced - oracle_interventional_probability(drug, rec, do={"Drug": "yes"})) <= 1e-9
        assert abs(observed - 0.5) <= 1e-9
        assert abs(forced - 0.4) <= 1e-9


def test_acceptance_5_asia_qualitative(asia):
    with criterion(5, "asia qualitative trees"):
        started = time.perf_counter()
        abnormal = {"X-ray": "abnormal"}
        hyp = [v.name for v in asia.variables if v.name not in ("X-ray", "TbOrCa")]
        tree = causal_explanation_tree(asia, hyp, {}, abnormal, ExplainerConfig(alpha=0.01))
        assert tree.variable == "LungCancer"
        under_no = {b.state: b.subtree for b in tree.branches}["no"]
        assert under_no.variable == "Tuberculosis"

        flow_lc = flow_to_state(asia, "LungCancer", abnormal)
        flow_tb = flow_to_state(asia, "Tuberculosis", abnormal)
        assert abs(flow_lc - 1.087) <= 1e-3
        assert abs(flow_tb - 0.178) <= 1e-3
        assert abs(flow_lc - oracle_flow_to_state(asia, "LungCancer", abnormal)) <= 1e-9
        assert abs(flow_tb - oracle_flow_to_state(asia, "Tuberculosis", abnormal)) <= 1e-9

        dyspnea = {"Dyspnea": "yes"}
        smoker = {"Smoker": "yes"}
        hyp2 = [v.name for v in asia.variables if v.name not in ("Dyspnea", "Smoker")]
        tree2 = causal_explanation_tree(asia, hyp2, smoker, dyspnea, ExplainerConfig(alpha=0.01))
        assert tree2.variable == "Bronchitis"
        flow_bron = flow_to_state(asia, "Bronchitis", dyspnea, smoker)
        assert abs(flow_bron - 0.278) <= 1e-3
        assert abs(flow_bron - oracle_flow_to_state(asia, "Bronchitis", dyspnea, smoker)) <= 1e-9
        assert time.perf_counter() - started < 5.0


def _both_or_neither(engine_call, oracle_call, tolerance=1e-9):
    try:
        want = oracle_call()
    except ImpossibleEvidenceError:
        with pytest.raises(ImpossibleEvidenceError):
            engine_call()
        return
    got = engine_call()
    assert abs(got - want) <= tolerance, f"{got!r} vs oracle {want!r}"


def _random_roles(rng, net, n_event=1, n_given=2, n_do=1):
    names = [v.name for v in net.variables]
    order = list(rng.permutation(names))
    take = {"event": order[:n_event],
            "given": order[n_event:n_event + n_given],
            "do": order[n_event + n_given:n_event + n_given + n_do]}
    return {
        role: {v: net.domain(v)[int(rng.integers(len(net.domain(v))))] for v in vs}
        for role, vs in take.items()
    }


def _equivalence_queries(net, rng, count):
    for i in range(count):
        roles = _random_roles(rng, net,
                              n_event=1 + int(rng.integers(2)),
                              n_given=int(rng.integers(3)),
                              n_do=int(rng.integers(2)) if i % 3 == 2 else 0)
        event, given, do = roles["event"], roles["given"], roles["do"]
        if do:
            _both_or_neither(
                lambda: interventional_probability(net, event, given, do),
                lambda: oracle_interventional_probability(net, event, given, do))
        else:
            _both_or_neither(
                lambda: event_probability(net, event, given),
                lambda: oracle_event_probability(net, event, given))


def _equivalence_flows(net, rng, count):
    names = [v.name for v in net.variables]
    for _ in range(count):
        roles = _random_roles(rng, net, n_event=1,
                              n_given=int(rng.integers(2)), n_do=int(rng.integers(2)))
        event, given, do = roles["event"], roles["given"], roles["do"]
        free = [v for v in names if v not in event and v not in given and v not in do]
        if not free:
            continue
        source = free[int(rng.integers(len(free)))]
        _both_or_neither(
            lambda: flow_to_state(net, source, event, given, do),
            lambda: oracle_flow_to_state(net, source, event, given, do))


def test_acceptance_6_oracle_equivalence(drug, asia, academe, random_corpus):
    with criterion(6, "oracle equivalence suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(1009)
        for net in (drug, asia, academe):
            _equivalence_queries(net, rng, 200)
            _equivalence_flows(net, rng, 100)
        for net in random_corpus:
            _equivalence_queries(net, rng, 4)
            _equivalence_flows(net, rng, 2)
        assert time.perf_counter() - started < 120.0


def test_acceptance_7_property_suite(drug, asia, random_corpus):
    with criterion(7, "flow and information properties"):
        rng = np.random.default_rng(2027)

        # expectation identity: states of the target, weighted by probability
        identity_cases = [(drug, "Sex", "Recovery", {}, {}),
                          (drug, "Drug", "Recovery", {}, {"Sex": "m"}),
                          (asia, "LungCancer", "X-ray", {}, {}),
                          (asia, "Tuberculosis", "X-ray", {}, {"LungCancer": "no"}),
                          (asia, "Bronchitis", "Dyspnea", {"Smoker": "yes"}, {})]
        for net in random_corpus[:10]:
            roles = _random_roles(rng, net, n_event=1, n_given=1, n_do=1)
            (target, _), = roles["event"].items()
            free = [v.name for v in net.variables
                    if v.name != target and v.name not in roles["given"] and v.name not in roles["do"]]
            if not free:
                continue
            identity_cases.append((net, free[0], target, roles["given"], roles["do"]))
        for net, source, target, obs, do in identity_cases:
            total = information_flow(net, source, target, do=do, observed=obs)
            acc = 0.0
            for state in net.domain(target):
                p = interventional_probability(net, {target: state}, obs, do)
                if p > 0.0:
                    acc += p * flow_to_state(net, source, {target: state}, obs, do)
            assert abs(acc - total) <= 1e-9

        # zero flow exactly when no unblocked directed path exists
        for net in random_corpus:
            names = [v.name for v in net.variables]
            pairs = list(itertools.permutations(names, 2))
            idx = rng.choice(len(pairs), size=min(12, len(pairs)), replace=False)
            for k in idx:
                src, dst = pairs[int(k)]
                others = [v for v in names if v not in (src, dst)]
                blocked = {}
                if others and rng.random() < 0.5:
                    pick = rng.choice(others, size=min(2, len(others)), replace=False)
                    blocked = {str(v): net.domain(str(v))[0] for v in pick}
                flow = information_flow(net, src, dst, do=blocked)
                assert flow >= -1e-12  # flows are mixtures of divergences
                if reachable(net, src, dst, set(blocked)):
                    assert flow > 1e-9, (net.name, src, dst, blocked, flow)
                else:
                    assert abs(flow) < 1e-9, (net.name, src, dst, blocked, flow)

        # a deterministic binary copy child carries exactly one bit
        net = copy_child_net()
        assert abs(information_flow(net, "A", "B") - 1.0) <= 1e-9
        assert abs(information_flow(net, "A", "B", do={"Z": "z0"}) - 1.0) <= 1e-9

        # conditional mutual information: symmetric and nonnegative
        for net in random_corpus[:15]:
            names = [v.name for v in net.variables]
            x, y = (str(v) for v in rng.choice(names, size=2, replace=False))
            rest = [v for v in names if v not in (x, y)]
            context = {}
            if rest and rng.random() < 0.6:
                c = str(rng.choice(rest))
                context[c] = net.domain(c)[int(rng.integers(2))]
            a = conditional_mutual_information(net, x, y, context)
            b = conditional_mutual_information(net, y, x, context)
            assert abs(a - b) < 1e-9
            assert a >= -1e-12


def test_acceptance_8_complexity_instrumentation():
    with criterion(8, "inference-call complexity on chains"):
        rng = np.random.default_rng(4242)
        d = 2
        c_cet = c_et = 0.0
        for n in range(4, 11):  # hypothesis set sizes
            net = make_chain(rng, n + 1, name=f"chain{n}")
            explanandum = {f"V{n}": "t"}
            hypothesis = [f"V{i}" for i in range(n)]

            engine = ExactEngine()
            tree = causal_explanation_tree(net, hypothesis, {}, explanandum,
                                           ExplainerConfig(alpha=0.005), engine=engine)
            nodes = count_nodes(tree)
            assert nodes >= 1
            per_node = engine.calls / nodes
            assert per_node <= 4 * n * d, (n, per_node)
            c_cet = max(c_cet, per_node / (n * d))

            engine = ExactEngine()
            tree = explanation_tree(net, hypothesis, explanandum,
                                    ExplainerConfig(alpha=0.02, beta=0.05), engine=engine)
            nodes = count_nodes(tree)
            assert nodes >= 1
            per_node = engine.calls / nodes
            assert per_node <= 4 * (n * d) ** 2, (n, per_node)
            c_et = max(c_et, per_node / (n * d) ** 2)

        print(f"fitted constants: causal tree c={c_cet:.3f} (bound c*n*d), "
              f"noncausal tree c={c_et:.3f} (bound c*(n*d)^2)")
        assert c_cet <= 4.0
        assert c_et <= 4.0


CYCLIC = """{
  "name": "cyclic",
  "variables": [{"name": "A", "states": ["t", "f"]},
                {"name": "B", "states": ["t", "f"]}],
  "cpts": {"A": {"parents": ["B"], "table": [[0.5, 0.5], [0.5, 0.5]]},
           "B": {"parents": ["A"], "table": [[0.5, 0.5], [0.5, 0.5]]}}
}"""


def test_acceptance_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI runs"):
        drug = str(network_path("drug"))
        asia = str(network_path("asia"))
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(CYCLIC)
        examples = [
            (["cet", "--network", drug, "--explanandum", "Recovery=rec",
              "--hypothesis", "Sex,Drug", "--alpha", "0", "--format", "ascii"], 0),
            (["query", "--network", drug, "--event", "Recovery=rec", "--do", "Drug=yes"], 0),
            (["validate", "--network", str(cyclic)], 2),
            (["cet", "--network", asia, "--observe", "Smoker=yes",
              "--explanandum", "Dyspnea=yes"], 0),
            (["et", "--network", drug, "--explanandum", "Recovery=rec", "--alpha", "0"], 0),
            (["mpe", "--network", drug, "--evidence", "Recovery=rec"], 0),
            (["bf", "--network", drug, "--explanandum", "Recovery=rec", "--format", "json"], 0),
            (["cet", "--network", drug, "--explanandum", "Recovery=rec", "--format", "dot"], 0),
        ]
        for argv, expected_code in examples:
            runs = []
            for hashseed in ("0", "42"):  # also rules out hash-order effects
                runs.append(subprocess.run([sys.executable, "-m", "bnexplain", *argv],
                                           capture_output=True, timeout=120,
                                           env=child_env(PYTHONHASHSEED=hashseed)))
            for r in runs:
                assert r.returncode == expected_code, (argv, r.returncode, r.stderr)
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].stderr == runs[1].stderr, argv
