"""Tests of the benchmark itself.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bnexplain as bx  # noqa: E402
import bnexplain.datasets  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI_ONLY = ("fileformat.load_network.ms", "oracle.enumerate_joint.calls",
            "oracle.CheckedEngine.self_ms", "render.ms", "cli.main.self_ms")


def tiny(name, tmp_path):
    if name == "bundled-warm":
        return workloads.bundled_warm(3, groups_per_network=2)
    if name == "random-n40":
        return workloads.random_n40(3, networks=1, explananda=2)
    return workloads.cli_oneshot(3, tmp_path, random_networks=1, groups_per_network=2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    assert {r.kind for r in workload.requests} == set(workloads.KINDS)

    plain = run.measure(workload, 0.0, trace=False, setup_s=0.01)
    assert plain.errors == {}
    assert plain.extra["failed_ratio"] == (0.0, "ratio")
    assert {k: u for k, (_, u) in plain.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = run.measure(workload, 0.0, trace=True)
    assert traced.errors == {}
    assert {k: u for k, (_, u) in traced.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced.metrics["inference.query.calls"][0] > 0
    for metric in CLI_ONLY:
        assert (traced.metrics[metric][0] > 0) == (name == "cli-oneshot"), metric


def _asia_cet():
    net = bx.datasets.asia()
    req = Request("cet", "asia", {"X-ray": "abnormal"},
                  ("VisitAsia", "Smoker", "Tuberculosis", "LungCancer"))
    return net, req, bx.causal_explanation_tree(net, req.hypothesis, {}, req.explanandum)


def test_verifier_rejects_a_corrupted_tree():
    net, req, tree = _asia_cet()
    assert verify.verify({"asia": net}, [req], {0: tree}).failures == {}

    first = tree.branches[0]
    relabeled = replace(tree, branches=(replace(first, label=first.label + 1e-6),)
                        + tree.branches[1:])
    worst = min(req.hypothesis, key=lambda v: bx.flow_to_state(net, v, req.explanandum))
    repicked = replace(tree, variable=worst)
    for bad in (relabeled, repicked):
        failures = verify.verify({"asia": net}, [req], {0: bad}).failures
        assert list(failures) == [0]


def test_verifier_rejects_a_corrupted_ranking():
    net = bx.datasets.drug()
    req = Request("bf", "drug", {"Recovery": "rec"}, ("Sex", "Drug"))
    ranking = bx.bayes_factor_search(net, req.hypothesis, req.explanandum)
    assert verify.verify({"drug": net}, [req], {0: ranking}).failures == {}

    first, second, *rest = ranking.entries
    swapped = replace(ranking, entries=(second, first, *rest))
    rescored = replace(ranking, entries=(replace(first, score=first.score * 1.001), second, *rest))
    for bad in (swapped, rescored):
        assert list(verify.verify({"drug": net}, [req], {0: bad}).failures) == [0]


def _bindings():
    return {(m.__name__, attr): value for m in tracer._package_modules()
            for attr, value in vars(m).items()}


def test_no_wrapper_survives_a_traced_run(tmp_path):
    before = _bindings()
    rec = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with rec.installed():
            assert bx.cli.load_network is not before[("bnexplain.cli", "load_network")]
            assert tracer.leftover_wrappers()
            run.run_loop(tiny("cli-oneshot", tmp_path), 0.0, run.Outputs(), rec)
            raise RuntimeError("fail inside the traced block")
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert len(rec.start) > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "bundled-warm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.xfail(strict=True, reason="cli.py compares mpe completions, not scores, under "
                   "--oracle-check; cli-oneshot leaves mpe unchecked until it is fixed")
def test_mpe_oracle_check_accepts_tied_maximisers(tmp_path):
    path = tmp_path / "academe.json"
    path.write_text(bx.serialize_network(bx.datasets.academe()), encoding="utf-8")
    argv = ["mpe", "--network", str(path), "--evidence", "FinalMark=pass,Other=negative",
            "--format", "json"]
    code, text = workloads.run_cli(argv)
    assert code == 0
    score = json.loads(text)["entries"][0]["score"]
    net = bx.datasets.academe()
    _, want = bx.oracle_mpe(net, {"FinalMark": "pass", "Other": "negative"})
    assert verify.close(score, want)  # a valid maximiser, yet the check rejects it
    assert workloads.run_cli(argv + ["--oracle-check"])[0] == 0
