"""CLI reruns are byte-identical across commits.

Each run below is one ``cli.main`` call on a bundled network; the exit code
and the sha256 of its stdout are pinned in ``data/golden_cli.json``. The
second argument of a run names the bundled network, resolved through
``datasets.network_path``. After a deliberate output change, rewrite the
file with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bnexplain import cli
from bnexplain.datasets import network_path

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"

RUNS = [
    # causal explanation trees, with and without --observe
    ("cet", "drug", "--explanandum", "Recovery=rec", "--alpha", "0", "--format", "json"),
    ("cet", "drug", "--explanandum", "Recovery=rec", "--hypothesis", "Sex,Drug", "--alpha", "0"),
    ("cet", "drug", "--explanandum", "Recovery=rec", "--observe", "Sex=m", "--format", "json"),
    ("cet", "asia", "--explanandum", "Dyspnea=yes", "--format", "json"),
    ("cet", "asia", "--explanandum", "Dyspnea=yes", "--observe", "Smoker=yes", "--format", "json"),
    ("cet", "asia", "--explanandum", "X-ray=abnormal", "--observe", "VisitAsia=yes",
     "--alpha", "0.01", "--format", "json"),
    ("cet", "asia", "--explanandum", "Dyspnea=yes", "--no-prune", "--format", "json"),
    ("cet", "academe", "--explanandum", "GlobalMark=pass", "--format", "json"),
    ("cet", "academe", "--explanandum", "FinalMark=pass", "--observe", "Other=negative",
     "--format", "json"),
    ("cet", "academe", "--explanandum", "GlobalMark=pass", "--observe", "Extra=yes",
     "--hypothesis", "Theory,Practice,Extra", "--format", "json"),
    ("cet", "academe", "--explanandum", "FinalMark=fail", "--format", "dot"),
    # noncausal explanation trees; academe's Theory x Practice pairs are 3 x 3
    ("et", "drug", "--explanandum", "Recovery=rec", "--alpha", "0", "--format", "json"),
    ("et", "drug", "--explanandum", "Recovery=rec", "--alpha", "0"),
    ("et", "asia", "--explanandum", "Dyspnea=yes", "--alpha", "0", "--format", "json"),
    ("et", "asia", "--explanandum", "X-ray=abnormal", "--observe", "Smoker=no", "--alpha", "0",
     "--format", "json"),
    ("et", "asia", "--explanandum", "Dyspnea=yes", "--format", "json"),
    ("et", "academe", "--explanandum", "GlobalMark=pass", "--alpha", "0", "--format", "json"),
    ("et", "academe", "--explanandum", "FinalMark=pass", "--observe", "Other=negative",
     "--alpha", "0", "--format", "json"),
    ("et", "academe", "--explanandum", "GlobalMark=fail", "--hypothesis", "Theory,Practice",
     "--alpha", "0", "--format", "json"),
    ("et", "academe", "--explanandum", "TPMark=pass", "--alpha", "0", "--beta", "0.1",
     "--format", "json"),
    ("et", "academe", "--explanandum", "GlobalMark=pass", "--alpha", "0"),
    ("et", "academe", "--explanandum", "GlobalMark=pass", "--alpha", "0", "--format", "dot"),
    # Bayes-factor rankings
    ("bf", "drug", "--explanandum", "Recovery=rec", "--format", "json"),
    ("bf", "asia", "--explanandum", "Dyspnea=yes", "--format", "json"),
    ("bf", "asia", "--explanandum", "Dyspnea=yes", "--max-subset-size", "3", "--top-k", "5",
     "--format", "json"),
    ("bf", "academe", "--explanandum", "GlobalMark=pass", "--format", "json"),
    ("bf", "academe", "--explanandum", "FinalMark=pass", "--raw-odds", "--format", "json"),
    ("bf", "academe", "--explanandum", "GlobalMark=pass", "--no-dedup", "--top-k", "6",
     "--format", "json"),
    ("bf", "asia", "--explanandum", "X-ray=abnormal"),
    # most probable explanations, academe's tied maximisers included
    ("mpe", "drug", "--evidence", "Recovery=rec", "--format", "json"),
    ("mpe", "asia", "--evidence", "Dyspnea=yes,X-ray=abnormal", "--format", "json"),
    ("mpe", "academe", "--evidence", "FinalMark=pass,Other=negative", "--format", "json"),
    ("mpe", "academe", "--evidence", "GlobalMark=fail", "--format", "json"),
    ("mpe", "asia", "--evidence", "Dyspnea=yes"),
    # probabilities, interventional and plain
    ("query", "drug", "--event", "Recovery=rec", "--do", "Drug=yes", "--format", "json"),
    ("query", "drug", "--event", "Recovery=rec", "--do", "Drug=no", "--observe", "Sex=f",
     "--format", "json"),
    ("query", "asia", "--event", "Dyspnea=yes", "--do", "Smoker=yes", "--format", "json"),
    ("query", "academe", "--event", "GlobalMark=pass", "--do", "Theory=good",
     "--observe", "Other=positive", "--format", "json"),
    ("query", "academe", "--event", "GlobalMark=pass", "--do", "Theory=good"),
    ("query", "asia", "--event", "LungCancer=yes", "--observe", "Dyspnea=yes", "--format", "json"),
    # the oracle cross-check prints the same bytes
    ("et", "academe", "--explanandum", "GlobalMark=pass", "--alpha", "0", "--format", "json",
     "--oracle-check"),
    ("cet", "asia", "--explanandum", "Dyspnea=yes", "--format", "json", "--oracle-check"),
    # failures: a forced variable also observed, and impossible evidence
    ("query", "drug", "--event", "Recovery=rec", "--do", "Drug=yes", "--observe", "Drug=no"),
    ("query", "asia", "--event", "X-ray=normal", "--observe", "TbOrCa=no,Tuberculosis=yes"),
]


def _key(run) -> str:
    return " ".join(run)


def _run(run) -> dict:
    command, network, *rest = run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--network", str(network_path(network)), *rest])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_run_is_pinned(golden):
    assert sorted(golden) == sorted(_key(run) for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_cli_output_matches_golden(golden, run):
    assert _run(run) == golden[_key(run)], f"bnexplain {_key(run)}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(run): _run(run) for run in RUNS}, indent=1) + "\n",
                      encoding="utf-8")
