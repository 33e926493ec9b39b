"""Benchmark runner.

    python3 bench/run.py --workload bundled-warm --seed 1 --seconds 20 --trace 0

Builds the workload from the seed, runs its requests in a closed loop (one
client, no think time) for ``--seconds``, then re-derives every distinct
request with the enumeration oracle. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run
first runs untraced for half the time, to measure the tracing overhead,
then makes one traced pass over the requests.

Run it from the repository root; it imports the package from ``src/`` and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import os

# one client on one core: numpy's thread pools must not compete with it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / ".work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import bnexplain.cli, bnexplain.datasets; print(time.perf_counter() - t)")


@dataclass
class Loop:
    """Latencies and counts of one closed loop."""

    latency: dict[str, list[float]] = field(default_factory=dict)
    checked: list[float] = field(default_factory=list)
    attempted: int = 0
    busy: float = 0.0


@dataclass
class Outputs:
    """First output of every distinct request and how often each ran."""

    first: dict[int, object] = field(default_factory=dict)
    runs: dict[int, int] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)


def run_loop(workload, seconds: float, outputs: Outputs, tracer=None) -> Loop:
    """Run the requests in order, cycling, for at least one pass and ``seconds``.

    A request fails when it raises or when a repeat's output differs from
    its first output.
    """
    requests = workload.requests
    loop = Loop(latency={kind: [] for kind in dict.fromkeys(r.kind for r in requests)})
    clock = time.perf_counter
    started = clock()
    i = 0
    while i < len(requests) or clock() - started < seconds:
        k = i % len(requests)
        req = requests[k]
        if tracer is not None:
            tracer.request_id = i
        i += 1
        loop.attempted += 1
        outputs.runs[k] = outputs.runs.get(k, 0) + 1
        t0 = clock()
        try:
            out = workload.execute(req)
        except Exception as exc:  # a failed request is recorded, the loop goes on
            outputs.errors.setdefault(k, f"{type(exc).__name__}: {exc}")
            continue
        dt = clock() - t0
        loop.busy += dt
        (loop.checked if req.checked else loop.latency[req.kind]).append(dt)
        if k not in outputs.first:
            outputs.first[k] = out
        elif outputs.first[k] != out:
            outputs.errors.setdefault(k, "output differs between repeats")
    return loop


def _median_ms(values):
    return statistics.median(values) * 1e3


def measure_import() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup(name: str, seed: int, repeats: int):
    """Build the workload ``repeats`` times; return the last and the median time."""
    import workloads

    times, workload = [], None
    for r in range(repeats):
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{r}-", dir=WORKDIR))
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, workdir)
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def end_to_end(setup_s, loop: Loop, peak_rss_mb):
    """The gated metrics, plus workload-specific lines that are only printed."""
    done = sum(len(v) for v in loop.latency.values()) + len(loop.checked)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (done / loop.busy if loop.busy else 0.0, "1/s"),
    }
    for kind, values in loop.latency.items():
        metrics[f"{kind}_p50_ms"] = (_median_ms(values) if values else 0.0, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    extra = {}
    for kind in ("cet", "et", "bf"):
        values = loop.latency.get(kind, [])
        extra[f"{kind}_samples"] = (len(values), "count")
        if len(values) >= P90_MIN_SAMPLES:
            extra[f"{kind}_p90_ms"] = (statistics.quantiles(values, n=10)[-1] * 1e3, "ms")
    if loop.checked:
        extra["checked_p50_ms"] = (_median_ms(loop.checked), "ms")
        extra["checked_samples"] = (len(loop.checked), "count")
    return metrics, extra


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bnexplain" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'bnexplain'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _run(args) -> int:
    import_s = measure_import() if not args.trace else 0.0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload, build_s = setup(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    print(f"workload {workload.name}: seed {args.seed}, {len(workload.requests)} distinct "
          f"requests, {args.seconds:g} s, trace {args.trace}")

    measured = measure(workload, args.seconds, bool(args.trace), import_s + build_s)
    for k, message in sorted(measured.errors.items()):
        print(f"  FAILED request {k}: {message}", file=sys.stderr)
    _print_metrics("per-layer metrics (per traced request)" if args.trace
                   else "end-to-end metrics", measured.metrics)
    _print_metrics("also reported (not gated)", measured.extra)
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.metrics.items()},
    }))
    return 0


@dataclass
class Measured:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # the gated metrics of the mode
    extra: dict[str, tuple[float, str]]  # printed only
    errors: dict[int, str]


def measure(workload, seconds: float, trace: bool, setup_s: float = 0.0) -> Measured:
    """Time the workload, verify every distinct request, and compute the metrics.

    Untraced, the metrics are the end-to-end ones. Traced, half the time
    runs untraced, then one pass runs traced, and the metrics are the
    per-layer ones.
    """
    import tracer
    import verify

    outputs = Outputs()
    if trace:
        plain = run_loop(workload, seconds / 2, outputs)
        rec = tracer.Tracer()
        with rec.installed():
            traced = run_loop(workload, 0.0, outputs, rec)
        loops = [plain, traced]
    else:
        loops = [run_loop(workload, seconds, outputs)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = verify.verify(workload.networks, workload.requests, outputs.first)
    attempted = sum(loop.attempted for loop in loops)
    errors = {**outputs.errors, **tally.failures}
    failed = sum(outputs.runs[k] for k in errors)  # every run of a failing request
    if trace:
        metrics = rec.metrics(traced.attempted)
        n_distinct = max(tally.verified, 1)
        metrics["explain.near_ties"] = (tally.near_ties / n_distinct, "count")
        metrics["explain.tie_flips"] = (tally.tie_flips / n_distinct, "count")
        rate = [loop.attempted / loop.busy if loop.busy else 0.0 for loop in loops]
        metrics["trace.overhead_ratio"] = (rate[0] / rate[1] if rate[1] else 0.0, "ratio")
        extra = {"traced_requests": (traced.attempted, "count"), "spans": (len(rec.start), "count")}
    else:
        metrics, extra = end_to_end(setup_s, loops[0], peak_rss_mb)
    extra["failed_ratio"] = (failed / attempted, "ratio")
    extra["near_ties_total"] = (tally.near_ties, "count")
    extra["tie_flips_total"] = (tally.tie_flips, "count")
    extra["verified_distinct"] = (tally.verified, "count")
    return Measured(attempted, failed, metrics, extra, errors)


if __name__ == "__main__":
    sys.exit(main())
