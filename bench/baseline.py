"""Record the benchmark baseline of the current tree.

    python3 bench/baseline.py --seeds 1-10 --seconds 30

Runs every workload once per seed untraced, and once traced with the first
seed, then writes ``bench/baseline.json``: the machine, each end-to-end
metric's median and quartile spread (as ``statistics.quantiles(n=4)``
gives them, relative to the median), and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], args.seconds, 1)
        values = {name: [r["metrics"][name]["value"] for r in runs] for name in bounds}
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        print(f"{workload}: {entry['attempted']} attempted, {entry['failed']} failed")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"  {name:<16} median {s['median']:<12.6g} spread {s['spread']:.3f} "
                  f"bound {bounds[name]}{flag}")
    (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
