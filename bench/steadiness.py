"""Run the benchmark once per seed and report the spread of each metric.

Usage (from the repository root):

    python3 bench/steadiness.py --workload fit [--runs 10]

Seeds are 1, 2, ..., runs; each run lasts BENCHMARK.json's run_seconds.
For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound in BENCHMARK.json.  A metric is steady when
its spread stays below a third of its bound; the last line names the
metrics that are not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    unsteady = []
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        if not s < m["bound"] / 3:
            unsteady.append(m["name"])
        print(f"{m['name']:14s} median {statistics.median(vals):.6g}  spread {s:.4f}  "
              f"bound {m['bound']}  " + " ".join(f"{v:.4g}" for v in vals))
    print("steady" if not unsteady else f"spread above a third of the bound: {unsteady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
