"""Steadiness check: run workloads ten times and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload alg1-sweep e11-dsc cli-grid [--seed0 1]

Runs ``run.py`` once per seed ``seed0 .. seed0+9`` for each workload
(``--trace 0``, the run length from ``BENCHMARK.json``) and prints, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, min / max, the quartile spread as a
share of the median, and the metric's bound, plus the operations attempted
and failed.  Exits non-zero when a run is not correct or the share of failed
operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def measure(workload: str, seeds, seconds: int) -> list:
    runs = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        runs.append(dict(json.loads(done.stdout.strip().splitlines()[-1]), seed=seed))
    return runs


def report(workload: str, runs: list, spec: dict, seconds: int) -> bool:
    seeds = [run["seed"] for run in runs]
    print(f"\n{workload}: {len(runs)} runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{metric['name']:<14} {metric['unit']:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{min(values):>12.6g} {max(values):>12.6g} {spread:>8.4f} {metric['bound']:>6}")
    shares = sorted({run["failed"] / run["attempted"] for run in runs})
    correct = all(run["correct"] for run in runs)
    print(f"attempted per run: {[run['attempted'] for run in runs]}")
    print(f"failed per run: {[run['failed'] for run in runs]}; failed shares {shares}; all correct: {correct}")
    return len(shares) == 1 and correct


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=names)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)

    seeds = range(args.seed0, args.seed0 + RUNS)
    steady = True
    for workload in args.workload:
        runs = measure(workload, seeds, spec["run_seconds"])
        steady = report(workload, runs, spec, spec["run_seconds"]) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
