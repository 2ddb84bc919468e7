"""Loop-noise floor: how much a fixed pure-Python loop drifts between runs.

Usage: ``python3 perfbench/noise.py``.  Each of ten runs is a fresh
interpreter timing the same loop five times; the run's figure is its median.
The spread of those medians across runs (quartile distance over the median,
as ``steady.py`` reports for the benchmark) is what the machine alone adds,
so no end-to-end timing bound can be tighter than it.
"""

import statistics
import subprocess
import sys

RUNS = 10
LOOP = """
import statistics, time
samples = []
for _ in range(5):
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    samples.append(time.perf_counter() - started)
print(statistics.median(samples))
"""


def main() -> int:
    medians = [
        float(subprocess.run([sys.executable, "-c", LOOP], capture_output=True, text=True, check=True).stdout)
        for _ in range(RUNS)
    ]
    q1, median, q3 = statistics.quantiles(medians, n=4)
    print("per-run medians (s):", " ".join(f"{value:.4f}" for value in medians))
    print(f"median {median:.4f} s, min {min(medians):.4f}, max {max(medians):.4f}, "
          f"quartile spread {(q3 - q1) / median:.4f} of the median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
