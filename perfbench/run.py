"""End-to-end benchmark of the repro pipeline: one workload, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload alg1-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``alg1-sweep`` (Algorithm 1 across α on planted instances),
``e11-dsc`` (the E11 algorithm set on D_SC samples) and ``cli-grid`` (cold
``repro run adversarial`` subprocesses).  The workload runs in a fresh
process (``worker.py``) with a fixed hash seed and single-threaded BLAS /
OpenMP, after the bytecode cache is compiled.  Set-up is repeated in
separate fresh processes and ``setup_s`` is the median.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alg1-sweep", "e11-dsc", "cli-grid")
#: Set-ups per untraced run, each in a fresh process; ``setup_s`` is their
#: median.  e11-dsc sets up by importing alone (~0.2 s), which is short and
#: noisy, so it takes many more samples.
SETUP_REPEATS = {"alg1-sweep": 3, "e11-dsc": 21, "cli-grid": 3}
#: Every run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0


def fixed_env(work: Path) -> dict:
    """The environment of every process the benchmark starts."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        TMPDIR=str(work / "tmp"),
    )
    return env


def run_child(command, env, deadline: float) -> None:
    """Run ``command`` in its own process group; kill the group on overrun."""
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{command[1:4]} overran the {RUN_BUDGET_S:.0f} s budget")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit(f"{' '.join(map(str, command[:4]))} ... exited {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = fixed_env(work)
    try:
        run_child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)], env, deadline)
        worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        samples = []
        for repeat in range(SETUP_REPEATS[args.workload] - 1 if not args.trace else 0):
            out = work / f"setup-{repeat}.json"
            run_child(worker + ["--setup-only", "--work", str(work / f"setup-{repeat}"), "--out", str(out)], env, deadline)
            samples.append(json.loads(out.read_text()))
        out = work / "run.json"
        run_child(worker + ["--work", str(work / "run"), "--out", str(out)], env, deadline)
        figures = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples.append(figures)
    problems = list(figures["self_check"])
    if figures["wrong"]:
        problems.append(f"{figures['wrong']} operations returned wrong outputs")
    if len({sample["digest"] for sample in samples}) != 1:
        problems.append("repeated set-ups built different inputs")
    for problem in problems:
        print(problem, file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, metrics = figures["per_layer"], spec["per_layer"]
    else:
        values = dict(figures["metrics"], setup_s=statistics.median(s["setup_s"] for s in samples))
        metrics = spec["end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
