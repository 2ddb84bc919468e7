"""One benchmark workload in one fresh process.

``run.py`` starts this file with a fixed environment; it sets the workload
up (importing ``repro`` is part of set-up), then runs whole rounds of the
workload's fixed operation list until ``--seconds`` of rounds have passed,
checks every output with :mod:`checks`, and writes its figures as JSON to
``--out``.  With ``--setup-only`` it stops after set-up, so ``run.py`` can
take the median of several set-ups.  With ``--trace 1`` rounds alternate
untraced / traced, and the traced rounds carry the per-layer wrappers of
:mod:`layers` plus a ``repro.telemetry`` session for kernel counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

import checks
import layers

clock = time.perf_counter
HERE = Path(__file__).resolve().parent

#: Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = [metric["name"] for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]


#: Root of every input the workloads generate.  Inputs are fixed so that
#: every run does the same work and the quality metrics repeat exactly;
#: ``--seed`` orders the operations of each round.
INPUT_SEED = 2017


def derive(seed: int, *parts) -> int:
    """A 63-bit seed for one named input."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def digest_ints(values: Sequence[int], width_bytes: int) -> str:
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(value.to_bytes(width_bytes, "little"))
    return hasher.hexdigest()


def interpreter_start_s(repeats: int = 3) -> float:
    """Wall time of a bare ``python -c pass``: the floor no import can move."""
    samples = []
    for _ in range(repeats):
        started = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(clock() - started)
    return statistics.median(samples)


def importtime_s(stderr: str, module: str = "repro.cli") -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+" + re.escape(module) + r"\s*$")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match:
            return int(match.group(1)) / 1e6
    raise RuntimeError(f"no -X importtime line for {module}")


def fresh_import_s(repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            check=True, capture_output=True, text=True,
        )
        samples.append(importtime_s(done.stderr))
    return statistics.median(samples)


class InProcess:
    """Shared traced-round machinery of the in-process workloads."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.timer = layers.SelfTimer()
        self.counters: Dict[str, int] = {}
        self.plant_s = 0.0

    @contextlib.contextmanager
    def traced_setup(self, trace: bool):
        if not trace:
            yield
            return
        uninstall = layers.install(self.timer, layers.IN_PROCESS_LAYERS)
        try:
            yield
        finally:
            uninstall()
            self.plant_s = self.timer.self_s.get("workloads.plant_s", 0.0)
            self.timer.reset()

    @contextlib.contextmanager
    def tracing(self, traced: bool):
        if not traced:
            yield
            return
        from repro.telemetry import TelemetrySession

        uninstall = layers.install(self.timer, layers.IN_PROCESS_LAYERS)
        session = TelemetrySession(label="perfbench")
        try:
            with session:
                yield
        finally:
            uninstall()
            for name, value in session.snapshot()["metrics"]["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value

    def remember(self, op: int, outcome):
        return outcome

    def layer_metrics(self, traced_times: Sequence[float]) -> Dict[str, float]:
        count = len(traced_times)
        values = dict.fromkeys(PER_LAYER, 0.0)
        for metric, total in self.timer.self_s.items():
            values[metric] = total / count
        values["workloads.plant_s"] = self.plant_s
        kernel = lambda prefix: sum(v for k, v in self.counters.items() if k.startswith(prefix))
        values["kernels.calls"] = kernel("kernel.calls.") / count
        values["kernels.words"] = kernel("kernel.words.") / count
        values["streaming.passes"] = self.counters.get("stream.passes", 0) / count
        values["unattributed_s"] = (sum(traced_times) - sum(self.timer.self_s.values())) / count
        values["cli.import_s"] = fresh_import_s()
        values["cli.interpreter_s"] = interpreter_start_s()
        return values


class Run(NamedTuple):
    """What the checks and quality metrics read from one streaming run."""

    name: str
    solution: List[int]
    passes: int
    words: int
    cleanup: bool

    @classmethod
    def of(cls, name: str, result) -> "Run":
        return cls(name, list(result.solution), result.passes, result.space.peak_words,
                   bool(result.metadata.get("cleanup_used")))


def run_quality(runs: Sequence[Run], opt) -> Tuple[float, List[int], List[float]]:
    ratios = [len(run.solution) / opt for run in runs] if opt else []
    return sum(run.words for run in runs), [run.passes for run in runs], ratios


class Alg1Sweep(InProcess):
    """α-sweep of Algorithm 1 over planted-cover instances made in set-up."""

    N, M, K = 1 << 12, 1 << 13, 8
    INSTANCES = 3
    ALPHAS = (2, 3, 4)
    EPSILON = 0.5
    SAMPLING_CONSTANT = 1.0

    def setup(self, trace: bool) -> str:
        from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
        from repro.setcover.instance import SetSystem
        from repro.streaming.engine import run_streaming_algorithm
        from repro.streaming.stream import StreamOrder
        from repro.workloads import random_instances

        self.api = (AlgorithmOneConfig, StreamingSetCover, SetSystem, run_streaming_algorithm, StreamOrder)
        self.instances: List[List[int]] = []
        with self.traced_setup(trace):
            for index in range(self.INSTANCES):
                instance = random_instances.plant_cover_instance(
                    self.N, self.M, self.K, seed=derive(INPUT_SEED, "planted", index))
                self.instances.append([int(mask) for mask in instance.system.masks()])
        hasher = hashlib.sha256()
        for masks in self.instances:
            hasher.update(digest_ints(masks, self.N // 8).encode())
        return hasher.hexdigest()

    def round_ops(self) -> List[int]:
        return list(range(self.INSTANCES))

    def run_op(self, index: int, traced: bool) -> List[Run]:
        config_cls, algorithm_cls, system_cls, run, order = self.api
        runs = []
        for alpha in self.ALPHAS:
            # A fresh SetSystem per run: each pays the cold kernel build.
            system = system_cls.from_masks(self.N, self.instances[index])
            algorithm = algorithm_cls(
                config_cls(
                    alpha=alpha, opt_guess=self.K, epsilon=self.EPSILON,
                    sampling_constant=self.SAMPLING_CONSTANT, subinstance_solver="greedy",
                ),
                seed=derive(INPUT_SEED, "alg1", index, alpha),
            )
            result = run(algorithm, system, order=order.RANDOM, seed=derive(INPUT_SEED, "order", index, alpha))
            runs.append(Run.of(f"alpha={alpha}", result))
        return runs

    def check(self, index: int, runs: List[Run], traced: bool) -> List[str]:
        problems = []
        for alpha, run in zip(self.ALPHAS, runs):
            label = f"instance {index} {run.name}"
            problems += checks.cover_problems(label, self.instances[index], self.N, run.solution)
            problems += checks.pass_problems(label, run.passes, checks.algorithm1_pass_limit(alpha, run.cleanup))
        return problems

    def quality(self, runs: List[Run]) -> Tuple[float, List[int], List[float]]:
        return run_quality(runs, self.K)

    def self_check(self, remembered) -> List[str]:
        index, runs = remembered[0]
        limit = checks.algorithm1_pass_limit(self.ALPHAS[0], runs[0].cleanup)
        masks = self.instances[index]
        return checks.self_check_problems({
            "cover": checks.cover_problems("corrupt", masks, self.N, checks.drop_needed_set(masks, runs[0].solution)),
            "algorithm1 passes": checks.pass_problems("corrupt", limit + 1, limit),
        })


class E11Dsc(InProcess):
    """The E11 algorithm set on freshly sampled D_SC instances, θ alternating."""

    N, PAIRS, ALPHA = 1 << 11, 1 << 10, 2
    OPS_PER_ROUND = 6
    EPSILON = 1.0
    SAMPLING_CONSTANT = 1.0
    SINGLE_PASS = ("emek_rosen", "saha_getoor", "store_everything")

    def setup(self, trace: bool) -> str:
        from repro.baselines import (
            EmekRosenSemiStreaming, IterativePruningSetCover, ProgressiveGreedyPasses,
            SahaGetoorGreedy, StoreEverythingSetCover,
        )
        from repro.core.algorithm1 import AlgorithmOneConfig, StreamingSetCover
        from repro.lowerbound import dsc
        from repro.setcover import greedy
        from repro.streaming import engine

        # Called through their modules, so traced rounds see the wrappers.
        self.modules = dsc, greedy, engine
        self.parameters = dsc.DSCParameters(universe_size=self.N, num_pairs=self.PAIRS, alpha=self.ALPHA)

        def algorithms(index: int, guess: int):
            seed = lambda name: derive(INPUT_SEED, name, index)
            return [
                ("algorithm1", StreamingSetCover(AlgorithmOneConfig(
                    alpha=self.ALPHA, opt_guess=guess, epsilon=self.EPSILON,
                    sampling_constant=self.SAMPLING_CONSTANT, subinstance_solver="greedy"),
                    seed=seed("algorithm1"))),
                ("har_peled", IterativePruningSetCover(
                    alpha=self.ALPHA, opt_guess=guess, epsilon=self.EPSILON,
                    sampling_constant=self.SAMPLING_CONSTANT, seed=seed("har_peled"))),
                ("demaine", ProgressiveGreedyPasses(num_passes=2 * self.ALPHA)),
                ("saha_getoor", SahaGetoorGreedy()),
                ("emek_rosen", EmekRosenSemiStreaming()),
                ("store_everything", StoreEverythingSetCover(solver="greedy")),
            ]

        self.algorithms = algorithms
        self.op_seeds = [derive(INPUT_SEED, "dsc", index) for index in range(self.OPS_PER_ROUND)]
        # Samples are drawn inside the operations; the first round's digest
        # of each is what later rounds must reproduce.
        self.sample_digests: Dict[int, str] = {}
        return digest_ints(self.op_seeds, 8)

    def round_ops(self) -> List[int]:
        return list(range(self.OPS_PER_ROUND))

    def run_op(self, index: int, traced: bool):
        dsc, greedy, engine = self.modules
        theta = index % 2
        sample = dsc.sample_dsc(self.parameters, seed=self.op_seeds[index], theta=theta)
        system = sample.set_system()
        # θ=1 plants a cover of 2; otherwise the greedy bound, as E11 does.
        guess = 2 if theta == 1 else len(greedy.greedy_set_cover(system))
        runs = [Run.of(name, engine.run_streaming_algorithm(algorithm, system))
                for name, algorithm in self.algorithms(index, guess)]
        return sample, runs

    def check(self, index: int, outcome, traced: bool) -> List[str]:
        sample, runs = outcome
        masks = list(sample.alice_sets) + list(sample.bob_sets)
        problems = self.repeat_problems(index, masks)
        if sample.theta == 1:
            problems += checks.special_pair_problems(sample.alice_sets, sample.bob_sets, sample.special_index, self.N)
        for run in runs:
            label = f"op {index} {run.name}"
            problems += checks.cover_problems(label, masks, self.N, run.solution)
            if run.name == "algorithm1":
                problems += checks.pass_problems(label, run.passes, checks.algorithm1_pass_limit(self.ALPHA, run.cleanup))
            elif run.name in self.SINGLE_PASS:
                problems += checks.pass_problems(label, run.passes, 1, exact=True)
        return problems

    def repeat_problems(self, index: int, masks: List[int]) -> List[str]:
        """The sample of op ``index`` must be the one drawn in the first round."""
        digest = digest_ints(masks, self.N // 8)
        if self.sample_digests.setdefault(index, digest) != digest:
            return [f"op {index}: D_SC sample differs from the first round's"]
        return []

    def quality(self, outcome) -> Tuple[float, List[int], List[float]]:
        sample, runs = outcome
        return run_quality(runs, sample.planted_opt)

    def self_check(self, remembered) -> List[str]:
        op, (sample, runs) = next(item for item in remembered if item[1][0].theta == 1)
        masks = list(sample.alice_sets) + list(sample.bob_sets)
        special = sample.special_index
        union = sample.alice_sets[special] | sample.bob_sets[special]
        lowest = union & -union
        broken_alice, broken_bob = list(sample.alice_sets), list(sample.bob_sets)
        broken_alice[special] &= ~lowest
        broken_bob[special] &= ~lowest
        with_full = list(sample.alice_sets)
        with_full[(special + 1) % self.PAIRS] = (1 << self.N) - 1
        return checks.self_check_problems({
            "cover": checks.cover_problems("corrupt", masks, self.N, checks.drop_needed_set(masks, runs[0].solution)),
            "single-pass": checks.pass_problems("corrupt", 2, 1, exact=True),
            "special pair": checks.special_pair_problems(broken_alice, broken_bob, special, self.N),
            "no full set": checks.special_pair_problems(with_full, sample.bob_sets, special, self.N),
            "repeated sample": self.repeat_problems(op, [masks[0] ^ 1] + masks[1:]),
        })


class CliGrid:
    """Cold ``repro run adversarial`` subprocesses over the 48-cell ADV grid."""

    #: ``run_workload_sweep`` defaults the ADV grid runs with.
    WL_DEFAULTS = dict(universe_size=96, num_sets=24, num_pairs=6, alpha=2, epsilon=0.35, cover_size=3)
    GRID_CELLS = 48
    #: One operation per grid seed; a round runs every grid once.
    GRIDS = 4

    def __init__(self, work: Path) -> None:
        self.work = work
        self.grid_seeds = [derive(INPUT_SEED, "adv-grid", index) % (1 << 31) for index in range(self.GRIDS)]
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.ops_done = 0
        self.peak_rss_mb = 0.0
        self.layer_totals: Dict[str, float] = {}
        self.traced_ops = 0

    def command(self, grid: int, store: Path, traced: bool) -> List[str]:
        args = ["run", "adversarial", "--workers", str(self.workers), "--store", str(store),
                "--seed", str(self.grid_seeds[grid])]
        if traced:
            trace_dir = store.with_name(store.name + "-trace")
            return [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                    str(store.with_name(store.name + "-layers.json")), *args, "--trace", str(trace_dir)]
        return [sys.executable, "-m", "repro.cli", *args]

    def setup(self, trace: bool) -> str:
        from repro.utils.rng import spawn_rng
        from repro.workloads.adversarial import dmc_stream_instance, dsc_stream_instance
        from repro.workloads.coverage import topic_coverage_instance
        from repro.workloads.random_instances import random_instance

        d = self.WL_DEFAULTS
        builders = {
            "dsc": lambda s: dsc_stream_instance(d["universe_size"], d["num_pairs"], d["alpha"], theta=None, seed=s),
            "dmc": lambda s: dmc_stream_instance(d["num_pairs"], d["epsilon"], theta=None, seed=s),
            "random": lambda s: random_instance(d["universe_size"], d["num_sets"], seed=s),
            "coverage": lambda s: topic_coverage_instance(
                d["universe_size"], d["num_sets"], communities=max(2, d["cover_size"]), seed=s),
        }
        self.coverable: List[Dict[str, bool]] = []
        self.sizes: List[Dict[str, tuple]] = []
        self.reference_stdout: List[bytes] = []
        self.reference: List[Dict[str, bytes]] = []
        hasher = hashlib.sha256()
        for grid, grid_seed in enumerate(self.grid_seeds):
            # run_workload_sweep draws the instance from the first child stream
            # of the cell seed; the algorithm and order axes do not change it.
            coverable, sizes = {}, {}
            for workload, build in builders.items():
                system = build(spawn_rng(grid_seed).spawn()).system
                masks = [int(mask) for mask in system.masks()]
                coverable[workload] = checks.union_of(masks) == (1 << system.universe_size) - 1
                sizes[workload] = (system.universe_size, system.num_sets)
            store = self.work / f"serial-{grid}"
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", "adversarial", "--workers", "1",
                 "--store", str(store), "--seed", str(grid_seed)],
                check=True, capture_output=True,
            )
            entries = checks.store_entries(store)
            shutil.rmtree(store)
            problems = checks.feasibility_problems(checks.grid_rows(entries), coverable, sizes)
            if len(entries) != self.GRID_CELLS or problems:
                raise RuntimeError(f"serial grid {grid_seed} is wrong: {len(entries)} cells, {problems[:3]}")
            self.coverable.append(coverable)
            self.sizes.append(sizes)
            self.reference_stdout.append(done.stdout)
            self.reference.append(entries)
            hasher.update(done.stdout)
            for name, raw in entries.items():
                hasher.update(name.encode() + raw)
        if trace:
            self.interpreter_s = interpreter_start_s()
        return hasher.hexdigest()

    @contextlib.contextmanager
    def tracing(self, traced: bool):
        yield

    def round_ops(self) -> List[int]:
        return list(range(self.GRIDS))

    def run_op(self, grid: int, traced: bool):
        store = self.work / f"op-{self.ops_done}"
        self.ops_done += 1
        with open(store.with_name(store.name + ".out"), "w+b") as out, \
                open(store.with_name(store.name + ".err"), "w+b") as err:
            child = subprocess.Popen(self.command(grid, store, traced), stdout=out, stderr=err)
            # wait4 reports the peak RSS of this run (pool workers included).
            _pid, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
            out.seek(0)
            err.seek(0)
            done = subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())
        for stream in (".out", ".err"):
            store.with_name(store.name + stream).unlink()
        return store, done

    def check(self, grid: int, outcome, traced: bool) -> List[str]:
        store, done = outcome
        try:
            if done.returncode != 0:
                return [f"repro run exited {done.returncode}: {done.stderr.decode(errors='replace')[-400:]}"]
            entries = checks.store_entries(store)
            if traced:
                problems = checks.result_payload_problems(entries, self.reference[grid])
                self.absorb_layers(store, done.stderr.decode())
            else:
                problems = checks.store_problems(entries, self.reference[grid])
                if done.stdout != self.reference_stdout[grid]:
                    problems.append("sharded stdout differs from the serial run")
            rows = checks.grid_rows(entries)
            problems += checks.feasibility_problems(rows, self.coverable[grid], self.sizes[grid])
            self.last = rows, entries
            return problems
        finally:
            for leftover in (store, store.with_name(store.name + "-trace")):
                shutil.rmtree(leftover, ignore_errors=True)
            store.with_name(store.name + "-layers.json").unlink(missing_ok=True)

    def quality(self, outcome) -> Tuple[float, List[int], List[float]]:
        rows = self.last[0]
        return (
            sum(row["peak_space_words"] for row in rows),
            [row["passes"] for row in rows if row["passes"] is not None],
            [row["solution_size"] / row["opt_guess"] for row in rows if row["feasible"]],
        )

    def remember(self, grid: int, outcome):
        return self.last[1]

    def self_check(self, remembered) -> List[str]:
        grid, entries = remembered[0]
        rows = checks.grid_rows(entries)
        rows[0] = dict(rows[0], feasible=not rows[0]["feasible"])
        return checks.self_check_problems({
            "store bytes": checks.store_problems(checks.flip_one_byte(entries), self.reference[grid]),
            "feasibility": checks.feasibility_problems(rows, self.coverable[grid], self.sizes[grid]),
        })

    def absorb_layers(self, store: Path, stderr: str) -> None:
        child = json.loads(store.with_name(store.name + "-layers.json").read_text())
        totals = self.layer_totals
        add = lambda name, value: totals.__setitem__(name, totals.get(name, 0.0) + value)
        for name, value in child["self_s"].items():
            add(name, value)
        add("runtime.store_puts", child["calls"]["runtime.store_put_s"])
        add("cli.import_s", importtime_s(stderr))
        trace_dir = store.with_name(store.name + "-trace")
        for path in trace_dir.glob("*.jsonl"):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record.get("event") == "span" and record["name"] == "task.run":
                    add("runtime.task_s", record["dur"])
                elif record.get("event") == "span" and record["name"] == "task.queue_wait":
                    add("runtime.queue_wait_s", record["dur"])
                elif record.get("event") == "metrics":
                    for name, value in record["metrics"]["counters"].items():
                        if name.startswith("kernel.calls."):
                            add("kernels.calls", value)
                        elif name.startswith("kernel.words."):
                            add("kernels.words", value)
                        elif name == "stream.passes":
                            add("streaming.passes", value)
        self.traced_ops += 1

    def layer_metrics(self, traced_times: Sequence[float]) -> Dict[str, float]:
        count = self.traced_ops
        values = dict.fromkeys(PER_LAYER, 0.0)
        for name, total in self.layer_totals.items():
            values[name] = total / count
        values["cli.interpreter_s"] = self.interpreter_s
        attributed = sum(values[name] for name in CLI_ATTRIBUTED)
        values["unattributed_s"] = sum(traced_times) / len(traced_times) - attributed
        return values


#: The parent-process timeline of one ``repro run``: these add up, with
#: ``unattributed_s``, to the traced operation time.  ``runtime.task_s`` and
#: ``runtime.queue_wait_s`` are worker-side and overlap ``runtime.executor_s``.
CLI_ATTRIBUTED = (
    "cli.interpreter_s", "cli.import_s", "cli.resolve_s", "cli.render_s", "runtime.executor_s",
    "runtime.store_fetch_s", "runtime.store_put_s",
)

WORKLOADS = {"alg1-sweep": Alg1Sweep, "e11-dsc": E11Dsc, "cli-grid": CliGrid}


def run_rounds(workload, seed: int, seconds: float, trace: bool) -> dict:
    order = random.Random(seed)
    times: Dict[bool, List[float]] = {False: [], True: []}
    attempted = failed = wrong = 0
    quality = []
    remembered = []
    self_check: List[str] = []
    started = clock()
    round_index = 0
    while True:
        traced = trace and round_index % 2 == 1
        with workload.tracing(traced):
            ops = workload.round_ops()
            order.shuffle(ops)
            for op in ops:
                gc.collect()
                attempted += 1
                begun = clock()
                try:
                    outcome = workload.run_op(op, traced)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                elapsed = clock() - begun
                try:
                    problems = workload.check(op, outcome, traced)
                except Exception:
                    # A malformed output can break the checker itself.
                    traceback.print_exc()
                    problems = ["the output could not be checked"]
                if problems:
                    failed += 1
                    wrong += 1
                    print(f"op {op}: " + "; ".join(problems[:5]), file=sys.stderr)
                    continue
                times[traced].append(elapsed)
                quality.append(workload.quality(outcome))
                if round_index == 0:
                    remembered.append((op, workload.remember(op, outcome)))
        if round_index == 0:
            self_check = workload.self_check(remembered) if remembered else ["no operation of the first round succeeded"]
            remembered = []
        round_index += 1
        if clock() - started >= seconds and (not trace or round_index % 2 == 0):
            break

    passes = [p for _s, run_passes, _r in quality for p in run_passes]
    ratios = [r for _s, _p, run_ratios in quality for r in run_ratios]
    measured = times[False]
    figures = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "self_check": self_check,
        "metrics": {
            "ops_per_s": len(measured) / sum(measured) if measured else 0.0,
            "op_s.p50": statistics.median(measured) if measured else 0.0,
            "peak_rss_mb": getattr(workload, "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            "space_words": statistics.fmean(s for s, _p, _r in quality) if quality else 0.0,
            "passes": statistics.fmean(passes) if passes else 0.0,
            "approx_ratio": statistics.fmean(ratios) if ratios else 0.0,
        },
    }
    if trace and times[True]:
        layer_values = workload.layer_metrics(times[True])
        layer_values["traced.op_s.mean"] = statistics.fmean(times[True])
        layer_values["trace.op_s.p50_ratio"] = statistics.median(times[True]) / statistics.median(measured)
        figures["per_layer"] = layer_values
    return figures


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = clock()
    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.work)
    digest = workload.setup(bool(args.trace))
    figures = {"setup_s": clock() - started, "digest": digest}
    if not args.setup_only:
        figures.update(run_rounds(workload, args.seed, args.seconds, bool(args.trace)))
    args.out.write_text(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
