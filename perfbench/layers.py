"""Per-layer self-time attribution for the traced benchmark run.

The traced run wraps the public functions of each layer of ``repro`` from
here, outside the program: every call pushes a frame, and on return the
frame's duration minus the time its wrapped callees took is added to the
layer's self time.  Self times therefore never double count, and for one
operation ``sum(self times) + unattributed == operation time`` holds exactly.

Wrappers are installed only by :func:`install` (the traced run) and removed
by the function it returns, so the untraced run measures the program alone.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter

#: Layer metric -> the (module, qualified attribute) pairs it covers.  A
#: dotted attribute is a method on a class; a plain one is a module-level
#: function, replaced wherever a ``repro`` module imported it by name.
IN_PROCESS_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads.plant_s": (
        ("repro.workloads.random_instances", "plant_cover_instance"),
    ),
    "lowerbound.sample_dsc_s": (("repro.lowerbound.dsc", "sample_dsc"),),
    "kernels.build_s": (("repro.kernels", "make_kernel"),),
    "kernels.gain_tracker_s": (
        ("repro.kernels.numpy_backend", "NumpyKernel.gain_tracker"),
        ("repro.kernels.pyint", "PyIntKernel.gain_tracker"),
    ),
    "kernels.tracker_cover_s": (
        ("repro.kernels.numpy_backend", "NumpyGainTracker.cover"),
        ("repro.kernels.pyint", "PyGainTracker.cover"),
    ),
    "kernels.restrict_s": (
        ("repro.kernels.numpy_backend", "NumpyKernel.restrict"),
        ("repro.kernels.pyint", "PyIntKernel.restrict"),
    ),
    "kernels.gains_s": (
        ("repro.kernels.numpy_backend", "NumpyKernel.gains"),
        ("repro.kernels.pyint", "PyIntKernel.gains"),
    ),
    "kernels.claim_resolution_s": (
        ("repro.kernels.numpy_backend", "NumpyKernel.claim_resolution"),
        ("repro.kernels.pyint", "PyIntKernel.claim_resolution"),
    ),
    "kernels.other_s": tuple(
        (module, f"{cls}.{method}")
        for module, cls in (
            ("repro.kernels.numpy_backend", "NumpyKernel"),
            ("repro.kernels.pyint", "PyIntKernel"),
        )
        for method in (
            "gain",
            "best_gain_index",
            "element_frequencies",
            "union",
            "set_sizes",
            "element_lists",
        )
    )
    + (
        ("repro.kernels.numpy_backend", "NumpyGainTracker.best"),
        ("repro.kernels.pyint", "PyGainTracker.best"),
    ),
    "core.element_sample_s": (
        ("repro.core.element_sampling", "element_sample_mask"),
    ),
    "core.algorithm1_s": (("repro.core.algorithm1", "StreamingSetCover.run"),),
    "setcover.system_build_s": (("repro.setcover.instance", "SetSystem.from_masks"),),
    "setcover.greedy_s": (
        ("repro.setcover.greedy", "greedy_set_cover"),
        ("repro.setcover.maxcover", "greedy_max_coverage"),
    ),
    "setcover.verify_s": (
        ("repro.setcover.verify", "verify_cover"),
        ("repro.setcover.verify", "is_feasible_cover"),
    ),
    "streaming.engine_s": (
        ("repro.streaming.engine", "MultiPassEngine.run"),
        ("repro.streaming.stream", "SetStream.batched_pass"),
    ),
    "baselines.har_peled_s": (
        ("repro.baselines.har_peled", "IterativePruningSetCover.run"),
    ),
    "baselines.emek_rosen_s": (
        ("repro.baselines.emek_rosen", "EmekRosenSemiStreaming.run"),
    ),
    "baselines.saha_getoor_s": (
        ("repro.baselines.saha_getoor", "SahaGetoorGreedy.run"),
    ),
    "baselines.demaine_s": (("repro.baselines.demaine", "ProgressiveGreedyPasses.run"),),
    "baselines.store_everything_s": (
        ("repro.baselines.full_storage", "StoreEverythingSetCover.run"),
    ),
}

#: Layers of the ``repro run`` front door, wrapped inside the traced child.
CLI_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.resolve_s": (("repro.cli", "resolve_experiment_ids"),),
    "cli.render_s": (("repro.experiments.harness", "ExperimentResult.render"),),
    "runtime.executor_s": (("repro.runtime.executor", "TaskExecutor.run"),),
    "runtime.store_fetch_s": (("repro.runtime.store", "ResultStore.fetch"),),
    "runtime.store_put_s": (("repro.runtime.store", "ResultStore.put"),),
}


class SelfTimer:
    """Accumulates self time and call counts per layer metric."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[float] = []

    def reset(self) -> None:
        self.self_s = {name: 0.0 for name in self.self_s}
        self.calls = {name: 0 for name in self.calls}

    def wrap(self, metric: str, func: Callable) -> Callable:
        self.self_s.setdefault(metric, 0.0)
        self.calls.setdefault(metric, 0)
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - started
                children = stack.pop()
                self.self_s[metric] += duration - children
                self.calls[metric] += 1
                if stack:
                    stack[-1] += duration

        timed.__wrapped__ = func
        timed.__name__ = getattr(func, "__name__", metric)
        timed.__qualname__ = getattr(func, "__qualname__", metric)
        return timed


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "repro"]


def _patch_method(module_name: str, dotted: str, timer: SelfTimer, metric: str, undo: list) -> None:
    class_name, method = dotted.split(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    raw = cls.__dict__.get(method)
    if raw is None:
        raise AttributeError(f"{module_name}.{dotted} is not defined on the class")
    if isinstance(raw, classmethod):
        replacement = classmethod(timer.wrap(metric, raw.__func__))
    else:
        replacement = timer.wrap(metric, raw)
    setattr(cls, method, replacement)
    undo.append((cls, method, raw))


def install(timer: SelfTimer, layers: Dict[str, Tuple[Tuple[str, str], ...]]) -> Callable[[], None]:
    """Wrap every listed function; return a callable that restores them."""
    undo: list = []
    originals: Dict[int, Tuple[Callable, Callable]] = {}
    for metric, targets in layers.items():
        for module_name, attribute in targets:
            if "." in attribute:
                _patch_method(module_name, attribute, timer, metric, undo)
                continue
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = timer.wrap(metric, original)
            originals[id(wrapper)] = wrapper, original
            for module in _repro_modules():
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapper)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        # Every module holding a wrapper by name, including one first
        # imported while the wrappers were in place, gets the original back.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                kept = originals.get(id(value))
                if kept is not None and kept[0] is value:
                    setattr(module, name, kept[1])

    return uninstall
