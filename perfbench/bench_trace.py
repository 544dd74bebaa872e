"""The traced run: spans around the simulator's layers and a call ledger.

Two instruments, each used in its own fresh interpreter so neither
inflates the other:

* **Spans.** Public entry points of each layer are wrapped in
  :class:`repro.telemetry.Tracer` spans, from this file only; the
  simulator is not edited.  A span's parent is the span enclosing it,
  and its self time is its duration minus its direct children's.  A
  layer's time is reported as its share of the repetition's set-up,
  cold and hit sections.  The spans are written once, at the end, as a
  Chrome trace.
* **Call ledger.** ``cProfile`` runs over the set-up and cold sections.
  Every profiled function is mapped to a layer by its module through
  ``run.LEDGER_LAYERS`` (longest module prefix wins); a builtin or
  standard-library function is charged to the layers of its callers.
  That yields exact calls per 1000
  instructions, the kernel's stepped cycles (``PipelineBase.step``
  calls), and each layer's share of profiled self time.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import os
import pstats
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro import api
from repro.common.stats import StatsRegistry
from repro.core import warmstate
from repro.core.pipeline import PipelineBase
from repro.core.sampling import FunctionalWarmer
from repro.experiments.sweep import ResultCache, SweepEngine
from repro.robustness.pool import ResilientPool
from repro.telemetry import Tracer, write_chrome_trace
from repro.trace.trace import Trace
from repro.workloads import Suite
from run import LEDGER_LAYERS

#: Calls and time outside every layer above (api, experiments, configs, this benchmark).
OTHER = "other"

#: Wrapped entry points: (owner, attribute, span name).
ENTRY_POINTS = (
    (api, "run", "api.run"),
    (Suite, "build", "workloads.build"),
    (Trace, "digest", "trace.digest"),
    (FunctionalWarmer, "fast_forward", "core.sampling.fast_forward"),
    (warmstate, "store_checkpoint", "core.warmstate.save"),
    (warmstate, "load_matching_checkpoint", "core.warmstate.load"),
    (PipelineBase, "run", "core.pipeline.run"),
    (ResilientPool, "run", "robustness.pool.run"),
    (StatsRegistry, "merge_state", "common.stats.merge_state"),
    (SweepEngine, "run", "experiments.sweep.run"),
    (ResultCache, "store", "experiments.sweep.cache_store"),
    (ResultCache, "load", "experiments.sweep.cache_load"),
)

#: Phases of a repetition whose spans count (``check`` re-runs work untimed).
COUNTED_PHASES = ("bench:setup", "bench:cold", "bench:hit")


def _annotation(name: str, kwargs: dict, result) -> Dict[str, object]:
    """Facts a span keeps beyond its interval."""
    if name == "api.run":
        return {"sampled": kwargs.get("sampling") is not None}
    if name == "core.warmstate.save":
        return {"bytes": os.path.getsize(result)}
    if name == "robustness.pool.run":
        return {"retries": result.retries}
    return {}


class Instruments:
    """What a traced repetition switches on: spans, the profile, or both."""

    def __init__(self, spans: bool, profile: bool) -> None:
        self.tracer = Tracer() if spans else None
        self.profiler = cProfile.Profile() if profile else None
        self.profiling = False
        #: Cycles simulated by pipelines while profiling (the skip ratio's base).
        self.profiled_cycles = 0
        self._originals: List[Tuple[object, str, object]] = []
        if self.tracer is not None:
            for owner, attribute, name in ENTRY_POINTS:
                self._wrap(owner, attribute, self._spanned(getattr(owner, attribute), name))
        if self.profiler is not None:
            self._wrap(PipelineBase, "run", self._cycle_counted(PipelineBase.run))

    def _wrap(self, owner, attribute: str, replacement) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _spanned(self, original, name: str):
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, category="layer") as span:
                result = original(*args, **kwargs)
                span.annotate(**_annotation(name, kwargs, result))
            return result

        return traced

    def _cycle_counted(self, original):
        @functools.wraps(original)
        def counted(pipeline, *args, **kwargs):
            result = original(pipeline, *args, **kwargs)
            if self.profiling:
                self.profiled_cycles += result.cycles
            return result

        return counted

    @contextlib.contextmanager
    def phase(self, name: str, profile: bool = False):
        """A repetition phase: a span, and profiled when ``profile``."""
        span = (
            self.tracer.span(f"bench:{name}", category="bench")
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        profiling = profile and self.profiler is not None
        with span:
            if profiling:
                self.profiling = True
                self.profiler.enable()
            try:
                yield
            finally:
                if profiling:
                    self.profiler.disable()
                    self.profiling = False

    def finish(self, record: Dict[str, object], spans_path: Optional[Path]) -> Dict[str, float]:
        """Restore the entry points; returns this process's per-layer metrics."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        metrics: Dict[str, float] = {}
        if self.tracer is not None:
            metrics.update(span_metrics(self.tracer))
            if spans_path is not None:
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                write_chrome_trace(self.tracer, spans_path, process_name=str(record["workload"]))
        if self.profiler is not None:
            instructions = int(record["instructions"])  # type: ignore[arg-type]
            metrics.update(call_ledger(pstats.Stats(self.profiler).stats, instructions))
            stepped = metrics["core.pipeline.stepped_cycles"]
            cycles = self.profiled_cycles
            metrics["core.pipeline.skip_pct"] = 100.0 * (1 - stepped / cycles) if cycles else 0.0
        return metrics


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def _tree(spans):
    """``(children, parent)`` of every span, keyed by ``id(span)``."""
    ordered = sorted(spans, key=lambda s: (s.start, s.depth))
    children: Dict[int, List[object]] = {id(s): [] for s in ordered}
    parent: Dict[int, Optional[object]] = {}
    open_stack: List[object] = []
    for span in ordered:
        while open_stack and not (
            open_stack[-1].depth < span.depth and span.end <= open_stack[-1].end
        ):
            open_stack.pop()
        parent[id(span)] = open_stack[-1] if open_stack else None
        if open_stack:
            children[id(open_stack[-1])].append(span)
        open_stack.append(span)
    return children, parent


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures from the spans inside the counted phases.

    A layer's time is given as its share of the counted phases' wall
    time: a layer a workload never calls then reads 0 %, not a time of
    exactly 0 s in every run.  Set-up's input build is the exception;
    every workload builds inputs.
    """
    spans = [s for s in tracer.spans if s.end is not None and s.tid == 0]
    children, parent = _tree(spans)

    def ancestors(span):
        up = parent[id(span)]
        while up is not None:
            yield up
            up = parent[id(up)]

    def phase_of(span) -> Optional[str]:
        for up in ancestors(span):
            if up.name.startswith("bench:"):
                return up.name
        return None

    def self_time(span) -> float:
        return span.duration - sum(child.duration for child in children[id(span)])

    counted = [s for s in spans if phase_of(s) in COUNTED_PHASES]
    phases_s = sum(s.duration for s in spans if s.name in COUNTED_PHASES)

    def total(name: str) -> float:
        return sum(s.duration for s in counted if s.name == name)

    def share(seconds: float) -> float:
        return 100.0 * seconds / phases_s if phases_s else 0.0

    windows = [
        s
        for s in counted
        if s.name == "core.pipeline.run"
        and any(up.name == "api.run" and up.args.get("sampled") for up in ancestors(s))
    ]
    saved = [s.args.get("bytes", 0) for s in counted if s.name == "core.warmstate.save"]
    pipeline_cold = sum(
        s.duration for s in counted if s.name == "core.pipeline.run" and phase_of(s) == "bench:cold"
    )
    return {
        "common.stats.merge_pct": share(total("common.stats.merge_state")),
        "trace.digest_pct": share(total("trace.digest")),
        "workloads.build_s": total("workloads.build"),
        "core.sampling.warm_pass_pct": share(total("core.sampling.fast_forward")),
        "core.sampling.window_pct": share(sum(s.duration for s in windows)),
        "core.warmstate.save_pct": share(total("core.warmstate.save")),
        "core.warmstate.load_pct": share(total("core.warmstate.load")),
        "core.warmstate.checkpoint_kib": (max(saved) / 1024.0) if saved else 0.0,
        "robustness.pool.run_pct": share(total("robustness.pool.run")),
        "robustness.pool.retries": float(
            sum(s.args.get("retries", 0) for s in counted if s.name == "robustness.pool.run")
        ),
        "experiments.sweep.engine_self_pct": share(
            sum(self_time(s) for s in counted if s.name == "experiments.sweep.run")
        ),
        "experiments.sweep.cache_store_pct": share(total("experiments.sweep.cache_store")),
        "experiments.sweep.cache_load_pct": share(total("experiments.sweep.cache_load")),
        # Not a reported metric: combined with the profile's stepped
        # cycles into core.pipeline.us_per_step by run.py.
        "pipeline_cold_s": pipeline_cold,
    }


# ---------------------------------------------------------------------------
# Call ledger
# ---------------------------------------------------------------------------

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer of a profiled function's file, ``OTHER`` for the rest of
    ``repro``, or None outside the package (builtins, standard library)."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    module = filename[len(_PACKAGE_DIR) :].rsplit(".", 1)[0].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    best = OTHER
    for layer in LEDGER_LAYERS:
        if (module == layer or module.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


def call_ledger(stats: Dict[tuple, tuple], instructions: int) -> Dict[str, float]:
    """Calls per 1000 instructions and self-time share for every layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (primitive calls,
    calls, self time, cumulative time, {caller: (pc, calls, self, cum)})``.
    A function outside ``repro`` is split over its callers' layers, calls
    by the calls each caller made and self time by the time each spent.
    """
    by_calls: Dict[tuple, Dict[str, float]] = {}
    by_time: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, index: int, memo: Dict[tuple, Dict[str, float]], active: set):
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weight = sum(entry[index] for entry in callers.values())
        if func in active or not weight:
            return {OTHER: 1.0}
        active.add(func)
        split: Dict[str, float] = {}
        for caller, entry in callers.items():
            for layer, share in shares(caller, index, memo, active).items():
                split[layer] = split.get(layer, 0.0) + share * entry[index] / weight
        active.discard(func)
        memo[func] = split
        return split

    calls = {layer: 0.0 for layer in (*LEDGER_LAYERS, OTHER)}
    seconds = dict.fromkeys(calls, 0.0)
    stepped = 0
    for func, (_pc, count, self_s, _cum, _callers) in stats.items():
        for layer, share in shares(func, 1, by_calls, set()).items():
            calls[layer] += count * share
        for layer, share in shares(func, 2, by_time, set()).items():
            seconds[layer] += self_s * share
        if func[2] == "step" and layer_of(func[0]) == "core.pipeline":
            stepped += count
    total_s = sum(seconds.values()) or 1.0
    per_kinst = 1000.0 / instructions if instructions else 0.0
    metrics = {"core.pipeline.stepped_cycles": float(stepped)}
    for layer in LEDGER_LAYERS:
        metrics[f"{layer}.calls_per_kinst"] = round(calls[layer] * per_kinst, 4)
        metrics[f"{layer}.self_pct"] = 100.0 * seconds[layer] / total_s
    metrics["total_calls"] = sum(calls.values())
    return metrics
