"""Sampled execution: functional fast-forward plus detailed sample windows.

Detailed cycle-level simulation costs tens of microseconds per
instruction; the regimes this paper cares about (thousands of in-flight
instructions hiding ~kilocycle memory latencies) only show up on long
traces.  This module implements the standard way out — statistical
sampling in the SMARTS tradition:

1. one **functional pass** covers the whole trace: instructions retire
   in program order with no pipeline timing, but every one still drives
   the memory hierarchy (tag/LRU/dirty state, prefetcher training,
   MSHR-free fills) and the branch predictor/BTB, so long-lived
   microarchitectural state stays warm.  At each detailed-window
   boundary the pass *snapshots* that warm state;
2. each **detailed window** runs on the real pipeline over its trace
   slice, adopting its boundary snapshot
   (``PipelineBase.adopt_warm_state``): a ``warmup`` span refills the
   (short-lived) pipeline structures unmeasured, then ``window``
   instructions are measured cycle-accurately;
3. per-window IPCs feed a CLT confidence interval and the
   instruction-weighted ratio estimator extrapolates whole-trace IPC.

Because every window starts from a snapshot of the *functional* pass —
never from another window's detailed leftovers — the windows are
independent by construction.  That buys two things:

* **Parallel windows** (``parallel_windows=N`` /  ``--sample-jobs N``):
  every window is one task of a supervised
  :class:`~repro.robustness.pool.ResilientPool`, which runs the tasks
  in the parent for ``N=1`` and on ``N`` workers otherwise.  Each task
  returns its cycle attribution plus a raw statistics dump, and the
  parent reduces the dumps in window order, so the result — windows,
  IPC, CI, every statistic — does not depend on ``N``.
* **Reusable warm-state checkpoints** (``checkpoint_dir=``): the
  snapshots are persisted as a sha256-keyed
  :class:`~repro.trace.io.WarmCheckpoint` file.  The key covers only
  what shapes warm state (trace digest, sampling plan, hierarchy and
  predictor parameters, simulator version — see
  :mod:`repro.core.warmstate`), so machine configs differing in
  ROB/checkpoint/SLIQ/latency knobs share one functional pass: an
  N-machine XL sweep warms up once, not N times.

Sampling is strictly opt-in.  Nothing here runs unless a
:class:`SamplingPlan` is passed to :class:`repro.api.Simulation` /
:func:`repro.api.run` / ``run_many`` or ``--sample`` on the CLI, and a
plan whose period leaves nothing to fast-forward degenerates to one
continuous detailed run whose result is bit-identical to the unsampled
simulator.  Parallelism and checkpoint reuse are opt-in on top of that
and never change the result, only where the time is spent.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..branch import BranchTargetBuffer
from ..common.config import ProcessorConfig, SamplingPlan
from ..common.errors import ConfigurationError, SimulationError
from ..common.eviction import evict_lru
from ..common.stats import StatsRegistry, ratio
from ..memory.hierarchy import CacheHierarchy
from ..robustness.pool import ResilientPool
from ..robustness.retry import RetryPolicy
from ..trace.io import CHECKPOINT_SUFFIX, WarmCheckpoint
from ..trace.trace import Trace
from . import warmstate
from .registry_machines import create_pipeline, get_machine
from .result import SimulationResult

#: Functional warm-up passes executed by this process (tests assert that
#: checkpoint reuse makes an N-machine sweep warm up once).
WARM_PASSES = 0


class FunctionalWarmer:
    """Retires instructions in program order without modeling timing.

    The warmer owns nothing: it drives the hierarchy, direction
    predictor and BTB whose boundary snapshots the detailed windows
    adopt.  Per instruction it touches the instruction side, trains the
    branch structures with the trace outcome (predictors end in exactly
    the state a detailed front end would leave — see
    ``GSharePredictor.warm``), and performs the MSHR-free data-access
    path (fills, recency, prefetcher training).  Only the ``sampling.*``
    accounting counters are bumped, so detailed-mode statistics stay
    uncontaminated.
    """

    __slots__ = ("hierarchy", "predictor", "btb", "_perfect_branches", "_fast_forwarded")

    def __init__(
        self,
        config: ProcessorConfig,
        hierarchy: CacheHierarchy,
        predictor,
        btb: BranchTargetBuffer,
        stats: StatsRegistry,
    ) -> None:
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.btb = btb
        self._perfect_branches = config.branch.perfect
        self._fast_forwarded = stats.counter("sampling.fast_forwarded_instructions")

    def fast_forward(self, trace: Trace, start: int, count: int, record: bool = True) -> int:
        """Functionally retire ``trace[start:start+count]``; returns the new position.

        ``record=False`` advances warm state without bumping the
        fast-forward counter — used when the functional pass walks
        *through* a detailed region purely for state continuity, so
        ``sampling.fast_forwarded_instructions`` keeps meaning "skipped,
        never simulated in detail" and the accounting identity
        ``detailed + fast_forwarded == len(trace)`` holds.
        """
        hierarchy = self.hierarchy
        warm_inst = hierarchy.warm_inst
        warm_data = hierarchy.warm_data
        predictor_warm = self.predictor.warm
        btb_update = self.btb.update
        train_branches = not self._perfect_branches
        # The detailed front end touches the I-cache once per fetch block,
        # not per instruction; warming at line granularity matches that
        # (and is the hot-loop win — most instructions share a line).
        line_shift = hierarchy.config.il1.line_bytes.bit_length() - 1
        last_line = -1
        for instr in trace.instructions_between(start, start + count):
            pc = instr.pc
            pc_line = pc >> line_shift
            if pc_line != last_line:
                warm_inst(pc)
                last_line = pc_line
            if instr.is_branch:
                if train_branches:
                    predictor_warm(pc, instr.branch_taken)
                    if instr.branch_taken:
                        btb_update(pc, instr.branch_target or 0)
            elif instr.is_memory:
                warm_data(instr.mem_addr or 0, instr.is_store, pc=pc)
        if record:
            self._fast_forwarded.add(count)
        return start + count


#: Two-sided 97.5% Student-t quantiles by degrees of freedom; sampled runs
#: often have only a handful of windows, where the normal 1.96 would
#: undercover badly (df=2 needs 4.30).
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}


def _t_quantile(df: int) -> float:
    """Quantile for ``df`` degrees of freedom, never narrower than the truth.

    Between table entries the quantile decreases with df, so rounding
    *down* to the largest tabulated df at or below the requested one
    always yields a multiplier at least as wide as the exact value.
    """
    exact = _T_975.get(df)
    if exact is not None:
        return exact
    return _T_975[max(key for key in _T_975 if key <= df)]


def _confidence_interval(ipcs: Sequence[float]) -> float:
    """Half-width of the 95% CI on the mean of per-window IPCs.

    Student-t with ``n - 1`` degrees of freedom: window counts are often
    small (an XL trace under the default plans yields 3-7 windows), so
    the small-sample multiplier matters for honest coverage.
    """
    n = len(ipcs)
    if n < 2:
        return 0.0
    mean = sum(ipcs) / n
    variance = sum((value - mean) ** 2 for value in ipcs) / (n - 1)
    return _t_quantile(n - 1) * math.sqrt(variance / n)


def _window_record(start: int, instructions: int, cycles: int) -> Dict[str, object]:
    return {
        "start": start,
        "instructions": instructions,
        "cycles": cycles,
        "ipc": ratio(instructions, cycles),
    }


def _merge_marked_windows(
    boundaries: List[Tuple[int, int]], start: int = 0
) -> List[Dict[str, object]]:
    """Per-window records from (committed, cycle) boundaries.

    ``start`` is the trace position of the first boundary; subsequent
    window starts accumulate from it.  On the checkpointed machine
    commits arrive a whole checkpoint at a time, so consecutive
    boundaries can share a cycle; zero-cycle spans are folded into the
    following window (or the previous one at the tail) to keep every
    reported window's IPC finite.
    """
    windows: List[Dict[str, object]] = []
    acc_instr = 0
    acc_cycles = 0
    win_start = start
    previous = boundaries[0]
    for boundary in boundaries[1:]:
        acc_instr += boundary[0] - previous[0]
        acc_cycles += boundary[1] - previous[1]
        previous = boundary
        if acc_instr > 0 and acc_cycles > 0:
            windows.append(_window_record(win_start, acc_instr, acc_cycles))
            win_start += acc_instr
            acc_instr = 0
            acc_cycles = 0
    if acc_instr or acc_cycles:
        if windows:
            last = windows[-1]
            last["instructions"] = int(last["instructions"]) + acc_instr
            last["cycles"] = int(last["cycles"]) + acc_cycles
            last["ipc"] = ratio(last["instructions"], last["cycles"])
        elif acc_instr:
            windows.append(_window_record(win_start, acc_instr, acc_cycles))
    return windows


def _run_continuous(
    config: ProcessorConfig,
    trace: Trace,
    plan: SamplingPlan,
    *,
    probes: Sequence = (),
    force_per_cycle: bool = False,
    max_cycles: Optional[int] = None,
    progress=None,
    progress_interval: int = 8192,
    tracer=None,
) -> SimulationResult:
    """Fully-detailed degenerate case: window attribution over one exact run.

    Used when the plan leaves nothing to fast-forward (``period ==
    warmup + window``) or the trace is too short to hold a warmed
    window.  The underlying simulation is the ordinary kernel, so
    cycles, IPC and every statistic are bit-identical to the unsampled
    run; only the sampling metadata (windows, CI) is layered on top.
    """
    import dataclasses

    pipeline = create_pipeline(config, trace, None, probes=probes)
    total = len(trace)
    marks = list(range(plan.window, total, plan.window))
    span = (
        tracer.span("sampling:window", category="sampling", start=0, instructions=total)
        if tracer is not None
        else nullcontext()
    )
    with span:
        result = pipeline.run(
            max_cycles=max_cycles,
            progress=progress,
            progress_interval=progress_interval,
            force_per_cycle=force_per_cycle,
            commit_marks=marks,
        )
    boundaries = [(0, 0)]
    boundaries.extend(
        (target, cycle) for target, cycle, _fetched in pipeline.commit_mark_records
    )
    if not boundaries or boundaries[-1][0] < result.committed_instructions:
        boundaries.append((result.committed_instructions, result.cycles))
    windows = _merge_marked_windows(boundaries)
    ipcs = [float(window["ipc"]) for window in windows]
    return dataclasses.replace(
        result, sampled=True, windows=windows, ipc_ci95=_confidence_interval(ipcs)
    )


def _functional_pass(
    effective: ProcessorConfig,
    trace: Trace,
    segments: Sequence[Tuple[int, int, int]],
    stats: StatsRegistry,
    tracer=None,
) -> Tuple[List[int], List[Dict[str, Any]]]:
    """One functional pass over the whole trace, snapshotting at boundaries.

    Returns ``(boundaries, snapshots)``: the trace position where each
    detailed region starts and the warm state captured there.  The pass
    walks *through* detailed regions too (uncounted), so window N+1's
    snapshot never depends on how window N executed in detail — the
    property that makes windows order-independent and parallelizable.
    """
    global WARM_PASSES
    WARM_PASSES += 1
    hierarchy, predictor, btb = warmstate.build_warm_structures(effective, stats)
    warmer = FunctionalWarmer(effective, hierarchy, predictor, btb, stats)
    boundaries: List[int] = []
    snapshots: List[Dict[str, Any]] = []
    position = 0
    for skip, warmup, measure in segments:
        detailed = warmup + measure
        span = (
            tracer.span(
                "sampling:fast-forward",
                category="sampling",
                instructions=skip + detailed,
            )
            if tracer is not None
            else nullcontext()
        )
        with span:
            if skip:
                position = warmer.fast_forward(trace, position, skip)
            if detailed:
                boundaries.append(position)
                snapshots.append(warmstate.capture_warm_state(hierarchy, predictor, btb))
                position = warmer.fast_forward(trace, position, detailed, record=False)
    return boundaries, snapshots


def _warm_snapshots(
    effective: ProcessorConfig,
    trace: Trace,
    plan: SamplingPlan,
    segments: Sequence[Tuple[int, int, int]],
    tracer=None,
    checkpoint_dir=None,
    checkpoint_max_bytes: Optional[int] = None,
) -> Tuple[List[int], List[Dict[str, Any]], Dict[str, list]]:
    """Warm snapshots for every detailed region, checkpoint-aware.

    With a ``checkpoint_dir``, a checkpoint matching the sha256 key of
    ``(trace digest, plan, warm parameters, simulator version)`` is
    adopted instead of re-running the functional pass; a miss runs the
    pass and persists it (evicting LRU files past
    ``checkpoint_max_bytes``).  Returns ``(boundaries, snapshots,
    warm_stats_dump)`` — the dump carries the pass's statistic
    contributions so hit and miss runs produce identical results.
    """
    expected = []
    position = 0
    for skip, warmup, measure in segments:
        position += skip
        if warmup + measure:
            expected.append(position)
            position += warmup + measure
    key = None
    if checkpoint_dir is not None:
        key = warmstate.checkpoint_key(trace.digest(), plan, effective)
        span = (
            tracer.span("sampling:checkpoint-load", category="sampling", key=key)
            if tracer is not None
            else nullcontext()
        )
        with span:
            checkpoint = warmstate.load_matching_checkpoint(checkpoint_dir, key)
        if (
            checkpoint is not None
            and checkpoint.instructions == len(trace)
            and checkpoint.boundaries == expected
        ):
            try:
                # Trial-merge into a scratch registry: a checkpoint whose
                # stats dump will not fold cleanly is treated as a miss
                # rather than crashing mid-run.
                StatsRegistry().merge_state(checkpoint.warm_stats)
            except (ValueError, TypeError):
                checkpoint = None
            else:
                return checkpoint.boundaries, checkpoint.snapshots, checkpoint.warm_stats
    warm_stats = StatsRegistry()
    boundaries, snapshots = _functional_pass(effective, trace, segments, warm_stats, tracer)
    warm_dump = warm_stats.dump_state()
    if checkpoint_dir is not None:
        from .. import __version__

        checkpoint = WarmCheckpoint(
            key=key,
            simulator_version=__version__,
            trace_digest=trace.digest(),
            trace_name=trace.name,
            instructions=len(trace),
            plan=plan.to_dict(),
            params=warmstate.warm_parameters(effective),
            boundaries=boundaries,
            snapshots=snapshots,
            warm_stats=warm_dump,
        )
        span = (
            tracer.span("sampling:checkpoint-save", category="sampling", key=key)
            if tracer is not None
            else nullcontext()
        )
        with span:
            warmstate.store_checkpoint(checkpoint_dir, checkpoint)
            evict_lru(checkpoint_dir, checkpoint_max_bytes, CHECKPOINT_SUFFIX)
    return boundaries, snapshots, warm_dump


def warm_checkpoint(
    config: ProcessorConfig,
    trace: Trace,
    plan: SamplingPlan,
    checkpoint_dir,
    *,
    checkpoint_max_bytes: Optional[int] = None,
    tracer=None,
) -> Tuple["Path", str, bool]:
    """Build (or reuse) the warm checkpoint for ``(config, trace, plan)``.

    Runs the functional warm pass exactly as :func:`run_sampled` would
    and persists it under ``checkpoint_dir``, without simulating any
    detailed windows — the ``repro checkpoint save`` entry point.
    Returns ``(path, key, reused)`` where ``reused`` is True when a
    matching checkpoint was already on disk.  Raises
    :class:`ConfigurationError` for a plan that degenerates to one
    continuous run (there is no warm state to checkpoint).
    """
    config.validate()
    plan.validate()
    segments = plan.schedule(len(trace))
    if plan.fast_forward_per_period == 0 or not any(
        measure for _skip, _warm, measure in segments
    ):
        raise ConfigurationError(
            f"sampling plan {plan.describe()!r} runs {trace.name} as one "
            "continuous window; there is no warm state to checkpoint"
        )
    effective = get_machine(config.mode).pipeline_class.effective_config(config)
    key = warmstate.checkpoint_key(trace.digest(), plan, effective)
    before = WARM_PASSES
    _warm_snapshots(
        effective, trace, plan, segments, tracer, checkpoint_dir, checkpoint_max_bytes
    )
    return warmstate.checkpoint_path(checkpoint_dir, key), key, WARM_PASSES == before


@dataclass(frozen=True, slots=True)
class _WindowJob:
    """One sampled run's detailed windows, bound into the pool's task function.

    Pool workers are forked with the job and reach the trace and
    snapshots by inherited memory, so a task payload is just a window
    index.  ``probes``, ``progress`` and ``tracer`` are live objects and
    only set when the windows run in the parent.
    """

    config: ProcessorConfig
    effective: ProcessorConfig
    trace: Trace
    #: ``(start, warmup, measure)`` per window, and its boundary snapshot.
    windows: Sequence[Tuple[int, int, int]]
    snapshots: Sequence[Dict[str, Any]]
    probes: Sequence = ()
    force_per_cycle: bool = False
    max_cycles: Optional[int] = None
    progress: Any = None
    progress_interval: int = 8192
    injector: Any = None
    tracer: Any = None

    def run(self, index: int, attempt: int) -> Dict[str, Any]:
        """Simulate window ``index`` from its boundary snapshot.

        Runs against a window-local :class:`StatsRegistry` whose
        ``dump_state()`` travels back with the scalars the parent needs
        for commit-watermark cycle attribution; merging the dumps in
        window order reproduces one shared registry bit-exactly.
        """
        if self.injector is not None:
            self.injector.crash_point(f"{self.trace.name}:{index}:a{attempt}")
        start, warmup, measure = self.windows[index]
        span = (
            self.tracer.span(
                "sampling:window",
                category="sampling",
                start=start,
                warmup=warmup,
                instructions=warmup + measure,
            )
            if self.tracer is not None
            else nullcontext()
        )
        stats = StatsRegistry()
        with span:
            hierarchy, predictor, btb = warmstate.build_warm_structures(self.effective, stats)
            warmstate.restore_warm_state(self.snapshots[index], hierarchy, predictor, btb)
            pipeline = create_pipeline(
                self.config,
                self.trace.slice(start, start + warmup + measure),
                stats,
                probes=self.probes,
            )
            pipeline.adopt_warm_state(hierarchy, predictor, btb)
            result = pipeline.run(
                max_cycles=self.max_cycles,
                progress=self.progress,
                progress_interval=self.progress_interval,
                force_per_cycle=self.force_per_cycle,
                commit_marks=[warmup] if warmup else None,
            )
        if warmup and pipeline.commit_mark_records:
            _target, warm_cycle, warm_fetched = pipeline.commit_mark_records[0]
        else:
            warm_cycle, warm_fetched = 0, 0
        return {
            "cycles": result.cycles,
            "fetched": result.fetched_instructions,
            "warm_cycle": warm_cycle,
            "warm_fetched": warm_fetched,
            "stats": stats.dump_state(),
        }


def run_sampled(
    config: ProcessorConfig,
    trace: Trace,
    plan: SamplingPlan,
    *,
    probes: Sequence = (),
    force_per_cycle: bool = False,
    max_cycles: Optional[int] = None,
    progress=None,
    progress_interval: int = 8192,
    tracer=None,
    parallel_windows: Optional[int] = None,
    checkpoint_dir=None,
    checkpoint_max_bytes: Optional[int] = None,
    injector=None,
) -> SimulationResult:
    """Run ``trace`` under ``plan``; returns an extrapolated result.

    The returned :class:`SimulationResult` has ``sampled=True``:
    ``cycles``/``committed_instructions`` cover the measured windows (so
    ``ipc`` is the instruction-weighted sampled estimator), ``windows``
    holds the per-window records behind ``ipc_ci95``, and ``stats``
    covers detailed execution — fast-forwarded instructions appear only
    under ``sampling.fast_forwarded_instructions``.

    ``max_cycles`` bounds each detailed window individually (one window
    is one pipeline run); ``probes`` attach to every window's pipeline
    in turn.

    ``parallel_windows=N`` (N > 1) runs the detailed windows on N pool
    workers instead of in this process; the result is bit-identical.
    Window workers cannot carry probes or progress callbacks across the
    process boundary, so combining them raises
    :class:`ConfigurationError` rather than silently dropping observers.
    A failed window raises :class:`SimulationError` naming the window
    and its error, in either mode.

    ``checkpoint_dir`` persists (and reuses) the functional pass's
    boundary snapshots as a keyed :class:`WarmCheckpoint` file; see
    :mod:`repro.core.warmstate` for the key derivation and the
    cross-config sharing rule.  ``injector`` is a
    :class:`~repro.robustness.faults.FaultInjector` exercised by the
    robustness tests (``worker.crash`` fires inside window workers).

    ``tracer`` is an optional :class:`repro.telemetry.Tracer`: the
    functional pass opens ``sampling:fast-forward`` spans, each detailed
    segment a ``sampling:window`` span (or one ``sampling:parallel-windows``
    span around the fan-out), and checkpoint traffic
    ``sampling:checkpoint-load``/``-save`` spans.  Purely observational —
    the clock lives behind the tracer (this module never reads time
    itself) and the simulated result is bit-identical with or without
    one.
    """
    config.validate()
    plan.validate()
    segments = plan.schedule(len(trace))
    if plan.fast_forward_per_period == 0 or not any(
        measure for _skip, _warm, measure in segments
    ):
        # Nothing to fast-forward (period == warmup + window) or nothing
        # to sample around: the whole trace is one detailed run.
        return _run_continuous(
            config,
            trace,
            plan,
            probes=probes,
            force_per_cycle=force_per_cycle,
            max_cycles=max_cycles,
            progress=progress,
            progress_interval=progress_interval,
            tracer=tracer,
        )

    # Warm state must mirror what the machine actually simulates: variant
    # machines (perfect-l2, unbounded-rob) force config fields at pipeline
    # construction, and the windows adopt snapshots of *this* state.
    effective = get_machine(config.mode).pipeline_class.effective_config(config)
    stats = StatsRegistry()
    window_counter = stats.counter("sampling.windows")
    detailed_counter = stats.counter("sampling.detailed_instructions")
    degenerate_counter = stats.counter("sampling.degenerate_windows")
    commit_width = config.core.commit_width

    boundaries, snapshots, warm_dump = _warm_snapshots(
        effective,
        trace,
        plan,
        segments,
        tracer,
        checkpoint_dir,
        checkpoint_max_bytes,
    )
    stats.merge_state(warm_dump)

    window_segments = [
        (start, warmup, measure)
        for start, (_skip, warmup, measure) in zip(
            boundaries, (seg for seg in segments if seg[1] + seg[2])
        )
    ]
    workers = min(int(parallel_windows or 1), len(window_segments))
    in_parent = workers == 1
    if not in_parent and (probes or progress is not None):
        raise ConfigurationError(
            "parallel sampled windows cannot carry probes or progress "
            "callbacks across worker processes; drop them or run with "
            "parallel_windows=1"
        )
    job = _WindowJob(
        config,
        effective,
        trace,
        window_segments,
        snapshots,
        probes=probes,
        force_per_cycle=force_per_cycle,
        max_cycles=max_cycles,
        progress=progress,
        progress_interval=progress_interval,
        injector=injector,
        tracer=tracer if in_parent else None,
    )
    # A window that fails in the parent is deterministic and would only
    # fail again; worker windows are retried (a crash is not the window's).
    pool = ResilientPool(
        job.run, workers, retry=RetryPolicy(max_attempts=1) if in_parent else None
    )
    span = (
        tracer.span(
            "sampling:parallel-windows",
            category="sampling",
            windows=len(window_segments),
            workers=workers,
        )
        if tracer is not None and not in_parent
        else nullcontext()
    )
    indices = range(len(window_segments))
    with span:
        pool_outcome = pool.run([(index, index, trace.name) for index in indices])
    if pool_outcome.failures:
        first = pool_outcome.failures[min(pool_outcome.failures)]
        raise SimulationError(
            f"{len(pool_outcome.failures)} sampled window(s) of {trace.name} failed "
            f"(first: window {first.task_id}: {first.errors[-1]})"
        )
    outcomes = [pool_outcome.results[index] for index in indices]
    for outcome in outcomes:
        stats.merge_state(outcome["stats"])

    windows: List[Dict[str, object]] = []
    measured_cycles = 0
    measured_instructions = 0
    measured_fetched = 0
    for (start, warmup, measure), outcome in zip(window_segments, outcomes):
        detailed = warmup + measure
        detailed_counter.add(detailed)
        warm_cycle = outcome["warm_cycle"]
        warm_fetched = outcome["warm_fetched"]
        # Both boundaries are commit events (the warmup crossing and the
        # segment's final commit), so the pipeline-depth and memory-latency
        # offset each carries cancels out of the measured span.  On the
        # checkpointed machine the crossing snaps to a checkpoint drain;
        # windows spanning several checkpoint quanta keep that snap small.
        window_cycles = outcome["cycles"] - warm_cycle
        window_instructions = measure
        window_start = start + warmup
        if window_cycles <= 0 or window_instructions > window_cycles * commit_width:
            # A window thinner than the machine's commit quantum: the whole
            # segment committed in one drain burst and the boundary span
            # implies a physically impossible rate (above commit width).
            # Fall back to whole-segment measurement — biased by fill and
            # drain, but sane — and flag it so callers can widen the plan.
            window_cycles = outcome["cycles"]
            window_instructions = detailed
            window_start = start
            warm_fetched = 0
            degenerate_counter.add()
        windows.append(_window_record(window_start, window_instructions, window_cycles))
        window_counter.add()
        measured_cycles += window_cycles
        measured_instructions += window_instructions
        measured_fetched += max(0, outcome["fetched"] - warm_fetched)
    ipcs = [float(window["ipc"]) for window in windows]
    return SimulationResult(
        config_name=config.name or config.mode,
        mode=config.mode,
        workload=trace.name,
        cycles=measured_cycles,
        committed_instructions=measured_instructions,
        fetched_instructions=measured_fetched,
        stats=stats.snapshot(),
        sampled=True,
        windows=windows,
        ipc_ci95=_confidence_interval(ipcs),
    )
