"""The cycle-level pipelines: conventional baseline and out-of-order commit.

:class:`PipelineBase` owns everything the machines share — fetch, rename
bookkeeping, issue queues, execution units, the memory hierarchy,
write-back and the probe event plumbing.  The two built-in subclasses
implement the parts the paper changes:

* :class:`BaselinePipeline` — dispatch allocates a ROB entry; commit
  retires in order from the ROB head (Table 1's machine).
* :class:`OoOCommitPipeline` — dispatch associates instructions with
  checkpoints, inserts them into the pseudo-ROB and (through pseudo-ROB
  retirement) the SLIQ; commit retires whole checkpoints whose pending
  counters reached zero, draining their stores and freeing their Future
  Free registers.

Machines are registered in :mod:`repro.core.registry_machines`; further
variants (``perfect-l2``, ``unbounded-rob``, user plugins) live in
:mod:`repro.core.machines` and need no edits here.

Window occupancy is pipeline state: :class:`PipelineBase` counts the
instructions in flight and the live ones (dispatched, not yet issued),
split for FP by whether they wait behind an L2 miss — the statistics
behind Figures 7 and 11.  Every end-of-cycle occupancy is recorded by
one method, ``_sample_cycles``, which a stepped cycle calls with 1 and
the event-driven kernel with the length of each skipped span.  Outside
observers attach through :mod:`repro.core.probes`.

The stages read an instruction's decoded fields from the shared trace
record (``inst.instr.dest``, ``inst.instr.is_load``, ...) and its state
directly (``inst.state is InstState.SQUASHED``); the ``DynInst``
pass-through properties are for observers.  Statistics are updated in
place (``counter.value += 1``), never through a method call per event.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Set, Tuple

from ..common.config import ProcessorConfig
from ..common.errors import DeadlockError, SimulationError
from ..common.stats import Counter, StatsRegistry
from ..isa.instruction import DynInst, InstState, RetireClass
from ..memory.hierarchy import CacheHierarchy
from ..trace.trace import Trace
from .cam_rename import CAMRenamer
from .checkpoint import Checkpoint, CheckpointPolicy, CheckpointTable
from .frontend import FetchUnit
from .fu import ExecutionUnits
from .iq import InstructionQueue, WakeupNetwork
from .lsq import LoadStoreQueue
from .probes import PROBE_EVENTS, Probe, hook_for
from .pseudo_rob import PseudoROB
from .regfile import PhysicalPool, PhysicalRegisterFile
from .registry_machines import cooo_cli_config, register_machine
from .rename_map import MapTableRenamer
from .result import SimulationResult, build_result
from .rob import ReorderBuffer
from .sliq import LongLatencyTracker, SlowLaneQueue


def _by_seq(inst: DynInst) -> int:
    """Sort key for age-ordered selection (module-level: no per-call closure)."""
    return inst.seq


class PipelineBase:
    """Shared machinery of every simulated machine."""

    mode = "base"
    #: Whether the machine models Figure 14's late register allocation;
    #: ``ProcessorConfig.validate`` checks the flag through the registry.
    supports_late_allocation = False

    @classmethod
    def effective_config(cls, config: ProcessorConfig) -> ProcessorConfig:
        """The config as this machine actually simulates it.

        Variant machines that force structure sizes or memory flags at
        construction (``perfect-l2``, ``unbounded-rob``) override this.
        Every pipeline applies it on construction, and any driver that
        replicates machine state *outside* a pipeline — the sampled
        execution warmer keeps its own hierarchy/predictor — must build
        from the effective config, not the raw one, or the replicated
        state silently diverges from what the machine simulates.
        Overrides must be idempotent: the hook runs again on the config
        it already transformed when a driver hands the effective config
        to a pipeline constructor.
        """
        return config

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        stats: Optional[StatsRegistry] = None,
        probes: Sequence[Probe] = (),
    ) -> None:
        config = self.effective_config(config)
        config.validate()
        self.config = config
        self.trace = trace
        self.total_instructions = len(trace)
        self.stats = stats if stats is not None else StatsRegistry()
        self.cycle = 0
        self.hierarchy = CacheHierarchy(config.memory, self.stats)
        self.regfile = PhysicalRegisterFile(self._register_identifier_count(), self.stats)
        self.wakeup = WakeupNetwork()
        self.int_queue = InstructionQueue("iq.int", config.core.int_queue_size, self.stats)
        self.fp_queue = InstructionQueue("iq.fp", config.core.fp_queue_size, self.stats)
        self.lsq = LoadStoreQueue(config.core.lsq_size, self.stats)
        self.units = ExecutionUnits(config.core.fu, config.memory.memory_ports, self.stats)
        self.frontend = FetchUnit(
            trace, config.branch, self.hierarchy, self.stats, config.core.fetch_width
        )
        self.fetch_buffer: Deque[DynInst] = deque()
        self._writeback_heap: List[Tuple[int, int, DynInst]] = []
        self._next_seq = 0
        self.committed = 0
        self.fetched = 0
        self._last_commit_cycle = 0
        self._dispatched_in_cycle = 0
        # Hot-loop constants, bound once so the per-cycle stages do not
        # chase config attribute chains.
        self._fetch_width = config.core.fetch_width
        self._fetch_buffer_cap = 2 * config.core.fetch_width
        self._issue_width = config.core.issue_width

        # Window occupancy (Figures 7 and 11): instructions in flight, live
        # ones (dispatched, not yet issued), the live FP ones split by
        # whether they wait behind a long-latency load, and the physical
        # registers such a load poisons.
        self.in_flight = 0
        self.live = 0
        self.live_fp_long = 0
        self.live_fp_short = 0
        self.long_pregs: Set[int] = set()
        stats = self.stats
        self._in_flight_mean = stats.running_mean("occupancy.in_flight")
        self._live_mean = stats.running_mean("occupancy.live")
        self._live_fp_long_mean = stats.running_mean("occupancy.live_fp_long")
        self._live_fp_short_mean = stats.running_mean("occupancy.live_fp_short")
        self._in_flight_weights = stats.distribution("occupancy.in_flight_dist").weights
        self._live_weights = stats.distribution("occupancy.live_dist").weights

        self._probes: List[Probe] = []
        #: Bulk idle-span hooks of skip-aware probes (see Probe.on_idle_cycles).
        self._hooks_idle_cycles: List[Callable] = []
        #: True once a probe subscribes to on_cycle without an
        #: on_idle_cycles counterpart — the kernel then steps every cycle.
        self._per_cycle_only = False
        for event in PROBE_EVENTS:
            setattr(self, f"_hooks_{event[3:]}", [])
        for probe in probes:
            self.attach_probe(probe)
        self._exceptions_delivered = self.stats.counter("exceptions.delivered")
        self._dispatch_stalls = self.stats.counter("dispatch.stall_cycles")
        self._committed_counter = self.stats.counter("commit.instructions")
        #: Commit watermarks (sampled execution): ascending committed-count
        #: targets still to be crossed, and the (target, cycle, fetched)
        #: records of the ones already crossed.  Empty unless ``run`` was
        #: given ``commit_marks``, so the per-commit check is one falsy test.
        self._pending_marks: List[int] = []
        self.commit_mark_records: List[Tuple[int, int, int]] = []

    # -- probe plumbing ---------------------------------------------------------
    @property
    def probes(self) -> Tuple[Probe, ...]:
        """The probes currently observing this pipeline."""
        return tuple(self._probes)

    def attach_probe(self, probe: Probe) -> Probe:
        """Attach an observer; only the events it overrides are bound.

        A probe that overrides ``on_cycle`` but not ``on_idle_cycles``
        needs to see every simulated cycle, so its attachment switches
        the kernel to per-cycle stepping.  Skip-aware probes (both
        overridden) keep the event-driven fast path.
        """
        self._probes.append(probe)
        probe.on_attach(self)
        idle_hook = hook_for(probe, "on_idle_cycles")
        if idle_hook is not None:
            self._hooks_idle_cycles.append(idle_hook)
        for event in PROBE_EVENTS:
            hook = hook_for(probe, event)
            if hook is not None:
                getattr(self, f"_hooks_{event[3:]}").append(hook)
                if event == "on_cycle" and idle_hook is None:
                    self._per_cycle_only = True
        return probe

    # -- sampled execution ------------------------------------------------------
    def adopt_warm_state(self, hierarchy, predictor=None, btb=None) -> None:
        """Swap in pre-warmed long-lived structures before :meth:`run`.

        The sampled-execution driver keeps one memory hierarchy, branch
        predictor and BTB alive across fast-forward and detailed phases;
        each detailed window builds a fresh pipeline (empty queues, seq 0,
        cycle 0) and adopts the warm structures through this hook.  Every
        cached reference is rebound, so subclasses that stash their own
        must override and chain up.
        """
        self.hierarchy = hierarchy
        self.frontend.hierarchy = hierarchy
        if predictor is not None:
            self.frontend.predictor = predictor
        if btb is not None:
            self.frontend.btb = btb

    # -- subclass hooks ---------------------------------------------------------
    def _register_identifier_count(self) -> int:
        """How many renameable identifiers the regfile provides."""
        return self.config.core.physical_registers

    def _dispatch_stage(self) -> None:
        raise NotImplementedError

    def _commit_stage(self) -> None:
        raise NotImplementedError

    def _on_complete(self, inst: DynInst) -> None:
        """Mode-specific actions at write-back."""

    def _resolve_branch(self, inst: DynInst) -> None:
        """Mode-specific misprediction recovery."""
        raise NotImplementedError

    def _handle_exception(self, inst: DynInst) -> None:
        """Mode-specific exception handling at completion time."""

    def _extra_cycle_work(self) -> None:
        """Hook run once per cycle after the standard stages."""

    # -- squash bookkeeping shared by both machines ------------------------------
    def _squash_bookkeeping(self, inst: DynInst) -> None:
        """Release everything a squashed instruction occupies (except renaming)."""
        if inst.dispatch_cycle is not None:
            if inst.issue_cycle is None:
                self._leave_live(inst)
            self.in_flight -= 1
        if inst.phys_dest is not None:
            self.long_pregs.discard(inst.phys_dest)
        if self._hooks_squash:
            # Before teardown, so probes still see the state it died in.
            for hook in self._hooks_squash:
                hook(self, inst)
        if inst.in_iq:
            queue: InstructionQueue = inst.iq
            queue.remove(inst)
        if inst.instr.is_memory and inst.lsq_index is not None:
            self.lsq.release(inst)
        inst.mark_squashed()

    # -- top-level driver ---------------------------------------------------------
    def finished(self) -> bool:
        return self.committed >= self.total_instructions

    def run(
        self,
        max_cycles: Optional[int] = None,
        *,
        progress: Optional[Callable[["PipelineBase"], None]] = None,
        progress_interval: int = 8192,
        stop: Optional[Callable[["PipelineBase"], bool]] = None,
        force_per_cycle: bool = False,
        commit_marks: Optional[Sequence[int]] = None,
    ) -> SimulationResult:
        """Simulate until every trace instruction committed.

        ``progress`` is invoked with the pipeline every
        ``progress_interval`` cycles; ``stop`` is an early-stop predicate
        checked each cycle — when it returns True the run ends and the
        (partial) result is built from whatever has committed so far.

        ``commit_marks`` is a sequence of committed-instruction counts;
        as the run first reaches (or passes) each, a ``(target, cycle,
        fetched)`` record is appended to :attr:`commit_mark_records`.
        The sampled-execution driver uses these to attribute cycles to
        measurement windows without per-cycle callbacks: commit-time
        crossings at *both* window boundaries carry the same pipeline
        and memory-latency offset, which therefore cancels out of the
        measured span.  Marks never disturb the event-driven fast path
        (commits cannot happen inside a skipped span, so crossing cycles
        are exact).

        The driver is **event-driven**: whenever no stage can make
        progress next cycle, the clock jumps to the next interesting
        cycle (write-back heap head, front-end wake-up, watchdog) in one
        step, integrating the per-cycle statistics over the skipped span
        so the result is bit-identical to stepping every cycle.  The
        kernel falls back to per-cycle stepping when ``force_per_cycle``
        is set (the debug escape hatch), when a ``stop`` predicate is
        given (it must be evaluated every cycle), or when an attached
        probe subscribes to ``on_cycle`` without being skip-aware.
        """
        limit = max_cycles if max_cycles is not None else float("inf")
        if commit_marks:
            self._pending_marks = sorted(commit_marks)
            self.commit_mark_records = []
        event_driven = not (force_per_cycle or stop is not None or self._per_cycle_only)
        progress_stride = progress_interval if progress is not None else 0
        deadlock_cycles = self.config.deadlock_cycles
        step = self.step
        finished = self.finished
        while not finished():
            if self.cycle >= limit:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles} with "
                    f"{self.committed}/{self.total_instructions} committed"
                )
            if event_driven:
                self._advance_past_idle(max_cycles, progress_stride)
            step()
            if self.cycle - self._last_commit_cycle > deadlock_cycles:
                raise DeadlockError(self._deadlock_report())
            if progress is not None and self.cycle % progress_interval == 0:
                progress(self)
            if stop is not None and stop(self):
                break
        return build_result(
            self.config,
            self.trace.name,
            self.cycle,
            self.committed,
            self.fetched,
            self.stats,
        )

    def step(self) -> None:
        """Advance the machine by one cycle."""
        self.cycle += 1
        self._commit_stage()
        if self._writeback_heap:
            self._writeback_stage()
        self._issue_stage()
        self._dispatch_stage()
        self._fetch_stage()
        self._extra_cycle_work()
        self._sample_cycles(1)
        if self._hooks_cycle:
            for hook in self._hooks_cycle:
                hook(self)

    # -- event-driven time advance ------------------------------------------------
    def _advance_past_idle(self, limit: Optional[int], progress_stride: int) -> None:
        """Jump ``self.cycle`` to just before the next interesting cycle.

        The next cycle is *idle* when every stage is provably a no-op:
        no write-back is due, the front end cannot deliver, no issue
        candidate is ready, and the mode-specific stages (dispatch,
        commit, SLIQ re-insertion, pseudo-ROB drain) can neither move an
        instruction nor mutate state.  An idle cycle still has per-cycle
        side effects — occupancy samples and stall counters — which stay
        constant across the span, so :meth:`_account_idle_cycles` applies
        them in bulk and the clock jumps straight to the
        earliest of:

        * the write-back heap head (memory completions included — MSHR
          fill timers are passive and surface through load completions);
        * the front end's ``resume_cycle`` (I-cache miss / redirect);
        * the deadlock watchdog threshold, ``max_cycles`` and (when a
          progress callback is bound) the next reporting cycle, so those
          fire exactly as they would per cycle.
        """
        cycle = self.cycle
        horizon = cycle + 1
        target: Optional[int] = None
        heap = self._writeback_heap
        if heap:
            head = heap[0][0]
            if head <= horizon:
                return
            target = head
        frontend = self.frontend
        if len(self.fetch_buffer) < self._fetch_buffer_cap and not frontend.exhausted:
            resume = frontend.resume_cycle
            if resume <= horizon:
                return
            if target is None or resume < target:
                target = resume
        if self.int_queue.has_ready() or self.fp_queue.has_ready():
            return
        idle_effects = self._idle_cycle_effects()
        if idle_effects is None:
            return
        watchdog = self._last_commit_cycle + self.config.deadlock_cycles + 1
        if target is None or watchdog < target:
            target = watchdog
        if limit is not None and limit < target:
            target = limit
        if progress_stride:
            next_report = cycle - cycle % progress_stride + progress_stride
            if next_report < target:
                target = next_report
        skipped = target - horizon
        if skipped <= 0:
            return
        self._account_idle_cycles(skipped, idle_effects)
        self.cycle = target - 1

    def _idle_cycle_effects(self) -> Optional[Tuple[Callable[[int], None], ...]]:
        """Can the machine-specific stages do nothing next cycle?

        Returns ``None`` when some stage would make progress or mutate
        state (no skipping), otherwise the per-cycle statistic effects an
        idle cycle would have (each called with the number of skipped
        cycles).  The base implementation refuses to skip, so machines
        with custom stage behaviour stay correct-by-default; the two
        shipped machines override this with their exact stall signature.
        """
        return None

    def _note_dispatch_stall(self, cycles: int = 1) -> None:
        """Dispatch stood still for ``cycles`` cycles (a stall effect)."""
        self._dispatch_stalls.value += cycles

    def _account_idle_cycles(
        self, cycles: int, effects: Tuple[Callable[[int], None], ...]
    ) -> None:
        """Apply the per-cycle side effects of ``cycles`` idle cycles at once."""
        for effect in effects:
            effect(cycles)
        self._sample_cycles(cycles)
        if self._hooks_idle_cycles:
            for hook in self._hooks_idle_cycles:
                hook(self, cycles)

    # -- fetch ------------------------------------------------------------------------
    def _fetch_stage(self) -> None:
        buffer = self.fetch_buffer
        if len(buffer) >= self._fetch_buffer_cap:
            return
        cycle = self.cycle
        for fetched in self.frontend.fetch_block(cycle):
            inst = DynInst(seq=self._next_seq, trace_index=fetched.trace_index, instr=fetched.instr)
            self._next_seq += 1
            self.fetched += 1
            inst.fetch_cycle = cycle
            inst.mispredicted = fetched.mispredicted
            inst.fetch_history = fetched.history
            buffer.append(inst)

    # -- dispatch helpers shared by both machines -----------------------------------------
    def _queue_for(self, inst: DynInst) -> InstructionQueue:
        return self.fp_queue if inst.instr.is_fp else self.int_queue

    def _dispatch_stall(
        self, inst: DynInst, queue: InstructionQueue
    ) -> Optional[Tuple[Callable[[int], None], ...]]:
        """Why ``inst`` cannot enter ``queue`` this cycle, as stall effects.

        Checks a full issue queue, a full LSQ (memory operations) and a
        blocked rename, in that order.  Returns ``None`` when nothing
        blocks ``inst``, otherwise the statistic effects of one stalled
        cycle: dispatch calls each with 1, the event-driven kernel with
        the number of cycles it skips.
        """
        if queue.is_full:
            return (queue.note_full_stall, self._note_dispatch_stall)
        if inst.instr.is_memory and self.lsq.is_full:
            return (self.lsq.note_full_stall, self._note_dispatch_stall)
        if not self.renamer.can_rename(inst):
            return (self._note_dispatch_stall,)
        return None

    def _enter_window(self, inst: DynInst) -> None:
        """Common bookkeeping when an instruction is dispatched."""
        inst.state = InstState.DISPATCHED
        inst.dispatch_cycle = self.cycle
        self.in_flight += 1
        self.live += 1
        long_pregs = self.long_pregs
        blocked_long = bool(long_pregs) and not long_pregs.isdisjoint(inst.phys_srcs)
        if blocked_long and inst.phys_dest is not None:
            long_pregs.add(inst.phys_dest)
        live_class = None
        if inst.instr.is_fp:
            if blocked_long:
                live_class = "fp_long"
                self.live_fp_long += 1
            else:
                live_class = "fp_short"
                self.live_fp_short += 1
        inst.live_class = live_class
        if self._hooks_dispatch:
            for hook in self._hooks_dispatch:
                hook(self, inst)

    def _leave_live(self, inst: DynInst) -> None:
        """``inst`` stops being live: it issued or is being squashed unissued."""
        self.live -= 1
        live_class = inst.live_class
        if live_class == "fp_long":
            self.live_fp_long -= 1
        elif live_class == "fp_short":
            self.live_fp_short -= 1
        inst.live_class = None

    def _retire_from_window(self, inst: DynInst) -> None:
        """An instruction retired architecturally."""
        self.in_flight -= 1
        if self._hooks_commit:
            for hook in self._hooks_commit:
                hook(self, inst)

    # -- issue --------------------------------------------------------------------------
    def _issue_stage(self) -> None:
        int_queue = self.int_queue
        fp_queue = self.fp_queue
        if not int_queue.maybe_ready and not fp_queue.maybe_ready:
            return
        width = self._issue_width
        issued = 0
        candidates: List[DynInst] = []
        for queue in (int_queue, fp_queue):
            pop_ready = queue.pop_ready
            for _ in range(width):
                inst = pop_ready()
                if inst is None:
                    break
                candidates.append(inst)
        if not candidates:
            return
        candidates.sort(key=_by_seq)
        try_issue = self._try_issue
        for inst in candidates:
            if issued < width and try_issue(inst):
                issued += 1
            else:
                inst.iq.unpop(inst)

    def _try_issue(self, inst: DynInst) -> bool:
        cycle = self.cycle
        if not self.units.try_issue(inst.instr.op, cycle):
            return False
        queue: InstructionQueue = inst.iq
        queue.remove(inst)
        queue.record_issue()
        inst.state = InstState.EXECUTING
        inst.issue_cycle = cycle
        completion = cycle + self._execution_time(inst)
        # After _execution_time, so the L2-miss verdict is known: a load
        # that misses poisons its destination, and consumers dispatched
        # from here on count as blocked-long.
        self._leave_live(inst)
        if inst.l2_miss and inst.phys_dest is not None:
            self.long_pregs.add(inst.phys_dest)
        if self._hooks_issue:
            for hook in self._hooks_issue:
                hook(self, inst)
        heapq.heappush(self._writeback_heap, (completion, inst.seq, inst))
        return True

    def _execution_time(self, inst: DynInst) -> int:
        """Cycles from issue to completion, including any memory access."""
        instr = inst.instr
        base = self.units.latency(instr.op)
        if instr.is_load:
            forwarding_store = self.lsq.forwarding_store(inst)
            if forwarding_store is not None:
                return base + 1
            access = self.hierarchy.data_access(
                instr.mem_addr or 0, False, self.cycle, pc=instr.pc
            )
            inst.l2_miss = access.l2_miss
            if access.l2_miss:
                inst.long_latency = True
            return base + access.latency
        # Stores only generate their address here; the write happens when
        # the store drains.
        return base

    # -- write-back --------------------------------------------------------------------------
    def _writeback_stage(self) -> None:
        heap = self._writeback_heap
        cycle = self.cycle
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            inst = heappop(heap)[2]
            if inst.state is InstState.SQUASHED:
                continue
            if not self._complete_instruction(inst):
                # Structural stall (late register allocation): retry next cycle.
                heapq.heappush(heap, (cycle + 1, inst.seq, inst))

    def _complete_instruction(self, inst: DynInst) -> bool:
        """Finish one instruction; False requests a retry next cycle."""
        if not self._claim_writeback_resources(inst):
            return False
        inst.state = InstState.DONE
        inst.complete_cycle = self.cycle
        phys_dest = inst.phys_dest
        if phys_dest is not None:
            self.regfile.set_ready(phys_dest)
            for waiter in self.wakeup.notify_ready(phys_dest):
                waiter.iq.mark_ready(waiter)
            self.long_pregs.discard(phys_dest)
        if self._hooks_complete:
            for hook in self._hooks_complete:
                hook(self, inst)
        self._on_complete(inst)
        instr = inst.instr
        if instr.is_branch and inst.mispredicted:
            self._resolve_branch(inst)
        if instr.raises_exception:
            self._handle_exception(inst)
        return True

    def _claim_writeback_resources(self, inst: DynInst) -> bool:
        """Hook for the late-allocation model (claims a physical register)."""
        return True

    # -- occupancy sampling ------------------------------------------------------------------------
    def _sample_cycles(self, cycles: int) -> None:
        """Record every end-of-cycle occupancy, weighted by ``cycles``.

        :meth:`step` calls this with 1 and :meth:`_account_idle_cycles`
        with the length of a skipped span.  Nothing enters or leaves a
        structure during an idle span, so its samples are the current
        values repeated ``cycles`` times, and the weighted forms
        accumulate exactly what per-cycle sampling would.

        It runs once per stepped cycle and once per skipped span, so
        each machine implements it as one flat method: the issue
        queues, the LSQ, the window counts and its own structures, each
        ``RunningMean`` updated in place exactly as
        ``RunningMean.sample_many`` would, and each occupancy
        distribution with one dict update.
        """
        raise NotImplementedError

    # -- bookkeeping --------------------------------------------------------------------------------
    def _note_commit(self, count: int = 1) -> None:
        self.committed += count
        self._committed_counter.value += count
        self._last_commit_cycle = self.cycle
        if self._pending_marks:
            marks = self._pending_marks
            while marks and self.committed >= marks[0]:
                self.commit_mark_records.append((marks.pop(0), self.cycle, self.fetched))

    def _deadlock_report(self) -> str:
        # Report the simulated-cycle span without commit progress, not a
        # loop-iteration count: under the event-driven kernel one driver
        # iteration can cover thousands of simulated cycles, and the span
        # is what the deadlock_cycles threshold is measured in.
        stalled_span = self.cycle - self._last_commit_cycle
        return (
            f"{self.mode} pipeline made no commit progress for "
            f"{stalled_span} simulated cycles "
            f"(threshold {self.config.deadlock_cycles}) at cycle {self.cycle}: "
            f"committed={self.committed}/{self.total_instructions}, "
            f"in_flight={self.in_flight}, int_iq={self.int_queue.occupancy}, "
            f"fp_iq={self.fp_queue.occupancy}, lsq={self.lsq.occupancy}, "
            f"fetch_buffer={len(self.fetch_buffer)}"
        )


@register_machine(
    "baseline",
    description="conventional Table-1 machine: ROB-bounded window, in-order commit",
)
class BaselinePipeline(PipelineBase):
    """The conventional machine of Table 1: ROB + in-order commit."""

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        stats: Optional[StatsRegistry] = None,
        probes: Sequence[Probe] = (),
    ) -> None:
        super().__init__(config, trace, stats, probes)
        config = self.config  # the effective config (variant machines force fields)
        self.renamer = MapTableRenamer(self.regfile, self.stats)
        self.rob = ReorderBuffer(config.core.rob_size, self.stats)
        self._rob_occupancy_mean = self.stats.running_mean("rob.occupancy")
        self._branch_recoveries = self.stats.counter("branch.recoveries")
        self._squashed_counter = self.stats.counter("squash.instructions")

    # -- dispatch -----------------------------------------------------------------------
    def _dispatch_stage(self) -> None:
        width = self._fetch_width
        dispatched = 0
        while self.fetch_buffer and dispatched < width:
            inst = self.fetch_buffer[0]
            queue = self._queue_for(inst)
            stall = self._rob_stall() or self._dispatch_stall(inst, queue)
            if stall is not None:
                for effect in stall:
                    effect(1)
                return
            self.fetch_buffer.popleft()
            self.renamer.rename(inst)
            self.rob.insert(inst)
            if inst.instr.is_memory:
                self.lsq.allocate(inst)
            queue.insert(inst, self.regfile, self.wakeup)
            self._enter_window(inst)
            dispatched += 1

    def _rob_stall(self) -> Optional[Tuple[Callable[[int], None], ...]]:
        """The ROB-full verdict: dispatch's stall effects, or ``None`` if an entry is free."""
        if self.rob.is_full:
            return (self.rob.note_full_stall, self._note_dispatch_stall)
        return None

    # -- commit ---------------------------------------------------------------------------
    def _commit_stage(self) -> None:
        head = self.rob.head()
        if head is None or head.state is not InstState.DONE:
            return
        for inst in self.rob.committable(self.config.core.commit_width):
            self.rob.commit_head()
            instr = inst.instr
            if instr.is_store:
                self.hierarchy.data_access(instr.mem_addr or 0, True, self.cycle, pc=instr.pc)
            if instr.is_memory:
                self.lsq.release(inst)
            self.renamer.release_on_commit(inst)
            if instr.raises_exception:
                self._exceptions_delivered.value += 1
            inst.state = InstState.COMMITTED
            inst.commit_cycle = self.cycle
            self._retire_from_window(inst)
            self._note_commit()

    # -- misprediction recovery ------------------------------------------------------
    def _resolve_branch(self, branch: DynInst) -> None:
        """Squash everything younger than the branch and redirect fetch."""
        self._branch_recoveries.value += 1
        buffered = list(self.fetch_buffer)
        self.fetch_buffer.clear()
        for inst in reversed(buffered):
            self._squash_bookkeeping(inst)
            self._squashed_counter.value += 1
        for inst in self.rob.squash_younger_than(branch.seq):  # youngest first
            self.renamer.undo_rename(inst)
            self._squash_bookkeeping(inst)
            self._squashed_counter.value += 1
        self.frontend.redirect(
            branch.trace_index + 1, self.cycle + self.config.branch.penalty
        )

    # -- event-driven kernel hooks ----------------------------------------------------
    def _idle_cycle_effects(self) -> Optional[Tuple[Callable[[int], None], ...]]:
        """Next-cycle no-op check built from the stages' own verdicts.

        Skipping is refused (``None``) when the ROB head is completed
        (commit would retire it) or when dispatch could move the fetch
        buffer's head into the window.  Otherwise the effects are those
        :meth:`_rob_stall` / :meth:`_dispatch_stall` hand the dispatch
        stage for the same head.
        """
        head = self.rob.head()
        if head is not None and head.state is InstState.DONE:
            return None
        if not self.fetch_buffer:
            return ()
        inst = self.fetch_buffer[0]
        return self._rob_stall() or self._dispatch_stall(inst, self._queue_for(inst))

    def _sample_cycles(self, cycles: int) -> None:
        in_flight = self.in_flight
        live = self.live
        int_queue, fp_queue, lsq = self.int_queue, self.fp_queue, self.lsq
        for mean, value in (
            (int_queue.occupancy_mean, int_queue.occupancy),
            (fp_queue.occupancy_mean, fp_queue.occupancy),
            (lsq.occupancy_mean, lsq.occupancy),
            (self._in_flight_mean, in_flight),
            (self._live_mean, live),
            (self._live_fp_long_mean, self.live_fp_long),
            (self._live_fp_short_mean, self.live_fp_short),
            (self._rob_occupancy_mean, self.rob.occupancy),
        ):
            mean.count += cycles
            mean.total += value * cycles
            if mean.min is None or value < mean.min:
                mean.min = value
            if mean.max is None or value > mean.max:
                mean.max = value
        weights = self._in_flight_weights
        weights[in_flight] = weights.get(in_flight, 0) + cycles
        weights = self._live_weights
        weights[live] = weights.get(live, 0) + cycles


@register_machine(
    "cooo",
    description="the paper's machine: checkpointed out-of-order commit + SLIQ",
    cli_config=cooo_cli_config,
)
class OoOCommitPipeline(PipelineBase):
    """The paper's machine: checkpointed out-of-order commit plus SLIQ."""

    supports_late_allocation = True

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        stats: Optional[StatsRegistry] = None,
        probes: Sequence[Probe] = (),
    ) -> None:
        super().__init__(config, trace, stats, probes)
        config = self.config  # the effective config (variant machines force fields)
        self.renamer = CAMRenamer(self.regfile, self.stats)
        self.checkpoints = CheckpointTable(config.checkpoint.table_size, self.stats)
        self.policy = CheckpointPolicy(config.checkpoint)
        self.pseudo_rob = PseudoROB(config.sliq.pseudo_rob_size, self.stats)
        self.sliq = (
            SlowLaneQueue(config.sliq, self.stats, ready_fn=self.regfile.is_ready)
            if config.sliq.enabled
            else None
        )
        #: The SLIQ's occupancy sample as an idle effect (see _extra_cycle_work).
        self._sliq_sample: Tuple[Callable[[int], None], ...] = (
            (self.sliq.sample_occupancy,) if self.sliq is not None else ()
        )
        self.tracker = LongLatencyTracker()
        self._draining: Optional[Checkpoint] = None
        self._drain_position = 0
        self._careful_indices: Set[int] = set()
        self._phys_pool: Optional[PhysicalPool] = None
        self._claimed_tags: Set[int] = set()
        if config.regalloc.late_allocation:
            from ..isa.registers import NUM_LOGICAL_REGS

            self._phys_pool = PhysicalPool(
                config.core.physical_registers, self.stats, initially_claimed=NUM_LOGICAL_REGS
            )
        self._pseudo_rob_recoveries = self.stats.counter("branch.pseudo_rob_recoveries")
        self._checkpoint_recoveries = self.stats.counter("branch.checkpoint_recoveries")
        self._exception_rollbacks = self.stats.counter("exceptions.rollbacks")
        self._squashed_counter = self.stats.counter("squash.instructions")
        # Registered on their first event, so a result carries these keys
        # only when the event fired.
        self._forced_claims: Optional[Counter] = None
        self._pressure_evictions: Optional[Counter] = None

    # -- configuration hooks ------------------------------------------------------------
    def _register_identifier_count(self) -> int:
        if self.config.regalloc.late_allocation:
            return self.config.regalloc.virtual_tags
        return self.config.core.physical_registers

    # -- dispatch --------------------------------------------------------------------------
    def _dispatch_stage(self) -> None:
        width = self._fetch_width
        pseudo_rob = self.pseudo_rob
        dispatched = 0
        self._dispatched_in_cycle = 0
        while self.fetch_buffer and dispatched < width:
            inst = self.fetch_buffer[0]
            if self._needs_checkpoint(inst):
                self._open_checkpoint(inst)
            while pseudo_rob.is_full:
                self._retire_from_pseudo_rob()
            queue = self._queue_for(inst)
            stall = self._dispatch_stall(inst, queue)
            if stall is not None:
                for effect in stall:
                    effect(1)
                return
            self.fetch_buffer.popleft()
            self.renamer.rename(inst)
            if inst.instr.is_memory:
                self.lsq.allocate(inst)
            queue.insert(inst, self.regfile, self.wakeup)
            pseudo_rob.insert(inst)
            youngest = self.checkpoints.youngest()
            assert youngest is not None
            youngest.associate(inst)
            self.policy.account(inst)
            self._enter_window(inst)
            dispatched += 1
            self._dispatched_in_cycle = dispatched

    def _needs_checkpoint(self, inst: DynInst) -> bool:
        """Whether a checkpoint must open before ``inst`` dispatches.

        The first window always needs one, the policy asks for the rest,
        and careful re-execution after an exception needs one right
        before the excepting instruction to give a precise state.
        """
        return (
            self.checkpoints.is_empty
            or self.policy.should_checkpoint(inst)
            or inst.trace_index in self._careful_indices
        )

    def _open_checkpoint(self, inst: DynInst) -> None:
        """Create the checkpoint :meth:`_needs_checkpoint` asked for before ``inst``.

        A full checkpoint table does *not* stall dispatch: the machine
        simply keeps associating instructions with the youngest checkpoint
        (its window grows past the thresholds) until the oldest checkpoint
        commits and frees an entry.  This is what lets the paper's machine
        keep thousands of instructions in flight with an 8-entry table.
        The table is never both full and empty (its size is at least 1),
        so the initial checkpoint is always created.
        """
        if self.checkpoints.is_full:
            self.checkpoints.note_full_stall()
            return
        snapshot = self.renamer.take_snapshot()
        harvested = self.renamer.harvest_future_free()
        checkpoint = self.checkpoints.create(
            resume_index=inst.trace_index,
            resume_seq=inst.seq,
            snapshot=snapshot,
            harvested_future_free=harvested,
            cycle=self.cycle,
            history=inst.fetch_history,
        )
        self.policy.checkpoint_taken()
        if self._hooks_checkpoint:
            for hook in self._hooks_checkpoint:
                hook(self, checkpoint)

    # -- pseudo-ROB retirement and SLIQ classification --------------------------------------------
    def _retire_from_pseudo_rob(self) -> None:
        """Classify and retire the oldest pseudo-ROB entry."""
        inst = self.pseudo_rob.oldest()
        if inst is None:
            return
        retire_class, move_root = self._classify_retirement(inst)
        if move_root is not None:
            if self.sliq is None or self.sliq.is_full:
                if self.sliq is not None:
                    self.sliq.note_full_stall()
                # Without SLIQ space the instruction simply stays in the
                # issue queue; it is retired as short-latency instead.
                retire_class, move_root = RetireClass.SHORT_LATENCY, None
            elif not inst.in_iq:
                # Raced with issue: it is executing, nothing to move.
                retire_class, move_root = RetireClass.SHORT_LATENCY, None
        self.pseudo_rob.retire_oldest()
        self.pseudo_rob.record_classification(retire_class)
        if move_root is not None and self.sliq is not None:
            queue: InstructionQueue = inst.iq
            queue.remove(inst)
            self.sliq.insert(inst, move_root, self.cycle)

    def _classify_retirement(self, inst: DynInst) -> Tuple[RetireClass, Optional[int]]:
        """Figure-12 classification of a pseudo-ROB retiree.

        Returns the retirement class and, for dependent instructions, the
        physical register of the root long-latency load whose completion
        should wake them from the SLIQ.
        """
        if inst.state is InstState.SQUASHED:
            return RetireClass.FINISHED, None
        instr = inst.instr
        if instr.is_store:
            # Stores keep their own Figure-12 category, but a store whose
            # data depends on a long-latency chain is still moved out of the
            # issue queue (it would otherwise clog it until the chain
            # resolves and could block SLIQ re-insertions entirely).
            if inst.state is InstState.DISPATCHED:
                root = self.tracker.dependence_root(inst)
                if root is not None:
                    return RetireClass.STORE, root
            return RetireClass.STORE, None
        if instr.is_load:
            if inst.state is InstState.DONE or inst.state is InstState.COMMITTED:
                self.tracker.clear_redefinition(inst)
                return RetireClass.FINISHED_LOAD, None
            if inst.state is InstState.EXECUTING:
                if inst.l2_miss:
                    self.tracker.clear_redefinition(inst)
                    self.tracker.mark_long_latency_load(inst)
                    return RetireClass.LONG_LATENCY_LOAD, None
                self.tracker.clear_redefinition(inst)
                return RetireClass.FINISHED_LOAD, None
            root = self.tracker.dependence_root(inst)
            if root is not None:
                self.tracker.mark_dependent(inst, root)
                return RetireClass.MOVED, root
            if self.hierarchy.would_miss_l2(instr.mem_addr or 0, self.cycle):
                self.tracker.clear_redefinition(inst)
                self.tracker.mark_long_latency_load(inst)
                # Mark the load itself long-latency so its completion wakes
                # any SLIQ entries filed under its destination register even
                # if the access ends up merging with an earlier miss.
                inst.long_latency = True
                return RetireClass.LONG_LATENCY_LOAD, None
            self.tracker.clear_redefinition(inst)
            return RetireClass.FINISHED_LOAD, None
        # Non-memory instructions.
        if inst.state in (InstState.DONE, InstState.COMMITTED):
            self.tracker.clear_redefinition(inst)
            return RetireClass.FINISHED, None
        if inst.state is InstState.EXECUTING:
            self.tracker.clear_redefinition(inst)
            return RetireClass.SHORT_LATENCY, None
        root = self.tracker.dependence_root(inst)
        if root is not None:
            self.tracker.mark_dependent(inst, root)
            return RetireClass.MOVED, root
        self.tracker.clear_redefinition(inst)
        return RetireClass.SHORT_LATENCY, None

    # -- write-back hooks -----------------------------------------------------------------------------
    def _claim_writeback_resources(self, inst: DynInst) -> bool:
        if self._phys_pool is None or inst.phys_dest is None:
            return True
        if inst.claimed_phys:
            return True
        if not self._phys_pool.try_claim():
            # Registers are released when redefining instructions complete,
            # and completions themselves need registers — so an exhausted
            # pool could deadlock the oldest window.  Instructions of the
            # oldest checkpoint therefore always obtain a register (the
            # reserve real late-allocation designs keep for the oldest,
            # non-speculative instructions).
            oldest = self.checkpoints.oldest()
            if oldest is None or inst.checkpoint_id != oldest.uid:
                return False
            self._phys_pool.force_claim()
            if self._forced_claims is None:
                self._forced_claims = self.stats.counter("prf.late_alloc_forced_claims")
            self._forced_claims.value += 1
        inst.claimed_phys = True
        self._claimed_tags.add(inst.phys_dest)
        return True

    def _release_claimed_tag(self, tag: Optional[int]) -> None:
        """Early register recycling of the Figure-14 (ephemeral registers) model."""
        if self._phys_pool is None or tag is None:
            return
        if tag in self._claimed_tags:
            self._claimed_tags.discard(tag)
            self._phys_pool.release()

    def _on_complete(self, inst: DynInst) -> None:
        checkpoint = self.checkpoints.find(inst.checkpoint_id) if inst.checkpoint_id is not None else None
        if checkpoint is not None:
            checkpoint.instruction_finished()
        if self._phys_pool is not None:
            # Late allocation with early recycling: when a redefinition has
            # produced its own value, the displaced value's register dies.
            self._release_claimed_tag(inst.old_phys_dest)
        instr = inst.instr
        if inst.phys_dest is not None:
            if self.sliq is not None and self.sliq.has_waiters(inst.phys_dest):
                self.sliq.notify_ready(inst.phys_dest)
            if instr.is_load and inst.long_latency:
                self.tracker.clear_root(inst.phys_dest)
        if instr.is_memory and not instr.is_store:
            # Loads release their LSQ entry at completion; stores hold
            # theirs until their checkpoint commits and they drain.
            self.lsq.release(inst)

    def _resolve_branch(self, inst: DynInst) -> None:
        if self.pseudo_rob.contains(inst):
            # Cheap recovery: the pseudo-ROB still holds the branch, so
            # only strictly-younger instructions have to be unwound.
            self._pseudo_rob_recoveries.value += 1
            self._recover_via_pseudo_rob(inst)
            return
        self._checkpoint_recoveries.value += 1
        checkpoint = self.checkpoints.find(inst.checkpoint_id) if inst.checkpoint_id is not None else None
        if checkpoint is None:
            # The checkpoint already committed (should not happen for an
            # uncommitted branch); fall back to a plain fetch redirect.
            self.frontend.redirect(
                inst.trace_index + 1, self.cycle + self.config.branch.penalty
            )
            return
        # The rollback will re-fetch this branch; its outcome is now
        # architecturally known, so the re-fetch must not re-predict it.
        self.frontend.note_resolved(inst.trace_index)
        self._rollback_to(checkpoint)

    def _recover_via_pseudo_rob(self, branch: DynInst) -> None:
        """Walk-based recovery for a branch that is still in the pseudo-ROB.

        Checkpoints opened after the branch are discarded; instructions
        younger than the branch are squashed and their renamings undone in
        reverse order; fetch restarts right after the branch.
        """
        seq = branch.seq
        victims: List[DynInst] = []
        for discarded in self.checkpoints.discard_younger_than_seq(seq):
            victims.extend(discarded.instructions)
        own = self.checkpoints.youngest()
        own_victims: List[DynInst] = []
        if own is not None:
            own_victims = [inst for inst in own.instructions if inst.seq > seq]
            victims.extend(own_victims)
        victims.extend(self.fetch_buffer)
        self.fetch_buffer.clear()
        victims.sort(key=lambda entry: entry.seq, reverse=True)
        for inst in victims:
            if inst.dispatch_cycle is not None and inst.phys_dest is not None:
                self.renamer.undo_rename(inst)
                if inst.old_phys_dest is not None:
                    self.checkpoints.remove_from_pending_free(inst.old_phys_dest)
            self._squash(inst)
        if own is not None:
            for inst in own_victims:
                own.disassociate(inst)
        self.pseudo_rob.remove_squashed()
        if self.sliq is not None:
            self.sliq.remove_squashed()
        self.tracker.reset()
        self.frontend.redirect(
            branch.trace_index + 1, self.cycle + self.config.branch.penalty
        )

    def _handle_exception(self, inst: DynInst) -> None:
        if inst.trace_index in self._careful_indices:
            # Second, careful pass: the state at the preceding checkpoint is
            # precise; deliver the exception and continue.
            self._careful_indices.discard(inst.trace_index)
            self._exceptions_delivered.value += 1
            return
        checkpoint = self.checkpoints.find(inst.checkpoint_id) if inst.checkpoint_id is not None else None
        if checkpoint is None:
            self._exceptions_delivered.value += 1
            return
        self._careful_indices.add(inst.trace_index)
        self._exception_rollbacks.value += 1
        self._rollback_to(checkpoint)

    # -- rollback --------------------------------------------------------------------------------------------
    def _rollback_to(self, checkpoint: Checkpoint) -> None:
        """Restore the machine to ``checkpoint`` and replay from there."""
        if self._draining is checkpoint:
            raise SimulationError("cannot roll back to a checkpoint that is committing")
        discarded = self.checkpoints.discard_younger_than(checkpoint)
        victims: List[DynInst] = []
        for dead_checkpoint in discarded:
            victims.extend(dead_checkpoint.instructions)
        victims.extend(checkpoint.instructions)
        victims.extend(self.fetch_buffer)
        self.fetch_buffer.clear()
        for inst in victims:
            self._squash(inst)
        self.pseudo_rob.remove_squashed()
        if self.sliq is not None:
            self.sliq.remove_squashed()
            self.sliq.reset_wakeups()
        self.tracker.reset()
        reserved = self.checkpoints.reserved_registers(up_to=checkpoint)
        self.renamer.restore(checkpoint.snapshot, reserved)
        checkpoint.reset_window()
        self.policy.reset()
        self.frontend.redirect(
            checkpoint.resume_index, self.cycle + self.config.branch.penalty
        )
        # Restore the branch-history register to the checkpointed
        # instruction's fetch-time snapshot.  Without this, re-fetch
        # predicts through history polluted by the squashed wrong path —
        # a different (usually untrained, weakly-taken) gshare index on
        # every re-execution — and a rarely-taken branch checkpointed at
        # its own dispatch can mispredict and roll back forever.
        self.frontend.repair_history(checkpoint.history)

    def _squash(self, inst: DynInst) -> None:
        if inst.state is InstState.COMMITTED:
            raise SimulationError(f"attempted to squash committed instruction seq={inst.seq}")
        if inst.claimed_phys and self._phys_pool is not None:
            self._release_claimed_tag(inst.phys_dest)
            inst.claimed_phys = False
        self._squash_bookkeeping(inst)
        self._squashed_counter.value += 1

    # -- commit ----------------------------------------------------------------------------------------------
    def _commit_stage(self) -> None:
        if self._draining is not None:
            self._drain_stores()
            return
        oldest = self._checkpoint_to_commit()
        if oldest is None:
            return
        if not oldest.closed:
            # Close the final window: harvest its pending frees now.
            oldest.to_free |= self.renamer.harvest_future_free()
            oldest.closed = True
        self._draining = oldest
        self._drain_position = 0
        self._drain_stores()

    def _checkpoint_to_commit(self) -> Optional[Checkpoint]:
        """The oldest checkpoint if commit starts draining it now, else ``None``.

        Its instructions must all have completed, and its window must be
        closed by a younger checkpoint or, for the last one, by the end
        of the trace.
        """
        oldest = self.checkpoints.oldest()
        if (
            oldest is not None
            and oldest.ready_to_commit
            and (oldest.closed or self._end_of_trace())
        ):
            return oldest
        return None

    def _end_of_trace(self) -> bool:
        return self.frontend.exhausted and not self.fetch_buffer

    def _drain_stores(self) -> None:
        checkpoint = self._draining
        assert checkpoint is not None
        drained = 0
        while (
            self._drain_position < len(checkpoint.stores)
            and drained < self.config.core.commit_width
        ):
            store = checkpoint.stores[self._drain_position]
            self._drain_position += 1
            if store.state is InstState.SQUASHED:
                continue
            instr = store.instr
            self.hierarchy.data_access(instr.mem_addr or 0, True, self.cycle, pc=instr.pc)
            self.lsq.release(store)
            drained += 1
        if self._drain_position >= len(checkpoint.stores):
            self._finalize_checkpoint(checkpoint)

    def _finalize_checkpoint(self, checkpoint: Checkpoint) -> None:
        """All stores drained: free registers, retire the whole window."""
        if self._phys_pool is not None:
            # Safety net: anything not already recycled early dies here.
            for tag in checkpoint.to_free:
                self._release_claimed_tag(tag)
        self.renamer.free_registers(checkpoint.to_free)
        for inst in checkpoint.instructions:
            if inst.state is InstState.SQUASHED:
                continue
            inst.state = InstState.COMMITTED
            inst.commit_cycle = self.cycle
            self._retire_from_window(inst)
        committed_now = checkpoint.instruction_count
        popped = self.checkpoints.pop_oldest()
        assert popped is checkpoint
        self._draining = None
        self._drain_position = 0
        if committed_now:
            self._note_commit(committed_now)

    # -- per-cycle extras -----------------------------------------------------------------------------------------
    def _extra_cycle_work(self) -> None:
        if self.sliq is not None:
            self.sliq.step(self._reinsert_from_sliq, self.cycle)
            # Sampled here, before the drain below can move entries into
            # the SLIQ; a skipped span applies it as an idle effect.
            self.sliq.sample_occupancy()
        if self._dispatched_in_cycle == 0 and self._pseudo_rob_drain_due():
            for _ in range(self._fetch_width):
                self._retire_from_pseudo_rob()
                if self.pseudo_rob.is_empty:
                    break

    def _sample_cycles(self, cycles: int) -> None:
        in_flight = self.in_flight
        live = self.live
        int_queue, fp_queue, lsq = self.int_queue, self.fp_queue, self.lsq
        pseudo_rob, checkpoints = self.pseudo_rob, self.checkpoints
        for mean, value in (
            (int_queue.occupancy_mean, int_queue.occupancy),
            (fp_queue.occupancy_mean, fp_queue.occupancy),
            (lsq.occupancy_mean, lsq.occupancy),
            (self._in_flight_mean, in_flight),
            (self._live_mean, live),
            (self._live_fp_long_mean, self.live_fp_long),
            (self._live_fp_short_mean, self.live_fp_short),
            (pseudo_rob.occupancy_mean, pseudo_rob.occupancy),
            (checkpoints.occupancy_mean, checkpoints.occupancy),
        ):
            mean.count += cycles
            mean.total += value * cycles
            if mean.min is None or value < mean.min:
                mean.min = value
            if mean.max is None or value > mean.max:
                mean.max = value
        weights = self._in_flight_weights
        weights[in_flight] = weights.get(in_flight, 0) + cycles
        weights = self._live_weights
        weights[live] = weights.get(live, 0) + cycles

    def _pseudo_rob_drain_due(self) -> bool:
        """Whether a stalled dispatch leaves the pseudo-ROB drain work to do.

        Pseudo-ROB retirement is normally driven by dispatch needing room,
        but when dispatch is stalled behind a full issue queue the oldest
        entries must still drain so that dependent instructions clogging
        the issue queues can move to the SLIQ and make room for
        re-insertions — otherwise the machine can deadlock.
        """
        return (self.int_queue.is_full or self.fp_queue.is_full) and not self.pseudo_rob.is_empty

    # -- event-driven kernel hooks ----------------------------------------------------
    def _idle_cycle_effects(self) -> Optional[Tuple[Callable[[int], None], ...]]:
        """Next-cycle no-op check built from the stages' own verdicts.

        Skipping is refused whenever any of this machine's engines has
        per-cycle work: a draining checkpoint, one that
        :meth:`_checkpoint_to_commit` would start draining, a non-empty
        SLIQ re-insertion stream, a due :meth:`_pseudo_rob_drain_due`, or
        a dispatch that would open a checkpoint (:meth:`_needs_checkpoint`
        with room in the table), retire pseudo-ROB entries or move the
        fetch head into the window (:meth:`_dispatch_stall`).  The effects
        are the stall counters that dispatch bumps for the same head, in
        stage order, then the SLIQ occupancy sample that
        :meth:`_extra_cycle_work` takes each stepped cycle.
        """
        if self._draining is not None or self._checkpoint_to_commit() is not None:
            return None
        if self.sliq is not None and self.sliq.reinsert_pending:
            return None
        if self._pseudo_rob_drain_due():
            return None
        if not self.fetch_buffer:
            return self._sliq_sample
        inst = self.fetch_buffer[0]
        needs_checkpoint = self._needs_checkpoint(inst)
        if needs_checkpoint and not self.checkpoints.is_full:
            return None  # dispatch would open a checkpoint
        if self.pseudo_rob.is_full:
            return None  # dispatch would retire pseudo-ROB entries
        stall = self._dispatch_stall(inst, self._queue_for(inst))
        if stall is None:
            return None  # dispatch would make progress
        if needs_checkpoint:
            stall = (self.checkpoints.note_full_stall, *stall)
        return stall + self._sliq_sample

    def _reinsert_from_sliq(self, inst: DynInst):
        """Callback used by the SLIQ re-insertion engine.

        Returns True when the instruction re-enters its issue queue, False
        when that queue is full, or a physical register id when the
        instruction still depends on another parked producer and should be
        re-filed under it instead of occupying an issue-queue slot.
        """
        if inst.state is not InstState.DISPATCHED:
            return True
        if self.sliq is not None:
            for preg in inst.phys_srcs:
                if not self.regfile.is_ready(preg) and self.sliq.is_parked_dest(preg):
                    return preg
        queue = self._queue_for(inst)
        if queue.is_full and not self._make_room_in_queue(queue):
            queue.note_full_stall()
            return False
        queue.insert(inst, self.regfile, self.wakeup)
        return True

    def _make_room_in_queue(self, queue: InstructionQueue) -> bool:
        """Evict a waiting issue-queue entry into the SLIQ to unblock re-insertion.

        When the re-insertion stream is blocked by a full issue queue, the
        youngest resident that is still waiting on operands is spilled to
        the SLIQ (filed under one of its unready sources).  This mirrors
        the pseudo-ROB move datapath and guarantees forward progress: the
        entries blocking the stream are by construction younger than the
        stream head.
        """
        if self.sliq is None:
            return False
        victim = queue.youngest_waiting()
        if victim is None:
            return False
        pending = [p for p in victim.phys_srcs if not self.regfile.is_ready(p)]
        if not pending:
            return False
        queue.remove(victim)
        # The caller immediately removes one entry from the re-insertion
        # stream, so the SLIQ occupancy only overshoots transiently.
        self.sliq.insert(victim, pending[0], self.cycle, force=True)
        if self._pressure_evictions is None:
            self._pressure_evictions = self.stats.counter("sliq.pressure_evictions")
        self._pressure_evictions.value += 1
        return True

