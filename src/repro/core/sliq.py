"""Slow Lane Instruction Queuing: dependence tracking and the SLIQ buffer.

Two cooperating pieces implement the paper's Section 3:

* :class:`LongLatencyTracker` — the 32-bit-per-register-file dependence
  mask.  When a long-latency load is detected at pseudo-ROB retirement its
  destination *logical* register is marked; later retirees that read a
  marked register are dependent and mark their own destination in turn;
  an independent retiree that redefines a marked register clears the mark.
  Each marked register remembers the *root* load's destination physical
  register, which is the wake-up tag the SLIQ entry is filed under.

* :class:`SlowLaneQueue` — the large, cheap, in-order secondary buffer.
  Dependent instructions are moved here from the issue queue, filed under
  the physical register whose readiness should wake them.  When that
  register is written, the matching entries are gathered (in order) into a
  re-insertion stream that flows back into the issue queue at
  ``reinsert_width`` instructions per cycle after a ``reinsert_delay``
  start-up penalty — the two knobs swept by Figure 10.  A woken
  instruction that turns out to still depend on another parked producer is
  *re-filed* under that producer instead of occupying an issue-queue slot
  (the same policy the WIB design uses), which keeps the tiny issue queues
  free for instructions that can actually execute.

Waiting entries are stored bucketed by wake-up register (insertion order
preserved within a bucket), so a wake-up touches exactly the entries it
wakes instead of scanning the whole buffer — the buffer is by design the
largest structure in the machine (2048 entries in Table 1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Union

from ..common.config import SLIQConfig
from ..common.errors import StructuralHazardError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst, InstState

#: The re-insertion callback returns True (accepted into an issue queue),
#: False (stall: try again next cycle), or a physical-register id meaning
#: "re-file this entry in the SLIQ keyed on that register".
ReinsertResult = Union[bool, int]


class LongLatencyTracker:
    """The logical-register dependence mask of the SLIQ mechanism."""

    __slots__ = ("_mask",)

    def __init__(self) -> None:
        # logical register -> physical register of the root long-latency load
        self._mask: Dict[int, int] = {}

    # -- queries ----------------------------------------------------------------
    @property
    def marked_registers(self) -> Set[int]:
        return set(self._mask)

    def is_marked(self, logical: int) -> bool:
        return logical in self._mask

    def dependence_root(self, inst: DynInst) -> Optional[int]:
        """Root wake-up register if ``inst`` reads any marked register."""
        mask = self._mask
        if not mask:
            return None
        for src in inst.instr.srcs:
            root = mask.get(src)
            if root is not None:
                return root
        return None

    # -- updates -------------------------------------------------------------------
    def mark_long_latency_load(self, inst: DynInst) -> None:
        """A load that missed in L2 was retired from the pseudo-ROB."""
        dest = inst.instr.dest
        if dest is not None and inst.phys_dest is not None:
            self._mask[dest] = inst.phys_dest

    def mark_dependent(self, inst: DynInst, root: int) -> None:
        """A dependent instruction propagates the mark to its destination."""
        dest = inst.instr.dest
        if dest is not None:
            self._mask[dest] = root

    def clear_redefinition(self, inst: DynInst) -> None:
        """An independent instruction redefining a marked register clears it."""
        dest = inst.instr.dest
        if dest is not None:
            self._mask.pop(dest, None)

    def clear_root(self, root_preg: int) -> None:
        """Drop every mark whose root load (physical register) completed."""
        stale = [logical for logical, root in self._mask.items() if root == root_preg]
        for logical in stale:
            del self._mask[logical]

    def reset(self) -> None:
        self._mask.clear()


class SlowLaneQueue:
    """The SLIQ buffer plus its paced re-insertion engine."""

    __slots__ = (
        "config",
        "capacity",
        "_ready_fn",
        "_waiting",
        "_waiting_count",
        "_reinsert_stream",
        "_parked_dests",
        "_startup_delay",
        "_inserts",
        "_refiles",
        "_reinserts",
        "_full_stalls",
        "_occupancy_mean",
        "_wakeups",
    )

    def __init__(
        self,
        config: SLIQConfig,
        stats: StatsRegistry,
        ready_fn: Optional[Callable[[int], bool]] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.capacity = config.size
        self._ready_fn = ready_fn
        # wake-up register -> waiting entries filed under it, oldest first.
        self._waiting: Dict[int, List[DynInst]] = {}
        self._waiting_count = 0
        self._reinsert_stream: Deque[DynInst] = deque()
        self._parked_dests: Dict[int, int] = {}
        self._startup_delay = 0
        self._inserts = stats.counter("sliq.inserts")
        self._refiles = stats.counter("sliq.refiles")
        self._reinserts = stats.counter("sliq.reinserts")
        self._full_stalls = stats.counter("sliq.full_stalls")
        self._occupancy_mean = stats.running_mean("sliq.occupancy")
        self._wakeups = stats.counter("sliq.wakeup_events")

    # -- capacity ---------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._waiting_count + len(self._reinsert_stream)

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self.occupancy == 0

    @property
    def reinsert_pending(self) -> bool:
        """True while the re-insertion engine has per-cycle work to do."""
        return bool(self._reinsert_stream)

    def note_full_stall(self, cycles: int = 1) -> None:
        self._full_stalls.value += cycles

    def sample_occupancy(self, cycles: int = 1) -> None:
        """Sample the occupancy ``cycles`` times, updating the mean in place.

        The pipeline calls it every stepped cycle and the event-driven
        kernel applies it as an idle effect, so it stays a method.
        """
        occupancy = self._waiting_count + len(self._reinsert_stream)
        mean = self._occupancy_mean
        mean.count += cycles
        mean.total += occupancy * cycles
        if mean.min is None or occupancy < mean.min:
            mean.min = occupancy
        if mean.max is None or occupancy > mean.max:
            mean.max = occupancy

    # -- queries used by the pipeline ----------------------------------------------------
    def has_waiters(self, preg: int) -> bool:
        """True if some SLIQ entry is filed under ``preg``."""
        return preg in self._waiting

    def is_parked_dest(self, preg: int) -> bool:
        """True if the producer of ``preg`` is currently parked in the SLIQ."""
        return preg in self._parked_dests

    # -- bookkeeping helpers ---------------------------------------------------------------
    def _park(self, inst: DynInst) -> None:
        inst.in_sliq = True
        dest = inst.phys_dest
        if dest is not None:
            parked = self._parked_dests
            parked[dest] = parked.get(dest, 0) + 1

    def _unpark(self, inst: DynInst) -> None:
        inst.in_sliq = False
        dest = inst.phys_dest
        if dest is not None:
            parked = self._parked_dests
            count = parked.get(dest, 0) - 1
            if count > 0:
                parked[dest] = count
            else:
                parked.pop(dest, None)

    # -- insertion ------------------------------------------------------------------------
    def insert(self, inst: DynInst, wakeup_preg: int, cycle: int, force: bool = False) -> None:
        """File a dependent instruction in the SLIQ under ``wakeup_preg``.

        If the wake-up register is already ready (the root completed before
        the dependent was moved) the instruction goes straight to the
        re-insertion stream.  ``force`` permits a transient one-entry
        overshoot and is used only by the issue-queue pressure eviction,
        which immediately removes another entry from the stream.
        """
        if not force and self.occupancy >= self.capacity:
            raise StructuralHazardError("SLIQ overflow")
        if inst.sliq_enter_cycle is None:
            inst.sliq_enter_cycle = cycle
            self._inserts.value += 1
        else:
            self._refiles.value += 1
        ready_fn = self._ready_fn
        already_ready = ready_fn(wakeup_preg) if ready_fn is not None else False
        self._park(inst)
        if already_ready:
            self._push_stream([inst])
        else:
            bucket = self._waiting.get(wakeup_preg)
            if bucket is None:
                self._waiting[wakeup_preg] = [inst]
            else:
                bucket.append(inst)
            self._waiting_count += 1

    # -- wakeup --------------------------------------------------------------------------
    def notify_ready(self, preg: int) -> None:
        """Register ``preg`` was written: wake every entry filed under it."""
        bucket = self._waiting.pop(preg, None)
        if bucket is None:
            return
        self._wakeups.value += 1
        self._waiting_count -= len(bucket)
        matched: List[DynInst] = []
        for inst in bucket:
            if inst.state is InstState.SQUASHED:
                self._unpark(inst)
            else:
                matched.append(inst)
        self._push_stream(matched)

    def _push_stream(self, insts: List[DynInst]) -> None:
        if not insts:
            return
        was_idle = not self._reinsert_stream
        self._reinsert_stream.extend(insts)
        if was_idle:
            self._startup_delay = self.config.reinsert_delay

    # -- per-cycle re-insertion -------------------------------------------------------------
    def step(self, reinsert_callback: Callable[[DynInst], ReinsertResult], cycle: int = 0) -> int:
        """Advance the re-insertion engine by one cycle.

        ``reinsert_callback(inst)`` returns True if the instruction was
        accepted back into its issue queue, False if the queue is full
        (stalls the stream), or a physical register id to re-file the entry
        under (it still depends on a parked producer).  Returns the number
        of instructions taken out of the stream this cycle.
        """
        stream = self._reinsert_stream
        if not stream:
            return 0
        if self._startup_delay > 0:
            self._startup_delay -= 1
            return 0
        processed = 0
        while stream and processed < self.config.reinsert_width:
            inst = stream[0]
            if inst.state is InstState.SQUASHED:
                stream.popleft()
                self._unpark(inst)
                continue
            result = reinsert_callback(inst)
            if result is False:
                break
            stream.popleft()
            self._unpark(inst)
            processed += 1
            if result is True:
                self._reinserts.value += 1
            else:
                # Still dependent on a parked producer: re-file under it.
                self.insert(inst, int(result), cycle)
        return processed

    # -- squash ---------------------------------------------------------------------------------
    def remove_squashed(self) -> List[DynInst]:
        """Drop squashed instructions from the buffer and the stream."""
        removed: List[DynInst] = []
        for preg in list(self._waiting):
            bucket = self._waiting[preg]
            dead = [inst for inst in bucket if inst.state is InstState.SQUASHED]
            if not dead:
                continue
            for inst in dead:
                self._unpark(inst)
            removed.extend(dead)
            self._waiting_count -= len(dead)
            kept = [inst for inst in bucket if inst.state is not InstState.SQUASHED]
            if kept:
                self._waiting[preg] = kept
            else:
                del self._waiting[preg]
        stream_removed = [
            inst for inst in self._reinsert_stream if inst.state is InstState.SQUASHED
        ]
        if stream_removed:
            for inst in stream_removed:
                self._unpark(inst)
            self._reinsert_stream = deque(
                inst for inst in self._reinsert_stream if inst.state is not InstState.SQUASHED
            )
        removed.extend(stream_removed)
        return removed

    def reset_wakeups(self) -> None:
        """Reset the re-insertion start-up delay (after a pipeline flush)."""
        self._startup_delay = 0

    def __len__(self) -> int:
        return self.occupancy
