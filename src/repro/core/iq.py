"""Issue queues with event-driven wakeup and oldest-first select.

Each general-purpose queue (integer, floating point) holds dispatched
instructions until their source operands are ready.  Wakeup is modelled
with a :class:`WakeupNetwork`: when a physical register becomes ready the
waiting instructions are notified directly, so the per-cycle cost does not
depend on the queue size (important for simulating the paper's unbuildable
4096-entry baseline queues at tolerable speed).

The queue maintains its waiting population as a set, so the pipeline's
"youngest entry still blocked on operands" query (`youngest_waiting`)
and the event-driven kernel's "is anything selectable" query
(`has_ready`) never scan the full queue.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, Iterable, List, Optional, Set

from ..common.errors import StructuralHazardError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst, InstState
from .regfile import PhysicalRegisterFile


class WakeupNetwork:
    """Maps physical registers to the instructions waiting on them."""

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: Dict[int, List[DynInst]] = {}

    def register(self, inst: DynInst, pending: Iterable[int]) -> None:
        """Subscribe ``inst`` to the readiness of each register in ``pending``."""
        waiters = self._waiters
        for preg in pending:
            entry = waiters.get(preg)
            if entry is None:
                waiters[preg] = [inst]
            else:
                entry.append(inst)

    def notify_ready(self, preg: int) -> List[DynInst]:
        """A register became ready; returns instructions that are now fully ready.

        Only instructions currently resident in an issue queue are
        returned; instructions parked in the SLIQ simply have their
        pending-source sets updated.
        """
        woken: List[DynInst] = []
        for inst in self._waiters.pop(preg, ()):
            pending = inst.pending_srcs
            if pending is None or preg not in pending:
                # Stale subscription: the instruction was moved to the SLIQ
                # and re-inserted (recomputing its pending set), or this is
                # a duplicate registration from an earlier residency.
                continue
            pending.discard(preg)
            if (
                not pending
                and inst.in_iq
                and inst.state is InstState.DISPATCHED
            ):
                woken.append(inst)
        return woken

    def clear(self) -> None:
        self._waiters.clear()


class InstructionQueue:
    """One general-purpose issue queue (wakeup + oldest-first select)."""

    __slots__ = (
        "name",
        "capacity",
        "occupancy",
        "occupancy_mean",
        "_waiting",
        "_ready_heap",
        "_tick",
        "_inserts",
        "_issues",
        "_full_stalls",
    )

    def __init__(self, name: str, capacity: int, stats: StatsRegistry) -> None:
        if capacity <= 0:
            raise StructuralHazardError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        #: Resident instructions (read-only outside the queue).
        self.occupancy = 0
        self._waiting: Set[DynInst] = set()
        self._ready_heap: List[tuple] = []
        # Heap tiebreak for same-seq entries (an instruction re-pushed by
        # unpop/mark_ready): a queue-local monotonic tick, so entry order
        # never depends on object addresses.
        self._tick = count()
        self._inserts = stats.counter(f"{name}.inserts")
        self._issues = stats.counter(f"{name}.issues")
        self._full_stalls = stats.counter(f"{name}.full_stalls")
        #: Sampled by the pipeline at the end of every cycle.
        self.occupancy_mean = stats.running_mean(f"{name}.occupancy")

    # -- capacity ---------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def note_full_stall(self, cycles: int = 1) -> None:
        self._full_stalls.value += cycles

    # -- insertion --------------------------------------------------------------------
    def insert(
        self,
        inst: DynInst,
        regfile: PhysicalRegisterFile,
        wakeup: WakeupNetwork,
    ) -> None:
        """Place ``inst`` in the queue and subscribe it to missing operands."""
        if self.occupancy >= self.capacity:
            raise StructuralHazardError(f"{self.name} overflow")
        pending = regfile.unready(inst.phys_srcs)
        inst.pending_srcs = pending
        inst.in_iq = True
        inst.iq = self
        self.occupancy += 1
        self._inserts.value += 1
        if pending:
            self._waiting.add(inst)
            wakeup.register(inst, pending)
        else:
            heapq.heappush(self._ready_heap, (inst.seq, next(self._tick), inst))

    def mark_ready(self, inst: DynInst) -> None:
        """Put ``inst`` into the select pool (all operands ready)."""
        self._waiting.discard(inst)
        heapq.heappush(self._ready_heap, (inst.seq, next(self._tick), inst))

    @property
    def maybe_ready(self) -> bool:
        """Cheap may-have-ready check (no pruning; stale entries count).

        The issue stage uses this as its early-exit guard; a True answer
        only means :meth:`pop_ready` is worth calling.
        """
        return bool(self._ready_heap)

    # -- selection --------------------------------------------------------------------
    def pop_ready(self) -> Optional[DynInst]:
        """Oldest ready instruction still resident in this queue, or None."""
        heap = self._ready_heap
        while heap:
            inst = heapq.heappop(heap)[2]
            if (
                inst.in_iq
                and inst.state is InstState.DISPATCHED
                and not inst.pending_srcs
            ):
                return inst
        return None

    def has_ready(self) -> bool:
        """True if :meth:`pop_ready` would return an instruction.

        Prunes the same stale heap entries ``pop_ready`` would discard,
        so calling it from the event-driven kernel leaves the queue in
        exactly the state a fruitless per-cycle select would.
        """
        heap = self._ready_heap
        while heap:
            inst = heap[0][2]
            if (
                inst.in_iq
                and inst.state is InstState.DISPATCHED
                and not inst.pending_srcs
            ):
                return True
            heapq.heappop(heap)
        return False

    def unpop(self, inst: DynInst) -> None:
        """Return an instruction taken with :meth:`pop_ready` but not issued."""
        heapq.heappush(self._ready_heap, (inst.seq, next(self._tick), inst))

    def record_issue(self) -> None:
        self._issues.value += 1

    # -- removal -----------------------------------------------------------------------
    def remove(self, inst: DynInst) -> None:
        """Take ``inst`` out of the queue (issued, moved to the SLIQ, or squashed)."""
        if not inst.in_iq:
            return
        inst.in_iq = False
        self.occupancy -= 1
        self._waiting.discard(inst)
        if self.occupancy < 0:
            raise StructuralHazardError(f"{self.name}: occupancy underflow")

    def youngest_waiting(self) -> Optional[DynInst]:
        """The youngest resident that still has unready source operands, or None.

        One pass over the maintained waiting set (updated on
        insert/wakeup/remove), so the query never scans the whole queue.
        Sequence numbers are unique, so the answer does not depend on
        set iteration order.
        """
        youngest = None
        for inst in self._waiting:
            if (
                inst.pending_srcs
                and inst.state is InstState.DISPATCHED
                and (youngest is None or inst.seq > youngest.seq)
            ):
                youngest = inst
        return youngest
