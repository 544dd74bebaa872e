"""The pseudo-ROB: a FIFO that delays the long-latency classification.

Instructions enter the pseudo-ROB at dispatch and leave it strictly in
order when it is full and room is needed.  Leaving the pseudo-ROB is *not*
commit (the checkpoints handle that); it is merely the moment the machine
decides whether the instruction is short-latency (keep it in its issue
queue), already finished, a long-latency load (a new dependence root), or
dependent on a long-latency load (move it to the SLIQ).

The pseudo-ROB also gives cheap branch-misprediction recovery: while a
branch is still resident here, a misprediction does not need to unroll to
a checkpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..common.errors import StructuralHazardError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst, InstState, RetireClass


class PseudoROB:
    """FIFO window of the most recently dispatched instructions."""

    __slots__ = (
        "capacity",
        "occupancy_mean",
        "_entries",
        "_inserts",
        "_retirements",
        "_retire_classes",
    )

    def __init__(self, capacity: int, stats: StatsRegistry) -> None:
        if capacity <= 0:
            raise StructuralHazardError("pseudo-ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[DynInst] = deque()
        self._inserts = stats.counter("pseudo_rob.inserts")
        self._retirements = stats.counter("pseudo_rob.retirements")
        #: Sampled by the pipeline at the end of every cycle.
        self.occupancy_mean = stats.running_mean("pseudo_rob.occupancy")
        #: The Figure-12 breakdown: retirement class value -> count.
        self._retire_classes = stats.histogram("pseudo_rob.retire_class").buckets

    # -- capacity -----------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def free_entries(self) -> int:
        return self.capacity - len(self._entries)

    # -- contents -------------------------------------------------------------------
    def insert(self, inst: DynInst) -> None:
        if self.is_full:
            raise StructuralHazardError("pseudo-ROB overflow")
        inst.in_pseudo_rob = True
        self._entries.append(inst)
        self._inserts.value += 1

    def oldest(self) -> Optional[DynInst]:
        return self._entries[0] if self._entries else None

    def retire_oldest(self) -> DynInst:
        """Pop the oldest entry (classification happens in the pipeline)."""
        if not self._entries:
            raise StructuralHazardError("retire from an empty pseudo-ROB")
        inst = self._entries.popleft()
        inst.in_pseudo_rob = False
        self._retirements.value += 1
        return inst

    def record_classification(self, retire_class: RetireClass) -> None:
        """Account one retirement in the Figure-12 breakdown histogram."""
        # ``_value_``: the ``value`` property is a Python call per access.
        key = retire_class._value_
        self._retire_classes[key] = self._retire_classes.get(key, 0) + 1

    def contains(self, inst: DynInst) -> bool:
        """Cheap membership test used by branch recovery."""
        return inst.in_pseudo_rob

    def remove_squashed(self) -> List[DynInst]:
        """Drop squashed entries after a rollback; returns what was removed."""
        removed = [inst for inst in self._entries if inst.state is InstState.SQUASHED]
        if removed:
            self._entries = deque(
                inst for inst in self._entries if inst.state is not InstState.SQUASHED
            )
            for inst in removed:
                inst.in_pseudo_rob = False
        return removed

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
