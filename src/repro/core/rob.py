"""The conventional reorder buffer used by the baseline machine."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..common.errors import StructuralHazardError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst, InstState


class ReorderBuffer:
    """A FIFO of in-flight instructions committed in program order."""

    __slots__ = ("capacity", "_entries", "_inserts", "_commits", "_full_stalls")

    def __init__(self, capacity: int, stats: StatsRegistry) -> None:
        if capacity <= 0:
            raise StructuralHazardError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[DynInst] = deque()
        self._inserts = stats.counter("rob.inserts")
        self._commits = stats.counter("rob.commits")
        self._full_stalls = stats.counter("rob.full_stalls")

    # -- capacity ------------------------------------------------------------
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

    def note_full_stall(self, cycles: int = 1) -> None:
        """Statistic hook called by dispatch when it stalls on a full ROB."""
        self._full_stalls.value += cycles

    # -- contents ---------------------------------------------------------------
    def insert(self, inst: DynInst) -> None:
        """Append ``inst`` at the tail (dispatch order == program order)."""
        if self.is_full:
            raise StructuralHazardError("ROB overflow")
        self._entries.append(inst)
        self._inserts.value += 1

    def head(self) -> Optional[DynInst]:
        """Oldest in-flight instruction, or None when empty."""
        return self._entries[0] if self._entries else None

    def commit_head(self) -> DynInst:
        """Remove and return the oldest instruction (caller checked it is DONE)."""
        if not self._entries:
            raise StructuralHazardError("commit from an empty ROB")
        inst = self._entries.popleft()
        self._commits.value += 1
        return inst

    def committable(self, width: int) -> List[DynInst]:
        """Up to ``width`` oldest instructions that are DONE, in order."""
        ready: List[DynInst] = []
        for inst in self._entries:
            if len(ready) >= width:
                break
            if inst.state is not InstState.DONE:
                break
            ready.append(inst)
        return ready

    def squash_younger_than(self, seq: int) -> List[DynInst]:
        """Remove every entry younger than ``seq`` (misprediction recovery).

        Entries are returned youngest-first, which is the order the renamer
        needs to undo their mappings.
        """
        squashed: List[DynInst] = []
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        return squashed

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
