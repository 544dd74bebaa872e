"""The load/store queue.

Per the paper, the LSQ is modelled "pseudo-perfect": it is sized large
enough (4096 entries in Table 1) to never be the bottleneck, but the
mechanics are still implemented — entries are allocated at dispatch in
program order, loads forward from older resident stores to the same word,
and stores keep their entry until they drain to the cache at (checkpoint)
commit, which is exactly why the paper needs the 64-store checkpoint
threshold to avoid deadlock.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.errors import StructuralHazardError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst, InstState


def _word_address(addr: int) -> int:
    """Addresses are compared at 8-byte-word granularity for forwarding."""
    return addr >> 3


class LoadStoreQueue:
    """Tracks in-flight memory instructions and store-to-load forwarding."""

    __slots__ = (
        "capacity",
        "occupancy",
        "occupancy_mean",
        "_stores_by_word",
        "_inserts",
        "_forwards",
        "_full_stalls",
    )

    def __init__(self, capacity: int, stats: StatsRegistry) -> None:
        if capacity <= 0:
            raise StructuralHazardError("LSQ capacity must be positive")
        self.capacity = capacity
        #: Allocated entries (read-only outside the queue).
        self.occupancy = 0
        self._stores_by_word: Dict[int, List[DynInst]] = {}
        self._inserts = stats.counter("lsq.inserts")
        self._forwards = stats.counter("lsq.store_forwards")
        self._full_stalls = stats.counter("lsq.full_stalls")
        #: Sampled by the pipeline at the end of every cycle.
        self.occupancy_mean = stats.running_mean("lsq.occupancy")

    # -- capacity --------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def note_full_stall(self, cycles: int = 1) -> None:
        self._full_stalls.value += cycles

    # -- allocation ---------------------------------------------------------------------
    def allocate(self, inst: DynInst) -> None:
        """Give ``inst`` (a load or store) an LSQ entry at dispatch."""
        instr = inst.instr
        if not instr.is_memory:
            raise StructuralHazardError("only memory instructions occupy the LSQ")
        if self.occupancy >= self.capacity:
            raise StructuralHazardError("LSQ overflow")
        inst.lsq_index = inst.seq
        self.occupancy += 1
        self._inserts.value += 1
        if instr.is_store:
            word = _word_address(instr.mem_addr or 0)
            self._stores_by_word.setdefault(word, []).append(inst)

    def release(self, inst: DynInst) -> None:
        """Free the entry (at commit / store drain / squash)."""
        if inst.lsq_index is None:
            return
        inst.lsq_index = None
        self.occupancy -= 1
        if self.occupancy < 0:
            raise StructuralHazardError("LSQ occupancy underflow")
        instr = inst.instr
        if instr.is_store:
            word = _word_address(instr.mem_addr or 0)
            stores = self._stores_by_word.get(word)
            if stores and inst in stores:
                stores.remove(inst)
                if not stores:
                    del self._stores_by_word[word]

    # -- forwarding ----------------------------------------------------------------------
    def forwarding_store(self, load: DynInst) -> Optional[DynInst]:
        """Youngest older resident store writing the load's word, if any."""
        word = _word_address(load.instr.mem_addr or 0)
        stores = self._stores_by_word.get(word)
        if not stores:
            return None
        for store in reversed(stores):
            if store.state is InstState.SQUASHED or store.lsq_index is None:
                continue
            if store.seq < load.seq:
                self._forwards.value += 1
                return store
        return None

    # -- squash --------------------------------------------------------------------------
    def remove_squashed(self, squashed: List[DynInst]) -> None:
        """Release the entries of squashed memory instructions."""
        for inst in squashed:
            if inst.instr.is_memory and inst.lsq_index is not None:
                self.release(inst)
