"""Miss status holding registers (outstanding-miss tracking).

When a load misses, the hierarchy records the cycle at which the fill
will arrive.  Later accesses to the same line that arrive before the fill
*merge* into the outstanding miss instead of paying the full latency
again — exactly what hardware MSHRs do.  Entries are pruned lazily.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.stats import StatsRegistry


class MSHRFile:
    """Tracks outstanding line fills for one cache level."""

    __slots__ = ("name", "capacity", "_outstanding", "_allocations", "_merges")

    def __init__(self, name: str, stats: StatsRegistry, capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = capacity
        # line address -> (ready cycle, fill comes from main memory)
        self._outstanding: Dict[int, tuple] = {}
        self._allocations = stats.counter(f"{name}.allocations")
        self._merges = stats.counter(f"{name}.merges")

    def lookup(self, line_addr: int, cycle: int) -> Optional[tuple]:
        """Outstanding fill of ``line_addr`` as ``(ready_cycle, from_memory)``.

        Entries whose fill already completed (ready <= cycle) are removed
        and treated as absent — the line is in the cache by then.
        """
        entry = self._outstanding.get(line_addr)
        if entry is None:
            return None
        if entry[0] <= cycle:
            del self._outstanding[line_addr]
            return None
        self._merges.value += 1
        return entry

    def allocate(self, line_addr: int, ready_cycle: int, from_memory: bool = False) -> bool:
        """Record a new outstanding fill; False if the MSHR file is full."""
        self._prune(ready_cycle)
        if self.capacity is not None and len(self._outstanding) >= self.capacity:
            return False
        self._outstanding[line_addr] = (ready_cycle, from_memory)
        self._allocations.value += 1
        return True

    def _prune(self, cycle: int) -> None:
        if len(self._outstanding) < 1024:
            return
        finished = [line for line, entry in self._outstanding.items() if entry[0] <= cycle]
        for line in finished:
            del self._outstanding[line]

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

    def clear(self) -> None:
        self._outstanding.clear()
