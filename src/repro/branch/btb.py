"""A direct-mapped branch target buffer.

The trace already knows every branch target, so the BTB only influences
performance through *misses*: a taken branch whose target is not in the
BTB is treated as a misprediction by the front end (it cannot redirect
fetch to an unknown target).
"""

from __future__ import annotations

from typing import Optional

from ..common.config import BranchConfig
from ..common.stats import StatsRegistry


class BranchTargetBuffer:
    """Direct-mapped tagged target buffer."""

    __slots__ = ("_entries", "_mask", "_tags", "_targets", "_hits", "_misses")

    def __init__(self, config: BranchConfig, stats: StatsRegistry) -> None:
        self._entries = config.btb_entries
        self._mask = self._entries - 1
        self._tags = [None] * self._entries  # type: list[Optional[int]]
        self._targets = [0] * self._entries
        self._hits = stats.counter("btb.hits")
        self._misses = stats.counter("btb.misses")

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target of the branch at ``pc`` or None on a BTB miss."""
        index = self._index(pc)
        if self._tags[index] == pc:
            self._hits.value += 1
            return self._targets[index]
        self._misses.value += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install (or refresh) the target of a resolved taken branch."""
        index = self._index(pc)
        self._tags[index] = pc
        self._targets[index] = target

    def invalidate(self) -> None:
        """Flush the whole buffer (used by tests)."""
        self._tags = [None] * self._entries
        self._targets = [0] * self._entries

    def warm_state(self) -> list:
        """Valid entries as ``[[index, tag, target], ...]`` (JSON-safe)."""
        return [
            [index, tag, self._targets[index]]
            for index, tag in enumerate(self._tags)
            if tag is not None
        ]

    def load_warm_state(self, state: list) -> None:
        """Restore :meth:`warm_state` output, replacing the whole buffer."""
        self.invalidate()
        for index, tag, target in state:
            if not 0 <= index < self._entries:
                raise ValueError(f"btb warm state entry {index!r} outside {self._entries} slots")
            self._tags[index] = int(tag)
            self._targets[index] = int(target)
