"""A set-associative cache with LRU replacement.

The simulator needs hit/miss behaviour and occupancy, not data values, so
a cache is a tag store only.  Lines are installed on miss (write-allocate)
and evicted LRU; dirty-bit bookkeeping is kept so that statistics about
writebacks are available, although writeback traffic has no timing cost in
this model (the paper studies latency, not bandwidth).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..common.config import CacheConfig
from ..common.stats import StatsRegistry


class Cache:
    """Tag store of one cache level."""

    __slots__ = (
        "config",
        "name",
        "_num_sets",
        "_line_shift",
        "_set_mask",
        "_sets",
        "_accesses",
        "_hits",
        "_misses",
        "_evictions",
        "_writebacks",
    )

    def __init__(self, config: CacheConfig, stats: StatsRegistry, name: Optional[str] = None) -> None:
        config.validate()
        self.config = config
        self.name = name or config.name
        self._num_sets = config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = self._num_sets - 1
        # Each set is an OrderedDict mapping tag -> dirty flag; ordering is
        # recency (last item = most recently used).
        self._sets: List["OrderedDict[int, bool]"] = [OrderedDict() for _ in range(self._num_sets)]
        self._accesses = stats.counter(f"{self.name}.accesses")
        self._hits = stats.counter(f"{self.name}.hits")
        self._misses = stats.counter(f"{self.name}.misses")
        self._evictions = stats.counter(f"{self.name}.evictions")
        self._writebacks = stats.counter(f"{self.name}.writebacks")

    # -- address helpers ---------------------------------------------------
    def line_address(self, addr: int) -> int:
        """Address truncated to the cache-line boundary."""
        return addr >> self._line_shift << self._line_shift

    def _set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    def _tag(self, addr: int) -> int:
        return addr >> self._line_shift

    # -- operations ------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Non-destructive lookup: True if the line is present (no LRU update)."""
        return self._tag(addr) in self._sets[self._set_index(addr)]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; returns True on hit.

        A hit refreshes recency and, for writes, sets the dirty bit.  A
        miss does *not* install the line — the hierarchy decides when the
        fill happens via :meth:`fill`.
        """
        self._accesses.value += 1
        cache_set = self._sets[self._set_index(addr)]
        tag = self._tag(addr)
        if tag in cache_set:
            self._hits.value += 1
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            return True
        self._misses.value += 1
        return False

    def warm_access(self, addr: int, is_write: bool = False) -> bool:
        """Functional-warming lookup: like :meth:`access` but uncounted.

        Used by the sampled-execution fast-forward engine, which must
        evolve tag/LRU/dirty state exactly as demand accesses would
        while keeping the hit/miss statistics scoped to detailed
        execution.
        """
        cache_set = self._sets[self._set_index(addr)]
        tag = self._tag(addr)
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            return True
        return False

    def warm_fill(self, addr: int, dirty: bool = False) -> None:
        """Functional-warming install: like :meth:`fill` but uncounted."""
        cache_set = self._sets[self._set_index(addr)]
        tag = self._tag(addr)
        if tag in cache_set:
            existing_dirty = cache_set.pop(tag)
            cache_set[tag] = existing_dirty or dirty
            return
        if len(cache_set) >= self.config.assoc:
            cache_set.popitem(last=False)
        cache_set[tag] = dirty

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Install the line containing ``addr``.

        Returns the line address of the evicted victim (if the victim was
        dirty), else None.  Filling an already-present line just refreshes
        recency.
        """
        cache_set = self._sets[self._set_index(addr)]
        tag = self._tag(addr)
        if tag in cache_set:
            existing_dirty = cache_set.pop(tag)
            cache_set[tag] = existing_dirty or dirty
            return None
        victim_line = None
        if len(cache_set) >= self.config.assoc:
            victim_tag, victim_dirty = cache_set.popitem(last=False)
            self._evictions.value += 1
            if victim_dirty:
                self._writebacks.value += 1
                victim_line = victim_tag << self._line_shift
        cache_set[tag] = dirty
        return victim_line

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr``; True if it was present."""
        cache_set = self._sets[self._set_index(addr)]
        tag = self._tag(addr)
        if tag in cache_set:
            del cache_set[tag]
            return True
        return False

    def flush(self) -> None:
        """Empty the whole cache."""
        for cache_set in self._sets:
            cache_set.clear()

    # -- inspection -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    @property
    def capacity_lines(self) -> int:
        """Total number of line frames."""
        return self._num_sets * self.config.assoc

    def hit_rate(self) -> float:
        """Hits / accesses so far (1.0 when never accessed)."""
        if not self._accesses.value:
            return 1.0
        return self._hits.value / self._accesses.value

    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate()

    def contents(self) -> Dict[int, List[int]]:
        """Mapping set index -> list of resident line addresses (LRU first)."""
        return {
            index: [tag << self._line_shift for tag in cache_set]
            for index, cache_set in enumerate(self._sets)
            if cache_set
        }

    # -- warm-state snapshot/restore (sampled execution) ---------------------
    def warm_state(self) -> List[List[object]]:
        """Serializable tag/LRU/dirty state: ``[[set, [[tag, dirty], ...]], ...]``.

        Only non-empty sets appear; within a set the pairs are ordered
        LRU-first, so :meth:`load_warm_state` reproduces recency exactly.
        The encoding is plain lists of ints/bools so it survives a JSON
        round trip through a warm-checkpoint file unchanged.
        """
        return [
            [index, [[tag, dirty] for tag, dirty in cache_set.items()]]
            for index, cache_set in enumerate(self._sets)
            if cache_set
        ]

    def load_warm_state(self, state: List[List[object]]) -> None:
        """Restore the state captured by :meth:`warm_state`.

        Replaces the entire tag store; statistics counters are untouched
        (warm state is contents, not history).
        """
        for cache_set in self._sets:
            cache_set.clear()
        for index, pairs in state:
            if not 0 <= index < self._num_sets or len(pairs) > self.config.assoc:
                raise ValueError(
                    f"{self.name}: warm state does not fit geometry "
                    f"(set {index!r} of {self._num_sets}, {len(pairs)} ways of {self.config.assoc})"
                )
            cache_set = self._sets[index]
            for tag, dirty in pairs:
                cache_set[int(tag)] = bool(dirty)
