"""Hardware prefetchers (an optional extension, off by default).

The paper's related-work section discusses prefetching as the classical,
complementary way of tolerating memory latency (e.g. Badawy et al. and
Pressel's stream-buffer studies).  To allow that comparison, the memory
hierarchy can be configured with one of two simple L2 prefetchers:

* ``next_line`` — on every demand L2 miss, fetch the next ``degree``
  sequential lines as well.
* ``stride`` — a reference-prediction table keyed by the accessed region
  detects constant-stride streams and prefetches ``degree`` strides ahead.

Prefetches are modelled as fills that arrive one full memory latency after
the triggering access; they never delay demand requests (bandwidth is not
modelled, consistent with the paper's latency-centric methodology).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.stats import StatsRegistry


class PrefetchEngine:
    """Base class: decides which line addresses to prefetch after an access."""

    __slots__ = ("line_bytes", "degree", "_issued", "_useful")

    name = "none"

    def __init__(self, line_bytes: int, degree: int, stats: StatsRegistry) -> None:
        self.line_bytes = line_bytes
        self.degree = degree
        self._issued = stats.counter("prefetch.issued")
        self._useful = stats.counter("prefetch.useful")

    def record_useful(self) -> None:
        """A demand access hit a line that was brought in by a prefetch."""
        self._useful.value += 1

    @property
    def issued(self) -> int:
        return int(self._issued.value)

    def addresses_after(self, addr: int, was_miss: bool, key: Optional[int] = None) -> List[int]:
        """Line addresses to prefetch after a demand access to ``addr``.

        ``key`` identifies the access stream (normally the load/store's pc);
        prefetchers that do not need it ignore it.
        """
        raise NotImplementedError

    def warm_state(self) -> Optional[List[List[object]]]:
        """Serializable training state, or None for stateless prefetchers."""
        return None

    def load_warm_state(self, state: Optional[List[List[object]]]) -> None:
        """Restore :meth:`warm_state` output (no-op for stateless prefetchers)."""

    def _line(self, addr: int) -> int:
        return (addr // self.line_bytes) * self.line_bytes


class NextLinePrefetcher(PrefetchEngine):
    """Sequential (next-N-lines) prefetching triggered by demand misses."""

    __slots__ = ()

    name = "next_line"

    def addresses_after(self, addr: int, was_miss: bool, key: Optional[int] = None) -> List[int]:
        if not was_miss:
            return []
        base = self._line(addr)
        addresses = [base + (i + 1) * self.line_bytes for i in range(self.degree)]
        self._issued.value += len(addresses)
        return addresses


class StridePrefetcher(PrefetchEngine):
    """Reference-prediction-table stride prefetcher.

    The table is indexed by the accessing instruction's pc (the classical
    reference prediction table); when no pc is supplied it falls back to
    the access's 4 KiB region.  Each entry remembers the last address and
    the last observed stride.  Two consecutive accesses with the same
    non-zero stride arm the entry, after which each access prefetches
    ``degree`` steps ahead of the stream.
    """

    __slots__ = ("table_size", "_table")

    name = "stride"

    def __init__(self, line_bytes: int, degree: int, stats: StatsRegistry, table_size: int = 256) -> None:
        super().__init__(line_bytes, degree, stats)
        self.table_size = table_size
        # stream key -> (last address, stride, confirmed)
        self._table: Dict[int, Tuple[int, int, bool]] = {}

    def _region(self, addr: int) -> int:
        return (addr >> 12) % self.table_size

    def addresses_after(self, addr: int, was_miss: bool, key: Optional[int] = None) -> List[int]:
        region = key % self.table_size if key is not None else self._region(addr)
        entry = self._table.get(region)
        addresses: List[int] = []
        if entry is None:
            self._table[region] = (addr, 0, False)
            return addresses
        last_addr, last_stride, confirmed = entry
        stride = addr - last_addr
        if stride != 0 and stride == last_stride:
            # Stream confirmed: prefetch `degree` steps ahead.  Strides
            # smaller than a cache line would keep hitting the same line,
            # so the effective step is at least one line in the stream's
            # direction (this is what stream buffers do).
            if abs(stride) >= self.line_bytes:
                step = stride
            else:
                step = self.line_bytes if stride > 0 else -self.line_bytes
            seen = set()
            for i in range(1, self.degree + 1):
                target = self._line(addr + i * step)
                if target not in seen:
                    seen.add(target)
                    addresses.append(target)
            self._table[region] = (addr, stride, True)
            self._issued.value += len(addresses)
        else:
            self._table[region] = (addr, stride, False)
        return addresses

    def warm_state(self) -> Optional[List[List[object]]]:
        """Reference-prediction table as ``[[key, [last, stride, confirmed]], ...]``."""
        return [[key, list(entry)] for key, entry in self._table.items()]

    def load_warm_state(self, state: Optional[List[List[object]]]) -> None:
        self._table.clear()
        for key, entry in state or []:
            last_addr, stride, confirmed = entry
            self._table[int(key)] = (int(last_addr), int(stride), bool(confirmed))


def build_prefetcher(
    kind: str,
    line_bytes: int,
    degree: int,
    stats: StatsRegistry,
) -> Optional[PrefetchEngine]:
    """Factory used by the cache hierarchy; returns None when disabled."""
    if kind in ("none", "", None):
        return None
    if kind == "next_line":
        return NextLinePrefetcher(line_bytes, degree, stats)
    if kind == "stride":
        return StridePrefetcher(line_bytes, degree, stats)
    raise ValueError(f"unknown prefetcher kind {kind!r}")
