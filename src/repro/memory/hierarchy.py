"""The full memory hierarchy: IL1, DL1, unified L2 and main memory.

The hierarchy answers one question for the pipeline: *if this access
starts now, when does its data arrive and where was it found?*  Results
are returned as :class:`AccessResult` records; the MSHR files make
accesses to a line that is already being fetched complete together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import MemoryConfig
from ..common.stats import StatsRegistry
from .cache import Cache
from .mshr import MSHRFile
from .prefetch import build_prefetcher


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one data access."""

    latency: int
    level: str  # "dl1", "l2", "memory", "mshr"
    l2_miss: bool
    dl1_miss: bool


class CacheHierarchy:
    """Two-level data hierarchy plus an instruction L1, as in Table 1."""

    __slots__ = (
        "config",
        "stats",
        "il1",
        "dl1",
        "l2",
        "_dl1_mshr",
        "_l2_mshr",
        "prefetcher",
        "_prefetched_lines",
        "_loads",
        "_stores",
        "_l2_miss_loads",
        "_memory_accesses",
    )

    def __init__(self, config: MemoryConfig, stats: StatsRegistry) -> None:
        config.validate()
        self.config = config
        self.stats = stats
        self.il1 = Cache(config.il1, stats, name="il1")
        self.dl1 = Cache(config.dl1, stats, name="dl1")
        self.l2 = Cache(config.l2, stats, name="l2")
        self._dl1_mshr = MSHRFile("dl1.mshr", stats)
        self._l2_mshr = MSHRFile("l2.mshr", stats)
        self.prefetcher = build_prefetcher(
            config.prefetcher, config.l2.line_bytes, config.prefetch_degree, stats
        )
        self._prefetched_lines: set = set()
        self._loads = stats.counter("mem.loads")
        self._stores = stats.counter("mem.stores")
        self._l2_miss_loads = stats.counter("mem.l2_miss_loads")
        self._memory_accesses = stats.counter("mem.main_memory_accesses")

    # -- instruction side ---------------------------------------------------
    def inst_access(self, pc: int, cycle: int) -> int:
        """Latency of fetching the line containing ``pc``.

        Instruction misses are served from the L2: the loop bodies of the
        modelled workloads (and of the paper's SPEC2000fp regions) have
        code footprints far smaller than the L2, so code is assumed L2
        resident and instruction fetch never pays the main-memory latency.
        """
        if self.il1.access(pc):
            return self.config.il1.latency
        self.il1.fill(pc)
        self.l2.access(pc)
        self.l2.fill(pc)
        return self.config.il1.latency + self.config.l2.latency

    # -- data side -------------------------------------------------------------
    def data_access(
        self, addr: int, is_store: bool, cycle: int, pc: Optional[int] = None
    ) -> AccessResult:
        """Access the data hierarchy; returns latency and the serving level.

        When a prefetcher is configured, the access also trains it (keyed
        by the accessing instruction's ``pc`` when provided) and may
        trigger prefetch fills into the L2 (see :mod:`repro.memory.prefetch`).
        """
        result = self._demand_access(addr, is_store, cycle)
        if self.prefetcher is not None:
            self._account_prefetch_hit(addr, result)
            for target in self.prefetcher.addresses_after(addr, result.l2_miss, key=pc):
                self._issue_prefetch(target, cycle)
        return result

    def _account_prefetch_hit(self, addr: int, result: AccessResult) -> None:
        line = self.l2.line_address(addr)
        if result.level in ("l2", "mshr") and line in self._prefetched_lines:
            self._prefetched_lines.discard(line)
            self.prefetcher.record_useful()

    def _issue_prefetch(self, addr: int, cycle: int) -> None:
        """Bring one line into the L2 ahead of demand (latency-only model)."""
        if self.config.perfect_l2 or self.config.perfect_dl1:
            return
        if self.l2.probe(addr):
            return
        line = self.l2.line_address(addr)
        if self._l2_mshr.lookup(line, cycle) is not None:
            return
        latency = self.config.l2.latency + self.config.memory_latency
        self._l2_mshr.allocate(line, cycle + latency, from_memory=True)
        self.l2.fill(addr)
        self._prefetched_lines.add(line)

    def _demand_access(self, addr: int, is_store: bool, cycle: int) -> AccessResult:
        if is_store:
            self._stores.value += 1
        else:
            self._loads.value += 1

        if self.config.perfect_dl1:
            return AccessResult(self.config.dl1.latency, "dl1", False, False)

        line = self.dl1.line_address(addr)
        dl1_latency = self.config.dl1.latency
        if self.dl1.access(addr, is_write=is_store):
            # The line may still be in flight from an earlier miss; the
            # access then completes when the fill does and counts as an L2
            # miss if the fill is coming from main memory.
            pending = self._dl1_mshr.lookup(line, cycle)
            if pending is not None:
                ready_cycle, from_memory = pending
                latency = max(dl1_latency, ready_cycle - cycle)
                if from_memory and not is_store:
                    self._l2_miss_loads.value += 1
                return AccessResult(latency, "mshr", from_memory, True)
            return AccessResult(dl1_latency, "dl1", False, False)

        # DL1 miss: check for an outstanding fill of the same line.
        pending = self._dl1_mshr.lookup(line, cycle)
        if pending is not None:
            ready_cycle, from_memory = pending
            latency = max(dl1_latency, ready_cycle - cycle)
            self.dl1.fill(addr, dirty=is_store)
            if from_memory and not is_store:
                self._l2_miss_loads.value += 1
            return AccessResult(latency, "mshr", from_memory, True)

        l2_latency = dl1_latency + self.config.l2.latency
        if self.config.perfect_l2 or self.l2.access(addr, is_write=is_store):
            # The line may be L2-resident but still in flight (a prefetch or
            # an earlier miss): the access then completes with the fill.
            l2_line = self.l2.line_address(addr)
            pending_l2 = self._l2_mshr.lookup(l2_line, cycle)
            if pending_l2 is not None and not self.config.perfect_l2:
                ready_cycle, from_memory = pending_l2
                latency = max(l2_latency, ready_cycle - cycle)
                self.dl1.fill(addr, dirty=is_store)
                self._dl1_mshr.allocate(line, cycle + latency, from_memory=from_memory)
                if from_memory and not is_store:
                    self._l2_miss_loads.value += 1
                return AccessResult(latency, "mshr", from_memory, True)
            self.l2.fill(addr)
            self.dl1.fill(addr, dirty=is_store)
            self._dl1_mshr.allocate(line, cycle + l2_latency, from_memory=False)
            return AccessResult(l2_latency, "l2", False, True)

        # L2 miss: main memory, possibly merging with an outstanding fetch.
        l2_line = self.l2.line_address(addr)
        pending_l2 = self._l2_mshr.lookup(l2_line, cycle)
        if pending_l2 is not None:
            latency = max(l2_latency, pending_l2[0] - cycle)
        else:
            latency = l2_latency + self.config.memory_latency
            self._l2_mshr.allocate(l2_line, cycle + latency, from_memory=True)
            self._memory_accesses.value += 1
        if not is_store:
            self._l2_miss_loads.value += 1
        self.l2.fill(addr, dirty=is_store)
        self.dl1.fill(addr, dirty=is_store)
        self._dl1_mshr.allocate(line, cycle + latency, from_memory=True)
        return AccessResult(latency, "memory", True, True)

    # -- functional warming (sampled execution) ---------------------------------
    def warm_inst(self, pc: int) -> None:
        """Touch the instruction side for one fast-forwarded instruction.

        Evolves IL1/L2 tag and recency state exactly like
        :meth:`inst_access` but without latency or hit/miss statistics —
        the MSHR-free access path used while functionally fast-forwarding
        between detailed sample windows.
        """
        if not self.il1.warm_access(pc):
            if not self.l2.warm_access(pc):
                self.l2.warm_fill(pc)
            self.il1.warm_fill(pc)

    def warm_data(self, addr: int, is_store: bool, pc: Optional[int] = None) -> bool:
        """Retire one fast-forwarded data access functionally.

        Mirrors the fill decisions of :meth:`data_access` — DL1/L2
        lookup, write-allocate fills, prefetcher training and prefetch
        fills — without MSHR timing or the demand-access statistics, so
        detailed windows observe the same cache contents they would have
        seen had the skipped span been simulated in full.  Returns True
        when the access would have gone to main memory.
        """
        config = self.config
        if config.perfect_dl1:
            return False
        l2_miss = False
        if not self.dl1.warm_access(addr, is_write=is_store):
            if not config.perfect_l2 and not self.l2.warm_access(addr, is_write=is_store):
                l2_miss = True
                self.l2.warm_fill(addr, dirty=is_store)
            self.dl1.warm_fill(addr, dirty=is_store)
        if self.prefetcher is not None:
            for target in self.prefetcher.addresses_after(addr, l2_miss, key=pc):
                if config.perfect_l2 or self.l2.probe(target):
                    continue
                self.l2.warm_fill(target)
                self._prefetched_lines.add(self.l2.line_address(target))
        return l2_miss

    def warm_state(self) -> dict:
        """Serializable snapshot of every warm structure in the hierarchy.

        Covers exactly what functional warming evolves: tag/LRU/dirty
        state of all three caches, the prefetcher training table and the
        set of prefetched-but-untouched lines.  MSHR timers are excluded
        by design — :meth:`load_warm_state` clears them, so a restored
        snapshot never carries in-flight fills.
        """
        return {
            "il1": self.il1.warm_state(),
            "dl1": self.dl1.warm_state(),
            "l2": self.l2.warm_state(),
            "prefetcher": self.prefetcher.warm_state() if self.prefetcher else None,
            "prefetched_lines": sorted(self._prefetched_lines),
        }

    def load_warm_state(self, state: dict) -> None:
        """Restore a :meth:`warm_state` snapshot into this hierarchy.

        The hierarchy must have the same geometry the snapshot was taken
        under (the warm-checkpoint key guarantees this for file-loaded
        snapshots); a mismatched snapshot raises ``ValueError`` from the
        cache restore rather than silently mis-adopting state.
        """
        self.il1.load_warm_state(state["il1"])
        self.dl1.load_warm_state(state["dl1"])
        self.l2.load_warm_state(state["l2"])
        if self.prefetcher is not None:
            self.prefetcher.load_warm_state(state.get("prefetcher"))
        self._prefetched_lines = {int(line) for line in state.get("prefetched_lines", ())}
        self._dl1_mshr.clear()
        self._l2_mshr.clear()

    # -- probes used by tests and analysis ------------------------------------------
    def would_miss_l2(self, addr: int, cycle: int = 0) -> bool:
        """Non-destructive check: would an access now behave like an L2 miss?

        A line whose fill is still in flight from main memory counts as a
        miss — the data is not there yet, so a load to it is still a
        long-latency load from the scheduler's point of view.
        """
        if self.config.perfect_l2 or self.config.perfect_dl1:
            return False
        line = self.dl1.line_address(addr)
        pending = self._dl1_mshr.lookup(line, cycle)
        if pending is not None:
            return pending[1]
        return not self.dl1.probe(addr) and not self.l2.probe(addr)

    def flush(self) -> None:
        """Empty every cache and MSHR (used between independent runs)."""
        self.il1.flush()
        self.dl1.flush()
        self.l2.flush()
        self._dl1_mshr.clear()
        self._l2_mshr.clear()
