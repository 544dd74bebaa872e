"""Physical register file, free list, ready bits and late allocation.

The timing simulator never stores data values; a "physical register" is
an identifier with two properties: whether it is *free* (available to the
renamer) and whether it is *ready* (its producer has executed).  The same
class also models the *virtual tag* pool of the Figure 14 late-allocation
study — in that mode the identifiers handed out at rename are tags and a
separate :class:`PhysicalPool` counts how many real registers are holding
live values.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Set

from ..common.errors import RenameError
from ..common.stats import StatsRegistry


class PhysicalRegisterFile:
    """Free list plus ready (scoreboard) bits over ``num_regs`` identifiers."""

    __slots__ = (
        "num_regs",
        "name",
        "_free",
        "_is_free",
        "_ready",
        "_allocations",
        "_frees",
        "_peak",
    )

    def __init__(self, num_regs: int, stats: StatsRegistry, name: str = "prf") -> None:
        if num_regs <= 0:
            raise RenameError("the register file needs at least one register")
        self.num_regs = num_regs
        self.name = name
        self._free: Deque[int] = deque(range(num_regs))
        self._is_free: List[bool] = [True] * num_regs
        self._ready: List[bool] = [False] * num_regs
        self._allocations = stats.counter(f"{name}.allocations")
        self._frees = stats.counter(f"{name}.frees")
        self._peak = stats.counter(f"{name}.peak_in_use", kind="peak")

    # -- free-list management -------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def in_use_count(self) -> int:
        return self.num_regs - len(self._free)

    def has_free(self, count: int = 1) -> bool:
        return len(self._free) >= count

    def allocate(self) -> int:
        """Take one register off the free list; it starts not-ready."""
        if not self._free:
            raise RenameError(f"{self.name}: no free registers")
        reg = self._free.popleft()
        self._is_free[reg] = False
        self._ready[reg] = False
        self._allocations.value += 1
        in_use = self.num_regs - len(self._free)
        peak = self._peak
        if in_use > peak.value:
            peak.value = in_use
        return reg

    def free(self, reg: int) -> None:
        """Return ``reg`` to the free list."""
        self._check(reg)
        if self._is_free[reg]:
            raise RenameError(f"{self.name}: double free of register {reg}")
        self._is_free[reg] = True
        self._ready[reg] = False
        self._free.append(reg)
        self._frees.value += 1

    def is_free(self, reg: int) -> bool:
        self._check(reg)
        return self._is_free[reg]

    def set_free_set(self, free_regs: Iterable[int]) -> None:
        """Overwrite the free list (used by checkpoint rollback reconstruction)."""
        free_set = set(free_regs)
        for reg in free_set:
            self._check(reg)
        self._free = deque(sorted(free_set))
        for reg in range(self.num_regs):
            self._is_free[reg] = reg in free_set
            if reg in free_set:
                self._ready[reg] = False

    def free_set(self) -> Set[int]:
        """The current free list as a set (for snapshots and tests)."""
        return set(self._free)

    # -- ready (scoreboard) bits ---------------------------------------------------
    def set_ready(self, reg: int) -> None:
        self._check(reg)
        self._ready[reg] = True

    def is_ready(self, reg: int) -> bool:
        self._check(reg)
        return self._ready[reg]

    def unready(self, regs: Iterable[int]) -> Set[int]:
        """The registers among ``regs`` that are not ready yet.

        One call per issue-queue insertion instead of an :meth:`is_ready`
        per source; every id is range-checked as :meth:`is_ready` would.
        """
        ready = self._ready
        num_regs = self.num_regs
        pending: Set[int] = set()
        for reg in regs:
            if not 0 <= reg < num_regs:
                self._check(reg)  # raises the out-of-range error
            if not ready[reg]:
                pending.add(reg)
        return pending

    def mark_all_ready(self, regs: Iterable[int]) -> None:
        """Mark several registers ready (used for the initial architectural map)."""
        for reg in regs:
            self.set_ready(reg)

    # -- helpers -------------------------------------------------------------------
    def _check(self, reg: int) -> None:
        if not 0 <= reg < self.num_regs:
            raise RenameError(f"{self.name}: register id {reg} out of range")

    def reset(self) -> None:
        """Return every register to the free list and clear ready bits."""
        self._free = deque(range(self.num_regs))
        self._is_free = [True] * self.num_regs
        self._ready = [False] * self.num_regs


class PhysicalPool:
    """Counts live physical registers under late (virtual-tag) allocation.

    In the Figure 14 model, rename hands out virtual tags and the real
    register is claimed only when the producer writes back.  This class is
    that claim counter: :meth:`try_claim` at write-back, :meth:`release`
    when the value dies (its redefiner's checkpoint commits).
    """

    __slots__ = ("capacity", "_claimed", "_stall_cycles", "_peak")

    def __init__(self, capacity: int, stats: StatsRegistry, initially_claimed: int = 0) -> None:
        if capacity <= 0:
            raise RenameError("physical pool capacity must be positive")
        if initially_claimed > capacity:
            raise RenameError("cannot pre-claim more registers than the pool holds")
        self.capacity = capacity
        self._claimed = initially_claimed
        self._stall_cycles = stats.counter("prf.late_alloc_stalls")
        self._peak = stats.counter("prf.late_alloc_peak", kind="peak")
        self._peak.peak(initially_claimed)

    @property
    def claimed(self) -> int:
        return self._claimed

    @property
    def available(self) -> int:
        return self.capacity - self._claimed

    def try_claim(self) -> bool:
        """Claim one register; False (and a stall statistic) if none is free."""
        if self._claimed >= self.capacity:
            self._stall_cycles.value += 1
            return False
        self._claimed += 1
        if self._claimed > self._peak.value:
            self._peak.value = self._claimed
        return True

    def force_claim(self) -> None:
        """Claim a register even when the pool is exhausted.

        Used only to guarantee forward progress for the oldest window:
        real late-allocation designs reserve registers for the oldest
        (non-speculative) instructions for exactly this reason.  The
        transient overshoot is recorded in the peak statistic.
        """
        self._claimed += 1
        if self._claimed > self._peak.value:
            self._peak.value = self._claimed

    def release(self, count: int = 1) -> None:
        if count < 0 or count > self._claimed:
            raise RenameError(
                f"cannot release {count} registers, only {self._claimed} are claimed"
            )
        self._claimed -= count
