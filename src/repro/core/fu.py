"""Functional-unit pools (Table 1: 4 int ALUs, 2 int mul/div, 4 FP, 2 memory ports)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import FunctionalUnitConfig
from ..common.stats import StatsRegistry
from ..isa.opcodes import FU_FOR_OP, FUType, OpClass, execution_latency, is_pipelined


class FunctionalUnitPool:
    """A pool of identical units; unpipelined operations hold a unit busy."""

    __slots__ = ("name", "count", "_busy_until", "_issues", "_structural_stalls")

    def __init__(self, name: str, count: int, stats: StatsRegistry) -> None:
        self.name = name
        self.count = count
        self._busy_until: List[int] = [0] * count
        self._issues = stats.counter(f"fu.{name}.issues")
        self._structural_stalls = stats.counter(f"fu.{name}.structural_stalls")

    def try_issue(self, cycle: int, occupancy_cycles: int) -> bool:
        """Claim a unit for ``occupancy_cycles`` starting at ``cycle``.

        ``occupancy_cycles`` is 1 for fully pipelined operations and the
        full latency for unpipelined ones (the dividers).
        """
        busy = self._busy_until
        for index, until in enumerate(busy):
            if until <= cycle:
                busy[index] = cycle + occupancy_cycles
                self._issues.value += 1
                return True
        self._structural_stalls.value += 1
        return False


class ExecutionUnits:
    """All pools of the machine plus the latency lookup."""

    __slots__ = ("fu_config", "_pools", "_by_op")

    def __init__(
        self,
        fu_config: FunctionalUnitConfig,
        memory_ports: int,
        stats: StatsRegistry,
    ) -> None:
        fu_config.validate()
        self.fu_config = fu_config
        self._pools: Dict[FUType, FunctionalUnitPool] = {
            FUType.INT_ALU: FunctionalUnitPool("int_alu", fu_config.int_alu_count, stats),
            FUType.INT_MULDIV: FunctionalUnitPool("int_muldiv", fu_config.int_mul_count, stats),
            FUType.FP: FunctionalUnitPool("fp", fu_config.fp_count, stats),
            FUType.MEM_PORT: FunctionalUnitPool("mem_port", memory_ports, stats),
        }
        #: ``op._value_`` -> (pool or None, cycles a unit stays busy,
        #: latency), derived once from ``FU_FOR_OP``, ``is_pipelined`` and
        #: ``execution_latency``: an ``OpClass`` key would hash through the
        #: Python-level ``Enum.__hash__`` on every issue.
        self._by_op: Dict[str, Tuple[Optional[FunctionalUnitPool], int, int]] = {}
        for op in OpClass:
            latency = execution_latency(op, fu_config)
            self._by_op[op._value_] = (
                self._pools.get(FU_FOR_OP[op]),
                1 if is_pipelined(op) else latency,
                latency,
            )

    def pool_for(self, op: OpClass) -> FUType:
        return FU_FOR_OP[op]

    def latency(self, op: OpClass) -> int:
        """Execution latency of ``op`` excluding any cache/memory time."""
        return self._by_op[op._value_][2]

    def try_issue(self, op: OpClass, cycle: int) -> bool:
        """Reserve a unit for ``op`` issuing at ``cycle``; False on a structural hazard."""
        pool, busy, _ = self._by_op[op._value_]
        if pool is None:
            return True
        return pool.try_issue(cycle, busy)

    def pool(self, fu_type: FUType) -> FunctionalUnitPool:
        return self._pools[fu_type]
