"""Tests for the load/store queue, functional units and the fetch unit."""

import pytest

from repro.common.config import BranchConfig, FunctionalUnitConfig, MemoryConfig
from repro.common.errors import StructuralHazardError
from repro.core.frontend import FetchUnit
from repro.core.fu import ExecutionUnits, FunctionalUnitPool
from repro.core.lsq import LoadStoreQueue
from repro.isa import registers as regs
from repro.isa.instruction import DynInst, Instruction
from repro.isa.opcodes import FU_FOR_OP, FUType, OpClass, execution_latency, is_pipelined
from repro.memory.hierarchy import CacheHierarchy
from repro.workloads.builder import TraceBuilder


def mem_inst(seq, op, addr):
    dest = regs.fp_reg(1) if op in (OpClass.LOAD, OpClass.FP_LOAD) else None
    srcs = (regs.fp_reg(2),) if op in (OpClass.STORE, OpClass.FP_STORE) else ()
    instr = Instruction(pc=seq * 4, op=op, dest=dest, srcs=srcs, mem_addr=addr)
    return DynInst(seq=seq, trace_index=seq, instr=instr)


class TestLoadStoreQueue:
    def test_allocate_and_release(self, stats):
        lsq = LoadStoreQueue(4, stats)
        load = mem_inst(1, OpClass.LOAD, 0x100)
        lsq.allocate(load)
        assert lsq.occupancy == 1
        lsq.release(load)
        assert lsq.occupancy == 0

    def test_only_memory_instructions(self, stats):
        lsq = LoadStoreQueue(4, stats)
        alu = DynInst(seq=1, trace_index=1, instr=Instruction(pc=0, op=OpClass.INT_ALU, dest=1))
        with pytest.raises(StructuralHazardError):
            lsq.allocate(alu)

    def test_capacity(self, stats):
        lsq = LoadStoreQueue(1, stats)
        lsq.allocate(mem_inst(1, OpClass.LOAD, 0x100))
        assert lsq.is_full
        with pytest.raises(StructuralHazardError):
            lsq.allocate(mem_inst(2, OpClass.LOAD, 0x108))

    def test_store_to_load_forwarding(self, stats):
        lsq = LoadStoreQueue(8, stats)
        store = mem_inst(1, OpClass.STORE, 0x100)
        lsq.allocate(store)
        load = mem_inst(2, OpClass.LOAD, 0x100)
        lsq.allocate(load)
        assert lsq.forwarding_store(load) is store

    def test_no_forwarding_from_younger_store(self, stats):
        lsq = LoadStoreQueue(8, stats)
        load = mem_inst(1, OpClass.LOAD, 0x100)
        store = mem_inst(2, OpClass.STORE, 0x100)
        lsq.allocate(load)
        lsq.allocate(store)
        assert lsq.forwarding_store(load) is None

    def test_no_forwarding_across_words(self, stats):
        lsq = LoadStoreQueue(8, stats)
        store = mem_inst(1, OpClass.STORE, 0x100)
        lsq.allocate(store)
        load = mem_inst(2, OpClass.LOAD, 0x108)
        lsq.allocate(load)
        assert lsq.forwarding_store(load) is None

    def test_forwarding_picks_youngest_older_store(self, stats):
        lsq = LoadStoreQueue(8, stats)
        old_store = mem_inst(1, OpClass.STORE, 0x100)
        new_store = mem_inst(2, OpClass.STORE, 0x100)
        lsq.allocate(old_store)
        lsq.allocate(new_store)
        load = mem_inst(3, OpClass.LOAD, 0x100)
        lsq.allocate(load)
        assert lsq.forwarding_store(load) is new_store

    def test_released_store_stops_forwarding(self, stats):
        lsq = LoadStoreQueue(8, stats)
        store = mem_inst(1, OpClass.STORE, 0x100)
        lsq.allocate(store)
        lsq.release(store)
        load = mem_inst(2, OpClass.LOAD, 0x100)
        lsq.allocate(load)
        assert lsq.forwarding_store(load) is None

    def test_remove_squashed(self, stats):
        lsq = LoadStoreQueue(8, stats)
        store = mem_inst(1, OpClass.STORE, 0x100)
        lsq.allocate(store)
        store.mark_squashed()
        lsq.remove_squashed([store])
        assert lsq.occupancy == 0

    def test_double_release_is_harmless(self, stats):
        lsq = LoadStoreQueue(8, stats)
        load = mem_inst(1, OpClass.LOAD, 0x100)
        lsq.allocate(load)
        lsq.release(load)
        lsq.release(load)
        assert lsq.occupancy == 0


class TestFunctionalUnits:
    def test_pool_limits_issues_per_cycle(self, stats):
        pool = FunctionalUnitPool("alu", 2, stats)
        assert pool.try_issue(cycle=1, occupancy_cycles=1)
        assert pool.try_issue(cycle=1, occupancy_cycles=1)
        assert not pool.try_issue(cycle=1, occupancy_cycles=1)
        assert pool.try_issue(cycle=2, occupancy_cycles=1)

    def test_unpipelined_occupancy(self, stats):
        pool = FunctionalUnitPool("div", 1, stats)
        assert pool.try_issue(cycle=1, occupancy_cycles=20)
        assert not pool.try_issue(cycle=10, occupancy_cycles=20)
        assert pool.try_issue(cycle=21, occupancy_cycles=20)

    def test_execution_units_mapping(self, stats):
        units = ExecutionUnits(FunctionalUnitConfig(), memory_ports=2, stats=stats)
        assert units.pool_for(OpClass.FP_MUL) is FUType.FP
        assert units.pool_for(OpClass.LOAD) is FUType.MEM_PORT
        assert units.latency(OpClass.FP_ALU) == 2

    def test_memory_ports_limit_loads(self, stats):
        units = ExecutionUnits(FunctionalUnitConfig(), memory_ports=2, stats=stats)
        assert units.try_issue(OpClass.LOAD, cycle=5)
        assert units.try_issue(OpClass.FP_LOAD, cycle=5)
        assert not units.try_issue(OpClass.STORE, cycle=5)

    def test_divider_blocks_multiplier_pool(self, stats):
        units = ExecutionUnits(FunctionalUnitConfig(int_mul_count=1), memory_ports=2, stats=stats)
        assert units.try_issue(OpClass.INT_DIV, cycle=0)
        assert not units.try_issue(OpClass.INT_MUL, cycle=5)
        assert units.try_issue(OpClass.INT_MUL, cycle=25)

    def test_nop_always_issues(self, stats):
        units = ExecutionUnits(FunctionalUnitConfig(), memory_ports=1, stats=stats)
        assert units.try_issue(OpClass.NOP, cycle=0)

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.value)
    def test_per_class_table_matches_opcodes(self, op, stats):
        """Latency and busy cycles agree with ``execution_latency`` and ``is_pipelined``."""
        fu = FunctionalUnitConfig(
            int_alu_count=1, int_alu_latency=2, int_mul_count=1, int_mul_latency=5,
            int_div_latency=17, fp_count=1, fp_latency=3, fp_div_latency=13, agen_latency=4,
        )
        units = ExecutionUnits(fu, memory_ports=1, stats=stats)
        assert units.latency(op) == execution_latency(op, fu)
        assert units.try_issue(op, cycle=0)
        if FU_FOR_OP[op] is FUType.NONE:
            assert units.try_issue(op, cycle=0)
            return
        busy = 1 if is_pipelined(op) else execution_latency(op, fu)
        assert not units.try_issue(op, cycle=busy - 1)
        assert units.try_issue(op, cycle=busy)


class TestFetchUnit:
    def make(self, trace, stats, fetch_width=4, perfect=False):
        hierarchy = CacheHierarchy(MemoryConfig(memory_latency=100), stats)
        config = BranchConfig(perfect=perfect)
        return FetchUnit(trace, config, hierarchy, stats, fetch_width)

    def straight_line_trace(self, n=12):
        builder = TraceBuilder("line")
        for _ in range(n):
            builder.int_op(regs.int_reg(1), regs.int_reg(2))
        builder.branch(taken=False)
        return builder.build()

    def test_fetches_up_to_width(self, stats):
        frontend = self.make(self.straight_line_trace(), stats)
        block = frontend.fetch_block(cycle=1)
        assert len(block) == 4
        assert [f.trace_index for f in block] == [0, 1, 2, 3]

    def test_block_ends_at_taken_branch(self, stats):
        builder = TraceBuilder("loop")
        builder.int_op(regs.int_reg(1))
        builder.branch(taken=True, target=0x1000)
        builder.int_op(regs.int_reg(2))
        builder.branch(taken=False)
        frontend = self.make(builder.build(), stats, perfect=True)
        block = frontend.fetch_block(cycle=1)
        assert len(block) == 2
        assert block[-1].instr.is_branch

    def test_exhaustion(self, stats):
        frontend = self.make(self.straight_line_trace(3), stats)
        frontend.fetch_block(cycle=1)
        assert frontend.exhausted
        assert frontend.fetch_block(cycle=2) == []

    def test_first_taken_branch_btb_miss_is_mispredicted(self, stats):
        builder = TraceBuilder("loop")
        builder.branch(taken=True, target=0x1000)
        builder.branch(taken=False)
        frontend = self.make(builder.build(), stats)
        block = frontend.fetch_block(cycle=1)
        assert block[0].mispredicted

    def test_perfect_predictor_never_mispredicts(self, stats):
        builder = TraceBuilder("loop")
        for i in range(8):
            builder.branch(taken=(i % 2 == 0), target=0x1000)
        frontend = self.make(builder.build(), stats, perfect=True)
        fetched = []
        cycle = 0
        while not frontend.exhausted:
            cycle += 1
            fetched.extend(frontend.fetch_block(cycle))
        assert not any(f.mispredicted for f in fetched)

    def test_redirect_rewinds_and_delays(self, stats):
        frontend = self.make(self.straight_line_trace(), stats)
        frontend.fetch_block(cycle=1)
        frontend.redirect(trace_index=0, resume_cycle=200)
        assert frontend.fetch_block(cycle=150) == []
        block = frontend.fetch_block(cycle=200)
        assert block[0].trace_index == 0

    def test_icache_warmup_delay(self, stats):
        frontend = self.make(self.straight_line_trace(), stats)
        frontend.fetch_block(cycle=1)
        # first access missed the IL1, so fetch is delayed past cycle 2
        assert not frontend.can_fetch(2)

    def test_mispredicted_branch_does_not_stop_fetch(self, stats):
        builder = TraceBuilder("b")
        builder.branch(taken=False)  # gshare initialised weakly-taken: not-taken branch mispredicts? depends
        for _ in range(6):
            builder.int_op(regs.int_reg(1))
        builder.branch(taken=False)
        frontend = self.make(builder.build(), stats)
        block = frontend.fetch_block(cycle=1)
        # whatever the prediction, the block is not cut short by a not-taken branch
        assert len(block) == 4
