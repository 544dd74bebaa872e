"""Integration tests of the conventional (ROB) baseline pipeline."""

import pytest

from repro.common.config import scaled_baseline, table1_baseline
from repro.common.errors import SimulationError
from repro.core.pipeline import BaselinePipeline
from repro.core.registry_machines import create_pipeline
from repro.api import run as simulate
from repro.isa import registers as regs
from repro.isa.instruction import InstState
from repro.isa.opcodes import OpClass
from repro.workloads import daxpy, fp_compute_bound, pointer_chase
from repro.workloads.builder import TraceBuilder
from repro.workloads.integer import branchy_integer


class TestBasicExecution:
    def test_commits_every_instruction(self, fast_baseline_config, compute_trace):
        result = simulate(fast_baseline_config, compute_trace)
        assert result.committed_instructions == len(compute_trace)
        assert result.cycles > 0
        assert 0 < result.ipc <= 4.0

    def test_ipc_bounded_by_machine_width(self, fast_baseline_config, compute_trace):
        result = simulate(fast_baseline_config, compute_trace)
        assert result.ipc <= fast_baseline_config.core.fetch_width

    def test_single_instruction_trace(self, fast_baseline_config):
        builder = TraceBuilder("one")
        builder.int_op(regs.int_reg(1))
        result = simulate(fast_baseline_config, builder.build())
        assert result.committed_instructions == 1

    def test_serial_chain_is_latency_bound(self, fast_baseline_config):
        chain = fp_compute_bound(iterations=40, chain_length=6)
        result = simulate(fast_baseline_config, chain)
        # The accumulator chain serialises iterations: at least one 2-cycle
        # FP addition per iteration no matter how wide the machine is.
        assert result.cycles >= 40 * 2

    def test_build_pipeline_factory(self, fast_baseline_config, compute_trace):
        pipeline = create_pipeline(fast_baseline_config, compute_trace)
        assert isinstance(pipeline, BaselinePipeline)

    def test_max_cycles_guard(self, fast_baseline_config, small_daxpy_trace):
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        with pytest.raises(SimulationError):
            pipeline.run(max_cycles=3)


class TestWindowScaling:
    def test_bigger_window_tolerates_latency(self):
        trace = daxpy(elements=150)
        small = simulate(scaled_baseline(window=32, memory_latency=300), trace)
        large = simulate(scaled_baseline(window=512, memory_latency=300), trace)
        assert large.ipc > small.ipc * 1.5

    def test_window_bounds_in_flight(self):
        trace = daxpy(elements=150)
        result = simulate(scaled_baseline(window=32, memory_latency=300), trace)
        assert result.stat("rob.occupancy.mean") <= 32

    def test_perfect_l2_removes_memory_penalty(self):
        trace = daxpy(elements=100)
        slow = simulate(scaled_baseline(window=128, memory_latency=1000), trace)
        perfect = simulate(scaled_baseline(window=128, memory_latency=1000, perfect_l2=True), trace)
        assert perfect.ipc > slow.ipc * 2

    def test_memory_latency_hurts_small_window(self):
        trace = daxpy(elements=100)
        fast = simulate(scaled_baseline(window=128, memory_latency=50), trace)
        slow = simulate(scaled_baseline(window=128, memory_latency=800), trace)
        assert fast.ipc > slow.ipc

    def test_pointer_chase_insensitive_to_window(self):
        trace = pointer_chase(hops=60)
        small = simulate(scaled_baseline(window=64, memory_latency=200), trace)
        large = simulate(scaled_baseline(window=1024, memory_latency=200), trace)
        assert large.ipc == pytest.approx(small.ipc, rel=0.1)


class TestMemoryAndStores:
    def test_stores_drain_at_commit(self, fast_baseline_config, small_daxpy_trace):
        result = simulate(fast_baseline_config, small_daxpy_trace)
        assert result.stat("mem.stores") == small_daxpy_trace.count(OpClass.FP_STORE)

    def test_load_misses_counted(self, fast_baseline_config, small_daxpy_trace):
        result = simulate(fast_baseline_config, small_daxpy_trace)
        assert result.stat("mem.loads") > 0
        assert result.l2_load_miss_fraction > 0

    def test_store_forwarding_happens_on_reuse(self, fast_baseline_config):
        builder = TraceBuilder("fwd")
        addr = 0x1000_0000
        builder.fp_add(regs.fp_reg(2))
        builder.store(addr, regs.fp_reg(2))
        builder.load(regs.fp_reg(3), addr)
        builder.branch(taken=False)
        result = simulate(fast_baseline_config, builder.build())
        assert result.stat("lsq.store_forwards") >= 1


class TestBranchesAndExceptions:
    def test_loop_branches_predicted_well(self, fast_baseline_config, small_daxpy_trace):
        result = simulate(fast_baseline_config, small_daxpy_trace)
        assert result.branch_accuracy > 0.9

    def test_random_branches_cause_recoveries(self):
        trace = branchy_integer(iterations=120, taken_probability=0.5)
        result = simulate(scaled_baseline(window=128, memory_latency=100), trace)
        assert result.stat("branch.recoveries") > 10
        assert result.committed_instructions == len(trace)

    def test_mispredictions_cost_cycles(self):
        predictable = branchy_integer(iterations=120, taken_probability=1.0)
        random_branches = branchy_integer(iterations=120, taken_probability=0.5)
        config = scaled_baseline(window=128, memory_latency=100)
        good = simulate(config, predictable)
        bad = simulate(config, random_branches)
        assert good.ipc > bad.ipc

    def test_exception_delivered_at_commit(self, fast_baseline_config):
        builder = TraceBuilder("exc")
        for _ in range(10):
            builder.int_op(regs.int_reg(1), regs.int_reg(2))
        builder.emit(OpClass.INT_ALU, dest=regs.int_reg(3), raises_exception=True)
        for _ in range(10):
            builder.int_op(regs.int_reg(4), regs.int_reg(3))
        builder.branch(taken=False)
        result = simulate(fast_baseline_config, builder.build())
        assert result.stat("exceptions.delivered") == 1
        assert result.committed_instructions == len(builder.build())


class TestAccountingInvariants:
    def test_fetched_at_least_committed(self, fast_baseline_config, small_daxpy_trace):
        result = simulate(fast_baseline_config, small_daxpy_trace)
        assert result.fetched_instructions >= result.committed_instructions

    def test_in_flight_returns_to_zero(self, fast_baseline_config, small_daxpy_trace):
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        pipeline.run()
        assert pipeline.in_flight == 0
        assert pipeline.live == 0
        assert pipeline.rob.is_empty

    def test_all_registers_recoverable(self, fast_baseline_config, small_daxpy_trace):
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        pipeline.run()
        # Every renamed destination was either freed or is the architectural
        # mapping: exactly NUM_LOGICAL_REGS registers stay in use.
        assert pipeline.regfile.in_use_count == regs.NUM_LOGICAL_REGS

    def test_table1_runs(self, compute_trace):
        result = simulate(table1_baseline(memory_latency=100), compute_trace)
        assert result.committed_instructions == len(compute_trace)

    def test_occupancy_statistics_recorded(self, fast_baseline_config, small_daxpy_trace):
        result = simulate(fast_baseline_config, small_daxpy_trace)
        assert result.mean_in_flight > 0
        assert "occupancy.in_flight_dist" in result.stats
