"""Integration tests of the out-of-order-commit (checkpoint + SLIQ) pipeline."""

import pytest

from repro.common.config import cooo_config, scaled_baseline
from repro.core.pipeline import OoOCommitPipeline
from repro.core.registry_machines import create_pipeline
from repro.api import run as simulate
from repro.isa import registers as regs
from repro.isa.instruction import RetireClass
from repro.isa.opcodes import OpClass
from repro.workloads import daxpy, fp_compute_bound, random_gather, single_miss_probe
from repro.workloads.builder import TraceBuilder
from repro.workloads.integer import branchy_integer


class TestBasicExecution:
    def test_commits_every_instruction(self, fast_cooo_config, compute_trace):
        result = simulate(fast_cooo_config, compute_trace)
        assert result.committed_instructions == len(compute_trace)
        assert 0 < result.ipc <= 4.0

    def test_factory_builds_cooo(self, fast_cooo_config, compute_trace):
        assert isinstance(create_pipeline(fast_cooo_config, compute_trace), OoOCommitPipeline)

    def test_memory_bound_trace_completes(self, fast_cooo_config, small_daxpy_trace):
        result = simulate(fast_cooo_config, small_daxpy_trace)
        assert result.committed_instructions == len(small_daxpy_trace)

    def test_single_instruction(self, fast_cooo_config):
        builder = TraceBuilder("one")
        builder.int_op(regs.int_reg(1))
        result = simulate(fast_cooo_config, builder.build())
        assert result.committed_instructions == 1

    def test_stores_drain_exactly_once(self, fast_cooo_config, small_daxpy_trace):
        result = simulate(fast_cooo_config, small_daxpy_trace)
        assert result.stat("mem.stores") == small_daxpy_trace.count(OpClass.FP_STORE)

    def test_sliq_disabled_still_works(self, compute_trace):
        config = cooo_config(iq_size=32, sliq_size=64, memory_latency=50)
        config.sliq.enabled = False
        result = simulate(config, compute_trace)
        assert result.committed_instructions == len(compute_trace)


class TestCheckpointing:
    def test_checkpoints_created_and_committed(self, fast_cooo_config, small_daxpy_trace):
        pipeline = create_pipeline(fast_cooo_config, small_daxpy_trace)
        result = pipeline.run()
        created = result.stat("checkpoint.created")
        committed = result.stat("checkpoint.committed")
        assert created >= len(small_daxpy_trace) / 600
        assert committed >= created - fast_cooo_config.checkpoint.table_size
        assert pipeline.in_flight == 0

    def test_checkpoint_occupancy_bounded_by_table(self, small_daxpy_trace):
        config = cooo_config(iq_size=16, sliq_size=128, checkpoints=4, memory_latency=100)
        pipeline = create_pipeline(config, small_daxpy_trace)
        pipeline.run()
        assert pipeline.checkpoints.occupancy <= 4

    def test_paper_heuristic_spacing(self):
        # A long branch-free region must still be checkpointed every 512
        # instructions (the hard threshold).
        builder = TraceBuilder("flat")
        for i in range(1400):
            builder.fp_add(regs.fp_reg(1 + (i % 4) + 2), regs.fp_reg(0))
        builder.branch(taken=False)
        config = cooo_config(iq_size=64, sliq_size=256, memory_latency=20)
        result = simulate(config, builder.build())
        assert result.checkpoints_created >= 3

    def test_full_checkpoint_table_does_not_deadlock(self, small_daxpy_trace):
        config = cooo_config(iq_size=32, sliq_size=256, checkpoints=2, memory_latency=300)
        result = simulate(config, small_daxpy_trace)
        assert result.committed_instructions == len(small_daxpy_trace)
        assert result.stat("checkpoint.full_stalls") > 0

    def test_more_checkpoints_never_hurt_much(self):
        trace = daxpy(elements=120)
        few = simulate(cooo_config(iq_size=64, sliq_size=512, checkpoints=2, memory_latency=300), trace)
        many = simulate(cooo_config(iq_size=64, sliq_size=512, checkpoints=16, memory_latency=300), trace)
        assert many.ipc >= few.ipc * 0.95


class TestSLIQBehaviour:
    def test_dependents_of_miss_are_moved(self):
        trace = single_miss_probe(dependents=8, padding=40)
        config = cooo_config(iq_size=16, sliq_size=64, memory_latency=400)
        result = simulate(config, trace)
        breakdown = result.pseudo_rob_breakdown()
        assert breakdown.get(RetireClass.MOVED.value, 0) > 0
        assert result.stat("sliq.inserts") >= 1

    def test_no_moves_without_misses(self, compute_trace):
        config = cooo_config(iq_size=16, sliq_size=64, memory_latency=400)
        result = simulate(config, compute_trace)
        assert result.stat("sliq.inserts") == 0

    def test_reinsert_delay_is_second_order(self):
        trace = daxpy(elements=150)
        fast = simulate(cooo_config(iq_size=64, sliq_size=512, memory_latency=500, reinsert_delay=1), trace)
        slow = simulate(cooo_config(iq_size=64, sliq_size=512, memory_latency=500, reinsert_delay=12), trace)
        assert slow.ipc >= fast.ipc * 0.85

    def test_small_iq_with_large_sliq_beats_small_baseline(self):
        trace = daxpy(elements=200)
        cooo = simulate(cooo_config(iq_size=32, sliq_size=512, memory_latency=500), trace)
        baseline = simulate(scaled_baseline(window=32, memory_latency=500), trace)
        assert cooo.ipc > baseline.ipc * 1.5

    def test_sliq_size_matters_for_memory_bound_code(self):
        trace = random_gather(elements=300)
        small = simulate(cooo_config(iq_size=32, sliq_size=64, memory_latency=500), trace)
        large = simulate(cooo_config(iq_size=32, sliq_size=1024, memory_latency=500), trace)
        assert large.ipc >= small.ipc

    def test_in_flight_exceeds_issue_queue_size(self):
        trace = daxpy(elements=300)
        config = cooo_config(iq_size=32, sliq_size=1024, memory_latency=500)
        result = simulate(config, trace)
        assert result.mean_in_flight > 32 * 3

    def test_figure12_categories_sum_to_one(self, small_daxpy_trace):
        config = cooo_config(iq_size=16, sliq_size=128, memory_latency=200)
        result = simulate(config, small_daxpy_trace)
        breakdown = result.pseudo_rob_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown.get(RetireClass.STORE.value, 0) > 0


class TestRecovery:
    def test_mispredicted_branches_recover(self):
        trace = branchy_integer(iterations=120, taken_probability=0.5)
        config = cooo_config(iq_size=32, sliq_size=128, memory_latency=100)
        result = simulate(config, trace)
        assert result.committed_instructions == len(trace)
        total_recoveries = result.stat("branch.pseudo_rob_recoveries") + result.stat(
            "branch.checkpoint_recoveries"
        )
        assert total_recoveries > 10

    def test_checkpoint_rollback_replays_instructions(self):
        # A mispredictable branch stuck behind a long L2 miss leaves the
        # pseudo-ROB before resolving, forcing checkpoint rollbacks.
        trace = branchy_integer(iterations=150, taken_probability=0.5)
        config = cooo_config(iq_size=16, sliq_size=256, checkpoints=4, memory_latency=600)
        result = simulate(config, trace)
        assert result.committed_instructions == len(trace)
        if result.stat("checkpoint.rollbacks") > 0:
            assert result.fetched_instructions > result.committed_instructions

    def test_exception_uses_checkpoint_and_is_precise(self, fast_cooo_config):
        builder = TraceBuilder("exc")
        for i in range(80):
            builder.fp_add(regs.fp_reg(2 + i % 4), regs.fp_reg(0))
        builder.emit(OpClass.INT_ALU, dest=regs.int_reg(3), raises_exception=True)
        for _ in range(20):
            builder.int_op(regs.int_reg(4), regs.int_reg(3))
        builder.branch(taken=False)
        result = simulate(fast_cooo_config, builder.build())
        assert result.stat("exceptions.delivered") == 1
        assert result.stat("exceptions.rollbacks") == 1
        assert result.committed_instructions == len(builder.build())

    def test_register_accounting_survives_recovery(self):
        trace = branchy_integer(iterations=100, taken_probability=0.5)
        config = cooo_config(iq_size=16, sliq_size=128, checkpoints=4, memory_latency=200)
        pipeline = create_pipeline(config, trace)
        pipeline.run()
        assert pipeline.regfile.in_use_count >= regs.NUM_LOGICAL_REGS
        # nothing left in flight
        assert pipeline.in_flight == 0
        assert pipeline.int_queue.occupancy == 0
        assert pipeline.fp_queue.occupancy == 0
        assert pipeline.lsq.occupancy == 0


class TestLateAllocation:
    def test_runs_and_commits(self):
        trace = daxpy(elements=120)
        config = cooo_config(
            iq_size=64,
            sliq_size=512,
            memory_latency=300,
            virtual_tags=256,
            physical_registers=128,
            late_allocation=True,
        )
        result = simulate(config, trace)
        assert result.committed_instructions == len(trace)

    def test_fewer_virtual_tags_bound_the_window(self):
        trace = daxpy(elements=250)
        few = simulate(
            cooo_config(
                iq_size=128, sliq_size=1024, memory_latency=500,
                virtual_tags=128, physical_registers=512, late_allocation=True,
            ),
            trace,
        )
        many = simulate(
            cooo_config(
                iq_size=128, sliq_size=1024, memory_latency=500,
                virtual_tags=1024, physical_registers=512, late_allocation=True,
            ),
            trace,
        )
        assert many.ipc > few.ipc
        assert many.mean_in_flight > few.mean_in_flight

    def test_small_pool_with_large_virtual_window_does_not_deadlock(self):
        """Regression test: when the physical pool is much smaller than the
        virtual window, releases (which need completions) and claims (which
        completions need) could deadlock; the oldest window's reserve claim
        guarantees forward progress."""
        trace = daxpy(elements=200)
        config = cooo_config(
            iq_size=128, sliq_size=2048, memory_latency=500,
            virtual_tags=2048, physical_registers=128, late_allocation=True,
        )
        result = simulate(config, trace)
        assert result.committed_instructions == len(trace)

    def test_late_allocation_claims_bounded_by_pool(self):
        trace = daxpy(elements=120)
        config = cooo_config(
            iq_size=64, sliq_size=512, memory_latency=300,
            virtual_tags=512, physical_registers=256, late_allocation=True,
        )
        pipeline = create_pipeline(config, trace)
        result = pipeline.run()
        assert result.committed_instructions == len(trace)
        assert 0 < result.stat("prf.late_alloc_peak") <= 256


class TestAgainstBaseline:
    def test_cooo_with_small_queues_approaches_big_baseline(self):
        trace = daxpy(elements=300)
        cooo = simulate(cooo_config(iq_size=128, sliq_size=2048, memory_latency=500), trace)
        limit = simulate(scaled_baseline(window=4096, memory_latency=500), trace)
        assert cooo.ipc >= limit.ipc * 0.8

    def test_cooo_beats_equal_sized_baseline(self):
        trace = daxpy(elements=300)
        cooo = simulate(cooo_config(iq_size=64, sliq_size=1024, memory_latency=500), trace)
        baseline = simulate(scaled_baseline(window=64, memory_latency=500), trace)
        assert cooo.ipc > baseline.ipc * 1.5

    def test_compute_bound_code_sees_no_benefit(self):
        trace = fp_compute_bound(iterations=200, chain_length=4)
        cooo = simulate(cooo_config(iq_size=64, sliq_size=512, memory_latency=500), trace)
        baseline = simulate(scaled_baseline(window=64, memory_latency=500), trace)
        assert cooo.ipc == pytest.approx(baseline.ipc, rel=0.15)
