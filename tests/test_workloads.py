"""Tests for the synthetic workload generators and suites."""

import pytest

from repro.isa.opcodes import OpClass
from repro.workloads import (
    INTEGER_LIKE,
    SPEC2000FP_LIKE,
    blocked_daxpy,
    branchy_integer,
    daxpy,
    fp_compute_bound,
    get_suite,
    matvec,
    mixed_int_fp,
    pointer_chase,
    random_gather,
    reduction,
    single_miss_probe,
    spec2000fp_like,
    stencil3,
    stream_triad,
)
from repro.workloads.builder import TraceBuilder
from repro.workloads.registry import get_suite, get_workload, suite_names, workload_names


class TestNumericalKernels:
    def test_daxpy_structure(self):
        trace = daxpy(elements=32)
        # 3 setup + 7 per element
        assert len(trace) == 3 + 7 * 32
        assert trace.count(OpClass.FP_LOAD) == 64
        assert trace.count(OpClass.FP_STORE) == 32
        assert trace.count(OpClass.BRANCH) == 32

    def test_daxpy_loop_branches_share_pc(self):
        trace = daxpy(elements=16)
        branch_pcs = {i.pc for i in trace if i.is_branch}
        assert len(branch_pcs) == 1

    def test_daxpy_last_branch_not_taken(self):
        trace = daxpy(elements=8)
        branches = [i for i in trace if i.is_branch]
        assert all(b.branch_taken for b in branches[:-1])
        assert not branches[-1].branch_taken

    def test_daxpy_is_streaming(self):
        trace = daxpy(elements=64)
        addrs = [i.mem_addr for i in trace if i.op is OpClass.FP_LOAD]
        assert len(set(addrs)) == len(addrs)  # never revisits an element

    def test_triad_uses_three_arrays(self):
        trace = stream_triad(elements=16)
        bases = {i.mem_addr & 0xF000_0000 for i in trace if i.mem_addr is not None}
        assert len(bases) == 3

    def test_reduction_is_serial(self):
        trace = reduction(elements=16)
        adds = [i for i in trace if i.op is OpClass.FP_ALU and i.srcs]
        # every accumulation reads its own destination register
        assert all(a.dest in a.srcs for a in adds)

    def test_stencil_reuses_lines(self):
        trace = stencil3(elements=64)
        loads = [i for i in trace if i.is_load]
        assert trace.unique_lines(64) < len(loads)

    def test_matvec_size(self):
        trace = matvec(rows=4, cols=8)
        assert trace.count(OpClass.BRANCH) == 4 * 8 + 4

    def test_gather_is_deterministic(self):
        assert random_gather(elements=32, seed=3).to_jsonl() == random_gather(
            elements=32, seed=3
        ).to_jsonl()

    def test_gather_seeds_differ(self):
        a = random_gather(elements=32, seed=1)
        b = random_gather(elements=32, seed=2)
        assert a.to_jsonl() != b.to_jsonl()

    def test_gather_has_large_footprint(self):
        trace = random_gather(elements=128, table_elements=1 << 20)
        assert trace.footprint_bytes() > 128 * 64 // 2

    def test_blocked_daxpy_revisits_lines(self):
        trace = blocked_daxpy(elements=64, block_elements=32, passes=2)
        loads = [i for i in trace if i.is_load]
        assert trace.unique_lines(64) < len(loads) // 2

    def test_fp_compute_has_no_memory(self):
        trace = fp_compute_bound(iterations=32)
        assert trace.load_fraction() == 0.0
        assert trace.store_fraction() == 0.0

    def test_single_miss_probe_shape(self):
        trace = single_miss_probe(dependents=5, padding=10)
        assert trace[0].is_load
        assert trace.count(OpClass.FP_ALU) == 5
        assert trace.count(OpClass.INT_ALU) == 10


class TestIntegerKernels:
    def test_pointer_chase_is_serial(self):
        trace = pointer_chase(hops=16, work_per_hop=1)
        loads = [i for i in trace if i.is_load]
        assert len(loads) == 16
        # every load's address register is its own destination (serial chain)
        assert all(l.srcs and l.srcs[0] == l.dest for l in loads)

    def test_branchy_integer_mispredictable(self):
        trace = branchy_integer(iterations=200, taken_probability=0.5, seed=1)
        inner = [i for i in trace if i.is_branch and not i.srcs == ()][0::2]
        taken = sum(1 for i in trace if i.is_branch and i.branch_taken)
        total = trace.count(OpClass.BRANCH)
        assert 0.4 < taken / total < 0.9

    def test_mixed_kernel_has_both_classes(self):
        trace = mixed_int_fp(iterations=32)
        assert trace.count(OpClass.INT_MUL) > 0
        assert trace.count(OpClass.FP_MUL) > 0


class TestNewIntegerKernels:
    def test_multi_chase_round_robins_chains(self):
        from repro.workloads import multi_pointer_chase

        trace = multi_pointer_chase(hops=12, chains=3)
        loads = [i for i in trace if i.is_load]
        assert len({l.dest for l in loads}) == 3
        # each chain is serial: a chain's load addresses its own pointer
        assert all(l.srcs == (l.dest,) for l in loads)

    def test_multi_chase_rejects_out_of_range_chains(self):
        from repro.workloads import multi_pointer_chase

        with pytest.raises(ValueError):
            multi_pointer_chase(hops=8, chains=0)
        with pytest.raises(ValueError):
            multi_pointer_chase(hops=8, chains=13)

    def test_dense_branches_density(self):
        from repro.workloads import dense_branches

        trace = dense_branches(iterations=50, branches_per_iteration=3)
        assert trace.branch_fraction() > 0.6

    def test_dense_branches_rejects_zero_branches(self):
        from repro.workloads import dense_branches

        with pytest.raises(ValueError):
            dense_branches(iterations=8, branches_per_iteration=0)


class TestSuites:
    def test_spec_suite_membership(self):
        traces = spec2000fp_like(scale=0.1)
        assert set(traces) == {
            "daxpy",
            "triad",
            "stencil3",
            "reduction",
            "gather",
            "matvec",
            "blocked",
            "fp_compute",
        }

    def test_scale_changes_size(self):
        small = spec2000fp_like(scale=0.1)
        large = spec2000fp_like(scale=0.3)
        assert all(len(large[name]) > len(small[name]) for name in small)

    def test_suite_lookup(self):
        assert get_suite("spec2000fp_like") is SPEC2000FP_LIKE
        assert get_suite("integer_like") is INTEGER_LIKE
        with pytest.raises(KeyError):
            get_suite("spec2017")

    def test_suite_names(self):
        assert SPEC2000FP_LIKE.names()[0] == "daxpy"
        assert len(INTEGER_LIKE) == 3

    def test_members_are_mostly_fp(self):
        traces = spec2000fp_like(scale=0.1)
        fp_heavy = 0
        for trace in traces.values():
            mix = trace.mix()
            fp_ops = sum(count for op, count in mix.items() if op.startswith("fp"))
            if fp_ops / len(trace) > 0.3:
                fp_heavy += 1
        assert fp_heavy >= 6

    def test_empty_suite_rejected(self):
        from repro.workloads.suite import Suite

        with pytest.raises(ValueError):
            Suite("empty", [])


class TestInterning:
    #: A load emitted at an explicit pc, and one changed value per key field.
    RECORD = dict(
        op=OpClass.LOAD, dest=1, srcs=(2,), mem_addr=0x100, mem_size=8,
        branch_taken=False, branch_target=None, raises_exception=False, pc=0x2000,
    )
    CHANGED = dict(
        op=OpClass.FP_LOAD, dest=3, srcs=(4,), mem_addr=0x108, mem_size=4,
        branch_taken=True, branch_target=0x1000, raises_exception=True, pc=0x2004,
    )

    @pytest.mark.parametrize("name", workload_names())
    def test_registered_trace_holds_one_object_per_record(self, name):
        trace = get_workload(name).build(scale=0.05)
        assert len({id(instr) for instr in trace}) == len(set(trace)) < len(trace)

    @pytest.mark.parametrize("suite", suite_names())
    def test_registered_suite_members_hold_one_object_per_record(self, suite):
        # Scenario members relabel and join their phase pieces; both steps
        # must keep the sharing the builder gives every piece.
        for name, trace in get_suite(suite).build(0.05).items():
            assert len({id(instr) for instr in trace}) == len(set(trace)), name

    def test_repeated_record_is_shared(self):
        builder = TraceBuilder("k")
        first = builder.emit(**self.RECORD)
        assert builder.emit(**self.RECORD) is first
        # A repeat at the running pc still advances it.
        builder.set_pc(0x1000)
        alu = builder.int_op(1, 2)
        builder.set_pc(0x1000)
        assert builder.int_op(1, 2) is alu
        assert builder.pc == 0x1004
        trace = builder.build()
        assert len(trace) == 4 and trace[0] is trace[1] and trace[2] is trace[3]

    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_any_changed_field_builds_a_new_record(self, field):
        builder = TraceBuilder("k")
        first = builder.emit(**self.RECORD)
        other = builder.emit(**{**self.RECORD, field: self.CHANGED[field]})
        assert other is not first
        assert getattr(other, field) == self.CHANGED[field]
