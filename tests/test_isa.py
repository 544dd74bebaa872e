"""Tests for the ISA layer: registers, operation classes, instructions."""

import pytest

from repro.common.config import FunctionalUnitConfig
from repro.isa import registers as regs
from repro.isa.instruction import DynInst, InstState, Instruction, RetireClass, nop
from repro.isa.opcodes import (
    FUType,
    OpClass,
    execution_latency,
    is_branch,
    is_fp,
    is_load,
    is_memory,
    is_pipelined,
    is_store,
)


class TestRegisters:
    def test_int_and_fp_spaces_are_disjoint(self):
        assert set(regs.all_int_regs()).isdisjoint(regs.all_fp_regs())

    def test_total_count(self):
        assert regs.NUM_LOGICAL_REGS == 64
        assert len(regs.all_int_regs()) == 32
        assert len(regs.all_fp_regs()) == 32

    def test_fp_reg_offsets(self):
        assert regs.fp_reg(0) == 32
        assert regs.fp_reg(31) == 63

    def test_is_fp(self):
        assert not regs.is_fp(regs.int_reg(5))
        assert regs.is_fp(regs.fp_reg(5))

    def test_names_roundtrip(self):
        for reg in (regs.int_reg(0), regs.int_reg(31), regs.fp_reg(0), regs.fp_reg(17)):
            assert regs.parse_reg(regs.reg_name(reg)) == reg

    def test_reg_name_format(self):
        assert regs.reg_name(regs.int_reg(3)) == "r3"
        assert regs.reg_name(regs.fp_reg(3)) == "f3"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            regs.int_reg(32)
        with pytest.raises(ValueError):
            regs.fp_reg(-1)
        with pytest.raises(ValueError):
            regs.reg_name(64)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            regs.parse_reg("x7")

    def test_validate_regs(self):
        regs.validate_regs([0, 63])
        with pytest.raises(ValueError):
            regs.validate_regs([64])


class TestOpClassification:
    def test_loads(self):
        assert is_load(OpClass.LOAD)
        assert is_load(OpClass.FP_LOAD)
        assert not is_load(OpClass.STORE)

    def test_stores(self):
        assert is_store(OpClass.STORE)
        assert is_store(OpClass.FP_STORE)
        assert not is_store(OpClass.FP_LOAD)

    def test_memory(self):
        assert is_memory(OpClass.LOAD)
        assert is_memory(OpClass.FP_STORE)
        assert not is_memory(OpClass.FP_MUL)

    def test_branch(self):
        assert is_branch(OpClass.BRANCH)
        assert not is_branch(OpClass.INT_ALU)

    def test_fp_steering(self):
        assert is_fp(OpClass.FP_ALU)
        assert is_fp(OpClass.FP_LOAD)
        assert not is_fp(OpClass.LOAD)
        assert not is_fp(OpClass.BRANCH)

    def test_latencies_match_table1(self):
        fu = FunctionalUnitConfig()
        assert execution_latency(OpClass.INT_ALU, fu) == 1
        assert execution_latency(OpClass.INT_MUL, fu) == 3
        assert execution_latency(OpClass.INT_DIV, fu) == 20
        assert execution_latency(OpClass.FP_ALU, fu) == 2
        assert execution_latency(OpClass.BRANCH, fu) == 1

    def test_divides_are_unpipelined(self):
        assert not is_pipelined(OpClass.INT_DIV)
        assert not is_pipelined(OpClass.FP_DIV)
        assert is_pipelined(OpClass.FP_MUL)


class TestInstruction:
    def test_simple_alu(self):
        instr = Instruction(pc=0x1000, op=OpClass.INT_ALU, dest=1, srcs=(2, 3))
        assert instr.writes_register
        assert not instr.is_memory

    def test_memory_instruction_requires_address(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, op=OpClass.LOAD, dest=1)

    def test_store_must_not_write_register(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, op=OpClass.STORE, dest=1, srcs=(2,), mem_addr=0x10)

    def test_taken_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, op=OpClass.BRANCH, branch_taken=True)

    def test_not_taken_branch_without_target_ok(self):
        instr = Instruction(pc=0, op=OpClass.BRANCH, branch_taken=False)
        assert instr.is_branch

    def test_invalid_register_rejected(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, op=OpClass.INT_ALU, dest=99)

    @pytest.mark.parametrize("srcs, bad", [((3, 64), 64), ((-1,), -1)])
    def test_invalid_source_register_rejected(self, srcs, bad):
        with pytest.raises(ValueError, match=f"^invalid logical register id {bad}$"):
            Instruction(pc=0, op=OpClass.INT_ALU, dest=1, srcs=srcs)

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.value)
    def test_flags_match_opcode_predicates(self, op):
        instr = Instruction(pc=0, op=op, mem_addr=0x40)
        assert (instr.is_load, instr.is_store, instr.is_memory, instr.is_branch, instr.is_fp) == (
            is_load(op), is_store(op), is_memory(op), is_branch(op), is_fp(op)
        )

    def test_describe_contains_operands(self):
        instr = Instruction(pc=0, op=OpClass.FP_ALU, dest=regs.fp_reg(1), srcs=(regs.fp_reg(2),))
        text = instr.describe()
        assert "f1" in text and "f2" in text

    def test_nop_helper(self):
        assert nop().op is OpClass.NOP


class TestDynInst:
    def _dyn(self, **kwargs):
        instr = Instruction(pc=0x4, op=OpClass.FP_ALU, dest=regs.fp_reg(1), srcs=(regs.fp_reg(2),))
        return DynInst(seq=7, trace_index=3, instr=instr, **kwargs)

    def test_initial_state(self):
        inst = self._dyn()
        assert inst.state is InstState.FETCHED
        assert not inst.completed
        assert not inst.squashed

    def test_property_passthrough(self):
        inst = self._dyn()
        assert inst.op is OpClass.FP_ALU
        assert inst.dest == regs.fp_reg(1)
        assert inst.srcs == (regs.fp_reg(2),)
        assert not inst.is_memory

    def test_mark_squashed(self):
        inst = self._dyn()
        inst.mark_squashed()
        assert inst.squashed
        # idempotent
        inst.mark_squashed()
        assert inst.state is InstState.SQUASHED

    def test_cannot_squash_committed(self):
        inst = self._dyn()
        inst.state = InstState.COMMITTED
        with pytest.raises(ValueError):
            inst.mark_squashed()

    def test_identity_semantics(self):
        first = self._dyn()
        second = self._dyn()
        assert first != second
        assert len({first, second}) == 2

    def test_retire_classes_cover_figure12(self):
        names = {rc.value for rc in RetireClass}
        assert names == {
            "moved",
            "finished",
            "short_latency",
            "finished_load",
            "long_latency_load",
            "store",
        }
