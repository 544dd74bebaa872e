"""A tiny assembler-like helper for constructing execution traces.

Workload generators use :class:`TraceBuilder` to emit dynamic instruction
streams without having to spell out :class:`Instruction` constructor
arguments everywhere.  The builder tracks the program counter, checks
register operands and records the kernel label on every instruction.

Generated traces are unrolled loops, so most records repeat an earlier
one exactly: only memory addresses and branch outcomes vary from one
iteration to the next.  ``Instruction`` is frozen, so the builder interns
its records: the first emission of a record builds (and validates) the
instance, and every repeat appends that same object.  A generated trace
is therefore the same object graph as one read back by
:func:`repro.trace.io.load_trace`, which shares instances the same way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..isa import registers
from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass
from ..trace.trace import Trace

#: Size in bytes of one "instruction" for pc bookkeeping purposes.
INSTRUCTION_BYTES = 4


class TraceBuilder:
    """Accumulates instructions and produces a :class:`Trace`."""

    def __init__(self, name: str = "kernel", start_pc: int = 0x1000) -> None:
        self.name = name
        self._pc = start_pc
        self._instructions: List[Instruction] = []
        #: Every record emitted so far (all fields but the label, which is
        #: ``name`` throughout) -> the one instance built for it.
        self._interned: Dict[Tuple[Any, ...], Instruction] = {}

    # -- low-level emission ------------------------------------------------
    def emit(
        self,
        op: OpClass,
        dest: Optional[int] = None,
        srcs: Sequence[int] = (),
        mem_addr: Optional[int] = None,
        mem_size: int = 8,
        branch_taken: bool = False,
        branch_target: Optional[int] = None,
        raises_exception: bool = False,
        pc: Optional[int] = None,
    ) -> Instruction:
        """Append one instruction and return it.

        A record equal to an earlier one returns (and appends) the
        instance built for that one.
        """
        at = self._pc if pc is None else pc
        srcs = tuple(srcs)
        key = (
            at, op, dest, srcs, mem_addr, mem_size, branch_taken, branch_target, raises_exception,
        )
        instr = self._interned.get(key)
        if instr is None:
            instr = self._interned[key] = Instruction(
                pc=at,
                op=op,
                dest=dest,
                srcs=srcs,
                mem_addr=mem_addr,
                mem_size=mem_size,
                branch_taken=branch_taken,
                branch_target=branch_target,
                raises_exception=raises_exception,
                label=self.name,
            )
        self._instructions.append(instr)
        if pc is None:
            self._pc += INSTRUCTION_BYTES
        return instr

    # -- arithmetic ---------------------------------------------------------
    def int_op(self, dest: int, *srcs: int) -> Instruction:
        """Integer ALU operation (add/sub/logic)."""
        return self.emit(OpClass.INT_ALU, dest=dest, srcs=srcs)

    def int_mul(self, dest: int, *srcs: int) -> Instruction:
        return self.emit(OpClass.INT_MUL, dest=dest, srcs=srcs)

    def int_div(self, dest: int, *srcs: int) -> Instruction:
        return self.emit(OpClass.INT_DIV, dest=dest, srcs=srcs)

    def fp_add(self, dest: int, *srcs: int) -> Instruction:
        return self.emit(OpClass.FP_ALU, dest=dest, srcs=srcs)

    def fp_mul(self, dest: int, *srcs: int) -> Instruction:
        return self.emit(OpClass.FP_MUL, dest=dest, srcs=srcs)

    def fp_div(self, dest: int, *srcs: int) -> Instruction:
        return self.emit(OpClass.FP_DIV, dest=dest, srcs=srcs)

    # -- memory ---------------------------------------------------------------
    def load(self, dest: int, addr: int, addr_reg: Optional[int] = None) -> Instruction:
        """Load into an integer or FP register depending on ``dest``."""
        op = OpClass.FP_LOAD if registers.is_fp(dest) else OpClass.LOAD
        srcs = (addr_reg,) if addr_reg is not None else ()
        return self.emit(op, dest=dest, srcs=srcs, mem_addr=addr)

    def store(self, addr: int, src: int, addr_reg: Optional[int] = None) -> Instruction:
        """Store ``src`` to ``addr``; FP stores are steered to the FP queue."""
        op = OpClass.FP_STORE if registers.is_fp(src) else OpClass.STORE
        srcs = (src,) if addr_reg is None else (src, addr_reg)
        return self.emit(op, srcs=srcs, mem_addr=addr)

    # -- control flow -----------------------------------------------------------
    def branch(
        self,
        taken: bool,
        target: Optional[int] = None,
        srcs: Sequence[int] = (),
    ) -> Instruction:
        """A conditional branch; ``target`` defaults to an earlier pc when taken."""
        branch_target = target
        if taken and branch_target is None:
            branch_target = max(0x1000, self._pc - 16 * INSTRUCTION_BYTES)
        return self.emit(
            OpClass.BRANCH,
            srcs=tuple(srcs),
            branch_taken=taken,
            branch_target=branch_target,
        )

    def nop(self) -> Instruction:
        return self.emit(OpClass.NOP)

    # -- finalisation -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    @property
    def pc(self) -> int:
        """The pc that the next emitted instruction will carry."""
        return self._pc

    def set_pc(self, pc: int) -> None:
        """Force the next emission pc (used when modelling loop back-edges)."""
        self._pc = pc

    def build(self) -> Trace:
        """Produce the immutable trace."""
        return Trace(self._instructions, name=self.name)
