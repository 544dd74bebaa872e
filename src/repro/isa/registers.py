"""Logical (architectural) register namespace.

The simulator models a RISC-like ISA with 32 integer and 32 floating
point architectural registers.  A logical register is represented as a
plain ``int`` in ``[0, 64)``: indices ``0..31`` are the integer registers
``r0..r31`` and indices ``32..63`` are the floating-point registers
``f0..f31``.  Using bare ints keeps the renaming hot path cheap.
"""

from __future__ import annotations

from typing import Iterable, List

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_LOGICAL_REGS = NUM_INT_REGS + NUM_FP_REGS

FP_BASE = NUM_INT_REGS


def int_reg(index: int) -> int:
    """Logical id of integer register ``r<index>``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> int:
    """Logical id of floating-point register ``f<index>``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return FP_BASE + index


def is_fp(reg: int) -> bool:
    """True if the logical register id belongs to the FP register file."""
    return reg >= FP_BASE


def is_valid(reg: int) -> bool:
    """True if ``reg`` is a legal logical register id."""
    return 0 <= reg < NUM_LOGICAL_REGS


def reg_name(reg: int) -> str:
    """Human readable name (``r7``, ``f3``)."""
    if not is_valid(reg):
        raise ValueError(f"invalid logical register id {reg}")
    if is_fp(reg):
        return f"f{reg - FP_BASE}"
    return f"r{reg}"


def parse_reg(name: str) -> int:
    """Inverse of :func:`reg_name`."""
    name = name.strip().lower()
    if len(name) < 2 or name[0] not in ("r", "f"):
        raise ValueError(f"cannot parse register name {name!r}")
    index = int(name[1:])
    return fp_reg(index) if name[0] == "f" else int_reg(index)


def all_int_regs() -> List[int]:
    """All integer logical register ids."""
    return list(range(NUM_INT_REGS))


def all_fp_regs() -> List[int]:
    """All floating-point logical register ids."""
    return list(range(FP_BASE, FP_BASE + NUM_FP_REGS))


def validate_regs(regs: Iterable[int]) -> None:
    """Raise ``ValueError`` if any id in ``regs`` is out of range."""
    for reg in regs:
        if not is_valid(reg):
            raise ValueError(f"invalid logical register id {reg}")
