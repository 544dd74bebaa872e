"""Baseline map-table register renaming.

The conventional machine renames through a RAM map table: one entry per
logical register holding the physical register that currently provides its
value.  The previous mapping of the destination travels with the
instruction (``old_phys_dest``) and is freed when the instruction commits,
exactly as in an R10000-style design.

Because the simulator never fetches wrong-path instructions (a predicted-
wrong branch stalls fetch until it resolves), the map table is never
polluted by speculation and needs no shadow copies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.errors import RenameError
from ..common.stats import StatsRegistry
from ..isa import registers as regs
from ..isa.instruction import DynInst
from .regfile import PhysicalRegisterFile


class MapTableRenamer:
    """Logical→physical map table backed by a :class:`PhysicalRegisterFile`."""

    __slots__ = ("regfile", "_map", "_renames")

    def __init__(self, regfile: PhysicalRegisterFile, stats: StatsRegistry) -> None:
        if regfile.num_regs < regs.NUM_LOGICAL_REGS:
            raise RenameError(
                "need at least one physical register per logical register "
                f"({regs.NUM_LOGICAL_REGS}), got {regfile.num_regs}"
            )
        self.regfile = regfile
        self._map: List[int] = []
        self._renames = stats.counter("rename.instructions")
        self.reset()

    def reset(self) -> None:
        """Map every logical register to a fresh, ready physical register."""
        self.regfile.reset()
        self._map = [self.regfile.allocate() for _ in range(regs.NUM_LOGICAL_REGS)]
        self.regfile.mark_all_ready(self._map)

    # -- queries -----------------------------------------------------------
    def mapping(self, logical: int) -> int:
        """Current physical register of ``logical``."""
        return self._map[logical]

    def can_rename(self, inst: DynInst) -> bool:
        """True if a free destination register is available (or none is needed)."""
        return inst.instr.dest is None or self.regfile.has_free()

    # -- renaming ------------------------------------------------------------
    def rename(self, inst: DynInst) -> Tuple[List[int], Optional[int], Optional[int]]:
        """Rename ``inst`` in place and return (srcs, dest, old_dest).

        The caller must have checked :meth:`can_rename`.
        """
        instr = inst.instr
        phys_srcs = [self._map[src] for src in instr.srcs]
        phys_dest: Optional[int] = None
        old_phys_dest: Optional[int] = None
        dest = instr.dest
        if dest is not None:
            phys_dest = self.regfile.allocate()
            old_phys_dest = self._map[dest]
            self._map[dest] = phys_dest
        inst.phys_srcs = phys_srcs
        inst.phys_dest = phys_dest
        inst.old_phys_dest = old_phys_dest
        self._renames.value += 1
        return phys_srcs, phys_dest, old_phys_dest

    # -- commit-time release ----------------------------------------------------
    def release_on_commit(self, inst: DynInst) -> None:
        """Free the previous mapping of the committing instruction's destination."""
        if inst.old_phys_dest is not None:
            self.regfile.free(inst.old_phys_dest)

    # -- squash-time undo --------------------------------------------------------
    def undo_rename(self, inst: DynInst) -> None:
        """Reverse the renaming of a squashed instruction.

        Must be called in reverse program order (youngest first) so that
        the map table currently points at this instruction's destination.
        """
        if inst.phys_dest is None:
            return
        dest = inst.instr.dest
        if dest is None or inst.old_phys_dest is None:
            raise RenameError(f"cannot undo rename of seq={inst.seq}: missing old mapping")
        if self._map[dest] != inst.phys_dest:
            raise RenameError(
                f"undo out of order: {regs.reg_name(dest)} maps to "
                f"{self._map[dest]}, expected {inst.phys_dest}"
            )
        self._map[dest] = inst.old_phys_dest
        self.regfile.free(inst.phys_dest)
