"""CAM-style register renaming with Future Free bits (paper Section 2).

The out-of-order-commit machine has no ROB, so the renamer itself carries
the information needed to (a) free physical registers when a checkpoint
commits and (b) restore the mapping when execution rolls back to a
checkpoint.  Per physical register the hardware keeps:

* the logical register it is mapped to (the CAM field),
* a **Valid** bit — this physical register holds the *current* mapping,
* a **Future Free** bit — this register was displaced by a younger
  redefinition and must be freed once the displacing window commits.

A checkpoint snapshots the Valid bits (plus the logical fields, which the
paper notes do not change while a register is live) and harvests the
accumulated Future Free bits; see :class:`RenameSnapshot`.

For simulation convenience the class also maintains the derived
logical→physical direct map, which is what the CAM lookup would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import RenameError
from ..common.stats import StatsRegistry
from ..isa import registers as regs
from ..isa.instruction import DynInst
from .regfile import PhysicalRegisterFile


@dataclass(slots=True)
class RenameSnapshot:
    """State captured when a checkpoint is created.

    ``valid`` and ``mapping`` restore the architectural register mapping on
    rollback; the free list is not stored but *reconstructed* (a register
    is free iff it is neither valid in the snapshot nor reserved by an
    older, still uncommitted checkpoint's pending-free set).
    """

    valid: List[bool]
    mapping: List[int]

    def mapped_registers(self) -> Set[int]:
        """The set of physical registers that were valid at snapshot time."""
        return {phys for phys, is_valid in enumerate(self.valid) if is_valid}


class CAMRenamer:
    """The checkpointed CAM renaming mechanism of Figures 3–6."""

    __slots__ = (
        "regfile",
        "_num_regs",
        "_logical_of",
        "_valid",
        "_future_free",
        "_map",
        "_renames",
        "_checkpoint_restores",
    )

    def __init__(self, regfile: PhysicalRegisterFile, stats: StatsRegistry) -> None:
        if regfile.num_regs < regs.NUM_LOGICAL_REGS:
            raise RenameError(
                "need at least one physical register per logical register "
                f"({regs.NUM_LOGICAL_REGS}), got {regfile.num_regs}"
            )
        self.regfile = regfile
        self._num_regs = regfile.num_regs
        self._logical_of: List[Optional[int]] = [None] * self._num_regs
        self._valid: List[bool] = [False] * self._num_regs
        self._future_free: List[bool] = [False] * self._num_regs
        self._map: List[int] = []
        self._renames = stats.counter("rename.instructions")
        self._checkpoint_restores = stats.counter("rename.rollback_restores")
        self.reset()

    # -- initialisation ----------------------------------------------------------
    def reset(self) -> None:
        """Install the initial architectural mapping (all registers ready)."""
        self.regfile.reset()
        self._logical_of = [None] * self._num_regs
        self._valid = [False] * self._num_regs
        self._future_free = [False] * self._num_regs
        self._map = []
        for logical in range(regs.NUM_LOGICAL_REGS):
            phys = self.regfile.allocate()
            self._map.append(phys)
            self._logical_of[phys] = logical
            self._valid[phys] = True
        self.regfile.mark_all_ready(self._map)

    # -- queries ------------------------------------------------------------------
    def mapping(self, logical: int) -> int:
        """Physical register currently providing ``logical``."""
        return self._map[logical]

    def valid_bits(self) -> List[bool]:
        return list(self._valid)

    def future_free_bits(self) -> List[bool]:
        return list(self._future_free)

    def logical_of(self, phys: int) -> Optional[int]:
        return self._logical_of[phys]

    def can_rename(self, inst: DynInst) -> bool:
        """True if a free destination register is available (or none is needed)."""
        return inst.instr.dest is None or self.regfile.has_free()

    # -- renaming -------------------------------------------------------------------
    def rename(self, inst: DynInst) -> Tuple[List[int], Optional[int], Optional[int]]:
        """Rename ``inst`` in place, maintaining Valid and Future Free bits."""
        instr = inst.instr
        phys_srcs = [self._map[src] for src in instr.srcs]
        phys_dest: Optional[int] = None
        old_phys_dest: Optional[int] = None
        dest = instr.dest
        if dest is not None:
            phys_dest = self.regfile.allocate()
            old_phys_dest = self._map[dest]
            # Displace the previous mapping: it is no longer valid and must
            # be freed when the window containing this instruction commits.
            self._valid[old_phys_dest] = False
            self._future_free[old_phys_dest] = True
            self._valid[phys_dest] = True
            self._logical_of[phys_dest] = dest
            self._map[dest] = phys_dest
        inst.phys_srcs = phys_srcs
        inst.phys_dest = phys_dest
        inst.old_phys_dest = old_phys_dest
        self._renames.value += 1
        return phys_srcs, phys_dest, old_phys_dest

    # -- squash-time undo --------------------------------------------------------------
    def undo_rename(self, inst: DynInst) -> None:
        """Reverse the renaming of a squashed instruction.

        Used by pseudo-ROB (walk-based) misprediction recovery, in reverse
        program order: the new physical register is returned to the free
        list and the displaced mapping becomes valid again.  The caller is
        responsible for removing the displaced register from any
        checkpoint's pending-free set it may have been harvested into.
        """
        if inst.phys_dest is None:
            return
        dest = inst.instr.dest
        if dest is None or inst.old_phys_dest is None:
            raise RenameError(f"cannot undo rename of seq={inst.seq}: missing old mapping")
        new, old = inst.phys_dest, inst.old_phys_dest
        if self._map[dest] != new:
            raise RenameError(
                f"undo out of order: {regs.reg_name(dest)} maps to "
                f"{self._map[dest]}, expected {new}"
            )
        self._valid[new] = False
        self._future_free[new] = False
        self._logical_of[new] = None
        self.regfile.free(new)
        self._valid[old] = True
        self._future_free[old] = False
        self._logical_of[old] = dest
        self._map[dest] = old

    # -- checkpoint interface ----------------------------------------------------------
    def take_snapshot(self) -> RenameSnapshot:
        """Capture the Valid bits and the mapping for a new checkpoint."""
        return RenameSnapshot(valid=list(self._valid), mapping=list(self._map))

    def harvest_future_free(self) -> Set[int]:
        """Return and clear the accumulated Future Free registers.

        Called when a new checkpoint is taken: the harvested set belongs to
        the window that just closed and is freed when that window's
        checkpoint commits.
        """
        harvested = {phys for phys in range(self._num_regs) if self._future_free[phys]}
        for phys in harvested:
            self._future_free[phys] = False
        return harvested

    def free_registers(self, registers: Set[int]) -> None:
        """Free a committed window's displaced registers."""
        for phys in registers:
            if self._valid[phys]:
                raise RenameError(f"register {phys} is still valid; refusing to free it")
            self._logical_of[phys] = None
            self.regfile.free(phys)

    def restore(self, snapshot: RenameSnapshot, reserved: Set[int]) -> None:
        """Roll the mapping back to ``snapshot``.

        ``reserved`` is the union of the pending-free sets of all *older*,
        still uncommitted checkpoints: those registers hold values that an
        even older rollback might need, so they must not return to the
        free list.  Everything else that is not valid in the snapshot is
        free again (this reconstructs the Free List rather than storing it,
        see DESIGN.md).
        """
        self._valid = list(snapshot.valid)
        self._map = list(snapshot.mapping)
        self._future_free = [False] * self._num_regs
        for logical, phys in enumerate(self._map):
            self._logical_of[phys] = logical
        valid_set = snapshot.mapped_registers()
        free_regs = {
            phys
            for phys in range(self._num_regs)
            if phys not in valid_set and phys not in reserved
        }
        ready_regs = [self.regfile.is_ready(phys) for phys in range(self._num_regs)]
        self.regfile.set_free_set(free_regs)
        # Registers that survive the rollback keep the ready state they had
        # before it: producers older than the checkpoint are not squashed,
        # so a still-executing producer must stay not-ready.
        for phys in valid_set | set(reserved):
            if ready_regs[phys]:
                self.regfile.set_ready(phys)
        self._checkpoint_restores.value += 1

    # -- invariants (used by property-based tests) ------------------------------------------
    def check_invariants(self, reserved: Set[int] = frozenset()) -> None:
        """Raise :class:`RenameError` if the renaming state is inconsistent."""
        mapped = set()
        for logical in range(regs.NUM_LOGICAL_REGS):
            phys = self._map[logical]
            if not self._valid[phys]:
                raise RenameError(f"mapping of {regs.reg_name(logical)} points at invalid {phys}")
            if self._logical_of[phys] != logical:
                raise RenameError(
                    f"CAM field of physical {phys} is {self._logical_of[phys]}, "
                    f"expected {logical}"
                )
            if phys in mapped:
                raise RenameError(f"physical register {phys} mapped to two logical registers")
            mapped.add(phys)
        for phys in range(self._num_regs):
            states = [
                self._valid[phys],
                self._future_free[phys] or phys in reserved,
                self.regfile.is_free(phys),
            ]
            if sum(bool(s) for s in states) == 0:
                raise RenameError(f"physical register {phys} leaked (not valid/pending/free)")
            if self._valid[phys] and self.regfile.is_free(phys):
                raise RenameError(f"physical register {phys} is both valid and free")
