"""Checkpoints, the checkpoint table and checkpoint-taking policies.

This module is the heart of the paper's Out-of-Order Commit mechanism.
Instructions are associated with the youngest checkpoint at the time they
are renamed; each checkpoint counts its pending (not yet executed)
instructions and commits — in checkpoint order — once that count reaches
zero.  Committing a checkpoint drains its stores to memory and frees the
physical registers displaced during its window (the harvested Future Free
bits).  Rolling back to a checkpoint discards every younger instruction
and restores the rename snapshot taken when the checkpoint was created.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set

from ..common.config import CheckpointConfig
from ..common.errors import CheckpointError
from ..common.stats import StatsRegistry
from ..isa.instruction import DynInst
from .cam_rename import RenameSnapshot


class Checkpoint:
    """One entry of the checkpoint table."""

    __slots__ = (
        "uid",
        "resume_index",
        "resume_seq",
        "snapshot",
        "pending_count",
        "instruction_count",
        "store_count",
        "to_free",
        "stores",
        "instructions",
        "closed",
        "created_cycle",
        "history",
    )

    def __init__(
        self,
        uid: int,
        resume_index: int,
        resume_seq: int,
        snapshot: RenameSnapshot,
        created_cycle: int,
        history: Optional[int] = None,
    ) -> None:
        self.uid = uid
        self.resume_index = resume_index
        self.resume_seq = resume_seq
        self.snapshot = snapshot
        #: Branch-history register as of fetching the checkpointed
        #: instruction; restored on rollback so re-execution re-predicts
        #: under the state it was originally fetched with.
        self.history = history
        self.pending_count = 0
        self.instruction_count = 0
        self.store_count = 0
        self.to_free: Set[int] = set()
        self.stores: List[DynInst] = []
        self.instructions: List[DynInst] = []
        self.closed = False
        self.created_cycle = created_cycle

    # -- association ---------------------------------------------------------
    def associate(self, inst: DynInst) -> None:
        """Attach a newly dispatched instruction to this (youngest) checkpoint."""
        if self.closed:
            raise CheckpointError(f"cannot associate with closed checkpoint {self.uid}")
        inst.checkpoint_id = self.uid
        self.pending_count += 1
        self.instruction_count += 1
        self.instructions.append(inst)
        if inst.instr.is_store:
            self.store_count += 1
            self.stores.append(inst)

    def instruction_finished(self) -> None:
        """An associated instruction completed execution."""
        if self.pending_count <= 0:
            raise CheckpointError(f"pending count underflow on checkpoint {self.uid}")
        self.pending_count -= 1

    def disassociate(self, inst: DynInst) -> None:
        """Detach a squashed instruction from this window (walk-based recovery)."""
        if inst not in self.instructions:
            return
        self.instructions.remove(inst)
        self.instruction_count -= 1
        if inst.complete_cycle is None:
            # The instruction had not finished, so it was still pending.
            if self.pending_count <= 0:
                raise CheckpointError(
                    f"pending count underflow while disassociating from checkpoint {self.uid}"
                )
            self.pending_count -= 1
        if inst.instr.is_store:
            self.store_count -= 1
            if inst in self.stores:
                self.stores.remove(inst)

    @property
    def ready_to_commit(self) -> bool:
        """All associated instructions have executed."""
        return self.pending_count == 0

    def reset_window(self) -> None:
        """Clear the window after a rollback *to* this checkpoint.

        All associated instructions were squashed and will be re-fetched,
        so counters, pending frees and buffered stores start over.
        """
        self.pending_count = 0
        self.instruction_count = 0
        self.store_count = 0
        self.to_free.clear()
        self.stores.clear()
        self.instructions.clear()
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(uid={self.uid}, resume={self.resume_index}, "
            f"pending={self.pending_count}/{self.instruction_count})"
        )


class CheckpointTable:
    """A small, in-order table of checkpoints (8 entries in the paper)."""

    __slots__ = (
        "capacity",
        "occupancy_mean",
        "_entries",
        "_next_uid",
        "_created",
        "_committed",
        "_rollbacks",
        "_full_stalls",
    )

    def __init__(self, capacity: int, stats: StatsRegistry) -> None:
        if capacity <= 0:
            raise CheckpointError("checkpoint table capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[Checkpoint] = deque()
        self._next_uid = 0
        self._created = stats.counter("checkpoint.created")
        self._committed = stats.counter("checkpoint.committed")
        self._rollbacks = stats.counter("checkpoint.rollbacks")
        self._full_stalls = stats.counter("checkpoint.full_stalls")
        #: Sampled by the pipeline at the end of every cycle.
        self.occupancy_mean = stats.running_mean("checkpoint.occupancy")

    # -- capacity -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def note_full_stall(self, cycles: int = 1) -> None:
        self._full_stalls.value += cycles

    # -- access ------------------------------------------------------------------
    def oldest(self) -> Optional[Checkpoint]:
        return self._entries[0] if self._entries else None

    def youngest(self) -> Optional[Checkpoint]:
        return self._entries[-1] if self._entries else None

    def find(self, uid: int) -> Optional[Checkpoint]:
        for checkpoint in self._entries:
            if checkpoint.uid == uid:
                return checkpoint
        return None

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lifecycle ------------------------------------------------------------------
    def create(
        self,
        resume_index: int,
        resume_seq: int,
        snapshot: RenameSnapshot,
        harvested_future_free: Set[int],
        cycle: int,
        history: Optional[int] = None,
    ) -> Checkpoint:
        """Open a new (youngest) checkpoint.

        ``harvested_future_free`` is the set of registers displaced during
        the window that is being closed; it is attached to the previously
        youngest checkpoint, which owns that window.
        """
        if self.is_full:
            raise CheckpointError("checkpoint table overflow")
        previous = self.youngest()
        if previous is not None:
            previous.closed = True
            previous.to_free |= harvested_future_free
        elif harvested_future_free:
            raise CheckpointError("future-free registers harvested with no open checkpoint")
        checkpoint = Checkpoint(
            self._next_uid, resume_index, resume_seq, snapshot, cycle, history
        )
        self._next_uid += 1
        self._entries.append(checkpoint)
        self._created.value += 1
        return checkpoint

    def pop_oldest(self) -> Checkpoint:
        """Remove the oldest checkpoint after it committed."""
        if not self._entries:
            raise CheckpointError("pop from an empty checkpoint table")
        self._committed.value += 1
        return self._entries.popleft()

    def discard_younger_than(self, checkpoint: Checkpoint) -> List[Checkpoint]:
        """Drop every checkpoint younger than ``checkpoint`` (rollback)."""
        if checkpoint not in self._entries:
            raise CheckpointError(f"checkpoint {checkpoint.uid} is not in the table")
        discarded: List[Checkpoint] = []
        while self._entries and self._entries[-1] is not checkpoint:
            discarded.append(self._entries.pop())
        self._rollbacks.value += 1
        return discarded

    def discard_younger_than_seq(self, seq: int) -> List[Checkpoint]:
        """Drop checkpoints whose whole window is younger than ``seq``.

        Used by pseudo-ROB (walk-based) misprediction recovery: checkpoints
        created after the mispredicted branch are discarded entirely, the
        branch's own checkpoint stays open and becomes the youngest again.
        """
        discarded: List[Checkpoint] = []
        while self._entries and self._entries[-1].resume_seq > seq:
            discarded.append(self._entries.pop())
        if discarded:
            youngest = self.youngest()
            if youngest is not None:
                youngest.closed = False
        return discarded

    def remove_from_pending_free(self, register: int) -> None:
        """Drop ``register`` from every window's pending-free set (undo support)."""
        for checkpoint in self._entries:
            checkpoint.to_free.discard(register)

    def reserved_registers(self, up_to: Optional[Checkpoint] = None) -> Set[int]:
        """Union of pending-free registers of checkpoints older than ``up_to``.

        These registers hold values that a rollback to one of those older
        checkpoints could still need, so a rollback to ``up_to`` must not
        put them back on the free list.
        """
        reserved: Set[int] = set()
        for checkpoint in self._entries:
            if up_to is not None and checkpoint is up_to:
                break
            reserved |= checkpoint.to_free
        return reserved


class CheckpointPolicy:
    """Decides where checkpoints are taken (paper Section 2, "Taking Checkpoints").

    The paper's heuristic (policy ``"paper"``): take a checkpoint at the
    first branch after 64 instructions, unconditionally after 512
    instructions, or after 64 stores.  The alternative policies are the
    ablations promised as future work in the paper.
    """

    __slots__ = ("config", "_since_last", "_stores_since_last")

    def __init__(self, config: CheckpointConfig) -> None:
        config.validate()
        self.config = config
        self._since_last = 0
        self._stores_since_last = 0

    def reset(self) -> None:
        """Restart counting (after a rollback or a machine reset)."""
        self._since_last = 0
        self._stores_since_last = 0

    @property
    def instructions_since_last(self) -> int:
        return self._since_last

    def should_checkpoint(self, inst: DynInst) -> bool:
        """True if a checkpoint must be taken *before* dispatching ``inst``."""
        policy = self.config.policy
        instr = inst.instr
        if policy == "paper":
            if instr.is_branch and self._since_last >= self.config.branch_threshold:
                return True
            if self._since_last >= self.config.instruction_threshold:
                return True
            if self._stores_since_last >= self.config.store_threshold:
                return True
            return False
        if policy == "every_n":
            return self._since_last >= self.config.branch_threshold
        if policy == "branch_only":
            if instr.is_branch and self._since_last >= self.config.branch_threshold:
                return True
            return self._since_last >= self.config.instruction_threshold
        if policy == "store_only":
            if instr.is_store and self._stores_since_last >= self.config.store_threshold:
                return True
            return self._since_last >= self.config.instruction_threshold
        raise CheckpointError(f"unknown checkpoint policy {policy!r}")

    def account(self, inst: DynInst) -> None:
        """Record that ``inst`` was dispatched into the current window."""
        self._since_last += 1
        if inst.instr.is_store:
            self._stores_since_last += 1

    def checkpoint_taken(self) -> None:
        """A new checkpoint was created: the window counters start over."""
        self.reset()
