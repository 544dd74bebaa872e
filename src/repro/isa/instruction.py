"""Static trace instructions and their dynamic (in-flight) instances."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import registers
from .opcodes import OpClass, is_branch, is_fp, is_load, is_memory, is_store

#: ``(is_load, is_store, is_memory, is_branch, is_fp)`` of every operation
#: class, keyed by its ``_value_``: an ``OpClass`` key would hash through
#: the Python-level ``Enum.__hash__`` on every construction.
_OP_FLAGS = {
    op._value_: (is_load(op), is_store(op), is_memory(op), is_branch(op), is_fp(op))
    for op in OpClass
}
#: Every legal logical register id (see :func:`registers.is_valid`).
_VALID_REGS = frozenset(range(registers.NUM_LOGICAL_REGS))


@dataclass(frozen=True, slots=True)
class Instruction:
    """One entry of an execution trace.

    Because the simulator is trace-driven, each ``Instruction`` records a
    concrete dynamic execution of a static instruction: the effective
    memory address of loads/stores and the actual outcome of branches are
    part of the record.  The pipeline models *when* things happen, the
    trace says *what* happened.
    """

    pc: int
    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    mem_addr: Optional[int] = None
    mem_size: int = 8
    branch_taken: bool = False
    branch_target: Optional[int] = None
    raises_exception: bool = False
    label: str = ""
    # Classification flags, precomputed once at construction from
    # ``_OP_FLAGS``: the pipeline stages test them on every dispatch,
    # issue, retire and commit, and a stored bool is much cheaper than
    # re-hashing the op into the OpClass sets each time.  Excluded from
    # equality (fully derived).
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_memory: bool = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)
    #: Steered to the floating-point issue queue.
    is_fp: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op = self.op
        # Anything that is not an OpClass falls back on the predicates.
        load, store, memory, branch, fp = (
            _OP_FLAGS[op._value_]
            if op.__class__ is OpClass
            else (is_load(op), is_store(op), is_memory(op), is_branch(op), is_fp(op))
        )
        object.__setattr__(self, "is_load", load)
        object.__setattr__(self, "is_store", store)
        object.__setattr__(self, "is_memory", memory)
        object.__setattr__(self, "is_branch", branch)
        object.__setattr__(self, "is_fp", fp)
        # The set settles every legal int id; anything else (out of range,
        # not an int) takes the reference checks, which raise the errors.
        dest = self.dest
        if dest is not None and dest not in _VALID_REGS and not registers.is_valid(dest):
            raise ValueError(f"invalid destination register {dest}")
        if not _VALID_REGS.issuperset(self.srcs):
            registers.validate_regs(self.srcs)
        if memory and self.mem_addr is None:
            raise ValueError(f"memory instruction at pc={self.pc:#x} has no address")
        if store and dest is not None:
            raise ValueError("store instructions must not have a destination register")
        if branch and self.branch_taken and self.branch_target is None:
            raise ValueError("taken branch requires a target")

    # -- classification helpers ---------------------------------------
    @property
    def writes_register(self) -> bool:
        return self.dest is not None

    # -- serialisation -------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """Plain-dict view of every field, round-trippable via :meth:`from_record`.

        The record is the canonical on-disk representation of one trace
        entry (``Trace.to_jsonl`` and :mod:`repro.trace.io` both emit it),
        so it preserves the kernel ``label`` and every other per-instruction
        field exactly.
        """
        return {
            "pc": self.pc,
            "op": self.op.value,
            "dest": self.dest,
            "srcs": list(self.srcs),
            "mem_addr": self.mem_addr,
            "mem_size": self.mem_size,
            "branch_taken": self.branch_taken,
            "branch_target": self.branch_target,
            "raises_exception": self.raises_exception,
            "label": self.label,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Instruction":
        """Inverse of :meth:`to_record`; validates through ``__post_init__``.

        Raises ``KeyError``/``ValueError``/``TypeError`` on malformed
        records; trace-level loaders wrap those in ``TraceError``.
        """
        return cls(
            pc=record["pc"],
            op=OpClass(record["op"]),
            dest=record.get("dest"),
            srcs=tuple(record.get("srcs", ())),
            mem_addr=record.get("mem_addr"),
            mem_size=record.get("mem_size", 8),
            branch_taken=record.get("branch_taken", False),
            branch_target=record.get("branch_target"),
            raises_exception=record.get("raises_exception", False),
            label=record.get("label", ""),
        )

    # Explicit pickle support: frozen+slots dataclasses fail default
    # pickling on Python 3.10 (setattr on a frozen instance); traces
    # cross process boundaries in the parallel sweep engine.  Routing
    # through to_record/from_record keeps one canonical serialization
    # path, so new fields only ever need to be added there.
    def __reduce__(self):
        return (_instruction_from_record, (self.to_record(),))

    def describe(self) -> str:
        """Compact human-readable rendering used in debug dumps."""
        parts = [f"{self.op.value}"]
        if self.dest is not None:
            parts.append(registers.reg_name(self.dest))
        if self.srcs:
            parts.append(",".join(registers.reg_name(s) for s in self.srcs))
        if self.mem_addr is not None:
            parts.append(f"@{self.mem_addr:#x}")
        if self.is_branch:
            parts.append("taken" if self.branch_taken else "not-taken")
        return " ".join(parts)


def _instruction_from_record(record: Mapping[str, Any]) -> Instruction:
    """Module-level pickle rebuild hook (bound classmethods don't pickle)."""
    return Instruction.from_record(record)


class InstState(enum.Enum):
    """Lifecycle states of a dynamic instruction."""

    FETCHED = "fetched"
    DISPATCHED = "dispatched"
    EXECUTING = "executing"
    DONE = "done"
    COMMITTED = "committed"
    SQUASHED = "squashed"


class RetireClass(enum.Enum):
    """Status categories at pseudo-ROB retirement (Figure 12 of the paper)."""

    MOVED = "moved"
    FINISHED = "finished"
    SHORT_LATENCY = "short_latency"
    FINISHED_LOAD = "finished_load"
    LONG_LATENCY_LOAD = "long_latency_load"
    STORE = "store"


@dataclass(eq=False, slots=True)
class DynInst:
    """A dynamic, in-flight instance of a trace instruction.

    Identity (not value) equality is used: two dynamic instances of the
    same trace entry are different objects with different sequence numbers.

    Dynamic instructions are created at fetch and destroyed at commit or
    squash.  They carry the renamed operands, the structures they occupy
    (checkpoint index, LSQ slot, issue-queue/pseudo-ROB/SLIQ membership)
    and per-stage timestamps used by the analysis modules.

    The class is slotted: one ``DynInst`` is allocated per fetched
    instruction and its fields are the hottest attribute accesses in the
    simulator, so the queue/scheduler bookkeeping that used to ride
    along as ad-hoc attributes (``pending_srcs``, ``iq``, ...) is
    declared here instead.
    """

    seq: int
    trace_index: int
    instr: Instruction
    state: InstState = InstState.FETCHED

    # Renaming ----------------------------------------------------------
    phys_dest: Optional[int] = None
    phys_srcs: List[int] = field(default_factory=list)
    old_phys_dest: Optional[int] = None

    # Structure occupancy ------------------------------------------------
    checkpoint_id: Optional[int] = None
    lsq_index: Optional[int] = None
    in_iq: bool = False
    in_sliq: bool = False
    in_pseudo_rob: bool = False

    # Execution status ----------------------------------------------------
    long_latency: bool = False
    l2_miss: bool = False
    mispredicted: bool = False

    # Timestamps (cycle numbers; None until the event happens) ------------
    fetch_cycle: Optional[int] = None
    dispatch_cycle: Optional[int] = None
    issue_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    commit_cycle: Optional[int] = None
    sliq_enter_cycle: Optional[int] = None

    # Scheduler/occupancy bookkeeping (owned by iq/sliq/pipeline) ----------
    #: Physical source registers still unready (maintained by the issue queue).
    pending_srcs: Optional[Any] = None
    #: The issue queue currently (or last) holding this instruction.
    iq: Optional[Any] = None
    #: Late allocation: the physical register was claimed at write-back.
    claimed_phys: bool = False
    #: Liveness class the pipeline counts it under ("fp_long" / "fp_short" / None).
    live_class: Optional[str] = None
    #: Branch-history register as of fetching this instruction (gshare
    #: front ends only).  Checkpoints snapshot it so a rollback can
    #: restore the predictor to the state the re-fetched instruction was
    #: originally predicted under.
    fetch_history: Optional[int] = None

    # -- convenience -----------------------------------------------------
    @property
    def op(self) -> OpClass:
        return self.instr.op

    @property
    def is_load(self) -> bool:
        return self.instr.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.is_store

    @property
    def is_memory(self) -> bool:
        return self.instr.is_memory

    @property
    def is_branch(self) -> bool:
        return self.instr.is_branch

    @property
    def dest(self) -> Optional[int]:
        return self.instr.dest

    @property
    def srcs(self) -> Tuple[int, ...]:
        return self.instr.srcs

    @property
    def completed(self) -> bool:
        return self.state in (InstState.DONE, InstState.COMMITTED)

    @property
    def squashed(self) -> bool:
        return self.state is InstState.SQUASHED

    def mark_squashed(self) -> None:
        """Transition to SQUASHED (idempotent; never applied to committed instructions)."""
        if self.state is InstState.COMMITTED:
            raise ValueError(f"cannot squash committed instruction seq={self.seq}")
        self.state = InstState.SQUASHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynInst(seq={self.seq}, {self.instr.describe()}, state={self.state.value})"
        )


def nop(pc: int = 0) -> Instruction:
    """A no-op trace entry, occasionally handy in tests."""
    return Instruction(pc=pc, op=OpClass.NOP)
