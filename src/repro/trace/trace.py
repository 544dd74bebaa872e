"""Execution traces and the replayable fetch cursor.

A :class:`Trace` is an immutable sequence of :class:`Instruction` objects
representing one dynamic execution of a program.  The pipeline consumes a
trace through a :class:`TraceCursor`, which supports *rewinding*: when the
out-of-order-commit machine rolls back to a checkpoint it moves the cursor
backwards and re-fetches, so the performance cost of replaying correct
instructions is modelled faithfully.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..common.errors import TraceError
from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass

#: An instruction's record fields in ``json.dumps(..., sort_keys=True)`` order.
_RECORD_FIELDS = operator.attrgetter(
    "branch_taken",
    "branch_target",
    "dest",
    "label",
    "mem_addr",
    "mem_size",
    "op",
    "pc",
    "raises_exception",
    "srcs",
)
#: JSON string of every operation class, keyed by its ``_value_`` (the
#: ``value`` property and ``Enum.__hash__`` are Python calls per lookup).
_OP_JSON = {op._value_: json.dumps(op.value) for op in OpClass}
#: Records hashed per sha256 update: bounds the digest's transient memory.
_DIGEST_CHUNK = 4096


def _record_lines(
    chunk: Sequence[Instruction], labels: Dict[str, str], srcs_json: Dict[tuple, str]
) -> str:
    """``json.dumps(instr.to_record(), sort_keys=True) + "\\n"`` for each of ``chunk``.

    Fills one fixed sorted-key line template instead of building a dict
    and running the JSON encoder per instruction; ``labels`` and
    ``srcs_json`` memoise the encoded strings across chunks.  The template
    renders exact ``int``/``bool``/``str`` fields only: any other type the
    constructor accepts (``dest=True``, a float ``pc``, a bool in
    ``srcs``, a non-str label, a subclass) takes the JSON encoder, so the
    bytes never differ.  The srcs cache is consulted only for all-``int``
    tuples because ``(True,)`` hashes and compares equal to ``(1,)``.
    """
    lines: List[str] = []
    append = lines.append
    for instr, fields in zip(chunk, map(_RECORD_FIELDS, chunk)):
        taken, target, dest, label, addr, size, op, pc, exc, srcs = fields
        if (
            type(instr) is Instruction
            and type(pc) is int
            and type(size) is int
            and type(label) is str
            and type(op) is OpClass
            and type(srcs) is tuple
            and (taken is True or taken is False)
            and (exc is True or exc is False)
            and (dest is None or type(dest) is int)
            and (addr is None or type(addr) is int)
            and (target is None or type(target) is int)
        ):
            for reg in srcs:
                if type(reg) is not int:
                    break
            else:
                label_json = labels.get(label)
                if label_json is None:
                    label_json = labels[label] = json.dumps(label)
                srcs_text = srcs_json.get(srcs)
                if srcs_text is None:
                    srcs_text = srcs_json[srcs] = json.dumps(list(srcs))
                append(
                    f'{{"branch_taken": {"true" if taken else "false"}, '
                    f'"branch_target": {"null" if target is None else target}, '
                    f'"dest": {"null" if dest is None else dest}, '
                    f'"label": {label_json}, '
                    f'"mem_addr": {"null" if addr is None else addr}, '
                    f'"mem_size": {size}, '
                    f'"op": {_OP_JSON[op._value_]}, '
                    f'"pc": {pc}, '
                    f'"raises_exception": {"true" if exc else "false"}, '
                    f'"srcs": {srcs_text}}}\n'
                )
                continue
        append(json.dumps(instr.to_record(), sort_keys=True) + "\n")
    return "".join(lines)


class Trace:
    """An immutable, indexable sequence of trace instructions."""

    def __init__(self, instructions: Sequence[Instruction], name: str = "trace") -> None:
        self._instructions: List[Instruction] = list(instructions)
        self.name = name
        self._digest: Optional[str] = None
        if not self._instructions:
            raise TraceError("a trace must contain at least one instruction")

    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    # -- inspection -----------------------------------------------------
    def mix(self) -> Dict[str, int]:
        """Instruction mix keyed by ``OpClass`` value name."""
        counts: Dict[str, int] = {}
        for instr in self._instructions:
            counts[instr.op.value] = counts.get(instr.op.value, 0) + 1
        return counts

    def count(self, op: OpClass) -> int:
        """Number of instructions of a given operation class."""
        return sum(1 for instr in self._instructions if instr.op is op)

    def load_fraction(self) -> float:
        """Fraction of instructions that are loads."""
        loads = sum(1 for instr in self._instructions if instr.is_load)
        return loads / len(self._instructions)

    def branch_fraction(self) -> float:
        """Fraction of instructions that are branches."""
        branches = sum(1 for instr in self._instructions if instr.is_branch)
        return branches / len(self._instructions)

    def store_fraction(self) -> float:
        """Fraction of instructions that are stores."""
        stores = sum(1 for instr in self._instructions if instr.is_store)
        return stores / len(self._instructions)

    def unique_lines(self, line_bytes: int = 64) -> int:
        """Number of distinct cache lines touched by loads and stores."""
        lines = {
            instr.mem_addr // line_bytes
            for instr in self._instructions
            if instr.mem_addr is not None
        }
        return len(lines)

    def footprint_bytes(self, line_bytes: int = 64) -> int:
        """Approximate data footprint (distinct lines times line size)."""
        return self.unique_lines(line_bytes) * line_bytes

    def slice(self, start: int, stop: int) -> "Trace":
        """A new trace covering ``[start, stop)`` of this one."""
        if not 0 <= start < stop <= len(self):
            raise TraceError(f"invalid slice [{start}, {stop}) of trace of length {len(self)}")
        return Trace(self._instructions[start:stop], name=f"{self.name}[{start}:{stop}]")

    def instructions_between(self, start: int, stop: int) -> List[Instruction]:
        """The raw instruction list for ``[start, stop)`` — no Trace wrapper.

        O(stop - start) regardless of ``start``; used by the sampled
        execution fast-forward loop, which walks a long trace in many
        consecutive ranges and must not pay for re-skipping the prefix.
        """
        if not 0 <= start <= stop <= len(self):
            raise TraceError(
                f"invalid range [{start}, {stop}) of trace of length {len(self)}"
            )
        return self._instructions[start:stop]

    def concat(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Concatenate two traces into a new one."""
        return Trace(
            self._instructions + list(other),
            name=name or f"{self.name}+{other.name}",
        )

    def relabel(self, label: str, name: Optional[str] = None) -> "Trace":
        """A copy of this trace with every instruction's kernel label replaced.

        Used by the scenario DSL so that phases of a composed workload stay
        distinguishable in per-instruction analyses.  Each distinct record
        is copied once, so the copy holds one object per distinct record.
        """
        copies: Dict[Instruction, Instruction] = {}
        relabelled = []
        for instr in self._instructions:
            copy = copies.get(instr)
            if copy is None:
                copy = copies[instr] = (
                    instr if instr.label == label else dataclasses.replace(instr, label=label)
                )
            relabelled.append(copy)
        return Trace(relabelled, name=name if name is not None else self.name)

    def digest(self) -> str:
        """Content-addressed sha256 of the instruction sequence.

        Covers every instruction record but *not* the trace name, so a
        regenerated, loaded or renamed copy of the same execution hashes
        equal.  The hashed bytes are each record's
        ``json.dumps(record, sort_keys=True)`` plus a newline, rendered by
        :func:`_record_lines` and streamed in bounded chunks.  Computed
        lazily and cached — traces are immutable — so repeated
        checkpoint-key derivations pay the walk once.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            labels: Dict[str, str] = {}
            srcs_json: Dict[tuple, str] = {}
            instructions = self._instructions
            for start in range(0, len(instructions), _DIGEST_CHUNK):
                chunk = instructions[start : start + _DIGEST_CHUNK]
                hasher.update(_record_lines(chunk, labels, srcs_json).encode("utf-8"))
            self._digest = hasher.hexdigest()
        return self._digest

    # -- serialisation ----------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise to JSON-lines (one instruction record per line)."""
        return "\n".join(json.dumps(instr.to_record()) for instr in self._instructions)

    @classmethod
    def from_jsonl(cls, text: str, name: str = "trace") -> "Trace":
        """Inverse of :meth:`to_jsonl`.

        Raises :class:`~repro.common.errors.TraceError` (never a bare
        ``KeyError``/``ValueError``) on malformed input.
        """
        instructions = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"expected an instruction record, got {type(record).__name__}")
                instructions.append(Instruction.from_record(record))
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceError(f"malformed trace line {line_number}: {exc}") from exc
        return cls(instructions, name=name)

    def save(self, path: "os.PathLike") -> "os.PathLike":
        """Persist this trace as a versioned gzip-JSON file (see :mod:`repro.trace.io`)."""
        from .io import save_trace

        return save_trace(self, path)

    @classmethod
    def load(cls, path: "os.PathLike") -> "Trace":
        """Load a trace saved by :meth:`save`; raises ``TraceError`` on bad input."""
        from .io import load_trace

        return load_trace(path)


class TraceCursor:
    """A replayable fetch pointer over a :class:`Trace`.

    The cursor hands out ``(trace_index, Instruction)`` pairs in order and
    can be rewound to any earlier index, which is how checkpoint rollback
    and branch-misprediction replay are modelled.
    """

    def __init__(self, trace: Trace, start: int = 0) -> None:
        self._trace = trace
        #: Traces are immutable, so their length is read once.
        self._length = len(trace)
        if not 0 <= start <= self._length:
            raise TraceError(f"cursor start {start} out of range for trace of length {self._length}")
        self._position = start

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def position(self) -> int:
        """Index of the next instruction to be fetched."""
        return self._position

    @property
    def exhausted(self) -> bool:
        """True when every trace instruction has been handed out."""
        return self._position >= self._length

    def peek(self) -> Optional[Instruction]:
        """The next instruction without advancing, or None at end of trace."""
        if self._position >= self._length:
            return None
        return self._trace[self._position]

    def fetch(self) -> Optional[Instruction]:
        """Return the next instruction and advance, or None at end of trace."""
        if self._position >= self._length:
            return None
        instr = self._trace[self._position]
        self._position += 1
        return instr

    def fetch_block(self, width: int) -> List[Instruction]:
        """Fetch up to ``width`` instructions (may return fewer at trace end)."""
        block = []
        for _ in range(width):
            instr = self.fetch()
            if instr is None:
                break
            block.append(instr)
        return block

    def rewind_to(self, index: int) -> None:
        """Move the cursor back (or forward) to ``index``.

        ``index`` is the trace index of the next instruction to fetch.
        """
        if not 0 <= index <= self._length:
            raise TraceError(
                f"rewind target {index} out of range for trace of length {self._length}"
            )
        self._position = index

    def remaining(self) -> int:
        """Number of instructions not yet handed out."""
        return self._length - self._position


def merge_traces(traces: Iterable[Trace], name: str = "merged") -> Trace:
    """Concatenate several traces back to back."""
    instructions: List[Instruction] = []
    for trace in traces:
        instructions.extend(trace)
    return Trace(instructions, name=name)
