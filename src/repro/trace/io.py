"""Trace file I/O: versioned gzip-JSON save/load for execution traces.

Trace generation is deterministic, but it needs the generator, at the
version that wrote the trace.  This module lets a trace be generated
once, saved, and replayed across sweeps and machines, with no generator
at hand:

* :func:`save_trace` writes a gzip-compressed file whose first line is a
  JSON header (format marker, format version, trace name, instruction
  counts) and whose second line is the JSON body.
* :func:`load_trace` validates the header and rebuilds the trace,
  raising :class:`~repro.common.errors.TraceError` — never a bare
  ``KeyError`` — on malformed or version-mismatched input.
* :func:`trace_info` reads only the header, so ``repro trace info`` is
  cheap even for huge files.

The body stores each *distinct* instruction record once plus an index of
references: execution traces are unrolled loops, so most dynamic
instructions repeat an earlier one exactly (same pc, operands, label —
only memory addresses and branch outcomes vary iteration to iteration).
``Instruction`` is a frozen dataclass, so the loader shares one instance
across all its occurrences and constructs only the distinct records, as
:class:`~repro.workloads.builder.TraceBuilder` does when it generates a
trace.  ``benchmarks/test_bench_trace_io.py`` guards that a load replays
the generated trace exactly, calls no generator and shares its records.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

from ..common.errors import TraceError
from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass
from .trace import Trace

#: Format marker of the first header field; never changes.
TRACE_FORMAT = "repro-trace"

#: Bumped when the file layout changes incompatibly; loaders reject
#: versions they do not understand with a TraceError.
TRACE_FORMAT_VERSION = 1

#: Conventional file suffix used by the CLI when it picks names itself.
TRACE_SUFFIX = ".trace.gz"

#: Column order of the positional records in the body.  The body carries
#: this list too, so a reader can detect (and reject) a layout it does
#: not understand even within one format version.
RECORD_FIELDS = (
    "pc",
    "op",
    "dest",
    "srcs",
    "mem_addr",
    "mem_size",
    "branch_taken",
    "branch_target",
    "raises_exception",
    "label",
)

#: Opcode lookup table; dodges the Enum ``__call__`` machinery on the
#: hot load path (one lookup per distinct record).
_OPCODES = {op.value: op for op in OpClass}


def save_trace(trace: Trace, path: os.PathLike, compresslevel: int = 6) -> Path:
    """Write ``trace`` to ``path`` as a versioned gzip-JSON file.

    The write is atomic (temp file + ``os.replace``), so a crashed save
    never leaves a truncated trace where a good one is expected.
    """
    distinct: Dict[Any, int] = {}
    records: List[List[Any]] = []
    index: List[int] = []
    for instr in trace:
        key = (
            instr.pc, instr.op, instr.dest, instr.srcs, instr.mem_addr, instr.mem_size,
            instr.branch_taken, instr.branch_target, instr.raises_exception, instr.label,
        )
        slot = distinct.get(key)
        if slot is None:
            slot = distinct.setdefault(key, len(records))
            records.append([
                instr.pc, instr.op.value, instr.dest, list(instr.srcs), instr.mem_addr,
                instr.mem_size, instr.branch_taken, instr.branch_target,
                instr.raises_exception, instr.label,
            ])
        index.append(slot)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_FORMAT_VERSION,
        "name": trace.name,
        "instructions": len(trace),
        "distinct_instructions": len(records),
    }
    body = {"fields": list(RECORD_FIELDS), "records": records, "index": index}
    return _write_framed(path, header, body, compresslevel)


def _write_framed(
    path: os.PathLike, header: Dict[str, Any], body: Dict[str, Any], compresslevel: int
) -> Path:
    """Write a gzip file of one JSON header line and one JSON body line.

    The write is atomic (temp file + ``os.replace``), so a crashed save
    never leaves a truncated file where a good one is expected.
    """
    destination = Path(path).expanduser()
    destination.parent.mkdir(parents=True, exist_ok=True)
    tmp = destination.with_name(f"{destination.name}.tmp.{os.getpid()}")
    try:
        with gzip.open(tmp, "wt", encoding="utf-8", compresslevel=compresslevel) as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps(body))
        os.replace(tmp, destination)
    finally:
        if tmp.exists():  # only on failure; os.replace consumed it otherwise
            tmp.unlink()
    return destination


def _read_lines(path: Path) -> List[str]:
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return [handle.readline(), handle.readline()]
    except FileNotFoundError:
        raise
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        # gzip.BadGzipFile (a plain file, garbage, truncation) is an OSError.
        raise TraceError(f"{path} is not a readable trace file: {exc}") from exc


def _check_header(
    path: Path, line: str, kind: str, fmt: str, version: int, required: Sequence[str]
) -> Dict[str, Any]:
    """Parse a ``kind`` header line; check its format, version and ``required`` fields."""
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise TraceError(f"{path}: malformed {kind} header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise TraceError(f"{path}: not a {fmt} file")
    found = header.get("version")
    # The bool check matters: True == 1 in Python, so a hostile header
    # with "version": true would otherwise slip past an equality test.
    if not isinstance(found, int) or isinstance(found, bool) or found != version:
        raise TraceError(
            f"{path}: unsupported {kind} format version {found!r} "
            f"(this build reads version {version})"
        )
    for name in required:
        if name not in header:
            raise TraceError(f"{path}: {kind} header is missing {name!r}")
    return header


def _parse_header(path: Path, line: str) -> Dict[str, Any]:
    header = _check_header(
        path, line, "trace", TRACE_FORMAT, TRACE_FORMAT_VERSION, ("name", "instructions")
    )
    count = header["instructions"]
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise TraceError(f"{path}: trace header instruction count {count!r} is not a positive int")
    return header


def trace_info(path: os.PathLike) -> Dict[str, Any]:
    """The validated header of a saved trace, without loading the body."""
    source = Path(path).expanduser()
    return _parse_header(source, _read_lines(source)[0])


def load_trace(path: os.PathLike) -> Trace:
    """Rebuild a trace saved by :func:`save_trace`.

    Every malformed-input failure mode — bad gzip data, truncated files,
    unknown format versions, records that fail ``Instruction``
    validation, an index that disagrees with the header — raises
    :class:`TraceError` with the file path in the message.
    """
    source = Path(path).expanduser()
    header_line, body_line = _read_lines(source)
    header = _parse_header(source, header_line)
    try:
        body = json.loads(body_line)
        fields = body["fields"]
        records = body["records"]
        index = body["index"]
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceError(f"{source}: malformed trace body: {exc}") from exc
    if tuple(fields) != RECORD_FIELDS:
        raise TraceError(
            f"{source}: unsupported record layout {fields!r} "
            f"(this build reads {list(RECORD_FIELDS)!r})"
        )
    try:
        # Validated construction (Instruction.__post_init__ runs) but with
        # the constructor inlined: one construction per *distinct* record,
        # the sharing the trace-io benchmark guards.
        pool = [
            Instruction(
                pc=pc,
                op=_OPCODES[op],
                dest=dest,
                srcs=tuple(srcs),
                mem_addr=mem_addr,
                mem_size=mem_size,
                branch_taken=branch_taken,
                branch_target=branch_target,
                raises_exception=raises_exception,
                label=label,
            )
            for pc, op, dest, srcs, mem_addr, mem_size,
                branch_taken, branch_target, raises_exception, label in records
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceError(f"{source}: malformed instruction record: {exc}") from exc
    try:
        if index and min(index) < 0:  # negative slots would alias via Python indexing
            raise IndexError(f"negative slot {min(index)}")
        instructions = [pool[slot] for slot in index]
    except (IndexError, TypeError) as exc:
        raise TraceError(f"{source}: trace index references a missing record: {exc}") from exc
    if len(instructions) != header["instructions"]:
        raise TraceError(
            f"{source}: header promises {header['instructions']} instructions "
            f"but the body holds {len(instructions)}"
        )
    if not instructions:
        raise TraceError(f"{source}: trace file contains no instructions")
    return Trace(instructions, name=header["name"])


# ---------------------------------------------------------------------------
# Warm-state checkpoints (sampled execution)
# ---------------------------------------------------------------------------

#: Format marker of warm-state checkpoint files; never changes.
CHECKPOINT_FORMAT = "repro-warm-checkpoint"

#: Bumped when the checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

#: Conventional suffix of warm-checkpoint files; checkpoint directories
#: are keyed stores, ``<key>.warm.gz``.
CHECKPOINT_SUFFIX = ".warm.gz"


@dataclass(frozen=True)
class WarmCheckpoint:
    """Warm microarchitectural state at every detailed-window boundary.

    One functional pass over a trace produces one checkpoint: for each
    detailed region of the sampling schedule, a snapshot of the cache
    tag/LRU/dirty state, prefetcher table, branch predictor and BTB as
    they stand when that region begins.  ``key`` is the sha256 derived
    by :func:`repro.core.warmstate.checkpoint_key` over (trace digest,
    sampling plan, warm-relevant hierarchy/predictor parameters,
    simulator version) — everything that shapes the snapshots — so a
    checkpoint is shared across machine configs that differ only in
    window/latency knobs, and can never be adopted by a run it does not
    match.
    """

    key: str
    simulator_version: str
    trace_digest: str
    trace_name: str
    instructions: int
    plan: Dict[str, int]
    params: Dict[str, Any]
    boundaries: List[int] = field(default_factory=list)
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    #: Raw ``StatsRegistry.dump_state()`` of the functional pass, so a
    #: checkpoint-hit run reproduces the warm pass's statistic
    #: contributions (fast-forward accounting, prefetch issue counts)
    #: bit-exactly without re-running it.
    warm_stats: Dict[str, list] = field(default_factory=dict)


def save_checkpoint(checkpoint: WarmCheckpoint, path: os.PathLike, compresslevel: int = 6) -> Path:
    """Write a warm checkpoint using the trace container's gzip-JSON layout.

    Same two-line shape and atomic writer as :func:`save_trace`: a small
    JSON header line (so ``repro checkpoint info`` never reads the
    snapshots) followed by the JSON body.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_FORMAT_VERSION,
        "key": checkpoint.key,
        "simulator_version": checkpoint.simulator_version,
        "trace_digest": checkpoint.trace_digest,
        "trace_name": checkpoint.trace_name,
        "instructions": checkpoint.instructions,
        "plan": dict(checkpoint.plan),
        "windows": len(checkpoint.snapshots),
    }
    body = {
        "params": checkpoint.params,
        "boundaries": list(checkpoint.boundaries),
        "snapshots": list(checkpoint.snapshots),
        "warm_stats": checkpoint.warm_stats,
    }
    return _write_framed(path, header, body, compresslevel)


def _parse_checkpoint_header(path: Path, line: str) -> Dict[str, Any]:
    header = _check_header(
        path, line, "checkpoint", CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_VERSION,
        ("key", "simulator_version", "trace_digest", "trace_name",
         "instructions", "plan", "windows"),
    )
    if not isinstance(header["key"], str) or not header["key"]:
        raise TraceError(f"{path}: checkpoint key {header['key']!r} is not a non-empty string")
    windows = header["windows"]
    if not isinstance(windows, int) or isinstance(windows, bool) or windows < 0:
        raise TraceError(f"{path}: checkpoint window count {windows!r} is not a non-negative int")
    return header


def checkpoint_info(path: os.PathLike) -> Dict[str, Any]:
    """The validated header of a warm checkpoint, without its snapshots."""
    source = Path(path).expanduser()
    return _parse_checkpoint_header(source, _read_lines(source)[0])


def load_checkpoint(path: os.PathLike) -> WarmCheckpoint:
    """Rebuild a checkpoint saved by :func:`save_checkpoint`.

    Every malformed-input failure mode — bad gzip data, truncation, a
    foreign or future format, a body that disagrees with the header —
    raises :class:`TraceError` with the file path in the message, never
    a bare ``KeyError``; key matching against the *expected* key is the
    caller's job (see ``repro.core.warmstate.load_matching_checkpoint``).
    """
    source = Path(path).expanduser()
    header_line, body_line = _read_lines(source)
    header = _parse_checkpoint_header(source, header_line)
    try:
        body = json.loads(body_line)
        params = body["params"]
        boundaries = body["boundaries"]
        snapshots = body["snapshots"]
        warm_stats = body.get("warm_stats", {})
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceError(f"{source}: malformed checkpoint body: {exc}") from exc
    if (
        not isinstance(boundaries, list)
        or not isinstance(snapshots, list)
        or not isinstance(warm_stats, dict)
    ):
        raise TraceError(f"{source}: checkpoint body fields have the wrong shape")
    if len(snapshots) != header["windows"] or len(boundaries) != header["windows"]:
        raise TraceError(
            f"{source}: header promises {header['windows']} windows but the body "
            f"holds {len(snapshots)} snapshots / {len(boundaries)} boundaries"
        )
    try:
        return WarmCheckpoint(
            key=header["key"],
            simulator_version=header["simulator_version"],
            trace_digest=header["trace_digest"],
            trace_name=header["trace_name"],
            instructions=int(header["instructions"]),
            plan={name: int(value) for name, value in header["plan"].items()},
            params=params,
            boundaries=[int(b) for b in boundaries],
            snapshots=snapshots,
            warm_stats=warm_stats,
        )
    except (ValueError, TypeError, AttributeError) as exc:
        raise TraceError(f"{source}: malformed checkpoint fields: {exc}") from exc
