"""A composable scenario DSL on top of :class:`TraceBuilder`.

The hand-written suites build each member from exactly one kernel.  Real
programs change behaviour over time — a server alternates request
parsing (branchy), cache lookups (memory-bound) and response formatting
(compute) — and the out-of-order-commit machine reacts very differently
to each regime.  This module lets such workloads be *declared* instead
of hand-written:

:class:`Phase`
    A named slice of a scenario: a kernel plus a weight saying what
    share of the dynamic instruction budget it receives.

:class:`Scenario`
    An ordered phase sequence (optionally repeated, to model periodic
    behaviour).  ``build(size)`` splits the budget across the phases,
    derives one deterministic RNG stream per (scenario, phase,
    repetition) and concatenates the phase traces, relabelling each so
    per-instruction analyses can attribute cycles to phases.

:func:`interleave`
    Fine-grained kernel mixing: round-robins fixed-size blocks of
    several traces into one, modelling workloads whose regimes are
    interleaved at a scale smaller than the instruction window.

:func:`stream_rng` / :func:`stream_seed`
    Deterministic per-workload RNG streams.  Seeds derive from a stable
    hash of the string parts, so adding a phase to one scenario never
    perturbs another scenario's randomness — the property that keeps
    sweep-cache contents reproducible across runs and processes.

Example::

    SERVER = Scenario(
        "server",
        [
            Phase("parse", branchy_kernel, weight=1),
            Phase("lookup", gather_kernel, weight=2),
            Phase("respond", compute_kernel, weight=1),
        ],
        repeat=2,
    )
    trace = SERVER.build(4000)   # ~4000 dynamic instructions, 6 phases
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..common.errors import ConfigurationError, TraceError
from ..isa.instruction import Instruction
from ..trace.trace import Trace

#: A phase kernel: ``kernel(size, rng) -> Trace`` where ``size`` is the
#: phase's dynamic-instruction budget and ``rng`` its private stream.
PhaseKernelFn = Callable[[int, random.Random], Trace]

#: Smallest budget handed to any phase kernel.
MIN_PHASE_SIZE = 16


def stream_seed(*parts: object) -> int:
    """A stable 63-bit seed derived from the string forms of ``parts``.

    Unlike ``hash()``, the derivation is identical across processes and
    Python versions, so traces built in sweep workers match the parent.
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def stream_rng(*parts: object) -> random.Random:
    """A deterministic private RNG stream for the given identity parts."""
    return random.Random(stream_seed(*parts))


@dataclass(frozen=True)
class Phase:
    """One behavioural regime of a scenario."""

    name: str
    kernel: PhaseKernelFn
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a phase needs a non-empty name")
        if self.weight <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: weight must be positive, got {self.weight}"
            )


class Scenario:
    """An ordered, weighted, repeatable sequence of phases.

    ``seed`` shifts every phase's RNG stream at once, giving one knob
    for generating independent variants of the same scenario shape.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        *,
        seed: int = 0,
        repeat: int = 1,
    ) -> None:
        if not phases:
            raise ConfigurationError("a scenario needs at least one phase")
        if repeat < 1:
            raise ConfigurationError(f"scenario {name!r}: repeat must be >= 1, got {repeat}")
        seen = set()
        for phase in phases:
            if phase.name in seen:
                raise ConfigurationError(
                    f"scenario {name!r}: duplicate phase name {phase.name!r}"
                )
            seen.add(phase.name)
        self.name = name
        self.phases: Sequence[Phase] = tuple(phases)
        self.seed = seed
        self.repeat = repeat

    def phase_names(self) -> List[str]:
        return [phase.name for phase in self.phases]

    def phase_budgets(self, size: int) -> List[int]:
        """The per-phase instruction budgets for one repetition at ``size``."""
        per_repetition = max(size // self.repeat, MIN_PHASE_SIZE)
        total_weight = sum(phase.weight for phase in self.phases)
        return [
            max(MIN_PHASE_SIZE, int(per_repetition * phase.weight / total_weight))
            for phase in self.phases
        ]

    def build(self, size: int) -> Trace:
        """Generate ~``size`` dynamic instructions across the phase sequence."""
        if size < 1:
            raise ConfigurationError(f"scenario {self.name!r}: size must be positive, got {size}")
        budgets = self.phase_budgets(size)
        pieces: List[Trace] = []
        for repetition in range(self.repeat):
            for phase, budget in zip(self.phases, budgets):
                rng = stream_rng(self.name, phase.name, repetition, self.seed)
                piece = phase.kernel(budget, rng)
                pieces.append(piece.relabel(f"{self.name}.{phase.name}"))
        return _concat(pieces, name=self.name)

    def as_generator(self) -> Callable[[int], Trace]:
        """A plain ``fn(size) -> Trace`` view, e.g. for a ``SuiteMember``."""
        return self.build

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario({self.name!r}, phases={self.phase_names()}, "
            f"repeat={self.repeat}, seed={self.seed})"
        )


def _concat(pieces: Sequence[Trace], name: str) -> Trace:
    """Join ``pieces`` into one trace holding one object per distinct record."""
    shared: Dict[Instruction, Instruction] = {}
    instructions = [shared.setdefault(instr, instr) for piece in pieces for instr in piece]
    return Trace(instructions, name=name)


def interleave(
    traces: Sequence[Trace],
    block: int = 32,
    name: str = "interleaved",
    rng: Optional[random.Random] = None,
) -> Trace:
    """Round-robin fixed-size blocks of several traces into one.

    Without ``rng`` the rotation is strict round-robin; with it, each
    turn picks a random non-exhausted trace — both fully deterministic
    for a given input.  The result mixes the source regimes at ``block``
    granularity, so a window larger than the block always holds a blend.
    """
    if not traces:
        raise TraceError("interleave needs at least one trace")
    if block < 1:
        raise TraceError(f"interleave block must be >= 1, got {block}")
    positions = [0] * len(traces)
    live = [i for i, trace in enumerate(traces) if len(trace) > 0]
    instructions = []
    turn = 0
    while live:
        if rng is None:
            choice = live[turn % len(live)]
            turn += 1
        else:
            choice = live[rng.randrange(len(live))]
        trace = traces[choice]
        start = positions[choice]
        stop = min(start + block, len(trace))
        for index in range(start, stop):
            instructions.append(trace[index])
        positions[choice] = stop
        if stop >= len(trace):
            live.remove(choice)
    return Trace(instructions, name=name)
