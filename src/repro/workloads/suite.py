"""Benchmark suites: named collections of traces.

The experiment harness runs every configuration over a whole suite and
averages IPC across its members, exactly as the paper averages over the
SPEC2000fp applications.  :func:`spec2000fp_like` is the default suite
used by every figure; ``scale`` shrinks or grows every member so the
benchmarks can trade fidelity against wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..trace.trace import Trace
from . import integer, numerical, registry


@dataclass(frozen=True)
class SuiteMember:
    """One workload of a suite: a name plus its trace generator."""

    name: str
    generator: Callable[[int], Trace]
    base_size: int

    def build(self, scale: float = 1.0) -> Trace:
        """Generate the member's trace, scaled in dynamic instruction count."""
        size = max(16, int(self.base_size * scale))
        return self.generator(size)


class Suite:
    """An ordered collection of workloads."""

    def __init__(
        self, name: str, members: Sequence[SuiteMember], description: str = ""
    ) -> None:
        self.name = name
        self.description = description
        self.members: Tuple[SuiteMember, ...] = tuple(members)
        if not self.members:
            raise ValueError("a suite needs at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def names(self) -> List[str]:
        return [member.name for member in self.members]

    def build(self, scale: float = 1.0) -> Dict[str, Trace]:
        """Generate every member's trace."""
        return {member.name: member.build(scale) for member in self.members}


def spec2000fp_like(scale: float = 1.0) -> Dict[str, Trace]:
    """The default floating-point suite (SPEC2000fp stand-in).

    Six kernels spanning the dependence/miss-rate spectrum:

    * ``daxpy`` and ``triad`` — streaming, fully parallel (like swim/applu)
    * ``stencil3`` — strided with reuse (like mgrid)
    * ``reduction`` — serial FP chain (like the reductions in equake)
    * ``gather`` — irregular indirect accesses (like the sparse codes)
    * ``matvec`` — mixed reuse and reduction (like wupwise kernels)
    * ``blocked`` — cache-blocked re-use, low miss rate (like the blocked solvers)
    * ``fp_compute`` — compute bound, almost no memory traffic
    """
    return SPEC2000FP_LIKE.build(scale)


def integer_suite(scale: float = 1.0) -> Dict[str, Trace]:
    """The integer contrast suite (pointer chasing and hard branches)."""
    return INTEGER_LIKE.build(scale)


#: Canonical base member sizes: each member produces a few thousand
#: dynamic instructions at scale 1.0 (roughly equal weight per member).
SPEC2000FP_LIKE = Suite(
    "spec2000fp_like",
    description="SPEC2000fp stand-in: streaming/strided FP loops, mostly L2-miss bound "
    "with near-perfect branches (the paper's evaluation suite)",
    members=[
        SuiteMember("daxpy", lambda n: numerical.daxpy(elements=max(4, n // 7)), 3500),
        SuiteMember("triad", lambda n: numerical.stream_triad(elements=max(4, n // 7)), 3500),
        SuiteMember("stencil3", lambda n: numerical.stencil3(elements=max(4, n // 9)), 3600),
        SuiteMember("reduction", lambda n: numerical.reduction(elements=max(4, n // 4)), 3200),
        SuiteMember(
            "gather", lambda n: numerical.random_gather(elements=max(4, n // 6)), 3600
        ),
        SuiteMember(
            "matvec",
            lambda n: numerical.matvec(rows=max(2, n // 200), cols=32),
            3400,
        ),
        SuiteMember(
            "blocked",
            lambda n: numerical.blocked_daxpy(
                elements=max(8, n // 14), block_elements=max(4, n // 28), passes=2
            ),
            3500,
        ),
        SuiteMember(
            "fp_compute",
            lambda n: numerical.fp_compute_bound(iterations=max(4, n // 7)),
            3500,
        ),
    ],
)

INTEGER_LIKE = Suite(
    "integer_like",
    description="integer contrast suite: pointer chasing, hard branches and a mixed "
    "blend — the regime where huge windows help least",
    members=[
        SuiteMember("pointer_chase", lambda n: integer.pointer_chase(hops=max(4, n // 4)), 2000),
        SuiteMember(
            "branchy_int", lambda n: integer.branchy_integer(iterations=max(4, n // 5)), 2500
        ),
        SuiteMember("mixed", lambda n: integer.mixed_int_fp(iterations=max(4, n // 7)), 2800),
    ],
)

registry.register_suite(SPEC2000FP_LIKE)
registry.register_suite(INTEGER_LIKE)
