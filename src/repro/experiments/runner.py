"""Shared experiment infrastructure.

Every figure module follows the same pattern: build (or reuse) the
workload suite, run a set of machine configurations over it, average IPC
(or another metric) across the suite exactly as the paper averages over
SPEC2000fp, and return an :class:`ExperimentResult` with the rows/series
the paper's figure reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..analysis.report import format_table
from ..common.stats import arithmetic_mean
from ..core.result import SimulationResult
from ..trace.trace import Trace
from ..workloads.registry import get_suite

#: Default suite scale used by the benchmark harness: small enough that a
#: full figure regenerates in tens of seconds of pure-Python simulation,
#: large enough that windows of thousands of instructions can build up.
DEFAULT_SCALE = 0.6


@functools.lru_cache(maxsize=None)
def _member_trace(suite: str, scale: float, workload: str) -> Trace:
    """One suite member's trace, built once per process.

    Generation is deterministic (fixed seeds), so a trace built in a
    pool worker equals the parent's.
    """
    for member in get_suite(suite):
        if member.name == workload:
            return member.build(scale)
    raise KeyError(f"unknown workload {workload!r} in suite {suite!r}")


def suite_traces(
    scale: float = DEFAULT_SCALE,
    suite: str = "spec2000fp_like",
    workloads: Optional[Sequence[str]] = None,
) -> Dict[str, Trace]:
    """The traces of ``suite`` (or of its ``workloads``) at ``scale``.

    Each member is built on first use and memoized per (suite, scale,
    workload), so a filtered call builds only what it names.
    """
    names = get_suite(suite).names() if workloads is None else workloads
    return {name: _member_trace(suite, scale, name) for name in names}


def suite_ipc(results: Mapping[str, SimulationResult]) -> float:
    """Arithmetic-mean IPC across the suite (the paper's reported metric)."""
    return arithmetic_mean(result.ipc for result in results.values())


def suite_metric(
    results: Mapping[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
) -> float:
    """Arithmetic mean of an arbitrary per-run metric across the suite."""
    return arithmetic_mean(metric(result) for result in results.values())


@dataclass
class ExperimentResult:
    """Output of one figure-reproduction experiment."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    per_workload: Dict[str, Dict[str, object]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def row(self, **values: object) -> Dict[str, object]:
        """Append one result row and return it."""
        self.rows.append(dict(values))
        return self.rows[-1]

    def find_row(self, **criteria: object) -> Optional[Dict[str, object]]:
        """First row matching every key/value pair in ``criteria``."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                return row
        return None

    def value(self, column: str, **criteria: object) -> float:
        """Value of ``column`` in the first row matching ``criteria``."""
        row = self.find_row(**criteria)
        if row is None:
            raise KeyError(f"no row matches {criteria} in {self.experiment}")
        return float(row[column])  # type: ignore[arg-type]

    def column(self, column: str) -> List[float]:
        return [float(row[column]) for row in self.rows if column in row]  # type: ignore[arg-type]

    def report(self) -> str:
        """Plain-text rendition of the experiment (header, table, notes)."""
        lines = [f"== {self.experiment}: {self.description} =="]
        lines.append(format_table(self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
