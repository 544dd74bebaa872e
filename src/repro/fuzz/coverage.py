"""Behavioral coverage: which machine behaviors the fuzzer has exercised.

Classic fuzzers track code coverage; a simulator's interesting space is
*behavioral* — which machine got pushed into which bottleneck regime.
Each finished simulation is reduced to a compact signature::

    <machine> | <dominant stall reason> | inflight:<occupancy band>

where the stall reason is the structure whose full-stall counter
dominates the run (ROB, issue queues, LSQ, SLIQ, checkpoint table,
front-end mispredict restarts, or ``none`` when nothing stalled) and the
occupancy band buckets the mean number of in-flight instructions into
powers-of-four.  The :class:`CoverageMap` counts signatures; a case that
produces a *new* signature is behaviorally novel, and the campaign
feeds that novelty back into generation bias (see
:class:`~repro.fuzz.generator.CaseGenerator`).

Signatures are derived purely from :class:`SimulationResult` stats, so
they are as deterministic as the simulator itself: same seed, same
specs, same signatures — the property the acceptance gate checks.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from ..core.result import SimulationResult

#: (label, stats key) pairs competing for the dominant stall reason.
STALL_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("rob", "rob.full_stalls"),
    ("iq-int", "iq.int.full_stalls"),
    ("iq-fp", "iq.fp.full_stalls"),
    ("lsq", "lsq.full_stalls"),
    ("sliq", "sliq.full_stalls"),
    ("checkpoint", "checkpoint.full_stalls"),
)

#: Upper edges of the mean-in-flight occupancy bands (powers of four).
OCCUPANCY_BANDS: Tuple[int, ...] = (4, 16, 64, 256, 1024)


def occupancy_band(mean_in_flight: float) -> str:
    """The powers-of-four band label for a mean in-flight occupancy."""
    for edge in OCCUPANCY_BANDS:
        if mean_in_flight < edge:
            return f"<{edge}"
    return f">={OCCUPANCY_BANDS[-1]}"


def dominant_stall(result: SimulationResult) -> str:
    """The structure whose full-stall counter dominates ``result``."""
    best_label, best_value = "none", 0.0
    for label, key in STALL_SOURCES:
        value = result.stat(key)
        if value > best_value:
            best_label, best_value = label, value
    return best_label


def coverage_signature(machine: str, result: SimulationResult) -> str:
    """The behavioral signature of one (machine, result) pair."""
    return (
        f"{machine}|{dominant_stall(result)}|"
        f"inflight:{occupancy_band(result.mean_in_flight)}"
    )


class CoverageMap:
    """Counts of observed behavioral signatures, insertion-ordered."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, signature: str) -> bool:
        """Record one observation; True when the signature is new."""
        novel = signature not in self._counts
        self._counts[signature] = self._counts.get(signature, 0) + 1
        return novel

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, signature: str) -> bool:
        return signature in self._counts

    def count(self, signature: str) -> int:
        return self._counts.get(signature, 0)

    def signatures(self) -> List[str]:
        """Every observed signature, sorted."""
        return sorted(self._counts)

    def to_dict(self) -> Dict[str, int]:
        return {signature: self._counts[signature] for signature in sorted(self._counts)}

    def digest(self) -> str:
        """A stable hash of the signature *set* — the campaign's coverage
        fingerprint, comparable across runs and machines."""
        blob = "\n".join(self.signatures()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
