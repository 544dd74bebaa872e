"""Occupancy analysis: in-flight and live instruction distributions.

These helpers post-process the per-cycle occupancy statistics recorded by
the pipeline into the quantities Figures 7 and 11 of the paper report:
percentiles of the in-flight distribution (weighted by cycles) and the
average number of live (not-yet-issued) instructions, split into
"blocked behind a long-latency load" and "blocked for a short time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..core.result import SimulationResult

#: The percentiles the paper annotates in Figure 7.
FIGURE7_PERCENTILES = (0.10, 0.25, 0.50, 0.75, 0.90)


def _distribution_weights(result: SimulationResult, name: str) -> Dict[int, int]:
    """Extract the weighted distribution recorded under ``name``."""
    blob = result.stats.get(name)
    if not isinstance(blob, dict):
        return {}
    weights = blob.get("weights", {})
    if not isinstance(weights, dict):
        return {}
    return {int(value): int(count) for value, count in weights.items()}


def weighted_percentile(weights: Mapping[int, int], fraction: float) -> int:
    """Smallest value v such that at least ``fraction`` of the weight is <= v."""
    total = sum(weights.values())
    if total == 0:
        return 0
    target = fraction * total
    cumulative = 0
    for value in sorted(weights):
        cumulative += weights[value]
        if cumulative >= target:
            return value
    return max(weights)


def weighted_mean(weights: Mapping[int, int]) -> float:
    total = sum(weights.values())
    if total == 0:
        return 0.0
    return sum(value * count for value, count in weights.items()) / total


@dataclass
class OccupancyProfile:
    """Summary of one run's window occupancy (the Figure 7 quantities)."""

    workload: str
    in_flight_percentiles: Dict[float, int]
    mean_in_flight: float
    mean_live: float
    mean_live_fp_long: float
    mean_live_fp_short: float

    @property
    def live_fraction(self) -> float:
        """Live instructions as a fraction of in-flight instructions."""
        if self.mean_in_flight == 0:
            return 0.0
        return self.mean_live / self.mean_in_flight


def occupancy_profile(
    result: SimulationResult,
    percentiles: Sequence[float] = FIGURE7_PERCENTILES,
) -> OccupancyProfile:
    """Build the Figure-7 style occupancy profile of one simulation run."""
    weights = _distribution_weights(result, "occupancy.in_flight_dist")
    return OccupancyProfile(
        workload=result.workload,
        in_flight_percentiles={
            fraction: weighted_percentile(weights, fraction) for fraction in percentiles
        },
        mean_in_flight=result.mean_in_flight,
        mean_live=result.mean_live,
        mean_live_fp_long=result.mean_live_fp_long,
        mean_live_fp_short=result.mean_live_fp_short,
    )


def average_profiles(profiles: Sequence[OccupancyProfile]) -> OccupancyProfile:
    """Average several per-workload profiles (the paper averages SPEC2000fp)."""
    if not profiles:
        raise ValueError("need at least one profile to average")
    keys = profiles[0].in_flight_percentiles.keys()
    return OccupancyProfile(
        workload="average",
        in_flight_percentiles={
            key: int(sum(p.in_flight_percentiles.get(key, 0) for p in profiles) / len(profiles))
            for key in keys
        },
        mean_in_flight=sum(p.mean_in_flight for p in profiles) / len(profiles),
        mean_live=sum(p.mean_live for p in profiles) / len(profiles),
        mean_live_fp_long=sum(p.mean_live_fp_long for p in profiles) / len(profiles),
        mean_live_fp_short=sum(p.mean_live_fp_short for p in profiles) / len(profiles),
    )


def mean_in_flight(results: Sequence[SimulationResult]) -> float:
    """Average in-flight instruction count across runs (Figure 11 bars)."""
    if not results:
        return 0.0
    return sum(result.mean_in_flight for result in results) / len(results)
