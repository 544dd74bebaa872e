"""Statistics collection for the simulator.

Every hardware model registers its counters, histograms and samplers in a
shared :class:`StatsRegistry`.  The registry is deliberately simple — a
flat namespace of named statistics — so the experiment harness can dump
everything into result tables without knowing which module produced which
number.

The simulator's hot paths update a statistic's fields in place
(``counter.value += 1``, one dict update of ``histogram.buckets``)
rather than calling its methods: an event happens several times per
simulated instruction, and a Python call costs more than the update.
The methods (``Counter.add``, ``RunningMean.sample``/``sample_many``,
``Histogram.add``, ``WeightedDistribution.sample``) stay for cold
callers — sampled execution, registry merges and tests — and define
what an in-place update must do.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing (or explicitly settable) scalar statistic.

    ``kind`` declares the counter's cross-registry merge rule: ``"sum"``
    counters accumulate, ``"peak"`` counters are high-watermarks that
    combine by maximum (e.g. register-file peak occupancy).  Declaring
    the rule at registration keeps per-window worker registries mergeable
    into a parent bit-exactly.
    """

    __slots__ = ("name", "value", "kind")

    def __init__(self, name: str, value: float = 0, kind: str = "sum") -> None:
        self.name = name
        self.value = value
        self.kind = kind

    def add(self, amount: float = 1) -> None:
        """Increment the counter by ``amount`` (default 1)."""
        self.value += amount

    def set(self, value: float) -> None:
        """Overwrite the counter value."""
        self.value = value

    def peak(self, value: float) -> None:
        """Raise the counter to ``value`` if it is a new high-watermark."""
        if value > self.value:
            self.value = value

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class RunningMean:
    """Streaming mean/min/max over sampled values (e.g. per-cycle occupancy)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def sample(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def sample_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same ``value``.

        Used by the event-driven simulation kernel to integrate a
        constant occupancy over a span of skipped cycles.  For integer
        samples (every occupancy is one) ``total`` accumulates exactly
        the same value as ``count`` individual :meth:`sample` calls, so
        skipped and per-cycle runs produce bit-identical means.
        """
        if count <= 0:
            return
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningMean({self.name}: mean={self.mean:.3f}, n={self.count})"


class Histogram:
    """A bucketed histogram keyed by integer (or string) bucket labels."""

    __slots__ = ("name", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[object, float] = {}

    def add(self, bucket: object, amount: float = 1) -> None:
        self.buckets[bucket] = self.buckets.get(bucket, 0) + amount

    def total(self) -> float:
        return sum(self.buckets.values())

    def fraction(self, bucket: object) -> float:
        """Fraction of all observations falling in ``bucket``."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.buckets.get(bucket, 0) / total

    def as_dict(self) -> Dict[object, float]:
        return dict(self.buckets)

    def reset(self) -> None:
        self.buckets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: {self.buckets})"


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted sequence.

    ``fraction`` is in [0, 1].  An empty sequence returns 0.0.
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0:
        return sorted_values[0]
    if fraction >= 1:
        return sorted_values[-1]
    position = fraction * (len(sorted_values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    interpolated = sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight
    # Clamp against floating-point rounding so the result always lies
    # between the two bracketing samples.
    return min(max(interpolated, sorted_values[lower]), sorted_values[upper])


class WeightedDistribution:
    """A distribution of values weighted by how many cycles each was observed.

    Used for the Figure 7 style "X% of the time the window held fewer than
    N instructions" percentile curves.
    """

    __slots__ = ("name", "weights")

    def __init__(self, name: str) -> None:
        self.name = name
        #: value -> total weight (cycles) it was observed for.
        self.weights: Dict[int, int] = {}

    def sample(self, value: int, weight: int = 1) -> None:
        self.weights[value] = self.weights.get(value, 0) + weight

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())

    def percentile(self, fraction: float) -> int:
        """Smallest value v such that at least ``fraction`` of the weight is <= v."""
        total = self.total_weight
        if total == 0:
            return 0
        target = fraction * total
        cumulative = 0
        for value in sorted(self.weights):
            cumulative += self.weights[value]
            if cumulative >= target:
                return value
        return max(self.weights)

    def mean(self) -> float:
        total = self.total_weight
        if total == 0:
            return 0.0
        return sum(v * w for v, w in self.weights.items()) / total

    def reset(self) -> None:
        self.weights.clear()


class StatsRegistry:
    """Flat namespace of statistics shared by all hardware models."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._means: Dict[str, RunningMean] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._distributions: Dict[str, WeightedDistribution] = {}

    # -- creation -----------------------------------------------------
    def counter(self, name: str, kind: str = "sum") -> Counter:
        """Return (creating if needed) the counter called ``name``.

        ``kind`` (``"sum"`` or ``"peak"``) only applies on creation; the
        model that registers a counter declares its merge rule once and
        every registry — parent or worker — registers it identically.
        """
        if name not in self._counters:
            self._counters[name] = Counter(name, kind=kind)
        return self._counters[name]

    def running_mean(self, name: str) -> RunningMean:
        if name not in self._means:
            self._means[name] = RunningMean(name)
        return self._means[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def distribution(self, name: str) -> WeightedDistribution:
        if name not in self._distributions:
            self._distributions[name] = WeightedDistribution(name)
        return self._distributions[name]

    # -- access -------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        """Value of counter ``name`` or ``default`` if it was never created."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def mean(self, name: str, default: float = 0.0) -> float:
        mean = self._means.get(name)
        return mean.mean if mean is not None else default

    def counters(self) -> Mapping[str, Counter]:
        return dict(self._counters)

    def histograms(self) -> Mapping[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """Serialise everything into plain Python values."""
        data: Dict[str, object] = {}
        for name, counter in self._counters.items():
            data[name] = counter.value
        for name, mean in self._means.items():
            data[name + ".mean"] = mean.mean
            data[name + ".max"] = mean.max
        for name, histogram in self._histograms.items():
            data[name] = histogram.as_dict()
        for name, dist in self._distributions.items():
            data[name] = {
                "weights": {int(k): v for k, v in dist.weights.items()},
                "mean": dist.mean(),
            }
        return data

    def reset(self) -> None:
        for group in (self._counters, self._means, self._histograms, self._distributions):
            for stat in group.values():
                stat.reset()

    # -- cross-process merge -------------------------------------------
    def dump_state(self) -> Dict[str, list]:
        """Raw internals of every statistic, in registration order.

        Unlike :meth:`snapshot` (which reduces means to ``.mean``/``.max``)
        this preserves the mergeable internals — counts, totals, bucket
        weights — so a registry populated in a worker process can be
        folded into the parent's registry by :meth:`merge_state` with the
        exact values a single shared registry would have accumulated.
        """
        return {
            "counters": [(name, c.value, c.kind) for name, c in self._counters.items()],
            "means": [
                (name, m.count, m.total, m.min, m.max) for name, m in self._means.items()
            ],
            "histograms": [
                (name, list(h.buckets.items())) for name, h in self._histograms.items()
            ],
            "distributions": [
                (name, list(d.weights.items())) for name, d in self._distributions.items()
            ],
        }

    def merge_state(self, state: Mapping[str, list]) -> None:
        """Fold a :meth:`dump_state` dump into this registry.

        Counters/totals/weights add; min/max combine.  Statistics the
        dump names but this registry lacks are created, in dump order, so
        merging per-window worker dumps in window order reproduces the
        registration order (and, for integer-valued statistics, the
        bit-exact values) of a serial run over the same windows.
        """
        for name, value, kind in state.get("counters", ()):
            counter = self.counter(name, kind)
            if kind == "peak":
                counter.peak(value)
            else:
                counter.value += value
        for name, count, total, minimum, maximum in state.get("means", ()):
            mean = self.running_mean(name)
            mean.count += count
            mean.total += total
            if minimum is not None and (mean.min is None or minimum < mean.min):
                mean.min = minimum
            if maximum is not None and (mean.max is None or maximum > mean.max):
                mean.max = maximum
        for name, buckets in state.get("histograms", ()):
            histogram = self.histogram(name)
            for bucket, amount in buckets:
                histogram.add(bucket, amount)
        for name, weights in state.get("distributions", ()):
            distribution = self.distribution(name)
            for value, weight in weights:
                distribution.sample(value, weight)


def ratio(numerator: float, denominator: float) -> float:
    """Safe division helper used all over the reporting code."""
    return numerator / denominator if denominator else 0.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; zero or negative inputs fall back to arithmetic mean."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return sum(values) / len(values)
    log_sum = sum(math.log(v) for v in values)
    return math.exp(log_sum / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def harmonic_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return len(values) / sum(1.0 / v for v in values)
