"""Simulation results: the numbers every experiment consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..common.config import ProcessorConfig
from ..common.stats import StatsRegistry, ratio


def _int_key(key: object) -> object:
    """``key`` as an int if it is a digit string (a JSON-stringified int)."""
    if isinstance(key, str) and (key.isdigit() or (key.startswith("-") and key[1:].isdigit())):
        return int(key)
    return key


def _restore_int_keys(value: object) -> object:
    """Undo JSON's stringification of integer dict keys, recursively.

    Histogram buckets may be keyed by int; after a JSON round trip those
    keys come back as digit strings.  Numeric-looking string keys are
    therefore assumed to have been ints: the shipped machines never label
    buckets with digit strings, and custom stats that did would see those
    labels coerced on a cache load.
    """
    if isinstance(value, dict):
        return {_int_key(key): _restore_int_keys(item) for key, item in value.items()}
    return value


def _restore_stats(stats: Dict[str, object]) -> Dict[object, object]:
    """A JSON-loaded stats blob with its integer keys restored.

    A distribution (``{"weights": {...}, "mean": x}``, as
    :meth:`StatsRegistry.snapshot` writes it) keys its weights by int, so
    they convert with ``int(key)`` directly: one comprehension instead of a
    recursive call per weight.  A weight key that is not an integer raises
    ``ValueError``, which makes a cache entry corrupt.  Every other
    dict-valued stat takes the generic :func:`_restore_int_keys` walk.
    """
    restored: Dict[object, object] = {}
    for name, value in stats.items():
        if isinstance(value, dict):
            weights = value.get("weights")
            if type(weights) is dict and len(value) == 2 and "mean" in value:
                value = {
                    "weights": {int(key): weight for key, weight in weights.items()},
                    "mean": value["mean"],
                }
            else:
                value = _restore_int_keys(value)
        restored[_int_key(name)] = value
    return restored


@dataclass(slots=True)
class SimulationResult:
    """Summary of one simulation run (one config × one trace).

    For a **sampled** run (``sampled=True``) the scalar fields cover the
    *measured* portion only: ``cycles`` and ``committed_instructions``
    sum over the detailed measurement windows, so :attr:`ipc` is the
    sampled IPC estimator (the instruction-weighted ratio estimator),
    ``windows`` records each window's position and per-window IPC, and
    ``ipc_ci95`` is the half-width of the 95% confidence interval on the
    extrapolated IPC.  ``stats`` covers detailed execution (warmup
    included); fast-forwarded instructions only appear under the
    ``sampling.*`` counters.
    """

    config_name: str
    mode: str
    workload: str
    cycles: int
    committed_instructions: int
    fetched_instructions: int
    stats: Dict[str, object] = field(default_factory=dict)
    #: True when this result was extrapolated from detailed sample windows.
    sampled: bool = False
    #: Per-window records: {start, instructions, cycles, ipc}.
    windows: List[Dict[str, object]] = field(default_factory=list)
    #: Half-width of the 95% CI on :attr:`ipc` (0.0 for exact runs).
    ipc_ci95: float = 0.0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle — the paper's figure of merit.

        For sampled runs this is the extrapolated estimate; the true IPC
        lies within :attr:`ipc_interval` with ~95% confidence (assuming
        window IPCs are identically distributed — see the architecture
        docs for when that assumption breaks).
        """
        return ratio(self.committed_instructions, self.cycles)

    @property
    def ipc_interval(self) -> Tuple[float, float]:
        """(low, high) 95% confidence bounds on :attr:`ipc`."""
        return (max(0.0, self.ipc - self.ipc_ci95), self.ipc + self.ipc_ci95)

    @property
    def replay_overhead(self) -> float:
        """Fetched / committed: > 1 means rollback re-execution happened."""
        return ratio(self.fetched_instructions, self.committed_instructions)

    # -- common derived metrics -------------------------------------------------
    def stat(self, name: str, default: float = 0.0) -> float:
        value = self.stats.get(name, default)
        return float(value) if isinstance(value, (int, float)) else default

    @property
    def l2_miss_loads(self) -> float:
        return self.stat("mem.l2_miss_loads")

    @property
    def l2_load_miss_fraction(self) -> float:
        return ratio(self.stat("mem.l2_miss_loads"), self.stat("mem.loads"))

    @property
    def branch_accuracy(self) -> float:
        predictions = self.stat("branch.predictions")
        if not predictions:
            return 1.0
        return 1.0 - self.stat("branch.mispredictions") / predictions

    @property
    def mean_in_flight(self) -> float:
        return self.stat("occupancy.in_flight.mean")

    @property
    def mean_live(self) -> float:
        return self.stat("occupancy.live.mean")

    @property
    def mean_live_fp_long(self) -> float:
        return self.stat("occupancy.live_fp_long.mean")

    @property
    def mean_live_fp_short(self) -> float:
        return self.stat("occupancy.live_fp_short.mean")

    @property
    def checkpoints_created(self) -> float:
        return self.stat("checkpoint.created")

    def pseudo_rob_breakdown(self) -> Dict[str, float]:
        """Fractions of each retirement class (Figure 12)."""
        histogram = self.stats.get("pseudo_rob.retire_class", {})
        if not isinstance(histogram, dict):
            return {}
        total = sum(histogram.values())
        if not total:
            return {}
        return {str(key): value / total for key, value in histogram.items()}

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view, round-trippable via :meth:`from_dict`.

        JSON stringifies the integer keys inside nested stats blobs
        (distribution weights, histogram buckets); :meth:`from_dict`
        restores them, so a cached result is bit-identical to a freshly
        simulated one.  The sampling fields are only emitted for sampled
        runs, keeping exact-run cache files byte-identical to earlier
        releases.
        """
        data: Dict[str, object] = {
            "config_name": self.config_name,
            "mode": self.mode,
            "workload": self.workload,
            "cycles": self.cycles,
            "committed_instructions": self.committed_instructions,
            "fetched_instructions": self.fetched_instructions,
            "stats": self.stats,
        }
        if self.sampled:
            data["sampled"] = True
            data["windows"] = self.windows
            data["ipc_ci95"] = self.ipc_ci95
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a cache file)."""
        return cls(
            config_name=str(data["config_name"]),
            mode=str(data["mode"]),
            workload=str(data["workload"]),
            cycles=int(data["cycles"]),  # type: ignore[arg-type]
            committed_instructions=int(data["committed_instructions"]),  # type: ignore[arg-type]
            fetched_instructions=int(data["fetched_instructions"]),  # type: ignore[arg-type]
            stats=_restore_stats(dict(data.get("stats") or {})),  # type: ignore[arg-type]
            sampled=bool(data.get("sampled", False)),
            windows=[dict(window) for window in data.get("windows") or []],  # type: ignore[union-attr]
            ipc_ci95=float(data.get("ipc_ci95", 0.0) or 0.0),  # type: ignore[arg-type]
        )

    def summary_row(self) -> Dict[str, object]:
        """Flat row used by the experiment report tables."""
        return {
            "config": self.config_name,
            "mode": self.mode,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.committed_instructions,
            "ipc": round(self.ipc, 4),
            "in_flight": round(self.mean_in_flight, 1),
            "branch_accuracy": round(self.branch_accuracy, 4),
            "l2_load_miss_fraction": round(self.l2_load_miss_fraction, 4),
        }


def build_result(
    config: ProcessorConfig,
    workload: str,
    cycles: int,
    committed: int,
    fetched: int,
    stats: StatsRegistry,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished pipeline."""
    return SimulationResult(
        config_name=config.name or config.mode,
        mode=config.mode,
        workload=workload,
        cycles=cycles,
        committed_instructions=committed,
        fetched_instructions=fetched,
        stats=stats.snapshot(),
    )
