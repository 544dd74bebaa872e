"""Parallel sweep engine with a persistent on-disk result cache.

Every figure of the paper is an embarrassingly parallel grid of
``(ProcessorConfig, workload)`` cells: each cell is one independent
simulation whose result depends only on the configuration, the trace
generator, and the suite scale.  This module turns that observation into
infrastructure:

:class:`SweepSpec`
    A declarative description of a grid — an ordered list of
    configurations crossed with the workloads of a suite at a scale.

:class:`SweepEngine`
    Executes a spec's uncached cells on a fault-tolerant pool
    (:class:`repro.robustness.ResilientPool`), which runs them in the
    parent when it would start a single worker (``jobs=1``) and on
    worker processes otherwise.  Results always come back in declared
    cell order regardless of which worker finished first.

:class:`ResultCache`
    A persistent cache of finished cells, keyed by a stable content hash
    of (config, suite, workload, scale, simulator version).  Re-running
    a figure only simulates the cells whose inputs changed; everything
    else is loaded from disk.  Corrupt entries are detected, quarantined
    into a ``corrupt/`` subdirectory and transparently re-simulated.

The engine is additionally hardened on :mod:`repro.robustness` — all of
it strictly opt-in (a plain ``SweepEngine(jobs, cache)`` takes none of
these paths and produces bit-identical results and cache keys):

* ``cell_timeout`` arms a per-cell wall-clock watchdog — SIGALRM for
  cells run in the parent, deadline kills for cells run on workers;
* failed cells are retried under a :class:`~repro.robustness.RetryPolicy`
  and quarantined after the budget: the sweep *finishes*, reporting the
  holes in :attr:`SweepOutcome.failed_cells` instead of raising;
* dead workers are detected and respawned, and the pool degrades to
  in-parent execution when workers keep dying;
* a :class:`~repro.robustness.SweepJournal` records every finished cell
  durably, enabling ``resume=True`` (journaled cells are loaded from
  the cache, not re-simulated) and a clean Ctrl-C story: interruption
  raises :class:`~repro.common.errors.SweepInterrupted` carrying the
  completed/pending tally;
* a :class:`~repro.robustness.FaultInjector` drives all of the above
  deterministically from a seed, for tests and the chaos CI job.

Usage::

    from repro.experiments.sweep import ResultCache, SweepEngine, SweepSpec

    spec = SweepSpec("demo", [scaled_baseline(window=128)], scale=0.3)
    engine = SweepEngine(jobs=4, cache=ResultCache("~/.cache/repro/sweeps"))
    outcome = engine.run(spec)
    for config, results in outcome.per_config():
        print(config.name, {w: r.ipc for w, r in results.items()})
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..telemetry import TelemetrySession

from ..api import Simulation
from ..common import eviction
from ..common.config import ProcessorConfig, SamplingPlan
from ..common.errors import SweepInterrupted
from ..core.result import SimulationResult
from ..robustness import FaultInjector, ResilientPool, RetryPolicy, SweepJournal
from ..workloads.registry import get_suite
from .runner import DEFAULT_SCALE, suite_traces

#: Bumped whenever the cache file layout (not the simulator) changes.
CACHE_SCHEMA_VERSION = 1


def current_simulator_version() -> str:
    """``repro.__version__``, read at call time.

    Key building and version stamping must see the *current* value, not
    one bound at import: a version bump between imports (tests monkeypatch
    it; long-lived processes may reload config) has to invalidate keys
    immediately.
    """
    import repro

    return repro.__version__

#: Type of the optional per-cell progress callback.
ProgressFn = Callable[[str], None]


def default_cache_dir() -> Path:
    """Default location of the persistent result cache.

    ``REPRO_CACHE_DIR`` overrides it; otherwise results live under the
    user's cache directory so repeated figure regenerations share work.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "sweeps"


# ---------------------------------------------------------------------------
# Spec: the declarative grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One unit of work: simulate ``config`` over ``workload``'s trace."""

    index: int
    config: ProcessorConfig
    workload: str


@dataclass
class SweepSpec:
    """A declarative (config x workload) grid at one suite scale.

    ``configs`` order is preserved everywhere: cells enumerate
    config-major (all workloads of the first config, then the second...),
    matching how the figure modules assemble their result rows.
    """

    name: str
    configs: Sequence[ProcessorConfig]
    scale: float = DEFAULT_SCALE
    suite: str = "spec2000fp_like"
    workloads: Optional[Sequence[str]] = None
    #: Optional statistical-sampling plan applied to every cell; part of
    #: each cell's cache key, so sampled results never shadow exact ones.
    sampling: Optional[SamplingPlan] = None

    def workload_names(self) -> List[str]:
        """Resolved workload list (the whole suite unless filtered)."""
        names = get_suite(self.suite).names()
        if self.workloads is None:
            return names
        unknown = [w for w in self.workloads if w not in names]
        if unknown:
            raise KeyError(
                f"unknown workloads {unknown} for suite {self.suite!r}; members: {names}"
            )
        return list(self.workloads)

    def cells(self) -> List[SweepCell]:
        """Enumerate the grid in deterministic config-major order."""
        out: List[SweepCell] = []
        workloads = self.workload_names()
        for config in self.configs:
            for workload in workloads:
                out.append(SweepCell(len(out), config, workload))
        return out

    def __len__(self) -> int:
        return len(self.configs) * len(self.workload_names())


# ---------------------------------------------------------------------------
# Persistent result cache
# ---------------------------------------------------------------------------


def cell_cache_key(
    config: ProcessorConfig,
    suite: str,
    workload: str,
    scale: float,
    simulator_version: Optional[str] = None,
    sampling: Optional[SamplingPlan] = None,
    *,
    config_dict: Optional[Dict[str, object]] = None,
) -> str:
    """Stable content hash identifying one simulation cell.

    Any change to the configuration, the trace generator identity
    (suite + workload name), the scale, the sampling plan, or the
    simulator version yields a different key, so stale results can never
    be returned.  Workload and suite names come from the registry
    (:mod:`repro.workloads.registry`); registering new ones never
    perturbs existing keys, but a registered *name* must keep generating
    the same trace — change the behaviour, change the name (or bump
    ``repro.__version__``).  The ``sampling`` component is only added to
    the payload when a plan is set, so every pre-sampling cache key is
    byte-for-byte unchanged.

    ``config_dict`` is ``config.to_dict()`` when the caller already has
    it: a sweep serializes each distinct config once, not once per cell.
    """
    payload = {
        "config": config_dict if config_dict is not None else config.to_dict(),
        "suite": suite,
        "workload": workload,
        "scale": round(float(scale), 9),
        "simulator_version": (
            simulator_version
            if simulator_version is not None
            else current_simulator_version()
        ),
        "cache_schema": CACHE_SCHEMA_VERSION,
    }
    if sampling is not None:
        payload["sampling"] = sampling.to_dict()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of finished cells, one JSON file per cache key.

    Writes are atomic (temp file + ``os.replace``) so a crashed or
    concurrent run can never leave a half-written entry in place; reads
    treat any unreadable/inconsistent file as corrupt, move it into the
    ``corrupt/`` quarantine subdirectory (preserving the evidence for
    post-mortem instead of destroying it), and report a miss so the
    engine re-simulates the cell.

    The optional ``injector``/``fault_context`` attributes are fault-
    injection plumbing: when an injector is attached, ``store`` offers
    it the ``cache.store.crash`` site between the temp write and the
    atomic replace, and the ``cache.corrupt`` site after a successful
    store.  Both default to off; a cache without an injector takes the
    exact pre-robustness write path.

    ``max_bytes`` caps the store's on-disk size: after every store the
    least-recently-*used* entries (mtime order, refreshed on load hits —
    see :mod:`repro.common.eviction`, which warm-state checkpoint
    directories share) are deleted until the cap holds again.  ``None``
    (the default) keeps the store unbounded, the pre-cap behavior.
    """

    def __init__(self, cache_dir: os.PathLike, max_bytes: Optional[int] = None) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries deleted (and bytes freed) by LRU eviction under
        #: :attr:`max_bytes`.
        self.evictions = 0
        self.evicted_bytes = 0
        self.corrupt = 0
        #: Corrupt entries moved into :attr:`corrupt_dir` (vs unlinked
        #: when the move itself fails).
        self.quarantined = 0
        #: Optional :class:`~repro.robustness.FaultInjector`; see above.
        self.injector: Optional[FaultInjector] = None
        #: Decision context for the injector's cache sites.
        self.fault_context = ""

    @property
    def corrupt_dir(self) -> Path:
        """Quarantine directory for corrupt entries (created on demand)."""
        return self.cache_dir / "corrupt"

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the way; fall back to deletion."""
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.corrupt_dir / path.name)
            self.quarantined += 1
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def load(self, key: str) -> Optional[SimulationResult]:
        """Cached result for ``key``, or None on a miss or corrupt entry."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("key") != key:
                raise ValueError("cache entry key mismatch")
            result = SimulationResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Everything a truncated, hand-edited or wrong-shaped JSON file
            # can throw — including AttributeError when the top-level value
            # is valid JSON but not an object — counts as a corrupt entry:
            # quarantine it and report a miss so the cell is re-simulated.
            self.corrupt += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        eviction.touch(path)
        return result

    def store(self, key: str, result: SimulationResult) -> None:
        """Atomically persist ``result`` under ``key``.

        The destination either keeps its previous content or gets the
        complete new payload — a crash anywhere in here (including the
        injected ``cache.store.crash``) leaves at most an orphaned temp
        file, never a torn entry; the temp file is cleaned up on any
        non-fatal failure.
        """
        payload = {
            "key": key,
            "simulator_version": current_simulator_version(),
            "cache_schema": CACHE_SCHEMA_VERSION,
            "result": result.to_dict(),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        text = json.dumps(payload)
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                if self.injector is not None:
                    # Simulate the realistic torn write: half the payload
                    # durably on disk, then die before the atomic replace.
                    handle.write(text[: len(text) // 2])
                    handle.flush()
                    self.injector.store_crash_point(self.fault_context or key[:12])
                    handle.seek(0)
                    handle.truncate()
                handle.write(text)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.stores += 1
        if self.injector is not None:
            self.injector.corrupt_point(path, self.fault_context or key[:12])
        if self.max_bytes is not None:
            removed, freed = eviction.evict_lru(self.cache_dir, self.max_bytes, ".json")
            self.evictions += removed
            self.evicted_bytes += freed

    def clear(self) -> int:
        """Delete every cache entry (and orphaned temp files plus the
        corrupt quarantine); returns the number of entries removed."""
        removed = 0
        for path in self.cache_dir.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # Temp files orphaned by a crash between write and os.replace,
        # and quarantined corpses — neither counts as a cache entry.
        for path in self.cache_dir.glob("*.tmp.*"):
            try:
                path.unlink()
            except OSError:
                pass
        if self.corrupt_dir.is_dir():
            for path in self.corrupt_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------

#: :class:`ResultCache` counters a worker's copy of the cache reports back.
_CACHE_COUNTERS = (
    "hits", "misses", "stores", "evictions", "evicted_bytes", "corrupt", "quarantined"
)


@dataclass(frozen=True)
class CellTask:
    """One pending cell, as the pool runs it in the parent or on a worker.

    A worker receives a pickled copy, so the ``cache`` and ``injector``
    it touches are copies too; :func:`run_cell` reports their traffic
    in its meta dict for the parent to fold back.
    """

    config: ProcessorConfig
    suite: str
    scale: float
    workload: str
    sampling: Optional[SamplingPlan] = None
    cache: Optional[ResultCache] = None
    #: The cell's cache key (empty when the sweep computes none).
    key: str = ""
    injector: Optional[FaultInjector] = None
    checkpoint_dir: Optional[str] = None
    #: Window workers for a sampled cell (set only for in-parent cells).
    sample_jobs: Optional[int] = None

    @property
    def name(self) -> str:
        """``<config>x<workload>``: fault context and watchdog label."""
        return f"{self.config.name or self.config.mode}x{self.workload}"


def run_cell(task: CellTask, attempt: int) -> Tuple[SimulationResult, Dict[str, object]]:
    """Pool task function: load the cell from the cache, else simulate it.

    The cell looks its key up itself (another process may have finished
    it since the parent's lookup) and stores a fresh result.  Fault
    decisions use the context ``<name>:a<attempt>``, so a cell that
    failed on one attempt draws fresh on the next.  Returns ``(result,
    meta)``: the process id, the cell's wall-clock, whether it was a
    cache hit, and the cache counters and faults recorded during the
    cell, which the parent folds in when the cell ran elsewhere.
    """
    context = f"{task.name}:a{attempt}"
    started = time.perf_counter()
    cache, injector = task.cache, task.injector
    counters = [getattr(cache, name) for name in _CACHE_COUNTERS] if cache is not None else []
    fired = len(injector.fired) if injector is not None else 0
    if injector is not None:
        injector.crash_point(context)
    result = cache.load(task.key) if cache is not None else None
    hit = result is not None
    if result is None:
        probe = None
        if injector is not None:
            injector.hang_point(context)
            probe = injector.simulate_error_probe(context)
        trace = suite_traces(task.scale, task.suite, (task.workload,))[task.workload]
        result = Simulation(
            task.config,
            sampling=task.sampling,
            probes=(probe,) if probe is not None else (),
            # Probes cannot cross window-worker processes.
            sample_jobs=task.sample_jobs if probe is None else None,
            checkpoint_dir=task.checkpoint_dir,
        ).run(trace)
        if cache is not None:
            # Lend the injector: its store-crash and corrupt sites fire here.
            cache.injector, cache.fault_context = injector, context
            try:
                cache.store(task.key, result)
            finally:
                cache.injector, cache.fault_context = None, ""
    meta: Dict[str, object] = {
        "pid": os.getpid(),
        "elapsed": time.perf_counter() - started,
        "cache_hit": hit,
        "cache": {
            name: getattr(cache, name) - before
            for name, before in zip(_CACHE_COUNTERS, counters)
        },
        "faults": injector.fired[fired:] if injector is not None else [],
    }
    return result, meta


def _workload_major(
    cells: Sequence[SweepCell],
    slots: Sequence[Optional[SimulationResult]],
    spec: SweepSpec,
) -> List[SweepCell]:
    """Pending cells reordered workload-major for worker trace locality.

    Specs enumerate config-major, which hands a round-robin pool one
    cell of *every* workload — each worker then rebuilds each trace
    instead of hitting its per-process trace memo
    (:func:`~repro.experiments.runner.suite_traces`).
    Grouping all configs of one workload together (stable, so config
    order within a workload is preserved) makes consecutive tasks share
    a trace; results still land in declared order via ``cell.index``.
    """
    order = {name: rank for rank, name in enumerate(spec.workload_names())}
    pending = [cell for cell in cells if slots[cell.index] is None]
    pending.sort(key=lambda cell: order.get(cell.workload, len(order)))
    return pending


def _locality_chunksize(pending: Sequence[SweepCell], workers: int) -> int:
    """An ``imap`` chunk size that keeps one workload's run on one worker.

    A chunk should cover several same-workload cells (so the worker's
    trace cache pays off) but never much more than one workload's run
    (so the tail doesn't serialize on one worker).
    """
    if not pending or workers < 1:
        return 1
    per_workload = len(pending) // max(1, len({cell.workload for cell in pending}))
    fair_share = -(-len(pending) // workers)  # ceil division
    return max(1, min(per_workload, fair_share))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    """Results of one executed spec, in declared cell order.

    ``results`` is full-length — one slot per declared cell — and a
    slot is ``None`` only for a quarantined cell (impossible without a
    fault injector or a genuinely poisoned cell; fault-free sweeps are
    always complete).  Quarantined cells are itemized in
    ``failed_cells`` so callers report holes instead of crashing on
    them.
    """

    spec: SweepSpec
    results: List[Optional[SimulationResult]]
    simulated: int = 0
    cached: int = 0
    elapsed: float = 0.0
    #: Persistent-cache traffic across the whole sweep, parent lookups
    #: *plus* worker-side lookups (which used to be silently dropped).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Entries LRU-evicted from a size-capped cache during this sweep
    #: (parent- and worker-side stores combined).
    cache_evictions: int = 0
    #: Sum of per-cell wall-clock; divided by ``elapsed * workers`` this
    #: is the pool utilization.
    worker_busy: float = 0.0
    #: One dict per quarantined cell: ``{"index", "config", "workload",
    #: "key", "attempts", "errors"}`` — the partial-result report.
    failed_cells: List[Dict[str, object]] = field(default_factory=list)
    #: Cell attempts re-run after a failure (any cause).
    retries: int = 0
    #: Cells loaded from cache because a resume journal recorded them.
    resumed: int = 0
    #: Worker processes that died and were respawned (parallel only).
    worker_deaths: int = 0
    #: Cells killed by the per-cell wall-clock watchdog.
    timeouts: int = 0
    #: True when the pool gave up on workers and finished in the parent.
    degraded: bool = False
    _by_config: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)

    @property
    def quarantined(self) -> int:
        """Number of cells that exhausted their retry budget."""
        return len(self.failed_cells)

    def __post_init__(self) -> None:
        if not self._by_config:
            workloads = self.spec.workload_names()
            for i, config in enumerate(self.spec.configs):
                block = self.results[i * len(workloads) : (i + 1) * len(workloads)]
                self._by_config[config.stable_hash()] = {
                    workload: result
                    for workload, result in zip(workloads, block)
                    if result is not None
                }

    def config_results(self, config: ProcessorConfig) -> Dict[str, SimulationResult]:
        """Per-workload results of one configuration of the spec."""
        try:
            return self._by_config[config.stable_hash()]
        except KeyError as exc:
            raise KeyError(
                f"config {config.name or config.mode!r} is not part of sweep "
                f"{self.spec.name!r}"
            ) from exc

    def per_config(self) -> Iterator[Tuple[ProcessorConfig, Dict[str, SimulationResult]]]:
        """Iterate (config, per-workload results) in declared order."""
        for config in self.spec.configs:
            yield config, self.config_results(config)


class SweepEngine:
    """Executes :class:`SweepSpec`s, optionally in parallel and cached.

    Every uncached cell runs :func:`run_cell` (through
    :class:`repro.api.Simulation`, the unified facade) on a
    fault-tolerant :class:`~repro.robustness.ResilientPool` of
    ``min(jobs, cells)`` workers, which runs in-process when that is
    one.  The simulator is deterministic pure Python, so results do not
    depend on ``jobs``.  ``jobs=None`` uses every available CPU.

    The keyword-only robustness knobs live on the engine, not the spec,
    because none of them may influence a cell's identity (cache keys
    hash the spec): ``cell_timeout`` arms per-cell watchdogs, ``retry``
    bounds re-attempts before quarantine, ``journal`` records durable
    progress for ``resume=True``, ``injector`` drives deterministic
    chaos, and ``max_worker_deaths`` caps pool rebuilds before the
    engine degrades to in-parent execution.  All default to off.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        telemetry: Optional["TelemetrySession"] = None,
        *,
        cell_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        journal: Optional[SweepJournal] = None,
        resume: bool = False,
        max_worker_deaths: Optional[int] = None,
        sample_jobs: Optional[int] = None,
        checkpoint_dir=None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.telemetry = telemetry
        self.cell_timeout = cell_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self.journal = journal
        self.resume = resume
        self.max_worker_deaths = max_worker_deaths
        #: Sampled-run performance levers (see
        #: :func:`repro.core.sampling.run_sampled`), engine-side like the
        #: robustness knobs because they may not influence cell identity
        #: — cache keys are byte-identical with or without them.
        #: ``sample_jobs`` fans each sampled cell's detailed windows over
        #: worker processes (applied to cells run in the parent only;
        #: parallel sweeps already saturate the machine with cells), and
        #: ``checkpoint_dir`` lets every cell sharing warm-relevant
        #: parameters reuse one functional warm-up pass.
        if sample_jobs is not None and sample_jobs < 1:
            raise ValueError(f"sample_jobs must be >= 1, got {sample_jobs}")
        self.sample_jobs = sample_jobs
        self.checkpoint_dir = checkpoint_dir
        # Cumulative counters across every run() of this engine.
        self.total_simulated = 0
        self.total_cached = 0

    def _span(self, name: str, *, category: str, **args: object):
        """A tracer span when telemetry is attached, else a no-op scope."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.tracer.span(name, category=category, **args)

    # -- internals ----------------------------------------------------------
    def _report(self, done: int, total: int, cell: SweepCell, source: str) -> None:
        if self.progress is not None:
            config_name = cell.config.name or cell.config.mode
            self.progress(f"[{done}/{total}] {config_name} x {cell.workload}: {source}")

    def _load_cached(
        self, cells: Sequence[SweepCell], spec: SweepSpec
    ) -> Tuple[List[Optional[SimulationResult]], List[str]]:
        """Fill cache hits; returns (slots, per-cell cache keys).

        Keys are computed whenever the cache *or* the journal needs them
        (journal records identify cells by key); a bare engine computes
        none, exactly as before the robustness work.
        """
        slots: List[Optional[SimulationResult]] = [None] * len(cells)
        if self.cache is None and self.journal is None:
            return slots, [""] * len(cells)
        # Cells of one config share its object, and its serialization.
        config_dicts: Dict[int, Dict[str, object]] = {}
        keys: List[str] = []
        for cell in cells:
            config_dict = config_dicts.get(id(cell.config))
            if config_dict is None:
                config_dict = config_dicts[id(cell.config)] = cell.config.to_dict()
            keys.append(
                cell_cache_key(
                    cell.config,
                    spec.suite,
                    cell.workload,
                    spec.scale,
                    sampling=spec.sampling,
                    config_dict=config_dict,
                )
            )
        if self.cache is not None:
            for cell in cells:
                slots[cell.index] = self.cache.load(keys[cell.index])
        return slots, keys

    def _journal_append(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _quarantine_cell(
        self, cell: SweepCell, key: str, attempts: int, errors: List[str], rstats: Dict
    ) -> None:
        config_name = cell.config.name or cell.config.mode
        entry: Dict[str, object] = {
            "index": cell.index,
            "config": config_name,
            "workload": cell.workload,
            "key": key,
            "attempts": attempts,
            "errors": list(errors),
        }
        rstats["failed"].append(entry)
        self._journal_append(
            {
                "event": "cell-quarantined",
                "index": cell.index,
                "key": key,
                "attempts": attempts,
                "errors": list(errors),
            }
        )

    def _run_pool(
        self,
        spec: SweepSpec,
        cells: Sequence[SweepCell],
        slots: List[Optional[SimulationResult]],
        keys: Sequence[str],
        rstats: Dict[str, object],
    ) -> Dict[str, float]:
        """Run the uncached cells on the pool; returns the cells' own
        cache ``hits`` and summed wall-clock (``busy``)."""
        pending = _workload_major(cells, slots, spec)
        workers = min(self.jobs, len(pending))
        sampled = spec.sampling is not None
        checkpoint_dir = (
            str(self.checkpoint_dir) if sampled and self.checkpoint_dir is not None else None
        )
        # Window workers only for cells run in the parent: worker cells
        # already keep every CPU busy.
        sample_jobs = self.sample_jobs if sampled and workers == 1 else None
        by_index = {cell.index: cell for cell in pending}
        tasks = []
        for cell in pending:
            task = CellTask(
                cell.config,
                spec.suite,
                spec.scale,
                cell.workload,
                spec.sampling,
                self.cache,
                keys[cell.index],
                self.injector,
                checkpoint_dir,
                sample_jobs,
            )
            tasks.append((cell.index, task, task.name))
        stats = {"hits": 0.0, "busy": 0.0}
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        base = tracer.clock.now() if tracer is not None else 0.0
        worker_tids: Dict[object, int] = {}
        worker_offsets: Dict[int, float] = {}
        parent_pid = os.getpid()
        done = sum(1 for slot in slots if slot is not None)

        def on_event(kind: str, **info) -> None:
            nonlocal done
            if kind == "result":
                index = info["task_id"]
                result, meta = info["value"]
                cell = by_index[index]
                slots[index] = result
                hit = bool(meta["cache_hit"])
                elapsed = float(meta["elapsed"])  # type: ignore[arg-type]
                stats["busy"] += elapsed
                stats["hits"] += hit
                if meta["pid"] != parent_pid:
                    # The cell ran on a worker's copies of the cache and
                    # injector: fold their traffic into the real ones.
                    if self.cache is not None:
                        for name, delta in meta["cache"].items():  # type: ignore[attr-defined]
                            setattr(self.cache, name, getattr(self.cache, name) + delta)
                    if self.injector is not None:
                        self.injector.fired.extend(meta["faults"])  # type: ignore[arg-type]
                config_name = cell.config.name or cell.config.mode
                if tracer is not None:
                    tid = worker_tids.setdefault(meta["pid"], len(worker_tids) + 1)
                    start = base + worker_offsets.get(tid, 0.0)
                    worker_offsets[tid] = worker_offsets.get(tid, 0.0) + elapsed
                    tracer.add_span(
                        f"cell:{config_name}x{cell.workload}",
                        start,
                        elapsed,
                        category="cell",
                        tid=tid,
                        workload=cell.workload,
                        cached=hit,
                    )
                done += 1
                self._journal_append(
                    {
                        "event": "cell-done",
                        "index": index,
                        "key": keys[index],
                        "workload": cell.workload,
                        "config": config_name,
                        "source": "cache" if hit else "simulated",
                    }
                )
                source = "cache hit (cell lookup)" if hit else f"simulated ipc={result.ipc:.4f}"
                self._report(done, len(cells), cell, source)
                if self.injector is not None and not info.get("drained"):
                    self.injector.sigint_point(f"collect:{done}")
            elif kind == "task-error":
                cell = by_index[info["task_id"]]
                self._journal_append(
                    {
                        "event": "cell-failed",
                        "index": cell.index,
                        "key": keys[cell.index],
                        "attempt": info["attempt"],
                        "error": info["error"],
                    }
                )
            elif kind == "quarantine":
                cell = by_index[info["task_id"]]
                self._quarantine_cell(
                    cell,
                    keys[cell.index],
                    int(info["attempts"]),
                    list(info["errors"]),
                    rstats,
                )
                self._report(
                    done, len(cells), cell, f"quarantined after {info['attempts']} attempt(s)"
                )
            elif kind == "worker-death" and self.progress is not None:
                self.progress(
                    f"worker pid {info.get('pid')} died "
                    f"({info.get('deaths')} death(s) so far); respawning"
                )
            elif kind == "degrade" and self.progress is not None:
                self.progress(
                    f"pool kept dying; finishing {info.get('remaining')} "
                    "cell(s) in the parent"
                )

        pool = ResilientPool(
            run_cell,
            workers,
            cell_timeout=self.cell_timeout,
            retry=self.retry,
            max_worker_deaths=self.max_worker_deaths,
            on_event=on_event,
        )
        pool_started = time.perf_counter()
        pool_outcome = pool.run(tasks, chunksize=_locality_chunksize(pending, workers))
        pool_elapsed = time.perf_counter() - pool_started
        rstats["retries"] += pool_outcome.retries  # type: ignore[operator]
        rstats["timeouts"] += pool_outcome.timeouts  # type: ignore[operator]
        rstats["worker_deaths"] += pool_outcome.worker_deaths  # type: ignore[operator]
        rstats["degraded"] = bool(rstats["degraded"]) or pool_outcome.degraded
        if self.telemetry is not None and pool_elapsed > 0:
            metrics = self.telemetry.metrics
            metrics.gauge("sweep.workers").set(float(workers))
            metrics.gauge("sweep.worker_utilization").set(
                round(stats["busy"] / (pool_elapsed * workers), 4)
            )
            for elapsed_cell in worker_offsets.values():
                metrics.histogram("sweep.worker_busy_ms").observe(
                    int(elapsed_cell * 1000)
                )
        return stats

    def _apply_resume(
        self,
        cells: Sequence[SweepCell],
        slots: Sequence[Optional[SimulationResult]],
        keys: Sequence[str],
    ) -> int:
        """Count cells recovered via the resume journal.

        A journaled cell is *expected* in the result cache (the journal
        records intent, the cache holds the bits); one that went missing
        from the cache is simply re-simulated, so resume verification is
        the intersection of journaled keys with this spec's keys — a
        journal from a different sweep can never skip anything.
        """
        if not self.resume or self.journal is None or not self.journal.exists():
            return 0
        completed = self.journal.completed_keys()
        if not completed:
            return 0
        return sum(
            1
            for cell in cells
            if keys[cell.index]
            and keys[cell.index] in completed
            and slots[cell.index] is not None
        )

    # -- public API ---------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepOutcome:
        """Execute every cell of ``spec``; results in declared order.

        Quarantined cells leave ``None`` holes and are itemized in
        :attr:`SweepOutcome.failed_cells` — a partial sweep returns, it
        does not raise.  Interruption (Ctrl-C or the injected SIGINT
        site) raises :class:`SweepInterrupted` after journaling the
        completed/pending tally.
        """
        start = time.perf_counter()
        cells = spec.cells()
        rstats: Dict[str, object] = {
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
            "degraded": False,
            "failed": [],
        }
        with self._span(
            f"sweep:{spec.name}", category="sweep", cells=len(cells), jobs=self.jobs
        ):
            with self._span("cache:lookup", category="cache", cells=len(cells)):
                slots, keys = self._load_cached(cells, spec)
            resumed = self._apply_resume(cells, slots, keys)
            if self.journal is not None:
                if resumed:
                    self._journal_append(
                        {"event": "sweep-resume", "sweep": spec.name, "completed": resumed}
                    )
                else:
                    digest = hashlib.sha256("".join(keys).encode("utf-8")).hexdigest()
                    self._journal_append(
                        {
                            "event": "sweep-start",
                            "sweep": spec.name,
                            "suite": spec.suite,
                            "scale": round(float(spec.scale), 9),
                            "cells": len(cells),
                            "keys_digest": digest,
                        }
                    )
            cached = 0
            for cell in cells:
                if slots[cell.index] is not None:
                    cached += 1
                    self._report(cached, len(cells), cell, "cache hit")
                    config_name = cell.config.name or cell.config.mode
                    self._journal_append(
                        {
                            "event": "cell-done",
                            "index": cell.index,
                            "key": keys[cell.index],
                            "workload": cell.workload,
                            "config": config_name,
                            "source": "cache",
                        }
                    )
            pool_stats = {"hits": 0.0, "busy": 0.0}
            evictions_before = self.cache.evictions if self.cache is not None else 0
            try:
                if cached < len(cells):
                    pool_stats = self._run_pool(spec, cells, slots, keys, rstats)
            except KeyboardInterrupt:
                completed = sum(1 for slot in slots if slot is not None)
                pending = len(cells) - completed
                self._journal_append(
                    {
                        "event": "sweep-interrupted",
                        "completed": completed,
                        "pending": pending,
                    }
                )
                raise SweepInterrupted(
                    completed,
                    pending,
                    journal=self.journal.path if self.journal is not None else None,
                ) from None
        failed = list(rstats["failed"])  # type: ignore[call-overload]
        failed_indexes = {int(entry["index"]) for entry in failed}
        lost = [
            cell.index
            for cell in cells
            if slots[cell.index] is None and cell.index not in failed_indexes
        ]
        if lost:  # pragma: no cover - defensive
            raise RuntimeError(f"sweep {spec.name!r} lost {len(lost)} cells")
        cached += int(pool_stats["hits"])
        simulated = len(cells) - cached - len(failed_indexes)
        self.total_simulated += simulated
        self.total_cached += cached
        cache_hits = cached if self.cache is not None else 0
        cache_misses = (
            len(cells) - cache_hits if self.cache is not None else 0
        )
        cache_evictions = (
            self.cache.evictions - evictions_before if self.cache is not None else 0
        )
        fault_count = len(self.injector.fired) if self.injector is not None else 0
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter("sweep.cells_simulated").add(simulated)
            metrics.counter("sweep.cells_cached").add(cached)
            if self.cache is not None:
                metrics.counter("cache.hits").add(cache_hits)
                metrics.counter("cache.misses").add(cache_misses)
                if cache_evictions:
                    metrics.counter("cache.evictions").add(cache_evictions)
            # Robustness counters appear only when the machinery engaged,
            # so fault-free telemetry output is byte-identical.
            if rstats["retries"]:
                metrics.counter("sweep.retries").add(int(rstats["retries"]))  # type: ignore[arg-type]
            if failed:
                metrics.counter("sweep.quarantined_cells").add(len(failed))
            if rstats["worker_deaths"]:
                metrics.counter("sweep.worker_deaths").add(int(rstats["worker_deaths"]))  # type: ignore[arg-type]
            if rstats["timeouts"]:
                metrics.counter("sweep.watchdog_timeouts").add(int(rstats["timeouts"]))  # type: ignore[arg-type]
            if fault_count:
                metrics.counter("faults.injected").add(fault_count)
        self._journal_append(
            {
                "event": "sweep-end",
                "sweep": spec.name,
                "simulated": simulated,
                "cached": cached,
                "quarantined": len(failed),
            }
        )
        return SweepOutcome(
            spec=spec,
            results=list(slots),
            simulated=simulated,
            cached=cached,
            elapsed=time.perf_counter() - start,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_evictions=cache_evictions,
            worker_busy=pool_stats["busy"],
            failed_cells=failed,
            retries=int(rstats["retries"]),  # type: ignore[arg-type]
            resumed=resumed,
            worker_deaths=int(rstats["worker_deaths"]),  # type: ignore[arg-type]
            timeouts=int(rstats["timeouts"]),  # type: ignore[arg-type]
            degraded=bool(rstats["degraded"]),
        )


def ensure_engine(engine: Optional[SweepEngine]) -> SweepEngine:
    """Default serial, uncached engine when a figure is called without one."""
    return engine if engine is not None else SweepEngine()
