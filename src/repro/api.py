"""The one front door to the simulator: configure, observe, run.

Everything the repository runs — the CLI, the experiment/figure modules,
the sweep engine, the examples — goes through this module, and so should
user code::

    from repro import api
    from repro.common.config import cooo_config

    result = api.run(cooo_config(iq_size=64), my_trace)

    sim = api.Simulation(
        cooo_config(iq_size=64),
        probes=[MyProbe()],                         # observe events
        progress=lambda p: print(p.cycle),          # periodic callback
        stop_when=lambda p: p.committed >= 10_000,  # early-stop predicate
    )
    results = sim.run_suite(traces)

    grid = api.run_many([cfg_a, cfg_b], suite="spec2000fp_like", jobs=4)

Four layers sit underneath:

* the **machine registry** (:mod:`repro.core.registry_machines`) maps
  ``config.mode`` to a registered pipeline class — new machines plug in
  via ``@register_machine`` with no edits here;
* the **workload registry** (:mod:`repro.workloads.registry`) maps
  workload and suite names to parameterized trace generators — new
  scenarios plug in via ``@register_workload``/``register_suite`` and
  are immediately sweepable (``run_many(suite="my-suite")``);
* the **probe API** (:mod:`repro.core.probes`) attaches observers to a
  pipeline without touching its timing;
* the **sweep engine** (:mod:`repro.experiments.sweep`) executes
  (config × workload) grids in parallel with a persistent result cache;
  :func:`run_many` is its friendly face.

Traces themselves round-trip through versioned gzip-JSON files
(:func:`save_trace`/:func:`load_trace`, ``repro trace`` on the command
line), so expensive workloads are generated once and replayed.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .common.config import ProcessorConfig, SamplingPlan
from .common.stats import StatsRegistry
from .core.probes import CallbackProbe, Probe
from .core.registry_machines import (
    MachineSpec,
    create_pipeline,
    get_machine,
    machine_names,
    machine_specs,
    register_machine,
    unregister_machine,
)
from .core.result import SimulationResult
from .core.sampling import run_sampled
from .trace.io import load_trace, save_trace, trace_info
from .trace.trace import Trace
from .workloads.registry import (
    SuiteSpec,
    WorkloadSpec,
    build_workload,
    get_suite,
    get_workload,
    register_suite,
    register_workload,
    suite_names,
    suite_specs,
    unregister_suite,
    unregister_workload,
    workload_names,
    workload_specs,
)

#: Cycles between ``progress`` callbacks (overridable per Simulation).
DEFAULT_PROGRESS_INTERVAL = 8192

#: Per-cycle callbacks receive the live pipeline object.
ProgressFn = Callable[[object], None]
StopFn = Callable[[object], bool]


class Simulation:
    """One configured machine plus how to observe and drive it.

    The constructor validates the config once; :meth:`run` builds a
    fresh pipeline per trace (simulations never share mutable state), so
    one ``Simulation`` can be reused across a whole suite.  ``probes``
    observe every run; the occupancy statistics of Figures 7/11 are
    recorded without any.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        *,
        probes: Sequence[Probe] = (),
        max_cycles: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
        stop_when: Optional[StopFn] = None,
        force_per_cycle: bool = False,
        sampling: Optional[SamplingPlan] = None,
        sample_jobs: Optional[int] = None,
        checkpoint_dir=None,
        checkpoint_max_bytes: Optional[int] = None,
        telemetry=None,
    ) -> None:
        self.config = config.validate()
        self.probes: List[Probe] = list(probes)
        self.max_cycles = max_cycles
        self.progress = progress
        if progress_interval < 1:
            raise ValueError(f"progress_interval must be >= 1, got {progress_interval}")
        self.progress_interval = progress_interval
        self.stop_when = stop_when
        #: Debug escape hatch: step every simulated cycle instead of the
        #: event-driven cycle-skipping kernel (results are bit-identical).
        self.force_per_cycle = force_per_cycle
        #: Opt-in statistical sampling (see :mod:`repro.core.sampling`):
        #: fast-forward between detailed windows and extrapolate IPC with
        #: a confidence interval.  ``None`` (the default) simulates every
        #: cycle exactly as before.
        if sampling is not None:
            sampling.validate()
            if stop_when is not None:
                raise ValueError(
                    "stop_when cannot be combined with sampling: a sampled run "
                    "is a sequence of window simulations, not one early-stoppable run"
                )
        self.sampling = sampling
        #: Opt-in execution knobs for sampled runs (see
        #: :func:`repro.core.sampling.run_sampled`): fan detailed windows
        #: out over ``sample_jobs`` worker processes and/or reuse the
        #: functional warm-up pass via keyed checkpoint files under
        #: ``checkpoint_dir``.  Pure performance levers — the result is
        #: bit-identical with or without them — so neither participates
        #: in any cache key.
        if sample_jobs is not None and sample_jobs < 1:
            raise ValueError(f"sample_jobs must be >= 1, got {sample_jobs}")
        if (sample_jobs is not None or checkpoint_dir is not None) and sampling is None:
            raise ValueError(
                "sample_jobs/checkpoint_dir only apply to sampled runs; pass a "
                "SamplingPlan via sampling="
            )
        self.sample_jobs = sample_jobs
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_max_bytes = checkpoint_max_bytes
        #: Opt-in observability (see :mod:`repro.telemetry`): a
        #: :class:`~repro.telemetry.TelemetrySession` whose probes attach
        #: to every run and whose tracer records per-phase spans.  ``None``
        #: (the default) attaches nothing and reads no clock — results are
        #: bit-identical either way, telemetry probes are pure observers.
        self.telemetry = telemetry

    @property
    def machine(self) -> MachineSpec:
        """The registered machine this simulation will instantiate."""
        return get_machine(self.config.mode)

    def attach(self, probe: Probe) -> "Simulation":
        """Add a probe to every future :meth:`run`; returns self to chain."""
        self.probes.append(probe)
        return self

    def pipeline(self, trace: Trace, stats: Optional[StatsRegistry] = None):
        """Build (but do not run) a pipeline — for step-by-step driving."""
        return create_pipeline(self.config, trace, stats, probes=self.probes)

    def run(self, trace: Trace, max_cycles: Optional[int] = None) -> SimulationResult:
        """Simulate ``trace`` to completion (or early stop) on a fresh pipeline."""
        probes = self.probes
        tracer = None
        if self.telemetry is not None:
            probes = [*probes, *self.telemetry.probes()]
            tracer = self.telemetry.tracer
        span = (
            tracer.span(
                f"simulate:{trace.name}",
                category="simulate",
                machine=self.config.name or self.config.mode,
                instructions=len(trace),
            )
            if tracer is not None
            else nullcontext()
        )
        with span:
            if self.sampling is not None:
                return run_sampled(
                    self.config,
                    trace,
                    self.sampling,
                    probes=probes,
                    force_per_cycle=self.force_per_cycle,
                    max_cycles=max_cycles if max_cycles is not None else self.max_cycles,
                    progress=self.progress,
                    progress_interval=self.progress_interval,
                    tracer=tracer,
                    parallel_windows=self.sample_jobs,
                    checkpoint_dir=self.checkpoint_dir,
                    checkpoint_max_bytes=self.checkpoint_max_bytes,
                )
            pipeline = create_pipeline(self.config, trace, None, probes=probes)
            return pipeline.run(
                max_cycles=max_cycles if max_cycles is not None else self.max_cycles,
                progress=self.progress,
                progress_interval=self.progress_interval,
                stop=self.stop_when,
                force_per_cycle=self.force_per_cycle,
            )

    def run_suite(
        self,
        traces: Mapping[str, Trace],
        max_cycles: Optional[int] = None,
    ) -> Dict[str, SimulationResult]:
        """Run every trace of a suite; results keyed by workload name."""
        return {name: self.run(trace, max_cycles) for name, trace in traces.items()}


def run(
    config: ProcessorConfig,
    trace: Trace,
    *,
    probes: Sequence[Probe] = (),
    max_cycles: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    stop_when: Optional[StopFn] = None,
    force_per_cycle: bool = False,
    sampling: Optional[SamplingPlan] = None,
    sample_jobs: Optional[int] = None,
    checkpoint_dir=None,
    checkpoint_max_bytes: Optional[int] = None,
    telemetry=None,
) -> SimulationResult:
    """Run one trace on one configuration — the canonical one-liner."""
    return Simulation(
        config,
        probes=probes,
        max_cycles=max_cycles,
        progress=progress,
        progress_interval=progress_interval,
        stop_when=stop_when,
        force_per_cycle=force_per_cycle,
        sampling=sampling,
        sample_jobs=sample_jobs,
        checkpoint_dir=checkpoint_dir,
        checkpoint_max_bytes=checkpoint_max_bytes,
        telemetry=telemetry,
    ).run(trace)


def run_many(
    configs: Sequence[ProcessorConfig],
    traces: Optional[Mapping[str, Trace]] = None,
    *,
    suite: str = "spec2000fp_like",
    scale: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache=None,
    use_cache: bool = True,
    probes: Sequence[Probe] = (),
    max_cycles: Optional[int] = None,
    stop_when: Optional[StopFn] = None,
    progress: Optional[Callable[[str], None]] = None,
    name: str = "api-run-many",
    sampling: Optional[SamplingPlan] = None,
    sample_jobs: Optional[int] = None,
    checkpoint_dir=None,
    telemetry=None,
    cell_timeout: Optional[float] = None,
    retry=None,
    injector=None,
    journal=None,
    resume: bool = False,
) -> List[Tuple[ProcessorConfig, Dict[str, SimulationResult]]]:
    """Run every config over every workload; results in config order.

    Two modes:

    * **Suite mode** (``traces`` omitted): the (config × workload) grid
      of ``suite`` at ``scale`` executes on the sweep engine — ``jobs``
      worker processes, optional persistent ``cache``
      (a :class:`~repro.experiments.sweep.ResultCache`), per-cell
      ``progress`` messages.  Probes cannot cross process/cache
      boundaries, so ``probes``/``stop_when``/``max_cycles`` must be
      unset.
    ``sampling`` applies a :class:`~repro.common.config.SamplingPlan` to
    every cell in either mode; sampled cells get their own cache keys,
    so sampled and exact results never collide.  ``sample_jobs`` and
    ``checkpoint_dir`` are the sampled-run performance levers (parallel
    detailed windows, reusable warm-state checkpoints — see
    :func:`repro.core.sampling.run_sampled`); results are bit-identical
    with or without them and cache keys are untouched.

    ``use_cache=False`` is a hard guard that forces every cell to
    simulate live, overriding any ``cache`` argument — validation runs
    (the fuzzer, the differential oracles) use it so their results can
    neither poison nor be poisoned by the persistent sweep cache.

    The fault-tolerance knobs (``cell_timeout``, ``retry``, ``injector``,
    ``journal``, ``resume``) apply to suite mode only and are handed to
    the :class:`~repro.experiments.sweep.SweepEngine` unchanged; see its
    docstring.  Explicit-trace mode rejects them, like ``jobs``/``cache``.

    * **Explicit-trace mode** (``traces`` given): each config runs the
      given traces serially in-process, with probe/early-stop support
      and no caching.  The *same* probe instances observe every
      (config, workload) run in sequence; a probe that resets its state
      in ``on_attach`` therefore ends holding only the last run's data —
      accumulate into external state (e.g. via ``CallbackProbe``) to
      gather across runs.

    Returns ``[(config, {workload: result}), ...]`` in declared order.
    """
    from .experiments.runner import DEFAULT_SCALE
    from .experiments.sweep import SweepEngine, SweepSpec

    if not use_cache:
        cache = None

    if traces is not None:
        if jobs != 1 or cache is not None:
            raise ValueError(
                "explicit traces run serially and uncached; use suite mode "
                "(omit traces) for jobs/cache"
            )
        if (
            cell_timeout is not None
            or retry is not None
            or injector is not None
            or journal is not None
            or resume
        ):
            raise ValueError(
                "cell_timeout/retry/injector/journal/resume apply to suite "
                "mode (omit traces); explicit traces run bare"
            )
        out: List[Tuple[ProcessorConfig, Dict[str, SimulationResult]]] = []
        for config in configs:
            sim = Simulation(
                config,
                probes=probes,
                max_cycles=max_cycles,
                stop_when=stop_when,
                sampling=sampling,
                sample_jobs=sample_jobs,
                checkpoint_dir=checkpoint_dir,
                telemetry=telemetry,
            )
            results: Dict[str, SimulationResult] = {}
            for workload, trace in traces.items():
                results[workload] = sim.run(trace)
                if progress is not None:
                    progress(
                        f"{config.name or config.mode} x {workload}: "
                        f"ipc={results[workload].ipc:.4f}"
                    )
            out.append((config, results))
        return out

    if probes or stop_when is not None or max_cycles is not None:
        raise ValueError(
            "probes/stop_when/max_cycles require explicit traces "
            "(suite mode fans out over processes and a persistent cache)"
        )
    spec = SweepSpec(
        name,
        list(configs),
        scale=scale if scale is not None else DEFAULT_SCALE,
        suite=suite,
        workloads=workloads,
        sampling=sampling,
    )
    engine = SweepEngine(
        jobs=jobs,
        cache=cache,
        progress=progress,
        telemetry=telemetry,
        cell_timeout=cell_timeout,
        retry=retry,
        injector=injector,
        journal=journal,
        resume=resume,
        sample_jobs=sample_jobs,
        checkpoint_dir=checkpoint_dir,
    )
    return list(engine.run(spec).per_config())


def fuzz(cases: int, *, seed: int = 0, **kwargs):
    """Run a coverage-guided differential fuzz campaign; see :mod:`repro.fuzz`.

    A thin face over :func:`repro.fuzz.run_fuzz` (imported lazily — the
    fuzzer sits above this module).  Campaigns always simulate live
    through :func:`run`; they never touch the persistent sweep cache.
    Returns a :class:`repro.fuzz.FuzzReport`.
    """
    from .fuzz import run_fuzz

    return run_fuzz(cases, seed=seed, **kwargs)


def lint(path=None, *, baseline=None):
    """Run the simulator-aware static analyzer; see :mod:`repro.analysis.lint`.

    A thin face over :class:`repro.analysis.lint.LintEngine` (imported
    lazily — the analyzer sits above this module).  Lints the installed
    ``repro`` package by default, or ``path`` when given.  Returns a
    :class:`repro.analysis.lint.LintReport`; ``report.ok`` is the gate
    CI enforces.
    """
    from .analysis.lint import LintEngine

    root = Path(path) if path is not None else None
    baseline_path = Path(baseline) if baseline is not None else None
    return LintEngine(root=root, baseline_path=baseline_path).run()


def replay_fuzz_corpus(directory, **kwargs):
    """Replay every fuzz repro file under ``directory``; see :mod:`repro.fuzz`.

    Returns ``[(path, [OracleVerdict, ...]), ...]`` in file-name order;
    every verdict of a healthy corpus is ``ok``.
    """
    from .fuzz import replay_corpus

    return replay_corpus(Path(directory), **kwargs)


__all__ = [
    "DEFAULT_PROGRESS_INTERVAL",
    "CallbackProbe",
    "MachineSpec",
    "Probe",
    "SamplingPlan",
    "Simulation",
    "SuiteSpec",
    "WorkloadSpec",
    "build_workload",
    "create_pipeline",
    "fuzz",
    "get_machine",
    "get_suite",
    "lint",
    "get_workload",
    "load_trace",
    "machine_names",
    "machine_specs",
    "register_machine",
    "register_suite",
    "register_workload",
    "replay_fuzz_corpus",
    "run",
    "run_many",
    "run_sampled",
    "save_trace",
    "suite_names",
    "suite_specs",
    "trace_info",
    "unregister_machine",
    "unregister_suite",
    "unregister_workload",
    "workload_names",
    "workload_specs",
]
