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

    grid = api.run_many([cfg_a, cfg_b], suite="spec2000fp_like",
                        engine=SweepEngine(jobs=4))

Each knob is declared once, by the class that uses it: :func:`run`
passes its keywords to :class:`Simulation`, and :func:`run_many` runs
its grid on the :class:`~repro.experiments.sweep.SweepEngine` it is
given.  Four layers sit underneath:

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
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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

if TYPE_CHECKING:
    from .experiments.sweep import SweepEngine

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


def run(config: ProcessorConfig, trace: Trace, **options) -> SimulationResult:
    """Run one trace on one configuration — the canonical one-liner.

    ``options`` are :class:`Simulation`'s keywords (``probes``,
    ``sampling``, ``progress``, ...); an unknown one raises ``TypeError``.
    """
    return Simulation(config, **options).run(trace)


def run_many(
    configs: Sequence[ProcessorConfig],
    *,
    suite: str = "spec2000fp_like",
    scale: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    sampling: Optional[SamplingPlan] = None,
    name: str = "api-run-many",
    engine: Optional["SweepEngine"] = None,
) -> List[Tuple[ProcessorConfig, Dict[str, SimulationResult]]]:
    """Run every config over every workload of ``suite``; results in config order.

    The (config × workload) grid of ``suite`` (or of its ``workloads``)
    at ``scale`` executes on ``engine`` — a
    :class:`~repro.experiments.sweep.SweepEngine` carrying the worker
    count, result cache, progress reporter and fault-tolerance knobs —
    or on a serial, uncached one when omitted.  ``sampling`` applies a
    :class:`~repro.common.config.SamplingPlan` to every cell; sampled
    cells get their own cache keys, so sampled and exact results never
    collide.  Probes cannot cross process or cache boundaries: to observe
    runs, drive the traces through ``Simulation(config, probes=...)
    .run_suite(traces)`` instead.

    Returns ``[(config, {workload: result}), ...]`` in declared order.
    """
    from .experiments.runner import DEFAULT_SCALE
    from .experiments.sweep import SweepSpec, ensure_engine

    spec = SweepSpec(
        name,
        list(configs),
        scale=scale if scale is not None else DEFAULT_SCALE,
        suite=suite,
        workloads=workloads,
        sampling=sampling,
    )
    return list(ensure_engine(engine).run(spec).per_config())


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
    "get_machine",
    "get_suite",
    "get_workload",
    "load_trace",
    "machine_names",
    "machine_specs",
    "register_machine",
    "register_suite",
    "register_workload",
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
