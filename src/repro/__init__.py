"""repro — a reproduction of "Out-of-Order Commit Processors" (HPCA 2004).

The package provides a cycle-level superscalar simulator with two
machines — a conventional ROB baseline and the paper's checkpoint-based
out-of-order-commit machine with Slow Lane Instruction Queuing — plus the
synthetic SPEC2000fp-like workloads and the experiment harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import api, cooo_config, scaled_baseline, spec2000fp_like

    traces = spec2000fp_like(scale=0.3)
    baseline = scaled_baseline(window=128, memory_latency=500)
    cooo = cooo_config(iq_size=64, sliq_size=1024, memory_latency=500)
    for name, trace in traces.items():
        print(name, api.run(baseline, trace).ipc, api.run(cooo, trace).ipc)

The :mod:`repro.api` facade is the front door (``Simulation``, ``run``,
``run_many``); machine organizations are pluggable through
:mod:`repro.core.registry_machines` and observation happens through
:mod:`repro.core.probes`.
"""

from .common.config import (
    BranchConfig,
    CacheConfig,
    CheckpointConfig,
    CoreConfig,
    FunctionalUnitConfig,
    MemoryConfig,
    ProcessorConfig,
    RegisterAllocationConfig,
    SamplingPlan,
    SLIQConfig,
    cooo_config,
    scaled_baseline,
    table1_baseline,
)
from .common.errors import (
    CheckpointError,
    ConfigurationError,
    DeadlockError,
    RenameError,
    ReproError,
    SimulationError,
    StructuralHazardError,
    TraceError,
)
from .common.stats import StatsRegistry
from .core.pipeline import BaselinePipeline, OoOCommitPipeline, PipelineBase
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
from .isa.instruction import DynInst, InstState, Instruction, RetireClass
from .isa.opcodes import OpClass
from .trace.io import load_trace, save_trace, trace_info
from .trace.trace import Trace, TraceCursor
from .workloads.registry import (
    WorkloadSpec,
    build_workload,
    get_suite,
    get_workload,
    register_suite,
    register_workload,
    suite_names,
    workload_names,
)
from .workloads.scenario import Phase, Scenario, interleave
from .workloads.suite import integer_suite, spec2000fp_like

# The facade imports experiment modules lazily; importing it last keeps
# the package import graph acyclic.
from . import api
from .api import Simulation, run, run_many

__version__ = "1.1.0"

__all__ = [
    "BranchConfig",
    "CacheConfig",
    "CheckpointConfig",
    "CoreConfig",
    "FunctionalUnitConfig",
    "MemoryConfig",
    "ProcessorConfig",
    "RegisterAllocationConfig",
    "SamplingPlan",
    "SLIQConfig",
    "cooo_config",
    "scaled_baseline",
    "table1_baseline",
    "CheckpointError",
    "ConfigurationError",
    "DeadlockError",
    "RenameError",
    "ReproError",
    "SimulationError",
    "StructuralHazardError",
    "TraceError",
    "StatsRegistry",
    "BaselinePipeline",
    "OoOCommitPipeline",
    "PipelineBase",
    "CallbackProbe",
    "Probe",
    "MachineSpec",
    "create_pipeline",
    "get_machine",
    "machine_names",
    "machine_specs",
    "register_machine",
    "unregister_machine",
    "api",
    "Simulation",
    "run",
    "run_many",
    "SimulationResult",
    "DynInst",
    "InstState",
    "Instruction",
    "RetireClass",
    "OpClass",
    "Trace",
    "TraceCursor",
    "load_trace",
    "save_trace",
    "trace_info",
    "Phase",
    "Scenario",
    "WorkloadSpec",
    "build_workload",
    "get_suite",
    "get_workload",
    "integer_suite",
    "interleave",
    "register_suite",
    "register_workload",
    "spec2000fp_like",
    "suite_names",
    "workload_names",
    "__version__",
]
