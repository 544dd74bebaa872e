"""Synthetic workload generators, the workload/suite registry, and suites.

Importing this package registers every built-in workload and suite (see
:mod:`repro.workloads.catalog` and :mod:`repro.workloads.scenarios`);
the registry in :mod:`repro.workloads.registry` is the canonical way to
resolve either by name.
"""

from .builder import TraceBuilder
from .integer import (
    branchy_integer,
    dense_branches,
    mixed_int_fp,
    multi_pointer_chase,
    pointer_chase,
)
from .numerical import (
    blocked_daxpy,
    daxpy,
    fp_compute_bound,
    matvec,
    random_gather,
    reduction,
    single_miss_probe,
    stencil3,
    stream_triad,
)
from .registry import (
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
from .scenario import Phase, Scenario, interleave, stream_rng, stream_seed
from .suite import (
    INTEGER_LIKE,
    SPEC2000FP_LIKE,
    Suite,
    SuiteMember,
    integer_suite,
    spec2000fp_like,
)
from . import catalog, scenarios  # noqa: F401  (registration side effects)

__all__ = [
    "TraceBuilder",
    "branchy_integer",
    "dense_branches",
    "mixed_int_fp",
    "multi_pointer_chase",
    "pointer_chase",
    "blocked_daxpy",
    "daxpy",
    "fp_compute_bound",
    "matvec",
    "random_gather",
    "reduction",
    "single_miss_probe",
    "stencil3",
    "stream_triad",
    "SuiteSpec",
    "WorkloadSpec",
    "build_workload",
    "get_suite",
    "get_workload",
    "register_suite",
    "register_workload",
    "suite_names",
    "suite_specs",
    "unregister_suite",
    "unregister_workload",
    "workload_names",
    "workload_specs",
    "Phase",
    "Scenario",
    "interleave",
    "stream_rng",
    "stream_seed",
    "INTEGER_LIKE",
    "SPEC2000FP_LIKE",
    "Suite",
    "SuiteMember",
    "integer_suite",
    "spec2000fp_like",
]
