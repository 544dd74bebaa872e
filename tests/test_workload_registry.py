"""Tests for the workload/suite registry and the three scenario suites."""

import pytest

from repro.common.errors import ConfigurationError
from repro.trace.trace import Trace
from repro.workloads import daxpy
from repro.workloads.registry import (
    WorkloadSpec,
    build_workload,
    get_suite,
    get_suite_spec,
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
from repro.workloads.suite import Suite, SuiteMember

BUILTIN_WORKLOADS = {
    "daxpy",
    "triad",
    "stencil3",
    "reduction",
    "gather",
    "matvec",
    "blocked",
    "fp_compute",
    "pointer_chase",
    "multi_chase",
    "branchy_int",
    "dense_branches",
    "mixed",
}

BUILTIN_SUITES = {
    "spec2000fp_like",
    "integer_like",
    "pointer-chase",
    "branch-storm",
    "server-mix",
}


class TestWorkloadRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_WORKLOADS <= set(workload_names())

    def test_specs_sorted_and_described(self):
        specs = workload_specs()
        assert [spec.name for spec in specs] == sorted(spec.name for spec in specs)
        assert all(spec.description for spec in specs)

    def test_get_workload_unknown_lists_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("no_such_workload")
        message = excinfo.value.args[0]
        assert "no_such_workload" in message
        assert "daxpy" in message  # the error enumerates registered names

    def test_build_by_name(self):
        trace = build_workload("daxpy", size=32)
        assert isinstance(trace, Trace)
        assert trace.to_jsonl() == daxpy(elements=32).to_jsonl()

    def test_build_by_scale(self):
        spec = get_workload("daxpy")
        assert len(spec.build(scale=0.1)) == len(spec.build(size=spec.base_size // 10))

    def test_knob_override(self):
        a = build_workload("gather", size=64, seed=1)
        b = build_workload("gather", size=64, seed=2)
        assert a.to_jsonl() != b.to_jsonl()

    def test_unknown_knob_rejected(self):
        with pytest.raises(KeyError) as excinfo:
            build_workload("gather", size=64, sneed=1)
        assert "sneed" in str(excinfo.value)
        assert "seed" in str(excinfo.value)  # valid knobs are listed

    def test_register_and_unregister(self):
        @register_workload("tmp_registry_wl", description="ephemeral", base_size=64)
        def tmp(size):
            return daxpy(elements=max(4, size))

        try:
            assert get_workload("tmp_registry_wl").description == "ephemeral"
            assert len(build_workload("tmp_registry_wl", size=8)) > 0
        finally:
            unregister_workload("tmp_registry_wl")
        assert "tmp_registry_wl" not in workload_names()

    def test_reregistration_same_function_is_noop(self):
        def generator(size):
            return daxpy(elements=max(4, size))

        register_workload("tmp_registry_idem")(generator)
        try:
            register_workload("tmp_registry_idem")(generator)  # no raise
            with pytest.raises(ConfigurationError):
                register_workload("tmp_registry_idem")(lambda size: daxpy(elements=4))
        finally:
            unregister_workload("tmp_registry_idem")

    def test_bad_registration_arguments(self):
        with pytest.raises(ConfigurationError):
            register_workload("")
        with pytest.raises(ConfigurationError):
            register_workload("x", base_size=0)

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_workload("never_registered")

    def test_description_defaults_to_docstring(self):
        @register_workload("tmp_registry_doc")
        def documented(size):
            """First line becomes the description.

            Not this one.
            """
            return daxpy(elements=max(4, size))

        try:
            assert (
                get_workload("tmp_registry_doc").description
                == "First line becomes the description."
            )
        finally:
            unregister_workload("tmp_registry_doc")


class TestSuiteRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_SUITES <= set(suite_names())

    def test_get_suite_unknown_lists_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_suite("spec2017")
        message = excinfo.value.args[0]
        assert "spec2017" in message
        assert "spec2000fp_like" in message

    def test_register_suite_as_decorator(self):
        @register_suite(description="factory registered")
        def tmp_factory():
            return Suite(
                "tmp-factory-suite",
                [SuiteMember("only", lambda n: daxpy(elements=max(4, n)), 64)],
            )

        try:
            assert get_suite_spec("tmp-factory-suite").description == "factory registered"
        finally:
            unregister_suite("tmp-factory-suite")

    def test_duplicate_suite_rejected(self):
        member = SuiteMember("only", lambda n: daxpy(elements=max(4, n)), 64)
        register_suite(Suite("tmp-dup-suite", [member]))
        try:
            with pytest.raises(ConfigurationError):
                register_suite(Suite("tmp-dup-suite", [member]))
        finally:
            unregister_suite("tmp-dup-suite")

    def test_factory_with_blank_docstring_registers(self):
        def tmp_blank_factory():
            """   """
            return Suite(
                "tmp-blank-doc-suite",
                [SuiteMember("only", lambda n: daxpy(elements=max(4, n)), 64)],
                description="from the suite",
            )

        register_suite(tmp_blank_factory)
        try:
            assert get_suite_spec("tmp-blank-doc-suite").description == "from the suite"
        finally:
            unregister_suite("tmp-blank-doc-suite")

    def test_factory_must_return_suite(self):
        with pytest.raises(ConfigurationError):
            register_suite(lambda: "not a suite")

    def test_suite_specs_described(self):
        for spec in suite_specs():
            assert spec.suite.name == spec.name
            assert spec.description


class TestScenarioSuites:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SUITES - {"spec2000fp_like", "integer_like"}))
    def test_builds_and_is_deterministic(self, name):
        first = get_suite(name).build(scale=0.1)
        second = get_suite(name).build(scale=0.1)
        assert set(first) == set(second)
        for member in first:
            assert first[member].to_jsonl() == second[member].to_jsonl()

    def test_pointer_chase_is_memory_bound(self):
        traces = get_suite("pointer-chase").build(scale=0.5)
        for trace in traces.values():
            assert trace.load_fraction() > 0.1
        # the warm chain's footprint is bounded by its 128-node pool and
        # fits in the data caches; the cold chain keeps touching new lines
        assert traces["chase_warm"].unique_lines() <= 128
        assert traces["chase_cold"].unique_lines() > 2 * traces["chase_warm"].unique_lines()

    def test_chase_mlp_has_independent_chains(self):
        traces = get_suite("pointer-chase").build(scale=0.1)
        loads = [i for i in traces["chase_mlp"] if i.is_load]
        # round-robin chains: consecutive loads write different registers
        assert loads[0].dest != loads[1].dest

    def test_branch_storm_is_branch_heavy(self):
        traces = get_suite("branch-storm").build(scale=0.1)
        for trace in traces.values():
            assert trace.branch_fraction() >= 0.3

    def test_storm_dense_is_densest(self):
        traces = get_suite("branch-storm").build(scale=0.1)
        assert traces["storm_dense"].branch_fraction() > traces["storm_even"].branch_fraction()

    def test_server_mix_phases_are_labelled(self):
        traces = get_suite("server-mix").build(scale=0.1)
        labels = {instr.label for instr in traces["phased"]}
        assert labels == {"server-mix.parse", "server-mix.lookup", "server-mix.respond"}

    def test_server_mix_interleaved_blends_regimes(self):
        traces = get_suite("server-mix").build(scale=0.1)
        trace = traces["interleaved"]
        labels = {instr.label for instr in trace}
        assert len(labels) >= 3
        # the first couple hundred instructions already mix several kernels
        assert len({instr.label for instr in list(trace)[:200]}) >= 2
