"""Tests for the experiment harness (figure reproductions at tiny scale).

These tests run every figure's code path with a very small suite scale and
reduced parameter grids, checking structure and the paper's qualitative
shape where it is robust even at tiny scale.
"""

import pytest

from repro.experiments import (
    available_experiments,
    run_checkpoint_policy_ablation,
    run_experiment,
    run_figure01,
    run_figure07,
    run_figure09,
    run_figure10,
    run_figure11,
    run_figure12,
    run_figure13,
    run_figure14,
    suite_traces,
)
from repro.api import Simulation
from repro.experiments.runner import ExperimentResult, suite_ipc
from repro.common.config import scaled_baseline

#: Tiny scale and a reduced workload list keep each figure under ~10 s.
SCALE = 0.12
WORKLOADS = ("daxpy", "gather", "reduction", "fp_compute")


class TestRunnerInfrastructure:
    def test_suite_traces_cached(self):
        first = suite_traces(SCALE)
        second = suite_traces(SCALE)
        assert list(first) == list(second)
        assert all(first[name] is second[name] for name in first)

    def test_suite_traces_workload_filter(self):
        traces = suite_traces(SCALE, workloads=("daxpy",))
        assert set(traces) == {"daxpy"}

    def test_run_config_and_suite_ipc(self):
        traces = suite_traces(SCALE, workloads=("daxpy",))
        results = Simulation(scaled_baseline(window=64, memory_latency=100)).run_suite(traces)
        assert set(results) == {"daxpy"}
        assert suite_ipc(results) > 0

    def test_experiment_result_helpers(self):
        experiment = ExperimentResult("x", "demo")
        experiment.row(a=1, b=2.0)
        experiment.row(a=3, b=4.0)
        assert experiment.value("b", a=3) == 4.0
        assert experiment.column("a") == [1.0, 3.0]
        assert experiment.find_row(a=99) is None
        with pytest.raises(KeyError):
            experiment.value("b", a=99)
        assert "demo" in experiment.report()

    def test_registry_lists_all_figures(self):
        names = available_experiments()
        for figure in ("figure01", "figure07", "figure09", "figure10", "figure11",
                       "figure12", "figure13", "figure14"):
            assert figure in names

    def test_registry_rejects_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")


class TestFigure01:
    def test_shape(self):
        experiment = run_figure01(
            scale=SCALE, windows=(64, 512), latencies=("perfect", 500), workloads=WORKLOADS
        )
        assert len(experiment.rows) == 4
        perfect_small = experiment.value("ipc", window=64, latency="perfect")
        slow_small = experiment.value("ipc", window=64, latency="500")
        slow_large = experiment.value("ipc", window=512, latency="500")
        # Memory latency hurts the small window, a larger window recovers.
        assert perfect_small > slow_small
        assert slow_large > slow_small


class TestFigure07:
    def test_live_fraction_is_small(self):
        experiment = run_figure07(scale=SCALE, window=512, memory_latency=500, workloads=WORKLOADS)
        mean_row = experiment.find_row(percentile="mean")
        assert mean_row is not None
        assert mean_row["live"] < mean_row["in_flight"]
        assert mean_row["live_fraction"] < 0.7
        assert experiment.per_workload


class TestFigure09:
    def test_ordering(self):
        experiment = run_figure09(
            scale=SCALE, grid=((16, 128), (64, 512)), workloads=WORKLOADS, memory_latency=500
        )
        base128 = experiment.value("ipc", config="baseline-128")
        limit = experiment.value("ipc", config="baseline-4096")
        small = experiment.value("ipc", config="COoO-16/SLIQ-128")
        large = experiment.value("ipc", config="COoO-64/SLIQ-512")
        assert limit > base128
        assert large >= small
        assert large > base128
        assert large <= limit * 1.05


class TestFigure10:
    def test_delay_insensitivity(self):
        experiment = run_figure10(
            scale=SCALE, iq_sizes=(32,), delays=(1, 12), workloads=WORKLOADS, memory_latency=500
        )
        fast = experiment.value("ipc", iq=32, delay=1)
        slow = experiment.value("ipc", iq=32, delay=12)
        assert slow >= fast * 0.8


class TestFigure11:
    def test_cooo_window_exceeds_baseline128(self):
        experiment = run_figure11(
            scale=SCALE, grid=((64, 512),), workloads=WORKLOADS, memory_latency=500
        )
        base128 = experiment.value("in_flight", config="baseline-128")
        cooo = experiment.value("in_flight", config="COoO-64/SLIQ-512")
        assert cooo > base128
        assert base128 <= 128


class TestFigure12:
    def test_breakdown_structure(self):
        experiment = run_figure12(
            scale=SCALE, grid=((32, 256),), workloads=WORKLOADS, memory_latency=500
        )
        row = experiment.rows[0]
        categories = ("moved", "finished", "short_latency", "finished_load",
                      "long_latency_load", "store")
        total = sum(row[c] for c in categories)
        assert total == pytest.approx(100.0, abs=1.0)
        assert row["long_latency_load"] > 0
        assert row["moved"] > 0


class TestFigure13:
    def test_checkpoint_sensitivity(self):
        experiment = run_figure13(
            scale=SCALE, checkpoints=(2, 16), workloads=WORKLOADS, memory_latency=500
        )
        limit = experiment.value("ipc", config="limit-4096")
        few = experiment.value("ipc", config="COoO-2ckpt")
        many = experiment.value("ipc", config="COoO-16ckpt")
        assert many >= few
        assert many <= limit * 1.05


class TestFigure14:
    def test_combined_points_sit_between_reference_lines(self):
        experiment = run_figure14(
            scale=SCALE,
            latencies=(500,),
            virtual_tags=(256, 1024),
            physical_registers=(512,),
            workloads=WORKLOADS,
        )
        base = experiment.value("ipc", latency=500, config="baseline-128")
        limit = experiment.value("ipc", latency=500, config="limit-4096")
        few_tags = experiment.value("ipc", latency=500, config="COoO-vt256-p512")
        many_tags = experiment.value("ipc", latency=500, config="COoO-vt1024-p512")
        assert base <= few_tags * 1.05
        assert many_tags >= few_tags
        assert many_tags <= limit * 1.05


class TestAblation:
    def test_all_policies_run(self):
        experiment = run_checkpoint_policy_ablation(
            scale=SCALE, workloads=WORKLOADS, memory_latency=300
        )
        assert {row["policy"] for row in experiment.rows} == {
            "paper", "every_n", "branch_only", "store_only"
        }
        assert all(row["ipc"] > 0 for row in experiment.rows)
        assert all(row["checkpoints_created"] > 0 for row in experiment.rows)
