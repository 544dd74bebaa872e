"""Tests for simulation results, occupancy/breakdown analysis and reporting."""

import pytest

from repro.analysis.breakdown import FIGURE12_ORDER, average_breakdown, retirement_breakdown
from repro.analysis.occupancy import (
    average_profiles,
    mean_in_flight,
    occupancy_profile,
    weighted_mean,
    weighted_percentile,
)
from repro.analysis.report import (
    format_bar_chart,
    format_stacked_percentages,
    format_table,
    indent,
)
from repro.common.config import cooo_config, scaled_baseline
from repro.api import run as simulate
from repro.core.result import SimulationResult
from repro.experiments.runner import suite_ipc
from repro.isa.instruction import RetireClass
from repro.workloads import daxpy


def make_result(**overrides):
    defaults = dict(
        config_name="test",
        mode="baseline",
        workload="unit",
        cycles=1000,
        committed_instructions=2500,
        fetched_instructions=2600,
        stats={},
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestSimulationResult:
    def test_ipc(self):
        assert make_result().ipc == pytest.approx(2.5)

    def test_ipc_with_zero_cycles(self):
        assert make_result(cycles=0).ipc == 0.0

    def test_replay_overhead(self):
        assert make_result().replay_overhead == pytest.approx(2600 / 2500)

    def test_branch_accuracy(self):
        result = make_result(stats={"branch.predictions": 100, "branch.mispredictions": 5})
        assert result.branch_accuracy == pytest.approx(0.95)
        assert make_result().branch_accuracy == 1.0

    def test_l2_miss_fraction(self):
        result = make_result(stats={"mem.loads": 200, "mem.l2_miss_loads": 20})
        assert result.l2_load_miss_fraction == pytest.approx(0.1)

    def test_pseudo_rob_breakdown_normalised(self):
        result = make_result(stats={"pseudo_rob.retire_class": {"moved": 30, "finished": 70}})
        breakdown = result.pseudo_rob_breakdown()
        assert breakdown["moved"] == pytest.approx(0.3)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_pseudo_rob_breakdown_empty(self):
        assert make_result().pseudo_rob_breakdown() == {}

    def test_summary_row_keys(self):
        row = make_result().summary_row()
        assert {"config", "mode", "workload", "cycles", "instructions", "ipc"} <= set(row)

    def test_stat_default(self):
        assert make_result().stat("does.not.exist", default=3.5) == 3.5

    def test_average_ipc_helper(self):
        results = {"a": make_result(cycles=1000), "b": make_result(cycles=2500)}
        assert suite_ipc(results) == pytest.approx((2.5 + 1.0) / 2)

    def test_real_run_populates_stats(self):
        result = simulate(scaled_baseline(window=64, memory_latency=50), daxpy(elements=30))
        assert result.mode == "baseline"
        assert result.workload == "daxpy"
        assert result.stat("commit.instructions") == result.committed_instructions


class TestOccupancyAnalysis:
    def test_weighted_percentile(self):
        weights = {10: 50, 20: 30, 100: 20}
        assert weighted_percentile(weights, 0.25) == 10
        assert weighted_percentile(weights, 0.6) == 20
        assert weighted_percentile(weights, 0.95) == 100
        assert weighted_percentile({}, 0.5) == 0

    def test_weighted_mean(self):
        assert weighted_mean({2: 1, 4: 1}) == pytest.approx(3.0)
        assert weighted_mean({}) == 0.0

    def test_profile_from_real_run(self):
        result = simulate(scaled_baseline(window=256, memory_latency=300), daxpy(elements=120))
        profile = occupancy_profile(result)
        assert profile.mean_in_flight > 0
        assert profile.mean_live <= profile.mean_in_flight
        assert 0 <= profile.live_fraction <= 1
        assert profile.in_flight_percentiles[0.9] >= profile.in_flight_percentiles[0.5]

    def test_live_far_below_in_flight_for_memory_bound_code(self):
        """The core Figure 7 observation."""
        result = simulate(scaled_baseline(window=512, memory_latency=500), daxpy(elements=200))
        profile = occupancy_profile(result)
        assert profile.mean_live < 0.6 * profile.mean_in_flight

    def test_average_profiles(self):
        result = simulate(scaled_baseline(window=128, memory_latency=100), daxpy(elements=60))
        first = occupancy_profile(result)
        combined = average_profiles([first, first])
        assert combined.mean_in_flight == pytest.approx(first.mean_in_flight)
        assert combined.workload == "average"

    def test_average_profiles_rejects_empty(self):
        with pytest.raises(ValueError):
            average_profiles([])

    def test_mean_in_flight_helper(self):
        result = simulate(scaled_baseline(window=128, memory_latency=100), daxpy(elements=60))
        assert mean_in_flight([result]) == pytest.approx(result.mean_in_flight)
        assert mean_in_flight([]) == 0.0


class TestBreakdownAnalysis:
    def test_breakdown_from_real_run(self):
        result = simulate(
            cooo_config(iq_size=16, sliq_size=128, memory_latency=200), daxpy(elements=80)
        )
        breakdown = retirement_breakdown(result)
        assert breakdown.total == pytest.approx(1.0, abs=1e-6)
        assert breakdown.fraction(RetireClass.STORE) > 0

    def test_average_breakdown(self):
        result = simulate(
            cooo_config(iq_size=16, sliq_size=128, memory_latency=200), daxpy(elements=80)
        )
        combined = average_breakdown([result, result])
        single = retirement_breakdown(result)
        for retire_class in RetireClass:
            assert combined.fraction(retire_class) == pytest.approx(single.fraction(retire_class))

    def test_average_breakdown_rejects_empty(self):
        with pytest.raises(ValueError):
            average_breakdown([])

    def test_percentages_view(self):
        result = simulate(
            cooo_config(iq_size=16, sliq_size=128, memory_latency=200), daxpy(elements=80)
        )
        percentages = retirement_breakdown(result).as_percentages()
        assert set(percentages) == {rc.value for rc in FIGURE12_ORDER}
        assert sum(percentages.values()) == pytest.approx(100.0, abs=0.5)


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table([{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.346" in text
        assert len(lines) == 4

    def test_format_table_union_of_columns(self):
        text = format_table([{"a": 1}, {"a": 2, "extra": "x"}])
        assert "extra" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_bar_chart(self):
        text = format_bar_chart({"one": 1.0, "two": 2.0}, width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_format_bar_chart_empty(self):
        assert format_bar_chart({}) == "(no data)"

    def test_format_stacked_percentages(self):
        text = format_stacked_percentages(
            {"cfg": {"moved": 25.0, "store": 10.0}}, categories=["moved", "store"]
        )
        assert "25.0%" in text and "10.0%" in text

    def test_indent(self):
        assert indent("a\nb") == "  a\n  b"
