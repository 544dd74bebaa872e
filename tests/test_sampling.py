"""Tests of the sampled-execution subsystem (SamplingPlan + fast-forward).

Covers the plan itself (validation, scheduling, parsing, serialisation),
the functional warmer's state fidelity (caches and BTB must end up
bit-identical to detailed execution over the same span), the result
layer (sampled fields, JSON round trip, cache-key separation), the
api/CLI threading, and the statistical properties the ISSUE pins down:
sampled IPC on stationary kernels lands within tolerance of the exact
run, and a plan with nothing to fast-forward reproduces the exact
result bit for bit.
"""

import json

import pytest

from repro import api
from repro.common.config import (
    ProcessorConfig,
    SamplingPlan,
    cooo_config,
    scaled_baseline,
)
from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry
from repro.core.registry_machines import create_pipeline
from repro.core.result import SimulationResult
from repro.core.sampling import FunctionalWarmer, run_sampled
from repro.experiments.sweep import cell_cache_key
from repro.memory.hierarchy import CacheHierarchy
from repro.branch import BranchTargetBuffer, build_predictor
from repro.workloads import daxpy, dense_branches
from repro.workloads.registry import get_suite


MEMORY_LATENCY = 300


def small_baseline(window: int = 1024) -> ProcessorConfig:
    return scaled_baseline(window=window, memory_latency=MEMORY_LATENCY)


# ---------------------------------------------------------------------------
# SamplingPlan: validation, scheduling, parsing, serialisation
# ---------------------------------------------------------------------------


class TestSamplingPlan:
    def test_validate_accepts_sane_plan(self):
        SamplingPlan(period=1000, window=200, warmup=100).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(period=0, window=1),
            dict(period=100, window=0),
            dict(period=100, window=10, warmup=-1),
            dict(period=100, window=10, seed=-3),
            dict(period=100, window=80, warmup=30),  # warmup+window > period
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingPlan(**kwargs).validate()

    def test_schedule_covers_trace_exactly(self):
        plan = SamplingPlan(period=1000, window=200, warmup=100)
        for total in (1, 99, 100, 1000, 1001, 5432, 10_000):
            segments = plan.schedule(total)
            assert sum(sum(seg) for seg in segments) == total

    def test_schedule_layout(self):
        plan = SamplingPlan(period=1000, window=200, warmup=100)
        segments = plan.schedule(2500)
        # period 1: detailed region at the start (offset 0), then skip.
        assert segments[0] == (0, 100, 200)
        assert segments[1] == (700, 100, 200)
        assert segments[2] == (700, 100, 200)
        # 200-instruction tail is too short for a warmed window.
        assert segments[3] == (200, 0, 0)

    def test_schedule_tail_shorter_than_warmup_is_skipped(self):
        plan = SamplingPlan(period=1000, window=200, warmup=100)
        segments = plan.schedule(1050)
        # The 50-instruction tail merges into the preceding skip segment.
        assert segments[-1] == (750, 0, 0)

    def test_seed_offsets_first_window_deterministically(self):
        plan = SamplingPlan(period=1000, window=200, warmup=100, seed=7)
        offset = plan.first_window_offset()
        assert 0 < offset <= 700
        assert plan.first_window_offset() == offset  # deterministic
        assert plan.schedule(3000)[0][0] == offset
        other = SamplingPlan(period=1000, window=200, warmup=100, seed=8)
        assert other.first_window_offset() != offset or other.seed != plan.seed

    def test_seed_zero_pins_window_to_period_start(self):
        assert SamplingPlan(period=1000, window=200, seed=0).first_window_offset() == 0

    def test_continuous_plan_has_no_fast_forward(self):
        plan = SamplingPlan(period=300, window=200, warmup=100)
        assert plan.fast_forward_per_period == 0
        assert plan.detail_fraction == 1.0

    def test_round_trip(self):
        plan = SamplingPlan(period=1000, window=200, warmup=100, seed=5)
        assert SamplingPlan.from_dict(plan.to_dict()) == plan

    def test_parse_forms(self):
        assert SamplingPlan.parse("1000:200") == SamplingPlan(1000, 200)
        assert SamplingPlan.parse("1000:200:50") == SamplingPlan(1000, 200, 50)
        assert SamplingPlan.parse("1000:200:50:9") == SamplingPlan(1000, 200, 50, 9)

    @pytest.mark.parametrize("spec", ["", "1000", "1:2:3:4:5", "a:b", "1000:900:200"])
    def test_parse_rejects(self, spec):
        with pytest.raises(ConfigurationError):
            SamplingPlan.parse(spec)


# ---------------------------------------------------------------------------
# Functional warmer: long-lived state must match detailed execution
# ---------------------------------------------------------------------------


def _detailed_state(config, trace, upto):
    pipeline = create_pipeline(config, trace.slice(0, upto), StatsRegistry())
    pipeline.run()
    return pipeline.hierarchy, pipeline.frontend.predictor, pipeline.frontend.btb


def _warmed_state(config, trace, upto):
    stats = StatsRegistry()
    hierarchy = CacheHierarchy(config.memory, stats)
    predictor = build_predictor(config.branch, stats)
    btb = BranchTargetBuffer(config.branch, stats)
    FunctionalWarmer(config, hierarchy, predictor, btb, stats).fast_forward(trace, 0, upto)
    return hierarchy, predictor, btb


class TestFunctionalWarmer:
    def test_caches_and_btb_match_detailed_execution(self):
        """Fast-forward must leave caches/BTB exactly as a detailed run would.

        The gshare *table* is exempt by design (see GSharePredictor.warm);
        cache tag/recency state and the BTB are exactly reproducible and
        must match bit for bit.
        """
        config = small_baseline()
        trace = dense_branches(iterations=2000, seed=5)
        upto = len(trace) - 500
        d_hier, _d_pred, d_btb = _detailed_state(config, trace, upto)
        w_hier, _w_pred, w_btb = _warmed_state(config, trace, upto)
        assert w_hier.dl1.contents() == d_hier.dl1.contents()
        assert w_hier.l2.contents() == d_hier.l2.contents()
        assert w_hier.il1.contents() == d_hier.il1.contents()
        assert w_btb._tags == d_btb._tags
        assert w_btb._targets == d_btb._targets

    def test_gshare_history_tracks_architectural_outcomes(self):
        config = small_baseline()
        trace = dense_branches(iterations=500, seed=9)
        _hier, predictor, _btb = _warmed_state(config, trace, len(trace))
        expected = 0
        for instr in trace:
            if instr.is_branch:
                expected = ((expected << 1) | int(instr.branch_taken)) & predictor._history_mask
        assert predictor.history == expected

    def test_warming_does_not_touch_demand_statistics(self):
        config = small_baseline()
        trace = daxpy(elements=500)
        stats = StatsRegistry()
        hierarchy = CacheHierarchy(config.memory, stats)
        predictor = build_predictor(config.branch, stats)
        btb = BranchTargetBuffer(config.branch, stats)
        warmer = FunctionalWarmer(config, hierarchy, predictor, btb, stats)
        warmer.fast_forward(trace, 0, len(trace))
        snapshot = stats.snapshot()
        assert snapshot["sampling.fast_forwarded_instructions"] == len(trace)
        for name in ("mem.loads", "mem.stores", "dl1.accesses", "l2.accesses",
                     "branch.predictions", "btb.hits", "btb.misses"):
            assert snapshot.get(name, 0) == 0, name

    def test_bimodal_table_matches_detailed_training(self):
        config = small_baseline()
        config.branch.kind = "bimodal"
        config.validate()
        trace = dense_branches(iterations=800, seed=3)
        _d_hier, d_pred, _d_btb = _detailed_state(config, trace, len(trace))
        _w_hier, w_pred, _w_btb = _warmed_state(config, trace, len(trace))
        # pc-indexed training is order-exact... up to wrong-path replays,
        # which re-train the same saturating counters in the same
        # direction; on this kernel the tables end up identical.
        mismatches = sum(1 for a, b in zip(d_pred._counters, w_pred._counters) if a != b)
        assert mismatches <= len([i for i in trace if i.is_branch]) // 20


# ---------------------------------------------------------------------------
# Sampled results: structure, serialisation, cache keys
# ---------------------------------------------------------------------------


class TestSampledResult:
    @pytest.fixture(scope="class")
    def sampled(self):
        trace = daxpy(elements=3000)  # 21000 instructions
        plan = SamplingPlan(period=5000, window=800, warmup=300)
        return api.run(small_baseline(4096), trace, sampling=plan)

    def test_sampled_fields(self, sampled):
        assert sampled.sampled is True
        assert sampled.windows, "expected at least one measurement window"
        assert sampled.committed_instructions == sum(
            w["instructions"] for w in sampled.windows
        )
        assert sampled.cycles == sum(w["cycles"] for w in sampled.windows)
        for window in sampled.windows:
            assert window["cycles"] > 0
            assert window["ipc"] == pytest.approx(
                window["instructions"] / window["cycles"]
            )

    def test_sampling_counters(self, sampled):
        assert sampled.stat("sampling.windows") == len(sampled.windows)
        detailed = sampled.stat("sampling.detailed_instructions")
        fast_forwarded = sampled.stat("sampling.fast_forwarded_instructions")
        assert detailed + fast_forwarded == len(daxpy(elements=3000))

    def test_json_round_trip(self, sampled):
        restored = SimulationResult.from_dict(
            json.loads(json.dumps(sampled.to_dict()))
        )
        assert restored == sampled
        assert restored.ipc_ci95 == sampled.ipc_ci95

    def test_exact_result_dict_has_no_sampling_keys(self):
        exact = api.run(small_baseline(), daxpy(elements=60))
        data = exact.to_dict()
        assert "sampled" not in data
        assert "windows" not in data
        restored = SimulationResult.from_dict(json.loads(json.dumps(data)))
        assert restored == exact

    def test_ipc_interval_brackets_ipc(self, sampled):
        low, high = sampled.ipc_interval
        assert low <= sampled.ipc <= high

    def test_cache_key_separates_sampled_from_exact(self):
        config = small_baseline()
        plan = SamplingPlan(period=5000, window=800, warmup=300)
        exact_key = cell_cache_key(config, "spec2000fp_like", "daxpy", 0.5)
        sampled_key = cell_cache_key(
            config, "spec2000fp_like", "daxpy", 0.5, sampling=plan
        )
        other_plan_key = cell_cache_key(
            config, "spec2000fp_like", "daxpy", 0.5,
            sampling=SamplingPlan(period=5000, window=800, warmup=301),
        )
        assert len({exact_key, sampled_key, other_plan_key}) == 3

    def test_cache_key_without_sampling_unchanged(self):
        """sampling=None must not perturb any pre-existing cache key."""
        config = small_baseline()
        assert cell_cache_key(config, "spec2000fp_like", "daxpy", 0.5) == (
            cell_cache_key(config, "spec2000fp_like", "daxpy", 0.5, sampling=None)
        )


# ---------------------------------------------------------------------------
# Statistical properties (the ISSUE's accuracy contract)
# ---------------------------------------------------------------------------


class TestSampledAccuracy:
    def test_period_equals_window_reproduces_exact_result(self):
        """No fast-forward slack => bit-identical to the unsampled run."""
        trace = daxpy(elements=800)
        config = small_baseline()
        exact = api.run(config, trace)
        cont = api.run(config, trace, sampling=SamplingPlan(period=500, window=500))
        assert cont.cycles == exact.cycles
        assert cont.committed_instructions == exact.committed_instructions
        assert cont.fetched_instructions == exact.fetched_instructions
        assert cont.stats == exact.stats
        assert cont.ipc == exact.ipc
        assert cont.sampled is True
        assert cont.windows

    def test_continuous_windows_partition_the_run(self):
        trace = daxpy(elements=800)
        cont = api.run(
            small_baseline(), trace, sampling=SamplingPlan(period=500, window=500)
        )
        assert sum(w["instructions"] for w in cont.windows) == len(trace)
        assert sum(w["cycles"] for w in cont.windows) == cont.cycles

    def test_trace_shorter_than_warmup_falls_back_to_exact(self):
        trace = daxpy(elements=40)  # 280 instructions
        config = small_baseline()
        plan = SamplingPlan(period=100_000, window=5_000, warmup=2_000)
        sampled = api.run(config, trace, sampling=plan)
        exact = api.run(config, trace)
        assert sampled.cycles == exact.cycles
        assert sampled.ipc == exact.ipc
        assert sampled.sampled is True

    def test_daxpy_sampled_ipc_close_to_exact(self):
        """Stationary streaming kernel: sampled within CI or 5% of exact."""
        trace = daxpy(elements=12_000)  # 84000 instructions
        config = small_baseline(4096)
        exact = api.run(config, trace)
        sampled = api.run(
            config, trace, sampling=SamplingPlan(period=12_000, window=1_200, warmup=400)
        )
        tolerance = max(sampled.ipc_ci95, 0.05 * exact.ipc)
        assert abs(sampled.ipc - exact.ipc) <= tolerance

    def test_dense_branches_exact_within_sampled_ci(self):
        """Branchy stationary kernel: the exact IPC lands in the reported CI.

        gshare only self-trains under detailed execution, so branchy
        plans need a long warmup (see GSharePredictor.warm); the window
        variance then covers the residual predictor-state bias.
        """
        trace = dense_branches(iterations=10_000)  # 60000 instructions
        config = small_baseline(4096)
        exact = api.run(config, trace)
        sampled = api.run(
            config, trace,
            sampling=SamplingPlan(period=20_000, window=4_000, warmup=4_000),
        )
        assert sampled.ipc_ci95 > 0
        tolerance = max(sampled.ipc_ci95, 0.05 * exact.ipc)
        assert abs(sampled.ipc - exact.ipc) <= tolerance

    def test_cooo_sampled_ipc_close_to_exact(self):
        """The checkpointed machine extrapolates too (fat windows)."""
        trace = daxpy(elements=10_000)
        config = cooo_config(iq_size=64, sliq_size=1024, memory_latency=MEMORY_LATENCY)
        exact = api.run(config, trace)
        sampled = api.run(
            config, trace,
            sampling=SamplingPlan(period=35_000, window=8_000, warmup=4_000),
        )
        tolerance = max(sampled.ipc_ci95, 0.05 * exact.ipc)
        assert abs(sampled.ipc - exact.ipc) <= tolerance

    def test_thin_cooo_window_falls_back_to_segment_measurement(self):
        """A window thinner than the commit quantum must not fabricate IPC.

        The checkpointed machine commits whole checkpoints; a segment
        that fits in one checkpoint drains in a single burst, making the
        commit-watermark span meaningless (IPC in the hundreds).  The
        driver detects the physically impossible rate (above commit
        width) and measures the whole segment instead.
        """
        trace = daxpy(elements=4_000)
        config = cooo_config(iq_size=64, sliq_size=1024, memory_latency=500)
        sampled = api.run(
            config, trace, sampling=SamplingPlan(period=4_000, window=300, warmup=100)
        )
        assert sampled.stat("sampling.degenerate_windows") > 0
        width = config.core.commit_width
        for window in sampled.windows:
            assert window["ipc"] <= width, window

    def test_confidence_interval_uses_student_t(self):
        from repro.core.sampling import _confidence_interval

        # Two windows (df=1): the multiplier is 12.706, not 1.96.
        ipcs = [1.0, 2.0]
        mean = 1.5
        se = (sum((v - mean) ** 2 for v in ipcs) / 1 / 2) ** 0.5
        assert _confidence_interval(ipcs) == pytest.approx(12.706 * se)
        assert _confidence_interval([1.0]) == 0.0

    def test_sampled_matches_force_per_cycle(self):
        """Detailed windows ride the event-driven kernel; results identical."""
        trace = daxpy(elements=2_000)
        config = small_baseline()
        plan = SamplingPlan(period=4_000, window=600, warmup=200)
        fast = api.run(config, trace, sampling=plan)
        slow = api.run(config, trace, sampling=plan, force_per_cycle=True)
        assert fast == slow

    def test_seeded_plans_measure_different_windows(self):
        trace = daxpy(elements=4_000)
        config = small_baseline()
        base = api.run(
            config, trace, sampling=SamplingPlan(period=7_000, window=700, warmup=200)
        )
        shifted = api.run(
            config, trace,
            sampling=SamplingPlan(period=7_000, window=700, warmup=200, seed=11),
        )
        assert [w["start"] for w in base.windows] != [w["start"] for w in shifted.windows]
        # Same stationary kernel: the two estimates still agree closely.
        assert shifted.ipc == pytest.approx(base.ipc, rel=0.05)


# ---------------------------------------------------------------------------
# api / run_many / CLI threading
# ---------------------------------------------------------------------------


class TestSamplingThreading:
    def test_simulation_validates_plan(self):
        with pytest.raises(ConfigurationError):
            api.Simulation(
                small_baseline(), sampling=SamplingPlan(period=10, window=20)
            )

    def test_stop_when_rejected_with_sampling(self):
        with pytest.raises(ValueError, match="stop_when"):
            api.Simulation(
                small_baseline(),
                sampling=SamplingPlan(period=1000, window=100),
                stop_when=lambda p: True,
            )

    def test_run_many_explicit_traces_sampled(self):
        trace = daxpy(elements=2_000)
        plan = SamplingPlan(period=5_000, window=700, warmup=200)
        per_workload = api.Simulation(small_baseline(), sampling=plan).run_suite(
            {"daxpy": trace}
        )
        assert per_workload["daxpy"].sampled is True

    def test_run_many_suite_mode_sampled_and_cached(self, tmp_path):
        from repro.experiments.sweep import ResultCache, SweepEngine

        plan = SamplingPlan(period=2_000, window=400, warmup=100)
        cache = ResultCache(tmp_path)
        kwargs = dict(
            suite="pointer-chase",
            workloads=["chase_warm"],
            scale=0.2,
            engine=SweepEngine(cache=cache),
            sampling=plan,
        )
        results = api.run_many([small_baseline()], **kwargs)
        (_config, per_workload), = results
        assert per_workload["chase_warm"].sampled is True
        assert cache.stores == 1
        # Second run is served from the cache, bit-identically.
        again = api.run_many([small_baseline()], **kwargs)
        assert again[0][1]["chase_warm"] == per_workload["chase_warm"]
        assert cache.hits == 1
        # The exact run of the same cell does not see the sampled entry.
        exact = api.run_many(
            [small_baseline()],
            suite="pointer-chase",
            workloads=["chase_warm"],
            scale=0.2,
            engine=SweepEngine(cache=cache),
        )
        assert exact[0][1]["chase_warm"].sampled is False

    def test_xl_suites_registered(self):
        for name, members in [
            ("spec2000fp-xl", 8),
            ("chase-xl", 4),
            ("server-mix-xl", 3),
        ]:
            suite = get_suite(name)
            assert len(suite) == members
        # XL member = base member generator at a 50-100x budget.
        base = get_suite("spec2000fp_like").members[0]
        xl = get_suite("spec2000fp-xl").members[0]
        assert xl.name == base.name
        assert xl.generator is base.generator
        assert 50 <= xl.base_size // base.base_size <= 100

    def test_xl_sampling_plan_is_valid(self):
        from repro.workloads.xl import XL_SAMPLING

        XL_SAMPLING.validate()

    def test_run_sampled_rejects_invalid_plan(self):
        with pytest.raises(ConfigurationError):
            run_sampled(
                small_baseline(), daxpy(elements=100), SamplingPlan(period=5, window=50)
            )


class TestSamplingCLI:
    def test_simulate_with_sample(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--machine", "baseline", "--window", "1024",
            "--workload", "daxpy", "--size", "2000",
            "--memory-latency", "300", "--sample", "5000:600:200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sampling: period=5000 window=600 warmup=200" in out
        assert "ipc_ci95" in out

    def test_simulate_rejects_bad_sample_spec(self, capsys):
        from repro.cli import main

        # parse_sampling exits like build_engine does on a bad cache dir.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workload", "daxpy", "--sample", "nonsense"])
        assert excinfo.value.code == 2
        assert "sampling spec" in capsys.readouterr().err

    def test_sweep_experiment_rejects_sample(self, capsys):
        from repro.cli import main

        assert main(["sweep", "figure09", "--sample", "1000:100"]) == 2
        assert "--sample" in capsys.readouterr().err

    def test_bench_sample_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "baseline-128", "--sample", "1000:100", "--no-record"]
        )
        assert args.sample == "1000:100"
