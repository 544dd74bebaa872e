"""Tests for the parallel sweep engine and its persistent result cache."""

import json

import pytest

from repro.common.config import ProcessorConfig, cooo_config, scaled_baseline
from repro.core.result import SimulationResult
from repro.experiments import run_figure09
from repro.experiments.sweep import (
    ResultCache,
    SweepEngine,
    SweepSpec,
    cell_cache_key,
    ensure_engine,
)

#: Tiny scale and a two-workload filter keep every test fast.
SCALE = 0.1
WORKLOADS = ("daxpy", "reduction")


def small_spec(name="test-sweep", scale=SCALE, workloads=WORKLOADS):
    configs = [
        scaled_baseline(window=64, memory_latency=100),
        cooo_config(iq_size=32, sliq_size=512, memory_latency=100),
    ]
    return SweepSpec(name, configs, scale=scale, workloads=workloads)


def rows_of(outcome):
    return [result.summary_row() for result in outcome.results]


class TestConfigSerialization:
    def test_roundtrip_preserves_every_field(self):
        config = cooo_config(iq_size=32, sliq_size=512, checkpoints=4, memory_latency=500)
        rebuilt = ProcessorConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.stable_hash() == config.stable_hash()

    def test_roundtrip_survives_json(self):
        config = scaled_baseline(window=256, memory_latency=100, perfect_l2=True)
        rebuilt = ProcessorConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_hash_distinguishes_parameters(self):
        base = cooo_config(iq_size=32, sliq_size=512)
        assert base.stable_hash() != cooo_config(iq_size=64, sliq_size=512).stable_hash()
        assert base.stable_hash() == cooo_config(iq_size=32, sliq_size=512).stable_hash()

    def test_config_is_hashable(self):
        a = scaled_baseline(window=128)
        b = scaled_baseline(window=128)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "x"}[b] == "x"


class TestResultSerialization:
    def test_roundtrip_through_json(self):
        from repro.api import run as simulate
        from repro.workloads import numerical

        result = simulate(
            scaled_baseline(window=64, memory_latency=100),
            numerical.daxpy(elements=50),
        )
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.summary_row() == result.summary_row()
        assert rebuilt.ipc == result.ipc
        assert rebuilt.cycles == result.cycles

    @pytest.mark.parametrize("machine", ["baseline", "cooo"])
    def test_stats_reload_with_the_same_keys_values_and_order(self, machine):
        """Every stat (counters, means, histograms, int-keyed distribution
        weights) comes back as the simulator wrote it, in the same order."""
        from repro.api import run as simulate
        from repro.workloads import numerical

        config = (
            scaled_baseline(window=64, memory_latency=100)
            if machine == "baseline"
            else cooo_config(iq_size=32, sliq_size=512, memory_latency=100)
        )
        result = simulate(config, numerical.random_gather(elements=120))
        assert result.stats["occupancy.in_flight_dist"]["weights"]
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert repr(rebuilt.stats) == repr(result.stats)


class TestSpec:
    def test_cells_are_config_major_and_deterministic(self):
        spec = small_spec()
        cells = spec.cells()
        assert len(cells) == len(spec) == 4
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.workload for c in cells] == ["daxpy", "reduction", "daxpy", "reduction"]
        assert cells[0].config is spec.configs[0]
        assert cells[2].config is spec.configs[1]

    def test_unknown_workload_rejected(self):
        spec = small_spec(workloads=("daxpy", "nope"))
        with pytest.raises(KeyError):
            spec.cells()

    def test_default_workloads_are_the_whole_suite(self):
        spec = small_spec(workloads=None)
        assert len(spec.workload_names()) == 8


class TestEngineExecution:
    def test_serial_outcome_orders_and_groups(self):
        spec = small_spec()
        outcome = SweepEngine(jobs=1).run(spec)
        assert len(outcome.results) == 4
        assert outcome.simulated == 4 and outcome.cached == 0
        per_config = outcome.config_results(spec.configs[1])
        assert set(per_config) == set(WORKLOADS)
        assert all(r.ipc > 0 for r in outcome.results)

    def test_parallel_matches_serial(self):
        spec = small_spec()
        serial = SweepEngine(jobs=1).run(spec)
        parallel = SweepEngine(jobs=2).run(small_spec())
        assert rows_of(serial) == rows_of(parallel)
        assert [r.stats for r in serial.results] == [r.stats for r in parallel.results]

    def test_unknown_config_lookup_rejected(self):
        outcome = SweepEngine().run(small_spec())
        with pytest.raises(KeyError):
            outcome.config_results(scaled_baseline(window=4096))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)

    def test_ensure_engine_defaults_to_serial_uncached(self):
        engine = ensure_engine(None)
        assert engine.jobs == 1 and engine.cache is None
        assert ensure_engine(engine) is engine

    def test_progress_callback_sees_every_cell(self):
        lines = []
        SweepEngine(jobs=1, progress=lines.append).run(small_spec())
        assert len(lines) == 4
        assert all("simulated" in line for line in lines)


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepEngine(jobs=1, cache=cache).run(small_spec())
        assert first.simulated == 4 and first.cached == 0
        warm_cache = ResultCache(tmp_path)
        second = SweepEngine(jobs=1, cache=warm_cache).run(small_spec())
        assert second.simulated == 0 and second.cached == 4
        assert warm_cache.hits == 4
        assert rows_of(first) == rows_of(second)

    def test_parallel_warm_cache(self, tmp_path):
        SweepEngine(jobs=2, cache=ResultCache(tmp_path)).run(small_spec())
        second = SweepEngine(jobs=2, cache=ResultCache(tmp_path)).run(small_spec())
        assert second.simulated == 0 and second.cached == 4

    def test_config_change_invalidates(self, tmp_path):
        SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        changed = SweepSpec(
            "test-sweep",
            [
                scaled_baseline(window=64, memory_latency=100),
                cooo_config(iq_size=64, sliq_size=512, memory_latency=100),  # iq changed
            ],
            scale=SCALE,
            workloads=WORKLOADS,
        )
        outcome = SweepEngine(cache=ResultCache(tmp_path)).run(changed)
        assert outcome.cached == 2 and outcome.simulated == 2

    def test_scale_change_invalidates(self, tmp_path):
        SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        outcome = SweepEngine(cache=ResultCache(tmp_path)).run(small_spec(scale=0.12))
        assert outcome.cached == 0 and outcome.simulated == 4

    def test_simulator_version_in_key(self):
        config = scaled_baseline(window=64)
        key_now = cell_cache_key(config, "spec2000fp_like", "daxpy", SCALE)
        key_other = cell_cache_key(
            config, "spec2000fp_like", "daxpy", SCALE, simulator_version="0.0.0"
        )
        assert key_now != key_other

    def test_version_bump_invalidates_end_to_end(self, tmp_path, monkeypatch):
        """Entries written at vN are misses after bumping repro.__version__.

        The key builder and the store stamp must read the version at call
        time (not bind it at import), or a bump in a live process would
        keep serving stale results.
        """
        import repro

        SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        monkeypatch.setattr(repro, "__version__", repro.__version__ + ".post1")
        cache = ResultCache(tmp_path)
        outcome = SweepEngine(cache=cache).run(small_spec())
        assert outcome.cached == 0 and outcome.simulated == 4
        assert cache.hits == 0
        # The re-simulated cells were stored under vN+1 keys: a second
        # run at the bumped version is fully warm again.
        warm = SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        assert warm.simulated == 0 and warm.cached == 4

    def test_corrupt_entry_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        baseline = SweepEngine(cache=cache).run(small_spec())
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 4
        entries[0].write_text("{ this is not json")
        entries[1].write_text(json.dumps({"key": "wrong-key", "result": {}}))
        recovery_cache = ResultCache(tmp_path)
        outcome = SweepEngine(cache=recovery_cache).run(small_spec())
        assert outcome.cached == 2 and outcome.simulated == 2
        assert recovery_cache.corrupt == 2
        assert rows_of(outcome) == rows_of(baseline)
        # The corrupt entries were rewritten: a third run is fully warm.
        third = SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        assert third.simulated == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(small_spec())
        assert cache.clear() == 4
        assert list(tmp_path.glob("*.json")) == []


class TestFigureIntegration:
    kwargs = dict(scale=SCALE, grid=((32, 512),), workloads=WORKLOADS)

    def test_figure09_parallel_identical_to_serial(self):
        serial = run_figure09(engine=SweepEngine(jobs=1), **self.kwargs)
        parallel = run_figure09(engine=SweepEngine(jobs=2), **self.kwargs)
        assert serial.rows == parallel.rows
        assert serial.per_workload == parallel.per_workload

    def test_figure09_warm_cache_runs_zero_simulations(self, tmp_path):
        cold = SweepEngine(jobs=1, cache=ResultCache(tmp_path))
        first = run_figure09(engine=cold, **self.kwargs)
        assert cold.total_simulated > 0
        warm = SweepEngine(jobs=1, cache=ResultCache(tmp_path))
        second = run_figure09(engine=warm, **self.kwargs)
        assert warm.total_simulated == 0
        assert warm.total_cached == cold.total_simulated
        assert first.rows == second.rows

    def test_default_engine_keeps_seed_behavior(self):
        # No engine argument: serial, uncached, same rows as an explicit engine.
        assert run_figure09(**self.kwargs).rows == run_figure09(
            engine=SweepEngine(), **self.kwargs
        ).rows


class TestSweepCLI:
    def test_sweep_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "figure07", "--scale", "0.08", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "figure07" in captured.out
        assert "swept 1 experiment(s)" in captured.out
        assert "simulated" in captured.out

    def test_sweep_all_cached_second_run(self, tmp_path, capsys):
        from repro.cli import main

        args = ["sweep", "figure07", "--scale", "0.08", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "0 cell(s) simulated, 8 from cache" in capsys.readouterr().out

    def test_sweep_rejects_unknown(self, capsys):
        from repro.cli import main

        assert main(["sweep", "figure99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_no_cache_flag(self, capsys):
        from repro.cli import main

        code = main(["sweep", "figure07", "--scale", "0.08", "--no-cache"])
        assert code == 0
        assert "figure07" in capsys.readouterr().out


class TestCacheKeyStability:
    """Frozen-hash regression guard for the persistent cache.

    These literals are the cache keys produced when the workload registry
    landed; if either changes, every user's warm sweep cache is silently
    invalidated.  Deliberate invalidation must come from bumping
    ``repro.__version__`` (or the cache schema), not from refactors.
    (Re-pinned at 1.1.0, when sampled warm-up became purely functional.)
    """

    def test_default_suite_keys_are_frozen(self):
        from repro.common.config import cooo_config, scaled_baseline

        assert cell_cache_key(
            scaled_baseline(window=128), "spec2000fp_like", "daxpy", 0.6
        ) == "bae8b0fd9e6fbb7b7b9389b33b213248dbcf6b69dcc8720b41635ca1930213b0"
        assert cell_cache_key(
            cooo_config(), "spec2000fp_like", "gather", 0.6
        ) == "68a9d69c06c37a496aab6379e9f32894219fa7195db7220d5b2be62f94db0044"

    def test_key_derivation_serializes_each_config_once(self, tmp_path, monkeypatch):
        """A sweep derives its cell keys from one ``to_dict()`` per config,
        not one per cell, and the keys equal ``cell_cache_key``'s own."""
        spec = small_spec()
        cells = spec.cells()
        expected = [
            cell_cache_key(cell.config, spec.suite, cell.workload, spec.scale) for cell in cells
        ]
        serialized = []
        to_dict = ProcessorConfig.to_dict

        def counted_to_dict(config):
            serialized.append(config)
            return to_dict(config)

        monkeypatch.setattr(ProcessorConfig, "to_dict", counted_to_dict)
        _, keys = SweepEngine(cache=ResultCache(tmp_path))._load_cached(cells, spec)
        assert keys == expected
        assert len(serialized) == len(spec.configs) < len(cells)

    def test_default_suite_traces_are_frozen(self):
        import hashlib

        from repro.workloads.suite import spec2000fp_like

        traces = spec2000fp_like(scale=0.6)
        blob = "\n".join(trace.to_jsonl() for trace in traces.values())
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert digest == "06396398d66aee5ea92979d3606bff1913063f01fe56b847c5c88c92c4168e58"


class TestRegisteredSuiteSweeps:
    """The three scenario suites drop into the engine with zero edits."""

    @pytest.mark.parametrize("suite", ["pointer-chase", "branch-storm", "server-mix"])
    def test_spec_resolves_registered_suite(self, suite):
        spec = SweepSpec("s", [cooo_config(iq_size=32, sliq_size=512, memory_latency=100)], scale=0.05, suite=suite)
        assert len(spec.workload_names()) >= 3
        assert len(spec) == len(spec.workload_names())

    def test_run_many_over_new_suite(self):
        from repro.api import run_many

        results = run_many([cooo_config(iq_size=32, sliq_size=512, memory_latency=100)], suite="branch-storm", scale=0.05)
        assert len(results) == 1
        _, per_workload = results[0]
        assert set(per_workload) == {"storm_even", "storm_biased", "storm_dense"}
        assert all(result.ipc > 0 for result in per_workload.values())

    def test_engine_caches_new_suite(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec("s", [cooo_config(iq_size=32, sliq_size=512, memory_latency=100)], scale=0.05, suite="pointer-chase")
        engine = SweepEngine(jobs=1, cache=cache)
        cold = engine.run(spec)
        warm = engine.run(spec)
        assert cold.simulated == len(spec)
        assert warm.cached == len(spec)
        assert [r.to_dict() for r in warm.results] == [r.to_dict() for r in cold.results]

    def test_unknown_suite_error_lists_names(self):
        spec = SweepSpec("s", [cooo_config(iq_size=32, sliq_size=512, memory_latency=100)], suite="nope")
        with pytest.raises(KeyError, match="registered suites"):
            spec.workload_names()


class TestCorruptCacheResilience:
    """A damaged cache entry is a miss (removed + re-simulated), never an error."""

    def _damage_and_recover(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        baseline = SweepEngine(cache=cache).run(small_spec())
        victim = sorted(tmp_path.glob("*.json"))[0]
        damage(victim)
        recovery_cache = ResultCache(tmp_path)
        outcome = SweepEngine(cache=recovery_cache).run(small_spec())
        assert recovery_cache.corrupt == 1
        assert outcome.simulated == 1 and outcome.cached == 3
        assert rows_of(outcome) == rows_of(baseline)
        # The bad file was removed and rewritten with a good entry.
        third = SweepEngine(cache=ResultCache(tmp_path)).run(small_spec())
        assert third.simulated == 0

    def test_hand_truncated_entry_is_a_miss(self, tmp_path):
        def truncate(path):
            payload = path.read_text()
            path.write_text(payload[: len(payload) // 2])

        self._damage_and_recover(tmp_path, truncate)

    def test_non_object_json_entry_is_a_miss(self, tmp_path):
        """A valid-JSON file whose top level is not an object used to raise
        AttributeError out of ``payload.get``; it must count as corrupt."""
        self._damage_and_recover(
            tmp_path, lambda path: path.write_text(json.dumps([1, 2, 3]))
        )

    def test_empty_file_is_a_miss(self, tmp_path):
        self._damage_and_recover(tmp_path, lambda path: path.write_text(""))

    def test_non_integer_distribution_weight_is_a_miss(self, tmp_path):
        """Distribution weights are always int-keyed: a weight key that is
        not an integer makes the entry corrupt instead of loading it with
        a string key."""

        def rename_a_weight(path):
            payload = json.loads(path.read_text())
            weights = payload["result"]["stats"]["occupancy.in_flight_dist"]["weights"]
            weights["x"] = weights.pop(next(iter(weights)))
            path.write_text(json.dumps(payload))

        self._damage_and_recover(tmp_path, rename_a_weight)

    def test_load_returns_none_and_unlinks(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("deadbeef")
        path.write_text("[:truncated")
        assert cache.load("deadbeef") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert not path.exists()


class TestParallelTraceLocality:
    """Workload-major ordering + chunking keep worker trace caches hot."""

    def _grid_spec(self):
        configs = [
            scaled_baseline(window=32, memory_latency=100),
            scaled_baseline(window=64, memory_latency=100),
            cooo_config(iq_size=16, sliq_size=256, memory_latency=100),
            cooo_config(iq_size=32, sliq_size=512, memory_latency=100),
        ]
        return SweepSpec("locality", configs, scale=SCALE, workloads=WORKLOADS)

    @staticmethod
    def _builds_for(ordered_cells, chunksize, workers):
        """Traces each simulated worker would build under pool chunking.

        ``imap`` hands out consecutive chunks of ``chunksize`` tasks
        round-robin; each worker builds one trace per distinct workload
        it sees (the per-process ``suite_traces`` memo).
        """
        chunks = [
            ordered_cells[i : i + chunksize]
            for i in range(0, len(ordered_cells), chunksize)
        ]
        per_worker = [set() for _ in range(workers)]
        for index, chunk in enumerate(chunks):
            per_worker[index % workers].update(cell.workload for cell in chunk)
        return sum(len(seen) for seen in per_worker)

    def test_pending_cells_are_workload_major(self):
        from repro.experiments.sweep import _workload_major

        spec = self._grid_spec()
        cells = spec.cells()
        ordered = _workload_major(cells, [None] * len(cells), spec)
        workloads_seen = [cell.workload for cell in ordered]
        # All cells of one workload are contiguous, workloads in suite order.
        assert workloads_seen == sorted(
            workloads_seen, key=lambda w: spec.workload_names().index(w)
        )
        # Config order is preserved within each workload block.
        for workload in WORKLOADS:
            block = [c.config.name for c in ordered if c.workload == workload]
            assert block == [c.name for c in spec.configs]
        # Cached cells are excluded.
        slots = [None] * len(cells)
        slots[cells[0].index] = object()
        assert len(_workload_major(cells, slots, spec)) == len(cells) - 1

    def test_ordering_and_chunksize_reduce_trace_builds(self):
        from repro.experiments.sweep import _locality_chunksize, _workload_major

        spec = self._grid_spec()
        cells = spec.cells()
        # 3 workers: config-major chunksize-1 distribution hands every
        # worker a mix of workloads (with 2 workers the 4x2 grid happens
        # to alternate into alignment, hiding the problem).
        workers = 3
        naive_builds = self._builds_for(cells, 1, workers)  # pre-PR behavior
        ordered = _workload_major(cells, [None] * len(cells), spec)
        chunksize = _locality_chunksize(ordered, workers)
        assert chunksize > 1
        tuned_builds = self._builds_for(ordered, chunksize, workers)
        assert tuned_builds < naive_builds
        # Two workers with workload-sized chunks: each worker sees exactly
        # one workload's run — the minimum possible build count.
        two_worker_builds = self._builds_for(
            ordered, _locality_chunksize(ordered, 2), 2
        )
        assert two_worker_builds == len(WORKLOADS)

    def test_worker_trace_build_counter(self):
        from repro.experiments import runner
        from repro.experiments.sweep import CellTask, _workload_major, run_cell

        spec = self._grid_spec()
        cells = spec.cells()
        ordered = _workload_major(cells, [None] * len(cells), spec)
        tasks = [
            CellTask(cell.config, spec.suite, spec.scale, cell.workload)
            for cell in ordered
        ]
        runner._member_trace.cache_clear()
        for task in tasks:
            run_cell(task, 0)
        # One build per workload, not one per cell.
        assert runner._member_trace.cache_info().misses == len(WORKLOADS)
        assert len(tasks) == len(WORKLOADS) * len(spec.configs)

    def test_parallel_run_matches_serial_with_reordering(self):
        spec = self._grid_spec()
        serial = SweepEngine(jobs=1).run(spec)
        parallel = SweepEngine(jobs=2).run(spec)
        assert rows_of(parallel) == rows_of(serial)


class TestWorkerCacheAggregation:
    """Worker-side cache traffic must reach the parent's counters.

    Parallel cells load/store the persistent cache inside the pool
    workers; the per-cell meta they report is folded back into the
    parent ResultCache counters and the SweepOutcome, so 'repro sweep'
    summary lines see the whole sweep's cache traffic.
    """

    def test_parallel_run_reports_worker_stores_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        outcome = SweepEngine(jobs=2, cache=cache).run(spec)
        cells = len(spec.cells())
        assert outcome.simulated == cells
        assert outcome.cache_hits == 0
        assert outcome.cache_misses == cells
        assert outcome.worker_busy > 0
        # Parent lookups missed every cell, worker lookups missed again,
        # and the workers stored every fresh result.
        assert cache.stores == cells
        assert cache.misses == 2 * cells
        assert cache.hits == 0

    def test_second_parallel_run_hits_in_parent(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        first = SweepEngine(jobs=2, cache=cache).run(spec)
        second = SweepEngine(jobs=2, cache=cache).run(spec)
        assert second.simulated == 0
        assert second.cached == len(spec.cells())
        assert second.cache_hits == len(spec.cells())
        assert second.cache_misses == 0
        assert rows_of(second) == rows_of(first)

    def test_worker_cell_hits_cache_directly(self, tmp_path):
        from repro.experiments.sweep import CellTask, run_cell

        spec = small_spec()
        cell = spec.cells()[0]
        key = cell_cache_key(cell.config, spec.suite, cell.workload, spec.scale)
        task = CellTask(
            cell.config, spec.suite, spec.scale, cell.workload,
            cache=ResultCache(tmp_path), key=key,
        )
        first_result, first_meta = run_cell(task, 0)
        assert first_meta["cache_hit"] is False
        assert first_meta["cache"]["stores"] == 1
        second_result, second_meta = run_cell(task, 0)
        assert second_meta["cache_hit"] is True
        assert second_meta["cache"]["stores"] == 0
        assert second_result.summary_row() == first_result.summary_row()


class TestSweepTelemetry:
    """Per-cell tracer spans and worker-utilization metrics."""

    def _session(self):
        from repro.telemetry import TelemetrySession

        return TelemetrySession(timeline=False)

    def test_serial_cell_spans_cover_sweep_wall_clock(self):
        session = self._session()
        spec = small_spec()
        outcome = SweepEngine(jobs=1, telemetry=session).run(spec)
        tracer = session.tracer
        cell_spans = [s for s in tracer.spans if s.name.startswith("cell:")]
        assert len(cell_spans) == len(spec.cells())
        covered = sum(s.duration for s in cell_spans) + tracer.total("sweep:trace-build")
        # The per-cell spans (plus trace build) account for the sweep's
        # measured wall-clock to within 5%.
        assert covered <= outcome.elapsed
        assert covered >= 0.95 * outcome.elapsed

    def test_parallel_worker_spans_land_on_worker_tracks(self):
        session = self._session()
        spec = small_spec()
        SweepEngine(jobs=2, telemetry=session).run(spec)
        cell_spans = [s for s in session.tracer.spans if s.name.startswith("cell:")]
        assert len(cell_spans) == len(spec.cells())
        assert all(s.tid > 0 for s in cell_spans)
        metrics = session.metrics.to_dict()
        assert metrics["sweep.workers"]["value"] == 2.0
        assert 0.0 < metrics["sweep.worker_utilization"]["value"] <= 1.5
        assert metrics["sweep.cells_simulated"]["value"] == len(spec.cells())

    def test_telemetry_does_not_change_results(self):
        spec = small_spec()
        bare = SweepEngine(jobs=1).run(spec)
        observed = SweepEngine(jobs=1, telemetry=self._session()).run(spec)
        assert rows_of(observed) == rows_of(bare)


class TestResultCacheEviction:
    """The size cap added with the warm-checkpoint PR: LRU by mtime."""

    def _entry_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(jobs=1, cache=cache).run(small_spec())
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 4
        return max(path.stat().st_size for path in entries)

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(jobs=1, cache=cache).run(small_spec())
        assert cache.max_bytes is None
        assert cache.evictions == 0 and cache.evicted_bytes == 0

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=-1)

    def test_store_evicts_down_to_budget(self, tmp_path):
        entry = self._entry_bytes(tmp_path / "probe")
        budget = 2 * entry  # room for at most two of the four entries
        cache = ResultCache(tmp_path / "capped", max_bytes=budget)
        outcome = SweepEngine(jobs=1, cache=cache).run(small_spec())
        remaining = list((tmp_path / "capped").glob("*.json"))
        assert sum(path.stat().st_size for path in remaining) <= budget
        assert len(remaining) < 4
        assert cache.evictions == 4 - len(remaining)
        assert cache.evicted_bytes > 0
        assert outcome.cache_evictions == cache.evictions

    def test_outcome_reports_zero_without_cap(self, tmp_path):
        outcome = SweepEngine(jobs=1, cache=ResultCache(tmp_path)).run(small_spec())
        assert outcome.cache_evictions == 0

    def test_lru_prefers_recently_loaded(self, tmp_path):
        """A load hit refreshes recency, so eviction removes the cold key."""
        import time as _time

        cache = ResultCache(tmp_path)
        result = SweepEngine(jobs=1, cache=cache).run(small_spec()).results[0]
        cache.clear()
        cache.store("cold", result)
        _time.sleep(0.05)
        cache.store("warm", result)
        _time.sleep(0.05)
        # Touch the older entry: it becomes the most recently used.
        assert cache.load("cold") is not None
        entry = cache.path_for("warm").stat().st_size
        capped = ResultCache(tmp_path, max_bytes=entry)
        capped.store("new", result)
        assert capped.evictions >= 1
        assert cache.path_for("cold").exists() or cache.path_for("new").exists()
        assert not cache.path_for("warm").exists(), (
            "the least recently used entry should have been evicted first"
        )

    def test_parallel_workers_report_evictions(self, tmp_path):
        entry = self._entry_bytes(tmp_path / "probe")
        cache = ResultCache(tmp_path / "capped", max_bytes=entry)
        outcome = SweepEngine(jobs=2, cache=cache).run(small_spec())
        assert outcome.cache_evictions >= 1
        remaining = list((tmp_path / "capped").glob("*.json"))
        assert sum(path.stat().st_size for path in remaining) <= entry

    def test_eviction_keeps_results_correct(self, tmp_path):
        baseline = SweepEngine(jobs=1).run(small_spec())
        entry = self._entry_bytes(tmp_path / "probe")
        capped = SweepEngine(
            jobs=1, cache=ResultCache(tmp_path / "capped", max_bytes=entry)
        ).run(small_spec())
        assert rows_of(capped) == rows_of(baseline)
