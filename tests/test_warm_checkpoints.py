"""Warm-state checkpoints and parallel sampled windows (perf PR).

Three properties are load-bearing and pinned here:

* **Integrity** — checkpoint files are versioned gzip-JSON with the
  same hostile-input posture as trace files: truncation, foreign
  formats, wrong versions and tampered bodies are rejected or treated
  as misses, never adopted.  The sha256 key covers exactly what shapes
  warm state, so configs that only differ in ROB/IQ/latency knobs share
  a checkpoint while anything that changes the memory image does not.
* **Equivalence** — ``parallel_windows=N`` and checkpoint reuse are
  pure performance levers: every registered machine produces a
  bit-identical :class:`SimulationResult` serial vs parallel, cold vs
  checkpoint-hit, and under injected worker crashes.
* **Sharing** — a two-machine sampled sweep pointed at one checkpoint
  directory performs exactly one functional warm-up pass (the
  ``WARM_PASSES`` counter).
"""

import argparse
import gzip
import json

import pytest

from repro import __version__, api
from repro.common.config import SamplingPlan, scaled_baseline
from repro.common.errors import ConfigurationError, SimulationError, TraceError
from repro.common.stats import StatsRegistry
from repro.core import sampling as sampling_mod
from repro.core import warmstate
from repro.core.registry_machines import get_machine, machine_names
from repro.core.sampling import run_sampled, warm_checkpoint
from repro.robustness import FaultInjector, parse_fault_plan
from repro.trace.io import (
    CHECKPOINT_SUFFIX,
    WarmCheckpoint,
    checkpoint_info,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads import daxpy

MEMORY_LATENCY = 300

#: 21003-instruction daxpy => five detailed windows under this plan.
PLAN = SamplingPlan(period=5000, window=800, warmup=200)


def machine_config(mode: str):
    """A small config for ``mode`` via its registered CLI profile."""
    args = argparse.Namespace(
        window=1024,
        iq_size=32,
        sliq_size=256,
        checkpoints=8,
        memory_latency=MEMORY_LATENCY,
        reinsert_delay=4,
        virtual_tags=None,
        physical_registers=None,
        perfect_l2=False,
        late_allocation=False,
    )
    return get_machine(mode).build_cli_config(args)


@pytest.fixture(scope="module")
def trace():
    return daxpy(elements=3000)


def effective(config):
    return get_machine(config.mode).pipeline_class.effective_config(config)


# ---------------------------------------------------------------------------
# Checkpoint files: round trip, keys, hostile input
# ---------------------------------------------------------------------------


class TestCheckpointFiles:
    def test_round_trip_and_header(self, trace, tmp_path):
        config = machine_config("baseline")
        path, key, reused = warm_checkpoint(config, trace, PLAN, tmp_path)
        assert not reused
        assert path.name == f"{key}{CHECKPOINT_SUFFIX}"
        header = checkpoint_info(path)
        assert header["trace_name"] == trace.name
        assert header["instructions"] == len(trace)
        assert header["windows"] == 5
        assert header["simulator_version"] == __version__
        checkpoint = load_checkpoint(path)
        assert checkpoint.key == key
        assert checkpoint.trace_digest == trace.digest()
        assert len(checkpoint.snapshots) == len(checkpoint.boundaries) == 5

    def test_save_is_reused_not_rebuilt(self, trace, tmp_path):
        config = machine_config("baseline")
        before = sampling_mod.WARM_PASSES
        first = warm_checkpoint(config, trace, PLAN, tmp_path)
        second = warm_checkpoint(config, trace, PLAN, tmp_path)
        assert sampling_mod.WARM_PASSES == before + 1
        assert first[:2] == second[:2]
        assert (first[2], second[2]) == (False, True)

    def test_degenerate_plan_has_nothing_to_checkpoint(self, trace, tmp_path):
        continuous = SamplingPlan(period=1000, window=800, warmup=200)
        with pytest.raises(ConfigurationError, match="no warm state"):
            warm_checkpoint(machine_config("baseline"), trace, continuous, tmp_path)

    def test_key_shared_across_timing_knobs(self, trace):
        """ROB/IQ/SLIQ/latency knobs do not perturb warm state."""
        digest = trace.digest()
        base = warmstate.checkpoint_key(digest, PLAN, effective(machine_config("baseline")))
        assert base == warmstate.checkpoint_key(
            digest, PLAN, effective(machine_config("cooo"))
        )
        assert base == warmstate.checkpoint_key(
            digest, PLAN, effective(machine_config("unbounded-rob"))
        )
        wide = machine_config("baseline").copy()
        wide.core.rob_size = 8192
        wide.memory.memory_latency = 2000
        assert base == warmstate.checkpoint_key(digest, PLAN, effective(wide))

    def test_key_misses_on_warm_parameter_changes(self, trace):
        digest = trace.digest()
        base = warmstate.checkpoint_key(digest, PLAN, effective(machine_config("baseline")))
        # A machine that changes the memory image (perfect L2) misses.
        assert base != warmstate.checkpoint_key(
            digest, PLAN, effective(machine_config("perfect-l2"))
        )
        # A different plan or trace digest misses.
        other_plan = SamplingPlan(period=5000, window=900, warmup=100)
        assert base != warmstate.checkpoint_key(
            digest, other_plan, effective(machine_config("baseline"))
        )
        assert base != warmstate.checkpoint_key(
            "0" * 64, PLAN, effective(machine_config("baseline"))
        )

    def test_truncated_gzip_is_quarantined_not_adopted(self, trace, tmp_path):
        config = machine_config("baseline")
        path, key, _ = warm_checkpoint(config, trace, PLAN, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert warmstate.load_matching_checkpoint(tmp_path, key) is None
        quarantined = list(tmp_path.glob("*.corrupt"))
        assert quarantined, "a truncated checkpoint should be quarantined"
        # The sampled run simply re-warms and matches a checkpoint-free run.
        fresh = run_sampled(config, trace, PLAN, checkpoint_dir=tmp_path)
        bare = run_sampled(config, trace, PLAN)
        assert fresh.to_dict() == bare.to_dict()

    def test_foreign_and_wrong_version_headers_rejected(self, tmp_path):
        foreign = tmp_path / f"foreign{CHECKPOINT_SUFFIX}"
        with gzip.open(foreign, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(TraceError, match="not a repro-warm-checkpoint"):
            checkpoint_info(foreign)
        for version in [99, True, "1", None]:
            bad = tmp_path / f"v{str(version)[:4]}{CHECKPOINT_SUFFIX}"
            with gzip.open(bad, "wt", encoding="utf-8") as handle:
                handle.write(
                    json.dumps({"format": "repro-warm-checkpoint", "version": version})
                    + "\n"
                )
            with pytest.raises(TraceError, match="unsupported checkpoint format version"):
                checkpoint_info(bad)

    def test_renamed_checkpoint_never_misadopted(self, trace, tmp_path):
        """A file whose content key differs from the requested key is a miss."""
        config = machine_config("baseline")
        path, key, _ = warm_checkpoint(config, trace, PLAN, tmp_path)
        other_key = warmstate.checkpoint_key(
            trace.digest(), PLAN, effective(machine_config("perfect-l2"))
        )
        path.rename(warmstate.checkpoint_path(tmp_path, other_key))
        assert warmstate.load_matching_checkpoint(tmp_path, other_key) is None

    def test_tampered_warm_stats_is_a_miss(self, trace, tmp_path):
        config = machine_config("baseline")
        path, key, _ = warm_checkpoint(config, trace, PLAN, tmp_path)
        checkpoint = load_checkpoint(path)
        hostile = WarmCheckpoint(
            key=checkpoint.key,
            simulator_version=checkpoint.simulator_version,
            trace_digest=checkpoint.trace_digest,
            trace_name=checkpoint.trace_name,
            instructions=checkpoint.instructions,
            plan=checkpoint.plan,
            params=checkpoint.params,
            boundaries=checkpoint.boundaries,
            snapshots=checkpoint.snapshots,
            warm_stats={"counters": [["broken"]], "distributions": []},
        )
        save_checkpoint(hostile, path)
        before = sampling_mod.WARM_PASSES
        poisoned = run_sampled(config, trace, PLAN, checkpoint_dir=tmp_path)
        assert sampling_mod.WARM_PASSES == before + 1, "tampered stats must re-warm"
        assert poisoned.to_dict() == run_sampled(config, trace, PLAN).to_dict()

    def test_instruction_count_mismatch_is_a_miss(self, trace, tmp_path):
        config = machine_config("baseline")
        path, key, _ = warm_checkpoint(config, trace, PLAN, tmp_path)
        checkpoint = load_checkpoint(path)
        hostile = WarmCheckpoint(
            key=checkpoint.key,
            simulator_version=checkpoint.simulator_version,
            trace_digest=checkpoint.trace_digest,
            trace_name=checkpoint.trace_name,
            instructions=checkpoint.instructions + 1,
            plan=checkpoint.plan,
            params=checkpoint.params,
            boundaries=checkpoint.boundaries,
            snapshots=checkpoint.snapshots,
            warm_stats=checkpoint.warm_stats,
        )
        save_checkpoint(hostile, path)
        before = sampling_mod.WARM_PASSES
        result = run_sampled(config, trace, PLAN, checkpoint_dir=tmp_path)
        assert sampling_mod.WARM_PASSES == before + 1
        assert result.to_dict() == run_sampled(config, trace, PLAN).to_dict()


# ---------------------------------------------------------------------------
# Serial == parallel, on every registered machine
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    @pytest.mark.parametrize("mode", machine_names())
    def test_parallel_windows_bit_identical(self, mode, trace):
        config = machine_config(mode)
        serial = run_sampled(config, trace, PLAN)
        parallel = run_sampled(config, trace, PLAN, parallel_windows=2)
        assert serial.to_dict() == parallel.to_dict(), (
            f"{mode}: parallel sampled windows diverged from serial"
        )

    def test_checkpoint_hit_parallel_matches_cold_serial(self, trace, tmp_path):
        config = machine_config("cooo")
        cold = run_sampled(config, trace, PLAN)
        run_sampled(config, trace, PLAN, checkpoint_dir=tmp_path)  # store
        before = sampling_mod.WARM_PASSES
        warmed = run_sampled(
            config, trace, PLAN, parallel_windows=2, checkpoint_dir=tmp_path
        )
        assert sampling_mod.WARM_PASSES == before, "expected a checkpoint hit"
        assert warmed.to_dict() == cold.to_dict()

    def test_parallel_rejects_probes_and_progress(self, trace):
        from repro.core.probes import CallbackProbe

        config = machine_config("baseline")
        probe = CallbackProbe(on_cycle=lambda pipeline: None)
        with pytest.raises(ConfigurationError, match="parallel sampled windows"):
            run_sampled(config, trace, PLAN, parallel_windows=2, probes=[probe])
        with pytest.raises(ConfigurationError, match="parallel sampled windows"):
            run_sampled(
                config, trace, PLAN, parallel_windows=2, progress=lambda p: None
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_window_raises_simulation_error(self, jobs):
        with pytest.raises(
            SimulationError, match=r"window 0: SimulationError: exceeded max_cycles=50"
        ):
            run_sampled(
                scaled_baseline(window=64, memory_latency=100),
                daxpy(elements=3000),
                SamplingPlan.parse("4000:500:200"),
                parallel_windows=jobs,
                max_cycles=50,
            )

    def test_single_job_stays_on_serial_driver(self, trace):
        """parallel_windows=1 must not fork at all (probes still allowed)."""
        config = machine_config("baseline")
        result = run_sampled(
            config, trace, PLAN, parallel_windows=1, progress=lambda p: None
        )
        assert result.to_dict() == run_sampled(config, trace, PLAN).to_dict()

    def test_worker_crashes_recover_bit_identically(self, trace):
        """Every window's first attempt crashes; retries reproduce serial."""
        config = machine_config("cooo")
        injector = FaultInjector(parse_fault_plan("worker.crash@a0=1.0"))
        crashed = run_sampled(
            config, trace, PLAN, parallel_windows=2, injector=injector
        )
        assert crashed.to_dict() == run_sampled(config, trace, PLAN).to_dict()

    def test_api_threads_sample_jobs(self, trace, tmp_path):
        config = machine_config("baseline")
        serial = api.run(config, trace, sampling=PLAN)
        parallel = api.run(
            config,
            trace,
            sampling=PLAN,
            sample_jobs=2,
            checkpoint_dir=tmp_path,
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_api_rejects_sample_knobs_without_plan(self, trace, tmp_path):
        with pytest.raises(ValueError, match="sample_jobs/checkpoint_dir"):
            api.Simulation(machine_config("baseline"), sample_jobs=2)
        with pytest.raises(ValueError, match="sample_jobs/checkpoint_dir"):
            api.Simulation(machine_config("baseline"), checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="sample_jobs"):
            api.Simulation(machine_config("baseline"), sampling=PLAN, sample_jobs=0)


# ---------------------------------------------------------------------------
# Cross-config sharing: an N-machine sweep warms up once
# ---------------------------------------------------------------------------


class TestWarmSharing:
    def test_two_machine_sweep_single_warm_pass(self, trace, tmp_path):
        """Configs differing only in timing knobs share one functional pass."""
        machines = [machine_config("baseline"), machine_config("cooo")]
        sampling_mod.WARM_PASSES = 0
        results = [
            (
                config,
                api.Simulation(config, sampling=PLAN, checkpoint_dir=tmp_path).run_suite(
                    {trace.name: trace}
                ),
            )
            for config in machines
        ]
        assert sampling_mod.WARM_PASSES == 1, (
            "second machine should adopt the first machine's checkpoint"
        )
        assert len(results) == 2
        for config, by_name in results:
            bare = run_sampled(config, trace, PLAN)
            assert by_name[trace.name].to_dict() == bare.to_dict()

    def test_checkpoint_dir_eviction_budget(self, trace, tmp_path):
        """checkpoint_max_bytes caps the directory like the sweep cache."""
        config = machine_config("baseline")
        run_sampled(config, trace, PLAN, checkpoint_dir=tmp_path)
        assert list(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))
        other = SamplingPlan(period=5000, window=900, warmup=100)
        run_sampled(
            config,
            trace,
            other,
            checkpoint_dir=tmp_path,
            checkpoint_max_bytes=1,
        )
        remaining = list(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))
        assert len(remaining) == 0, "a 1-byte budget should evict everything"
