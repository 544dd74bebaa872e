"""Tests for the unified facade: registry, probes, Simulation."""

from __future__ import annotations

import pytest

from repro import api
from repro.common.config import ProcessorConfig, cooo_config, scaled_baseline
from repro.common.errors import ConfigurationError
from repro.core.pipeline import BaselinePipeline, OoOCommitPipeline
from repro.core.probes import PROBE_EVENTS, CallbackProbe, Probe
from repro.core.registry_machines import (
    create_pipeline,
    get_machine,
    machine_names,
    machine_specs,
    register_machine,
    unregister_machine,
)
from repro.experiments.sweep import ResultCache, SweepEngine, SweepSpec
from repro.workloads import daxpy
from repro.workloads.builder import TraceBuilder
from repro.workloads.integer import branchy_integer


class TestMachineRegistry:
    def test_builtins_registered(self):
        names = machine_names()
        for expected in ("baseline", "cooo", "perfect-l2", "unbounded-rob"):
            assert expected in names

    def test_specs_have_descriptions(self):
        for spec in machine_specs():
            assert spec.description, f"{spec.name} lacks a description"

    def test_get_machine_resolves_classes(self):
        assert get_machine("baseline").pipeline_class is BaselinePipeline
        assert get_machine("cooo").pipeline_class is OoOCommitPipeline
        assert get_machine("cooo").supports_late_allocation
        assert not get_machine("baseline").supports_late_allocation

    def test_unknown_mode_lists_registered_machines(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ProcessorConfig(mode="vliw").validate()
        message = str(excinfo.value)
        assert "vliw" in message
        assert "baseline" in message and "cooo" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_machine("baseline")(OoOCommitPipeline)

    def test_reregistering_same_class_is_idempotent(self):
        assert register_machine("baseline")(BaselinePipeline) is BaselinePipeline

    def test_unregister_unknown_machine(self):
        with pytest.raises(KeyError):
            unregister_machine("no-such-machine")

    def test_register_new_machine_without_core_edits(self, small_daxpy_trace):
        """A plugin machine is validatable, runnable and listable at once."""

        @register_machine("test-narrow", description="baseline at half commit width")
        class NarrowCommitPipeline(BaselinePipeline):
            def __init__(self, config, trace, stats=None, probes=()):
                config = config.copy()
                config.core.commit_width = max(1, config.core.commit_width // 2)
                super().__init__(config, trace, stats, probes)

        try:
            assert "test-narrow" in machine_names()
            config = scaled_baseline(window=64, memory_latency=50).copy(mode="test-narrow")
            config.validate()  # registry-driven: no edits to config.py
            result = api.run(config, small_daxpy_trace)
            assert result.committed_instructions == len(small_daxpy_trace)
            assert result.mode == "test-narrow"
            baseline = api.run(
                scaled_baseline(window=64, memory_latency=50), small_daxpy_trace
            )
            assert result.cycles >= baseline.cycles
        finally:
            unregister_machine("test-narrow")
        assert "test-narrow" not in machine_names()

    def test_late_allocation_rejected_for_non_capable_machines(self):
        config = scaled_baseline(window=64, memory_latency=50)
        config.regalloc.late_allocation = True
        with pytest.raises(ConfigurationError, match="late register allocation"):
            config.validate()


class TestNewVariants:
    def test_perfect_l2_beats_plain_baseline_under_latency(self, small_daxpy_trace):
        base = scaled_baseline(window=64, memory_latency=800)
        perfect = base.copy(mode="perfect-l2")
        slow = api.run(base, small_daxpy_trace)
        fast = api.run(perfect, small_daxpy_trace)
        assert fast.ipc > 1.5 * slow.ipc
        assert fast.l2_miss_loads == 0

    def test_perfect_l2_does_not_mutate_caller_config(self, small_daxpy_trace):
        config = scaled_baseline(window=64, memory_latency=800)
        api.run(config.copy(mode="perfect-l2"), small_daxpy_trace)
        assert config.memory.perfect_l2 is False

    def test_unbounded_rob_window_exceeds_configured_rob(self):
        trace = daxpy(elements=300)
        bounded = scaled_baseline(window=64, memory_latency=300)
        unbounded = bounded.copy(mode="unbounded-rob")
        small = api.run(bounded, trace)
        ideal = api.run(unbounded, trace)
        # The configured 64-entry window cannot hold more than 64 in flight;
        # the idealised machine blows straight past it and gains IPC.
        assert small.mean_in_flight <= 64
        assert ideal.mean_in_flight > 64
        assert ideal.ipc > small.ipc

    def test_variants_sweep_and_cache(self, tmp_path):
        configs = [
            scaled_baseline(window=64, memory_latency=200).copy(mode="perfect-l2"),
            scaled_baseline(window=64, memory_latency=200).copy(mode="unbounded-rob"),
        ]
        spec = SweepSpec("variants", configs, scale=0.2, workloads=("daxpy",))
        engine = SweepEngine(cache=ResultCache(tmp_path))
        cold = engine.run(spec)
        assert cold.simulated == 2 and cold.cached == 0
        warm = SweepEngine(cache=ResultCache(tmp_path)).run(spec)
        assert warm.simulated == 0 and warm.cached == 2
        for (config, results), reference in zip(warm.per_config(), cold.per_config()):
            assert results["daxpy"].ipc == reference[1]["daxpy"].ipc

    def test_variants_runnable_from_cli(self, capsys):
        from repro.cli import main

        assert main([
            "simulate", "--machine", "unbounded-rob", "--workload", "daxpy",
            "--size", "40", "--memory-latency", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "unbounded-rob" in out

    def test_modes_subcommand_lists_machines(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in machine_names():
            assert name in out


class RecordingProbe(Probe):
    """Appends (event, seq-or-cycle) tuples for ordering assertions."""

    def on_attach(self, pipeline):
        self.events = []
        self.cycles = 0

    def on_cycle(self, pipeline):
        self.cycles += 1

    def on_dispatch(self, pipeline, inst):
        self.events.append(("dispatch", inst.seq))

    def on_issue(self, pipeline, inst):
        self.events.append(("issue", inst.seq))

    def on_complete(self, pipeline, inst):
        self.events.append(("complete", inst.seq))

    def on_commit(self, pipeline, inst):
        self.events.append(("commit", inst.seq))

    def on_squash(self, pipeline, inst):
        self.events.append(("squash", inst.seq))

    def on_checkpoint(self, pipeline, checkpoint):
        self.events.append(("checkpoint", checkpoint.uid))

    def per_instruction(self):
        ordering = {}
        for position, (event, seq) in enumerate(self.events):
            if event in ("dispatch", "issue", "complete", "commit", "squash"):
                ordering.setdefault(seq, []).append(event)
        return ordering


class TestProbes:
    def test_event_ordering_per_instruction(self, fast_baseline_config, small_daxpy_trace):
        probe = RecordingProbe()
        result = api.run(fast_baseline_config, small_daxpy_trace, probes=[probe])
        assert probe.cycles == result.cycles
        per_inst = probe.per_instruction()
        committed = [seq for seq, events in per_inst.items() if "commit" in events]
        assert len(committed) == result.committed_instructions
        for seq in committed:
            assert per_inst[seq] == ["dispatch", "issue", "complete", "commit"]

    def test_squashed_instructions_never_commit(self, fast_baseline_config):
        trace = branchy_integer(iterations=150, taken_probability=0.5)
        probe = RecordingProbe()
        api.run(fast_baseline_config, trace, probes=[probe])
        per_inst = probe.per_instruction()
        squashed = [seq for seq, events in per_inst.items() if "squash" in events]
        assert squashed, "expected mispredictions to squash instructions"
        for seq in squashed:
            assert "commit" not in per_inst[seq]
            assert per_inst[seq][-1] == "squash"

    def test_checkpoint_events_match_created_stat(self, fast_cooo_config, small_daxpy_trace):
        probe = RecordingProbe()
        result = api.run(fast_cooo_config, small_daxpy_trace, probes=[probe])
        checkpoints = [entry for entry in probe.events if entry[0] == "checkpoint"]
        assert len(checkpoints) == int(result.stat("checkpoint.created"))

    def test_probes_do_not_change_results(self, fast_cooo_config, small_daxpy_trace):
        plain = api.run(fast_cooo_config, small_daxpy_trace)
        probed = api.run(
            fast_cooo_config, small_daxpy_trace, probes=[RecordingProbe(), Probe()]
        )
        assert probed.cycles == plain.cycles
        assert probed.to_dict() == plain.to_dict()

    def test_zero_probes_same_timing_without_occupancy_stats(
        self, fast_baseline_config, small_daxpy_trace
    ):
        # Occupancy is pipeline state, so a run with zero probes needs no
        # occupancy probe for its stats and keeps the timing of an observed run.
        bare = api.run(fast_baseline_config, small_daxpy_trace)
        observed = api.run(
            fast_baseline_config,
            small_daxpy_trace,
            probes=[CallbackProbe(on_cycle=lambda pipe: None)],
        )
        assert bare.cycles == observed.cycles and bare.ipc == observed.ipc
        assert bare.mean_in_flight > 0
        for name in ("occupancy.in_flight.mean", "occupancy.live.mean"):
            assert bare.stats[name] == observed.stats[name]

    def test_occupancy_probe_reachable_from_pipeline(
        self, fast_baseline_config, small_daxpy_trace
    ):
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        assert pipeline.probes == ()
        result = pipeline.run()
        assert result.mean_in_flight > 0
        assert pipeline.in_flight == 0
        assert pipeline.live == 0

    def test_callback_probe_and_late_attach(self, fast_baseline_config, small_daxpy_trace):
        commits = []
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        pipeline.attach_probe(
            CallbackProbe(on_commit=lambda pipe, inst: commits.append(inst.seq))
        )
        result = pipeline.run()
        assert len(commits) == result.committed_instructions
        assert commits == sorted(commits)

    def test_callback_probe_rejects_unknown_events(self):
        with pytest.raises(TypeError, match="unknown probe events"):
            CallbackProbe(on_teleport=lambda pipe: None)

    def test_probe_events_are_dispatched_only_when_overridden(
        self, fast_baseline_config, small_daxpy_trace
    ):
        pipeline = create_pipeline(fast_baseline_config, small_daxpy_trace)
        for event in PROBE_EVENTS:
            assert getattr(pipeline, f"_hooks_{event[3:]}") == []
        pipeline.attach_probe(CallbackProbe(on_cycle=lambda pipe: None))
        assert len(pipeline._hooks_cycle) == 1
        assert pipeline._hooks_dispatch == []


class TestSimulationFacade:
    def test_run_matches_pipeline_run(self, fast_cooo_config, small_daxpy_trace):
        via_api = api.run(fast_cooo_config, small_daxpy_trace)
        direct = OoOCommitPipeline(fast_cooo_config, small_daxpy_trace).run()
        assert via_api.to_dict() == direct.to_dict()

    def test_machine_property(self, fast_cooo_config):
        assert api.Simulation(fast_cooo_config).machine.name == "cooo"

    def test_run_suite(self, fast_baseline_config, small_daxpy_trace, compute_trace):
        results = api.Simulation(fast_baseline_config).run_suite(
            {"daxpy": small_daxpy_trace, "compute": compute_trace}
        )
        assert set(results) == {"daxpy", "compute"}
        assert all(r.committed_instructions > 0 for r in results.values())

    def test_progress_callback_cadence(self, fast_baseline_config):
        trace = daxpy(elements=400)
        seen = []
        api.run(
            scaled_baseline(window=32, memory_latency=300),
            trace,
            progress=lambda pipeline: seen.append(pipeline.cycle),
            progress_interval=128,
        )
        assert seen, "expected at least one progress callback"
        assert all(cycle % 128 == 0 for cycle in seen)
        assert seen == sorted(seen)

    def test_early_stop_predicate(self, fast_baseline_config):
        trace = daxpy(elements=400)
        full = api.run(fast_baseline_config, trace)
        partial = api.run(
            fast_baseline_config, trace, stop_when=lambda p: p.committed >= 100
        )
        assert 100 <= partial.committed_instructions < len(trace)
        assert partial.cycles < full.cycles

    def test_invalid_progress_interval(self, fast_baseline_config):
        with pytest.raises(ValueError):
            api.Simulation(fast_baseline_config, progress_interval=0)

    def test_run_many_with_explicit_traces(self, small_daxpy_trace):
        configs = [
            scaled_baseline(window=32, memory_latency=50),
            scaled_baseline(window=64, memory_latency=50),
        ]
        for config in configs:
            per_workload = api.Simulation(config).run_suite({"daxpy": small_daxpy_trace})
            assert per_workload["daxpy"].committed_instructions == len(small_daxpy_trace)

    def test_run_many_suite_mode_matches_engine(self):
        config = scaled_baseline(window=64, memory_latency=100)
        results = api.run_many([config], scale=0.2, workloads=("daxpy",))
        [(out_config, per_workload)] = results
        assert out_config is config
        spec = SweepSpec("reference", [config], scale=0.2, workloads=("daxpy",))
        reference = SweepEngine().run(spec).config_results(config)
        assert per_workload["daxpy"].ipc == reference["daxpy"].ipc

    def test_run_many_rejects_probes_in_suite_mode(self):
        # Probes cannot cross process or cache boundaries; run_many takes
        # no probe keyword at all (Simulation.run_suite observes runs).
        with pytest.raises(TypeError, match="probes"):
            api.run_many(
                [scaled_baseline(window=64, memory_latency=100)], probes=[Probe()]
            )


class TestExceptionTraceProbes:
    def test_exception_events_on_cooo(self, fast_cooo_config):
        from repro.isa.opcodes import OpClass

        builder = TraceBuilder("exception_probe")
        # A small block with one excepting instruction exercises rollback
        # paths; the probe must stay consistent through replay.
        for index in range(40):
            if index == 20:
                builder.emit(OpClass.INT_ALU, dest=1, srcs=(2,), raises_exception=True)
            else:
                builder.int_op(1 + index % 4, 2)
        trace = builder.build()
        probe = RecordingProbe()
        result = api.run(fast_cooo_config, trace, probes=[probe])
        assert result.committed_instructions == len(trace)
        per_inst = probe.per_instruction()
        committed = [seq for seq, events in per_inst.items() if "commit" in events]
        assert len(committed) == result.committed_instructions
