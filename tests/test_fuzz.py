"""Tests for the coverage-guided scenario fuzzer (``repro.fuzz``)."""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.common.errors import ConfigurationError, SimulationError, TraceError
from repro.core.registry_machines import machine_names
from repro.fuzz import (
    CaseGenerator,
    CaseSpec,
    CorpusCase,
    CoverageMap,
    MIN_CASE_SIZE,
    MachineRun,
    MachineTuning,
    PhaseSpec,
    corpus_paths,
    load_case,
    occupancy_band,
    replay_case,
    run_fuzz,
    save_case,
    shrink,
)
from repro.fuzz.oracles import oracle_kernel_equivalence, oracle_no_deadlock
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.trace.trace import Trace

# One machine, one oracle: enough to exercise the campaign loop without
# paying for the full differential matrix on every test run.
FAST = {"machines": ["baseline"], "oracles": ["kernel-equivalence"]}


def small_case(name="unit", **changes):
    base = dict(
        name=name,
        kind="single",
        phases=(PhaseSpec("daxpy"),),
        size=64,
        tuning=MachineTuning(memory_latency=100, deadlock_cycles=50_000),
    )
    base.update(changes)
    return CaseSpec(**base)


class TestCaseSpec:
    def test_round_trips_through_dict(self):
        case = CaseSpec(
            name="rt",
            kind="interleave",
            phases=(
                PhaseSpec("dense_branches", weight=8.0, knobs={"taken_bias": 0.5}),
                PhaseSpec("blocked", weight=2.0),
            ),
            size=320,
            seed=17,
            block=16,
            shuffle=True,
            tuning=MachineTuning(memory_latency=300, iq_size=16),
        )
        assert CaseSpec.from_dict(case.to_dict()) == case

    def test_build_trace_is_deterministic(self):
        case = small_case(
            kind="scenario",
            phases=(PhaseSpec("daxpy"), PhaseSpec("pointer_chase")),
            size=128,
            seed=3,
        )
        first = [inst.to_record() for inst in case.build_trace()]
        second = [inst.to_record() for inst in case.build_trace()]
        assert first == second

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            small_case(kind="mystery")

    def test_rejects_tiny_size(self):
        with pytest.raises(ConfigurationError):
            small_case(size=MIN_CASE_SIZE - 1)

    def test_single_kind_takes_one_phase(self):
        with pytest.raises(ConfigurationError):
            small_case(phases=(PhaseSpec("daxpy"), PhaseSpec("triad")))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ConfigurationError):
            PhaseSpec("daxpy", weight=0)

    def test_stale_knob_fails_at_build_time(self):
        case = small_case(phases=(PhaseSpec("daxpy", knobs={"no_such_knob": 1}),))
        with pytest.raises((ConfigurationError, KeyError, TypeError, ValueError)):
            case.build_trace()


class TestGenerator:
    def test_same_seed_same_cases(self):
        first = [CaseGenerator(5).generate(i) for i in range(4)]
        second = [CaseGenerator(5).generate(i) for i in range(4)]
        assert first == second

    def test_different_seeds_diverge(self):
        a = [CaseGenerator(5).generate(i) for i in range(4)]
        b = [CaseGenerator(6).generate(i) for i in range(4)]
        assert a != b

    def test_names_pin_seed_and_index(self):
        case = CaseGenerator(9).generate(2)
        assert case.name == "fuzz-s9-c2"

    def test_generated_cases_build(self):
        gen = CaseGenerator(1)
        for i in range(3):
            case = gen.generate(i)
            trace = case.build_trace()
            assert len(trace) > 0


class TestCoverage:
    def test_occupancy_bands_are_ordered_labels(self):
        bands = {occupancy_band(v) for v in (0.5, 10, 70, 200, 600, 3000)}
        assert len(bands) > 2

    def test_map_novelty(self):
        cov = CoverageMap()
        assert cov.add("baseline|none|inflight:<16") is True
        assert cov.add("baseline|none|inflight:<16") is False
        assert cov.count("baseline|none|inflight:<16") == 2
        assert len(cov) == 1

    def test_digest_depends_only_on_signatures(self):
        a, b = CoverageMap(), CoverageMap()
        a.add("x|y|z")
        a.add("p|q|r")
        b.add("p|q|r")
        b.add("x|y|z")
        assert a.digest() == b.digest()


class TestShrinker:
    def test_shrinks_to_small_failing_case(self):
        start = CaseSpec(
            name="shrink-me",
            kind="interleave",
            phases=(
                PhaseSpec("dense_branches", weight=4.0),
                PhaseSpec("blocked", weight=2.0),
                PhaseSpec("daxpy", weight=1.0),
            ),
            size=960,
            seed=11,
            shuffle=True,
            tuning=MachineTuning(memory_latency=300),
        )

        def fails(case):
            return any(p.workload == "dense_branches" for p in case.phases)

        small, attempts = shrink(start, fails)
        assert fails(small)
        assert small.size <= start.size
        assert len(small.phases) == 1
        assert small.phases[0].workload == "dense_branches"
        assert attempts > 0

    def test_respects_budget(self):
        start = small_case(size=640)
        calls = []

        def fails(case):
            calls.append(case)
            return True

        shrink(start, fails, budget=5)
        assert len(calls) <= 5


class TestDifferentialEdgeCases:
    """Degenerate inputs through the kernel-equivalence oracle (all machines)."""

    def test_zero_length_trace_is_rejected_at_construction(self):
        with pytest.raises(TraceError):
            Trace([], name="empty")

    @pytest.mark.parametrize("machine", machine_names())
    def test_single_instruction_trace(self, machine):
        trace = Trace(
            [Instruction(pc=0x100, op=OpClass.INT_ALU, dest=1)], name="one-inst"
        )
        run = MachineRun(small_case("edge-one"), trace, machine)
        verdict = oracle_kernel_equivalence(run)
        assert verdict.ok, verdict.details

    @pytest.mark.parametrize("machine", machine_names())
    def test_all_weight_on_one_kernel(self, machine):
        # A scenario whose weight mass sits entirely on one phase must
        # still build and agree across kernels: the starved phase is
        # clamped to the DSL's minimum phase size, not dropped.
        case = CaseSpec(
            name="edge-lopsided",
            kind="scenario",
            phases=(
                PhaseSpec("pointer_chase", weight=1000.0),
                PhaseSpec("daxpy", weight=0.001),
            ),
            size=160,
            seed=2,
            tuning=MachineTuning(memory_latency=100),
        )
        trace = case.build_trace()
        labels = {inst.label for inst in trace}
        assert any("pointer_chase" in label for label in labels)
        run = MachineRun(case, trace, machine)
        verdict = oracle_kernel_equivalence(run)
        assert verdict.ok, verdict.details

    @pytest.mark.parametrize("machine", ["baseline", "cooo"])
    def test_max_cycles_mid_drain(self, machine):
        # Cutting the run off mid-drain must fail identically on the
        # event-driven and per-cycle paths: same exception type, same
        # committed count in the message.
        case = small_case("edge-cut", size=256)
        trace = case.build_trace()
        config = case.build_config(machine)
        full = api.run(config, trace)
        cut = max(2, full.cycles // 2)
        with pytest.raises(SimulationError) as fast:
            api.run(config, trace, max_cycles=cut)
        with pytest.raises(SimulationError) as slow:
            api.run(config, trace, max_cycles=cut, force_per_cycle=True)
        assert str(fast.value) == str(slow.value)


class TestCorpusIO:
    def entry(self):
        return CorpusCase(
            case=small_case("corpus-unit"),
            oracles=("kernel-equivalence",),
            machines=("baseline",),
            note="unit-test entry",
            coverage=("baseline|none|inflight:<16",),
        )

    def test_save_load_round_trip(self, tmp_path):
        path = save_case(self.entry(), tmp_path)
        assert path.name == "corpus-unit.case.json"
        loaded = load_case(path)
        assert loaded == self.entry()

    def test_corpus_paths_sorted(self, tmp_path):
        save_case(self.entry(), tmp_path)
        other = CorpusCase(
            case=small_case("another"), oracles=("no-deadlock",), machines=("cooo",)
        )
        save_case(other, tmp_path)
        names = [p.name for p in corpus_paths(tmp_path)]
        assert names == sorted(names) and len(names) == 2

    def test_bad_schema_rejected(self, tmp_path):
        data = self.entry().to_dict()
        data["schema"] = 999
        path = tmp_path / "bad.case.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            load_case(path)

    def test_missing_machines_rejected(self, tmp_path):
        data = self.entry().to_dict()
        data["machines"] = []
        path = tmp_path / "bad.case.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            load_case(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.case.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_case(path)

    def test_replay_case_runs_contract(self):
        verdicts = replay_case(self.entry())
        assert verdicts and all(v.ok for v in verdicts)


class TestCampaign:
    def test_deterministic_per_seed(self):
        first = run_fuzz(2, seed=9, **FAST)
        second = run_fuzz(2, seed=9, **FAST)
        assert first.coverage.digest() == second.coverage.digest()
        assert first.coverage.to_dict() == second.coverage.to_dict()
        assert first.verdicts == second.verdicts
        assert [case.name for case, _sigs in first.novel] == [
            case.name for case, _sigs in second.novel
        ]

    def test_clean_campaign_reports_ok(self):
        report = run_fuzz(2, seed=9, **FAST)
        assert report.ok
        assert not report.failures
        assert report.verdicts

    def test_failures_written_to_corpus(self, tmp_path, monkeypatch):
        # Force a failure by making an oracle reject everything, and
        # check the campaign shrinks and serializes it.
        import repro.fuzz.runner as runner_mod

        def always_fails(run):
            from repro.fuzz.oracles import OracleVerdict

            return OracleVerdict("kernel-equivalence", run.machine, False, "forced")

        monkeypatch.setitem(
            runner_mod.ORACLES, "kernel-equivalence", (always_fails, "machine")
        )
        report = run_fuzz(
            1,
            seed=9,
            corpus_dir=tmp_path,
            shrink_failures=False,
            **FAST,
        )
        assert not report.ok
        assert len(report.failures) == 1
        saved = corpus_paths(tmp_path)
        assert len(saved) == 1
        entry = load_case(saved[0])
        assert entry.machines == ("baseline",)

    def test_campaign_writes_no_cache_files(self, tmp_path, monkeypatch):
        # The fuzzer must never touch the persistent sweep cache: its
        # traces are synthetic and its configs are mutated per-case, so a
        # poisoned entry would silently corrupt later sweeps.
        monkeypatch.chdir(tmp_path)
        report = run_fuzz(1, seed=9, **FAST)
        assert report.ok
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []


class TestFuzzCli:
    def test_smoke_run(self, capsys):
        code = main(
            ["fuzz", "--cases", "1", "--seed", "0", "--machines", "baseline",
             "--oracles", "kernel-equivalence", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz seed=0" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(
            ["fuzz", "--cases", "1", "--seed", "0", "--machines", "baseline",
             "--oracles", "kernel-equivalence", "--quiet", "--json", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["seed"] == 0
        assert data["cases"] == 1

    def test_replay_missing_directory(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", str(tmp_path / "nope"), "--quiet"])
        assert code == 2
        assert "corpus directory not found" in capsys.readouterr().err

    def test_rejects_unknown_machine(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--machines", "warp-drive"])

    def test_rejects_unknown_oracle(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--oracles", "crystal-ball"])
