"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_machine, build_parser, main
from repro.workloads.registry import workload_specs


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "simulate" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out
        assert "spec2000fp_like" in out
        assert "figure09" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["sweep", "figure99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate_requires_workload_or_suite(self, capsys):
        assert main(["simulate", "--machine", "baseline"]) == 2
        assert "workload" in capsys.readouterr().err


class TestBuildMachine:
    def _args(self, **overrides):
        parser = build_parser()
        defaults = ["simulate", "--workload", "daxpy"]
        return parser.parse_args(defaults + overrides.pop("extra", []))

    def test_baseline_machine(self):
        args = self._args(extra=["--machine", "baseline", "--window", "256", "--memory-latency", "500"])
        config = build_machine(args)
        assert config.mode == "baseline"
        assert config.core.rob_size == 256
        assert config.memory.memory_latency == 500

    def test_cooo_machine(self):
        args = self._args(extra=["--machine", "cooo", "--iq-size", "32", "--sliq-size", "512",
                                 "--checkpoints", "4"])
        config = build_machine(args)
        assert config.mode == "cooo"
        assert config.core.int_queue_size == 32
        assert config.sliq.size == 512
        assert config.checkpoint.table_size == 4

    def test_cooo_late_allocation(self):
        args = self._args(extra=["--machine", "cooo", "--late-allocation",
                                 "--virtual-tags", "512", "--physical-registers", "256"])
        config = build_machine(args)
        assert config.regalloc.late_allocation
        assert config.regalloc.virtual_tags == 512
        assert config.core.physical_registers == 256


class TestSimulateCommand:
    def test_single_workload(self, capsys):
        code = main([
            "simulate", "--machine", "cooo", "--workload", "fp_compute",
            "--size", "100", "--memory-latency", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fp_compute" in out
        assert "ipc" in out

    def test_baseline_workload(self, capsys):
        code = main([
            "simulate", "--machine", "baseline", "--workload", "daxpy",
            "--size", "80", "--window", "64", "--memory-latency", "100",
        ])
        assert code == 0
        assert "daxpy" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main([
            "simulate", "--machine", "cooo", "--workload", "fp_compute",
            "--size", "60", "--memory-latency", "100", "--json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["machine"]["mode"] == "cooo"
        assert "fp_compute" in payload["results"]

    def test_all_cli_workloads_are_generators(self):
        for spec in workload_specs():
            trace = spec.build(size=20)
            assert len(trace) > 0, spec.name


class TestExperimentCommand:
    def test_runs_figure07(self, capsys, tmp_path):
        target = tmp_path / "fig07.json"
        code = main(["sweep", "figure07", "--scale", "0.08", "--quiet", "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure07" in out
        payload = json.loads(target.read_text())
        assert payload["experiments"]["figure07"]["rows"]


class TestWorkloadRegistryCli:
    def test_workloads_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "registered workloads:" in out
        assert "registered suites:" in out
        # knobs and base sizes are shown
        assert "base_size=" in out
        assert "taken_probability=0.5" in out
        # the three scenario suites are catalogued with their members
        assert "pointer-chase: chase_cold" in out
        assert "branch-storm: storm_even" in out
        assert "server-mix: phased" in out

    def test_list_still_shows_new_suites(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pointer-chase" in out
        assert "dense_branches" in out

    def test_unknown_workload_lists_registered_names(self, capsys):
        assert main(["simulate", "--machine", "baseline", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert "registered workloads" in err
        assert "daxpy" in err

    def test_unknown_suite_lists_registered_names(self, capsys):
        assert main(["simulate", "--machine", "baseline", "--suite", "nope"]) == 2
        err = capsys.readouterr().err
        assert "registered suites" in err
        assert "spec2000fp_like" in err

    def test_simulate_new_suite_end_to_end(self, capsys):
        assert main(["simulate", "--machine", "baseline", "--suite", "branch-storm",
                     "--scale", "0.05", "--memory-latency", "100"]) == 0
        out = capsys.readouterr().out
        assert "storm_even" in out
        assert "suite average IPC" in out


class TestSuiteSweepCli:
    def test_sweep_suite_runs_machine_grid(self, capsys, tmp_path):
        assert main(["sweep", "--suite", "pointer-chase", "--scale", "0.05",
                     "--no-cache", "--quiet",
                     "--json", str(tmp_path / "out.json")]) == 0
        out = capsys.readouterr().out
        assert "chase_cold" in out
        assert "mean_ipc" in out
        assert (tmp_path / "out.json").exists()

    def test_sweep_without_names_or_suite_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "--suite" in capsys.readouterr().err

    def test_sweep_unknown_suite_errors(self, capsys):
        assert main(["sweep", "--suite", "nope", "--no-cache", "--quiet"]) == 2
        assert "registered suites" in capsys.readouterr().err

    def test_sweep_names_with_unknown_suite_errors(self, capsys):
        assert main(["sweep", "figure07", "--suite", "nope", "--no-cache", "--quiet"]) == 2
        assert "registered suites" in capsys.readouterr().err

    def test_experiment_accepts_suite_override(self, capsys):
        assert main(["sweep", "figure07", "--scale", "0.05",
                     "--suite", "branch-storm", "--no-cache", "--quiet"]) == 0
        assert "figure07" in capsys.readouterr().out


class TestSampleFlagErrors:
    """Malformed --sample specs must exit 2 with a message naming the field."""

    def _run(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workload", "daxpy", "--scale", "0.05",
                  "--sample", spec])
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    def test_not_integers(self, capsys):
        err = self._run(capsys, "abc:8000")
        assert "period" in err and "'abc'" in err

    def test_single_field_names_expected_shape(self, capsys):
        err = self._run(capsys, "abc")
        assert "2 to 4" in err and "'abc'" in err

    def test_too_few_fields(self, capsys):
        err = self._run(capsys, "50000")
        assert "2 to 4" in err

    def test_too_many_fields(self, capsys):
        err = self._run(capsys, "1:2:3:4:5")
        assert "2 to 4" in err

    def test_non_integer_window(self, capsys):
        err = self._run(capsys, "50000:8k")
        assert "window" in err and "'8k'" in err

    def test_non_integer_warmup(self, capsys):
        err = self._run(capsys, "50000:8000:warm")
        assert "warmup" in err

    def test_zero_period_rejected_by_validation(self, capsys):
        err = self._run(capsys, "0:8000")
        assert "period" in err

    def test_window_larger_than_period(self, capsys):
        err = self._run(capsys, "1000:8000")
        assert "window" in err or "period" in err

    def test_sweep_reports_sample_errors_identically(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--suite", "pointer-chase", "--scale", "0.05",
                  "--no-cache", "--quiet", "--sample", "bogus:8000"])
        assert excinfo.value.code == 2
        assert "period" in capsys.readouterr().err


class TestSamplingLeversRequireSample:
    """--sample-jobs/--checkpoint-dir act only on a sampled run, so every
    command that takes them refuses them without --sample (exit 2) rather
    than silently ignoring them."""

    COMMANDS = {
        "simulate": ["simulate", "--workload", "daxpy", "--size", "50"],
        "suite-sweep": ["sweep", "--suite", "pointer-chase", "--scale", "0.05",
                        "--no-cache", "--quiet"],
        "figure-sweep": ["sweep", "figure07", "--scale", "0.05", "--no-cache", "--quiet"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "levers",
        [("--sample-jobs",), ("--checkpoint-dir",), ("--sample-jobs", "--checkpoint-dir")],
    )
    def test_levers_without_sample_exit_2(self, tmp_path, capsys, command, levers):
        checkpoint_dir = tmp_path / "ckpt"
        args = list(self.COMMANDS[command])
        for lever in levers:
            args += [lever, "2" if lever == "--sample-jobs" else str(checkpoint_dir)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--sample-jobs/--checkpoint-dir require --sample" in captured.err
        assert captured.out == ""
        assert not checkpoint_dir.exists()


class TestCheckpointCommand:
    """repro checkpoint save|info|gc (mirrors 'repro trace')."""

    SAVE = [
        "checkpoint", "save", "--workload", "daxpy", "--size", "2000",
        "--sample", "5000:600:200", "--machine", "baseline",
        "--window", "1024", "--memory-latency", "300",
    ]

    def test_save_then_info_then_gc(self, tmp_path, capsys):
        assert main(self.SAVE + ["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "key " in out
        files = list(tmp_path.glob("*.warm.gz"))
        assert len(files) == 1

        assert main(["checkpoint", "info", str(files[0])]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out and "windows" in out and "plan 5000:600:200" in out

        assert main(["checkpoint", "gc", "--dir", str(tmp_path), "--max-bytes", "0"]) == 0
        assert "evicted 1 checkpoint(s)" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.warm.gz"))

    def test_save_is_reused_second_time(self, tmp_path, capsys):
        assert main(self.SAVE + ["--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self.SAVE + ["--dir", str(tmp_path)]) == 0
        assert "reused" in capsys.readouterr().out

    def test_save_requires_sample(self, tmp_path, capsys):
        args = [f for f in self.SAVE if f not in ("--sample", "5000:600:200")]
        assert main(args + ["--dir", str(tmp_path)]) == 2
        assert "--sample" in capsys.readouterr().err

    def test_save_requires_workload_or_trace(self, tmp_path, capsys):
        assert main([
            "checkpoint", "save", "--sample", "5000:600:200",
            "--dir", str(tmp_path),
        ]) == 2
        assert "provide --workload or --trace" in capsys.readouterr().err

    def test_save_from_trace_file(self, tmp_path, capsys):
        assert main([
            "trace", "save", "--workload", "daxpy", "--size", "2000",
            "--out", str(tmp_path / "d.trace.gz"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "checkpoint", "save", "--trace", str(tmp_path / "d.trace.gz"),
            "--sample", "5000:600:200", "--machine", "baseline",
            "--window", "1024", "--memory-latency", "300",
            "--dir", str(tmp_path),
        ]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_info_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.warm.gz"
        bad.write_bytes(b"not a gzip file")
        assert main(["checkpoint", "info", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_gc_rejects_missing_directory(self, tmp_path, capsys):
        assert main([
            "checkpoint", "gc", "--dir", str(tmp_path / "nope"), "--max-bytes", "10",
        ]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_simulate_sample_jobs_matches_serial(self, tmp_path, capsys):
        base = [
            "simulate", "--machine", "baseline", "--window", "1024",
            "--workload", "daxpy", "--size", "2000",
            "--memory-latency", "300", "--sample", "5000:600:200",
        ]
        assert main(base + ["--json", str(tmp_path / "serial.json")]) == 0
        capsys.readouterr()
        assert main(base + [
            "--sample-jobs", "2", "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--json", str(tmp_path / "parallel.json"),
        ]) == 0
        capsys.readouterr()
        serial = json.loads((tmp_path / "serial.json").read_text())
        parallel = json.loads((tmp_path / "parallel.json").read_text())
        assert serial["results"] == parallel["results"]
