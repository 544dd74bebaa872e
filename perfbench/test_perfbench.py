"""Self-test of the benchmark: manifest, seeded inputs, output and tamper checks.

Runs under pytest from the repository root (``PYTHONPATH=src``).  The
runs here are tiny; they check what the benchmark prints and counts,
not how fast anything is.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_workloads import DEFAULT_SEED, RESEEDED, WORKLOADS, run_repetition  # noqa: E402
from repro import api  # noqa: E402
from repro.workloads import get_suite  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_manifest_matches_the_benchmark():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# Registered suites holding every re-seeded member, at a small scale.
BASE_SUITES = ("spec2000fp_like", "pointer-chase", "server-mix")


@pytest.mark.parametrize("suite_name", BASE_SUITES)
def test_default_seed_rebuilds_the_registered_members(suite_name):
    for member in get_suite(suite_name).members:
        if member.name not in RESEEDED:
            continue
        n = max(16, int(member.base_size * 0.25))
        registered = member.build(0.25)
        rebuilt = RESEEDED[member.name](n, DEFAULT_SEED)
        assert rebuilt.digest() == registered.digest(), member.name
        assert RESEEDED[member.name](n, 7).digest() != registered.digest(), member.name


@pytest.mark.parametrize(
    # sampled-xl's rounds hold every repetition before its hit section.
    "workload, scale, ops_per_rep", [("chase-lat500", "0.05", 24), ("sampled-xl", "0.2", 3)]
)
def test_tiny_run_prints_every_end_to_end_metric(workload, scale, ops_per_rep):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--scale", scale)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * run.in_flight() * ops_per_rep
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", done.stdout, re.M), name


def test_tiny_traced_run_prints_every_per_layer_metric():
    done = bench("--workload", "chase-lat500", "--seed", "0", "--seconds", "0",
                 "--trace", "1", "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.PER_LAYER
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["core.pipeline.stepped_cycles"] > 0
    assert metrics["core.sliq.calls_per_kinst"] > 0
    assert metrics["tracing.spans_overhead_x"] > 0
    assert metrics["tracing.profile_overhead_x"] > 1


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "chase-lat500", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_an_edited_cache_entry_fails_its_hit_cell(tmp_path, monkeypatch):
    original = bench_workloads.Fig09Sweep.hit

    def tampering_hit(self, laps):
        if not self.passes:
            entry = sorted(self.cache_dir.glob("*.json"))[0]
            payload = json.loads(entry.read_text())
            payload["result"]["cycles"] += 1
            entry.write_text(json.dumps(payload))
        original(self, laps)

    monkeypatch.setattr(bench_workloads.Fig09Sweep, "hit", tampering_hit)
    record = run_repetition("fig09-sweep", DEFAULT_SEED, 0.05, tmp_path, 0.0)
    hit_failures = {
        name: reasons for name, reasons in record["ops"].items()
        if name.startswith("hit ") and reasons
    }
    assert len(hit_failures) == 1
    assert "cached result differs from the cold one" in next(iter(hit_failures.values()))


def test_a_hit_result_that_differs_from_cold_fails(tmp_path, monkeypatch):
    real_run = api.run

    def skewed_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        if kwargs.get("sample_jobs"):
            result.cycles += 1
        return result

    monkeypatch.setattr(api, "run", skewed_run)
    record = run_repetition("sampled-xl", DEFAULT_SEED, 0.3, tmp_path, 0.0)
    assert record["ops"]["cold sampled run"] == []
    for index in range(1, bench_workloads.SampledXL.HIT_RUNS + 1):
        assert record["ops"][f"hit sampled run {index}"] == [
            "checkpoint-hit result differs from the cold one"
        ]


def test_a_warm_cold_run_and_a_changed_digest_are_failures(tmp_path):
    clean = run_repetition("sampled-xl", DEFAULT_SEED, 0.3, tmp_path / "a", 0.0)
    assert not any(clean["ops"].values())
    # A checkpoint left from an earlier run makes the "cold" run warm.
    warm = run_repetition("sampled-xl", DEFAULT_SEED, 0.3, tmp_path / "a", 0.0)
    assert any("warm passes" in r for r in warm["ops"]["cold sampled run"])
    other = dict(clean, result_sha256="0" * 64)
    counts = run.tally([clean, other], crashed=0)
    ops_per_rep = 1 + bench_workloads.SampledXL.HIT_RUNS
    assert counts["attempted"] == 2 * ops_per_rep and counts["failed"] == ops_per_rep


def test_a_per_cycle_kernel_mismatch_fails_where_it_is_checked(tmp_path, monkeypatch):
    real_run = api.run

    def skewed_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        if kwargs.get("force_per_cycle"):
            result.cycles += 1
        return result

    monkeypatch.setattr(api, "run", skewed_run)
    checked = run_repetition("chase-lat500", DEFAULT_SEED, 0.05, tmp_path / "a", 0.0)
    failed = {name: reasons for name, reasons in checked["ops"].items() if reasons}
    assert list(failed.values()) == [["per-cycle kernel disagrees with the event-driven one"]]
    assert next(iter(failed)).startswith("cold ") and next(iter(failed)).endswith(" x chase_mlp")
    # Later repetitions of a run leave the check to the first one.
    unchecked = run_repetition(
        "chase-lat500", DEFAULT_SEED, 0.05, tmp_path / "b", 0.0, full_check=False
    )
    assert not any(unchecked["ops"].values())
