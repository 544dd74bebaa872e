"""Benchmark guard for sampled execution on XL-scale traces.

The sampled-execution contract: a sampled run of an XL trace must step
at least 10x fewer simulated cycles than the exact event-driven run of
the same trace, with |IPC error| <= 5% on the stationary benchmark.
The specs come from :data:`repro.perf.XL_BENCHMARKS` so ``repro bench``,
the CI gate and this guard all measure the same thing.

Stepped cycles are what a sampled run saves: fast-forwarded
instructions never reach a pipeline, and the cycles the event-driven
kernel skips cost next to nothing.  A skip-aware probe counts them, so
the guard reads the same on every host; the seconds are only printed.
"""

import time

import pytest
from conftest import cycle_counter

from repro.api import run as simulate
from repro.perf import XL_BENCHMARKS, compare_latest, run_benchmarks

_SPECS = {spec.name: spec for spec in XL_BENCHMARKS}

#: Cycles each sampled run's detailed windows step, counted at simulator 1.1.0.
SAMPLED_STEPPED = {"baseline-daxpy-xl-sampled": 5_467, "baseline-branches-xl-sampled": 48_280}
#: Headroom over the pinned count before the guard fails.
STEPPED_SLACK = 1.03


def _stepped_run(config, trace, sampling=None):
    """(seconds, stepped cycles, result) of one run."""
    probe, counts = cycle_counter()
    started = time.perf_counter()
    result = simulate(config, trace, probes=[probe], sampling=sampling)
    seconds = time.perf_counter() - started
    if sampling is None:
        assert counts["stepped"] + counts["skipped"] == result.cycles
    return seconds, counts["stepped"], result


def _check_sampled_stepped(name, stepped):
    pinned = SAMPLED_STEPPED[name]
    assert stepped <= pinned * STEPPED_SLACK, (
        f"{name}: the sampled windows stepped {stepped} cycles, pinned {pinned}"
    )


def test_sampled_xl_speedup_and_accuracy_guard():
    """Sampled steps >= 10x fewer cycles than exact on the XL trace, |IPC error| <= 5%."""
    exact_spec = _SPECS["baseline-daxpy-xl"]
    sampled_spec = _SPECS["baseline-daxpy-xl-sampled"]
    trace = exact_spec.trace()
    config = exact_spec.config()

    exact_seconds, exact_stepped, exact = _stepped_run(config, trace)
    sampled_seconds, sampled_stepped, sampled = _stepped_run(
        config, trace, sampling=sampled_spec.sampling
    )

    assert sampled.sampled and len(sampled.windows) >= 3
    ratio = exact_stepped / sampled_stepped
    error = abs(sampled.ipc - exact.ipc) / exact.ipc
    print(
        f"\nbaseline-daxpy-xl: exact {exact_stepped} stepped cycles in "
        f"{exact_seconds:.2f}s ipc {exact.ipc:.4f} | sampled {sampled_stepped} in "
        f"{sampled_seconds:.2f}s ipc {sampled.ipc:.4f}+-{sampled.ipc_ci95:.4f} | "
        f"{ratio:.1f}x fewer stepped cycles ({exact_seconds / sampled_seconds:.1f}x "
        f"wall clock) error {100 * error:.2f}%"
    )
    assert ratio >= 10.0, f"sampled run steps only {ratio:.1f}x fewer cycles, below the 10x guard"
    _check_sampled_stepped(sampled_spec.name, sampled_stepped)
    assert error <= 0.05, f"sampled IPC error {100 * error:.1f}% above the 5% guard"


def test_sampled_xl_branchy_within_confidence_interval():
    """Branch-storm XL: the exact IPC lands inside the sampled 95% CI.

    gshare self-trains only under detailed execution, so the branchy
    plan (long warmup) trades speedup for fidelity; the reported CI must
    cover the exact value.
    """
    exact_spec = _SPECS["baseline-branches-xl"]
    sampled_spec = _SPECS["baseline-branches-xl-sampled"]
    trace = exact_spec.trace()
    config = exact_spec.config()

    exact_seconds, exact_stepped, exact = _stepped_run(config, trace)
    sampled_seconds, sampled_stepped, sampled = _stepped_run(
        config, trace, sampling=sampled_spec.sampling
    )

    low, high = sampled.ipc_interval
    ratio = exact_stepped / sampled_stepped
    print(
        f"\nbaseline-branches-xl: exact {exact.ipc:.4f} in {exact_stepped} stepped "
        f"cycles, {exact_seconds:.2f}s | sampled [{low:.4f}, {high:.4f}] in "
        f"{sampled_stepped} stepped cycles, {sampled_seconds:.2f}s "
        f"({ratio:.1f}x fewer stepped cycles, {exact_seconds / sampled_seconds:.1f}x "
        f"wall clock)"
    )
    assert sampled.ipc_ci95 > 0
    assert low <= exact.ipc <= high
    assert ratio >= 2.0, f"sampled run steps only {ratio:.1f}x fewer cycles, below the 2x guard"
    _check_sampled_stepped(sampled_spec.name, sampled_stepped)


def test_bench_compare_gate(tmp_path, capsys):
    """repro bench --compare flags >25% wall-clock regressions, nonzero exit."""
    import json

    path = tmp_path / "bench.json"

    def record(seconds_by_name):
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(
            {
                "timestamp": f"t{len(history)}",
                "note": "synthetic",
                "results": [
                    {"name": name, "seconds": seconds}
                    for name, seconds in seconds_by_name.items()
                ],
            }
        )
        path.write_text(json.dumps(history))

    record({"a": 1.0, "b": 2.0})
    record({"a": 1.1, "b": 2.1})  # < 25% slower: clean
    assert compare_latest(str(path)) == 0
    assert "no benchmark regressed" in capsys.readouterr().out

    record({"a": 1.6, "b": 2.0})  # a regressed 45% vs the 1.1 entry
    assert compare_latest(str(path)) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # Fewer than two entries (or unreadable) is a gate failure, not a pass.
    short = tmp_path / "short.json"
    short.write_text(json.dumps([{"timestamp": "t", "results": []}]))
    assert compare_latest(str(short)) == 2
    assert compare_latest(str(tmp_path / "missing.json")) == 2


def test_bench_compare_refuses_two_hosts(tmp_path, capsys):
    """--compare exits 2, naming both hosts, when the recordings' platforms differ."""
    import json

    path = tmp_path / "bench.json"
    history = [
        {
            "timestamp": f"t{index}",
            "platform": platform_name,
            "python": "3.11.7",
            "results": [{"name": "a", "seconds": 1.0}],
        }
        for index, platform_name in enumerate(["Linux-host-a", "Linux-host-b"])
    ]
    path.write_text(json.dumps(history))
    assert compare_latest(str(path)) == 2
    err = capsys.readouterr().err
    assert "different hosts" in err
    assert "Linux-host-a" in err and "Linux-host-b" in err


def test_sampled_benchmark_rows_carry_plan_metadata():
    """run_benchmarks rows for sampled specs record the plan and CI."""
    rows = run_benchmarks(["baseline-daxpy-xl-sampled"], repeats=1)
    (row,) = rows
    assert row["sampling"] == _SPECS["baseline-daxpy-xl-sampled"].sampling.to_dict()
    assert row["trace_instructions"] == 210_003
    assert "ipc_ci95" in row


def test_bench_compare_ci_accuracy_gate(tmp_path, capsys):
    """--compare also fails when a sampled CI half-width grows past 2x."""
    import json

    path = tmp_path / "bench.json"

    def record(rows):
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(
            {"timestamp": f"t{len(history)}", "note": "synthetic", "results": rows}
        )
        path.write_text(json.dumps(history))

    sampled = {"name": "xl-sampled", "seconds": 1.0, "ipc_ci95": 0.030}
    exact = {"name": "xl-exact", "seconds": 5.0}
    record([sampled, exact])

    # CI width below the 2x limit (and wall clock flat): clean.
    record([dict(sampled, ipc_ci95=0.055), exact])
    assert compare_latest(str(path)) == 0
    out = capsys.readouterr().out
    assert "ACCURACY" not in out
    assert "CI widths within 2x" in out

    # CI width ballooned past 2x even though the run got *faster*.
    record([dict(sampled, seconds=0.5, ipc_ci95=0.120), exact])
    assert compare_latest(str(path)) == 1
    assert "ACCURACY REGRESSION" in capsys.readouterr().out

    # A zero earlier width has nothing meaningful to ratio: never flagged.
    record([dict(sampled, ipc_ci95=0.0), exact])
    record([dict(sampled, ipc_ci95=0.4), exact])
    assert compare_latest(str(path)) == 0
    assert "ACCURACY" not in capsys.readouterr().out
