"""Benchmarks of raw simulator throughput (simulated instructions per second).

Not a paper figure: these benchmarks track the cost of simulating each
machine so that regressions in the simulator itself (as opposed to the
modelled machines) are visible in the pytest-benchmark output.

The benchmark definitions live in :mod:`repro.perf` (shared with
``repro bench``).  The headline entries
(``baseline-128``, ``baseline-4096``, ``cooo-64-1024``) run the paper's
target regime — kilo-instruction windows waiting on 500-cycle dependent
loads — which is where the event-driven cycle-skipping kernel matters;
the ``*-daxpy`` entries keep the fully-busy per-cycle path honest.

``test_event_driven_speedup_guard`` is the CI tripwire: it asserts the
event-driven kernel stays at least 2x faster than ``force_per_cycle``
on the memory-bound benchmark (the actual margin is far larger), so the
fast path cannot silently rot back into per-cycle stepping.
"""

import time

import pytest
from conftest import run_once

from repro.api import run as simulate
from repro.perf import BENCHMARKS, run_benchmark

_SPECS = {spec.name: spec for spec in BENCHMARKS}


@pytest.mark.parametrize("name", list(_SPECS))
def test_bench_simulation_throughput(benchmark, name):
    spec = _SPECS[name]
    trace = spec.trace()
    result = run_once(benchmark, simulate, spec.config(), trace)
    assert result.committed_instructions == len(trace)
    print(f"\n{name}: {result.committed_instructions} instructions in {result.cycles} cycles "
          f"(IPC {result.ipc:.3f})")


def test_event_driven_speedup_guard():
    """The cycle-skipping kernel must stay >=2x faster than per-cycle stepping.

    Runs the memory-bound headline benchmark both ways, checks the
    results are identical (the kernel's core invariant), and guards the
    wall-clock ratio.  The observed ratio is ~5-8x, so 2x leaves a wide
    margin against timer noise on shared CI runners.
    """
    spec = _SPECS["baseline-4096"]
    trace = spec.trace()
    config = spec.config()

    def best_of(force_per_cycle, repeats=2):
        best, result = float("inf"), None
        for _ in range(repeats):
            started = time.perf_counter()
            result = simulate(config, trace, force_per_cycle=force_per_cycle)
            best = min(best, time.perf_counter() - started)
        return best, result

    fast_seconds, fast = best_of(False)
    slow_seconds, slow = best_of(True, repeats=1)
    assert fast.to_dict() == slow.to_dict(), "event-driven result diverged from per-cycle"
    ratio = slow_seconds / fast_seconds
    print(f"\nevent-driven {fast_seconds:.3f}s vs per-cycle {slow_seconds:.3f}s "
          f"({ratio:.1f}x)")
    assert ratio >= 2.0, (
        f"event-driven kernel only {ratio:.2f}x faster than force_per_cycle; "
        "the cycle-skipping fast path has regressed"
    )


def test_bench_record_rows_are_machine_readable(tmp_path):
    """repro bench appends valid JSON rows (smoke, one tiny run)."""
    from repro.perf import append_record, run_benchmarks

    rows = run_benchmarks(["cooo-64-1024-daxpy"], repeats=1)
    out = tmp_path / "BENCH_simulator.json"
    entry = append_record(str(out), rows, note="smoke")
    again = append_record(str(out), rows, note="smoke-2")
    import json

    history = json.loads(out.read_text())
    assert [e["note"] for e in history] == ["smoke", "smoke-2"]
    assert entry["results"][0]["name"] == "cooo-64-1024-daxpy"
    assert entry["results"][0]["sim_cycles_per_sec"] > 0
    assert again["version"] == entry["version"]


def test_an_interrupted_record_keeps_the_history(tmp_path, monkeypatch):
    """A dump that dies part-way (Ctrl-C, a crash) must not truncate the
    recorded history: the old file stays byte-identical, no temp file is
    left behind, and the next recording appends as usual."""
    import json

    from repro import perf

    out = tmp_path / "BENCH_simulator.json"
    perf.append_record(str(out), [{"name": "first"}], note="kept")
    before = out.read_bytes()
    real_dump = json.dump

    def dies_half_way(obj, handle, **kwargs):
        handle.write(json.dumps(obj, **kwargs)[:40])
        raise KeyboardInterrupt

    monkeypatch.setattr(perf.json, "dump", dies_half_way)
    with pytest.raises(KeyboardInterrupt):
        perf.append_record(str(out), [{"name": "second"}], note="lost")
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == [out.name]
    monkeypatch.setattr(perf.json, "dump", real_dump)
    perf.append_record(str(out), [{"name": "third"}], note="next")
    assert [entry["note"] for entry in json.loads(out.read_text())] == ["kept", "next"]
