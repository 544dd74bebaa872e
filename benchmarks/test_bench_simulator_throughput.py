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

``test_event_driven_speedup_guard`` is the CI tripwire: it counts the
cycles the event-driven kernel steps on the memory-bound benchmarks and
fails when they grow past a pinned count, so the fast path cannot
silently rot back into per-cycle stepping.  Counts are the same on
every host; the seconds are only printed.
"""

import time

import pytest
from conftest import cycle_counter, run_once

from repro.api import run as simulate
from repro.perf import BENCHMARKS

_SPECS = {spec.name: spec for spec in BENCHMARKS}

#: Cycles the event-driven kernel steps (rather than skips) on each
#: memory-bound benchmark, counted at simulator 1.1.0.
STEPPED_CYCLES = {"baseline-4096": 4_912, "cooo-64-1024": 15_749}
#: Headroom over the pinned count before the guard fails.
STEPPED_SLACK = 1.03


@pytest.mark.parametrize("name", list(_SPECS))
def test_bench_simulation_throughput(benchmark, name):
    spec = _SPECS[name]
    trace = spec.trace()
    result = run_once(benchmark, simulate, spec.config(), trace)
    assert result.committed_instructions == len(trace)
    print(f"\n{name}: {result.committed_instructions} instructions in {result.cycles} cycles "
          f"(IPC {result.ipc:.3f})")


def test_event_driven_speedup_guard():
    """The cycle-skipping kernel must keep skipping what it skips today.

    Runs each memory-bound benchmark of ``STEPPED_CYCLES`` both ways and
    checks the results are identical (the kernel's core invariant).  A
    skip-aware probe counts the cycles the event-driven run stepped and
    skipped: together they must cover the run exactly, and the stepped
    ones must stay within ``STEPPED_SLACK`` of the pinned count.
    """
    for name, pinned in STEPPED_CYCLES.items():
        stepped, skipped, cycles = _stepped_and_skipped(name)
        assert stepped + skipped == cycles, name
        assert stepped <= pinned * STEPPED_SLACK, (
            f"{name}: the event-driven kernel stepped {stepped} cycles, pinned "
            f"{pinned}; the cycle-skipping fast path has regressed"
        )


def _stepped_and_skipped(name):
    """(stepped, skipped, total) cycles of one benchmark's event-driven run."""
    spec = _SPECS[name]
    trace = spec.trace()
    config = spec.config()
    probe, counts = cycle_counter()
    started = time.perf_counter()
    fast = simulate(config, trace, probes=[probe])
    fast_seconds = time.perf_counter() - started
    started = time.perf_counter()
    slow = simulate(config, trace, force_per_cycle=True)
    slow_seconds = time.perf_counter() - started
    assert fast.to_dict() == slow.to_dict(), f"{name}: event-driven result diverged from per-cycle"
    print(f"\n{name}: stepped {counts['stepped']} of {fast.cycles} cycles; event-driven "
          f"{fast_seconds:.3f}s vs per-cycle {slow_seconds:.3f}s")
    return counts["stepped"], counts["skipped"], fast.cycles


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
