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
silently rot back into per-cycle stepping.
``test_no_bookkeeping_calls_on_the_hot_path`` counts the statistic
methods and ``DynInst`` properties a run calls, which must be none:
statistics are updated in place and the stages read ``inst.instr``.
Counts are the same on every host; the seconds are only printed.
"""

import collections
import sys
import time

import pytest
from conftest import cycle_counter, run_once

from repro.api import Simulation
from repro.api import run as simulate
from repro.common.config import cooo_config
from repro.common.stats import Counter, Histogram, RunningMean, WeightedDistribution
from repro.isa.instruction import DynInst
from repro.perf import BENCH_MEMORY_LATENCY, BENCHMARKS

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


#: Per-event statistic methods: hot paths update the fields themselves.
_STAT_METHODS = {
    Counter.add: "Counter.add",
    RunningMean.sample: "RunningMean.sample",
    RunningMean.sample_many: "RunningMean.sample_many",
    WeightedDistribution.sample: "WeightedDistribution.sample",
    Histogram.add: "Histogram.add",
}


def _late_allocation_config():
    return cooo_config(
        iq_size=64,
        sliq_size=1024,
        memory_latency=BENCH_MEMORY_LATENCY,
        late_allocation=True,
        physical_registers=96,
    )


#: Runs of the no-bookkeeping guard, name -> (config factory, trace
#: factory): both machines on the busy path, the SLIQ paths (re-insertion,
#: pressure evictions) on the pointer chase, and late allocation (forced
#: claims) on daxpy.
_BOOKKEEPING_RUNS = {
    name: (_SPECS[name].config, _SPECS[name].trace)
    for name in ("baseline-4096-daxpy", "cooo-64-1024-daxpy", "cooo-64-1024")
}
_BOOKKEEPING_RUNS["cooo-late-alloc-daxpy"] = (
    _late_allocation_config,
    _SPECS["cooo-64-1024-daxpy"].trace,
)


def _bookkeeping_calls(config, trace):
    """Calls to a statistic method or a ``DynInst`` property during ``run()``.

    Counted by a ``sys.setprofile`` hook around the pipeline's ``run``
    only (construction registers the statistics and is not counted).
    """
    names = {method.__code__: name for method, name in _STAT_METHODS.items()}
    for attribute, value in vars(DynInst).items():
        if isinstance(value, property):
            names[value.fget.__code__] = f"DynInst.{attribute}"
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    pipeline = Simulation(config).pipeline(trace)
    sys.setprofile(hook)
    try:
        result = pipeline.run()
    finally:
        sys.setprofile(None)
    return counts, result


@pytest.mark.parametrize("name", list(_BOOKKEEPING_RUNS))
def test_no_bookkeeping_calls_on_the_hot_path(name):
    """A run makes no statistic-method call and reads no ``DynInst`` property.

    Every per-event statistic is updated in place (``counter.value += 1``,
    one dict update for a histogram or distribution, the occupancy means
    field by field) and the stages read decoded fields from
    ``inst.instr``; the methods and properties stay for cold callers,
    observers and tests.  The count is exact on every host.
    """
    config_factory, trace_factory = _BOOKKEEPING_RUNS[name]
    counts, result = _bookkeeping_calls(config_factory(), trace_factory())
    assert not counts, (
        f"{name}: {sum(counts.values())} bookkeeping calls during run(): "
        f"{dict(counts.most_common())}"
    )
    # The runs must reach the paths they are here for.
    assert result.stat("commit.instructions") > 0
    if name == "cooo-64-1024":
        assert result.stat("sliq.reinserts") > 0 and result.stat("sliq.pressure_evictions") > 0
    if name == "cooo-late-alloc-daxpy":
        assert result.stat("prf.late_alloc_forced_claims") > 0


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
