"""Benchmark guard: the probe machinery must not tax the fast path.

The occupancy accounting that used to be inlined in ``PipelineBase``
now lives in the default :class:`~repro.core.probes.OccupancyProbe`, so
a default-constructed pipeline does the same per-instruction work the
seed simulator did (plus one bound-hook indirection per event).  Two
invariants keep that honest:

* **no-probe fast path** — a pipeline with zero probes does strictly
  less work than the default configuration: it skips the default
  probe's calls and adds none of its own;
* **event dispatch** — attaching a probe that overrides *no* events
  binds no hooks and must therefore cost no call per instruction.

Both are asserted on ``sys.setprofile`` call counts, which are the same
on every host.  The wall clock of interleaved rounds (default, bare,
default, bare, ...; each side keeps its best) is printed alongside.
"""

from __future__ import annotations

import sys
import time

from conftest import run_once

from repro.api import Simulation
from repro.common.config import cooo_config, scaled_baseline
from repro.core.probes import Probe
from repro.workloads import daxpy

ROUNDS = 5
#: Two trace lengths: a cost that differs between them is per-instruction.
SIZES = (250, 500)
_PROBES_MODULE = "repro.core.probes"


def _trace():
    return daxpy(elements=500)


def _call_counts(simulation: Simulation, trace):
    """Calls during one run, in total and under a ``repro.core.probes`` frame.

    Python calls and builtin calls both count.  ``probe_calls`` is
    inclusive: it counts the probe hooks and everything they call.  The
    run is repeated once beforehand so lazy imports and first-use
    caches do not land in the count.
    """
    simulation.run(trace)
    counts = {"calls": 0, "probe_calls": 0}
    depth = 0

    def hook(frame, event, arg):
        nonlocal depth
        if event == "call" or event == "c_call":
            if event == "call" and frame.f_globals.get("__name__") == _PROBES_MODULE:
                depth += 1
            counts["calls"] += 1
            if depth:
                counts["probe_calls"] += 1
        elif event == "return" and frame.f_globals.get("__name__") == _PROBES_MODULE:
            depth -= 1

    sys.setprofile(hook)
    try:
        simulation.run(trace)
    finally:
        sys.setprofile(None)
    return counts


def _interleaved_best(sim_a: Simulation, sim_b: Simulation, trace, rounds: int = ROUNDS):
    """Best-of-N wall clock for both simulations, rounds interleaved."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        sim_a.run(trace)
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        sim_b.run(trace)
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_bench_no_probe_fast_path_vs_default(benchmark):
    """probes=() must do no work the default pipeline does not."""
    config = scaled_baseline(window=256, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    bare = Simulation(config, default_probes=False)
    # Structural half of the guard: a bare pipeline binds no hooks at all.
    pipeline = bare.pipeline(trace)
    assert pipeline.probes == ()
    assert pipeline._hooks_dispatch == [] and pipeline._hooks_cycle == []
    on_default = _call_counts(default, trace)
    on_bare = _call_counts(bare, trace)
    assert on_bare["probe_calls"] == 0
    saved = on_default["calls"] - on_bare["calls"]
    assert saved >= on_default["probe_calls"], (
        f"the bare run saves {saved} calls but the default run makes "
        f"{on_default['probe_calls']} under its probes: event emission is "
        f"taxing the bare pipeline ({on_bare} vs default {on_default})"
    )
    t_default, t_bare = run_once(
        benchmark, lambda: _interleaved_best(default, bare, trace)
    )
    print(f"\nno-probe {on_bare['calls']} calls vs default {on_default['calls']} "
          f"({on_default['probe_calls']} under probes); "
          f"{t_bare:.4f}s vs {t_default:.4f}s ({t_bare / t_default:.2%} of default)")


def _telemetry_work(simulation: Simulation, trace):
    """Calls into ``repro.telemetry`` and clock reads during one run.

    Counted by a ``sys.setprofile`` hook, so the figure is the same on
    every host: a telemetry probe, span or clock read on the run's path
    shows up as a nonzero count, however cheap it is.
    """
    counts = {"telemetry_calls": 0, "clock_reads": 0}
    clocks = (time.perf_counter, time.monotonic)

    def hook(frame, event, arg):
        if event == "call":
            if str(frame.f_globals.get("__name__", "")).startswith("repro.telemetry"):
                counts["telemetry_calls"] += 1
        elif event == "c_call" and any(arg is clock for clock in clocks):
            counts["clock_reads"] += 1

    sys.setprofile(hook)
    try:
        simulation.run(trace)
    finally:
        sys.setprofile(None)
    return counts


def test_bench_telemetry_disabled_path_is_free():
    """telemetry=None must leave the hot path untouched.

    The opt-in telemetry layer only acts when a session is passed: no
    probes attach, no clock is read, and the run body is wrapped in a
    nullcontext.  Guard that structurally and by counting the telemetry
    work a disabled run does, which must be none at all; an enabled run
    is the control that shows the count sees that work.
    """
    from repro.telemetry import TelemetrySession

    config = scaled_baseline(window=256, memory_latency=200)
    trace = daxpy(elements=100)
    disabled = Simulation(config, telemetry=None)
    pipeline = disabled.pipeline(trace)
    assert len(pipeline.probes) == 1  # occupancy only; telemetry added nothing
    off = _telemetry_work(disabled, trace)
    assert off == {"telemetry_calls": 0, "clock_reads": 0}, (
        f"telemetry=None run did telemetry work: {off}"
    )
    on = _telemetry_work(Simulation(config, telemetry=TelemetrySession()), trace)
    assert on["telemetry_calls"] > 0 and on["clock_reads"] > 0, on


def test_bench_inert_probe_costs_nothing(benchmark):
    """A probe overriding no events must bind no hooks (cooo machine)."""
    config = cooo_config(iq_size=64, sliq_size=512, checkpoints=4, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    inert = Simulation(config, probes=[Probe()])
    pipeline = inert.pipeline(trace)
    assert len(pipeline.probes) == 2  # occupancy + inert
    assert len(pipeline._hooks_dispatch) == 1  # only occupancy bound a hook
    extra = {}
    for size in SIZES:
        sized = daxpy(elements=size)
        extra[size] = (
            _call_counts(inert, sized)["calls"] - _call_counts(default, sized)["calls"]
        )
    assert len(set(extra.values())) == 1, (
        f"the inert probe's extra calls grow with the trace ({extra} by "
        f"daxpy size): unbound events must not be dispatched"
    )
    t_default, t_inert = run_once(
        benchmark, lambda: _interleaved_best(default, inert, trace)
    )
    print(f"\ninert-probe {extra[SIZES[-1]]} extra calls at every size; "
          f"{t_inert:.4f}s vs default {t_default:.4f}s "
          f"({t_inert / t_default:.2%} of default)")
