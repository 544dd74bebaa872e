"""Benchmark guard: the probe machinery must not tax the fast path.

Window occupancy (Figures 7 and 11) is the pipeline's own state, so a
default run attaches no probe at all.  Two invariants keep the probe
machinery off that path:

* **no-probe fast path** — a run with no probes binds no hooks and
  makes no call into :mod:`repro.core.probes`;
* **event dispatch** — attaching a probe that overrides *no* events
  binds no hooks and must therefore cost no call per instruction.

Both are asserted on ``sys.setprofile`` call counts, which are the same
on every host.  The best wall clock of a few rounds (interleaved when
two runs are compared) is printed alongside.
"""

from __future__ import annotations

import sys
import time

from conftest import run_once

from repro.api import Simulation
from repro.common.config import cooo_config, scaled_baseline
from repro.core.probes import PROBE_EVENTS, Probe
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


def _interleaved_best(trace, *simulations: Simulation, rounds: int = ROUNDS):
    """Best-of-N wall clock for each simulation, rounds interleaved."""
    best = [float("inf")] * len(simulations)
    for _ in range(rounds):
        for index, simulation in enumerate(simulations):
            start = time.perf_counter()
            simulation.run(trace)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_bench_no_probe_fast_path_vs_default(benchmark):
    """The default run attaches no probe and calls nothing in the probe module."""
    config = scaled_baseline(window=256, memory_latency=200)
    trace = _trace()
    default = Simulation(config)
    # Structural half of the guard: a run with no probes binds no hooks.
    pipeline = default.pipeline(trace)
    assert pipeline.probes == ()
    for event in PROBE_EVENTS:
        assert getattr(pipeline, f"_hooks_{event[3:]}") == [], event
    assert pipeline._hooks_idle_cycles == []
    counts = _call_counts(default, trace)
    assert counts["probe_calls"] == 0, (
        f"the no-probe run made {counts['probe_calls']} calls under "
        f"{_PROBES_MODULE}: the default path is paying for probes ({counts})"
    )
    (seconds,) = run_once(benchmark, lambda: _interleaved_best(trace, default))
    print(f"\nno-probe {counts['calls']} calls, none under probes; best {seconds:.4f}s")


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
    assert pipeline.probes == ()  # telemetry attached nothing
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
    assert len(pipeline.probes) == 1
    assert pipeline._hooks_dispatch == []  # the inert probe bound no hook
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
        benchmark, lambda: _interleaved_best(trace, default, inert)
    )
    print(f"\ninert-probe {extra[SIZES[-1]]} extra calls at every size; "
          f"{t_inert:.4f}s vs default {t_default:.4f}s "
          f"({t_inert / t_default:.2%} of default)")
