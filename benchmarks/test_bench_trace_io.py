"""Benchmark guard: a saved trace loads without its generators, one object per record.

Trace file I/O (:mod:`repro.trace.io`) lets a trace be generated once
and replayed anywhere, including where its generator is unavailable or
changed.  This benchmark builds the full default suite at the default
figure scale (``DEFAULT_SCALE``), saves it, loads it back, and asserts
the properties that make the file worth having:

* **fidelity** — the loaded trace serialises exactly like the
  generated one;
* **no regeneration** — ``load_trace`` makes no call into
  :mod:`repro.workloads`, so a load never falls back on a generator;
* **shared records** — the file stores each distinct instruction record
  once, and the loader shares one frozen ``Instruction`` across all its
  occurrences: each loaded trace holds exactly as many distinct objects
  as its header's ``distinct_instructions``.

The last two are ``sys.setprofile`` and object counts, the same on every
host.  The best wall clock of a few interleaved generate/load rounds is
printed alongside.  Generation interns its records the same way
(:class:`~repro.workloads.builder.TraceBuilder`), so the two take
comparable time and no speedup is asserted.
"""

from __future__ import annotations

import sys
import time

from conftest import run_once

from repro.experiments.runner import DEFAULT_SCALE
from repro.trace.io import load_trace, save_trace, trace_info
from repro.workloads.registry import get_suite

ROUNDS = 5
SUITE = "spec2000fp_like"
_WORKLOADS_PACKAGE = "repro.workloads"


def _generate():
    return get_suite(SUITE).build(DEFAULT_SCALE)


def _load_all(paths):
    return {name: load_trace(path) for name, path in paths.items()}


def _workload_calls(paths):
    """Python calls under :mod:`repro.workloads` while every trace loads, and the traces."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and str(frame.f_globals.get("__name__", "")).startswith(
            _WORKLOADS_PACKAGE
        ):
            calls += 1

    sys.setprofile(hook)
    try:
        loaded = _load_all(paths)
    finally:
        sys.setprofile(None)
    return calls, loaded


def _interleaved_best(paths, rounds: int = ROUNDS):
    """Best-of-N wall clock for suite generation and suite loading."""
    best_generate = best_load = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        generated = _generate()
        best_generate = min(best_generate, time.perf_counter() - start)
        start = time.perf_counter()
        loaded = _load_all(paths)
        best_load = min(best_load, time.perf_counter() - start)
    return best_generate, best_load, generated, loaded


def test_bench_load_beats_regeneration(benchmark, tmp_path):
    traces = _generate()
    paths = {
        name: save_trace(trace, tmp_path / f"{name}.trace.gz")
        for name, trace in traces.items()
    }
    calls, counted = _workload_calls(paths)
    assert calls == 0, (
        f"loading the {SUITE} suite made {calls} calls under {_WORKLOADS_PACKAGE}: "
        f"a trace file must replay without its generators"
    )
    distinct = {name: trace_info(path)["distinct_instructions"] for name, path in paths.items()}
    objects = {name: len({id(instr) for instr in trace}) for name, trace in counted.items()}
    assert objects == distinct, (
        f"loaded traces hold {objects} distinct Instruction objects, but their files "
        f"store {distinct} distinct records: the loader is not sharing instances"
    )
    t_generate, t_load, generated, loaded = run_once(
        benchmark, lambda: _interleaved_best(paths)
    )
    # Fidelity: the file replays the trace its generator builds.
    for name in generated:
        assert loaded[name].to_jsonl() == generated[name].to_jsonl()
    total = sum(len(trace) for trace in generated.values())
    print(
        f"\nload {t_load:.4f}s vs generate {t_generate:.4f}s "
        f"({t_generate / t_load:.1f}x), {total} instructions, "
        f"{sum(objects.values())} objects loaded "
        f"({100 * sum(distinct.values()) / total:.0f}% distinct); "
        f"{calls} calls under {_WORKLOADS_PACKAGE}"
    )
