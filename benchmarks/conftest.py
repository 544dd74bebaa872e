"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table/figure of the paper via the
experiment modules in :mod:`repro.experiments` and then checks the
qualitative shape the paper reports.  ``BENCH_SCALE`` trades fidelity
against wall-clock time; raise it (e.g. to 1.0) for larger workloads.
"""

from __future__ import annotations

import os
import sys

# Allow running the benchmarks from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Suite scale used by every benchmark (overridable via the environment).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def cycle_counter():
    """A probe counting stepped and skipped cycles, and the dict it fills.

    It overrides both ``on_cycle`` and ``on_idle_cycles``, so the
    event-driven kernel keeps skipping idle spans; it attaches to every
    pipeline a run builds, sampled windows included.
    """
    from repro.core.probes import CallbackProbe

    counts = {"stepped": 0, "skipped": 0}

    def count_stepped(pipeline):
        counts["stepped"] += 1

    def count_skipped(pipeline, cycles):
        counts["skipped"] += cycles

    return CallbackProbe(on_cycle=count_stepped, on_idle_cycles=count_skipped), counts
