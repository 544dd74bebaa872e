"""Benchmark: prefetching baseline vs. the out-of-order-commit machine.

The paper's related work discusses prefetching and stream buffers as the
classical way of tolerating memory latency.  This ablation quantifies the
comparison on our suite: a stride prefetcher added to the buildable
128-entry baseline recovers part of the loss on regular streams, but the
COoO machine — which also covers irregular misses and dependent chains —
recovers more, and the two compose.
"""

from conftest import BENCH_SCALE, run_once

from repro.api import Simulation
from repro.common.config import cooo_config, scaled_baseline
from repro.experiments.runner import ExperimentResult, suite_ipc, suite_traces


def _run(scale: float) -> ExperimentResult:
    traces = suite_traces(scale)
    experiment = ExperimentResult(
        "ablation-prefetch",
        "stride prefetching vs. out-of-order commit (1000-cycle memory)",
    )

    def add(name, config):
        config.validate()
        ipc = suite_ipc(Simulation(config).run_suite(traces))
        experiment.row(config=name, ipc=round(ipc, 4))
        return ipc

    base = add("baseline-128", scaled_baseline(window=128, memory_latency=1000))

    prefetch_cfg = scaled_baseline(window=128, memory_latency=1000)
    prefetch_cfg.memory.prefetcher = "stride"
    prefetch_cfg.memory.prefetch_degree = 4
    with_prefetch = add("baseline-128 + stride prefetch", prefetch_cfg)

    cooo = add("COoO-64/SLIQ-1024", cooo_config(iq_size=64, sliq_size=1024, memory_latency=1000))

    cooo_prefetch_cfg = cooo_config(iq_size=64, sliq_size=1024, memory_latency=1000)
    cooo_prefetch_cfg.memory.prefetcher = "stride"
    cooo_prefetch_cfg.memory.prefetch_degree = 4
    combined = add("COoO-64/SLIQ-1024 + stride prefetch", cooo_prefetch_cfg)

    experiment.notes.append(
        "prefetching helps the small-window baseline on regular streams, the COoO window"
        " mechanism helps more (it also covers irregular misses), and the two compose"
    )
    experiment.prefetch_gain = with_prefetch / base  # type: ignore[attr-defined]
    experiment.cooo_gain = cooo / base  # type: ignore[attr-defined]
    experiment.combined_gain = combined / base  # type: ignore[attr-defined]
    return experiment


def test_bench_ablation_prefetch(benchmark):
    experiment = run_once(benchmark, _run, BENCH_SCALE)
    print("\n" + experiment.report())

    # Prefetching helps the small baseline ...
    assert experiment.prefetch_gain > 1.1
    # ... but the window mechanism helps more on this suite ...
    assert experiment.cooo_gain > experiment.prefetch_gain
    # ... and combining both is at least as good as the COoO machine alone.
    assert experiment.combined_gain >= 0.95 * experiment.cooo_gain
