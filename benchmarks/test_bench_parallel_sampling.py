"""Benchmark guard for parallel sampled windows + warm-state checkpoints.

The acceptance contract of the parallel-sampling PR, in two halves:

* **Correctness, always**: ``sample_jobs=4`` with a checkpoint directory
  produces a ``SimulationResult`` bit-identical to the serial sampled
  driver on the XL daxpy benchmark — same IPC, same CI, same windows,
  same every-counter.  Bit-identity also means the CI-containment
  property guarded by ``test_bench_sampling`` transfers to the parallel
  path unchanged.  This half runs everywhere, including single-core CI
  runners.
* **Speed, where parallelism exists**: with the warm-state checkpoint
  built (the XL-sweep steady state — N machines share one functional
  pass, so the marginal cost of a sampled run is its detailed windows),
  fanning the windows across 4 workers is >=2x faster than the serial
  sampled run.  Window execution is pure CPU work, so the guard is
  skipped when the host has fewer than 4 CPUs — it would only measure
  timeslicing, not the fan-out.

The specs come from :data:`repro.perf.XL_BENCHMARKS`
(``baseline-daxpy-xl-par4``), so ``repro bench``, CI and this guard all
measure the same configuration.
"""

import os
import time

import pytest

from repro.api import run as simulate
from repro.core.sampling import warm_checkpoint
from repro.perf import XL_BENCHMARKS

_SPECS = {spec.name: spec for spec in XL_BENCHMARKS}

PARALLEL_SPEC = _SPECS["baseline-daxpy-xl-par4"]
SERIAL_SPEC = _SPECS["baseline-daxpy-xl-sampled"]


def test_par4_spec_is_registered():
    """repro bench can record the parallel benchmark."""
    assert PARALLEL_SPEC.sample_jobs == 4
    assert PARALLEL_SPEC.sampling == SERIAL_SPEC.sampling


def test_parallel_bit_identical_to_serial(tmp_path):
    """4-worker sampled run == serial sampled run, bit for bit."""
    trace = PARALLEL_SPEC.trace()
    config = PARALLEL_SPEC.config()
    serial = simulate(config, trace, sampling=PARALLEL_SPEC.sampling)
    parallel = simulate(
        config,
        trace,
        sampling=PARALLEL_SPEC.sampling,
        sample_jobs=4,
        checkpoint_dir=tmp_path,
    )
    assert parallel.sampled and len(parallel.windows) >= 3
    assert parallel.to_dict() == serial.to_dict(), (
        "parallel sampled result diverged from serial on baseline-daxpy-xl"
    )
    # A second run must adopt the stored checkpoint and still match.
    warmed = simulate(
        config,
        trace,
        sampling=PARALLEL_SPEC.sampling,
        sample_jobs=4,
        checkpoint_dir=tmp_path,
    )
    assert warmed.to_dict() == serial.to_dict()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="window fan-out needs >=4 CPUs to measure a real speedup",
)
def test_parallel_speedup_guard(tmp_path):
    """Warm-checkpoint + 4 workers >=2x faster than the serial sampled run."""
    trace = PARALLEL_SPEC.trace()
    config = PARALLEL_SPEC.config()
    plan = PARALLEL_SPEC.sampling
    # Steady state: the checkpoint exists (built once per XL sweep) and
    # the trace digest is cached on the trace object.
    warm_checkpoint(config, trace, plan, tmp_path)

    def best_of(runs, fn):
        seconds = []
        for _ in range(runs):
            started = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - started)
        return min(seconds)

    serial_seconds = best_of(
        3, lambda: simulate(config, trace, sampling=plan)
    )
    parallel_seconds = best_of(
        3,
        lambda: simulate(
            config, trace, sampling=plan, sample_jobs=4, checkpoint_dir=tmp_path
        ),
    )
    speedup = serial_seconds / parallel_seconds
    print(
        f"\nbaseline-daxpy-xl-par4: serial {serial_seconds:.3f}s | "
        f"parallel(4) {parallel_seconds:.3f}s | speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"parallel sampled speedup {speedup:.2f}x below the 2x guard"
    )
