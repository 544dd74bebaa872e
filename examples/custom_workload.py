"""Register a custom workload and suite, then sweep machines over them.

The workload registry (:mod:`repro.workloads.registry`) makes scenarios
pluggable the same way machines are: register a generator once and it
works everywhere — ``repro simulate --workload``, ``repro sweep
--suite``, ``repro trace save``, ``api.run_many`` and the persistent
result cache — with zero engine or CLI edits.

This example builds a "zigzag" kernel (bursts of cache-friendly strided
loads alternating with cache-hostile jumps), registers it with a stride
knob, wraps three strides into a registered suite, and compares the
paper's two machines over it.  Run it::

    PYTHONPATH=src python examples/custom_workload.py
"""

from __future__ import annotations

from repro import api, cooo_config, scaled_baseline
from repro.analysis import format_table
from repro.isa import registers as regs
from repro.workloads import TraceBuilder
from repro.workloads.registry import register_suite, register_workload
from repro.workloads.scenario import stream_rng
from repro.workloads.suite import Suite, SuiteMember


@register_workload(
    "zigzag",
    description="strided bursts alternating with random far jumps",
    base_size=1000,
    knobs={"stride": 4, "burst": 16, "seed": 99},
)
def zigzag(size: int, stride: int = 4, burst: int = 16, seed: int = 99):
    """Alternating hot/cold access pattern with a loop-closing branch."""
    builder = TraceBuilder(name="zigzag")
    rng = stream_rng("zigzag", stride, burst, seed)
    index = regs.int_reg(1)
    value = regs.fp_reg(2)
    accum = regs.fp_reg(3)
    builder.int_op(index)
    builder.fp_add(accum)
    loop_pc = builder.pc
    hot_base, cold_base = 0x1000_0000, 0x5000_0000
    iterations = max(4, size // 4)
    for i in range(iterations):
        builder.set_pc(loop_pc)
        if (i // burst) % 2 == 0:  # hot burst: strided, cache friendly
            addr = hot_base + (i % burst) * stride * 8
        else:  # cold burst: random jumps over 32 MiB
            addr = cold_base + rng.randrange(1 << 22) * 8
        builder.load(value, addr, addr_reg=index)
        builder.fp_add(accum, accum, value)
        builder.int_op(index, index)
        builder.branch(taken=(i != iterations - 1), target=loop_pc, srcs=(index,))
    return builder.build()


@register_suite(description="zigzag at three strides: reuse vs. streaming vs. thrashing")
def zigzag_suite() -> Suite:
    return Suite(
        "zigzag-suite",
        [
            SuiteMember(f"stride{stride}", lambda n, s=stride: zigzag(n, stride=s), 2000)
            for stride in (1, 8, 64)
        ],
    )


def main() -> None:
    configs = [
        scaled_baseline(window=128, memory_latency=500),
        cooo_config(iq_size=64, sliq_size=1024, memory_latency=500),
    ]
    # The registered suite is sweepable by name — same path as the
    # built-ins, including the parallel engine and result cache.
    results = api.run_many(configs, suite="zigzag-suite", scale=0.5)

    rows = []
    for config, per_workload in results:
        row = {"machine": config.name or config.mode}
        for workload, result in per_workload.items():
            row[workload] = round(result.ipc, 4)
        row["mean_ipc"] = round(
            sum(r.ipc for r in per_workload.values()) / len(per_workload), 4
        )
        rows.append(row)
    print("zigzag-suite: IPC per member (memory latency 500)")
    print(format_table(rows))
    print(
        "\nthe same suite is now CLI-visible too:\n"
        "  python -m repro list                 # catalog entry\n"
        "  python -m repro sweep --suite zigzag-suite --jobs 4\n"
        "  python -m repro trace save --suite zigzag-suite --out-dir traces/"
    )


if __name__ == "__main__":
    main()
