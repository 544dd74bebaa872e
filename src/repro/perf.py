"""Simulator throughput benchmarks and the ``BENCH_simulator.json`` recorder.

Not paper figures: these benchmarks measure the *simulator's* own speed
(simulated cycles and committed instructions per wall-clock second) so
the performance trajectory of the codebase is tracked release over
release.  The headline benchmarks put each machine in the regime the
paper (and ROADMAP) cares most about — a kilo-instruction window waiting
on ~500-cycle main-memory loads — which is exactly where the
event-driven cycle-skipping kernel pays off; the ``*-daxpy`` variants
keep the fully-busy (no skippable cycles) path honest.

Two entry points share this module:

* ``repro bench`` — the CLI subcommand;
* ``benchmarks/test_bench_simulator_throughput.py`` — the pytest
  benchmarks and the CI speedup guard, which import :data:`BENCHMARKS`
  so both always measure the same thing.

Results append to ``BENCH_simulator.json`` (a JSON array, one entry per
recording) via :func:`append_record`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .common.config import ProcessorConfig, SamplingPlan, cooo_config, scaled_baseline
from .trace.trace import Trace


def _default_record_path() -> str:
    """The tracked BENCH_simulator.json when run from a source checkout.

    Resolved against the repository root (two levels above this
    package) so ``repro bench`` appends to the committed history
    regardless of the invoking directory; outside a checkout (installed
    package, no repo file) it falls back to the working directory.
    """
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    candidate = os.path.join(repo_root, "BENCH_simulator.json")
    if os.path.exists(candidate):
        return candidate
    return "BENCH_simulator.json"


#: Default output file for recorded results.
DEFAULT_RECORD_PATH = _default_record_path()

#: Memory latency of the headline regime (the paper's Figure 9 midpoint).
BENCH_MEMORY_LATENCY = 500


def _chase_trace() -> Trace:
    """The headline workload: four dependent pointer chains, 500-cycle misses.

    Serial within each chain, so kilo-instruction windows spend most
    cycles waiting on main memory — the paper's target regime and the
    simulator's historical worst case.
    """
    from .workloads import multi_pointer_chase

    return multi_pointer_chase(hops=1200, chains=4)


def _daxpy_trace() -> Trace:
    """The busy-path workload: streaming FP with full memory parallelism."""
    from .workloads import daxpy

    return daxpy(elements=300)


def _daxpy_xl_trace() -> Trace:
    """XL-scale streaming FP (~200k instructions): the sampled-execution regime."""
    from .workloads import daxpy

    return daxpy(elements=30_000)


def _dense_branches_xl_trace() -> Trace:
    """XL-scale branch storm (~160k instructions): predictor-warmth stressor."""
    from .workloads import dense_branches

    return dense_branches(iterations=20_000)


#: Plan used by the streaming ``*-sampled`` benchmarks: ~4% of the trace
#: simulated in detail; windows sized for the in-order-commit baseline (see
#: XL_SAMPLING in repro.workloads.xl for checkpointed-machine sizing).
BENCH_SAMPLING = SamplingPlan(period=50_000, window=1_500, warmup=500)

#: Plan for the branch-storm benchmark: gshare self-trains its table only
#: under detailed execution (see GSharePredictor.warm), so branchy regimes
#: need a long detailed warmup before each measured window.
BENCH_BRANCHY_SAMPLING = SamplingPlan(period=50_000, window=4_000, warmup=5_000)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One named throughput benchmark: a machine config over a trace.

    ``sampling`` makes the benchmark a sampled-execution run (the
    wall-clock then measures fast-forward + detailed windows, and the
    recorded IPC is the extrapolated estimate).  ``sample_jobs`` fans the
    detailed windows over worker processes, with a warm-state checkpoint
    directory shared across the timing repeats — the parallel-sampling
    configuration the sweep engine uses, with a bit-identical result.
    """

    name: str
    config_factory: Callable[[], ProcessorConfig]
    trace_factory: Callable[[], Trace]
    sampling: Optional[SamplingPlan] = None
    sample_jobs: Optional[int] = None

    def config(self) -> ProcessorConfig:
        return self.config_factory()

    def trace(self) -> Trace:
        return self.trace_factory()


#: The tracked benchmarks, headline (memory-bound) first.
BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec(
        "baseline-128",
        lambda: scaled_baseline(window=128, memory_latency=BENCH_MEMORY_LATENCY),
        _chase_trace,
    ),
    BenchmarkSpec(
        "baseline-4096",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _chase_trace,
    ),
    BenchmarkSpec(
        "cooo-64-1024",
        lambda: cooo_config(iq_size=64, sliq_size=1024, memory_latency=BENCH_MEMORY_LATENCY),
        _chase_trace,
    ),
    BenchmarkSpec(
        "baseline-4096-daxpy",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _daxpy_trace,
    ),
    BenchmarkSpec(
        "cooo-64-1024-daxpy",
        lambda: cooo_config(iq_size=64, sliq_size=1024, memory_latency=BENCH_MEMORY_LATENCY),
        _daxpy_trace,
    ),
]

#: XL-scale benchmarks: too slow for the default ``repro bench`` run (the
#: exact entries exist as the denominator of the sampled-speedup guard),
#: runnable by name and from benchmarks/test_bench_sampling.py.
XL_BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec(
        "baseline-daxpy-xl",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _daxpy_xl_trace,
    ),
    BenchmarkSpec(
        "baseline-daxpy-xl-sampled",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _daxpy_xl_trace,
        sampling=BENCH_SAMPLING,
    ),
    BenchmarkSpec(
        "baseline-daxpy-xl-par4",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _daxpy_xl_trace,
        sampling=BENCH_SAMPLING,
        sample_jobs=4,
    ),
    BenchmarkSpec(
        "baseline-branches-xl",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _dense_branches_xl_trace,
    ),
    BenchmarkSpec(
        "baseline-branches-xl-sampled",
        lambda: scaled_baseline(window=4096, memory_latency=BENCH_MEMORY_LATENCY),
        _dense_branches_xl_trace,
        sampling=BENCH_BRANCHY_SAMPLING,
    ),
]


def all_benchmarks() -> List[BenchmarkSpec]:
    """Every defined benchmark (default set plus the XL/sampled set)."""
    return list(BENCHMARKS) + list(XL_BENCHMARKS)


def benchmark_names() -> List[str]:
    return [spec.name for spec in all_benchmarks()]


def run_benchmark(
    spec: BenchmarkSpec,
    *,
    force_per_cycle: bool = False,
    repeats: int = 3,
    sampling: Optional[SamplingPlan] = None,
    sample_jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Time one benchmark (best of ``repeats``) and return its result row.

    ``sampling``/``sample_jobs`` override the spec's own settings
    (``--sample``/``--sample-jobs`` on the CLI); the spec's apply when an
    override is None.  Parallel-sampled timings share one warm-state
    checkpoint directory across the repeats, so the recorded best-of
    measures the steady state a sweep sees: warm pass already on disk,
    wall-clock dominated by the fanned-out detailed windows.
    """
    import tempfile

    from .api import run as simulate

    trace = spec.trace()
    config = spec.config()
    plan = sampling if sampling is not None else spec.sampling
    jobs = sample_jobs if sample_jobs is not None else spec.sample_jobs
    if plan is None:
        jobs = None
    best = float("inf")
    result = None
    best_tracer = None
    checkpoints = (
        tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") if jobs else None
    )
    try:
        for _ in range(max(1, repeats)):
            # Sampled runs carry a spans-only telemetry session (no probes,
            # a handful of clock reads per segment) so the recorded row can
            # split wall-clock into fast-forward vs detailed-window time.
            session = None
            if plan is not None:
                from .telemetry import TelemetrySession

                session = TelemetrySession(timeline=False, stalls=False)
            started = time.perf_counter()
            result = simulate(
                config,
                trace,
                force_per_cycle=force_per_cycle,
                sampling=plan,
                sample_jobs=jobs,
                checkpoint_dir=checkpoints.name if checkpoints is not None else None,
                telemetry=session,
            )
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
                best_tracer = session.tracer if session is not None else None
    finally:
        if checkpoints is not None:
            checkpoints.cleanup()
    assert result is not None
    row: Dict[str, object] = {
        "name": spec.name,
        "seconds": round(best, 6),
        "cycles": result.cycles,
        "instructions": result.committed_instructions,
        "sim_cycles_per_sec": round(result.cycles / best) if best else None,
        "sim_instructions_per_sec": (
            round(result.committed_instructions / best) if best else None
        ),
        "ipc": round(result.ipc, 4),
        "kernel": "per-cycle" if force_per_cycle else "event-driven",
    }
    if plan is not None:
        row["sampling"] = plan.to_dict()
        row["trace_instructions"] = len(trace)
        row["ipc_ci95"] = round(result.ipc_ci95, 4)
        if jobs:
            row["sample_jobs"] = jobs
        if best_tracer is not None:
            # Where the best repeat's wall-clock went: functional
            # fast-forward between windows vs detailed window execution
            # (serial windows each open a span; a parallel fan-out opens
            # one span around the whole pool run).
            row["fast_forward_seconds"] = round(
                best_tracer.total("sampling:fast-forward"), 6
            )
            row["window_seconds"] = round(
                best_tracer.total("sampling:window")
                + best_tracer.total("sampling:parallel-windows"),
                6,
            )
    return row


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    *,
    force_per_cycle: bool = False,
    repeats: int = 3,
    sampling: Optional[SamplingPlan] = None,
    sample_jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Run the named benchmarks (default: the core set) and return their rows.

    The XL benchmarks only run when named explicitly — their exact
    variants take several seconds each, which would make a casual
    ``repro bench`` sluggish.
    """
    selected = list(BENCHMARKS)
    if names:
        by_name = {spec.name: spec for spec in all_benchmarks()}
        unknown = sorted(set(names) - set(by_name))
        if unknown:
            raise KeyError(
                f"unknown benchmark(s) {unknown}; available: {benchmark_names()}"
            )
        selected = [by_name[name] for name in names]
    return [
        run_benchmark(
            spec,
            force_per_cycle=force_per_cycle,
            repeats=repeats,
            sampling=sampling,
            sample_jobs=sample_jobs,
        )
        for spec in selected
    ]


def append_record(
    path: str,
    results: Sequence[Dict[str, object]],
    *,
    note: str = "",
) -> Dict[str, object]:
    """Append one recording to the JSON-array file at ``path``.

    The file holds the machine-readable performance trajectory: each
    entry is ``{timestamp, version, python, platform, note, results}``.
    A missing or empty file starts a new array; a corrupt file raises
    rather than silently discarding history.  The rewrite is atomic (a
    sibling temp file, then ``os.replace``), so a crash or Ctrl-C
    mid-write leaves the previous history intact.
    """
    from . import __version__

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "note": note,
        "results": list(results),
    }
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read().strip()
        history = json.loads(content) if content else []
        if not isinstance(history, list):
            raise ValueError(f"{path} does not hold a JSON array")
    except FileNotFoundError:
        history = []
    history.append(entry)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(history, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only on failure; os.replace consumed it otherwise
            os.unlink(tmp)
    return entry


#: ``repro bench --compare`` fails on wall-clock regressions beyond this.
COMPARE_THRESHOLD = 0.25

#: ``--compare`` also fails when a sampled benchmark's 95% CI half-width
#: grows past this factor — speed bought by losing accuracy is a
#: regression, not a win.
CI_GROWTH_LIMIT = 2.0


def compare_latest(
    path: str,
    threshold: float = COMPARE_THRESHOLD,
    ci_growth_limit: float = CI_GROWTH_LIMIT,
) -> int:
    """Diff the two newest recordings in ``path``; nonzero on regression.

    For every benchmark name present in both of the two most recent
    entries, compares wall-clock seconds; a benchmark that got more than
    ``threshold`` (default 25%) slower is a regression.  Sampled rows
    (both carrying ``ipc_ci95``) are additionally held to accuracy: a
    95% CI half-width that grew past ``ci_growth_limit`` (default 2x)
    times the earlier width is an accuracy regression even if the run
    got faster.  Returns 0 when clean, 1 on any regression, 2 when the
    file has fewer than two entries, when the two come from different
    hosts (``platform`` or ``python`` differ: seconds from two machines do
    not compare) or when they share no benchmark (nothing to compare is
    a gate failure, not a pass).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            history = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(history, list) or len(history) < 2:
        print(
            f"error: {path} holds {len(history) if isinstance(history, list) else 0} "
            f"recording(s); --compare needs at least two",
            file=sys.stderr,
        )
        return 2
    older, newer = history[-2], history[-1]
    hosts = [(entry.get("platform"), entry.get("python")) for entry in (older, newer)]
    if hosts[0] != hosts[1]:
        print(
            f"error: the two newest recordings in {path} come from different hosts:\n"
            + "\n".join(
                f"  {entry.get('timestamp')}: platform={platform_name}, python={python}"
                for entry, (platform_name, python) in zip((older, newer), hosts)
            ),
            file=sys.stderr,
        )
        return 2
    older_rows = {row["name"]: row for row in older.get("results", [])}
    newer_rows = {row["name"]: row for row in newer.get("results", [])}
    common = [name for name in newer_rows if name in older_rows]
    if not common:
        print(
            f"error: the two newest recordings in {path} share no benchmark names",
            file=sys.stderr,
        )
        return 2
    print(
        f"comparing {older.get('timestamp')} ({older.get('note') or 'no note'}) -> "
        f"{newer.get('timestamp')} ({newer.get('note') or 'no note'})"
    )
    header = f"{'benchmark':<28} {'before s':>10} {'after s':>10} {'change':>8}"
    print(header)
    print("-" * len(header))
    regressions = []
    accuracy_regressions = []
    for name in common:
        before = float(older_rows[name]["seconds"])
        after = float(newer_rows[name]["seconds"])
        change = (after - before) / before if before else 0.0
        flag = ""
        if before and change > threshold:
            regressions.append(name)
            flag = "  << REGRESSION"
        ci_before = older_rows[name].get("ipc_ci95")
        ci_after = newer_rows[name].get("ipc_ci95")
        if ci_before is not None and ci_after is not None:
            # A recorded half-width of 0 means a single window or an
            # exactly repeating kernel — nothing meaningful to ratio.
            if float(ci_before) > 0 and float(ci_after) > ci_growth_limit * float(
                ci_before
            ):
                accuracy_regressions.append(name)
                flag += (
                    f"  << ACCURACY REGRESSION "
                    f"(ci95 {float(ci_before):.4f} -> {float(ci_after):.4f})"
                )
        print(f"{name:<28} {before:>10.3f} {after:>10.3f} {change:>+7.1%}{flag}")
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
    if accuracy_regressions:
        print(
            f"\n{len(accuracy_regressions)} sampled benchmark(s) widened their 95% "
            f"CI more than {ci_growth_limit:g}x: {', '.join(accuracy_regressions)}",
            file=sys.stderr,
        )
    if regressions or accuracy_regressions:
        return 1
    print(
        f"\nno benchmark regressed more than {threshold:.0%} "
        f"(sampled CI widths within {ci_growth_limit:g}x)"
    )
    return 0


def add_bench_arguments(parser) -> None:
    """Attach the benchmark driver's arguments to the ``repro bench`` parser."""
    core_names = ", ".join(spec.name for spec in BENCHMARKS)
    xl_names = ", ".join(spec.name for spec in XL_BENCHMARKS)
    parser.add_argument(
        "names",
        nargs="*",
        help=f"benchmarks to run (default: {core_names}; the XL set runs "
        f"only when named: {xl_names})",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_RECORD_PATH,
        help=f"JSON file to append results to (default: {DEFAULT_RECORD_PATH})",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="print results without recording them"
    )
    parser.add_argument(
        "--per-cycle",
        action="store_true",
        help="benchmark the force_per_cycle debug kernel instead of the event-driven one",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions per benchmark (best kept)"
    )
    parser.add_argument("--note", default="", help="free-form note stored with the record")
    parser.add_argument(
        "--sample",
        default=None,
        metavar="PERIOD:WINDOW[:WARMUP[:SEED]]",
        help="run the benchmarks under this sampling plan "
        "(overrides any per-benchmark plan)",
    )
    parser.add_argument(
        "--sample-jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan each sampled benchmark's detailed windows over N worker "
        "processes (overrides any per-benchmark setting; results are "
        "bit-identical to serial)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="instead of running, diff the two newest recordings in --out and "
        f"exit nonzero on a >{COMPARE_THRESHOLD:.0%} wall-clock regression or a "
        f">{CI_GROWTH_LIMIT:g}x sampled-CI growth",
    )


def run_from_args(args) -> int:
    """Execute the benchmark driver for parsed :func:`add_bench_arguments` args."""
    if getattr(args, "compare", False):
        return compare_latest(args.out)
    sampling = None
    if getattr(args, "sample", None):
        from .common.errors import ConfigurationError

        try:
            sampling = SamplingPlan.parse(args.sample)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        results = run_benchmarks(
            args.names or None,
            force_per_cycle=args.per_cycle,
            repeats=args.repeats,
            sampling=sampling,
            sample_jobs=getattr(args, "sample_jobs", None),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    header = f"{'benchmark':<22} {'seconds':>9} {'cycles':>9} {'Mcycles/s':>10} {'ipc':>7}"
    print(header)
    print("-" * len(header))
    for row in results:
        mcps = (row["sim_cycles_per_sec"] or 0) / 1e6
        print(
            f"{row['name']:<22} {row['seconds']:>9.3f} {row['cycles']:>9} "
            f"{mcps:>10.2f} {row['ipc']:>7.3f}"
        )
    if not args.no_record:
        entry = append_record(args.out, results, note=args.note)
        print(f"\nappended to {args.out} ({entry['timestamp']}, kernel={results[0]['kernel']})")
    return 0
