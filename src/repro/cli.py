"""Command-line interface: ``python -m repro <command> ...``.

The subcommands cover the common workflows:

``simulate``
    Run one machine configuration over one workload (or a whole suite) and
    print the per-run statistics.  ``--machine`` accepts any registered
    machine organization and ``--workload``/``--suite`` any registered
    workload or suite (see ``repro list``).

``sweep``
    Regenerate one or more of the paper's figures (or the
    checkpoint-policy ablation, or ``all``) and print their tables, with
    per-cell progress reporting unless ``--quiet``.  Execution routes
    through the sweep engine: ``--jobs N`` simulates grid cells on N
    worker processes and a persistent result cache (``--cache-dir``,
    disable with ``--no-cache``) skips cells that were already simulated
    with identical parameters.  ``--suite`` swaps the workload suite under
    each figure's machine grid; with ``--suite`` and no experiment names,
    sweeps a standard machine-comparison grid over that suite instead.

``trace``
    Save, inspect and replay trace files (versioned gzip-JSON): generate
    a workload or suite once with ``trace save``, check headers with
    ``trace info``, and simulate saved files with ``trace run``.

``checkpoint``
    Save, inspect and prune warm-state checkpoints (versioned
    gzip-JSON): ``checkpoint save`` runs the sampled driver's functional
    warm-up pass once and persists it keyed on (trace digest, sampling
    plan, warm parameters, simulator version); sampled runs pointed at
    the same directory (``--checkpoint-dir``) adopt it instead of
    re-warming.  ``checkpoint info`` prints headers and ``checkpoint
    gc`` LRU-evicts files past a size budget.

``list``
    Show every registered workload (base size, knobs, description),
    suite (members, description) and machine organization (description),
    and every experiment.  Workloads and machines are pluggable: anything
    registered through :func:`repro.workloads.registry.register_workload`,
    ``register_suite`` or :func:`repro.core.registry_machines.register_machine`
    appears here and in ``--workload``/``--suite``/``--machine``
    automatically.

``fuzz``
    Coverage-guided differential fuzzing (see :mod:`repro.fuzz`):
    generate seeded random scenario compositions, run each on every
    registered machine under the differential oracles (event-driven vs
    per-cycle bit-equality, sampled-IPC containment, deadlock watchdog,
    trace save/load round-trip), minimize failures to tiny repro specs
    and write them to a corpus directory.  ``--replay DIR`` re-checks a
    committed corpus as regressions.

Examples::

    python -m repro simulate --machine cooo --workload daxpy --memory-latency 1000
    python -m repro simulate --machine baseline --window 128 --suite spec2000fp_like
    python -m repro simulate --machine cooo --suite branch-storm --scale 0.4
    python -m repro simulate --machine baseline --suite spec2000fp-xl --scale 1.0 \
        --sample 50000:8000:4000                            # sampled XL run with CI
    python -m repro sweep --suite chase-xl --sample 50000:8000:4000 --jobs 4
    python -m repro sweep figure09 --scale 0.5
    python -m repro sweep figure09 --jobs 4 --suite pointer-chase
    python -m repro sweep figure09 figure11 --jobs 8        # two figures, shared cache
    python -m repro sweep all --full --jobs 8 --json out.json
    python -m repro sweep --suite server-mix --jobs 4       # machine grid over one suite
    python -m repro trace save --workload gather --size 4000 --out gather.trace.gz
    python -m repro trace save --suite pointer-chase --scale 0.6 --out-dir traces/
    python -m repro trace info traces/chase_cold.trace.gz
    python -m repro trace run gather.trace.gz --machine cooo --iq-size 64
    python -m repro simulate --suite spec2000fp-xl --scale 1.0 --sample 50000:8000:4000 \
        --sample-jobs 4 --checkpoint-dir warm-checkpoints   # parallel windows + reuse
    python -m repro checkpoint save --workload daxpy --size 30000 \
        --sample 50000:1500:500 --dir warm-checkpoints
    python -m repro checkpoint info warm-checkpoints/*.warm.gz
    python -m repro checkpoint gc --dir warm-checkpoints --max-bytes 50000000
    python -m repro fuzz --cases 40 --seed 7 --corpus-dir tests/corpus
    python -m repro fuzz --replay tests/corpus
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .analysis.report import format_table
from .api import Simulation
from .common.config import ProcessorConfig, SamplingPlan, cooo_config, scaled_baseline
from .common.errors import ConfigurationError, TraceError
from .core.registry_machines import (
    CLI_DEFAULTS,
    get_machine,
    machine_names,
    machine_specs,
)
from .core.result import SimulationResult
from .experiments.registry import EXPERIMENTS, available_experiments
from .experiments.sweep import ResultCache, SweepEngine, SweepSpec, default_cache_dir
from .trace.io import TRACE_SUFFIX, load_trace, save_trace, trace_info
from .trace.trace import Trace
from .workloads.registry import (
    get_suite,
    get_workload,
    suite_specs,
    workload_specs,
)


def build_machine(args: argparse.Namespace) -> ProcessorConfig:
    """Translate CLI arguments into a ProcessorConfig.

    The config builder comes from the machine registry, so registered
    variants are CLI-runnable without edits here.
    """
    return get_machine(args.machine).build_cli_config(args)


def _result_row(name: str, result: SimulationResult) -> Dict[str, object]:
    row: Dict[str, object] = {
        "workload": name,
        "ipc": round(result.ipc, 4),
        "cycles": result.cycles,
        "instructions": result.committed_instructions,
        "in_flight": round(result.mean_in_flight, 1),
        "branch_acc": round(result.branch_accuracy, 4),
        "l2_miss%": round(100 * result.l2_load_miss_fraction, 2),
    }
    if result.sampled:
        row["ipc_ci95"] = round(result.ipc_ci95, 4)
        row["windows"] = len(result.windows)
    return row


def parse_sampling(args: argparse.Namespace) -> Optional[SamplingPlan]:
    """The --sample flag as a SamplingPlan (None when absent).

    Raises SystemExit(2) with a clean message on a malformed spec, so
    every subcommand reports sampling errors identically.
    """
    spec = getattr(args, "sample", None)
    if not spec:
        return None
    try:
        return SamplingPlan.parse(spec)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def sampling_levers_without_plan(args: argparse.Namespace) -> bool:
    """Report --sample-jobs/--checkpoint-dir given without --sample.

    Both only act on a sampled run, so a command refuses them (exit 2)
    rather than silently ignoring them.  Returns True when it printed
    the error.
    """
    if args.sample or (args.sample_jobs is None and args.checkpoint_dir is None):
        return False
    print("error: --sample-jobs/--checkpoint-dir require --sample", file=sys.stderr)
    return True


def cmd_simulate(args: argparse.Namespace) -> int:
    config = build_machine(args)
    sampling = parse_sampling(args)
    if sampling_levers_without_plan(args):
        return 2
    # Workload and suite names resolve through the registry at run time,
    # so registered plugins are usable without parser edits; unknown
    # names error out listing every registered one.
    try:
        if args.suite:
            traces = get_suite(args.suite).build(args.scale)
        elif args.workload:
            traces = {args.workload: get_workload(args.workload).build(size=args.size)}
        else:
            print("error: provide --workload or --suite", file=sys.stderr)
            return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    simulation = Simulation(
        config,
        sampling=sampling,
        sample_jobs=args.sample_jobs,
        checkpoint_dir=args.checkpoint_dir,
    )
    rows: List[Dict[str, object]] = []
    results = {}
    for name, trace in traces.items():
        result = simulation.run(trace)
        results[name] = result
        rows.append(_result_row(name, result))
    print(f"machine: {config.name or config.mode}")
    if sampling is not None:
        print(f"sampling: {sampling.describe()}")
    print(format_table(rows))
    if len(rows) > 1:
        mean_ipc = sum(row["ipc"] for row in rows) / len(rows)  # type: ignore[arg-type]
        print(f"\nsuite average IPC: {mean_ipc:.4f}")
    if args.json:
        payload = {
            "machine": config.describe(),
            "results": {name: result.summary_row() for name, result in results.items()},
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _progress_logger(name: str):
    """A per-cell progress reporter routed through stdlib logging.

    Progress goes out at INFO through the shared ``repro`` formatter; the
    subsystem logger is pinned to INFO so progress (sweeps and fuzz
    campaigns without ``--quiet``) still shows under the default WARNING
    root level.
    """
    from .telemetry import get_logger

    logger = get_logger(name)
    logger.setLevel(logging.INFO)
    return logger.info


def build_engine(args: argparse.Namespace) -> SweepEngine:
    """Translate the ``sweep`` engine flags into a SweepEngine.

    Besides --jobs/--cache-dir/--no-cache this wires per-cell progress
    (off with --quiet), the robustness knobs (--cell-timeout, --retries,
    --journal/--resume, the --inject/--inject-seed fault plan) and the
    sampled-run levers --sample-jobs/--checkpoint-dir.  Raises
    SystemExit(2) with a clean message if the cache directory is
    unusable (e.g. the path exists but is a regular file) or the fault
    plan does not parse.
    """
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
        try:
            cache = ResultCache(cache_dir)
        except OSError as exc:
            print(f"error: unusable cache directory {cache_dir}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    retry = None
    if args.retries is not None:
        from .robustness import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries)
    injector = None
    if args.inject:
        from .robustness import FaultInjector, parse_fault_plan

        try:
            plan = parse_fault_plan(args.inject, seed=args.inject_seed)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2)
        injector = FaultInjector(plan)
    journal = None
    if args.journal:
        from .robustness import SweepJournal

        journal = SweepJournal(args.journal)
    if args.resume and journal is None:
        print("error: --resume requires --journal FILE", file=sys.stderr)
        raise SystemExit(2)
    return SweepEngine(
        jobs=args.jobs,
        cache=cache,
        progress=None if args.quiet else _progress_logger("sweep"),
        cell_timeout=args.cell_timeout,
        retry=retry,
        injector=injector,
        journal=journal,
        resume=args.resume,
        sample_jobs=args.sample_jobs,
        checkpoint_dir=args.checkpoint_dir,
    )


def _experiment_kwargs(args: argparse.Namespace, runner, engine: SweepEngine) -> Dict[str, object]:
    kwargs: Dict[str, object] = {"engine": engine}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.full and "quick" in runner.__code__.co_varnames:
        kwargs["quick"] = False
    if args.suite and "suite" in runner.__code__.co_varnames:
        kwargs["suite"] = args.suite
    return kwargs


def _trace_filename(name: str) -> str:
    return f"{name.replace('/', '_')}{TRACE_SUFFIX}"


def cmd_trace_save(args: argparse.Namespace) -> int:
    if args.suite and args.out:
        print("error: --out applies to --workload; use --out-dir with --suite", file=sys.stderr)
        return 2
    if args.workload and args.out_dir:
        print("error: --out-dir applies to --suite; use --out with --workload", file=sys.stderr)
        return 2
    try:
        if args.suite:
            traces = get_suite(args.suite).build(args.scale)
            out_dir = Path(args.out_dir or f"{args.suite}-traces")
            for name, trace in traces.items():
                if trace.name != name:  # header carries the member name
                    trace = Trace(list(trace), name=name)
                path = save_trace(trace, out_dir / _trace_filename(name))
                print(f"wrote {path} ({len(trace)} instructions)")
        elif args.workload:
            trace = get_workload(args.workload).build(size=args.size)
            path = save_trace(trace, args.out or _trace_filename(args.workload))
            print(f"wrote {path} ({len(trace)} instructions)")
        else:
            print("error: provide --workload or --suite", file=sys.stderr)
            return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    status = 0
    for path in args.paths:
        try:
            header = dict(trace_info(path))
        except (TraceError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        distinct = header.get("distinct_instructions")
        sharing = (
            f", {distinct} distinct ({100 * distinct / header['instructions']:.0f}%)"
            if isinstance(distinct, int) and distinct > 0
            else ""
        )
        print(
            f"{path}: {header['name']} v{header['version']} — "
            f"{header['instructions']} instructions{sharing}"
        )
    return status


def cmd_trace_run(args: argparse.Namespace) -> int:
    config = build_machine(args)
    traces = []
    for path in args.paths:
        try:
            traces.append(load_trace(path))
        except (TraceError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    simulation = Simulation(config)
    rows = [_result_row(trace.name, simulation.run(trace)) for trace in traces]
    print(f"machine: {config.name or config.mode}")
    print(format_table(rows))
    return 0


def cmd_checkpoint_save(args: argparse.Namespace) -> int:
    """Run the functional warm-up pass once and persist its checkpoint."""
    config = build_machine(args)
    plan = parse_sampling(args)
    if plan is None:
        print(
            "error: checkpoint save requires --sample PERIOD:WINDOW[:WARMUP[:SEED]]",
            file=sys.stderr,
        )
        return 2
    if args.workload and args.trace:
        print("error: provide --workload or --trace, not both", file=sys.stderr)
        return 2
    try:
        if args.trace:
            trace = load_trace(args.trace)
        elif args.workload:
            trace = get_workload(args.workload).build(size=args.size)
        else:
            print("error: provide --workload or --trace", file=sys.stderr)
            return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .core.sampling import warm_checkpoint

    try:
        path, key, reused = warm_checkpoint(
            config, trace, plan, args.dir, checkpoint_max_bytes=args.max_bytes
        )
    except (ConfigurationError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "reused" if reused else "wrote"
    print(f"{verb} {path}")
    print(f"key {key}")
    print(f"{trace.name}: {len(trace)} instructions, plan {plan.describe()}")
    return 0


def cmd_checkpoint_info(args: argparse.Namespace) -> int:
    """Print the validated header of warm-checkpoint files."""
    from .trace.io import checkpoint_info

    status = 0
    for path in args.paths:
        try:
            header = checkpoint_info(path)
        except (TraceError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        plan = header.get("plan") or {}
        plan_text = (
            ":".join(
                str(plan[field])
                for field in ("period", "window", "warmup")
                if field in plan
            )
            or "?"
        )
        print(
            f"{path}: {header['trace_name']} @ simulator "
            f"{header['simulator_version']} — {header['instructions']} "
            f"instructions, {header['windows']} windows, plan {plan_text}"
        )
        print(f"  key {header['key']}")
        print(f"  trace digest {header['trace_digest']}")
    return status


def cmd_checkpoint_gc(args: argparse.Namespace) -> int:
    """LRU-evict checkpoint files past a directory size budget."""
    from .common.eviction import directory_size, evict_lru
    from .trace.io import CHECKPOINT_SUFFIX

    if args.max_bytes < 0:
        print("error: --max-bytes must be >= 0", file=sys.stderr)
        return 2
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    removed, freed = evict_lru(directory, args.max_bytes, CHECKPOINT_SUFFIX)
    remaining = directory_size(directory, CHECKPOINT_SUFFIX)
    print(
        f"{directory}: evicted {removed} checkpoint(s) ({freed} bytes), "
        f"{remaining} bytes remain under the {args.max_bytes}-byte budget"
    )
    return 0


def _parse_cell(spec: str, args: argparse.Namespace):
    """Resolve a ``MACHINE:WORKLOAD[:SIZE]`` cell spec.

    The machine name routes through the registry (machine knob flags on
    the subcommand still apply); returns ``(config, workload_name,
    trace)`` or raises SystemExit(2) with a clean message.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        print(
            f"error: cell must be MACHINE:WORKLOAD[:SIZE], got {spec!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    machine, workload = parts[0], parts[1]
    if machine not in machine_names():
        print(
            f"error: unknown machine {machine!r}; registered: "
            f"{', '.join(machine_names())}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        size = int(parts[2]) if len(parts) == 3 else args.size
    except ValueError:
        print(f"error: cell SIZE must be an integer, got {parts[2]!r}", file=sys.stderr)
        raise SystemExit(2)
    args.machine = machine
    config = build_machine(args)
    try:
        spec_workload = get_workload(workload)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2)
    return config, workload, spec_workload.build(size=size)


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one cell: phase spans, CPI stall attribution, metrics."""
    from .telemetry import (
        MAIN_TRACK,
        TelemetrySession,
        render_stall_table,
        write_chrome_trace,
    )

    sampling = parse_sampling(args)
    session = TelemetrySession(deterministic=args.deterministic, timeline=False)
    started = time.perf_counter()
    with session.tracer.span("trace-build", category="trace"):
        config, workload, trace = _parse_cell(args.cell, args)
    result = Simulation(config, sampling=sampling, telemetry=session).run(trace)
    wall = time.perf_counter() - started
    print(f"machine: {config.name or config.mode}  workload: {workload}"
          f" ({len(trace)} instructions)")
    if sampling is not None:
        print(f"sampling: {sampling.describe()}")
    print(format_table([_result_row(workload, result)]))
    span_rows = [
        {
            "span": "  " * span.depth + span.name,
            "category": span.category,
            "ms": round(span.duration * 1000, 3),
        }
        for span in session.tracer.spans
        if span.tid == MAIN_TRACK
    ]
    print("\nphase spans" + (" (deterministic tick clock)" if args.deterministic else "") + ":")
    print(format_table(span_rows))
    print(f"\nCPI stall attribution ({session.stalls.total} detailed cycles):")
    print(render_stall_table({workload: session.stalls.breakdown()}))
    if not args.deterministic:
        print(f"\ntotal wall-clock: {wall:.3f}s")
    if args.trace_out:
        write_chrome_trace(session.tracer, args.trace_out)
        print(f"wrote Chrome trace: {args.trace_out} (load in Perfetto or chrome://tracing)")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render the per-instruction pipeline timeline of one cell."""
    from .telemetry import TelemetrySession, render_timeline

    sampling = parse_sampling(args)
    config, workload, trace = _parse_cell(args.cell, args)
    session = TelemetrySession(stalls=False, timeline_capacity=args.capacity)
    Simulation(config, sampling=sampling, telemetry=session).run(trace)
    probe = session.timeline
    assert probe is not None
    if args.window_range:
        try:
            start_str, stop_str = args.window_range.split(":", 1)
            start, stop = int(start_str), int(stop_str)
        except ValueError:
            print(
                f"error: --window must be START:STOP, got {args.window_range!r}",
                file=sys.stderr,
            )
            return 2
        events = probe.window(start, stop)
        scope = f"trace indices [{start}:{stop})"
    else:
        events = probe.events()
        scope = "all recorded"
    print(
        f"machine: {config.name or config.mode}  workload: {workload}  "
        f"events: {len(events)} shown ({scope}), {probe.recorded} recorded, "
        f"{probe.dropped} dropped by the ring buffer"
    )
    print(render_timeline(events, width=args.width))
    return 0


#: The standard machine-comparison grid used by ``repro sweep --suite``:
#: both paper reference baselines plus a small and a large COoO point.
def _suite_grid_configs(memory_latency: int = 1000) -> List[ProcessorConfig]:
    return [
        scaled_baseline(window=128, memory_latency=memory_latency),
        scaled_baseline(window=4096, memory_latency=memory_latency),
        cooo_config(iq_size=32, sliq_size=512, memory_latency=memory_latency),
        cooo_config(iq_size=128, sliq_size=2048, memory_latency=memory_latency),
    ]


def cmd_suite_sweep(args: argparse.Namespace) -> int:
    """Sweep the standard machine grid over one registered suite (resolved by cmd_sweep)."""
    from .experiments.runner import DEFAULT_SCALE

    suite = get_suite(args.suite)
    scale = args.scale if args.scale is not None else DEFAULT_SCALE
    sampling = parse_sampling(args)
    spec = SweepSpec(
        f"suite-{args.suite}",
        _suite_grid_configs(),
        scale=scale,
        suite=args.suite,
        sampling=sampling,
    )
    engine = build_engine(args)
    outcome = engine.run(spec)
    rows = []
    for config, results in outcome.per_config():
        # Quarantined cells are simply absent from ``results`` — the row
        # shows a hole instead of the whole sweep crashing.
        row: Dict[str, object] = {"config": config.name or config.mode}
        for workload, result in results.items():
            row[workload] = round(result.ipc, 4)
        if results:
            row["mean_ipc"] = round(
                sum(r.ipc for r in results.values()) / len(results), 4
            )
        rows.append(row)
    print(f"suite: {args.suite} ({', '.join(suite.names())}) at scale {scale}")
    if sampling is not None:
        print(f"sampling: {sampling.describe()}")
    print(format_table(rows))
    summary = (
        f"cells: {outcome.simulated} simulated, {outcome.cached} cached "
        f"in {outcome.elapsed:.1f}s"
    )
    if engine.cache is not None:
        # cache_hits/cache_misses include worker-side lookups, which the
        # engine folds back into the parent's counters.
        summary += (
            f" (cache: {outcome.cache_hits} hit(s), {outcome.cache_misses} miss(es))"
        )
    if outcome.resumed:
        summary += f"; {outcome.resumed} resumed from journal"
    if outcome.retries:
        summary += f"; {outcome.retries} retrie(s)"
    if outcome.quarantined:
        summary += f"; {outcome.quarantined} quarantined"
    print(summary, file=sys.stderr)
    for entry in outcome.failed_cells:
        errors = entry.get("errors") or ["unknown"]
        print(
            f"quarantined: {entry['config']} x {entry['workload']} after "
            f"{entry['attempts']} attempt(s): {errors[-1]}",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"suite": args.suite, "scale": scale, "rows": rows}, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if sampling_levers_without_plan(args):
        return 2
    if args.suite:
        # Resolve --suite up front so unknown names exit cleanly.
        try:
            get_suite(args.suite)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if not args.names:
        if args.suite:
            return cmd_suite_sweep(args)
        print(
            "error: provide experiment names (see 'repro list'), or --suite "
            "for a machine-grid sweep over one suite",
            file=sys.stderr,
        )
        return 2
    if args.sample:
        print(
            "error: --sample applies to suite-grid sweeps (--suite without "
            "experiment names); the figure experiments reproduce the paper's "
            "exact numbers",
            file=sys.stderr,
        )
        return 2
    names: List[str] = []
    for name in args.names:
        if name == "all":
            names.extend(available_experiments())
        elif name in EXPERIMENTS:
            names.append(name)
        else:
            print(
                f"error: unknown experiment {name!r}; available: "
                f"{', '.join(available_experiments())} (or 'all')",
                file=sys.stderr,
            )
            return 2
    names = list(dict.fromkeys(names))  # dedup (e.g. "all figure09"), keep order
    engine = build_engine(args)
    start = time.perf_counter()
    payload: Dict[str, object] = {}
    for name in names:
        runner = EXPERIMENTS[name]
        experiment = runner(**_experiment_kwargs(args, runner, engine))
        print(experiment.report())
        print()
        payload[name] = {
            "description": experiment.description,
            "rows": experiment.rows,
            "notes": experiment.notes,
        }
    elapsed = time.perf_counter() - start
    summary = (
        f"swept {len(names)} experiment(s) in {elapsed:.1f}s with {engine.jobs} job(s): "
        f"{engine.total_simulated} cell(s) simulated, {engine.total_cached} from cache"
    )
    if engine.cache is not None:
        summary += (
            f" (cache {engine.cache.cache_dir}: {engine.cache.hits} hit(s), "
            f"{engine.cache.misses} miss(es) incl. workers)"
        )
    print(summary)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"experiments": payload}, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """List every registered workload, suite and machine, and every experiment."""
    specs = workload_specs()
    width = max(len(spec.name) for spec in specs)
    print("registered workloads:")
    for spec in specs:
        knobs = ", ".join(f"{knob}={value!r}" for knob, value in sorted(spec.knobs.items()))
        print(f"  {spec.name:<{width}}  base_size={spec.base_size}"
              + (f"  knobs: {knobs}" if knobs else ""))
        if spec.description:
            print(f"  {'':<{width}}  {spec.description}")
    print("\nregistered suites:")
    for suite_spec in suite_specs():
        members = ", ".join(
            f"{member.name}({member.base_size})" for member in suite_spec.suite
        )
        print(f"  {suite_spec.name}: {members}")
        if suite_spec.description:
            print(f"    {suite_spec.description}")
    machines = machine_specs()
    width = max(len(spec.name) for spec in machines)
    print("\nregistered machines:")
    for machine in machines:
        print(f"  {machine.name:<{width}}  {machine.description}".rstrip())
    print("\nexperiments:")
    for name in available_experiments():
        print(f"  {name}")
    print(
        "\nregister more via repro.workloads.registry.register_workload /"
        " register_suite and repro.core.registry_machines.register_machine;"
        " any registered name works with 'simulate', 'trace save',"
        " repro.api.run_many and the sweep engine."
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the simulator throughput benchmarks (see repro.perf).

    The arguments come from repro.perf.add_bench_arguments.
    """
    from .perf import run_from_args

    return run_from_args(args)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the simulator-aware static analyzer (repro.analysis.lint).

    Exit status 0 when the tree is clean (baselined/suppressed findings
    included), 1 when findings survive, 2 on usage errors.  With
    --update-fingerprints the semantic-fingerprint manifest is re-stamped
    instead of linting (see docs/architecture.md, "Static analysis").
    """
    import json as json_module

    from .analysis.lint import LintEngine

    root = Path(args.path) if args.path else None
    if root is not None and not root.exists():
        print(f"error: lint root not found: {root}", file=sys.stderr)
        return 2
    baseline = Path(args.baseline) if args.baseline else None
    engine = LintEngine(root=root, baseline_path=baseline)

    if args.update_fingerprints:
        try:
            path, changed = engine.update_fingerprints(
                allow_same_version=args.allow_same_version
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        which = ", ".join(changed) if changed else "no module hashes changed"
        print(f"fingerprint manifest written: {path} ({which})")
        return 0

    report = engine.run()
    if args.json:
        payload = json_module.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"lint report written to {args.json}", file=sys.stderr)
    if not args.json or args.json != "-":
        for finding in report.findings:
            print(finding.format())
        print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a coverage-guided differential fuzz campaign (or replay the corpus).

    Every generated case runs on every requested machine under the
    differential oracles (kernel equivalence, sampled-CI containment,
    deadlock watchdog, trace round-trip); failing cases are delta-debugged
    to minimal repros and, with --corpus-dir, written as permanent JSON
    regression files.  Exit status 1 on any oracle violation.
    """
    from .fuzz import replay_corpus, run_fuzz

    progress = None if args.quiet else _progress_logger("fuzz")

    if args.replay is not None:
        directory = Path(args.replay)
        if not directory.is_dir():
            print(f"error: corpus directory not found: {directory}", file=sys.stderr)
            return 2
        outcomes = replay_corpus(
            directory, progress=progress, sampling_tolerance=args.sampling_tolerance
        )
        failing = [
            (path, [verdict for verdict in verdicts if not verdict.ok])
            for path, verdicts in outcomes
        ]
        failing = [(path, verdicts) for path, verdicts in failing if verdicts]
        total = sum(len(verdicts) for _, verdicts in outcomes)
        print(
            f"replayed {len(outcomes)} corpus case(s): {total} verdicts, "
            f"{len(failing)} file(s) failing"
        )
        for path, verdicts in failing:
            for verdict in verdicts:
                print(f"  {path.name}: {verdict}")
        return 1 if failing else 0

    report = run_fuzz(
        args.cases,
        seed=args.seed,
        machines=args.machines,
        oracles=args.oracles,
        corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        progress=progress,
        sampling_tolerance=args.sampling_tolerance,
        shrink_failures=not args.no_shrink,
    )
    print(report.summary())
    for failure in report.failures:
        print(failure.describe())
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    if report.interrupted:
        # Partial results were printed/written above; exit with the
        # conventional 128+SIGINT status so callers see the interruption.
        return 130
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Out-of-Order Commit Processors' (HPCA 2004)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error", "critical"],
        help="stdlib logging level for repro.* loggers (default: warning)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug); --log-level wins",
    )
    subparsers = parser.add_subparsers(dest="command")

    def add_machine_arguments(
        subparser: argparse.ArgumentParser, include_window: bool = True
    ) -> None:
        # Machine-knob defaults live in the registry (CLI_DEFAULTS) so the
        # profile builders and the parser can never drift apart.
        subparser.add_argument(
            "--machine", choices=machine_names(), default="cooo",
            help="registered machine organization (see 'repro list')",
        )
        subparser.add_argument("--memory-latency", type=int, default=CLI_DEFAULTS["memory_latency"])
        subparser.add_argument("--perfect-l2", action="store_true")
        if include_window:
            # 'timeline' claims --window for its index range and exposes
            # this knob as --machine-window instead.
            subparser.add_argument("--window", type=int, default=CLI_DEFAULTS["window"],
                                   help="baseline window size")
        subparser.add_argument("--iq-size", type=int, default=CLI_DEFAULTS["iq_size"])
        subparser.add_argument("--sliq-size", type=int, default=CLI_DEFAULTS["sliq_size"])
        subparser.add_argument("--checkpoints", type=int, default=CLI_DEFAULTS["checkpoints"])
        subparser.add_argument("--reinsert-delay", type=int, default=CLI_DEFAULTS["reinsert_delay"])
        subparser.add_argument("--virtual-tags", type=int, default=CLI_DEFAULTS["virtual_tags"])
        subparser.add_argument("--physical-registers", type=int,
                               default=CLI_DEFAULTS["physical_registers"])
        subparser.add_argument("--late-allocation", action="store_true")

    def positive_int(value: str) -> int:
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return number

    def add_sampling_argument(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--sample", default=None, metavar="PERIOD:WINDOW[:WARMUP[:SEED]]",
            help="sampled execution: functionally fast-forward between detailed "
                 "windows and extrapolate IPC with a 95%% confidence interval "
                 "(e.g. --sample 50000:8000:4000 for XL suites)",
        )
        subparser.add_argument(
            "--sample-jobs", type=positive_int, default=None, metavar="N",
            help="fan the detailed sample windows across N worker processes "
                 "(bit-identical to serial; requires --sample)",
        )
        subparser.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="persist and reuse the functional warm-up pass as keyed "
                 "warm-state checkpoint files (requires --sample; see "
                 "'repro checkpoint')",
        )

    simulate = subparsers.add_parser("simulate", help="run one machine over one workload or suite")
    # Workload/suite names are validated against the registry at run
    # time (not argparse choices), so late-registered ones work too.
    simulate.add_argument("--workload", default=None,
                          help="registered workload (see 'repro list')")
    simulate.add_argument("--suite", default=None,
                          help="registered suite (see 'repro list')")
    simulate.add_argument("--size", type=int, default=1000,
                          help="workload size parameter (elements/iterations)")
    simulate.add_argument("--scale", type=float, default=0.5, help="suite scale")
    add_sampling_argument(simulate)
    add_machine_arguments(simulate)
    simulate.add_argument("--json", default=None, help="write results to this JSON file")
    simulate.set_defaults(func=cmd_simulate)

    def add_engine_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--jobs", type=positive_int, default=1,
            help="worker processes for grid cells (default 1 = serial)",
        )
        subparser.add_argument(
            "--cache-dir", default=None,
            help="persistent result cache directory (default: "
                 "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps)",
        )
        subparser.add_argument(
            "--no-cache", action="store_true",
            help="disable the persistent result cache",
        )
        subparser.add_argument(
            "--cell-timeout", type=float, default=None, metavar="SECONDS",
            help="per-cell wall-clock watchdog; a cell past this budget is "
                 "killed, retried, and eventually quarantined",
        )
        subparser.add_argument(
            "--retries", type=positive_int, default=None, metavar="N",
            help="attempts per cell before quarantine (default 3); the sweep "
                 "finishes and reports quarantined cells instead of raising",
        )
        subparser.add_argument(
            "--journal", default=None, metavar="FILE",
            help="append-only JSONL journal of finished cells, enabling "
                 "--resume after a crash or Ctrl-C",
        )
        subparser.add_argument(
            "--resume", action="store_true",
            help="skip cells recorded in --journal (loaded from the cache; "
                 "anything missing is simply re-simulated)",
        )
        subparser.add_argument(
            "--inject", default=None, metavar="PLAN",
            help="deterministic fault-injection plan for chaos testing, e.g. "
                 "'worker.crash=0.25,cell.hang=0.1' (sites: "
                 "worker.crash, cell.hang, simulate.error, cache.store.crash, "
                 "cache.corrupt, sweep.sigint)",
        )
        subparser.add_argument(
            "--inject-seed", type=int, default=0, metavar="SEED",
            help="seed for the --inject plan (same seed, same faults)",
        )

    sweep = subparsers.add_parser(
        "sweep", help="regenerate paper figures through the parallel sweep engine"
    )
    sweep.add_argument(
        "names", nargs="*", metavar="experiment",
        help="experiment names (see 'repro list'), or 'all'; omit with "
             "--suite for a machine-grid sweep over one suite",
    )
    sweep.add_argument("--scale", type=float, default=None)
    sweep.add_argument("--full", action="store_true", help="use the full parameter grids")
    sweep.add_argument(
        "--suite", default=None,
        help="registered workload suite: with experiment names, swaps the "
             "suite under each figure; alone, sweeps the standard machine "
             "grid over it",
    )
    sweep.add_argument("--json", default=None, help="write every table to this JSON file")
    add_sampling_argument(sweep)
    add_engine_arguments(sweep)
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress reporting"
    )
    sweep.set_defaults(func=cmd_sweep)

    trace = subparsers.add_parser(
        "trace", help="save, inspect and replay trace files (gzip-JSON)"
    )
    trace_actions = trace.add_subparsers(dest="trace_command")

    trace_save = trace_actions.add_parser(
        "save", help="generate a workload or suite and save it to trace files"
    )
    trace_save.add_argument("--workload", default=None,
                            help="registered workload (see 'repro list')")
    trace_save.add_argument("--suite", default=None,
                            help="registered suite: saves one file per member")
    trace_save.add_argument("--size", type=int, default=1000,
                            help="workload size parameter (elements/iterations)")
    trace_save.add_argument("--scale", type=float, default=0.5, help="suite scale")
    trace_save.add_argument("--out", default=None,
                            help=f"output file for --workload (default <name>{TRACE_SUFFIX})")
    trace_save.add_argument("--out-dir", default=None,
                            help="output directory for --suite (default <suite>-traces/)")
    trace_save.set_defaults(func=cmd_trace_save)

    trace_info_parser = trace_actions.add_parser(
        "info", help="print the header of saved trace files"
    )
    trace_info_parser.add_argument("paths", nargs="+", metavar="trace-file")
    trace_info_parser.set_defaults(func=cmd_trace_info)

    trace_run = trace_actions.add_parser(
        "run", help="simulate one machine over saved trace files"
    )
    trace_run.add_argument("paths", nargs="+", metavar="trace-file")
    add_machine_arguments(trace_run)
    trace_run.set_defaults(func=cmd_trace_run)

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="save, inspect and prune warm-state checkpoints (gzip-JSON)",
    )
    checkpoint_actions = checkpoint.add_subparsers(dest="checkpoint_command")

    checkpoint_save = checkpoint_actions.add_parser(
        "save",
        help="run the functional warm-up pass once and persist its "
             "keyed checkpoint (reused automatically by --checkpoint-dir)",
    )
    checkpoint_save.add_argument("--workload", default=None,
                                 help="registered workload (see 'repro list')")
    checkpoint_save.add_argument("--size", type=int, default=1000,
                                 help="workload size parameter (elements/iterations)")
    checkpoint_save.add_argument("--trace", default=None, metavar="FILE",
                                 help="saved trace file instead of --workload")
    checkpoint_save.add_argument(
        "--sample", default=None, metavar="PERIOD:WINDOW[:WARMUP[:SEED]]",
        help="sampling plan the checkpoint is keyed on (required)",
    )
    checkpoint_save.add_argument("--dir", default="warm-checkpoints",
                                 help="checkpoint directory (default warm-checkpoints/)")
    checkpoint_save.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="LRU-evict checkpoint files past this directory size",
    )
    add_machine_arguments(checkpoint_save)
    checkpoint_save.set_defaults(func=cmd_checkpoint_save)

    checkpoint_info_parser = checkpoint_actions.add_parser(
        "info", help="print the header of warm-checkpoint files"
    )
    checkpoint_info_parser.add_argument("paths", nargs="+", metavar="checkpoint-file")
    checkpoint_info_parser.set_defaults(func=cmd_checkpoint_info)

    checkpoint_gc = checkpoint_actions.add_parser(
        "gc", help="LRU-evict checkpoint files past a directory size budget"
    )
    checkpoint_gc.add_argument("--dir", default="warm-checkpoints",
                               help="checkpoint directory (default warm-checkpoints/)")
    checkpoint_gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="BYTES",
        help="directory size budget; oldest-used files past it are deleted",
    )
    checkpoint_gc.set_defaults(func=cmd_checkpoint_gc)

    profile = subparsers.add_parser(
        "profile",
        help="profile one (machine, workload) cell: phase spans, CPI stall "
             "attribution, Chrome trace export",
        description="Run one MACHINE:WORKLOAD[:SIZE] cell with telemetry "
                    "attached and report where wall-clock and simulated "
                    "cycles went.  --trace-out writes a Chrome trace-event "
                    "JSON loadable in Perfetto; --deterministic swaps the "
                    "wall clock for a tick clock so exports are "
                    "byte-identical across runs (the CI smoke mode).",
    )
    profile.add_argument(
        "cell", metavar="MACHINE:WORKLOAD[:SIZE]",
        help="cell to profile, e.g. cooo:daxpy or baseline:gather:4000",
    )
    profile.add_argument("--size", type=int, default=1000,
                         help="workload size when the cell omits :SIZE")
    add_sampling_argument(profile)
    add_machine_arguments(profile)
    profile.add_argument(
        "--deterministic", action="store_true",
        help="use a deterministic tick clock (byte-identical exports)",
    )
    profile.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the phase spans as Chrome trace-event JSON to FILE",
    )
    profile.set_defaults(func=cmd_profile)

    timeline = subparsers.add_parser(
        "timeline",
        help="per-instruction ASCII pipeline timeline of one cell",
        description="Run one MACHINE:WORKLOAD[:SIZE] cell with the timeline "
                    "probe attached and draw a Konata-style lane per "
                    "instruction (F fetch, D dispatch, I issue, = execute, "
                    "C complete, R commit, x squash).",
    )
    timeline.add_argument(
        "cell", metavar="MACHINE:WORKLOAD[:SIZE]",
        help="cell to trace, e.g. cooo:daxpy or baseline:gather:4000",
    )
    timeline.add_argument("--size", type=int, default=1000,
                          help="workload size when the cell omits :SIZE")
    timeline.add_argument(
        "--window", dest="window_range", default=None, metavar="START:STOP",
        help="only show instructions with trace index in [START, STOP)",
    )
    timeline.add_argument(
        "--machine-window", dest="window", type=int, default=CLI_DEFAULTS["window"],
        help="baseline window-size knob (--window is the index range here)",
    )
    timeline.add_argument(
        "--width", type=int, default=100,
        help="maximum timeline columns (default 100)",
    )
    timeline.add_argument(
        "--capacity", type=positive_int, default=65536,
        help="timeline ring-buffer capacity (oldest events drop beyond it)",
    )
    add_sampling_argument(timeline)
    add_machine_arguments(timeline, include_window=False)
    timeline.set_defaults(func=cmd_timeline)

    listing = subparsers.add_parser(
        "list", help="list registered workloads, suites and machines, and experiments"
    )
    listing.set_defaults(func=cmd_list)

    from .fuzz import DEFAULT_SAMPLING_TOLERANCE, oracle_names

    fuzz = subparsers.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing across registered machines",
        description="Generate seeded random scenario compositions, run each on "
                    "every requested machine under the differential oracles, "
                    "minimize failures and (with --corpus-dir) write them as "
                    "replayable JSON repro files.  Deterministic per --seed.",
    )
    fuzz.add_argument(
        "--cases", type=positive_int, default=40,
        help="number of generated cases (default 40)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; same seed means same cases, verdicts and coverage",
    )
    fuzz.add_argument(
        "--machines", nargs="+", choices=machine_names(), default=None,
        metavar="MACHINE",
        help=f"machines to differentially test (default: all registered: "
             f"{', '.join(machine_names())})",
    )
    fuzz.add_argument(
        "--oracles", nargs="+", choices=oracle_names(), default=None,
        metavar="ORACLE",
        help=f"oracles to apply (default: all: {', '.join(oracle_names())})",
    )
    fuzz.add_argument(
        "--corpus-dir", default=None,
        help="write minimized failing cases here as .case.json repro files",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="DIR",
        help="replay every corpus file under DIR instead of generating cases",
    )
    fuzz.add_argument(
        "--sampling-tolerance", type=float, default=DEFAULT_SAMPLING_TOLERANCE,
        help="max sampled/exact IPC ratio the sampled-ci oracle accepts "
             "(default %(default)s)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimization of failing cases",
    )
    fuzz.add_argument("--json", default=None, help="write the campaign report to this JSON file")
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress on stderr"
    )
    fuzz.set_defaults(func=cmd_fuzz)

    lint = subparsers.add_parser(
        "lint",
        help="simulator-aware static analysis (determinism, cache-key "
             "purity, hot-path hygiene, probe contract)",
        description="Run the AST-based analyzer over the repro package (or "
                    "PATH).  Deterministic output; exit 1 when findings "
                    "survive the committed baseline and inline suppressions.",
    )
    lint.add_argument(
        "path", nargs="?", default=None,
        help="directory or file to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the report as JSON to FILE ('-' for stdout)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file (default: <root>/analysis/lint_baseline.json)",
    )
    lint.add_argument(
        "--update-fingerprints", action="store_true",
        help="re-stamp the semantic-fingerprint manifest instead of linting "
             "(requires a repro.__version__ bump when module hashes changed)",
    )
    lint.add_argument(
        "--allow-same-version", action="store_true",
        help="with --update-fingerprints: permit re-stamping at an unchanged "
             "version (provably result-identical refactors only)",
    )
    lint.set_defaults(func=cmd_lint)

    from .perf import add_bench_arguments

    bench = subparsers.add_parser(
        "bench",
        help="run the simulator throughput benchmarks and append results "
             "to BENCH_simulator.json",
    )
    add_bench_arguments(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .telemetry import setup_cli_logging

    setup_cli_logging(
        log_level=getattr(args, "log_level", None),
        verbosity=getattr(args, "verbose", 0),
    )
    if not getattr(args, "command", None) or not hasattr(args, "func"):
        # No subcommand, or a command group ('trace') without an action.
        parser.print_help()
        return 2
    from .common.errors import SweepInterrupted

    try:
        return args.func(args)
    except SweepInterrupted as exc:
        # Ctrl-C (or the injected SIGINT site) mid-sweep: one clean line
        # with the completed/pending tally and the resume hint, then the
        # conventional 128+SIGINT exit status.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
