"""Benchmark of the out-of-order-commit simulator, one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload fig09-sweep --seed 0 --seconds 40 --trace 0

This process is the single client.  It runs the workload as a closed
loop of rounds of repetitions, each repetition in a fresh interpreter
with new temporary cache and checkpoint directories
(``bench_workloads.py``), for as many rounds as fit in ``--seconds``
(at least ``MIN_ROUNDS``).  A round runs one repetition per CPU at
once (``in_flight``), up to two, so each round samples both CPUs' host
conditions.  A repetition is single-threaded except for sampled-xl's
hit section, which uses two window workers: there the repetitions wait
before their hit sections until every one of the round has finished its
cold section, and then run their hit sections one at a time, so no
timed section shares a CPU with another repetition.

Every reported time is a best-of: each operation's (cell's, run's,
re-sweep's) shortest time over the repetitions, summed over the
operations of a section, and the shortest set-up.  sampled-xl's cold run
is split into parts at its progress callbacks, and it makes its
checkpoint-hit run twice a repetition, so its ``hit_s`` is the
shortest of all those runs.  The simulator is deterministic, so a
repetition repeats the same work and anything the host adds (another
tenant on the core, a slower clock) can only lengthen it; the best time
is the estimate of the work's own cost that repeats between runs.  On a 2-vCPU KVM host whose speed drifts by up to
1.8x over seconds to minutes, medians over a run's repetitions moved
30-45 % between runs; the human-readable lines give the medians too.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
makes the traced run instead: rounds of one plain repetition, one with
spans (written as a Chrome trace under ``.perfbench_out/``) and one
under ``cProfile``, as many rounds as fit in ``--seconds`` (at least
one), and prints the per-layer metrics, the overhead of each instrument
included.  Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation is one sweep cell, exact run or sampled run; it fails on
an exception, a quarantined cell or a failed output check.  Every
repetition must also produce the same result digest.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("fig09-sweep", "chase-lat500", "sampled-xl")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",  # interpreter start to the first timed operation
    "peak_rss_mb": "MiB",  # median over repetitions: process plus its largest window worker
    # Instructions the cold section covered per second of it: nothing
    # cached, no checkpoint on disk.
    "sim_kips": "kinst/s",
    "hit_s": "s",  # the same results asked for again, reusing what the cold section left
}

#: Layers with a call ledger (``<layer>.calls_per_kinst``, ``<layer>.self_pct``),
#: named by their module under ``repro``.
LEDGER_LAYERS = (
    "core.pipeline", "core.iq", "core.regfile", "core.lsq", "core.fu", "core.frontend",
    "isa", "core.sliq", "core.checkpoint", "core.pseudo_rob", "core.cam_rename",
    "core.rob", "core.rename_map", "common.stats", "core.probes", "memory", "branch",
    "trace", "workloads",
)

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "core.pipeline.stepped_cycles": "count",
    "core.pipeline.skip_pct": "%",
    "core.pipeline.us_per_step": "us",
    **{
        f"{layer}.{metric}": unit
        for layer in LEDGER_LAYERS
        for metric, unit in (("calls_per_kinst", "calls/kinst"), ("self_pct", "%"))
    },
    # Span figures: a layer's share of the spanned repetition's set-up,
    # cold and hit wall time (bench_trace.span_metrics).
    "common.stats.merge_pct": "%",
    "trace.digest_pct": "%",
    "workloads.build_s": "s",
    "core.sampling.warm_pass_pct": "%",
    "core.sampling.window_pct": "%",
    "core.sampling.ci95_pct": "%",
    "core.warmstate.save_pct": "%",
    "core.warmstate.load_pct": "%",
    "core.warmstate.checkpoint_kib": "KiB",
    "robustness.pool.run_pct": "%",
    "robustness.pool.retries": "count",
    "experiments.sweep.engine_self_pct": "%",
    "experiments.sweep.cache_store_pct": "%",
    "experiments.sweep.cache_load_pct": "%",
    "tracing.spans_overhead_x": "x",
    "tracing.profile_overhead_x": "x",
}

#: Rounds of a timed run made however short ``--seconds`` is.
MIN_ROUNDS = 2
#: Repetitions a timed round runs at once, at most; see ``in_flight``.
MAX_IN_FLIGHT = 2
#: Workloads whose hit section uses more than one CPU.
PARALLEL_HIT = ("sampled-xl",)
#: No round starts once the run could no longer end within this.
WALL_BUDGET_S = 150.0
#: A repetition still running this long after the run began is killed
#: and counted as failed, so the run ends within 180 s.
DEADLINE_S = 170.0


class RepFailed(Exception):
    """A repetition's interpreter exited without writing its record."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Caches live in each repetition's own directory, never the user's.
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Repetition:
    """One repetition in a fresh interpreter, in a process group of its own.

    A watchdog kills the group (the interpreter and any window workers)
    at the run's deadline, ``opts.deadline``.  With ``hold``, the
    interpreter stops before its hit section until ``release()``.  Only
    the run's first repetition makes the checks whose outcome cannot
    differ between repetitions of a run.
    """

    def __init__(
        self, opts, work: Path, index: int, extra: Sequence[str] = (), hold: bool = False
    ) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.out = work / f"rep{index}.json"
        self.log = work / f"rep{index}.err"
        self.timed_out = False
        args = [
            str(HERE / "bench_workloads.py"),
            "--workload", opts.workload,
            "--seed", str(opts.seed),
            "--scale", repr(opts.scale),
            "--workdir", str(work / f"rep{index}"),
            "--out", str(self.out),
            *(["--skip-run-checks"] if index else []),
            *(["--hold-before-hit"] if hold else []),
            *extra,
        ]
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = spawn([*args, "--started", repr(monotonic())], log, piped=hold)
        self.watchdog = threading.Timer(max(0.0, opts.deadline - monotonic()), self._expire)
        self.watchdog.start()

    def _expire(self) -> None:
        self.timed_out = True
        kill_group(self.proc)

    def _failed(self) -> RepFailed:
        if self.timed_out:
            return RepFailed(f"still running {DEADLINE_S:.0f} s into the run")
        tail = self.log.read_text(encoding="utf-8").strip().splitlines()[-3:]
        return RepFailed(f"exit {self.proc.returncode}: {' | '.join(tail)}")

    def held(self) -> None:
        """Wait until the interpreter stops before its hit section."""
        for line in self.proc.stdout:
            if line == "held\n":
                return
        self.close()
        raise self._failed()

    def release(self) -> None:
        try:
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.close()
            raise self._failed() from None

    def record(self) -> Dict[str, object]:
        """Wait for the interpreter to end; returns its record."""
        self.proc.wait()
        self.close()
        if self.proc.returncode != 0 or not self.out.exists():
            raise self._failed()
        return json.loads(self.out.read_text(encoding="utf-8"))

    def close(self) -> None:
        """Kill what is left of the process group and wait for the interpreter."""
        kill_group(self.proc)
        self.proc.wait()
        self.watchdog.cancel()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def spawn(args: List[str], log, piped: bool = False) -> subprocess.Popen:
    """A child interpreter in its own process group; stdin/stdout piped if ``piped``."""
    stream = subprocess.PIPE if piped else subprocess.DEVNULL
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=stream,
        stdout=stream,
        stderr=log,
        text=True,
        start_new_session=True,
    )


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def in_flight() -> int:
    """Repetitions a timed round runs at once: one per CPU this process
    may use, up to ``MAX_IN_FLIGHT``."""
    return min(MAX_IN_FLIGHT, len(os.sched_getaffinity(0)))


def run_round(reps: List[Repetition], hold: bool) -> List[Dict[str, object]]:
    """Records of repetitions started together.  With ``hold``, their hit
    sections run one at a time, once all have finished their cold ones."""
    try:
        if hold:
            for rep in reps:
                rep.held()
            records = []
            for rep in reps:
                rep.release()
                records.append(rep.record())
            return records
        return [rep.record() for rep in reps]
    finally:
        for rep in reps:
            rep.close()


def tally(records: List[Dict[str, object]], crashed: int) -> Dict[str, object]:
    """Attempted and failed operations over every repetition."""
    attempted = failed = crashed
    reference = records[0]["result_sha256"] if records else None
    failures: List[str] = []
    for index, record in enumerate(records):
        ops: Dict[str, List[str]] = record["ops"]  # type: ignore[assignment]
        attempted += len(ops)
        for name, reasons in ops.items():
            if record["result_sha256"] != reference:
                reasons = [*reasons, f"result digest differs from repetition 0 ({index})"]
            if reasons:
                failed += 1
                failures.append(f"rep {index}: {name}: {'; '.join(reasons)}")
    return {"attempted": max(attempted, 1), "failed": failed, "failures": failures}


def median(records: List[Dict[str, object]], key: str) -> float:
    return statistics.median(float(r[key]) for r in records)  # type: ignore[arg-type]


def best_of(records: List[Dict[str, object]], laps: str) -> float:
    """A section's best-of time: every operation's shortest lap over the
    repetitions (and over its samples within one), summed over the
    operations."""
    operations = {op for r in records for op in r[laps]}  # type: ignore[attr-defined]
    return sum(
        min(float(t) for r in records for t in r[laps].get(op, ()))  # type: ignore[attr-defined]
        for op in operations
    )


def closed_loop(opts, round_of, min_rounds: int):
    """Rounds of repetitions for as long as another round still fits in
    ``--seconds`` (and ``WALL_BUDGET_S``), at least ``min_rounds``.

    ``round_of()`` makes one round and returns its records.  Returns the
    finished rounds and the number of rounds a crashed repetition cut.
    """
    rounds: List[List[Dict[str, object]]] = []
    crashed = 0
    begun = monotonic()
    while True:
        try:
            rounds.append(round_of())
        except RepFailed as exc:
            crashed += 1
            print(f"repetition failed: {exc}", file=sys.stderr)
        tries = len(rounds) + crashed
        elapsed = monotonic() - begun
        next_end = elapsed + elapsed / tries
        if next_end > WALL_BUDGET_S or (tries >= min_rounds and next_end > opts.seconds):
            return rounds, crashed


def timed_run(opts, work: Path):
    """``--trace 0``: rounds of repetitions for ``--seconds``; end-to-end best-ofs."""
    reps = itertools.count()
    width = in_flight()
    hold = width > 1 and opts.workload in PARALLEL_HIT

    def timed_round() -> List[Dict[str, object]]:
        return run_round(
            [Repetition(opts, work, next(reps), hold=hold) for _ in range(width)], hold
        )

    rounds, crashed = closed_loop(opts, timed_round, MIN_ROUNDS)
    records = [record for r in rounds for record in r]
    if not records:
        return None
    cold_s = best_of(records, "cold_laps")
    metrics = {
        "setup_s": min(float(r["setup_s"]) for r in records),  # type: ignore[arg-type]
        "peak_rss_mb": median(records, "peak_rss_mib"),
        "sim_kips": float(records[0]["instructions"]) / cold_s / 1e3,  # type: ignore[arg-type]
        "hit_s": best_of(records, "hit_laps"),
    }
    print(f"medians over {len(records)} repetitions: setup {median(records, 'setup_s'):.3f} s  "
          f"cold {median(records, 'cold_s'):.3f} s  hit section {median(records, 'hit_s'):.3f} s; "
          f"best-of cold {cold_s:.3f} s")
    return records, crashed, metrics, END_TO_END


def traced_run(opts, work: Path):
    """``--trace 1``: rounds of a plain, a spanned and a profiled
    repetition for ``--seconds``; per-layer metrics.

    Counts and span figures come from the first round.  Each instrument's
    overhead is the best-of cold time of its repetitions over that of the
    plain ones, across the rounds.
    """
    spans_path = OUT_DIR / f"{opts.workload}-seed{opts.seed}.trace.json"
    reps = itertools.count()

    def traced_round() -> List[Dict[str, object]]:
        return [
            Repetition(opts, work, next(reps), extra).record()
            for extra in ((), ("--spans", str(spans_path)), ("--profile",))
        ]

    rounds, crashed = closed_loop(opts, traced_round, 1)
    if not rounds:
        return None
    _plain, spanned, profiled = rounds[0]
    layers = {**spanned["layers"], **profiled["layers"]}  # type: ignore[arg-type]
    stepped = layers["core.pipeline.stepped_cycles"]
    layers["core.pipeline.us_per_step"] = (
        1e6 * layers["pipeline_cold_s"] / stepped if stepped else 0.0
    )
    plain_cold_s = best_of([r[0] for r in rounds], "cold_laps")
    for name, position in (("spans", 1), ("profile", 2)):
        layers[f"tracing.{name}_overhead_x"] = (
            best_of([r[position] for r in rounds], "cold_laps") / plain_cold_s
        )
    layers["core.sampling.ci95_pct"] = float(rounds[0][0].get("ci95_pct", 0.0))
    print(f"spans: {spans_path.relative_to(ROOT)}")
    print(f"tracing overhead: best-of over {len(rounds)} round(s)")
    print(f"calls per instruction (all layers): "
          f"{layers['total_calls'] / float(profiled['instructions']):.1f}")
    metrics = {name: float(layers[name]) for name in PER_LAYER}
    return [record for r in rounds for record in r], crashed, metrics, PER_LAYER


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the self-test's small runs)",
    )
    opts = parser.parse_args(argv)
    opts.deadline = monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{opts.workload}-{os.getpid()}"
    try:
        # Compile the package once, so no repetition's set-up pays for it.
        compiled = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import bench_workloads, bench_trace",
             str(HERE)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=DEADLINE_S,
        )
        if compiled.returncode != 0:
            print(f"perfbench: cannot import the simulator:\n{compiled.stderr}", file=sys.stderr)
            return 2
        outcome = (traced_run if opts.trace else timed_run)(opts, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if outcome is None:
        print("perfbench: no repetition finished", file=sys.stderr)
        return 1
    records, crashed, metrics, units = outcome
    counts = tally(records, crashed)
    first = records[0]
    print(f"workload {opts.workload}  seed {opts.seed}  scale {opts.scale}  "
          f"repetitions {len(records)} (+{crashed} crashed)")
    print(f"repro {first['version']}  result sha256 {first['result_sha256']}")
    if "shape" in first:
        shape = "  ".join(f"{k} {v:.3f}" for k, v in first["shape"].items())  # type: ignore[union-attr]
        print(f"figure 9 shape: {shape}")
    for index, record in enumerate(records):
        print(f"  rep {index}: setup {record['setup_s']:.3f} s  cold {record['cold_s']:.3f} s  "
              f"hit section {record['hit_s']:.3f} s  rss {record['peak_rss_mib']:.1f} MiB")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"operations: {counts['attempted']} attempted, {counts['failed']} failed")
    for line in counts["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
