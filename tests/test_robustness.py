"""Tests for the fault-tolerance substrate and the hardened sweep engine.

Covers the ``repro.robustness`` package in isolation (injector
determinism, retry policy, watchdog, journal, resilient pool) and then
drives the :class:`~repro.experiments.sweep.SweepEngine` through every
recovery path with deterministic injected faults: retry-and-recover,
poison-cell quarantine, worker crashes, hung cells, crash-safe cache
writes, SIGINT drain, and journal resume.  The chaos-campaign tests pin
the acceptance bar: a faulted sweep's surviving results must be
bit-identical to a fault-free run.
"""

import json
import signal
import time

import pytest

from repro.common.config import cooo_config, scaled_baseline
from repro.common.errors import (
    CellTimeoutError,
    ConfigurationError,
    InjectedFaultError,
    SweepInterrupted,
)
from repro.experiments.sweep import ResultCache, SweepEngine, SweepSpec
from repro.robustness import (
    DEFAULT_HANG_SECONDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ResilientPool,
    RetryPolicy,
    SweepJournal,
    deadline,
    parse_fault_plan,
    watchdog_available,
)

#: Tiny scale and a two-workload filter keep every engine test fast.
SCALE = 0.1
WORKLOADS = ("daxpy", "reduction")


def small_spec(name="robust-sweep", scale=SCALE, workloads=WORKLOADS):
    configs = [
        scaled_baseline(window=64, memory_latency=100),
        cooo_config(iq_size=32, sliq_size=512, memory_latency=100),
    ]
    return SweepSpec(name, configs, scale=scale, workloads=workloads)


def rows_of(outcome):
    return [None if r is None else r.to_dict() for r in outcome.results]


def plan_of(*rules, seed=0, hang_seconds=DEFAULT_HANG_SECONDS):
    return FaultPlan(seed=seed, rules=tuple(rules), hang_seconds=hang_seconds)


#: No parent-blocking waits in unit tests that exercise many retries.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_cap=0.0)


@pytest.fixture(scope="module")
def baseline_rows():
    """The fault-free ground truth every recovery test must reproduce."""
    return rows_of(SweepEngine(jobs=1).run(small_spec()))


@pytest.fixture(scope="module")
def one_result():
    from repro.api import run as simulate
    from repro.workloads import numerical

    return simulate(
        scaled_baseline(window=64, memory_latency=100),
        numerical.daxpy(elements=50),
    )


class TestFaultInjector:
    def test_decisions_replay_exactly(self):
        plan = plan_of(FaultRule("worker.crash", rate=0.5), seed=7)
        first = [
            FaultInjector(plan).decide("worker.crash", f"cell{i}:a0")
            for i in range(64)
        ]
        second = [
            FaultInjector(plan).decide("worker.crash", f"cell{i}:a0")
            for i in range(64)
        ]
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 actually splits

    def test_seed_changes_the_outcome(self):
        contexts = [f"cell{i}:a0" for i in range(128)]
        rule = FaultRule("simulate.error", rate=0.5)
        a = [FaultInjector(plan_of(rule, seed=1)).decide("simulate.error", c) for c in contexts]
        b = [FaultInjector(plan_of(rule, seed=2)).decide("simulate.error", c) for c in contexts]
        assert a != b

    def test_attempt_suffix_draws_fresh(self):
        # The context carries the attempt number, so a cell that failed
        # on attempt 0 is not doomed to fail on attempt 1 — this is what
        # lets a chaos campaign converge.
        injector = FaultInjector(plan_of(FaultRule("worker.crash", rate=0.5)))
        differs = any(
            injector.decide("worker.crash", f"cell{i}:a0")
            != injector.decide("worker.crash", f"cell{i}:a1")
            for i in range(64)
        )
        assert differs

    def test_match_restricts_contexts(self):
        injector = FaultInjector(
            plan_of(FaultRule("simulate.error", rate=1.0, match="daxpy"))
        )
        assert injector.decide("simulate.error", "cfgxdaxpy:a0")
        assert not injector.decide("simulate.error", "cfgxreduction:a0")

    def test_rate_zero_and_one(self):
        silent = FaultInjector(plan_of(FaultRule("cell.hang", rate=0.0)))
        loud = FaultInjector(plan_of(FaultRule("cell.hang", rate=1.0)))
        assert not any(silent.decide("cell.hang", f"c{i}") for i in range(32))
        assert all(loud.decide("cell.hang", f"c{i}") for i in range(32))

    def test_fired_log_records_site_and_context(self):
        injector = FaultInjector(plan_of(FaultRule("cache.corrupt", rate=1.0)))
        injector.decide("cache.corrupt", "cfgxdaxpy:a0")
        injector.decide("worker.crash", "cfgxdaxpy:a0")  # no rule: quiet
        assert injector.fired == [("cache.corrupt", "cfgxdaxpy:a0")]

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultRule("disk.melt", rate=0.5)

    def test_rate_out_of_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultRule("worker.crash", rate=1.5)

    def test_plan_roundtrips_through_dict(self):
        plan = plan_of(
            FaultRule("worker.crash", rate=0.25),
            FaultRule("simulate.error", rate=1.0, match="daxpy"),
            seed=42,
            hang_seconds=12.5,
        )
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
        rebuilt = FaultInjector.from_dict(FaultInjector(plan).to_dict())
        assert rebuilt.plan == plan

    def test_parent_is_never_killed(self):
        # worker.crash / cell.hang only fire inside pool workers; in the
        # parent (serial and degraded execution) they are no-ops even at
        # rate 1.0 — an injection plan can never kill the engine itself.
        injector = FaultInjector(
            plan_of(FaultRule("worker.crash"), FaultRule("cell.hang"))
        )
        injector.crash_point("cfgxdaxpy:a0")  # would os._exit in a worker
        injector.hang_point("cfgxdaxpy:a0")  # would sleep an hour
        assert injector.fired == []


class TestParseFaultPlan:
    def test_sites_rates_and_matches(self):
        plan = parse_fault_plan(
            "worker.crash=0.25,cell.hang=0.1,simulate.error@daxpy", seed=3
        )
        assert plan.seed == 3
        assert [r.site for r in plan.rules] == [
            "worker.crash", "cell.hang", "simulate.error",
        ]
        assert [r.rate for r in plan.rules] == [0.25, 0.1, 1.0]
        assert plan.rules[2].match == "daxpy"

    def test_every_documented_site_parses(self):
        plan = parse_fault_plan(",".join(FAULT_SITES))
        assert len(plan.rules) == len(FAULT_SITES)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="not a number"):
            parse_fault_plan("worker.crash=often")

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            parse_fault_plan("worker.crash=0.5,disk.melt=0.5")

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="names no sites"):
            parse_fault_plan(" , ")


class TestRetryPolicy:
    def test_default_budget(self):
        policy = RetryPolicy()
        assert [policy.allows(n) for n in (0, 1, 2, 3)] == [True, True, True, False]

    def test_backoff_doubles_to_the_cap(self):
        policy = RetryPolicy()
        assert policy.backoff(0) == 0.0
        assert [policy.backoff(n) for n in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert policy.backoff(50) == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)


class TestWatchdog:
    @pytest.mark.skipif(not watchdog_available(), reason="no SIGALRM here")
    def test_deadline_interrupts_a_hang(self):
        started = time.monotonic()
        with pytest.raises(CellTimeoutError, match="cell zzz"):
            with deadline(0.2, label="cell zzz") as armed:
                assert armed
                time.sleep(10)
        assert time.monotonic() - started < 5.0

    @pytest.mark.skipif(not watchdog_available(), reason="no SIGALRM here")
    @pytest.mark.parametrize("then_sleep", [0.0, 10.0])
    def test_deadline_survives_a_swallowed_raise(self, then_sleep):
        # A raise landing in a finalizer is swallowed; the block must
        # still end in CellTimeoutError, whether it then finishes or hangs.
        started = time.monotonic()
        with pytest.raises(CellTimeoutError):
            with deadline(0.1):
                try:
                    time.sleep(10)
                except CellTimeoutError:
                    pass
                time.sleep(then_sleep)
        assert time.monotonic() - started < 5.0

    @pytest.mark.skipif(not watchdog_available(), reason="no SIGALRM here")
    def test_deadline_restores_previous_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with deadline(5.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is before

    def test_unbounded_when_no_budget(self):
        for seconds in (None, 0, -1.0):
            with deadline(seconds) as armed:
                assert armed is False


class TestSweepJournal:
    def test_append_read_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        assert not journal.exists()
        assert journal.read() == []
        records = [
            {"event": "sweep-start", "sweep": "s", "cells": 2},
            {"event": "cell-done", "index": 0, "key": "k0", "source": "simulated"},
            {"event": "cell-quarantined", "index": 1, "key": "k1", "attempts": 3},
        ]
        for record in records:
            journal.append(record)
        assert journal.read() == records
        assert journal.completed_keys() == {"k0"}
        assert journal.quarantined_keys() == {"k1"}
        assert list(journal.iter_events("cell-done")) == [records[1]]
        assert journal.last_start() == records[0]

    def test_torn_tail_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append({"event": "cell-done", "index": 0, "key": "k0"})
        journal.append({"event": "cell-done", "index": 1, "key": "k1"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "cell-done", "index": 2, "key"')  # killed mid-append
        assert [r["key"] for r in journal.read()] == ["k0", "k1"]
        assert journal.torn_lines == 1
        assert journal.completed_keys() == {"k0", "k1"}

    def test_non_object_record_counts_as_torn(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.write('["not", "a", "record"]\n')
        assert journal.read() == []
        assert journal.torn_lines == 1

    def test_last_start_picks_the_latest(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append({"event": "sweep-start", "sweep": "first"})
        journal.append({"event": "sweep-end", "sweep": "first"})
        journal.append({"event": "sweep-start", "sweep": "second"})
        assert journal.last_start()["sweep"] == "second"


class TestCrashSafeCache:
    """ResultCache atomicity under the injected mid-store crash."""

    def _crashing_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.injector = FaultInjector(plan_of(FaultRule("cache.store.crash")))
        cache.fault_context = "cfgxdaxpy:a0"
        return cache

    def test_kill_mid_store_leaves_no_entry_and_no_temp(self, tmp_path, one_result):
        cache = self._crashing_cache(tmp_path)
        with pytest.raises(InjectedFaultError, match="cache.store.crash"):
            cache.store("cell-key", one_result)
        assert not cache.path_for("cell-key").exists()
        assert list(cache.cache_dir.glob("*.tmp.*")) == []
        assert cache.stores == 0
        # The retry draws a fresh context and lands the entry for real.
        cache.injector = None
        cache.store("cell-key", one_result)
        loaded = cache.load("cell-key")
        assert loaded is not None
        assert loaded.to_dict() == one_result.to_dict()

    def test_kill_mid_store_preserves_previous_entry(self, tmp_path, one_result):
        cache = ResultCache(tmp_path / "cache")
        cache.store("cell-key", one_result)
        before = cache.path_for("cell-key").read_text(encoding="utf-8")
        cache.injector = FaultInjector(plan_of(FaultRule("cache.store.crash")))
        cache.fault_context = "cfgxdaxpy:a1"
        with pytest.raises(InjectedFaultError):
            cache.store("cell-key", one_result)
        # Atomicity: the destination still holds the complete old payload.
        assert cache.path_for("cell-key").read_text(encoding="utf-8") == before
        assert cache.load("cell-key") is not None

    def test_injected_corruption_is_quarantined_on_load(self, tmp_path, one_result):
        cache = ResultCache(tmp_path / "cache")
        cache.injector = FaultInjector(plan_of(FaultRule("cache.corrupt")))
        cache.fault_context = "cfgxdaxpy:a0"
        cache.store("cell-key", one_result)  # stored, then scribbled over
        cache.injector = None
        assert cache.load("cell-key") is None
        assert cache.corrupt == 1
        assert cache.quarantined == 1
        # Evidence preserved for post-mortem, entry path freed for re-store.
        assert (cache.corrupt_dir / "cell-key.json").exists()
        assert not cache.path_for("cell-key").exists()
        cache.store("cell-key", one_result)
        assert cache.load("cell-key") is not None

    def test_clear_purges_quarantined_corpses(self, tmp_path, one_result):
        cache = ResultCache(tmp_path / "cache")
        cache.injector = FaultInjector(plan_of(FaultRule("cache.corrupt")))
        cache.store("cell-key", one_result)
        cache.injector = None
        cache.load("cell-key")  # quarantines the corrupt entry
        cache.store("other-key", one_result)
        assert cache.clear() == 1  # corpses are purged but not counted
        assert list(cache.corrupt_dir.glob("*.json")) == []


def _pool_flaky(payload, attempt):
    """Succeeds once ``attempt`` reaches ``payload`` (its failure count)."""
    if attempt < payload:
        raise ValueError(f"flaky until attempt {payload}")
    return payload * payload


def _pool_poison(payload, attempt):
    raise RuntimeError("always broken")


def _pool_sleepy(payload, attempt):
    time.sleep(10)


def _pool_nested(payload, attempt):
    """An in-parent pool without a watchdog, inside a watched task."""
    return ResilientPool(_pool_sleepy, 1, retry=FAST_RETRY).run([("inner", 0, "")])


class TestResilientPool:
    def test_runs_everything_and_preserves_results(self):
        pool = ResilientPool(_pool_flaky, 2, retry=FAST_RETRY)
        outcome = pool.run([(i, 0, "") for i in range(8)])
        assert outcome.results == {i: 0 for i in range(8)}
        assert not outcome.failures
        assert outcome.retries == 0 and outcome.worker_deaths == 0

    def test_retries_until_the_budget(self):
        events = []
        pool = ResilientPool(
            _pool_flaky,
            2,
            retry=FAST_RETRY,
            on_event=lambda kind, **info: events.append((kind, info)),
        )
        outcome = pool.run([(n, n, "") for n in range(3)])
        assert outcome.results == {0: 0, 1: 1, 2: 4}
        assert outcome.retries == 3  # one for payload 1, two for payload 2
        assert not outcome.failures
        retry_events = [info for kind, info in events if kind == "retry"]
        assert {e["task_id"] for e in retry_events} == {1, 2}
        assert all("delay" in e and "attempt" in e for e in retry_events)

    def test_poison_task_quarantined_not_raised(self):
        events = []
        pool = ResilientPool(
            _pool_poison,
            2,
            retry=FAST_RETRY,
            on_event=lambda kind, **info: events.append((kind, info)),
        )
        outcome = pool.run([("good", 0, ""), ("bad", 0, "")])
        # _pool_poison fails both; this checks the shape of quarantine.
        assert set(outcome.failures) == {"good", "bad"}
        failure = outcome.failures["bad"]
        assert failure.attempts == FAST_RETRY.max_attempts
        assert all("RuntimeError: always broken" in e for e in failure.errors)
        kinds = [kind for kind, _ in events]
        assert kinds.count("quarantine") == 2
        assert kinds.count("task-error") == 2 * FAST_RETRY.max_attempts

    @pytest.mark.skipif(not watchdog_available(), reason="no SIGALRM here")
    def test_in_parent_timeout_reaches_the_watching_pool(self):
        outer = ResilientPool(
            _pool_nested, 1, cell_timeout=0.1, retry=RetryPolicy(max_attempts=1)
        )
        started = time.monotonic()
        outcome = outer.run([("outer", 0, "grid")])
        assert time.monotonic() - started < 5.0
        assert outcome.timeouts == 1
        assert outcome.failures["outer"].errors == [
            "CellTimeoutError: cell grid exceeded its 0.1s wall-clock watchdog"
        ]

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ResilientPool(_pool_flaky, 0)


class TestSerialRecovery:
    def test_injected_error_retries_and_recovers(self, baseline_rows):
        # Every cell fails its first attempt and succeeds on the retry;
        # the final results must not know the difference.
        injector = FaultInjector(
            plan_of(FaultRule("simulate.error", rate=1.0, match=":a0"))
        )
        engine = SweepEngine(jobs=1, injector=injector, retry=FAST_RETRY)
        outcome = engine.run(small_spec())
        assert outcome.retries == 4
        assert outcome.failed_cells == []
        assert rows_of(outcome) == baseline_rows
        assert len(injector.fired) == 4

    def test_poison_cells_quarantined_not_raised(self, baseline_rows):
        injector = FaultInjector(
            plan_of(FaultRule("simulate.error", rate=1.0, match="daxpy"))
        )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        outcome = SweepEngine(jobs=1, injector=injector, retry=policy).run(small_spec())
        # Cells are config-major: daxpy sits at indexes 0 and 2.
        assert outcome.quarantined == 2
        assert [e["index"] for e in outcome.failed_cells] == [0, 2]
        for entry in outcome.failed_cells:
            assert entry["workload"] == "daxpy"
            assert entry["attempts"] == 2
            assert any("InjectedFaultError" in err for err in entry["errors"])
        assert outcome.results[0] is None and outcome.results[2] is None
        rows = rows_of(outcome)
        assert rows[1] == baseline_rows[1] and rows[3] == baseline_rows[3]

    def test_journal_records_the_whole_run(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        SweepEngine(jobs=1, journal=journal).run(small_spec())
        events = [r["event"] for r in journal.read()]
        assert events[0] == "sweep-start"
        assert events.count("cell-done") == 4
        assert events[-1] == "sweep-end"
        start = journal.last_start()
        assert start["cells"] == 4 and start["keys_digest"]
        done = list(journal.iter_events("cell-done"))
        assert all(r["source"] == "simulated" and r["key"] for r in done)

    def test_failed_attempts_are_journaled(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        injector = FaultInjector(
            plan_of(FaultRule("simulate.error", rate=1.0, match="daxpy"))
        )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        SweepEngine(jobs=1, injector=injector, retry=policy, journal=journal).run(
            small_spec()
        )
        events = [r["event"] for r in journal.read()]
        assert events.count("cell-failed") == 4  # 2 cells x 2 attempts
        assert events.count("cell-quarantined") == 2
        assert events.count("cell-done") == 2


class TestSigintAndResume:
    def _engine(self, tmp_path, **kwargs):
        return SweepEngine(
            jobs=1,
            cache=ResultCache(tmp_path / "cache"),
            journal=SweepJournal(tmp_path / "sweep.jsonl"),
            **kwargs,
        )

    def test_interrupt_then_resume_simulates_only_the_pending(
        self, tmp_path, baseline_rows
    ):
        injector = FaultInjector(
            plan_of(FaultRule("sweep.sigint", rate=1.0, match="collect:2"))
        )
        engine = self._engine(tmp_path, injector=injector)
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run(small_spec())
        assert excinfo.value.completed == 2
        assert excinfo.value.pending == 2
        assert "--resume" in str(excinfo.value)
        assert excinfo.value.journal == engine.journal.path
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        interrupted = list(journal.iter_events("sweep-interrupted"))
        assert interrupted == [
            {"event": "sweep-interrupted", "completed": 2, "pending": 2}
        ]

        resumed_engine = self._engine(tmp_path, resume=True)
        outcome = resumed_engine.run(small_spec())
        assert outcome.resumed == 2
        assert outcome.cached == 2
        assert outcome.simulated == 2  # zero journaled cells re-simulate
        assert outcome.failed_cells == []
        assert rows_of(outcome) == baseline_rows
        events = [r["event"] for r in journal.read()]
        assert "sweep-resume" in events and events[-1] == "sweep-end"

    def test_resume_after_a_complete_run_simulates_nothing(self, tmp_path):
        spec = small_spec()
        first = self._engine(tmp_path).run(spec)
        assert first.simulated == 4
        outcome = self._engine(tmp_path, resume=True).run(spec)
        assert outcome.simulated == 0
        assert outcome.resumed == 4

    def test_foreign_journal_never_skips_cells(self, tmp_path):
        # A journal full of cell-done records for some *other* sweep must
        # not suppress any of this spec's cells.
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        for index in range(4):
            journal.append(
                {"event": "cell-done", "index": index, "key": f"alien-{index}"}
            )
        engine = self._engine(tmp_path, resume=True)
        outcome = engine.run(small_spec())
        assert outcome.resumed == 0
        assert outcome.simulated == 4

    def test_resume_without_journal_is_harmless(self):
        outcome = SweepEngine(jobs=1, resume=True).run(small_spec())
        assert outcome.resumed == 0
        assert outcome.simulated == 4


class TestParallelRecovery:
    def test_worker_crash_recovers_bit_identically(self, baseline_rows):
        # Every cell's first attempt hard-kills its worker (as if
        # OOM-killed); the pool respawns and the retries converge.
        injector = FaultInjector(
            plan_of(FaultRule("worker.crash", rate=1.0, match=":a0"))
        )
        engine = SweepEngine(
            jobs=2, injector=injector, retry=FAST_RETRY, max_worker_deaths=16
        )
        outcome = engine.run(small_spec())
        assert outcome.worker_deaths == 4
        assert outcome.retries >= 4
        assert not outcome.degraded
        assert outcome.failed_cells == []
        assert rows_of(outcome) == baseline_rows

    def test_pool_degrades_to_serial_when_workers_keep_dying(self, baseline_rows):
        # rate 1.0 with no match: every attempt in any worker dies, so
        # the pool gives up respawning and the parent (where the crash
        # site never fires) finishes the sweep serially.
        injector = FaultInjector(plan_of(FaultRule("worker.crash", rate=1.0)))
        engine = SweepEngine(
            jobs=2, injector=injector, retry=FAST_RETRY, max_worker_deaths=1
        )
        outcome = engine.run(small_spec())
        assert outcome.degraded
        assert outcome.worker_deaths >= 1
        assert outcome.failed_cells == []
        assert rows_of(outcome) == baseline_rows

    def test_hung_cell_killed_by_watchdog_and_retried(self, baseline_rows):
        injector = FaultInjector(
            plan_of(
                FaultRule("cell.hang", rate=1.0, match="daxpy:a0"),
                hang_seconds=30.0,
            )
        )
        engine = SweepEngine(
            jobs=2,
            injector=injector,
            retry=FAST_RETRY,
            cell_timeout=1.0,
            max_worker_deaths=16,
        )
        outcome = engine.run(small_spec())
        assert outcome.timeouts == 2  # both configs' daxpy first attempts
        assert outcome.failed_cells == []
        assert rows_of(outcome) == baseline_rows


class TestOneLoopCounters:
    """Serial, degraded and parallel sweeps report the same counters."""

    @pytest.mark.skipif(not watchdog_available(), reason="no SIGALRM here")
    def test_degraded_run_counts_watchdog_timeouts_like_serial(self):
        policy = RetryPolicy(max_attempts=2)
        serial = SweepEngine(jobs=1, cell_timeout=0.001, retry=policy).run(small_spec())
        degraded = SweepEngine(
            jobs=2,
            cell_timeout=0.001,
            retry=policy,
            max_worker_deaths=1,
            injector=FaultInjector(plan_of(FaultRule("worker.crash", rate=1.0))),
        ).run(small_spec())
        assert degraded.degraded
        # Every attempt of every cell times out: 4 cells x 2 attempts.
        assert serial.timeouts == degraded.timeouts == 8
        for entry in serial.failed_cells + degraded.failed_cells:
            # The watchdog names the cell, not the pool's task id.
            label = f"cell {entry['config']}x{entry['workload']} exceeded"
            assert all(label in error for error in entry["errors"])

    def test_parallel_run_reports_cache_traffic_like_serial(self, tmp_path):
        caches = {}
        for jobs in (1, 2):
            caches[jobs] = ResultCache(tmp_path / f"jobs{jobs}", max_bytes=1)
            SweepEngine(jobs=jobs, cache=caches[jobs]).run(small_spec())
        serial, parallel = caches[1], caches[2]
        # A 1-byte budget evicts every entry right after its store.
        assert serial.evictions == parallel.evictions == 4
        assert serial.evicted_bytes == parallel.evicted_bytes > 0
        # The parent's lookup and the cell's own both miss, in either mode.
        assert serial.misses == parallel.misses == 8
        assert serial.stores == parallel.stores == 4


class TestChaosCampaign:
    """The acceptance bar: surviving results are bit-identical."""

    #: Seed chosen so the fixed plan fires worker crashes, simulate
    #: errors and cache corruption at least once each across the 4-cell
    #: grid while every cell still recovers within the retry budget
    #: (verified by replaying the decision function over the cell
    #: contexts; see FaultInjector._draw).
    SEED = 12
    PLAN = "worker.crash=0.3,simulate.error=0.3,cache.corrupt=0.3"

    def test_campaign_recovers_bit_identically(self, tmp_path, baseline_rows):
        injector = FaultInjector(parse_fault_plan(self.PLAN, seed=self.SEED))
        engine = SweepEngine(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            journal=SweepJournal(tmp_path / "sweep.jsonl"),
            injector=injector,
            retry=FAST_RETRY,
        )
        outcome = engine.run(small_spec())
        assert outcome.quarantined == 0
        assert outcome.retries >= 1
        assert rows_of(outcome) == baseline_rows

    def test_campaign_replays_exactly(self, tmp_path, baseline_rows):
        # Same plan, same seed, fresh everything: the recovery telemetry
        # replays exactly, not just the results.
        tallies = []
        for run in ("a", "b"):
            injector = FaultInjector(parse_fault_plan(self.PLAN, seed=self.SEED))
            engine = SweepEngine(
                jobs=2,
                cache=ResultCache(tmp_path / f"cache-{run}"),
                injector=injector,
                retry=FAST_RETRY,
            )
            outcome = engine.run(small_spec())
            assert rows_of(outcome) == baseline_rows
            tallies.append(
                (outcome.retries, outcome.worker_deaths, outcome.quarantined)
            )
        assert tallies[0] == tallies[1]

    def test_serial_campaign_matches_too(self, baseline_rows):
        injector = FaultInjector(parse_fault_plan(self.PLAN, seed=self.SEED))
        outcome = SweepEngine(jobs=1, injector=injector, retry=FAST_RETRY).run(
            small_spec()
        )
        assert outcome.quarantined == 0
        assert rows_of(outcome) == baseline_rows


class TestOptIn:
    """No injector, no new behavior: the robustness machinery is opt-in."""

    def test_bare_engine_computes_no_cache_keys(self):
        # Without a cache or journal the engine must not spend time
        # hashing configs into keys (the pre-robustness hot path).
        engine = SweepEngine(jobs=1)
        slots, keys = engine._load_cached(small_spec().cells(), small_spec())
        assert keys == ["", "", "", ""]
        assert slots == [None, None, None, None]

    def test_robust_knobs_leave_results_bit_identical(self, baseline_rows):
        engine = SweepEngine(
            jobs=1,
            cell_timeout=300.0,
            retry=RetryPolicy(max_attempts=5),
            max_worker_deaths=99,
        )
        outcome = engine.run(small_spec())
        assert rows_of(outcome) == baseline_rows
        assert outcome.retries == 0
        assert outcome.failed_cells == []


class TestRobustnessCLI:
    def test_bad_inject_plan_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--suite", "pointer-chase", "--no-cache", "--quiet",
                  "--inject", "disk.melt=0.5"])
        assert excinfo.value.code == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--suite", "pointer-chase", "--no-cache", "--quiet",
                  "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_injected_sigint_exits_130_then_resume_completes(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "sweep.jsonl")
        base = ["sweep", "--suite", "pointer-chase", "--scale", "0.05",
                "--quiet", "--cache-dir", cache_dir, "--journal", journal]
        code = main(base + ["--inject", "sweep.sigint@collect:3"])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert "3 cell(s) completed" in captured.err
        assert "--resume" in captured.err

        code = main(base + ["--resume"])
        captured = capsys.readouterr()
        assert code == 0
        assert "3 resumed from journal" in captured.err
        assert "13 simulated" in captured.err

    def test_quarantine_reported_in_summary(self, capsys):
        from repro.cli import main

        code = main(["sweep", "--suite", "pointer-chase", "--scale", "0.05",
                     "--quiet", "--no-cache", "--retries", "1",
                     "--inject", "simulate.error@chase_cold"])
        captured = capsys.readouterr()
        assert code == 0  # partial sweep reports, it does not crash
        assert "4 quarantined" in captured.err
        assert "quarantined:" in captured.err
        assert "InjectedFaultError" in captured.err
