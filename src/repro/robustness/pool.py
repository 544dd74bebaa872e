"""A fault-tolerant process pool for embarrassingly parallel cells.

``multiprocessing.Pool.imap`` — what the sweep engine used to run on —
has exactly the failure modes a long sweep cannot afford: a worker
killed mid-task hangs the iterator forever, a hung task hangs it just
as hard, and Ctrl-C surfaces as a traceback with every in-flight result
lost.  :class:`ResilientPool` replaces it with explicitly supervised
workers:

* one task in flight per worker, dispatched over a per-worker pipe, so
  the parent always knows which cell a dead worker was holding;
* worker-death detection (pipe EOF / liveness polls) with automatic
  respawn, and per-task wall-clock deadlines enforced by killing the
  worker past its budget;
* failed attempts feed a :class:`~repro.robustness.retry.RetryPolicy`
  (capped deterministic backoff, no parent-blocking sleeps) and
  quarantine after the budget — the pool finishes everything it can
  and reports the rest, it never raises for a poison task;
* an in-parent mode: a pool that would start a single worker runs its
  tasks in the calling process instead, under a SIGALRM watchdog, with
  the same retry, quarantine and events — so serial callers share this
  one loop;
* graceful degradation: when workers keep dying (``max_worker_deaths``)
  the pool stops respawning and finishes the remainder in-parent;
* KeyboardInterrupt stops dispatch, drains in-flight tasks for a grace
  period (their results are delivered through ``on_event`` like any
  other), tears the pool down, and re-raises for the caller to wrap.

Scheduling preserves the sweep engine's trace-locality contract: tasks
arrive pre-ordered (workload-major), are split into ``chunksize`` runs
assigned round-robin to worker queues — the same distribution ``imap``
chunking produced — and an idle worker steals from the richest queue
only when its own runs dry.

The pool knows nothing about sweeps: callers observe through the
``on_event`` callback (kinds: ``result``, ``task-error``, ``retry``,
``quarantine``, ``worker-death``, ``timeout``, ``degrade``) and get a
:class:`PoolOutcome` back.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import CellTimeoutError
from .faults import mark_worker
from .retry import RetryPolicy
from .watchdog import deadline

#: Parent poll tick: worker liveness, deadlines and backoff maturities
#: are checked at this cadence, so it bounds detection latency.
POLL_INTERVAL = 0.05

#: How long a Ctrl-C drain waits for in-flight cells before giving up.
DRAIN_GRACE_SECONDS = 30.0

#: How long ``close`` waits for a sentinel-notified worker to exit on
#: its own before escalating to terminate/kill.
JOIN_GRACE_SECONDS = 2.0

EventFn = Callable[..., None]


def _worker_main(conn, fn) -> None:
    """Worker loop: recv ``(task_id, payload, attempt)``, run, send back.

    SIGINT is ignored (the parent owns interruption policy: on Ctrl-C it
    drains us, it does not want us dying mid-cell), and the process
    marks itself a worker so process-fatal fault sites may fire here.
    Task exceptions are caught and reported; the worker survives them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    mark_worker()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, payload, attempt = message
        try:
            value = fn(payload, attempt)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send((task_id, False, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send((task_id, True, value))


@dataclass
class _TaskState:
    task_id: object
    payload: object
    group: str = ""
    attempts: int = 0
    errors: List[str] = field(default_factory=list)
    ready_at: float = 0.0  #: monotonic time before which it must not run


def _label(state: _TaskState) -> str:
    """How watchdog errors name a task: by its group, else its id."""
    return f"cell {state.group or state.task_id}"


@dataclass
class TaskFailure:
    """A task that exhausted its retry budget (quarantined)."""

    task_id: object
    group: str
    attempts: int
    errors: List[str]


@dataclass
class PoolOutcome:
    """What one :meth:`ResilientPool.run` produced and endured."""

    results: Dict[object, object] = field(default_factory=dict)
    failures: Dict[object, TaskFailure] = field(default_factory=dict)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    degraded: bool = False


class _Worker:
    """Parent-side handle on one worker process."""

    def __init__(self, context, fn) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main, args=(child_conn, fn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.current: Optional[object] = None  #: task_id in flight
        self.deadline: Optional[float] = None
        self.queue: deque = deque()  #: task_ids with affinity to this worker

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def dispatch(self, state: _TaskState, cell_timeout: Optional[float]) -> None:
        self.conn.send((state.task_id, state.payload, state.attempts))
        self.current = state.task_id
        if cell_timeout is not None and cell_timeout > 0:
            self.deadline = time.monotonic() + cell_timeout
        else:
            self.deadline = None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(JOIN_GRACE_SECONDS)
            if self.process.is_alive():  # pragma: no cover - stuck in kernel
                self.process.kill()
                self.process.join(JOIN_GRACE_SECONDS)

    def close(self) -> None:
        """Polite shutdown: sentinel, short join, then escalate."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(JOIN_GRACE_SECONDS)
        self.kill()


class ResilientPool:
    """Supervised workers executing ``fn(payload, attempt)`` per task."""

    def __init__(
        self,
        fn,
        workers: int,
        *,
        cell_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        max_worker_deaths: Optional[int] = None,
        on_event: Optional[EventFn] = None,
        sleep=time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.fn = fn
        self.workers = workers
        self.cell_timeout = cell_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_worker_deaths = (
            max_worker_deaths
            if max_worker_deaths is not None
            else max(4, 2 * workers)
        )
        self.on_event = on_event
        self._sleep = sleep
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._context = multiprocessing.get_context("spawn")

    def _emit(self, kind: str, **info) -> None:
        if self.on_event is not None:
            self.on_event(kind, **info)

    # -- the run --------------------------------------------------------------
    def run(
        self, tasks: Sequence[Tuple[object, object, str]], chunksize: int = 1
    ) -> PoolOutcome:
        """Execute ``(task_id, payload, group)`` tasks; never raises for a
        task failure — only for ``KeyboardInterrupt`` (after draining).

        A run that would start a single worker (one task, or
        ``workers=1``) runs every task in this process instead.
        """
        outcome = PoolOutcome()
        states = {
            task_id: _TaskState(task_id, payload, group)
            for task_id, payload, group in tasks
        }
        order = [task_id for task_id, _payload, _group in tasks]
        workers = min(self.workers, len(states))
        if workers > 1:
            pool: List[_Worker] = []
            try:
                pool = [_Worker(self._context, self.fn) for _ in range(workers)]
                self._seed_queues(pool, order, max(1, chunksize))
                self._supervise(pool, states, outcome)
            except KeyboardInterrupt:
                self._drain(pool, states, outcome)
                raise
            finally:
                for worker in pool:
                    worker.close()
            if not outcome.degraded:
                return outcome
            self._emit(
                "degrade",
                remaining=len(states) - len(outcome.results) - len(outcome.failures),
            )
        self._run_in_parent(states, outcome)
        return outcome

    @staticmethod
    def _seed_queues(pool: List[_Worker], order: List[object], chunksize: int) -> None:
        """Round-robin ``chunksize`` runs onto worker queues (imap layout)."""
        chunks = [order[i : i + chunksize] for i in range(0, len(order), chunksize)]
        for index, chunk in enumerate(chunks):
            pool[index % len(pool)].queue.extend(chunk)

    def _next_task(
        self, worker: _Worker, pool: List[_Worker], states, outcome: PoolOutcome
    ) -> Optional[_TaskState]:
        """The next runnable task for ``worker``: own queue, then stealing."""
        now = time.monotonic()

        def pop_ready(queue: deque) -> Optional[_TaskState]:
            for _ in range(len(queue)):
                task_id = queue.popleft()
                state = states.get(task_id)
                if (
                    state is None
                    or task_id in outcome.results
                    or task_id in outcome.failures
                ):
                    continue
                if state.ready_at > now:  # backing off; recheck next tick
                    queue.append(task_id)
                    continue
                return state
            return None

        state = pop_ready(worker.queue)
        if state is not None:
            return state
        richest = max(pool, key=lambda w: len(w.queue))
        if richest is not worker and richest.queue:
            return pop_ready(richest.queue)
        return None

    def _supervise(self, pool: List[_Worker], states, outcome: PoolOutcome) -> None:
        from multiprocessing.connection import wait as connection_wait

        total = len(states)
        while len(outcome.results) + len(outcome.failures) < total:
            if outcome.degraded:
                return
            # Dispatch to every idle, live worker.
            for worker in pool:
                if worker.current is not None or not worker.process.is_alive():
                    continue
                state = self._next_task(worker, pool, states, outcome)
                if state is None:
                    continue
                try:
                    worker.dispatch(state, self.cell_timeout)
                except (OSError, ValueError):
                    # Died between liveness check and send; requeue and
                    # let the death handler below respawn.
                    worker.queue.appendleft(state.task_id)
            # Collect results / detect deaths.
            connections = [w.conn for w in pool if w.process.is_alive()]
            readable = connection_wait(connections, timeout=POLL_INTERVAL) if connections else []
            by_conn = {worker.conn: worker for worker in pool}
            for conn in readable:
                worker = by_conn[conn]
                try:
                    task_id, ok, value = conn.recv()
                except (EOFError, OSError):
                    self._worker_died(worker, pool, states, outcome)
                    continue
                attempt = states[task_id].attempts
                worker.current = None
                worker.deadline = None
                if ok:
                    outcome.results[task_id] = value
                    self._emit("result", task_id=task_id, value=value, attempt=attempt)
                else:
                    self._attempt_failed(task_id, str(value), pool, states, outcome)
            # Deadlines and silent deaths.
            now = time.monotonic()
            for worker in pool:
                if not worker.process.is_alive() and worker.current is not None:
                    # Death the pipe didn't surface this tick.
                    if worker.conn not in [c for c in readable]:
                        self._worker_died(worker, pool, states, outcome)
                    continue
                if (
                    worker.current is not None
                    and worker.deadline is not None
                    and now > worker.deadline
                ):
                    task_id = worker.current
                    outcome.timeouts += 1
                    self._emit(
                        "timeout", task_id=task_id, seconds=self.cell_timeout
                    )
                    worker.kill()
                    worker.current = None
                    self._respawn(worker, pool)
                    self._attempt_failed(
                        task_id,
                        f"CellTimeoutError: {_label(states[task_id])} exceeded "
                        f"its {self.cell_timeout:g}s wall-clock watchdog",
                        pool,
                        states,
                        outcome,
                    )

    def _worker_died(
        self, worker: _Worker, pool: List[_Worker], states, outcome: PoolOutcome
    ) -> None:
        outcome.worker_deaths += 1
        task_id = worker.current
        self._emit(
            "worker-death",
            pid=worker.pid,
            task_id=task_id,
            deaths=outcome.worker_deaths,
        )
        worker.kill()
        worker.current = None
        if outcome.worker_deaths >= self.max_worker_deaths:
            outcome.degraded = True
            if task_id is not None:  # rerun it in the parent with the rest
                states[task_id].ready_at = 0.0
                worker.queue.appendleft(task_id)
            return
        self._respawn(worker, pool)
        if task_id is not None:
            self._attempt_failed(
                task_id,
                f"worker process (pid {worker.pid}) died while running this cell",
                pool,
                states,
                outcome,
            )

    def _respawn(self, worker: _Worker, pool: List[_Worker]) -> None:
        replacement = _Worker(self._context, self.fn)
        replacement.queue = worker.queue
        pool[pool.index(worker)] = replacement

    def _attempt_failed(
        self, task_id, error: str, pool: List[_Worker], states, outcome: PoolOutcome
    ) -> None:
        state = states[task_id]
        state.attempts += 1
        state.errors.append(error)
        self._emit("task-error", task_id=task_id, error=error, attempt=state.attempts)
        if self.retry.allows(state.attempts):
            delay = self.retry.backoff(state.attempts)
            state.ready_at = time.monotonic() + delay
            outcome.retries += 1
            self._emit(
                "retry", task_id=task_id, attempt=state.attempts + 1, delay=delay
            )
            if pool:
                shortest = min(pool, key=lambda w: len(w.queue))
                shortest.queue.append(task_id)
        else:
            failure = TaskFailure(
                task_id=task_id,
                group=state.group,
                attempts=state.attempts,
                errors=list(state.errors),
            )
            outcome.failures[task_id] = failure
            self._emit(
                "quarantine",
                task_id=task_id,
                attempts=state.attempts,
                errors=list(state.errors),
            )

    # -- in-parent execution ----------------------------------------------------
    def _run_in_parent(self, states, outcome: PoolOutcome) -> None:
        """Run every unfinished task here: watchdogged by SIGALRM, retried
        and quarantined exactly as a worker's attempts are."""
        for state in states.values():
            task_id = state.task_id
            while task_id not in outcome.results and task_id not in outcome.failures:
                try:
                    with deadline(self.cell_timeout, label=_label(state)):
                        value = self.fn(state.payload, state.attempts)
                except Exception as exc:  # noqa: BLE001 - incl. CellTimeoutError
                    if isinstance(exc, CellTimeoutError):
                        if not self.cell_timeout or self.cell_timeout <= 0:
                            raise  # an enclosing watchdog's, not this task's
                        outcome.timeouts += 1
                        self._emit("timeout", task_id=task_id, seconds=self.cell_timeout)
                    error = f"{type(exc).__name__}: {exc}"
                    self._attempt_failed(task_id, error, [], states, outcome)
                    if task_id not in outcome.failures:
                        self._sleep(self.retry.backoff(state.attempts))
                else:
                    outcome.results[task_id] = value
                    self._emit(
                        "result", task_id=task_id, value=value, attempt=state.attempts
                    )

    # -- Ctrl-C drain ---------------------------------------------------------
    def _drain(self, pool: List[_Worker], states, outcome: PoolOutcome) -> None:
        """Collect in-flight results for a grace period, then tear down.

        Cells already dispatched represent real compute; losing them to a
        Ctrl-C would make interruption expensive exactly when the sweep
        is long.  Queued-but-undispatched tasks stay pending.
        """
        from multiprocessing.connection import wait as connection_wait

        grace = DRAIN_GRACE_SECONDS
        if self.cell_timeout is not None and self.cell_timeout > 0:
            grace = min(grace, self.cell_timeout)
        cutoff = time.monotonic() + grace
        while any(w.current is not None for w in pool):
            budget = cutoff - time.monotonic()
            if budget <= 0:
                break
            connections = [
                w.conn for w in pool if w.current is not None and w.process.is_alive()
            ]
            if not connections:
                break
            readable = connection_wait(connections, timeout=min(budget, POLL_INTERVAL * 4))
            by_conn = {worker.conn: worker for worker in pool}
            for conn in readable:
                worker = by_conn[conn]
                try:
                    task_id, ok, value = conn.recv()
                except (EOFError, OSError):
                    worker.current = None
                    continue
                worker.current = None
                if ok:
                    outcome.results[task_id] = value
                    self._emit(
                        "result",
                        task_id=task_id,
                        value=value,
                        attempt=states[task_id].attempts,
                        drained=True,
                    )
