"""Per-cell wall-clock watchdog for in-process (serial) execution.

Parallel cells are watched from the parent (the resilient pool tracks a
deadline per dispatched cell and kills the worker past it); serial and
degraded-mode cells run in the engine's own process, where the only
portable-enough interrupt mechanism is ``SIGALRM``.  :func:`deadline`
wraps one cell in an itimer and raises
:class:`~repro.common.errors.CellTimeoutError` when the budget runs out.

Where SIGALRM is unavailable (non-main thread, non-POSIX platforms) the
context manager degrades to a no-op: a serial hang then runs to
completion exactly as before this subsystem existed — never a crash.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..common.errors import CellTimeoutError

#: How often an expired deadline fires again.  A raise that lands inside
#: a finalizer is swallowed by the interpreter, so a hung block needs a
#: second chance; a block that unwinds normally is gone long before it.
REFIRE_SECONDS = 1.0


def watchdog_available() -> bool:
    """True when :func:`deadline` can actually arm a timer here."""
    return (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def deadline(seconds: Optional[float], label: str = "cell") -> Iterator[bool]:
    """Bound the enclosed block to ``seconds`` of wall-clock time.

    Yields True when a timer is armed, False when the watchdog is
    unavailable (or ``seconds`` is None/non-positive) and the block runs
    unbounded.  On expiry the block is interrupted with
    :class:`CellTimeoutError`; a block that outran its budget but
    finished because the interrupt was swallowed raises it on exit.
    """
    if seconds is None or seconds <= 0 or not watchdog_available():
        yield False
        return
    message = f"{label} exceeded its {seconds:g}s wall-clock watchdog"
    armed = True
    expired = False

    def _expired(signum, frame):
        nonlocal expired
        if armed:
            expired = True
            raise CellTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, _expired)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds, max(seconds, REFIRE_SECONDS))
        yield True
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise CellTimeoutError(message)
