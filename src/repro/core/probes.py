"""The probe/observer API: watch a pipeline without touching its timing.

A :class:`Probe` is attached to a pipeline (via ``repro.api.Simulation``,
:func:`repro.core.registry_machines.create_pipeline`, or
``PipelineBase.attach_probe``) and receives events as the machine runs:

``on_attach(pipeline)``
    Once, when the probe is bound to a freshly built pipeline.  This is
    where a probe registers its statistics and initialises state.
``on_cycle(pipeline)``
    Once per simulated cycle, after every stage has run.
``on_dispatch(pipeline, inst)``
    An instruction entered the window (renamed + queued).
``on_issue(pipeline, inst)``
    An instruction left an issue queue for a functional unit.
``on_complete(pipeline, inst)``
    An instruction wrote back (its result became available).
``on_commit(pipeline, inst)``
    An instruction retired architecturally (ROB head or checkpoint
    commit, depending on the machine).
``on_squash(pipeline, inst)``
    An instruction was discarded by misprediction/exception recovery.
    Fired *before* the instruction's bookkeeping is torn down, so its
    ``dispatch_cycle`` / ``issue_cycle`` fields still describe the state
    it died in.
``on_checkpoint(pipeline, checkpoint)``
    A machine with a checkpoint table opened a new checkpoint.

Probes are pure observers: the simulated machine never reads anything
back from them, so attaching any combination of probes cannot change
cycles, IPC, or any functional statistic.  The pipeline binds only the
hooks a probe actually overrides, and each emission site is guarded by
an emptiness check — with no probes attached the per-event cost is a
single falsy test, and a pipeline attaches none unless asked
(``benchmarks/test_bench_probe_overhead.py`` counts the calls).  The
window occupancy behind Figures 7 and 11 is pipeline state, not a probe.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..isa.instruction import DynInst


class Probe:
    """Base observer; subclass and override the events you care about."""

    def on_attach(self, pipeline) -> None:
        """Bound to ``pipeline``; register stats / initialise state here."""

    def on_cycle(self, pipeline) -> None:
        """One simulated cycle finished.

        A probe that overrides ``on_cycle`` forces the simulation kernel
        back to per-cycle stepping — *unless* it also overrides
        :meth:`on_idle_cycles`, which lets the event-driven kernel keep
        skipping idle spans and hand them to the probe in bulk.
        """

    def on_idle_cycles(self, pipeline, cycles: int) -> None:
        """The event-driven kernel skipped ``cycles`` consecutive idle cycles.

        During an idle span no architectural state changes, so a
        sampling probe can integrate its current values with weight
        ``cycles`` and remain bit-identical to per-cycle stepping, as the
        pipeline's own occupancy sampling does.  Overriding this alongside
        ``on_cycle`` declares the probe skip-aware; ``on_cycle`` still
        fires for every cycle the kernel actually steps.
        """

    def on_dispatch(self, pipeline, inst: DynInst) -> None:
        """``inst`` entered the window."""

    def on_issue(self, pipeline, inst: DynInst) -> None:
        """``inst`` left its issue queue for execution."""

    def on_complete(self, pipeline, inst: DynInst) -> None:
        """``inst`` wrote back."""

    def on_commit(self, pipeline, inst: DynInst) -> None:
        """``inst`` retired architecturally."""

    def on_squash(self, pipeline, inst: DynInst) -> None:
        """``inst`` is about to be discarded by recovery."""

    def on_checkpoint(self, pipeline, checkpoint) -> None:
        """A new checkpoint was opened."""


#: Event names a pipeline dispatches (``on_attach`` is bind-time only).
PROBE_EVENTS = (
    "on_cycle",
    "on_dispatch",
    "on_issue",
    "on_complete",
    "on_commit",
    "on_squash",
    "on_checkpoint",
)


def hook_for(probe: Probe, event: str) -> Optional[Callable]:
    """The callable to invoke for ``event``, or None if not overridden.

    Only hooks a probe actually implements are bound, so a probe that
    watches one event costs nothing on the other six.  Instance
    attributes (e.g. :class:`CallbackProbe`) shadow class methods.
    """
    if event in getattr(probe, "__dict__", ()):
        fn = probe.__dict__[event]
        return fn if callable(fn) else None
    fn = getattr(probe, event, None)
    if fn is None or not callable(fn):
        return None
    if getattr(type(probe), event, None) is getattr(Probe, event, None):
        return None  # inherited no-op
    return fn


class CallbackProbe(Probe):
    """Adapter turning plain callables into a probe.

    Example::

        probe = CallbackProbe(on_commit=lambda pipe, inst: commits.append(inst.seq))
    """

    def __init__(self, **callbacks: Callable) -> None:
        unknown = sorted(set(callbacks) - set(PROBE_EVENTS) - {"on_attach", "on_idle_cycles"})
        if unknown:
            raise TypeError(f"unknown probe events {unknown}; valid: {sorted(PROBE_EVENTS)}")
        for event, fn in callbacks.items():
            setattr(self, event, fn)
