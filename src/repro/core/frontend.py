"""The fetch engine: trace cursor, branch prediction and fetch redirects.

Because the simulator is trace-driven it cannot synthesise wrong-path
instructions.  Instead, when the front end fetches a branch whose
prediction disagrees with the trace outcome (or a taken branch that misses
in the BTB), it marks the branch mispredicted and *keeps fetching* the
following (correct-path) instructions as stand-ins for the wrong path:
they occupy the window, consume bandwidth and are squashed when the branch
resolves, at which point the cursor is rewound and fetch restarts after
the redirect penalty.  This reproduces the first-order cost of a
misprediction — recovery distance and pipeline refill — which is exactly
what distinguishes pseudo-ROB recovery from checkpoint rollback in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..branch import BranchTargetBuffer, GSharePredictor, build_predictor
from ..common.config import BranchConfig
from ..common.stats import StatsRegistry
from ..isa.instruction import Instruction
from ..memory.hierarchy import CacheHierarchy
from ..trace.trace import Trace, TraceCursor


@dataclass(slots=True)
class FetchedInstruction:
    """One instruction handed to the pipeline by the front end."""

    trace_index: int
    instr: Instruction
    mispredicted: bool
    #: Global branch history as of fetching this instruction (gshare
    #: only); checkpoints snapshot it for rollback repair.
    history: Optional[int] = None


class FetchUnit:
    """Fetches instructions from a replayable trace through the I-cache."""

    __slots__ = (
        "cursor",
        "config",
        "hierarchy",
        "fetch_width",
        "predictor",
        "btb",
        "_gshare",
        "_resume_cycle",
        "_resolved_branches",
        "_fetched",
        "_redirects",
    )

    def __init__(
        self,
        trace: Trace,
        branch_config: BranchConfig,
        hierarchy: CacheHierarchy,
        stats: StatsRegistry,
        fetch_width: int,
    ) -> None:
        self.cursor = TraceCursor(trace)
        self.config = branch_config
        self.hierarchy = hierarchy
        self.fetch_width = fetch_width
        self.predictor = build_predictor(branch_config, stats)
        self.btb = BranchTargetBuffer(branch_config, stats)
        self._gshare = isinstance(self.predictor, GSharePredictor)
        self._resume_cycle = 0
        #: Trace indices of branches the back end has already resolved
        #: through a checkpoint rollback.  A trace index names one
        #: *dynamic* branch, so its outcome is architecturally known on
        #: re-fetch: recovery hardware resumes on the correct path
        #: rather than re-predicting (and re-training on) the same
        #: branch — re-prediction is what makes a deterministic
        #: mispredict-rollback-replay livelock possible.
        self._resolved_branches: set = set()
        self._fetched = stats.counter("fetch.instructions")
        # Registered for result compatibility: fetch never stalls on a
        # mispredicted branch (see the module docstring), so it reads 0.
        stats.counter("fetch.mispredict_stall_cycles")
        self._redirects = stats.counter("fetch.redirects")

    # -- status -----------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self.cursor.exhausted

    @property
    def resume_cycle(self) -> int:
        """Earliest cycle at which fetch can deliver again (may be past).

        Used by the event-driven kernel as the "front end wakes up"
        event when fetch is waiting out an I-cache miss or a redirect
        penalty.
        """
        return self._resume_cycle

    def can_fetch(self, cycle: int) -> bool:
        """True if the front end may fetch this cycle."""
        return not self.cursor.exhausted and cycle >= self._resume_cycle

    # -- fetching ------------------------------------------------------------------
    def fetch_block(self, cycle: int) -> List[FetchedInstruction]:
        """Fetch up to ``fetch_width`` instructions starting at ``cycle``.

        The block ends early at a taken branch (one redirect per cycle).
        Mispredicted branches do not stop fetch: the following correct-path
        instructions stand in for the wrong path until the branch resolves
        and the pipeline squashes them (see the module docstring).
        """
        block: List[FetchedInstruction] = []
        if not self.can_fetch(cycle):
            return block
        first = self.cursor.peek()
        if first is not None:
            icache_latency = self.hierarchy.inst_access(first.pc, cycle)
            if icache_latency > self.hierarchy.config.il1.latency:
                # An instruction-cache miss simply delays the next fetch.
                self._resume_cycle = cycle + icache_latency
        while len(block) < self.fetch_width:
            instr = self.cursor.peek()
            if instr is None:
                break
            trace_index = self.cursor.position
            self.cursor.fetch()
            self._fetched.value += 1
            # History *before* this instruction's own prediction: the
            # state a re-fetch after a checkpoint rollback must resume
            # under (otherwise the rolled-back wrong path leaves the
            # history register polluted and the same branch can
            # mispredict on every re-execution — a commit livelock).
            history = self.predictor.snapshot_history() if self._gshare else None
            mispredicted = False
            if instr.is_branch:
                mispredicted = self._handle_branch(instr, trace_index)
            block.append(FetchedInstruction(trace_index, instr, mispredicted, history))
            if instr.is_branch and instr.branch_taken:
                self._redirects.value += 1
                break
        return block

    def _handle_branch(self, instr: Instruction, trace_index: int) -> bool:
        """Predict one branch, train the tables; True if it mispredicted."""
        if self.config.perfect:
            return False
        if trace_index in self._resolved_branches:
            # This dynamic branch already resolved and caused a checkpoint
            # rollback; its re-fetch takes the known-correct path.  The
            # history register still sees the outcome (so younger
            # predictions stay consistent) but the tables are not trained
            # again — repeat training on the same dynamic branch is what
            # sustains counter oscillation.
            actual = instr.branch_taken
            if actual:
                self.btb.update(instr.pc, instr.branch_target or 0)
            self.predictor.record_outcome(actual, actual)
            if isinstance(self.predictor, GSharePredictor):
                self.predictor.warm(instr.pc, actual)
            return False
        history = None
        if isinstance(self.predictor, GSharePredictor):
            history = self.predictor.snapshot_history()
        predicted = self.predictor.predict(instr.pc)
        actual = instr.branch_taken
        target_known = True
        if actual:
            target_known = self.btb.lookup(instr.pc) is not None
            self.btb.update(instr.pc, instr.branch_target or 0)
        mispredicted = predicted != actual or (actual and not target_known)
        self.predictor.record_outcome(predicted, actual)
        if isinstance(self.predictor, GSharePredictor):
            self.predictor.update(instr.pc, actual, history)
            if mispredicted:
                self.predictor.correct_history(history, actual)
        else:
            self.predictor.update(instr.pc, actual)
        return mispredicted

    # -- redirects ---------------------------------------------------------------------------
    def redirect(self, trace_index: int, resume_cycle: int) -> None:
        """Rewind fetch to ``trace_index`` and restart at ``resume_cycle``.

        Used both for misprediction recovery (resume right after the
        resolved branch) and for checkpoint rollback (resume at the
        checkpointed instruction).
        """
        self.cursor.rewind_to(trace_index)
        self._resume_cycle = max(self._resume_cycle, resume_cycle)

    def note_resolved(self, trace_index: int) -> None:
        """Record that the dynamic branch at ``trace_index`` has resolved.

        Called on checkpoint rollback; every later fetch of this index
        predicts the (now architecturally known) outcome.
        """
        self._resolved_branches.add(trace_index)

    def repair_history(self, history: Optional[int]) -> None:
        """Restore the gshare history register after a checkpoint rollback.

        ``history`` is the fetch-time snapshot the checkpointed
        instruction was predicted under (``None`` for non-gshare front
        ends, where there is nothing to repair).
        """
        if self._gshare and history is not None:
            self.predictor.repair_history(history)
