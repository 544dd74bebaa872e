"""Branch-predictor interface and the trivial static predictors."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..common.config import BranchConfig
from ..common.stats import StatsRegistry


class BranchPredictor(ABC):
    """Interface shared by all direction predictors.

    The pipeline calls :meth:`predict` at fetch time and :meth:`update`
    when the branch resolves.  Predictors are speculatively updated at
    prediction time only for their history register (as gshare does); the
    pattern tables are updated at resolution.
    """

    __slots__ = ("config", "stats", "_predictions", "_mispredictions")

    def __init__(self, config: BranchConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self._predictions = stats.counter("branch.predictions")
        self._mispredictions = stats.counter("branch.mispredictions")

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""

    def record_outcome(self, predicted: bool, actual: bool) -> None:
        """Book-keeping used by the pipeline; counts accuracy statistics."""
        self._predictions.value += 1
        if predicted != actual:
            self._mispredictions.value += 1

    def warm(self, pc: int, taken: bool) -> None:
        """Train on one fast-forwarded branch without accuracy statistics.

        Used by the sampled-execution fast-forward engine.  The default
        trains the pattern table with the architectural outcome, which
        is exact for pc-indexed predictors (bimodal: the functional pass
        produces the same table a detailed run would) and a no-op for
        the static predictors.  History-based predictors override this —
        see ``GSharePredictor.warm`` for why gshare only advances its
        history register.
        """
        self.update(pc, taken)

    def warm_state(self):
        """Serializable warm state, or None for stateless predictors.

        Captures whatever :meth:`warm` evolves so sampled execution can
        snapshot/restore the predictor at window boundaries; accuracy
        statistics are deliberately excluded.
        """
        return None

    def load_warm_state(self, state) -> None:
        """Restore :meth:`warm_state` output (no-op for stateless predictors)."""

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that were correct so far."""
        total = self._predictions.value
        if not total:
            return 1.0
        return 1.0 - self._mispredictions.value / total


class StaticTakenPredictor(BranchPredictor):
    """Always predicts taken.  Loop branches love it; everything else does not."""

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        return None


class StaticNotTakenPredictor(BranchPredictor):
    """Always predicts not-taken."""

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        return None


class PerfectPredictor(BranchPredictor):
    """An oracle used for limit studies.

    The pipeline special-cases ``config.perfect`` and never reports a
    misprediction, so this class only has to return something sensible.
    """

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        return None


class BimodalPredictor(BranchPredictor):
    """A per-pc 2-bit saturating-counter predictor (no global history)."""

    __slots__ = ("_entries", "_counters")

    def __init__(self, config: BranchConfig, stats: StatsRegistry) -> None:
        super().__init__(config, stats)
        self._entries = config.history_entries
        self._counters = [2] * self._entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self._entries - 1)

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)

    def warm_state(self):
        return {"counters": list(self._counters)}

    def load_warm_state(self, state) -> None:
        counters = [int(value) for value in state["counters"]]
        if len(counters) != self._entries:
            raise ValueError(
                f"bimodal warm state has {len(counters)} counters, table holds {self._entries}"
            )
        self._counters = counters
