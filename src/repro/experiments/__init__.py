"""The experiment harness: one module per figure of the paper's evaluation."""

from .ablation import run_checkpoint_policy_ablation
from .figure01 import run_figure01
from .figure07 import run_figure07
from .figure09 import run_figure09
from .figure10 import run_figure10
from .figure11 import run_figure11
from .figure12 import run_figure12
from .figure13 import run_figure13
from .figure14 import run_figure14
from .registry import EXPERIMENTS, available_experiments, run_experiment
from .runner import (
    DEFAULT_SCALE,
    ExperimentResult,
    suite_ipc,
    suite_metric,
    suite_traces,
)
from .sweep import (
    ResultCache,
    SweepCell,
    SweepEngine,
    SweepOutcome,
    SweepSpec,
    cell_cache_key,
    default_cache_dir,
)

__all__ = [
    "ResultCache",
    "SweepCell",
    "SweepEngine",
    "SweepOutcome",
    "SweepSpec",
    "cell_cache_key",
    "default_cache_dir",
    "run_checkpoint_policy_ablation",
    "run_figure01",
    "run_figure07",
    "run_figure09",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure13",
    "run_figure14",
    "EXPERIMENTS",
    "available_experiments",
    "run_experiment",
    "DEFAULT_SCALE",
    "ExperimentResult",
    "suite_ipc",
    "suite_metric",
    "suite_traces",
]
