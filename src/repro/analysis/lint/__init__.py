"""``repro.analysis.lint`` — the simulator-aware static-analysis engine.

Public surface::

    from repro.analysis.lint import run_lint, LintEngine, LintReport, Finding

    report = run_lint()           # lint the installed repro package
    report.ok                     # True when no findings survive
    report.to_dict()              # JSON-ready, deterministic order

Rule families (the catalog lives in docs/architecture.md):

* RPR000        parse error (engine-emitted)
* RPR001/002    baseline hygiene: stale entries, missing reasons
* RPR101-105    determinism: ambient random, wall clock, id() ordering,
                set-order materialization, environment reads
* RPR201        cache-key purity: config fields vs to_dict/cell_cache_key
* RPR202        semantic fingerprints vs repro.__version__
* RPR301/302    hot-path hygiene: __slots__, attrs outside __init__
* RPR401        probe contract: on_cycle without on_idle_cycles
"""

from .baseline import META_RULES, BaselineEntry, load_baseline
from .engine import BASELINE_REL, PARSE_ERROR, LintEngine, default_root, run_lint
from .findings import ERROR, WARNING, Finding, LintReport
from .fingerprints import (
    MANIFEST_REL,
    compute_fingerprints,
    module_fingerprint,
    read_static_version,
    update_fingerprints,
)
from .rules import RULES, ProjectRule, Rule, register, rule_catalog, rule_ids

__all__ = [
    "BASELINE_REL",
    "BaselineEntry",
    "ERROR",
    "Finding",
    "LintEngine",
    "LintReport",
    "MANIFEST_REL",
    "META_RULES",
    "PARSE_ERROR",
    "ProjectRule",
    "RULES",
    "Rule",
    "WARNING",
    "compute_fingerprints",
    "default_root",
    "load_baseline",
    "module_fingerprint",
    "read_static_version",
    "register",
    "rule_catalog",
    "rule_ids",
    "run_lint",
    "update_fingerprints",
]
