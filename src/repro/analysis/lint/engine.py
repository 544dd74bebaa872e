"""The lint engine: collect files, parse once, run every registered rule.

Deterministic by construction — files are discovered in sorted order,
findings are sorted by ``(file, line, rule, symbol)``, and JSON output
uses that same order — so two runs over the same tree produce
byte-identical reports (the analyzer holds itself to the standard it
enforces).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .baseline import (
    apply_baseline,
    load_baseline,
    suppression_reason_findings,
)
from .context import ModuleContext, parse_module
from .findings import ERROR, Finding, LintReport
from .rules import RULES, ProjectRule

# Import for side effect: each module registers its rules on import.
from . import cachekey as _cachekey  # noqa: F401
from . import determinism as _determinism  # noqa: F401
from . import fingerprints as _fingerprints  # noqa: F401
from . import hotpath as _hotpath  # noqa: F401
from . import probes as _probes  # noqa: F401
from . import robustness as _robustness  # noqa: F401

from .fingerprints import update_fingerprints as _update_fingerprints

#: Emitted by the engine itself when a file cannot be parsed.
PARSE_ERROR = "RPR000"

#: Default baseline location relative to the linted root.
BASELINE_REL = "analysis/lint_baseline.json"


def default_root() -> Path:
    """The installed ``repro`` package directory (the self-hosting target)."""
    return Path(__file__).resolve().parent.parent.parent


def collect_files(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root`` (or just ``root`` if it is a file)."""
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


class LintEngine:
    """One lint run over one root directory."""

    def __init__(
        self,
        root: Optional[Path] = None,
        baseline_path: Optional[Path] = None,
    ) -> None:
        self.root = (root or default_root()).resolve()
        if baseline_path is not None:
            self.baseline_path = baseline_path
        else:
            self.baseline_path = self.root / BASELINE_REL
        self._ctxs: Optional[List[ModuleContext]] = None
        self._parse_findings: List[Finding] = []

    # -- parsing ------------------------------------------------------------

    def contexts(self) -> List[ModuleContext]:
        if self._ctxs is not None:
            return self._ctxs
        base = self.root if self.root.is_dir() else self.root.parent
        ctxs: List[ModuleContext] = []
        for path in collect_files(self.root):
            rel = path.relative_to(base).as_posix()
            try:
                ctxs.append(parse_module(path, rel))
            except SyntaxError as exc:
                self._parse_findings.append(
                    Finding(
                        rule=PARSE_ERROR,
                        file=rel,
                        line=exc.lineno or 0,
                        symbol="<module>",
                        message=f"file does not parse: {exc.msg}",
                        severity=ERROR,
                    )
                )
        self._ctxs = ctxs
        return ctxs

    # -- the run ------------------------------------------------------------

    def run(self) -> LintReport:
        ctxs = self.contexts()
        raw: List[Finding] = list(self._parse_findings)
        for rule in RULES:
            for ctx in ctxs:
                raw.extend(rule.check(ctx))
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(ctxs, self.root))

        # Inline suppressions (line-anchored, reason mandatory).
        by_rel = {ctx.rel: ctx for ctx in ctxs}
        survivors: List[Finding] = []
        suppressed = 0
        for finding in raw:
            ctx = by_rel.get(finding.file)
            if ctx is not None and finding.rule in ctx.suppressed_rules_at(finding.line):
                suppressed += 1
            else:
                survivors.append(finding)
        survivors.extend(suppression_reason_findings(ctxs))

        # Committed baseline (symbol-anchored, reason mandatory, stale = error).
        entries = load_baseline(self.baseline_path)
        baseline_rel = self._baseline_rel()
        survivors, baselined = apply_baseline(survivors, entries, baseline_rel)

        survivors.sort(key=lambda finding: finding.sort_key())
        return LintReport(
            findings=survivors,
            files_checked=len(ctxs),
            rules_run=len(RULES),
            suppressed=suppressed,
            baselined=baselined,
        )

    def _baseline_rel(self) -> str:
        try:
            base = self.root if self.root.is_dir() else self.root.parent
            return self.baseline_path.resolve().relative_to(base).as_posix()
        except ValueError:
            return self.baseline_path.name

    # -- fingerprint maintenance ---------------------------------------------

    def update_fingerprints(
        self, allow_same_version: bool = False
    ) -> Tuple[Path, List[str]]:
        return _update_fingerprints(
            self.root, self.contexts(), allow_same_version=allow_same_version
        )


def run_lint(
    root: Optional[Path] = None, baseline_path: Optional[Path] = None
) -> LintReport:
    """Functional entry point: lint ``root`` and return the report."""
    return LintEngine(root=root, baseline_path=baseline_path).run()
