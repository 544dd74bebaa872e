"""Tests for the static-analysis subsystem (repro.analysis.lint).

Fixture trees under tests/analysis_fixtures/ mimic the src/repro package
layout (several rules scope by top-level package).  The `bad/` root
must trip every rule at the expected file; the `good/` root must lint
clean; the shipped package must self-host (lint clean through its
committed baseline and fingerprint manifest).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintEngine,
    module_fingerprint,
    run_lint,
    rule_ids,
    update_fingerprints,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def findings_by_rule(report):
    out = {}
    for finding in report.findings:
        out.setdefault(finding.rule, []).append(finding)
    return out


# ---------------------------------------------------------------------------
# Rule-by-rule fixtures
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    EXPECTED = {
        "RPR101": "workloads/uses_ambient_random.py",
        "RPR102": "core/uses_wallclock.py",
        "RPR103": "core/uses_id_order.py",
        "RPR104": "core/uses_set_order.py",
        "RPR105": "core/uses_env.py",
        "RPR201": "common/config.py",
        "RPR301": "core/missing_slots.py",
        "RPR302": "core/missing_slots.py",
        "RPR401": "core/lazy_probe.py",
        "RPR601": "experiments/fragile_io.py",
        "RPR602": "experiments/fragile_io.py",
    }

    @pytest.fixture(scope="class")
    def bad_report(self):
        return run_lint(BAD)

    def test_bad_root_is_dirty(self, bad_report):
        assert not bad_report.ok

    @pytest.mark.parametrize("rule", sorted(EXPECTED))
    def test_rule_fires_at_expected_file(self, bad_report, rule):
        by_rule = findings_by_rule(bad_report)
        assert rule in by_rule, f"{rule} produced no findings on the bad tree"
        files = {finding.file for finding in by_rule[rule]}
        assert self.EXPECTED[rule] in files

    def test_no_unexpected_rules_fire(self, bad_report):
        fired = set(findings_by_rule(bad_report))
        assert fired == set(self.EXPECTED)

    def test_finding_counts(self, bad_report):
        by_rule = findings_by_rule(bad_report)
        # uses_ambient_random: seed() + random() calls plus the bare import.
        assert len(by_rule["RPR101"]) == 3
        # uses_wallclock: time.time, perf_counter, datetime.now.
        assert len(by_rule["RPR102"]) == 3
        # uses_set_order: list() call + list comprehension.
        assert len(by_rule["RPR104"]) == 2

    def test_good_root_is_clean(self):
        report = run_lint(GOOD)
        assert report.ok, [finding.format() for finding in report.findings]

    def test_findings_carry_location_and_symbol(self, bad_report):
        for finding in bad_report.findings:
            assert finding.rule in rule_ids()
            assert finding.file and finding.line > 0
            assert finding.symbol
            assert finding.format().startswith(f"{finding.file}:{finding.line}:")


# ---------------------------------------------------------------------------
# Determinism of the analyzer itself
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run_lint(BAD).to_dict()
        second = run_lint(BAD).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_findings_sorted(self):
        report = run_lint(BAD)
        keys = [finding.sort_key() for finding in report.findings]
        assert keys == sorted(keys)

    def test_json_shape(self):
        payload = run_lint(BAD).to_dict()
        assert set(payload) == {
            "ok",
            "files_checked",
            "rules_run",
            "suppressed",
            "baselined",
            "findings",
        }
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "severity", "file", "line", "symbol", "message"}


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------


def write_tree(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


ID_ORDER_SNIPPET = "def key(inst):\n    return id(inst)\n"


class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/mod.py": (
                    "def key(inst):\n"
                    "    # lint: ignore[RPR103] structural identity only, never ordered\n"
                    "    return id(inst)\n"
                )
            },
        )
        report = run_lint(tmp_path)
        assert report.ok
        assert report.suppressed == 1

    def test_inline_suppression_same_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/mod.py": (
                    "def key(inst):\n"
                    "    return id(inst)  # lint: ignore[RPR103] identity only\n"
                )
            },
        )
        report = run_lint(tmp_path)
        assert report.ok and report.suppressed == 1

    def test_suppression_without_reason_is_error(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/mod.py": (
                    "def key(inst):\n"
                    "    return id(inst)  # lint: ignore[RPR103]\n"
                )
            },
        )
        report = run_lint(tmp_path)
        assert [finding.rule for finding in report.findings] == ["RPR002"]

    def test_suppression_only_covers_named_rule(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/mod.py": (
                    "def key(inst):\n"
                    "    return id(inst)  # lint: ignore[RPR104] wrong rule named\n"
                )
            },
        )
        report = run_lint(tmp_path)
        assert "RPR103" in {finding.rule for finding in report.findings}


# ---------------------------------------------------------------------------
# Baseline add / expire
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_baselined_finding_passes(self, tmp_path):
        write_tree(tmp_path, {"core/mod.py": ID_ORDER_SNIPPET})
        baseline = tmp_path / "analysis" / "lint_baseline.json"
        baseline.parent.mkdir()
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RPR103",
                            "file": "core/mod.py",
                            "symbol": "key",
                            "reason": "structural identity, never ordered",
                        }
                    ]
                }
            )
        )
        report = run_lint(tmp_path)
        assert report.ok and report.baselined == 1

    def test_baseline_survives_line_moves(self, tmp_path):
        write_tree(
            tmp_path,
            {"core/mod.py": "# a new leading comment\n\n\n" + ID_ORDER_SNIPPET},
        )
        baseline = tmp_path / "analysis" / "lint_baseline.json"
        baseline.parent.mkdir()
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RPR103",
                            "file": "core/mod.py",
                            "symbol": "key",
                            "reason": "matching is symbol-based",
                        }
                    ]
                }
            )
        )
        assert run_lint(tmp_path).ok

    def test_stale_entry_is_error(self, tmp_path):
        write_tree(tmp_path, {"core/mod.py": "X = 1\n"})
        baseline = tmp_path / "analysis" / "lint_baseline.json"
        baseline.parent.mkdir()
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RPR103",
                            "file": "core/mod.py",
                            "symbol": "key",
                            "reason": "the finding this covered is gone",
                        }
                    ]
                }
            )
        )
        report = run_lint(tmp_path)
        assert [finding.rule for finding in report.findings] == ["RPR001"]

    def test_entry_without_reason_is_error(self, tmp_path):
        write_tree(tmp_path, {"core/mod.py": ID_ORDER_SNIPPET})
        baseline = tmp_path / "analysis" / "lint_baseline.json"
        baseline.parent.mkdir()
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RPR103",
                            "file": "core/mod.py",
                            "symbol": "key",
                            "reason": "",
                        }
                    ]
                }
            )
        )
        report = run_lint(tmp_path)
        assert [finding.rule for finding in report.findings] == ["RPR002"]
        assert report.baselined == 1  # still matched, but flagged


# ---------------------------------------------------------------------------
# Semantic fingerprints (RPR202)
# ---------------------------------------------------------------------------


def fingerprint_tree(tmp_path, version="1.0.0", body="def step(x):\n    return x + 1\n"):
    return write_tree(
        tmp_path,
        {
            "__init__.py": f'__version__ = "{version}"\n',
            "core/mod.py": body,
        },
    )


class TestFingerprints:
    def test_missing_manifest_flagged(self, tmp_path):
        fingerprint_tree(tmp_path)
        report = run_lint(tmp_path)
        assert "RPR202" in {finding.rule for finding in report.findings}

    def test_update_then_clean(self, tmp_path):
        fingerprint_tree(tmp_path)
        engine = LintEngine(root=tmp_path)
        engine.update_fingerprints()
        assert run_lint(tmp_path).ok

    def test_semantic_change_without_bump_fails(self, tmp_path):
        fingerprint_tree(tmp_path)
        LintEngine(root=tmp_path).update_fingerprints()
        (tmp_path / "core/mod.py").write_text("def step(x):\n    return x + 2\n")
        report = run_lint(tmp_path)
        flagged = [f for f in report.findings if f.rule == "RPR202"]
        assert flagged and flagged[0].file == "core/mod.py"

    def test_docstring_only_change_stays_clean(self, tmp_path):
        fingerprint_tree(tmp_path)
        LintEngine(root=tmp_path).update_fingerprints()
        (tmp_path / "core/mod.py").write_text(
            'def step(x):\n    """Docstrings are stripped before hashing."""\n    return x + 1\n'
        )
        assert run_lint(tmp_path).ok

    def test_bump_then_restamp_flow(self, tmp_path):
        fingerprint_tree(tmp_path)
        LintEngine(root=tmp_path).update_fingerprints()
        (tmp_path / "core/mod.py").write_text("def step(x):\n    return x * 3\n")
        (tmp_path / "__init__.py").write_text('__version__ = "1.1.0"\n')
        # Stale manifest version is itself a finding...
        assert not run_lint(tmp_path).ok
        # ...and re-stamping at the bumped version is permitted and heals it.
        update_fingerprints(tmp_path, LintEngine(root=tmp_path).contexts())
        assert run_lint(tmp_path).ok

    def test_restamp_refused_at_same_version(self, tmp_path):
        fingerprint_tree(tmp_path)
        LintEngine(root=tmp_path).update_fingerprints()
        (tmp_path / "core/mod.py").write_text("def step(x):\n    return x - 1\n")
        with pytest.raises(ValueError, match="refusing to re-stamp"):
            LintEngine(root=tmp_path).update_fingerprints()
        # The escape hatch for provably result-identical refactors.
        LintEngine(root=tmp_path).update_fingerprints(allow_same_version=True)
        assert run_lint(tmp_path).ok

    def test_new_module_flagged(self, tmp_path):
        fingerprint_tree(tmp_path)
        LintEngine(root=tmp_path).update_fingerprints()
        (tmp_path / "core/extra.py").write_text("def other():\n    return 0\n")
        flagged = [f for f in run_lint(tmp_path).findings if f.rule == "RPR202"]
        assert flagged and flagged[0].file == "core/extra.py"

    def test_fingerprint_ignores_formatting(self):
        assert module_fingerprint("x=1\n") == module_fingerprint("x = 1  # comment\n")
        assert module_fingerprint("x = 1\n") != module_fingerprint("x = 2\n")


# ---------------------------------------------------------------------------
# Cache-key purity cross-check (RPR201, project half)
# ---------------------------------------------------------------------------


SWEEP_TEMPLATE = """
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SweepSpec:
    name: str
    configs: List[object]
    scale: float = 1.0
    suite: str = "default"
    workloads: Optional[List[str]] = None
{extra_field}

def cell_cache_key(config, suite, workload, scale, simulator_version="v", sampling=None):
    payload = {{
        "config": config.to_dict(),
        "suite": suite,
        "workload": workload,
        "scale": scale,
        "simulator_version": simulator_version,
    }}
    if sampling is not None:
        payload["sampling"] = sampling.to_dict()
    return str(sorted(payload.items()))
"""


class TestCacheKeyCrossCheck:
    def test_covered_spec_passes(self, tmp_path):
        write_tree(
            tmp_path,
            {"experiments/sweep.py": SWEEP_TEMPLATE.format(extra_field="")},
        )
        assert run_lint(tmp_path).ok

    def test_unhashed_spec_field_fails(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/sweep.py": SWEEP_TEMPLATE.format(
                    extra_field="    prefetch_degree: int = 0\n"
                )
            },
        )
        flagged = [f for f in run_lint(tmp_path).findings if f.rule == "RPR201"]
        assert flagged and flagged[0].symbol == "SweepSpec"
        assert "prefetch_degree" in flagged[0].message


# ---------------------------------------------------------------------------
# Self-hosting, run_lint, CLI
# ---------------------------------------------------------------------------


class TestSelfHostAndSurfaces:
    def test_repro_package_self_hosts(self):
        report = run_lint()
        assert report.ok, [finding.format() for finding in report.findings]
        assert report.files_checked > 50

    def test_api_lint(self):
        report = run_lint()
        assert report.ok
        report_bad = run_lint(BAD)
        assert not report_bad.ok

    def test_cli_exit_codes(self, capsys):
        assert cli_main(["lint"]) == 0
        assert cli_main(["lint", str(BAD)]) == 1
        assert cli_main(["lint", str(FIXTURES / "does-not-exist")]) == 2
        capsys.readouterr()

    def test_cli_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["lint", str(BAD), "--json", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["findings"]
        capsys.readouterr()

    def test_cli_json_stdout(self, capsys):
        assert cli_main(["lint", str(GOOD), "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_cli_update_fingerprints_refuses_same_version(self, tmp_path, capsys):
        fingerprint_tree(tmp_path)
        assert cli_main(["lint", str(tmp_path), "--update-fingerprints"]) == 0
        (tmp_path / "core/mod.py").write_text("def step(x):\n    return x - 7\n")
        assert cli_main(["lint", str(tmp_path), "--update-fingerprints"]) == 2
        assert (
            cli_main(
                [
                    "lint",
                    str(tmp_path),
                    "--update-fingerprints",
                    "--allow-same-version",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_shipped_manifest_matches_tree(self):
        """The committed fingerprints.json is in sync with the sources.

        If this fails you changed a simulator module: bump
        repro.__version__ and run `repro lint --update-fingerprints`
        (see docs/architecture.md, "Static analysis").
        """
        report = run_lint()
        assert not [f for f in report.findings if f.rule == "RPR202"]
