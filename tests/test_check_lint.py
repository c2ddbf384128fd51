"""repro.check linter: parse failures, baseline, driver, CLI plumbing.

The concurrency rules' own bad/good fixture pairs live in
``tests/test_check_concurrency.py``; these tests share one RC101
fixture to pin the baseline, output formats and ``--changed``
reporting.
"""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.check import (
    Baseline,
    Suppression,
    findings_to_json,
    format_findings,
    lint_paths,
    lint_source,
    load_baseline,
)
from repro.check.baseline import write_baseline
from repro.check.findings import summarize_codes


def codes(findings):
    return [f.code for f in findings]


#: An RC101 fixture (a blocking sleep inside a coroutine) shared by the
#: baseline, driver and --changed tests.
BAD = dedent(
    """\
    import time

    async def leaky():
        time.sleep(0.1)
    """
)

#: An RC000 fixture (a source that does not parse).
BROKEN = "def broken(:\n"


# ----------------------------------------------------------------------
# Parse failure
# ----------------------------------------------------------------------
def test_syntax_error_is_rc000():
    findings = lint_source(BROKEN, "oops.py")
    assert codes(findings) == ["RC000"]
    assert findings[0].path == "oops.py"
    assert "parse" in findings[0].message


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_exact_suppression(self):
        findings = lint_source(BAD, "fix.py")
        baseline = Baseline(
            suppressions=[
                Suppression("RC101", "fix.py", "leaky", "known, tracked")
            ]
        )
        result = baseline.apply(findings)
        assert result.ok
        assert codes(result.suppressed) == ["RC101"]
        assert result.unused_suppressions == []

    def test_wrong_symbol_does_not_suppress(self):
        findings = lint_source(BAD, "fix.py")
        baseline = Baseline(
            suppressions=[Suppression("RC101", "fix.py", "other", "reason")]
        )
        result = baseline.apply(findings)
        assert not result.ok
        assert result.unused_suppressions == ["RC101:fix.py:other"]

    def test_path_wildcard(self):
        findings = lint_source(BAD, "src/repro/apps/fix.py")
        baseline = Baseline(
            suppressions=[
                Suppression("RC101", "src/repro/apps/*", "*", "bulk adopt")
            ]
        )
        assert baseline.apply(findings).ok

    def test_load_rejects_missing_reason(self, tmp_path):
        p = tmp_path / ".repro-check.toml"
        p.write_text(
            '[[suppression]]\ncode = "RC101"\npath = "a.py"\n'
            'symbol = "f"\n'
        )
        with pytest.raises(ValueError, match="reason"):
            load_baseline(p)

    def test_load_absent_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "missing.toml")
        assert baseline.suppressions == []

    def test_write_then_load_roundtrip(self, tmp_path):
        findings = lint_source(BAD, "fix.py")
        p = tmp_path / "baseline.toml"
        write_baseline(findings, p)
        loaded = load_baseline(p)
        assert [s.code for s in loaded.suppressions] == ["RC101"]
        assert loaded.apply(findings).ok


# ----------------------------------------------------------------------
# Driver / output formats
# ----------------------------------------------------------------------
class TestDriver:
    def test_lint_paths_reports_relative(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(BAD)
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text(BAD)
        result = lint_paths(
            [pkg], baseline=Baseline(suppressions=[]), root=tmp_path
        )
        assert codes(result.active) == ["RC101"]
        assert result.active[0].path == "pkg/bad.py"

    def test_format_and_json(self):
        findings = lint_source(BAD, "fix.py")
        result = Baseline(suppressions=[]).apply(findings)
        text = format_findings(result)
        assert "fix.py:4" in text
        assert "1 finding(s), 0 suppressed, 0 stale suppression(s)" in text
        payload = findings_to_json(result)
        assert '"RC101"' in payload
        assert '"ok": false' in payload

    def test_summarize_codes(self):
        findings = lint_source(BAD, "a.py") + lint_source(BROKEN, "b.py")
        assert summarize_codes(findings) == {"RC000": 1, "RC101": 1}


# ----------------------------------------------------------------------
# The repo itself stays clean (the acceptance bar for this tool)
# ----------------------------------------------------------------------
def test_repo_sources_are_clean():
    root = Path(__file__).resolve().parents[1]
    result = lint_paths(
        [root / "src" / "repro"],
        baseline_path=root / ".repro-check.toml",
        root=root,
    )
    assert result.ok, format_findings(result)
    assert result.unused_suppressions == []


# ----------------------------------------------------------------------
# --changed: partial reporting over the full graph
# ----------------------------------------------------------------------
class TestChangedReporting:
    def test_report_paths_filters_after_baseline(self, tmp_path):
        (tmp_path / "a.py").write_text(BAD)
        (tmp_path / "b.py").write_text(BAD)
        baseline = Baseline(suppressions=[
            Suppression(
                code="RC101", path="a.py", symbol="leaky",
                reason="known",
            ),
            Suppression(
                code="RC101", path="gone.py", symbol="x",
                reason="stale",
            ),
        ])
        full = lint_paths([tmp_path], baseline=baseline, root=tmp_path)
        assert [f.path for f in full.active] == ["b.py"]
        assert len(full.unused_suppressions) == 1

        partial = lint_paths(
            [tmp_path], baseline=baseline, root=tmp_path,
            report_paths=["b.py"],
        )
        assert [f.path for f in partial.active] == ["b.py"]
        assert partial.suppressed == []
        # a partial report never judges baseline staleness
        assert partial.unused_suppressions == []

    def test_changed_file_outside_findings_reports_clean(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD)
        (tmp_path / "clean.py").write_text("def ok():\n    pass\n")
        partial = lint_paths(
            [tmp_path], baseline=Baseline(suppressions=[]),
            root=tmp_path, report_paths=["clean.py"],
        )
        assert partial.ok
        assert partial.active == []

    def test_graph_spans_beyond_report_scope(self, tmp_path):
        # the finding in changed.py only exists because the full graph
        # saw helper.py: --changed must not shrink the analysis scope
        (tmp_path / "helper.py").write_text(dedent(
            """\
            import time

            def flush():
                time.sleep(0.1)
            """
        ))
        (tmp_path / "changed.py").write_text(dedent(
            """\
            from helper import flush

            async def handler():
                flush()
            """
        ))
        partial = lint_paths(
            [tmp_path], baseline=Baseline(suppressions=[]),
            root=tmp_path, report_paths=["changed.py"],
        )
        assert codes(partial.active) == ["RC101"]
        assert partial.active[0].path == "changed.py"
