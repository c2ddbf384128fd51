"""repro.check linter: per-rule fixtures, baseline, CLI plumbing.

Each rule gets a known-bad fixture (asserting the exact finding code,
symbol, and location) and a known-good twin that differs only in the
session discipline, so the tests pin both the detection and the
false-positive boundary.
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


#: An RC004 fixture (a session reused across loop trips) shared by the
#: baseline, driver and --changed tests.
BAD = dedent(
    """\
    def leaky(names, session):
        out = []
        for name in names:
            out.append(run_benchmark(name, session))
        return out
    """
)

#: An RC006 fixture (an iteration span created but never entered).
DANGLING_SPAN = dedent(
    """\
    def run(session, steps):
        with session.region("main_loop", iterations=steps):
            for step in range(steps):
                session.iteration(step)
    """
)


# ----------------------------------------------------------------------
# RC004: session misuse
# ----------------------------------------------------------------------
class TestRC004:
    def test_session_reuse_across_runs(self):
        bad = dedent(
            """\
            def sweep(names, session):
                out = []
                for name in names:
                    out.append(run_benchmark(name, session))
                return out
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC004"]
        f = findings[0]
        assert f.symbol == "sweep"
        assert f.line == 4
        assert "'session'" in f.message
        assert "fresh session" in f.message

    def test_fresh_session_per_run_ok(self):
        good = dedent(
            """\
            def sweep(names, machine):
                out = []
                for name in names:
                    session = open_session(machine)
                    out.append(run_benchmark(name, session))
                return out
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_region_outside_with(self):
        bad = dedent(
            """\
            def timed(session):
                session.region("main")
                return session
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC004"]
        assert "'with'" in findings[0].message
        assert findings[0].line == 2

    def test_region_as_context_manager_ok(self):
        good = dedent(
            """\
            def timed(session):
                with session.region("main"):
                    pass
            """
        )
        assert lint_source(good, "fix.py") == []


# ----------------------------------------------------------------------
# RC006: dangling observability spans
# ----------------------------------------------------------------------
class TestRC006:
    def test_iteration_outside_with(self):
        bad = dedent(
            """\
            def run(session, steps):
                with session.region("main_loop", iterations=steps):
                    for step in range(steps):
                        session.iteration(step)
                        session.charge_elementwise(100)
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC006"]
        f = findings[0]
        assert f.symbol == "run"
        assert f.line == 4
        assert "'with'" in f.message
        assert "iteration" in f.message

    def test_iteration_as_context_manager_ok(self):
        good = dedent(
            """\
            def run(session, steps):
                with session.region("main_loop", iterations=steps):
                    for step in range(steps):
                        with session.iteration(step):
                            session.charge_elementwise(100)
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_returned_span_is_passthrough(self):
        # Session.iteration itself forwards the collector's context
        # manager; the caller enters it.
        good = dedent(
            """\
            def iteration(self, index):
                obs = self.recorder.observer
                if obs is None:
                    return _NULL_SPAN
                return obs.iteration(index)
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_with_iteration_outside_region_in_region_function(self):
        bad = dedent(
            """\
            def run(session, steps):
                for step in range(steps):
                    with session.iteration(step):
                        session.charge_elementwise(100)
                with session.region("main_loop", iterations=steps):
                    session.charge_elementwise(100)
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC006"]
        f = findings[0]
        assert f.symbol == "run"
        assert f.line == 3
        assert "region" in f.message

    def test_helper_without_regions_exempt(self):
        # A per-stage helper invoked under the caller's region (like
        # the FFT axis sweep) owns no region and is not flagged.
        good = dedent(
            """\
            def _sweep_axis(session, stages):
                for s in range(stages):
                    with session.iteration(s):
                        session.charge_elementwise(100)
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_iteration_inside_region_ok(self):
        good = dedent(
            """\
            def run(session, steps):
                with session.region("main_loop", iterations=steps):
                    for step in range(steps):
                        with session.iteration(step):
                            session.charge_elementwise(100)
                with session.region("tail", iterations=1):
                    session.charge_elementwise(10)
            """
        )
        assert lint_source(good, "fix.py") == []


# ----------------------------------------------------------------------
# Parse failure
# ----------------------------------------------------------------------
def test_syntax_error_is_rc000():
    findings = lint_source("def broken(:\n", "oops.py")
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
                Suppression("RC004", "fix.py", "leaky", "known, tracked")
            ]
        )
        result = baseline.apply(findings)
        assert result.ok
        assert codes(result.suppressed) == ["RC004"]
        assert result.unused_suppressions == []

    def test_wrong_symbol_does_not_suppress(self):
        findings = lint_source(BAD, "fix.py")
        baseline = Baseline(
            suppressions=[Suppression("RC004", "fix.py", "other", "reason")]
        )
        result = baseline.apply(findings)
        assert not result.ok
        assert result.unused_suppressions == ["RC004:fix.py:other"]

    def test_path_wildcard(self):
        findings = lint_source(BAD, "src/repro/apps/fix.py")
        baseline = Baseline(
            suppressions=[
                Suppression("RC004", "src/repro/apps/*", "*", "bulk adopt")
            ]
        )
        assert baseline.apply(findings).ok

    def test_load_rejects_missing_reason(self, tmp_path):
        p = tmp_path / ".repro-check.toml"
        p.write_text(
            '[[suppression]]\ncode = "RC004"\npath = "a.py"\n'
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
        assert [s.code for s in loaded.suppressions] == ["RC004"]
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
        assert codes(result.active) == ["RC004"]
        assert result.active[0].path == "pkg/bad.py"

    def test_format_and_json(self):
        findings = lint_source(BAD, "fix.py")
        result = Baseline(suppressions=[]).apply(findings)
        text = format_findings(result)
        assert "fix.py:4" in text
        assert "1 finding(s), 0 suppressed, 0 stale suppression(s)" in text
        payload = findings_to_json(result)
        assert '"RC004"' in payload
        assert '"ok": false' in payload

    def test_summarize_codes(self):
        findings = lint_source(BAD, "a.py") + lint_source(
            DANGLING_SPAN, "b.py"
        )
        assert summarize_codes(findings) == {"RC004": 1, "RC006": 1}


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
                code="RC004", path="a.py", symbol="leaky",
                reason="known",
            ),
            Suppression(
                code="RC004", path="gone.py", symbol="x",
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
