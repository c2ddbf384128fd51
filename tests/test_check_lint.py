"""repro.check linter: per-rule fixtures, baseline, CLI plumbing.

Each rule gets a known-bad fixture (asserting the exact finding code,
symbol, and location) and a known-good twin that differs only in the
charging discipline, so the tests pin both the detection and the
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


# ----------------------------------------------------------------------
# RC001: uncharged compute
# ----------------------------------------------------------------------
class TestRC001:
    BAD = dedent(
        """\
        import numpy as np

        def leaky(a, session):
            raw = a.data
            out = raw * 2.0 + raw
            return out
        """
    )

    def test_flags_payload_arithmetic(self):
        findings = lint_source(self.BAD, "fix.py")
        assert codes(findings) == ["RC001"]
        f = findings[0]
        assert f.symbol == "leaky"
        assert f.path == "fix.py"
        assert f.line == 5  # the first arithmetic site
        assert "2 site(s)" in f.message  # the ADD and the MUL
        assert "charge" in f.message

    def test_charging_silences(self):
        good = self.BAD.replace(
            "    return out",
            "    session.charge_elementwise(out.size)\n    return out",
        )
        assert lint_source(good, "fix.py") == []

    def test_library_wrapper_silences(self):
        good = dedent(
            """\
            def stepper(a, x):
                raw = x.data
                scaled = raw * 2.0
                return matvec(a, x)
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_reference_helpers_exempt(self):
        ref = dedent(
            """\
            def dslash_reference(a):
                raw = a.data
                return raw * 2.0 + raw
            """
        )
        assert lint_source(ref, "fix.py") == []

    def test_untainted_param_arithmetic_not_flagged(self):
        # plain-array helpers are charged by their callers
        neutral = dedent(
            """\
            def helper(arr):
                return arr * 2.0 + arr
            """
        )
        assert lint_source(neutral, "fix.py") == []


# ----------------------------------------------------------------------
# RC002: charge-kind mismatch
# ----------------------------------------------------------------------
class TestRC002:
    BAD = dedent(
        """\
        import numpy as np

        def solver(a, session):
            raw = a.data
            r = np.sqrt(raw)
            session.charge_elementwise(r.size)
            return r
        """
    )

    def test_flags_uncharged_sqrt(self):
        findings = lint_source(self.BAD, "fix.py")
        assert codes(findings) == ["RC002"]
        f = findings[0]
        assert f.symbol == "solver"
        assert f.line == 5
        assert "SQRT" in f.message
        assert "4x" in f.message

    def test_transcendental_reports_8x(self):
        bad = self.BAD.replace("np.sqrt", "np.exp")
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC002"]
        assert "EXP" in findings[0].message
        assert "8x" in findings[0].message

    def test_flopkind_mention_silences(self):
        good = self.BAD.replace(
            "session.charge_elementwise(r.size)",
            "session.charge_elementwise(r.size, kind=FlopKind.SQRT)",
        )
        assert lint_source(good, "fix.py") == []

    def test_preweighted_charge_silences(self):
        good = self.BAD.replace(
            "session.charge_elementwise(r.size)",
            "session.charge_kernel(606)",
        )
        assert lint_source(good, "fix.py") == []


# ----------------------------------------------------------------------
# RC003: comm without record
# ----------------------------------------------------------------------
class TestRC003:
    BAD = dedent(
        """\
        import numpy as np

        def shifter(u, session):
            raw = u.data
            halo = np.roll(raw, 1, axis=0)
            return halo
        """
    )

    def test_flags_unrecorded_roll(self):
        findings = lint_source(self.BAD, "fix.py")
        assert codes(findings) == ["RC003"]
        f = findings[0]
        assert f.symbol == "shifter"
        assert f.line == 5
        assert "np.roll" in f.message
        assert "record_comm" in f.message

    def test_record_comm_silences(self):
        good = self.BAD.replace(
            "    return halo",
            "    session.record_comm(pattern, bytes_network=8)\n"
            "    return halo",
        )
        assert lint_source(good, "fix.py") == []

    def test_collective_wrapper_silences(self):
        good = dedent(
            """\
            import numpy as np

            def shifter(u, session):
                raw = u.data
                halo = np.roll(raw, 1, axis=0)
                shifted = cshift(u, 1, axis=0)
                return halo, shifted
            """
        )
        assert lint_source(good, "fix.py") == []


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
    BAD = TestRC001.BAD

    def test_exact_suppression(self):
        findings = lint_source(self.BAD, "fix.py")
        baseline = Baseline(
            suppressions=[
                Suppression("RC001", "fix.py", "leaky", "known, tracked")
            ]
        )
        result = baseline.apply(findings)
        assert result.ok
        assert codes(result.suppressed) == ["RC001"]
        assert result.unused_suppressions == []

    def test_wrong_symbol_does_not_suppress(self):
        findings = lint_source(self.BAD, "fix.py")
        baseline = Baseline(
            suppressions=[Suppression("RC001", "fix.py", "other", "reason")]
        )
        result = baseline.apply(findings)
        assert not result.ok
        assert result.unused_suppressions == ["RC001:fix.py:other"]

    def test_path_wildcard(self):
        findings = lint_source(self.BAD, "src/repro/apps/fix.py")
        baseline = Baseline(
            suppressions=[
                Suppression("RC001", "src/repro/apps/*", "*", "bulk adopt")
            ]
        )
        assert baseline.apply(findings).ok

    def test_load_rejects_missing_reason(self, tmp_path):
        p = tmp_path / ".repro-check.toml"
        p.write_text(
            '[[suppression]]\ncode = "RC001"\npath = "a.py"\n'
            'symbol = "f"\n'
        )
        with pytest.raises(ValueError, match="reason"):
            load_baseline(p)

    def test_load_absent_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "missing.toml")
        assert baseline.suppressions == []

    def test_write_then_load_roundtrip(self, tmp_path):
        findings = lint_source(self.BAD, "fix.py")
        p = tmp_path / "baseline.toml"
        write_baseline(findings, p)
        loaded = load_baseline(p)
        assert [s.code for s in loaded.suppressions] == ["RC001"]
        assert loaded.apply(findings).ok


# ----------------------------------------------------------------------
# Driver / output formats
# ----------------------------------------------------------------------
class TestDriver:
    def test_lint_paths_reports_relative(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(TestRC001.BAD)
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text(TestRC001.BAD)
        result = lint_paths(
            [pkg], baseline=Baseline(suppressions=[]), root=tmp_path
        )
        assert codes(result.active) == ["RC001"]
        assert result.active[0].path == "pkg/bad.py"

    def test_format_and_json(self):
        findings = lint_source(TestRC001.BAD, "fix.py")
        result = Baseline(suppressions=[]).apply(findings)
        text = format_findings(result)
        assert "fix.py:5" in text
        assert "1 finding(s), 0 suppressed, 0 stale suppression(s)" in text
        payload = findings_to_json(result)
        assert '"RC001"' in payload
        assert '"ok": false' in payload

    def test_summarize_codes(self):
        findings = lint_source(TestRC001.BAD, "a.py") + lint_source(
            TestRC002.BAD, "b.py"
        )
        assert summarize_codes(findings) == {"RC001": 1, "RC002": 1}


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
# RC003 movement vocabulary: concatenate and fast_roll
# ----------------------------------------------------------------------
class TestRC003Movement:
    def test_concatenate_of_payload_slices_flagged(self):
        # fast_roll's expansion: a circular shift spelled as two
        # slices + concatenate is still data movement
        bad = dedent(
            """\
            import numpy as np

            def drift(state, session):
                raw = state.data
                shifted = np.concatenate((raw[1:], raw[:1]))
                return shifted
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC003"]
        assert findings[0].symbol == "drift"
        assert findings[0].line == 5

    def test_concatenate_with_record_ok(self):
        good = dedent(
            """\
            import numpy as np

            def drift(state, session):
                raw = state.data
                shifted = np.concatenate((raw[1:], raw[:1]))
                session.record_comm(pattern, bytes_network=8)
                return shifted
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_fast_roll_of_payload_flagged(self):
        bad = dedent(
            """\
            from repro.array.roll import fast_roll

            def drift(state, session):
                raw = state.data
                return fast_roll(raw, 1)
            """
        )
        findings = lint_source(bad, "fix.py")
        assert codes(findings) == ["RC003"]
        assert "fast_roll" in findings[0].message

    def test_fast_roll_with_record_ok(self):
        good = dedent(
            """\
            from repro.array.roll import fast_roll

            def drift(state, session):
                raw = state.data
                out = fast_roll(raw, 1)
                session.record_comm(pattern, bytes_network=8)
                return out
            """
        )
        assert lint_source(good, "fix.py") == []

    def test_untainted_concatenate_not_flagged(self):
        neutral = dedent(
            """\
            import numpy as np

            def pack(parts):
                return np.concatenate(parts)
            """
        )
        assert lint_source(neutral, "fix.py") == []


# ----------------------------------------------------------------------
# Interprocedural mode: taint flows through helpers
# ----------------------------------------------------------------------
class TestInterprocedural:
    HELPER_COMPUTES = dedent(
        """\
        def square(arr):
            return arr * arr

        def run(state, session):
            raw = state.data
            return square(raw)
        """
    )

    def test_uncharged_helper_charged_to_caller(self):
        flat = lint_source(self.HELPER_COMPUTES, "fix.py")
        assert flat == []  # per-function taint stops at the call
        deep = lint_source(
            self.HELPER_COMPUTES, "fix.py", interprocedural=True
        )
        assert codes(deep) == ["RC001"]
        f = deep[0]
        assert f.symbol == "run"
        assert f.line == 6  # the call site, not the helper body
        assert "square" in f.message

    def test_charging_helper_silences(self):
        good = dedent(
            """\
            def scale(arr, session):
                out = arr * 2.0
                session.charge_elementwise(out.size)
                return out

            def run(state, session):
                raw = state.data
                return scale(raw, session)
            """
        )
        assert lint_source(good, "fix.py", interprocedural=True) == []

    def test_callee_charge_extends_caller_scope(self):
        # the caller computes but a helper in the chain charges: the
        # per-function rule would flag it, the graph must not
        src = dedent(
            """\
            def commit(session, n):
                session.charge_elementwise(n)

            def run(state, session):
                raw = state.data
                out = raw * 2.0
                commit(session, out.size)
                return out
            """
        )
        assert codes(lint_source(src, "fix.py")) == ["RC001"]
        assert lint_source(src, "fix.py", interprocedural=True) == []

    def test_special_kind_propagates_as_rc002(self):
        src = dedent(
            """\
            import numpy as np

            def rms(arr):
                return np.sqrt(arr)

            def run(state, session):
                raw = state.data
                r = rms(raw)
                session.charge_elementwise(r.size)
                return r
            """
        )
        deep = lint_source(src, "fix.py", interprocedural=True)
        assert "RC002" in codes(deep)
        assert any("SQRT" in f.message for f in deep)

    def test_movement_helper_propagates_as_rc003(self):
        src = dedent(
            """\
            import numpy as np

            def rotate(arr):
                return np.roll(arr, 1)

            def run(state, session):
                raw = state.data
                session.charge_elementwise(raw.size)
                return rotate(raw)
            """
        )
        deep = lint_source(src, "fix.py", interprocedural=True)
        assert "RC003" in codes(deep)

    def test_recording_movement_helper_ok(self):
        src = dedent(
            """\
            import numpy as np

            def rotate(arr, session):
                out = np.roll(arr, 1)
                session.record_comm(pattern, bytes_network=8)
                return out

            def run(state, session):
                raw = state.data
                session.charge_elementwise(raw.size)
                return rotate(raw, session)
            """
        )
        assert lint_source(src, "fix.py", interprocedural=True) == []

    def test_reference_chain_stays_exempt(self):
        src = dedent(
            """\
            def square(arr):
                return arr * arr

            def reference_step(arr):
                return square(arr)

            def run(state, session):
                ref = reference_step(state.data)
                return ref
            """
        )
        assert lint_source(src, "fix.py", interprocedural=True) == []


# ----------------------------------------------------------------------
# --changed: partial reporting over the full graph
# ----------------------------------------------------------------------
class TestChangedReporting:
    def test_report_paths_filters_after_baseline(self, tmp_path):
        (tmp_path / "a.py").write_text(TestRC001.BAD)
        (tmp_path / "b.py").write_text(TestRC001.BAD)
        baseline = Baseline(suppressions=[
            Suppression(
                code="RC001", path="a.py", symbol="leaky",
                reason="known",
            ),
            Suppression(
                code="RC001", path="gone.py", symbol="x",
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
        (tmp_path / "bad.py").write_text(TestRC001.BAD)
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
            def square(arr):
                return arr * arr
            """
        ))
        (tmp_path / "changed.py").write_text(dedent(
            """\
            from helper import square

            def run(state, session):
                raw = state.data
                return square(raw)
            """
        ))
        partial = lint_paths(
            [tmp_path], baseline=Baseline(suppressions=[]),
            root=tmp_path, report_paths=["changed.py"],
        )
        assert codes(partial.active) == ["RC001"]
        assert partial.active[0].path == "changed.py"
