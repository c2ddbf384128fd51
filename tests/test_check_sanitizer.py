"""Runtime FLOP sanitizer: shadow-counting vs charged metrics.

The acceptance bar: `diff-1d`, `conj-grad`, `step4` and `n-body` show
zero over-execution — every FLOP the numpy payloads actually execute
inside a region is charged under the paper's conventions.  These tests
also pin the audit wrapper's non-interference: a benchmark run under
audit must report byte-identical metrics to a plain run.
"""

import json

import numpy as np
import pytest

from repro.check import AuditSession, audit_benchmark
from repro.cli import main
from repro.machine.presets import cm5
from repro.machine.session import Session
from repro.suite.runner import run_benchmark


# ----------------------------------------------------------------------
# Zero-discrepancy acceptance runs
# ----------------------------------------------------------------------
class TestZeroDiscrepancy:
    @pytest.mark.parametrize("name", ["diff-1d", "conj-grad", "step4"])
    def test_exact(self, name):
        report = audit_benchmark(name)
        assert report.charged_total > 0
        assert report.over_total == 0
        assert report.under_total == 0
        assert report.over_pct == 0.0
        assert report.under_pct == 0.0
        # fully observable math: the strict gate holds too
        assert report.ok(0.0, strict=True)

    def test_nbody_exact_with_declared_kernel(self):
        report = audit_benchmark("n-body")
        assert report.over_total == 0
        assert report.ok(0.0)
        # the interaction kernel is charged via charge_kernel on raw
        # arrays: covered as a declared kernel, not diffed elementwise
        assert report.kernel_total > 0

    def test_over_execution_fails_gate(self):
        report = audit_benchmark("diff-1d")
        # simulate an uncharged site by perturbing the first region
        region = report.regions[0]
        region.over += 100
        assert report.over_pct > 0.0
        assert not report.ok(0.0)


# ----------------------------------------------------------------------
# The audit wrapper does not change the metrics it audits
# ----------------------------------------------------------------------
def test_audit_is_metrics_invariant():
    plain = Session(cm5(32))
    run_benchmark("diff-1d", plain)

    audited = AuditSession(cm5(32))
    with audited.auditing():
        run_benchmark("diff-1d", audited)

    p, a = plain.recorder.root, audited.recorder.root
    assert a.total_flops == p.total_flops
    assert a.total_comm_count == p.total_comm_count
    assert a.network_bytes == p.network_bytes


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_benchmark("diff-1d")

    def test_table_lists_regions(self, report):
        text = report.table()
        assert "region" in text
        for region in report.regions:
            assert region.name in text

    def test_to_dict_is_json_ready(self, report):
        payload = json.dumps(report.to_dict())
        data = json.loads(payload)
        assert data["benchmark"] == "diff-1d"
        assert data["over_pct"] == 0.0
        assert len(data["regions"]) == len(report.regions)

    def test_movement_is_observed(self, report):
        # diff-1d's stencil shifts move payload data; the collector
        # sees the movement the recorder charged as CSHIFT comm
        assert any(r.movement_observed > 0 for r in report.regions)
        assert any(r.comm_recorded > 0 for r in report.regions)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    def test_check_lint_clean_tree_exits_zero(self, capsys):
        rc = main(["check", "lint", "src/repro/check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_check_lint_json_format(self, capsys):
        rc = main(["check", "lint", "src/repro/check", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] is True

    def test_check_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n"
        )
        rc = main(["check", "lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RC101" in out

    def test_check_audit_diff1d_exits_zero(self, capsys):
        rc = main(["check", "audit", "diff-1d", "--tolerance", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_check_audit_json(self, capsys):
        rc = main(["check", "audit", "diff-1d", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["over_pct"] == 0.0
        assert data["ok"] is True


# ----------------------------------------------------------------------
# Wrapper mechanics that keep benchmarks working under audit
# ----------------------------------------------------------------------
class TestWrapperMechanics:
    def test_out_identity_preserved(self):
        # an out= update into a preallocated buffer (rp's CGNR loop)
        # must hand back the caller's own array, as on a plain ndarray
        from repro.array.distarray import DistArray
        from repro.layout.spec import parse_layout

        session = AuditSession(cm5(8))
        with session.auditing():
            layout = parse_layout("(:)", (64,))
            x = DistArray(np.ones(64), layout, session, "x")
            buf = x.data
            result = np.multiply(buf, 2.0, out=buf)
            assert result is buf

    def test_np_window_is_exempt(self):
        # arithmetic through the .np verification window must not count
        session = AuditSession(cm5(8))
        with session.auditing():
            from repro.array.distarray import DistArray
            from repro.layout.spec import parse_layout

            with session.region("main"):
                layout = parse_layout("(:)", (64,))
                x = DistArray(np.ones(64), layout, session, "x")
                _ = np.sqrt(x.np) + 1.0  # exempt: not charged, not counted
        report = session.audit_report("synthetic")
        assert report.over_total == 0
