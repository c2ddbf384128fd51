"""Tests for PerfReport (paper §1.5 metrics)."""

import pytest

from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind
from repro.metrics.patterns import CommPattern
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.report import PerfReport


def _make_recorder():
    rec = MetricsRecorder()
    rec.memory.declare("u", (100,), "float64")
    with rec.region("setup"):
        rec.charge_flops(FlopKind.ADD, 100)
        rec.charge_compute_time(0.1)
    with rec.region("main_loop", iterations=10):
        rec.charge_flops(FlopKind.MUL, 900)
        rec.charge_compute_time(0.9)
        for _ in range(20):
            rec.charge_comm(
                CommPattern.CSHIFT,
                bytes_network=64,
                busy_time=0.01,
                idle_time=0.005,
            )
    return rec


class TestPerfReport:
    def test_from_recorder_totals(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        assert rep.flop_count == 1000
        assert rep.memory_bytes == 800
        assert rep.iterations == 10  # from the main_loop region
        assert rep.busy_time == pytest.approx(0.1 + 0.9 + 0.2)
        assert rep.elapsed_time == pytest.approx(rep.busy_time + 0.1)

    def test_floprates(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        assert rep.busy_floprate_mflops == pytest.approx(
            rep.flop_count / rep.busy_time / 1e6
        )
        assert rep.elapsed_floprate_mflops < rep.busy_floprate_mflops

    def test_arithmetic_efficiency(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
            peak_mflops=100.0,
        )
        eff = rep.arithmetic_efficiency
        assert eff == pytest.approx(rep.busy_floprate_mflops / 100.0)

    def test_efficiency_none_without_peak(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        assert rep.arithmetic_efficiency is None

    def test_ops_per_point(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        assert rep.ops_per_point == pytest.approx(10.0)

    def test_comm_per_iteration_uses_main_loop(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        assert rep.comm_per_iteration()[CommPattern.CSHIFT] == pytest.approx(2.0)

    def test_segments_present(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        names = [s.name for s in rep.segments]
        assert names == ["setup", "main_loop"]
        seg = rep.segment("main_loop")
        assert seg.flop_count == 900
        assert seg.iterations == 10

    def test_missing_segment_raises(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
        )
        with pytest.raises(KeyError):
            rep.segment("nope")

    def test_summary_mentions_key_metrics(self):
        rep = PerfReport.from_recorder(
            "demo", "basic", _make_recorder(),
            problem_size=100, local_access=LocalAccess.DIRECT,
            peak_mflops=50.0,
        )
        text = rep.summary()
        assert "busy time" in text
        assert "elapsed floprate" in text
        assert "cshift" in text
        assert "arith. eff." in text
        assert "segment main_loop" in text

    def test_zero_time_rates_are_zero(self):
        rec = MetricsRecorder()
        rep = PerfReport.from_recorder(
            "empty", "basic", rec, problem_size=1,
            local_access=LocalAccess.NA,
        )
        assert rep.busy_floprate_mflops == 0.0
        assert rep.elapsed_floprate_mflops == 0.0
