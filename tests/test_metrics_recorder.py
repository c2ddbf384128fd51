"""Tests for the hierarchical metrics recorder."""

import pytest

from repro.metrics.flops import FlopKind
from repro.metrics.patterns import CommPattern
from repro.metrics.recorder import MetricsRecorder, Region


def _comm(target, pattern=CommPattern.CSHIFT, busy=1.0, idle=0.5, net=100):
    """Account one collective on a Region or a MetricsRecorder."""
    charge = target.add_comm if isinstance(target, Region) else target.charge_comm
    return charge(pattern, bytes_network=net, busy_time=busy, idle_time=idle)


class TestRegion:
    def test_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            Region("r", 0)

    def test_busy_elapsed_aggregate_children(self):
        root = Region("root")
        child = Region("child")
        root.children.append(child)
        root.compute_busy = 1.0
        child.compute_busy = 2.0
        _comm(child, busy=0.5, idle=0.25)
        assert root.busy_time == pytest.approx(3.5)
        assert root.elapsed_time == pytest.approx(3.75)

    def test_comm_counts_inclusive(self):
        root = Region("root")
        child = Region("child")
        root.children.append(child)
        _comm(root, CommPattern.REDUCTION)
        _comm(child, CommPattern.CSHIFT)
        _comm(child, CommPattern.CSHIFT)
        counts = root.comm_counts()
        assert counts[CommPattern.REDUCTION] == 1
        assert counts[CommPattern.CSHIFT] == 2

    def test_comm_counts_per_iteration(self):
        r = Region("r", iterations=4)
        for _ in range(8):
            _comm(r)
        assert r.comm_counts_per_iteration()[CommPattern.CSHIFT] == 2.0

    def test_network_bytes(self):
        r = Region("r")
        _comm(r, net=30)
        _comm(r, net=70)
        assert r.network_bytes == 100

    def test_comm_busy_idle_running_sums(self):
        r = Region("r")
        for _ in range(3):
            _comm(r, busy=0.5, idle=0.25)
        assert r.comm_busy == pytest.approx(1.5)
        assert r.comm_idle == pytest.approx(0.75)
        assert r.comm_count == 3

    def test_fast_path_keeps_no_events(self):
        r = Region("r")
        _comm(r)
        assert r.comm_count == 1
        # Both per-event accessors raise, and the message names the
        # exact flags that would have retained the events.
        with pytest.raises(RuntimeError) as exc:
            r.comm_events
        assert "Session(detail_events=True)" in str(exc.value)
        assert "repro.sessions.trace_session" in str(exc.value)
        with pytest.raises(RuntimeError) as exc:
            r.total_comm_events
        assert "Session(detail_events=True)" in str(exc.value)
        assert "repro.sessions.trace_session" in str(exc.value)

    def test_fast_path_empty_region_events_are_benign(self):
        r = Region("r")
        assert r.comm_events == []
        assert r.total_comm_events == []

    def test_detail_mode_keeps_events(self):
        r = Region("r", detail_events=True)
        ev = _comm(r)
        assert r.comm_events == [ev]
        assert r.total_comm_events == [ev]

    def test_add_comm_returns_event_only_in_detail_mode(self):
        fast = Region("fast")
        assert fast.add_comm(CommPattern.CSHIFT, bytes_network=8) is None
        detail = Region("detail", detail_events=True)
        ev = detail.add_comm(CommPattern.CSHIFT, bytes_network=8, busy_time=1.0)
        assert ev is not None and ev.bytes_network == 8
        # Both modes account identically.
        assert fast.network_bytes == detail.network_bytes == 8
        assert fast.comm_counts() == detail.comm_counts()

    def test_comm_stats_streams_keyed_by_pattern_rank_detail(self):
        r = Region("r")
        r.add_comm(CommPattern.CSHIFT, bytes_network=8, rank=1, detail="x")
        r.add_comm(CommPattern.CSHIFT, bytes_network=8, rank=1, detail="x")
        r.add_comm(CommPattern.CSHIFT, bytes_network=4, rank=2, detail="y")
        assert len(r.comm_stats) == 2
        stats = r.comm_stats[(CommPattern.CSHIFT, 1, "x")]
        assert stats.count == 2
        assert stats.bytes_network == 16

    def test_find_depth_first(self):
        root = Region("root")
        a = Region("a")
        b = Region("target")
        a.children.append(b)
        root.children.append(a)
        assert root.find("target") is b
        assert root.find("nope") is None


class TestMetricsRecorder:
    def test_region_nesting(self):
        rec = MetricsRecorder()
        with rec.region("outer"):
            rec.charge_flops(FlopKind.ADD, 10)
            with rec.region("inner"):
                rec.charge_flops(FlopKind.ADD, 5)
        outer = rec.root.find("outer")
        inner = rec.root.find("inner")
        assert inner.flops.total == 5
        assert outer.total_flops == 15
        assert rec.total_flops == 15

    def test_reentrant_region_accumulates_iterations(self):
        rec = MetricsRecorder()
        for _ in range(10):
            with rec.region("step"):
                rec.charge_flops(FlopKind.MUL, 3)
        step = rec.root.find("step")
        assert step.iterations == 10
        assert step.flops_per_iteration == 3.0

    def test_region_with_explicit_iterations(self):
        rec = MetricsRecorder()
        with rec.region("main_loop", iterations=7):
            rec.charge_flops(FlopKind.ADD, 14)
        assert rec.root.find("main_loop").flops_per_iteration == 2.0

    def test_stack_restored_after_exception(self):
        rec = MetricsRecorder()
        with pytest.raises(RuntimeError):
            with rec.region("oops"):
                raise RuntimeError("boom")
        assert rec.current is rec.root

    def test_charge_reduction(self):
        rec = MetricsRecorder()
        rec.charge_reduction(100, 2)
        assert rec.total_flops == 198

    def test_charge_reduction_trivial_is_free(self):
        rec = MetricsRecorder()
        rec.charge_reduction(1, 5)
        assert rec.total_flops == 0

    def test_compute_time_accumulates(self):
        rec = MetricsRecorder()
        rec.charge_compute_time(0.5)
        rec.charge_compute_time(0.25)
        assert rec.busy_time == pytest.approx(0.75)

    def test_negative_compute_time_raises(self):
        with pytest.raises(ValueError):
            MetricsRecorder().charge_compute_time(-1.0)

    def test_comm_charged_to_current_region(self):
        rec = MetricsRecorder()
        with rec.region("loop"):
            _comm(rec)
        assert rec.root.find("loop").comm_counts()[CommPattern.CSHIFT] == 1
        assert rec.root.comm_counts()[CommPattern.CSHIFT] == 1

    def test_busy_and_elapsed_from_comm(self):
        rec = MetricsRecorder()
        _comm(rec, busy=2.0, idle=1.0)
        assert rec.busy_time == pytest.approx(2.0)
        assert rec.elapsed_time == pytest.approx(3.0)
