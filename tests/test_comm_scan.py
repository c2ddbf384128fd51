"""Tests for scans, segmented scans and copy-scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session, cm5
from repro.array import from_numpy
from repro.comm.scan import scan, segmented_copy_scan, segmented_scan
from repro.metrics.patterns import CommPattern


class TestScan:
    def test_inclusive_sum(self, session):
        x = from_numpy(session, np.arange(5.0), "(:)")
        assert scan(x, "sum").np.tolist() == [0, 1, 3, 6, 10]

    def test_exclusive_sum(self, session):
        x = from_numpy(session, np.arange(5.0), "(:)")
        assert scan(x, "sum", inclusive=False).np.tolist() == [0, 0, 1, 3, 6]

    def test_max_scan(self, session):
        x = from_numpy(session, np.array([1.0, 3.0, 2.0, 5.0]), "(:)")
        assert scan(x, "max").np.tolist() == [1, 3, 3, 5]

    def test_min_scan(self, session):
        x = from_numpy(session, np.array([4.0, 2.0, 3.0]), "(:)")
        assert scan(x, "min").np.tolist() == [4, 2, 2]

    def test_prod_scan(self, session):
        x = from_numpy(session, np.array([1.0, 2.0, 3.0]), "(:)")
        assert scan(x, "prod").np.tolist() == [1, 2, 6]

    def test_axis_scan_2d(self, session):
        x = from_numpy(session, np.ones((3, 4)), "(:,:)")
        assert np.array_equal(scan(x, "sum", axis=1).np, np.cumsum(x.np, 1))

    def test_unknown_op(self, session):
        x = from_numpy(session, np.ones(2), "(:)")
        with pytest.raises(ValueError):
            scan(x, "mean")

    def test_records_scan_event(self, session):
        x = from_numpy(session, np.ones(8), "(:)")
        scan(x, "sum")
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.SCAN

    def test_charges_sequential_flops(self, session):
        x = from_numpy(session, np.ones(100), "(:)")
        before = session.recorder.total_flops
        scan(x, "sum")
        assert session.recorder.total_flops - before == 99

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_matches_cumsum(self, values):
        session = Session(cm5(4))
        arr = np.array(values)
        out = scan(from_numpy(session, arr, "(:)"), "sum")
        assert np.allclose(out.np, np.cumsum(arr))


def _reference_segmented(values, starts, op):
    out = np.empty_like(values)
    acc = None
    for i, v in enumerate(values):
        if starts[i] or i == 0 or acc is None:
            acc = v
        else:
            acc = acc + v if op == "sum" else (max(acc, v) if op == "max" else min(acc, v))
        out[i] = acc
    return out


class TestSegmentedScan:
    def test_simple_segments(self, session):
        x = from_numpy(session, np.ones(6), "(:)")
        starts = np.array([True, False, False, True, False, False])
        out = segmented_scan(x, starts, "sum")
        assert out.np.tolist() == [1, 2, 3, 1, 2, 3]

    def test_exclusive(self, session):
        x = from_numpy(session, np.ones(4), "(:)")
        starts = np.array([True, False, True, False])
        out = segmented_scan(x, starts, "sum", inclusive=False)
        assert out.np.tolist() == [0, 1, 0, 1]

    def test_single_segment_is_plain_scan(self, session):
        x = from_numpy(session, np.arange(5.0), "(:)")
        starts = np.zeros(5, dtype=bool)
        out = segmented_scan(x, starts, "sum")
        assert np.allclose(out.np, np.cumsum(x.np))

    def test_every_element_own_segment(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        out = segmented_scan(x, np.ones(4, dtype=bool), "sum")
        assert np.array_equal(out.np, x.np)

    def test_max_segmented(self, session):
        x = from_numpy(session, np.array([1.0, 5.0, 2.0, 7.0, 3.0]), "(:)")
        starts = np.array([True, False, False, True, False])
        out = segmented_scan(x, starts, "max")
        assert out.np.tolist() == [1, 5, 5, 7, 7]

    def test_2d_rejected(self, session):
        x = from_numpy(session, np.ones((2, 2)), "(:,:)")
        with pytest.raises(ValueError):
            segmented_scan(x, np.ones((2, 2), dtype=bool), "sum")

    def test_shape_mismatch_rejected(self, session):
        x = from_numpy(session, np.ones(4), "(:)")
        with pytest.raises(ValueError):
            segmented_scan(x, np.ones(3, dtype=bool), "sum")

    @given(
        values=st.lists(st.floats(-50, 50), min_size=1, max_size=50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, values, seed):
        session = Session(cm5(4))
        arr = np.array(values)
        rng = np.random.default_rng(seed)
        starts = rng.random(len(arr)) < 0.3
        out = segmented_scan(from_numpy(session, arr, "(:)"), starts, "sum")
        flags = starts.copy()
        flags[0] = True
        assert np.allclose(out.np, _reference_segmented(arr, flags, "sum"))


class TestSegmentedCopyScan:
    def test_propagates_head(self, session):
        x = from_numpy(session, np.array([5.0, 1.0, 2.0, 9.0, 4.0]), "(:)")
        starts = np.array([True, False, False, True, False])
        out = segmented_copy_scan(x, starts)
        assert out.np.tolist() == [5, 5, 5, 9, 9]

    def test_first_element_always_head(self, session):
        x = from_numpy(session, np.array([3.0, 1.0]), "(:)")
        out = segmented_copy_scan(x, np.zeros(2, dtype=bool))
        assert out.np.tolist() == [3, 3]

    def test_2d_rejected(self, session):
        x = from_numpy(session, np.ones((2, 2)), "(:,:)")
        with pytest.raises(ValueError):
            segmented_copy_scan(x, np.ones((2, 2), dtype=bool))
