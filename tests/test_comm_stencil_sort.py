"""Tests for stencil evaluation and parallel sorting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session, cm5
from repro.array import from_numpy
from repro.comm.sorting import argsort, sort_array
from repro.comm.stencil import stencil_apply, stencil_shifts
from repro.metrics.patterns import CommPattern


class TestStencilShifts:
    def test_periodic_1d(self, session):
        x = from_numpy(session, np.arange(5.0), "(:)")
        left, center, right = stencil_shifts(x, [-1, 0, 1])
        assert center.np.tolist() == [0, 1, 2, 3, 4]
        assert right.np[0] == 1  # x(i+1)
        assert left.np[0] == 4  # x(i-1), wrapped

    def test_dirichlet_fill(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        (shifted,) = stencil_shifts(x, [1], boundary="dirichlet", fill=-1.0)
        assert shifted.np.tolist() == [1, 2, 3, -1]

    def test_2d_offsets(self, session):
        x = from_numpy(session, np.arange(9.0).reshape(3, 3), "(:,:)")
        (ne,) = stencil_shifts(x, [(1, 1)])
        assert ne.np[0, 0] == x.np[1, 1]

    def test_single_event_many_points(self, session):
        x = from_numpy(session, np.arange(27.0).reshape(3, 3, 3), "(:,:,:)")
        stencil_shifts(x, [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)])
        assert session.recorder.root.comm_counts()[CommPattern.STENCIL] == 1

    def test_unknown_boundary(self, session):
        x = from_numpy(session, np.arange(3.0), "(:)")
        with pytest.raises(ValueError):
            stencil_shifts(x, [1], boundary="neumann")

    def test_wrong_rank_offset(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        with pytest.raises(ValueError):
            stencil_shifts(x, [(1, 1, 1)])


class TestStencilApply:
    def test_laplacian_periodic(self, session):
        x = from_numpy(session, np.sin(np.linspace(0, 2 * np.pi, 8, endpoint=False)), "(:)")
        taps = {(-1,): 1.0, (0,): -2.0, (1,): 1.0}
        out = stencil_apply(x, taps)
        ref = np.roll(x.np, 1) - 2 * x.np + np.roll(x.np, -1)
        assert np.allclose(out.np, ref)

    def test_coefficient_grouping_flops(self, session):
        """Six equal taps charge 5 adds + 1 mul, not 6 muls."""
        x = from_numpy(session, np.ones((4, 4)), "(:,:)")
        taps = {
            (-1, 0): 0.25, (1, 0): 0.25, (0, -1): 0.25, (0, 1): 0.25,
        }
        before = session.recorder.total_flops
        stencil_apply(x, taps)
        charged = session.recorder.total_flops - before
        # group of 4 equal coeffs: 3 adds + 1 mul = 4 per element.
        assert charged == 4 * 16

    def test_empty_taps_raises(self, session):
        x = from_numpy(session, np.ones(4), "(:)")
        with pytest.raises(ValueError):
            stencil_apply(x, {})

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_evaluation(self, seed):
        session = Session(cm5(8))
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((6, 6))
        x = from_numpy(session, data, "(:,:)")
        taps = {(0, 0): 2.0, (-1, 0): -1.0, (1, 0): -1.0, (0, 1): 0.5}
        out = stencil_apply(x, taps)
        ref = (
            2.0 * data
            - np.roll(data, 1, 0)
            - np.roll(data, -1, 0)
            + 0.5 * np.roll(data, -1, 1)
        )
        assert np.allclose(out.np, ref)


class TestSorting:
    def test_sort_values(self, session):
        x = from_numpy(session, np.array([3.0, 1.0, 2.0]), "(:)")
        assert sort_array(x).np.tolist() == [1, 2, 3]

    def test_argsort_stable(self, session):
        x = from_numpy(session, np.array([2.0, 1.0, 2.0, 1.0]), "(:)")
        assert argsort(x).np.tolist() == [1, 3, 0, 2]

    def test_sort_axis(self, session):
        x = from_numpy(session, np.array([[3.0, 1.0], [0.0, 2.0]]), "(:,:)")
        assert sort_array(x, axis=1).np.tolist() == [[1, 3], [0, 2]]

    def test_records_sort_event(self, session):
        x = from_numpy(session, np.arange(16.0)[::-1].copy(), "(:)")
        sort_array(x)
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.SORT
        assert stats.busy_time > 0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_sort_matches_numpy(self, values):
        session = Session(cm5(8))
        arr = np.array(values)
        out = sort_array(from_numpy(session, arr, "(:)"))
        assert np.array_equal(out.np, np.sort(arr))
