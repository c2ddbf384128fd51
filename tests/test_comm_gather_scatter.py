"""Tests for gather/scatter with combiners (paper §2, Table 8)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session, cm5
from repro.array import from_numpy, zeros
from repro.comm.gather_scatter import gather, gather_combine, scatter
from repro.metrics.patterns import CommPattern


class TestGather:
    def test_basic(self, session):
        src = from_numpy(session, np.arange(10.0) * 2, "(:)")
        out = gather(src, np.array([0, 5, 9]))
        assert out.np.tolist() == [0, 10, 18]

    def test_repeated_indices(self, session):
        src = from_numpy(session, np.arange(4.0), "(:)")
        out = gather(src, np.array([2, 2, 2]))
        assert out.np.tolist() == [2, 2, 2]

    def test_2d_index_tuple(self, session):
        src = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        out = gather(src, (np.array([0, 1]), np.array([2, 0])))
        assert out.np.tolist() == [2, 3]

    def test_records_pattern(self, session):
        src = from_numpy(session, np.arange(4.0), "(:)")
        gather(src, np.array([0]))
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.GATHER

    def test_collision_override_reduces_cost(self):
        def gather_busy(**kwargs):
            session = Session(cm5(32))
            src = from_numpy(session, np.arange(1 << 12, dtype=float), "(:)")
            gather(src, np.zeros(1 << 12, dtype=int), **kwargs)
            return session.recorder.root.comm_busy

        assert gather_busy(collisions=1.0) < gather_busy()


class TestGatherCombine:
    def test_histogram(self, session):
        src = from_numpy(session, np.ones(6), "(:)")
        out = gather_combine(src, np.array([0, 1, 1, 2, 2, 2]), (4,))
        assert out.np.tolist() == [1, 2, 3, 0]

    def test_2d_output(self, session):
        src = from_numpy(session, np.ones(4), "(:)")
        idx = (np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]))
        out = gather_combine(src, idx, (2, 2))
        assert out.np.tolist() == [[2, 0], [0, 2]]

    def test_unsupported_op(self, session):
        src = from_numpy(session, np.ones(2), "(:)")
        with pytest.raises(ValueError):
            gather_combine(src, np.array([0, 1]), (2,), op="max")


class TestScatter:
    def test_overwrite(self, session):
        dest = zeros(session, (5,), "(:)")
        vals = from_numpy(session, np.array([1.0, 2.0]), "(:)")
        scatter(dest, np.array([4, 0]), vals)
        assert dest.np.tolist() == [2, 0, 0, 0, 1]

    def test_add_combiner(self, session):
        dest = zeros(session, (3,), "(:)")
        vals = from_numpy(session, np.ones(5), "(:)")
        scatter(dest, np.array([0, 0, 1, 2, 2]), vals, combine="add")
        assert dest.np.tolist() == [2, 1, 2]

    def test_max_combiner(self, session):
        dest = zeros(session, (2,), "(:)")
        vals = from_numpy(session, np.array([3.0, 7.0, 5.0]), "(:)")
        scatter(dest, np.array([0, 0, 1]), vals, combine="max")
        assert dest.np.tolist() == [7, 5]

    def test_unknown_combiner(self, session):
        dest = zeros(session, (2,), "(:)")
        vals = from_numpy(session, np.ones(1), "(:)")
        with pytest.raises(ValueError):
            scatter(dest, np.array([0]), vals, combine="xor")

    def test_pattern_distinction(self, session):
        dest = zeros(session, (4,), "(:)")
        vals = from_numpy(session, np.ones(2), "(:)")
        scatter(dest, np.array([0, 1]), vals)
        scatter(dest, np.array([0, 1]), vals, combine="add")
        patterns = [s.pattern for s in session.recorder.root.comm_stats.values()]
        assert patterns == [CommPattern.SCATTER, CommPattern.SCATTER_COMBINE]

    def test_combine_charges_flops(self, session):
        dest = zeros(session, (4,), "(:)")
        vals = from_numpy(session, np.ones(8), "(:)")
        before = session.recorder.total_flops
        scatter(dest, np.zeros(8, dtype=int), vals, combine="add")
        assert session.recorder.total_flops - before == 8

    @given(
        n=st.integers(1, 64),
    )
    @settings(max_examples=20, deadline=None)
    def test_scatter_gather_roundtrip(self, n):
        """Scatter through a permutation then gather back is identity."""
        session = Session(cm5(8))
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        vals = from_numpy(session, rng.standard_normal(n), "(:)")
        dest = zeros(session, (n,), "(:)")
        scatter(dest, perm, vals)
        back = gather(dest, perm)
        assert np.allclose(back.np, vals.np)

    def test_deposit_conservation(self, session):
        """Scatter-with-add conserves the deposited total (histogram)."""
        rng = np.random.default_rng(0)
        vals = from_numpy(session, rng.random(100), "(:)")
        dest = zeros(session, (7,), "(:)")
        scatter(dest, rng.integers(0, 7, 100), vals, combine="add")
        assert dest.np.sum() == pytest.approx(vals.np.sum())
