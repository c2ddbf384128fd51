"""Tests for the collective primitives: shifts, spreads, reductions,
broadcasts, transposes, send/get."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session, cm5
from repro.array import from_numpy
from repro.array.roll import fast_roll
from repro.comm.primitives import (
    broadcast,
    cshift,
    eoshift,
    get,
    reduce_array,
    reduce_location,
    remap,
    send,
    spread,
    transpose,
)
from repro.layout.spec import Axis
from repro.metrics.patterns import CommPattern


class TestCshift:
    def test_cmf_semantics(self, session):
        """CSHIFT(A, s): result(i) = A(i + s), cyclically."""
        x = from_numpy(session, np.arange(5.0), "(:)")
        assert cshift(x, 1).np.tolist() == [1, 2, 3, 4, 0]
        assert cshift(x, -1).np.tolist() == [4, 0, 1, 2, 3]

    def test_axis_selection(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        assert np.array_equal(cshift(x, 1, axis=0).np, np.roll(x.np, -1, 0))
        assert np.array_equal(cshift(x, 1, axis=1).np, np.roll(x.np, -1, 1))

    def test_inverse_roundtrip(self, session):
        x = from_numpy(session, np.arange(8.0), "(:)")
        assert np.array_equal(cshift(cshift(x, 3), -3).np, x.np)

    def test_records_event_with_rank(self, session):
        x = from_numpy(session, np.arange(8.0), "(:)")
        cshift(x, 1)
        streams = session.recorder.root.comm_stats
        key = (CommPattern.CSHIFT, 1, "axis=0, shift=1")
        assert list(streams) == [key]
        assert streams[key].count == 1

    def test_serial_axis_no_network(self, session):
        x = from_numpy(session, np.arange(8.0).reshape(2, 4), "(:serial,:)")
        cshift(x, 1, axis=0)
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.bytes_network == 0

    def test_parallel_axis_network_traffic(self, session):
        x = from_numpy(session, np.arange(64.0), "(:)")
        cshift(x, 1)
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.bytes_network > 0

    def test_bad_axis_raises(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        with pytest.raises(ValueError):
            cshift(x, 1, axis=2)

    def test_out_records_the_same_stream(self):
        """``out=`` changes where the data lands, not what is recorded."""

        def shift(with_out):
            session = Session(cm5(32))
            x = from_numpy(session, np.arange(96.0).reshape(12, 8), "(:,:)")
            out = None
            if with_out:
                out = from_numpy(session, np.zeros((12, 8)), "(:,:)")
            result = cshift(x, 3, axis=0, out=out)
            assert (result is out) == with_out
            streams = {
                key: (st.count, st.bytes_network, st.bytes_local,
                      st.busy_time, st.idle_time)
                for key, st in session.recorder.root.comm_stats.items()
            }
            return result.np.copy(), streams

        plain_data, plain_streams = shift(with_out=False)
        out_data, out_streams = shift(with_out=True)
        np.testing.assert_array_equal(out_data, plain_data)
        assert out_streams == plain_streams
        ((key, (count, net, _, busy, _)),) = plain_streams.items()
        assert key == (CommPattern.CSHIFT, 2, "axis=0, shift=3")
        assert count == 1 and net > 0 and busy > 0

    def test_out_sharing_memory_with_input_raises(self, session):
        # np.concatenate into a buffer that aliases its input would
        # corrupt the result silently, so the shift refuses it.
        x = from_numpy(session, np.arange(8.0), "(:)")
        with pytest.raises(ValueError, match="share memory"):
            cshift(x, 1, out=x)
        assert not session.recorder.root.comm_stats
        buf = np.arange(16.0)
        with pytest.raises(ValueError, match="share memory"):
            fast_roll(buf[:8], 1, out=buf[4:12])
        with pytest.raises(ValueError, match="share memory"):
            fast_roll(buf[:8], 0, out=buf[:8])

    def test_out_of_another_shape_or_dtype_raises(self):
        data = np.arange(8.0)
        with pytest.raises(ValueError):
            fast_roll(data, 1, out=np.empty(9))
        with pytest.raises(ValueError):
            fast_roll(data, 1, out=np.empty(8, dtype=np.float32))

    @given(
        n=st.integers(2, 64),
        shift=st.integers(-100, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_roll(self, n, shift):
        session = Session(cm5(8))
        data = np.arange(float(n))
        x = from_numpy(session, data, "(:)")
        assert np.array_equal(cshift(x, shift).np, np.roll(data, -shift))


class TestEoshift:
    def test_positive_shift_fills_tail(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        assert eoshift(x, 1).np.tolist() == [1, 2, 3, 0]

    def test_negative_shift_fills_head(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        assert eoshift(x, -1, boundary=9.0).np.tolist() == [9, 0, 1, 2]

    def test_overshift_all_boundary(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        assert eoshift(x, 10, boundary=-1.0).np.tolist() == [-1, -1, -1, -1]

    def test_2d_axis(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        out = eoshift(x, 1, axis=1)
        assert out.np[0].tolist() == [1, 2, 0]


class TestSpreadBroadcast:
    def test_spread_inserts_axis(self, session):
        x = from_numpy(session, np.array([1.0, 2.0]), "(:)")
        out = spread(x, 0, 3)
        assert out.shape == (3, 2)
        assert np.array_equal(out.np, np.tile(x.np, (3, 1)))

    def test_spread_trailing_axis(self, session):
        x = from_numpy(session, np.array([1.0, 2.0]), "(:)")
        out = spread(x, 1, 3)
        assert out.shape == (2, 3)
        assert (out.np[0] == 1.0).all()

    def test_spread_axis_kind(self, session):
        x = from_numpy(session, np.array([1.0, 2.0]), "(:)")
        out = spread(x, 0, 3, axis_kind=Axis.SERIAL)
        assert out.layout.axes[0] is Axis.SERIAL

    def test_spread_records_event(self, session):
        x = from_numpy(session, np.arange(16.0), "(:)")
        spread(x, 0, 4)
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.SPREAD

    def test_broadcast_scalar(self, session):
        out = broadcast(session, 3.5, (4, 4), "(:,:)")
        assert (out.np == 3.5).all()
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.BROADCAST

    def test_broadcast_vector_to_matrix(self, session):
        v = from_numpy(session, np.arange(3.0), "(:)")
        out = broadcast(session, v, (2, 3), "(:,:)")
        assert np.array_equal(out.np, np.tile(np.arange(3.0), (2, 1)))


class TestReduce:
    def test_full_sum(self, session):
        x = from_numpy(session, np.arange(10.0), "(:)")
        assert reduce_array(x, "sum") == 45.0

    def test_axis_sum_returns_distarray(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        out = reduce_array(x, "sum", axis=0)
        assert out.np.tolist() == [3.0, 5.0, 7.0]
        assert out.layout.axes == (Axis.PARALLEL,)

    def test_max_min(self, session):
        x = from_numpy(session, np.array([3.0, -2.0, 8.0]), "(:)")
        assert reduce_array(x, "max") == 8.0
        assert reduce_array(x, "min") == -2.0

    def test_masked_sum(self, session):
        x = from_numpy(session, np.arange(6.0), "(:)")
        mask = x > 2.0
        assert reduce_array(x, "sum", mask=mask) == 12.0

    def test_masked_max(self, session):
        x = from_numpy(session, np.arange(6.0), "(:)")
        mask = x < 3.0
        assert reduce_array(x, "max", mask=mask) == 2.0

    def test_flops_charged_n_minus_one(self, session):
        x = from_numpy(session, np.arange(100.0), "(:)")
        before = session.recorder.total_flops
        reduce_array(x, "sum")
        assert session.recorder.total_flops - before == 99

    def test_unknown_op_raises(self, session):
        x = from_numpy(session, np.arange(4.0), "(:)")
        with pytest.raises(ValueError):
            reduce_array(x, "median")

    def test_multi_axis(self, session):
        x = from_numpy(session, np.arange(24.0).reshape(2, 3, 4), "(:,:,:)")
        out = reduce_array(x, "sum", axis=(0, 2))
        assert np.array_equal(out.np, x.np.sum(axis=(0, 2)))

    def test_reduce_location(self, session):
        x = from_numpy(session, np.array([[1.0, 9.0], [0.0, 3.0]]), "(:,:)")
        assert reduce_location(x, "max") == (0, 1)
        assert reduce_location(x, "min") == (1, 0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, values):
        session = Session(cm5(4))
        arr = np.array(values)
        x = from_numpy(session, arr, "(:)")
        assert reduce_array(x, "sum") == pytest.approx(arr.sum(), rel=1e-12, abs=1e-9)


class TestTransposeRemap:
    def test_transpose_2d(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        assert np.array_equal(transpose(x).np, x.np.T)

    def test_transpose_permutation(self, session):
        x = from_numpy(session, np.arange(24.0).reshape(2, 3, 4), "(:,:,:)")
        out = transpose(x, (2, 0, 1))
        assert out.shape == (4, 2, 3)

    def test_transpose_moves_axis_kinds(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:serial,:)")
        out = transpose(x)
        assert out.layout.axes == (Axis.PARALLEL, Axis.SERIAL)

    def test_transpose_records_aapc(self, session):
        x = from_numpy(session, np.arange(16.0).reshape(4, 4), "(:,:)")
        transpose(x)
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.AAPC
        assert stats.bytes_network > 0

    def test_bad_permutation_raises(self, session):
        x = from_numpy(session, np.arange(4.0).reshape(2, 2), "(:,:)")
        with pytest.raises(ValueError):
            transpose(x, (0, 0))

    def test_remap_changes_layout_not_data(self, session):
        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        out = remap(x, "(:serial,:)")
        assert np.array_equal(out.np, x.np)
        assert out.layout.axes == (Axis.SERIAL, Axis.PARALLEL)

    def test_remap_shape_change_rejected(self, session):
        from repro.layout.spec import parse_layout

        x = from_numpy(session, np.arange(6.0).reshape(2, 3), "(:,:)")
        with pytest.raises(ValueError):
            remap(x, parse_layout("(:,:,:)", (1, 2, 3)))


class TestSendGet:
    def test_get_fetches(self, session):
        x = from_numpy(session, np.arange(10.0), "(:)")
        out = get(x, np.array([9, 0, 5]))
        assert out.np.tolist() == [9, 0, 5]

    def test_send_overwrite(self, session):
        x = from_numpy(session, np.zeros(5), "(:)")
        vals = from_numpy(session, np.array([7.0, 8.0]), "(:)")
        send(x, np.array([1, 3]), vals)
        assert x.np.tolist() == [0, 7, 0, 8, 0]

    def test_send_with_add(self, session):
        x = from_numpy(session, np.zeros(3), "(:)")
        vals = from_numpy(session, np.ones(4), "(:)")
        send(x, np.array([0, 0, 2, 2]), vals, combine="add")
        assert x.np.tolist() == [2, 0, 2]

    def test_get_records_event(self, session):
        x = from_numpy(session, np.arange(10.0), "(:)")
        get(x, np.array([1]))
        (stats,) = session.recorder.root.comm_stats.values()
        assert stats.pattern is CommPattern.GET
