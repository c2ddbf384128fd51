"""Radix-2 FFTs in one, two and three dimensions.

Table 2 assigns all FFT variants 1-D parallel data layouts
(multidimensional data in natural order, transformed axis by axis).
Table 4 charges, *per main-loop iteration* (= per butterfly stage):

* fft 1-D: ``5 n`` FLOPs, 2 CSHIFTs + 1 AAPC;
* fft 2-D: ``10 n^2`` FLOPs, 4 CSHIFTs + 2 AAPC;
* fft 3-D: ``15 n^3`` FLOPs, 6 CSHIFTs + 3 AAPC.

The ``5 n`` per stage is exactly one complex multiply (6 real FLOPs)
per butterfly pair plus two complex additions (4 real FLOPs):
``10 * n/2 = 5n``.  The communication per stage reflects the CM
implementation: both butterfly partners are fetched with a pair of
circular shifts of distance ``2^s``, and the inter-stage digit-reversal
reordering is an all-to-all personalized communication.

Implementation: iterative decimation-in-time with an explicit
bit-reversal permutation, vectorized over any leading axes, verified
against ``numpy.fft``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.array.distarray import DistArray
from repro.metrics.flops import FlopKind
from repro.metrics.patterns import CommPattern


@lru_cache(maxsize=64)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@lru_cache(maxsize=256)
def _twiddles(distance: int, sign: float) -> np.ndarray:
    """Stage twiddle factors exp(sign * 2*pi*i * k / (2*distance))."""
    return np.exp(sign * 2j * np.pi * np.arange(distance) / (2 * distance))


def _charge_stage(x: DistArray, axis: int, distance: int) -> None:
    """Per-stage communication: 2 CSHIFTs + 1 AAPC (Table 4)."""
    session = x.session
    itemsize = x.data.itemsize
    net = x.layout.shift_network_elements(session.nodes, axis, distance) * itemsize
    for _ in range(2):
        session.record_comm(
            CommPattern.CSHIFT,
            bytes_network=net,
            bytes_local=x.size * itemsize,
            rank=x.ndim,
            detail=f"butterfly d={distance}",
        )
    off = x.layout.off_node_fraction(session.nodes)
    session.record_comm(
        CommPattern.AAPC,
        bytes_network=round(x.size * itemsize * off),
        bytes_local=x.size * itemsize,
        rank=x.ndim,
        detail="digit reversal",
    )


def _fft_axis(x: DistArray, axis: int, inverse: bool) -> DistArray:
    """In-order DIT FFT along one axis, charging per-stage costs."""
    n = x.shape[axis]
    if n & (n - 1):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    session = x.session
    data = x.data.astype(np.complex128, copy=True)
    if axis != data.ndim - 1:
        data = np.moveaxis(data, axis, -1)
    lead = data.shape[:-1]
    if n > 1:
        data = data[..., _bit_reverse_indices(n)]
        sign = +1.0 if inverse else -1.0
        stages = int(math.log2(n))
        # Per-stage loop invariants, hoisted: the butterfly pair count,
        # its critical-path compute time and a reusable half-size
        # scratch buffer (every stage touches exactly n/2 products).
        pairs = x.size // 2
        stage_time = session.machine.compute_time(
            10 * pairs * x.layout.critical_fraction(session.nodes),
            tier=session.tier,
        )
        scratch = np.empty((*lead, n // 2), dtype=np.complex128)
        for s in session.iterations(range(stages)):
            d = 1 << s  # butterfly distance
            w = _twiddles(d, sign)
            blocks = data.reshape(*lead, n // (2 * d), 2, d)
            t = scratch.reshape(*lead, n // (2 * d), d)
            np.multiply(blocks[..., 1, :], w, out=t)
            u = blocks[..., 0, :]
            np.subtract(u, t, out=blocks[..., 1, :])
            np.add(u, t, out=blocks[..., 0, :])
            # 5n FLOPs per point set: one complex multiply and two
            # complex adds per butterfly pair.
            session.recorder.charge_flops(
                FlopKind.MUL, pairs, complex_valued=True
            )
            session.recorder.charge_flops(
                FlopKind.ADD, 2 * pairs, complex_valued=True
            )
            session.recorder.charge_compute_time(stage_time)
            _charge_stage(x, axis, d)
    if inverse:
        data /= n
        session.recorder.charge_flops(FlopKind.DIV, x.size)
    # Marker event: one Butterfly per 1-D FFT sweep, so application
    # tables can count "k 1-D FFTs" (Table 7's Butterfly row).  The
    # per-stage traffic was already charged above; this carries none.
    session.record_comm(
        CommPattern.BUTTERFLY,
        bytes_network=0,
        nodes=1,
        rank=x.ndim,
        stages=max(1, int(math.log2(n))) if n > 1 else 1,
        detail="fft sweep",
    )
    return DistArray(np.moveaxis(data, -1, axis), x.layout, session)


def fft_along(x: DistArray, axis: int, inverse: bool = False) -> DistArray:
    """1-D FFT sweep along one axis of a multidimensional array.

    The "1-D FFTs on 2-D arrays" of ks-spectral and the butterfly
    solves in pic-simple and wave-1D are invocations of this sweep; it
    does not open its own metrics region, so callers control the
    per-iteration accounting.
    """
    return _fft_axis(x, axis, inverse)


def fft(x: DistArray, inverse: bool = False) -> DistArray:
    """1-D FFT of a parallel vector (length a power of two)."""
    if x.ndim != 1:
        raise ValueError("fft expects a 1-D array; use fft2/fft3")
    n = x.shape[0]
    stages = max(1, int(math.log2(n))) if n > 1 else 1
    with x.session.region("main_loop", iterations=stages):
        return _fft_axis(x, 0, inverse)


def ifft(x: DistArray) -> DistArray:
    """Inverse 1-D FFT (forward with conjugated twiddles, scaled)."""
    return fft(x, inverse=True)


def fft2(x: DistArray, inverse: bool = False) -> DistArray:
    """2-D FFT; each main-loop iteration advances one stage per axis."""
    if x.ndim != 2:
        raise ValueError("fft2 expects a 2-D array")
    n = max(x.shape)
    stages = max(1, int(math.log2(n))) if n > 1 else 1
    with x.session.region("main_loop", iterations=stages):
        out = _fft_axis(x, 1, inverse)
        out = _fft_axis(out, 0, inverse)
    return out


def fft3(x: DistArray, inverse: bool = False) -> DistArray:
    """3-D FFT; each main-loop iteration advances one stage per axis."""
    if x.ndim != 3:
        raise ValueError("fft3 expects a 3-D array")
    n = max(x.shape)
    stages = max(1, int(math.log2(n))) if n > 1 else 1
    with x.session.region("main_loop", iterations=stages):
        out = _fft_axis(x, 2, inverse)
        out = _fft_axis(out, 1, inverse)
        out = _fft_axis(out, 0, inverse)
    return out
