"""A hot-path circular shift, bit-identical to :func:`numpy.roll`.

``np.roll`` is generic over axis tuples and pays its generality on
every call (axis normalization, index-list construction, two
slice-assignments into an empty result).  The simulated CM-5 codes
CSHIFT small arrays hundreds of thousands of times per campaign, so
that fixed overhead — ~14 µs against ~4 µs for a two-slice
``np.concatenate`` on a 16³ grid — is a top-line cost.

:func:`fast_roll` handles exactly the case the comm primitives and
apps use (one integer shift along one axis) and is verified
element-identical to ``np.roll`` across shifts, axes and dtypes, with
and without ``out=``, by ``tests/test_report_digests.py``; both build
the result from the same two contiguous copies, so values (and
therefore every downstream metric) are unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def fast_roll(
    data: np.ndarray, shift: int, axis: int = 0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.roll(data, shift, axis=axis)`` without the generic overhead.

    ``axis`` must be non-negative and in range (callers normalize).
    Without ``out`` it returns a fresh array, like ``np.roll``.  With
    ``out`` (an array of ``data``'s shape and dtype that shares no
    memory with it) it writes the result there and returns ``out``, so
    a loop that shifts the same grid every step allocates nothing.  An
    overlapping ``out`` raises :class:`ValueError`: ``np.concatenate``
    into a buffer that aliases its input corrupts the data silently.
    """
    if out is not None:
        if out.shape != data.shape or out.dtype != data.dtype:
            raise ValueError(
                f"out has shape {out.shape} and dtype {out.dtype}; "
                f"expected {data.shape} and {data.dtype}"
            )
        if np.may_share_memory(out, data):
            raise ValueError("out must not share memory with the input")
    n = data.shape[axis]
    k = shift % n if n else 0
    if k == 0:
        if out is None:
            return data.copy()
        np.copyto(out, data)
        return out
    if axis == 0:
        return np.concatenate((data[n - k :], data[: n - k]), out=out)
    pre = (slice(None),) * axis
    return np.concatenate(
        (data[pre + (slice(n - k, None),)], data[pre + (slice(None, n - k),)]),
        axis=axis,
        out=out,
    )
