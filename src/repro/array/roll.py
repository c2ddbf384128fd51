"""A hot-path circular shift, bit-identical to :func:`numpy.roll`.

``np.roll`` is generic over axis tuples and pays its generality on
every call (axis normalization, index-list construction, two
slice-assignments into an empty result).  The simulated CM-5 codes
CSHIFT small arrays hundreds of thousands of times per campaign, so
that fixed overhead — ~14 µs against ~4 µs for a two-slice
``np.concatenate`` on a 16³ grid — is a top-line cost.

:func:`fast_roll` handles exactly the case the comm primitives and
apps use (one integer shift along one axis) and is verified
element-identical to ``np.roll`` across shifts, axes and dtypes by
``tests/test_report_digests.py``; both build the result from the same
two contiguous copies, so values (and therefore every downstream
metric) are unchanged.
"""

from __future__ import annotations

import numpy as np


def fast_roll(data: np.ndarray, shift: int, axis: int = 0) -> np.ndarray:
    """``np.roll(data, shift, axis=axis)`` without the generic overhead.

    ``axis`` must be non-negative and in range (callers normalize).
    Always returns a fresh array, like ``np.roll``.
    """
    n = data.shape[axis]
    if n == 0:
        return data.copy()
    k = shift % n
    if k == 0:
        return data.copy()
    if axis == 0:
        return np.concatenate((data[n - k :], data[: n - k]))
    pre = (slice(None),) * axis
    return np.concatenate(
        (data[pre + (slice(n - k, None),)], data[pre + (slice(None, n - k),)]),
        axis=axis,
    )
