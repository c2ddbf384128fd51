"""Whole-report pins: every benchmark's report, byte for byte.

Every registered benchmark runs once at ``SMALL_PARAMS`` on a 32-node
CM-5.  The SHA-256 of its canonical report JSON must equal the digest
committed in ``tests/data/report_digests.json`` (the form
``bench/data/digests.json`` uses), so any change to FLOP counts,
per-pattern communication counts, bytes, busy/elapsed times or memory
fails here.  A ``report_from_dict`` round trip must reproduce the same
canonical JSON, which pins the serialization itself.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.array.roll import fast_roll
from repro.metrics.serialize import (
    canonical_report_json,
    report_from_dict,
    report_to_dict,
)
from repro.sessions import open_session
from repro.suite import REGISTRY, SMALL_PARAMS, run_benchmark

DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "report_digests.json").read_text()
)


def test_every_registered_benchmark_is_covered():
    assert set(SMALL_PARAMS) == set(REGISTRY) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_report_matches_committed_digest(name):
    record = report_to_dict(
        run_benchmark(name, open_session("cm5", 32), **SMALL_PARAMS[name])
    )
    text = canonical_report_json(record)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name], (
        f"{name}: report changed; its new digest is {digest}"
    )
    roundtrip = report_to_dict(report_from_dict(record))
    assert canonical_report_json(roundtrip) == text


@pytest.mark.parametrize(
    "shape", [(5,), (4, 6), (3, 4, 5), (0,), (1, 7), (16, 16, 16)]
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
def test_fast_roll_matches_np_roll(shape, dtype):
    """The docstring's identity claim for the CSHIFT fast path.

    ``fast_roll`` replaces ``np.roll`` on every comm-primitive and app
    hot path, so it must agree element-for-element across shapes,
    axes, dtypes, zero-length axes and out-of-range/negative shifts,
    whether it allocates the result or writes it into ``out=``.
    """
    rng = np.random.default_rng(len(shape))
    data = rng.standard_normal(shape).astype(dtype)
    for axis in range(len(shape)):
        for shift in (-7, -1, 0, 1, 2, 5, 12):
            expected = np.roll(data, shift, axis=axis)
            got = fast_roll(data, shift, axis=axis)
            np.testing.assert_array_equal(got, expected)
            assert got is not data  # fresh array, like np.roll
            out = np.full_like(data, 9)
            assert fast_roll(data, shift, axis=axis, out=out) is out
            np.testing.assert_array_equal(out, expected)
