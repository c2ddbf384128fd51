"""Golden parity: fast-path metrics == trace-mode metrics, suite-wide.

The aggregate-only fast path (the `detail_events=False` default) must
be observationally identical to trace mode for everything a
:class:`PerfReport` captures — FLOP counts, per-pattern communication
counts, bytes, busy/elapsed times, and memory.  Every registered
benchmark is run once in each mode on identical parameters and the
serialized reports are compared field-for-field after a
``report_from_dict`` round-trip (which also pins the serialization
itself).
"""

import numpy as np
import pytest

from repro.array.roll import fast_roll
from repro.metrics.serialize import (
    canonical_report_json,
    report_from_dict,
    report_to_dict,
)
from repro.sessions import open_session
from repro.suite import REGISTRY, run_benchmark

# Small-but-representative sizes so the whole sweep stays fast while
# every benchmark still exercises its main loop and comm patterns.
SMALL_PARAMS = {
    "gather": {"n": 2048, "repeats": 3},
    "scatter": {"n": 2048, "repeats": 3},
    "reduction": {"n": 2048, "repeats": 3},
    "transpose": {"n": 48, "repeats": 3},
    "matrix-vector": {"n": 48, "repeats": 2},
    "lu": {"n": 20},
    "qr": {"m": 24, "n": 12},
    "gauss-jordan": {"n": 20},
    "pcr": {"n": 64},
    "conj-grad": {"n": 96},
    "jacobi": {"n": 10},
    "fft": {"n": 256},
    "boson": {"nx": 6, "nt": 4, "sweeps": 3},
    "diff-1d": {"nx": 48, "steps": 3},
    "diff-2d": {"nx": 16, "steps": 3},
    "diff-3d": {"nx": 10, "steps": 3},
    "ellip-2d": {"nx": 10},
    "fem-3d": {"nx": 2, "iterations": 6},
    "fermion": {"sites": 12, "n": 4, "sweeps": 2},
    "gmo": {"ns": 64, "ntr": 8},
    "ks-spectral": {"nx": 32, "ne": 2, "steps": 3},
    "md": {"n_p": 10, "steps": 3},
    "mdcell": {"nc": 3, "steps": 1},
    "n-body": {"n": 16},
    "pic-simple": {"nx": 8, "n_p": 64, "steps": 1},
    "pic-gather-scatter": {"nx": 8, "n_p": 48, "steps": 1},
    "qcd-kernel": {"nx": 2, "iterations": 1},
    "qmc": {"blocks": 1, "steps_per_block": 6, "n_w": 40},
    "qptransport": {"iterations": 6},
    "rp": {"nx": 4},
    "step4": {"nx": 8, "steps": 1},
    "wave-1d": {"nx": 32, "steps": 3},
}


def _run(name: str, detail_events: bool) -> dict:
    session = open_session("cm5", 32, detail_events=detail_events)
    report = run_benchmark(name, session, **SMALL_PARAMS.get(name, {}))
    return report_to_dict(report)


def test_every_registered_benchmark_is_covered():
    assert set(SMALL_PARAMS) == set(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fast_path_report_matches_detail_mode(name):
    fast = _run(name, detail_events=False)
    detail = _run(name, detail_events=True)
    assert canonical_report_json(fast) == canonical_report_json(detail)
    # Round-trip through report_from_dict: the reconstructed reports
    # must themselves agree field-for-field.
    r_fast = report_to_dict(report_from_dict(fast))
    r_detail = report_to_dict(report_from_dict(detail))
    assert canonical_report_json(r_fast) == canonical_report_json(r_detail)


@pytest.mark.parametrize(
    "shape", [(5,), (4, 6), (3, 4, 5), (0,), (1, 7), (16, 16, 16)]
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
def test_fast_roll_matches_np_roll(shape, dtype):
    """The docstring's identity claim for the CSHIFT fast path.

    ``fast_roll`` replaces ``np.roll`` on every comm-primitive and app
    hot path, so it must agree element-for-element across shapes,
    axes, dtypes, zero-length axes and out-of-range/negative shifts.
    """
    rng = np.random.default_rng(len(shape))
    data = rng.standard_normal(shape).astype(dtype)
    for axis in range(len(shape)):
        for shift in (-7, -1, 0, 1, 2, 5, 12):
            got = fast_roll(data, shift, axis=axis)
            np.testing.assert_array_equal(got, np.roll(data, shift, axis=axis))
            assert got is not data  # fresh array, like np.roll
