"""rp's allocation-free CGNR solve, pinned at the sizes where it matters.

``tests/test_report_digests.py`` runs rp at ``nx=4``.  The campaign
runs it up to ``nx=32``, where every grid is 256 KiB: above glibc's
128 KiB mmap threshold, so a solve that allocates a fresh array per
operator or shift returns each one to the kernel when it is freed and
faults its pages back in on the next allocation.  The reports at the
campaign's sizes are pinned by SHA-256 (``tests/data/rp_digests.json``,
generated before the solve reused its buffers), and a Linux-only test
guards the mechanism by counting minor page faults rather than time.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.metrics.serialize import canonical_report_json, report_to_dict
from repro.sessions import open_session
from repro.suite import run_benchmark

DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "rp_digests.json").read_text()
)


@pytest.mark.parametrize("nx", [16, 24, 32])
def test_rp_report_matches_committed_digest(nx):
    report = run_benchmark("rp", open_session("cm5", 32), nx=nx)
    text = canonical_report_json(report_to_dict(report))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[str(nx)], (
        f"rp nx={nx}: report changed; its new digest is {digest}"
    )


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts Linux minor faults"
)
def test_rp_solve_does_not_page_fault_per_operation():
    import resource

    run_benchmark("rp", open_session("cm5", 32), nx=4)  # warm code paths
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_benchmark("rp", open_session("cm5", 32), nx=32)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # About 39,000 when each operator temporary and shift result is a
    # fresh 256 KiB array; about 650 when the solve reuses its buffers.
    assert faults < 5_000, f"rp nx=32 took {faults} minor page faults"
