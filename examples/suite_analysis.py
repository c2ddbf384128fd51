#!/usr/bin/env python
"""Analyzing the whole suite: grain sizes, boundedness, pattern mixes.

The paper's tables are "a primary guide in selecting the appropriate
code (or group of codes) from the entire benchmark suite, according to
a given set of goals and criteria" (§1).  This example runs all 32
benchmarks, classifies each as compute-, latency- or bandwidth-bound
on the CM-5 model, and prints a per-pattern communication profile of
one representative code.
"""

from repro import open_session
from repro.analysis.ratios import comm_to_comp_ratio
from repro.analysis.trace import trace_summary
from repro.suite import run_benchmark, run_suite
from repro.suite.tables import format_table

SMALL = {
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


def main() -> None:
    reports = run_suite(lambda: open_session("cm5", 32), params=SMALL)
    rows = []
    for name in sorted(reports):
        summary = comm_to_comp_ratio(reports[name])
        rows.append(
            [
                name,
                f"{summary.ops_per_point:.1f}",
                f"{summary.comm_events_per_iteration:.1f}",
                "inf"
                if summary.flops_per_comm_event == float("inf")
                else f"{summary.flops_per_comm_event:.0f}",
                f"{100 * summary.busy_fraction:.0f}%",
                summary.classify(),
            ]
        )
    print("suite grain-size / boundedness analysis (CM-5/32)\n")
    print(
        format_table(
            [
                "benchmark",
                "ops/point",
                "comm/iter",
                "FLOPs/event",
                "busy frac",
                "class",
            ],
            rows,
        )
    )

    print("\n\ncommunication profile of pic-gather-scatter:\n")
    session = open_session("cm5", 32)
    run_benchmark("pic-gather-scatter", session, nx=8, n_p=64, steps=1)
    print(trace_summary(session.recorder))


if __name__ == "__main__":
    main()
