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
from repro.suite import SMALL_PARAMS, run_benchmark, run_suite
from repro.suite.tables import format_table

def main() -> None:
    reports = run_suite(lambda: open_session("cm5", 32), params=SMALL_PARAMS)
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
