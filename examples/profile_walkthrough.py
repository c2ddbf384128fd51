#!/usr/bin/env python
"""Profile walkthrough: trace a benchmark on the simulated clock.

Attaches a :class:`repro.obs.SpanCollector` to a session, runs the
conjugate-gradient benchmark, and walks through everything the span
layer offers:

* the text profile (top regions by busy time, per-pattern comm
  attribution),
* exact reconciliation of span totals against the PerfReport,
* a Chrome trace (load ``cg_trace.json`` in https://ui.perfetto.dev),
* a folded flamegraph (``cg_stacks.folded`` for flamegraph.pl or
  speedscope).

Usage::

    python examples/profile_walkthrough.py
"""

import tempfile
from pathlib import Path

from repro import open_session, run_benchmark
from repro.obs import (
    SpanCollector,
    chrome_trace,
    folded_stacks,
    render_profile,
    validate_chrome_trace,
    write_chrome_trace,
    write_folded,
)


def main() -> None:
    session = open_session("cm5", 32)
    collector = SpanCollector().attach(session)
    report = run_benchmark("conj-grad", session, n=512)
    collector.finalize()

    print(f"machine: {session.machine.describe()}")
    print()
    print(render_profile(collector, benchmark="conj-grad"))
    print()

    # Span totals reconcile with the report exactly — not approximately.
    totals = collector.totals()
    assert totals["busy_time_s"] == report.busy_time
    assert totals["flop_count"] == report.flop_count
    print("reconciliation: span totals == report totals (bit-exact)")
    print(f"  busy  {totals['busy_time_s']:.9f} s")
    print(f"  flops {totals['flop_count']:,}")

    iterations = sum(
        1 for span in collector.root.walk() if span.kind == "iteration"
    )
    print(f"  iteration spans {iterations} (CG iterations {report.iterations})")
    print()

    outdir = Path(tempfile.mkdtemp(prefix="repro-profile-"))
    trace = chrome_trace(collector, benchmark="conj-grad")
    problems = validate_chrome_trace(trace)
    assert not problems, problems
    write_chrome_trace(trace, outdir / "cg_trace.json")
    print(f"chrome trace: {outdir / 'cg_trace.json'}"
          f" ({len(trace['traceEvents'])} events)"
          " — open in ui.perfetto.dev or chrome://tracing")

    stacks = folded_stacks(collector, root_frame="conj-grad")
    write_folded(collector, outdir / "cg_stacks.folded", root_frame="conj-grad")
    print(f"folded flamegraph: {outdir / 'cg_stacks.folded'}"
          f" ({len(stacks)} stack(s))"
          " — feed to flamegraph.pl or speedscope")
    for line in stacks:
        print(f"  {line}")


if __name__ == "__main__":
    main()
