#!/usr/bin/env python
"""Quickstart: run one DPF benchmark and read its performance report.

The DPF suite evaluates data-parallel software environments (compilers,
run-time systems, libraries) by running characteristic codes on a
machine model and reporting the paper's §1.5 metrics: busy/elapsed
times, FLOP rates, FLOP count, memory usage, communication counts and
arithmetic efficiency.

Usage::

    python examples/quickstart.py [benchmark-name]
"""

import sys

from repro import open_session, run_benchmark
from repro.suite import REGISTRY


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ellip-2d"
    if name not in REGISTRY:
        print(f"unknown benchmark {name!r}. Available:")
        for n in sorted(REGISTRY):
            print(f"  {n:22s} {REGISTRY[n].description}")
        raise SystemExit(1)

    # A 32-node CM-5 partition: 4 vector units per node at 32 MFLOP/s
    # peak each (the paper's reference platform).
    session = open_session("cm5", 32)
    print(f"machine: {session.machine.describe()}")
    print(f"benchmark: {name} — {REGISTRY[name].description}")
    print()

    report = run_benchmark(name, session)

    print(report.summary())
    print()
    print("verification observables:")
    for key, value in report.extra.items():
        print(f"  {key:28s} {value:.6g}")


if __name__ == "__main__":
    main()
