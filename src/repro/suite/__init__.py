"""The benchmark suite: registry, runner and table regeneration.

* :mod:`repro.suite.registry` — all 32 benchmarks with their Table-1
  code versions, Table-2/5 layouts, Table-3/7 communication patterns
  and Table-8 implementation techniques;
* :mod:`repro.suite.adapters` — uniform ``(session, **params) ->``
  result wrappers around the linalg/commbench/app entry points;
* :mod:`repro.suite.runner` — run one benchmark or the whole suite,
  producing :class:`~repro.metrics.PerfReport` records;
* :mod:`repro.suite.analytic` — the closed-form per-iteration FLOP /
  memory / communication formulas of Tables 4 and 6;
* :mod:`repro.suite.tables` — regenerate the paper's Tables 1-8.
"""

from repro.suite.registry import (
    REGISTRY,
    SMALL_PARAMS,
    BenchmarkSpec,
    benchmark_names,
)
from repro.suite.runner import run_benchmark, run_suite

__all__ = [
    "REGISTRY",
    "SMALL_PARAMS",
    "BenchmarkSpec",
    "benchmark_names",
    "run_benchmark",
    "run_suite",
]
