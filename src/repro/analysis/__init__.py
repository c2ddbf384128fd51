"""Analysis tools over suite runs.

The DPF paper positions its tables as "a primary guide in selecting
the appropriate code … according to a given set of goals and criteria"
(§1).  This package provides the programmatic counterparts:

* :mod:`repro.analysis.ratios` — computation-to-communication ratio
  and grain-size analysis per benchmark (the paper's attributes (5)
  and (6) turned into comparable numbers);
* :mod:`repro.analysis.compare` — environment comparisons: run the
  suite on two machine/tier configurations, rank winners, locate
  crossover problem sizes;
* :mod:`repro.analysis.trace` — a run's per-pattern communication
  profile (count, bytes, busy/idle seconds).
"""

from repro.analysis.bandwidth import BandwidthFit, measure_bisection_bandwidth
from repro.analysis.compare import EnvironmentComparison, compare_environments, find_crossover
from repro.analysis.ratios import RatioSummary, comm_to_comp_ratio, grain_size

__all__ = [
    "BandwidthFit",
    "EnvironmentComparison",
    "RatioSummary",
    "comm_to_comp_ratio",
    "compare_environments",
    "find_crossover",
    "grain_size",
    "measure_bisection_bandwidth",
]
