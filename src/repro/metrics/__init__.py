"""Performance-evaluation subsystem (paper §1.5).

The DPF paper characterizes every benchmark by busy/elapsed time, FLOP
rates, FLOP count, memory usage, communication patterns and counts, and
local-memory-access classification.  This subpackage provides:

* :mod:`repro.metrics.flops` — the FLOP accounting conventions
  (add/sub/mul = 1, div/sqrt = 4, log/trig = 8, reduction = N-1).
* :mod:`repro.metrics.access` — the local-memory-access classification
  (``N/A`` / ``direct`` / ``indirect`` / ``strided``).
* :mod:`repro.metrics.memory` — user-declared memory accounting and the
  paper's ``4(s)/8(d)`` size notation.
* :mod:`repro.metrics.recorder` — the hierarchical region recorder that
  accumulates FLOPs, communication and simulated time.
* :mod:`repro.metrics.report` — :class:`PerfReport`, the per-benchmark
  output record mirroring the paper's reported metrics.
"""

from repro.metrics.access import DEFAULT_ACCESS_PENALTY, LocalAccess
from repro.metrics.flops import (
    FLOP_COSTS,
    FlopCounter,
    FlopKind,
    flop_cost,
    reduction_flops,
    scan_flops,
)
from repro.metrics.memory import MemoryLedger, TypeTag, format_bytes_symbolic
from repro.metrics.patterns import CommPattern, PatternGroup
from repro.metrics.recorder import MetricsRecorder, Region
from repro.metrics.report import PerfReport, SegmentReport

__all__ = [
    "DEFAULT_ACCESS_PENALTY",
    "FLOP_COSTS",
    "CommPattern",
    "FlopCounter",
    "FlopKind",
    "LocalAccess",
    "MemoryLedger",
    "MetricsRecorder",
    "PatternGroup",
    "PerfReport",
    "Region",
    "SegmentReport",
    "TypeTag",
    "flop_cost",
    "format_bytes_symbolic",
    "reduction_flops",
    "scan_flops",
]
