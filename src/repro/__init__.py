"""DPF: A Data Parallel Fortran Benchmark Suite — Python reproduction.

A faithful reconstruction of the DPF benchmark suite (Hu, Johnsson,
Kehagias & Shalaby, IPPS 1997) on a simulated data-parallel machine:

* :mod:`repro.machine` — the simulated CM-5-class target (nodes, vector
  units, network cost models) and execution :class:`~repro.machine.Session`;
* :mod:`repro.layout`, :mod:`repro.array` — HPF-style layouts and
  data-parallel arrays with automatic FLOP/time accounting;
* :mod:`repro.comm` — the collective communication library;
* :mod:`repro.metrics` — the paper's performance-evaluation metrics;
* :mod:`repro.linalg` — the scientific-software-library stand-in
  (matvec, LU, QR, Gauss-Jordan, PCR, CG, Jacobi eigenanalysis, FFT);
* :mod:`repro.commbench` — the four communication benchmarks;
* :mod:`repro.apps` — the twenty application benchmarks;
* :mod:`repro.suite` — registry, runner, and regeneration of the
  paper's Tables 1-8.

Quickstart::

    from repro import Session, cm5, run_benchmark
    report = run_benchmark("ellip-2d", Session(cm5(32)), size=64)
    print(report.summary())
"""

from repro.array import (
    DistArray,
    axpy,
    fma,
    from_numpy,
    linear_combine,
    ones,
    scale_add,
    stencil_combine,
    zeros,
)
from repro.layout import Axis, Layout, parse_layout
from repro.machine import MachineModel, Session, cm5, cm5e, generic_cluster, workstation
from repro.sessions import open_session
from repro.metrics import (
    CommPattern,
    FlopKind,
    LocalAccess,
    MetricsRecorder,
    PerfReport,
    TypeTag,
)
from repro.versions import VersionTier

__version__ = "1.0.0"

__all__ = [
    "Axis",
    "CommPattern",
    "DistArray",
    "FlopKind",
    "Layout",
    "LocalAccess",
    "MachineModel",
    "MetricsRecorder",
    "PerfReport",
    "Session",
    "TypeTag",
    "VersionTier",
    "__version__",
    "axpy",
    "cm5",
    "cm5e",
    "fma",
    "from_numpy",
    "generic_cluster",
    "linear_combine",
    "ones",
    "open_session",
    "parse_layout",
    "run_benchmark",
    "scale_add",
    "stencil_combine",
    "workstation",
    "zeros",
]


def run_benchmark(name: str, session: "Session", **params):
    """Run one registered benchmark by name; see :mod:`repro.suite`."""
    from repro.suite.runner import run_benchmark as _run

    return _run(name, session, **params)
