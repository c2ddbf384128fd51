"""Collective communication library (paper §2 and §1.5 attribute (4)).

Implements the full DPF communication-pattern vocabulary over
:class:`~repro.array.DistArray`: circular and end-off shifts, spreads,
reductions, broadcasts, all-to-all personalized communication
(transpose/remap), gather and scatter with combiners, general
send/get, scans (plain and segmented), parallel sort, and stencil
evaluation.  Every call moves real data with NumPy, charges the
machine's network model, and adds one occurrence to its region's
``(pattern, rank, detail)`` communication stream.

On the CM-5 these functions correspond to the run-time system's
collective communication library and the CMF intrinsics; several of
them are also the building blocks MPI standardized (paper §1.1).
"""

from repro.comm.primitives import (
    broadcast,
    cshift,
    eoshift,
    get,
    reduce_array,
    reduce_location,
    remap,
    send,
    spread,
    transpose,
)
from repro.comm.gather_scatter import gather, gather_combine, scatter
from repro.comm.scan import scan, segmented_copy_scan, segmented_scan
from repro.comm.sorting import argsort, sort_array
from repro.comm.stencil import stencil_apply, stencil_shifts

__all__ = [
    "argsort",
    "broadcast",
    "cshift",
    "eoshift",
    "gather",
    "gather_combine",
    "get",
    "reduce_array",
    "reduce_location",
    "remap",
    "scan",
    "scatter",
    "segmented_copy_scan",
    "segmented_scan",
    "send",
    "sort_array",
    "spread",
    "stencil_apply",
    "stencil_shifts",
    "transpose",
]
