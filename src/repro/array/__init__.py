"""Data-parallel arrays with HPF execution semantics.

:class:`DistArray` wraps a NumPy array together with a
:class:`~repro.layout.Layout` (which axes are serial/parallel) and the
:class:`~repro.machine.Session` it executes on.  Arithmetic on
DistArrays performs the real computation with NumPy *and* charges the
session: FLOPs under the paper's cost conventions, simulated compute
time for the critical node under the array's distribution.

Masked operations follow HPF semantics (paper §1.4): expressions are
evaluated for **all** elements; masks only gate assignment — so FLOPs
are charged for the whole array, exactly as the paper's counts do.

Collective data motion (cshift, spread, reductions across parallel
axes, gather/scatter, ...) lives in :mod:`repro.comm`; DistArray
reduction methods delegate there.
"""

from repro.array.distarray import DistArray
from repro.array.creation import (
    arange,
    empty,
    from_numpy,
    full,
    ones,
    random_uniform,
    zeros,
)
from repro.array.masks import merge, where

__all__ = [
    "DistArray",
    "arange",
    "empty",
    "from_numpy",
    "full",
    "merge",
    "ones",
    "random_uniform",
    "where",
    "zeros",
]
