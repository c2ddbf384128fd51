"""Tridiagonal solution by the conjugate gradient method.

Table 2: ``X(:)`` — a single system, all vectors parallel 1-D.
Table 4 charges ``15 n`` FLOPs, 4 CSHIFTs and 3 Reductions per
iteration, with a memory footprint of ``40 n`` bytes double — exactly
five n-vectors (x, r, s, p, q), which identifies the implementation:
the matrix is a *constant-coefficient* (stencil) periodic tridiagonal
operator and is never stored, and the solver is CG on the normal
equations (CGNR) so that nonsymmetric coefficient triples are handled
— each iteration applies both ``A`` (2 CSHIFTs) and ``A^T``
(2 CSHIFTs) and takes three inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.array.distarray import DistArray
from repro.comm.primitives import cshift, reduce_array
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.flops import FlopKind


@dataclass
class CGResult:
    """Solution vector with iteration count and final residual."""

    x: DistArray
    iterations: int
    residual_norm: float


def _apply(lo: float, di: float, up: float, v: DistArray) -> DistArray:
    """``(A v)_i = lo*v_(i-1) + di*v_i + up*v_(i+1)`` (periodic)."""
    vm = cshift(v, -1)  # v_(i-1)
    vp = cshift(v, +1)  # v_(i+1)
    return di * v + lo * vm + up * vp


def cg_tridiagonal(
    session: Session,
    f: DistArray,
    *,
    lower: float = -1.0,
    diag: float = 4.0,
    upper: float = -1.0,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
) -> CGResult:
    """Solve the periodic constant-coefficient tridiagonal system.

    Uses CGNR: minimizes ``||A x - f||`` via CG on ``A^T A``, which
    converges for any nonsingular coefficient triple, symmetric or not.
    """
    n = f.size
    if max_iter is None:
        max_iter = 2 * n
    x = DistArray(np.zeros(n), f.layout, session, "x")
    # r = f - A x = f initially.
    r = f.copy("r")
    # s = A^T r (A^T has lower/upper swapped).
    s = _apply(upper, diag, lower, r)
    p = s.copy("p")
    gamma = reduce_array(s * s, "sum")

    for name in ("x", "r", "s", "p", "q"):
        session.declare_memory(name, (n,), np.float64)

    it = 0
    res = float(np.sqrt(reduce_array(r * r, "sum")))
    with session.region("main_loop", iterations=1) as region:
        # The convergence test closes each trip, so every marked trip
        # runs; an already converged start runs none.
        for trip in session.iterations(range(max_iter if res > tol else 0)):
            q = _apply(lower, diag, upper, p)  # 2 CSHIFTs, 5n FLOPs
            qq = reduce_array(q * q, "sum")  # Reduction 1
            if qq == 0.0:
                break
            alpha = gamma / qq
            session.recorder.charge_flops(FlopKind.DIV, 1)
            x += alpha * p
            r -= alpha * q
            s = _apply(upper, diag, lower, r)  # 2 CSHIFTs
            gamma_new = reduce_array(s * s, "sum")  # Reduction 2
            beta = gamma_new / gamma if gamma else 0.0
            session.recorder.charge_flops(FlopKind.DIV, 1)
            p = s + beta * p
            gamma = gamma_new
            res = float(np.sqrt(reduce_array(r * r, "sum")))  # Reduction 3
            session.recorder.charge_flops(FlopKind.SQRT, 1)
            it = trip + 1
            if not res > tol:
                break
        region.iterations = max(1, it)
    return CGResult(x=x, iterations=it, residual_norm=res)


def make_rhs(session: Session, n: int, seed: int = 0) -> DistArray:
    """A random right-hand side with the Table-2 layout."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n)
    return DistArray(f, parse_layout("(:)", (n,)), session, "f")


def reference_solve(n, lower, diag, upper, f):
    """Periodic constant-coefficient tridiagonal reference.

    The matrix is circulant (first column ``[diag, lower, 0, ...,
    upper]``, with overlapping corners summed for n <= 2), so it
    diagonalizes in the Fourier basis: solve in O(n log n) instead of
    building and factoring the dense n x n operator.
    """
    c = np.zeros(n)
    c[0] += diag
    c[1 % n] += lower
    c[(n - 1) % n] += upper
    eig = np.fft.fft(c)
    x = np.fft.ifft(np.fft.fft(np.asarray(f, dtype=float)) / eig)
    return x.real
