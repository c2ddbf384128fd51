"""rp: nonsymmetric linear equations by the conjugate gradient method.

Paper class: structured 3-D grid, linear, iterative, Dirichlet
boundaries.  Table 5 layout: ``x(:,:,:)``.  Table 6:
``44 n_x n_y n_z`` FLOPs per iteration, **2 Reductions and 12 CSHIFTs
(two 7-point stencils)** per iteration, ``60 n_x n_y n_z`` bytes.

A nonsymmetric operator (convection-diffusion: the upwind couplings
differ fore/aft) requires CG on the normal equations: each iteration
applies both ``A`` (one 7-point stencil = 6 CSHIFTs) and ``A^T``
(the second stencil, 6 more CSHIFTs) — exactly the paper's 12.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.comm.primitives import cshift, reduce_array
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind


class _Operator:
    """Constant-coefficient nonsymmetric 7-point operator, periodic.

    The operator owns one shift buffer and one term buffer, allocated
    from the template operand ``like`` (so an audited payload stays
    audited), and writes each stencil into an output the caller
    passes in: applying it allocates nothing.
    """

    def __init__(
        self, session: Session, like: DistArray, diag=7.0, eps=0.25
    ) -> None:
        self.session = session
        self.layout = like.layout
        self.diag = diag
        # Asymmetric fore/aft couplings per axis.
        self.lo = (-1.0 - eps, -1.0 - eps / 2, -1.0 - eps / 4)
        self.hi = (-1.0 + eps, -1.0 + eps / 2, -1.0 + eps / 4)
        self._shifted = DistArray(np.empty_like(like.data), like.layout, session)
        self._term = np.empty_like(like.data)

    def _stencil(self, p: DistArray, out: DistArray, transposed: bool) -> DistArray:
        """7-point stencil application into ``out``: 6 CSHIFTs, 13 FLOPs/point."""
        session = self.session
        lo = self.hi if transposed else self.lo
        hi = self.lo if transposed else self.hi
        shifted, term, acc = self._shifted, self._term, out.data
        # Same products and additions in the same order as
        # ``out = diag*p + lo*pm + hi*pp`` per axis (bit-identical),
        # with every temporary in a buffer the operator owns.
        np.multiply(self.diag, p.data, out=acc)
        for axis in range(3):
            cshift(p, -1, axis=axis, out=shifted)
            np.multiply(lo[axis], shifted.data, out=term)
            np.add(acc, term, out=acc)
            cshift(p, +1, axis=axis, out=shifted)
            np.multiply(hi[axis], shifted.data, out=term)
            np.add(acc, term, out=acc)
        session.charge_elementwise(FlopKind.MUL, p.layout, ops_per_element=7)
        session.charge_elementwise(FlopKind.ADD, p.layout, ops_per_element=6)
        return out

    def apply(self, p: DistArray, out: DistArray) -> DistArray:
        """Write A p (forward stencil) into ``out``."""
        return self._stencil(p, out, transposed=False)

    def apply_t(self, p: DistArray, out: DistArray) -> DistArray:
        """Write A^T p (transposed stencil) into ``out``."""
        return self._stencil(p, out, transposed=True)

    def dense(self) -> np.ndarray:
        """Dense matrix form for verification."""
        nx, ny, nz = self.layout.shape
        n = nx * ny * nz
        A = np.zeros((n, n))
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    row = (i * ny + j) * nz + k
                    A[row, row] += self.diag
                    for axis, (li, hj) in enumerate(zip(self.lo, self.hi)):
                        coords = [i, j, k]
                        coords[axis] = (coords[axis] - 1) % (nx, ny, nz)[axis]
                        A[row, (coords[0] * ny + coords[1]) * nz + coords[2]] += li
                        coords = [i, j, k]
                        coords[axis] = (coords[axis] + 1) % (nx, ny, nz)[axis]
                        A[row, (coords[0] * ny + coords[1]) * nz + coords[2]] += hj
        return A


def run(
    session: Session,
    nx: int = 16,
    ny: int | None = None,
    nz: int | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    seed: int = 0,
) -> AppResult:
    """Solve the nonsymmetric system by CGNR."""
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    shape = (nx, ny, nz)
    layout = parse_layout("(:,:,:)", shape)
    rng = np.random.default_rng(seed)
    f = DistArray(rng.standard_normal(shape), layout, session, "f")
    op = _Operator(session, f)
    # Table 6 memory: 60 n bytes single ~ x, r, s, p, q, f and the
    # coefficient bookkeeping.
    for name in ("f", "x", "r", "s", "p", "q"):
        session.declare_memory(name, shape, np.float64)

    if max_iter is None:
        max_iter = 10 * nx * ny * nz
    x = DistArray(np.zeros(shape), layout, session, "x")
    r = f.copy("r")
    # The solve's vectors and one work array live for the whole solve.
    # Each update below is the operator expression in the comment
    # beside it, spelled with numpy ``out=`` in the same operand order
    # and charged with the same FLOP kinds in the same order.
    s = op.apply_t(r, DistArray(np.empty_like(f.data), layout, session, "s"))
    p = s.copy("p")
    q = DistArray(np.empty_like(f.data), layout, session, "q")
    work = DistArray(np.empty_like(f.data), layout, session)
    np.multiply(s.data, s.data, out=work.data)  # s * s
    session.charge_elementwise(FlopKind.MUL, layout)
    gamma = reduce_array(work, "sum")
    it = 0
    res = float(np.sqrt(gamma))
    with session.region("main_loop", iterations=1) as region:
        while it < max_iter and res > tol:
            op.apply(p, q)  # stencil 1: 6 CSHIFTs
            np.multiply(q.data, q.data, out=work.data)  # q * q
            session.charge_elementwise(FlopKind.MUL, layout)
            qq = reduce_array(work, "sum")  # Reduction 1
            alpha = gamma / qq
            session.recorder.charge_flops(FlopKind.DIV, 1)
            np.multiply(alpha, p.data, out=work.data)  # x += alpha * p
            session.charge_elementwise(FlopKind.MUL, layout)
            np.add(x.data, work.data, out=x.data)
            session.charge_elementwise(FlopKind.ADD, layout)
            np.multiply(alpha, q.data, out=work.data)  # r -= alpha * q
            session.charge_elementwise(FlopKind.MUL, layout)
            np.subtract(r.data, work.data, out=r.data)
            session.charge_elementwise(FlopKind.SUB, layout)
            op.apply_t(r, s)  # stencil 2: 6 CSHIFTs
            np.multiply(s.data, s.data, out=work.data)  # s * s
            session.charge_elementwise(FlopKind.MUL, layout)
            gamma_new = reduce_array(work, "sum")  # Reduction 2
            beta = gamma_new / gamma
            session.recorder.charge_flops(FlopKind.DIV, 1)
            np.multiply(beta, p.data, out=work.data)  # p = s + beta * p
            session.charge_elementwise(FlopKind.MUL, layout)
            np.add(s.data, work.data, out=p.data)
            session.charge_elementwise(FlopKind.ADD, layout)
            gamma = gamma_new
            res = float(np.sqrt(gamma_new))
            session.recorder.charge_flops(FlopKind.SQRT, 1)
            it += 1
        region.iterations = max(1, it)
    return AppResult(
        name="rp",
        iterations=it,
        problem_size=nx * ny * nz,
        local_access=LocalAccess.NA,
        observables={"residual_normal": res, "iterations": float(it)},
        state={"x": x.np.copy(), "f": f.np.copy(), "operator": op},
    )
