"""diff-2D: the 2-D diffusion equation via the alternating direction
implicit (ADI) method.

Paper class: structured grid, linear, direct solver, homogeneous,
constant boundaries.  Table 5 layout: ``x(:serial,:)`` — one grid axis
serial so the tridiagonal sweeps along it are node-local (Thomas
algorithm, strided local access), the other parallel.  Table 6:
``10 n_x^2 - 16 n_x + 16`` FLOPs per iteration, **one 3-point stencil
and one AAPC per iteration**, *strided* access.

One main-loop iteration is one ADI half-step: an explicit 3-point
stencil along the parallel axis, implicit Thomas sweeps along the
serial axis, and a transpose (AAPC) that rotates the sweep direction
for the next half-step.  The field therefore alternates orientation;
two iterations advance one full time step.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.comm.primitives import transpose
from repro.comm.stencil import stencil_shifts
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess


def _thomas_local(session: Session, rhs: np.ndarray, r: float, layout) -> np.ndarray:
    """Thomas algorithm along axis 0 (the serial axis), vectorized over
    columns; ~8 FLOPs per point at strided local access."""
    n = rhs.shape[0]
    lo = -0.5 * r
    di = 1.0 + r
    cp = np.empty(n)
    x = rhs.copy()
    cp[0] = lo / di
    x[0] = x[0] / di
    for i in range(1, n):
        denom = di - lo * cp[i - 1]
        cp[i] = lo / denom
        x[i] = (x[i] - lo * x[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    session.charge_kernel(8 * rhs.size, layout=layout, access=LocalAccess.STRIDED)
    return x


def run(
    session: Session,
    nx: int = 64,
    steps: int = 10,
    nu: float = 0.1,
    dt: float = 0.05,
) -> AppResult:
    """ADI diffusion of a product-of-sines mode; ``steps`` half-steps."""
    h = 1.0 / nx
    r = nu * dt / (h * h)
    xs = np.arange(nx) * h
    u0 = np.sin(2 * np.pi * xs)[:, None] * np.sin(2 * np.pi * xs)[None, :]
    layout = parse_layout("(:serial,:)", (nx, nx))
    u = DistArray(u0.copy(), layout, session, "u")
    # Table 6 memory: 32 n_x^2 double — field, rhs, and sweep workspace.
    for name in ("u", "rhs", "work", "cprime"):
        session.declare_memory(name, (nx, nx), np.float64)

    initial = float(np.abs(u.np).max())
    with session.region("main_loop", iterations=steps):
        for _ in session.iterations(range(steps)):
            # Explicit 3-point stencil along the parallel axis.
            um, uc, up = stencil_shifts(u, [(0, -1), (0, 0), (0, 1)])
            scale = 0.5 * r
            rhs = uc + scale * (um - 2.0 * uc + up)
            # Implicit Thomas sweeps along the serial axis.
            ux = _thomas_local(session, rhs.data, r, layout)
            # AAPC: rotate sweep direction for the next half-step.  The
            # transposed data keeps the fixed (:serial,:) distribution —
            # that data motion is exactly why this is an AAPC.
            u = transpose(
                DistArray(ux, layout, session, "u")
            ).relabel("(:serial,:)")
    final = float(np.abs(u.np).max())
    lam = 2.0 * (np.cos(2 * np.pi / nx) - 1.0)
    g_half = (1.0 + 0.5 * r * lam) / (1.0 - 0.5 * r * lam)
    return AppResult(
        name="diff-2d",
        iterations=steps,
        problem_size=nx * nx,
        local_access=LocalAccess.STRIDED,
        observables={
            "mode_decay": final / initial,
            "expected_decay": float(g_half**steps),
        },
        state={"u": u.np.copy()},
    )
