"""diff-1D: the 1-D diffusion equation via a tridiagonal solver.

Paper class: structured grid, linear, direct solver, homogeneous,
constant boundary conditions (§4).  Table 5 layout: ``x(:)``.
Table 6: ``13 n_x + 4 P log P - 8`` FLOPs per iteration, one 3-point
stencil plus the substructured tridiagonal solve (PCR across the
processor interfaces — the ``P``-dependent term), no local axes.

Implementation: Crank-Nicolson time stepping of ``u_t = nu u_xx`` with
fixed (constant) boundary values.  Each step evaluates the explicit
half via a 3-point stencil (array sections per Table 8) and solves the
implicit half with :func:`repro.linalg.pcr.pcr_solve`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.comm.stencil import stencil_shifts
from repro.layout.spec import parse_layout
from repro.linalg.pcr import pcr_solve
from repro.machine.session import Session
from repro.metrics.access import LocalAccess


def run(
    session: Session,
    nx: int = 256,
    steps: int = 10,
    nu: float = 0.1,
    dt: float = 0.1,
) -> AppResult:
    """Diffuse an initial sine profile; returns decay observables."""
    h = 1.0 / nx
    r = nu * dt / (h * h)
    x = np.arange(nx) * h
    u = DistArray(np.sin(2 * np.pi * x), parse_layout("(:)", (nx,)), session, "u")
    session.declare_memory("u", (nx,), np.float64)
    session.declare_memory("rhs", (nx,), np.float64)
    # Table 6 memory: 32 n_x bytes double = 4 n-vectors (u, rhs and the
    # implicit system's diagonals).
    session.declare_memory("diagonals", (2, nx), np.float64)

    # Constant-coefficient Crank-Nicolson tridiagonal (periodic domain;
    # the sine mode is periodic so constant BCs are honoured exactly).
    lo = np.full(nx, -0.5 * r)
    di = np.full(nx, 1.0 + r)
    up = np.full(nx, -0.5 * r)
    spec = parse_layout("(:)", (nx,))
    a = DistArray(lo, spec, session, "a")
    b = DistArray(di, spec, session, "b")
    c = DistArray(up, spec, session, "c")

    initial_norm = float(np.abs(u.np).max())
    with session.region("main_loop", iterations=steps):
        for _ in session.iterations(range(steps)):
            # Explicit half: one 3-point stencil (array sections).
            um, uc, up_ = stencil_shifts(u, [-1, 0, 1], boundary="periodic")
            scale = 0.5 * r
            rhs = uc + scale * (um - 2.0 * uc + up_)
            # 13 n_x FLOPs per iteration: the stencil combine above
            # charges 5 n (2 mul + 3 add/sub); the solve charges the rest.
            f = DistArray(
                rhs.data[None, :], parse_layout("(:serial,:)", (1, nx)),
                session,
            )
            sol = pcr_solve(a, b, c, f)
            u = DistArray(sol.data[0], spec, session, "u")
    final_norm = float(np.abs(u.np).max())
    mode_decay = final_norm / initial_norm
    # Exact Crank-Nicolson amplification for the k=1 Fourier mode.
    lam = 2.0 * (np.cos(2 * np.pi / nx) - 1.0)
    g = (1.0 + 0.5 * r * lam) / (1.0 - 0.5 * r * lam)
    return AppResult(
        name="diff-1d",
        iterations=steps,
        problem_size=nx,
        local_access=LocalAccess.NA,
        observables={
            "mode_decay": mode_decay,
            "expected_decay": float(g**steps),
            "max_abs": final_norm,
        },
        state={"u": u.np.copy()},
    )
