#!/usr/bin/env python
"""A downstream application built on the DPF substrate: 2-D multigrid.

The suite's API is meant to be adopted, not just benchmarked.  This
example implements a geometric multigrid V-cycle for the 2-D Poisson
equation using only public primitives — cshift stencils for smoothing
and residuals, gather/scatter for restriction and prolongation — and
compares its simulated cost against plain Jacobi iteration at equal
accuracy.  Multigrid's textbook result (grid-independent convergence)
emerges from the same accounting machinery the suite uses.
"""

import numpy as np

from repro import open_session
from repro.array import from_numpy
from repro.comm.stencil import stencil_apply

LAPLACIAN = {
    (0, 0): -4.0, (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
}


def residual(u, f):
    """r = f - A u with A = -laplacian (periodic, zero-mean)."""
    au = stencil_apply(u, LAPLACIAN)
    return f + au  # A = -lap  ->  r = f - (-lap u)


def jacobi_smooth(u, f, sweeps=2, omega=0.8):
    for _ in range(sweeps):
        r = residual(u, f)
        u = u + (omega / 4.0) * r
    return u


def restrict(session, fine):
    """Full-weighting restriction to the half grid (gather pattern)."""
    d = fine.np
    dn = np.roll(d, 1, 0)
    ds = np.roll(d, -1, 0)
    coarse = (
        0.25 * d
        + 0.125 * (dn + ds + np.roll(d, 1, 1) + np.roll(d, -1, 1))
        + 0.0625 * (
            np.roll(dn, 1, 1) + np.roll(dn, -1, 1)
            + np.roll(ds, 1, 1) + np.roll(ds, -1, 1)
        )
    )[::2, ::2]
    session.charge_kernel(12 * coarse.size, critical_fraction=1.0 / session.nodes)
    return from_numpy(session, coarse, "(:,:)")


def prolong(session, coarse, shape):
    """Bilinear prolongation to the fine grid (scatter pattern)."""
    c = coarse.np
    fine = np.zeros(shape)
    fine[::2, ::2] = c
    fine[1::2, ::2] = 0.5 * (c + np.roll(c, -1, 0))
    fine[::2, 1::2] = 0.5 * (c + np.roll(c, -1, 1))
    fine[1::2, 1::2] = 0.25 * (
        c + np.roll(c, -1, 0) + np.roll(c, -1, 1)
        + np.roll(np.roll(c, -1, 0), -1, 1)
    )
    session.charge_kernel(4 * fine.size, critical_fraction=1.0 / session.nodes)
    return from_numpy(session, fine, "(:,:)")


def v_cycle(session, u, f, min_size=8):
    u = jacobi_smooth(u, f)
    if u.shape[0] > min_size:
        r = residual(u, f)
        # The unscaled 5-point stencil absorbs h^2: the coarse-grid
        # equation needs the residual scaled by (2h/h)^2 = 4.
        rc = restrict(session, r) * 4.0
        zero = from_numpy(session, np.zeros_like(rc.np), "(:,:)")
        ec = v_cycle(session, zero, rc, min_size)
        u = u + prolong(session, ec, u.shape)
    return jacobi_smooth(u, f)


def solve(session, f, method, tol=1e-8, max_cycles=200):
    u = from_numpy(session, np.zeros_like(f.np), "(:,:)")
    history = []
    for _cycle in range(max_cycles):
        u = method(session, u, f)
        res = float(np.abs(residual(u, f).np).max())
        history.append(res)
        if res < tol:
            break
    return u, history


def main() -> None:
    n = 64
    rng = np.random.default_rng(0)
    f_data = rng.standard_normal((n, n))
    f_data -= f_data.mean()  # periodic Poisson needs zero mean

    for label, method in (
        ("multigrid V-cycles", v_cycle),
        ("damped Jacobi (x20 sweeps/cycle)",
         lambda s, u, f: jacobi_smooth(u, f, sweeps=20)),
    ):
        session = open_session("cm5", 32)
        f = from_numpy(session, f_data, "(:,:)")
        u, history = solve(session, f, method, tol=1e-6)
        rec = session.recorder
        print(f"{label}")
        print(f"  cycles to 1e-6 residual: {len(history)}")
        print(f"  final residual: {history[-1]:.2e}")
        print(
            f"  simulated busy {rec.busy_time * 1e3:.2f} ms, "
            f"elapsed {rec.elapsed_time * 1e3:.2f} ms, "
            f"flops {rec.total_flops}"
        )
        print()


if __name__ == "__main__":
    main()
