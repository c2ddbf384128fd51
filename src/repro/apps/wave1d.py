"""wave-1D: the inhomogeneous 1-D wave equation.

Paper class: structured grid, linear, inhomogeneous (variable wave
speed — stencils with variable coefficients), periodic boundaries.
Table 5 layout: ``x(:)``.  Table 6: ``29 n_x + 10 n_x log n_x`` FLOPs
per iteration, **12 CSHIFTs and 2 1-D FFTs** per iteration,
``64 n_x`` bytes (8 n-vectors).

Implementation: leapfrog time stepping of ``u_tt = c(x)^2 u_xx`` in
flux form.  The second derivative is evaluated spectrally (forward +
inverse FFT = the 2 FFTs, ``10 n log n`` FLOPs), and a sixth-order
artificial-dissipation filter — a 13-point stencil built from
cshifts of distances 1..6 in both directions (the 12 CSHIFTs) —
stabilizes the variable-coefficient update.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.array.roll import fast_roll
from repro.comm.primitives import cshift
from repro.layout.spec import parse_layout
from repro.linalg.fft import fft as _fft
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind

#: binomial weights of the 6th-order dissipation stencil (-1)^k C(12, 6+k)
_DISS_WEIGHTS = {
    0: 924.0,
    1: -792.0,
    2: 495.0,
    3: -220.0,
    4: 66.0,
    5: -12.0,
    6: 1.0,
}

#: per-step ``(kind, ops_per_element)`` charges of the dissipation
#: filter: one MUL for the center tap, then MUL + 2 ADDs per distance
#: d = 1..6 — the exact charge sequence of the spelled-out
#: ``filt + w*(um + up)`` chain
_FILTER_STEPS = ((FlopKind.MUL, 1),) + 6 * ((FlopKind.MUL, 1), (FlopKind.ADD, 2))

#: leapfrog update ``2u - u_prev + dt^2*(c^2*uxx) - eps*filt``:
#: MUL, SUB, MUL, MUL, ADD, MUL, SUB in expression-evaluation order
_LEAPFROG_KINDS = (
    FlopKind.MUL,
    FlopKind.SUB,
    FlopKind.MUL,
    FlopKind.MUL,
    FlopKind.ADD,
    FlopKind.MUL,
    FlopKind.SUB,
)


@lru_cache(maxsize=64)
def _neg_k_squared(n: int) -> np.ndarray:
    """``-(k*k)`` for integer angular wavenumbers on a 2*pi domain."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return -(k * k)


def _spectral_uxx(u: DistArray) -> DistArray:
    """Second spatial derivative via forward + inverse FFT."""
    session = u.session
    uh = _fft(u.astype(np.complex128))
    uh.data *= _neg_k_squared(u.size)
    session.charge_elementwise(FlopKind.MUL, u.layout, complex_valued=True)
    uxx = _fft(uh, inverse=True)
    return DistArray(uxx.data.real.copy(), u.layout, session)


def run(
    session: Session,
    nx: int = 128,
    steps: int = 20,
    dt: float | None = None,
    epsilon: float = 1e-4,
    homogeneous: bool = False,
    seed: int = 0,
) -> AppResult:
    """Propagate a standing wave; returns energy-drift observables."""
    L = 2.0 * np.pi
    h = L / nx
    xs = np.arange(nx) * h
    if homogeneous:
        c2 = np.ones(nx)
    else:
        rng = np.random.default_rng(seed)
        c2 = 1.0 + 0.3 * np.sin(xs + rng.uniform(0, np.pi))
    if dt is None:
        dt = 0.2 * h / np.sqrt(c2.max())

    layout = parse_layout("(:)", (nx,))
    u = DistArray(np.sin(xs), layout, session, "u")
    # Exact standing-wave history for homogeneous c: u(x,t)=sin x cos t.
    u_prev = DistArray(
        np.sin(xs) * np.cos(-dt) if homogeneous else np.sin(xs),
        layout,
        session,
        "u_prev",
    )
    c2d = DistArray(c2, layout, session, "c2")
    # Table 6 memory: 64 n_x — 8 n-vectors (u, u_prev, u_next, c^2,
    # spectral workspace real+imag, filter workspace, rhs).
    for name in ("u", "u_prev", "u_next", "c2", "wr", "wi", "filt", "rhs"):
        session.declare_memory(name, (nx,), np.float64)

    energy0 = _energy(u.np, u_prev.np, c2, dt, h)
    dt2 = dt * dt
    filt = np.empty(nx)
    tmp = np.empty(nx)
    with session.region("main_loop", iterations=steps):
        for _ in range(steps):
            uxx = _spectral_uxx(u)  # 2 FFTs, 10 n log n FLOPs
            # 12 CSHIFTs: 6th-order dissipation filter, distances 1..6.
            # filt = sum_d w_d * (u_{i-d} + u_{i+d}), accumulated into a
            # reused buffer; the accounting below charges the same MUL +
            # 2 ADDs per distance as the spelled-out expression.
            np.multiply(u.data, _DISS_WEIGHTS[0], out=filt)
            for d in range(1, 7):
                um = cshift(u, -d)
                up = cshift(u, +d)
                np.add(um.data, up.data, out=tmp)
                np.multiply(tmp, _DISS_WEIGHTS[d], out=tmp)
                np.add(filt, tmp, out=filt)
            for kind, ops in _FILTER_STEPS:
                session.charge_elementwise(kind, layout, ops_per_element=ops)
            # Leapfrog update with variable coefficients, in place:
            # u_next = 2u - u_prev + dt^2 * (c^2 * uxx) - eps * filt.
            acc = np.multiply(u.data, 2.0)
            np.subtract(acc, u_prev.data, out=acc)
            np.multiply(c2d.data, uxx.data, out=uxx.data)
            np.multiply(uxx.data, dt2, out=uxx.data)
            np.add(acc, uxx.data, out=acc)
            np.multiply(filt, epsilon, out=tmp)
            np.subtract(acc, tmp, out=acc)
            for kind in _LEAPFROG_KINDS:
                session.charge_elementwise(kind, layout)
            u_next = DistArray(acc, layout, session)
            u_prev, u = u, u_next
    energy1 = _energy(u.np, u_prev.np, c2, dt, h)
    return AppResult(
        name="wave-1d",
        iterations=steps,
        problem_size=nx,
        local_access=LocalAccess.NA,
        observables={
            "energy_initial": energy0,
            "energy_final": energy1,
            "energy_drift": abs(energy1 - energy0) / max(energy0, 1e-300),
            "max_abs": float(np.abs(u.np).max()),
        },
        state={"u": u.np.copy(), "u_prev": u_prev.np.copy(), "dt": dt, "c2": c2},
    )


def _energy(u: np.ndarray, u_prev: np.ndarray, c2: np.ndarray, dt: float, h: float) -> float:
    """Discrete wave energy: kinetic + potential."""
    ut = (u - u_prev) / dt
    ux = (fast_roll(u, -1) - fast_roll(u, 1)) / (2 * h)
    return float(0.5 * h * np.sum(ut * ut + c2 * ux * ux))
