"""n-body: a generic direct 2-D N-body solver for long-range forces.

Paper class (§4, (10)): every element communicates with every other.
Table 6 lists **eight variants** distinguished by how the all-to-all
broadcast is realized and whether arrays are padded ("fill") to the
machine-friendly size:

==================  ====================  ========================
variant             FLOPs per iteration   communication/iteration
==================  ====================  ========================
broadcast           17 n^2                3 Broadcasts
broadcast w/fill    17 n^2                3 Broadcasts
spread              17 n^2                3 SPREADs
spread w/fill       17 n^2                3 SPREADs
cshift              17 n (n-1)            3 CSHIFTs
cshift w/fill       17 n (n-1)            3 CSHIFTs
cshift w/sym        13.5 n(n-1) + 17 n·(n mod 2)   3 CSHIFTs
cshift w/sym+fill   13.5 n(n-1) + 17 n·(n mod 2)   2.5 CSHIFTs
==================  ====================  ========================

For broadcast/spread variants one main-loop iteration is a full force
evaluation; for the systolic cshift variants one iteration is one
systolic step (``n - 1`` of them, or ``n/2`` with the symmetry
optimization, each costing ``17 n`` FLOPs).

The 17-FLOP interaction is a softened 2-D gravitational kernel::

    dx, dy        2 subs
    r2 = dx^2 + dy^2 + eps        2 muls + 2 adds
    inv = m_j / r2                1 div  (4 FLOPs)
    f  = inv / sqrt(r2)  ->  via  s = sqrt(r2) (4), inv2 = inv*s ...

counted as 2+4+4+4+(fx,fy accumulate: 2 muls 2 adds)=... exactly 17
under the DPF conventions (see ``_interact``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import AppResult
from repro.array.roll import fast_roll
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.patterns import CommPattern

VARIANTS = (
    "broadcast",
    "broadcast_fill",
    "spread",
    "spread_fill",
    "cshift",
    "cshift_fill",
    "cshift_sym",
    "cshift_sym_fill",
)

_EPS = 1e-6


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


def _pair_forces(
    xi: np.ndarray,
    yi: np.ndarray,
    xj: np.ndarray,
    yj: np.ndarray,
    mj: np.ndarray,
    scratch: Tuple[np.ndarray, ...] | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Softened 2-D inverse-square attraction of i by j (17 FLOPs/pair).

    dx, dy (2 SUB=2) ; r2 = dx*dx + dy*dy + eps (2 MUL + 2 ADD = 4);
    s = sqrt(r2) (SQRT=4); w = mj / (r2 * s) (1 MUL + 1 DIV = 5);
    fx += w*dx, fy += w*dy (2 MUL = 2) — 17 FLOPs, accumulate adds
    charged to the caller's running sum.

    ``scratch`` (six arrays of the broadcast shape) makes the kernel
    allocation-free for systolic callers; the returned ``gx``/``gy``
    alias the last two scratch arrays and are valid until the next call.
    """
    if scratch is None:
        dx = xj - xi
        dy = yj - yi
        r2 = dx * dx + dy * dy + _EPS
        s = np.sqrt(r2)
        w = mj / (r2 * s)
        return w * dx, w * dy
    dx, dy, t1, t2, gx, gy = scratch
    np.subtract(xj, xi, out=dx)
    np.subtract(yj, yi, out=dy)
    np.multiply(dx, dx, out=t1)
    np.multiply(dy, dy, out=t2)
    np.add(t1, t2, out=t1)
    np.add(t1, _EPS, out=t1)  # r2
    np.sqrt(t1, out=t2)  # s
    np.multiply(t1, t2, out=t2)  # r2 * s
    np.divide(mj, t2, out=t2)  # w
    np.multiply(t2, dx, out=gx)
    np.multiply(t2, dy, out=gy)
    return gx, gy


def reference_forces(x, y, m):
    """Direct O(n^2) reference with the same softening.

    The full interaction matrix and the per-body row loop produce
    bit-identical forces (each row is an identical contiguous
    elementwise chain, and numpy's pairwise row sum matches the 1-D
    ``np.sum``; test-enforced), so the matrix form is used whenever its
    O(n^2) temporaries stay small and the loop only guards memory.
    """
    n = len(x)
    if n <= 1024:
        dx = x[None, :] - x[:, None]
        dy = y[None, :] - y[:, None]
        r2 = dx * dx + dy * dy + _EPS
        w = m[None, :] / (r2 * np.sqrt(r2))
        np.fill_diagonal(w, 0.0)
        return np.sum(w * dx, axis=1), np.sum(w * dy, axis=1)
    fx = np.zeros(n)
    fy = np.zeros(n)
    for i in range(n):
        dx = x - x[i]
        dy = y - y[i]
        r2 = dx * dx + dy * dy + _EPS
        w = m / (r2 * np.sqrt(r2))
        w[i] = 0.0
        fx[i] = np.sum(w * dx)
        fy[i] = np.sum(w * dy)
    return fx, fy


def run(
    session: Session,
    n: int = 64,
    variant: str = "spread",
    seed: int = 0,
) -> AppResult:
    """One force evaluation over ``n`` bodies with the given variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown n-body variant {variant!r}; one of {VARIANTS}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    m = rng.uniform(0.5, 1.5, n)

    fill = variant.endswith("_fill")
    m_pad = _next_pow2(n) if fill else n
    layout1 = parse_layout("(:)", (m_pad,))

    # Table 6 memory: 36 n single (x, y, m, fx, fy + travelling copies)
    # or 20 n + 36 m with fill (originals at n, working set at m).
    for name in ("x", "y", "mass", "fx", "fy"):
        session.declare_memory(name, (n,), np.float32)
    if fill:
        for name in ("xw", "yw", "mw", "fxw", "fyw"):
            session.declare_memory(name, (m_pad,), np.float32)

    xw = np.zeros(m_pad)
    yw = np.zeros(m_pad)
    mw = np.zeros(m_pad)  # padded bodies are massless -> no force
    xw[:n], yw[:n], mw[:n] = x, y, m
    fx = np.zeros(m_pad)
    fy = np.zeros(m_pad)
    itemsize = 8

    if variant.startswith("broadcast") or variant.startswith("spread"):
        pattern = (
            CommPattern.BROADCAST
            if variant.startswith("broadcast")
            else CommPattern.SPREAD
        )
        with session.region("main_loop", iterations=1):
            # 3 Broadcasts/SPREADs: x, y, m each replicated to the 2-D
            # interaction array (an AABC realization, Table 8).
            for name in ("x", "y", "m"):
                session.record_comm(
                    pattern,
                    bytes_network=(m_pad * m_pad - m_pad) * itemsize
                    if session.nodes > 1
                    else 0,
                    bytes_local=m_pad * m_pad * itemsize,
                    rank=1,
                    detail=f"{name} 1-D to 2-D",
                )
            gx, gy = _pair_forces(
                xw[:, None], yw[:, None], xw[None, :], yw[None, :], mw[None, :]
            )
            np.fill_diagonal(gx, 0.0)
            np.fill_diagonal(gy, 0.0)
            fx = gx.sum(axis=1)
            fy = gy.sum(axis=1)
            layout2 = parse_layout("(:,:)", (m_pad, m_pad))
            session.charge_kernel(17 * m_pad * m_pad, layout=layout2)
            # Row-sum reductions bring forces back to 1-D.
            for name in ("fx", "fy"):
                session.record_comm(
                    CommPattern.REDUCTION,
                    bytes_network=m_pad * itemsize,
                    rank=2,
                    detail=f"{name} 2-D to 1-D",
                )
            session.charge_reduction_flops(m_pad, 2 * m_pad, layout=layout2)
        iterations = 1
    elif variant in ("cshift", "cshift_fill"):
        # Systolic: travelling copies (xt, yt, mt) rotate past the
        # stationary bodies; n-1 steps, 3 CSHIFTs and 17 n FLOPs each.
        xt, yt, mt = xw.copy(), yw.copy(), mw.copy()
        steps = m_pad - 1
        shift_bytes = (
            round(layout1.shift_network_elements(session.nodes, 0, 1))
            * itemsize
        )
        scratch = tuple(np.empty(m_pad) for _ in range(6))
        with session.region("main_loop", iterations=steps):
            for _ in session.iterations(range(steps)):
                xt = fast_roll(xt, 1)
                yt = fast_roll(yt, 1)
                mt = fast_roll(mt, 1)
                for name in ("x", "y", "m"):
                    session.record_comm(
                        CommPattern.CSHIFT,
                        bytes_network=shift_bytes,
                        bytes_local=m_pad * itemsize,
                        rank=1,
                        detail=f"travelling {name}",
                    )
                gx, gy = _pair_forces(xw, yw, xt, yt, mt, scratch)
                fx += gx
                fy += gy
                session.charge_kernel(17 * m_pad, layout=layout1)
        iterations = steps
    else:  # cshift_sym / cshift_sym_fill
        # Newton's third law: only half the systolic steps; each step
        # accumulates the force on both partners.  The force arrays for
        # the travelling copies rotate along (the .5 in the paper's
        # 2.5 CSHIFTs amortizes returning them home).
        xt, yt, mt = xw.copy(), yw.copy(), mw.copy()
        ft_x = np.zeros(m_pad)
        ft_y = np.zeros(m_pad)
        steps = m_pad // 2
        shift_bytes = (
            round(layout1.shift_network_elements(session.nodes, 0, 1))
            * itemsize
        )
        scratch = tuple(np.empty(m_pad) for _ in range(6))
        with session.region("main_loop", iterations=steps):
            for step in session.iterations(range(1, steps + 1)):
                xt = fast_roll(xt, 1)
                yt = fast_roll(yt, 1)
                mt = fast_roll(mt, 1)
                ft_x = fast_roll(ft_x, 1)
                ft_y = fast_roll(ft_y, 1)
                n_shift = (
                    3 if variant == "cshift_sym" else (2 if step % 2 else 3)
                )
                for _k in range(n_shift):
                    session.record_comm(
                        CommPattern.CSHIFT,
                        bytes_network=shift_bytes,
                        bytes_local=m_pad * itemsize,
                        rank=1,
                        detail="travelling state",
                    )
                gx, gy = _pair_forces(xw, yw, xt, yt, mt, scratch)
                # On the final step of an even ring, each pair appears
                # twice (i sees j and j sees i); halve to avoid double
                # counting when folding back.
                scale = 0.5 if (step == steps and m_pad % 2 == 0) else 1.0
                fx += scale * gx
                fy += scale * gy
                # Reaction on the travelling copies (Newton's 3rd law):
                w_mass = np.where(mt > 0, mw / np.where(mt > 0, mt, 1.0), 0.0)
                ft_x += scale * (-gx) * w_mass
                ft_y += scale * (-gy) * w_mass
                session.charge_kernel(round(13.5 * m_pad), layout=layout1)
            # Return travelling force arrays to their home positions.
            ft_x = fast_roll(ft_x, -steps)
            ft_y = fast_roll(ft_y, -steps)
            fx += fast_roll(ft_x, 0)
            fy += fast_roll(ft_y, 0)
        iterations = steps

    fx = fx[:n]
    fy = fy[:n]
    rfx, rfy = reference_forces(x, y, m)
    err = float(
        np.max(np.abs(fx - rfx)) + np.max(np.abs(fy - rfy))
    )
    return AppResult(
        name=f"n-body/{variant}",
        iterations=iterations,
        problem_size=n,
        local_access=LocalAccess.DIRECT,
        observables={
            "force_error": err,
            "total_fx": float(fx.sum()),
            "total_fy": float(fy.sum()),
        },
        state={"fx": fx, "fy": fy, "ref_fx": rfx, "ref_fy": rfy},
    )
