"""diff-3D: the 3-D diffusion equation by explicit finite differences.

Paper class: structured grid, linear, homogeneous, constant boundary
conditions, communication local to the grid.  Table 5 layout:
``x(:,:,:)`` — all axes parallel.  Table 6: **exactly**
``9 (n_x-2)(n_y-2)(n_z-2)`` FLOPs per iteration, one 7-point stencil,
no local axes (``N/A`` access).

The 9-FLOP interior update is the factored form

    u' = u + r * (sum of 6 neighbours - 6 u)

(5 adds for the neighbour sum, 1 multiply and 1 subtract for the
``-6u`` term, 1 multiply by ``r``, 1 final add), evaluated on interior
array sections per Table 8.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.array.distarray import DistArray
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.patterns import CommPattern


def run(
    session: Session,
    nx: int = 32,
    ny: int | None = None,
    nz: int | None = None,
    steps: int = 10,
    nu: float = 0.1,
    dt: float | None = None,
    naive: bool = False,
) -> AppResult:
    """Explicitly diffuse a hot interior block with fixed boundaries.

    ``naive=True`` evaluates the update in the un-factored form a
    straightforward user writes, ``u' = (1-6r) u + r*(sum of
    neighbours)`` over the whole array — more FLOPs for the identical
    result, the kind of difference the paper's *basic* vs *optimized*
    versions capture (ablated in the benchmark harness).
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    h = 1.0 / nx
    if dt is None:
        dt = 0.1 * h * h / nu  # comfortably inside the stability bound
    r = nu * dt / (h * h)

    layout = parse_layout("(:,:,:)", (nx, ny, nz))
    u = np.zeros((nx, ny, nz))
    u[nx // 4 : 3 * nx // 4, ny // 4 : 3 * ny // 4, nz // 4 : 3 * nz // 4] = 1.0
    field = DistArray(u, layout, session, "u")
    # Table 6 memory: 8 n_x n_y n_z bytes double — the field itself.
    session.declare_memory("u", (nx, ny, nz), np.float64)

    itemsize = u.itemsize
    interior = (nx - 2) * (ny - 2) * (nz - 2)
    initial_sum = float(u.sum())
    # Surface-exchange volume is the same every step; price it once.
    net = sum(
        layout.shift_network_elements(session.nodes, axis, 1) * itemsize * 2
        for axis in range(3)
    )
    bytes_local = layout.size * itemsize
    # Double buffering: the neighbour sum and the next field reuse
    # preallocated arrays instead of allocating seven temporaries/step.
    neigh = np.empty((max(nx - 2, 0), max(ny - 2, 0), max(nz - 2, 0)))
    work = np.empty_like(neigh)
    nxt = np.empty_like(u)
    with session.region("main_loop", iterations=steps):
        for _ in session.iterations(range(steps)):
            d = field.data
            c = d[1:-1, 1:-1, 1:-1]
            np.add(d[:-2, 1:-1, 1:-1], d[2:, 1:-1, 1:-1], out=neigh)
            np.add(neigh, d[1:-1, :-2, 1:-1], out=neigh)
            np.add(neigh, d[1:-1, 2:, 1:-1], out=neigh)
            np.add(neigh, d[1:-1, 1:-1, :-2], out=neigh)
            np.add(neigh, d[1:-1, 1:-1, 2:], out=neigh)
            np.copyto(nxt, d)
            if naive:
                # Unfactored form: 7 multiplies + 6 adds per interior
                # point (13 FLOPs) for the identical update.
                nxt[1:-1, 1:-1, 1:-1] = (1.0 - 6.0 * r) * c + r * neigh
                session.charge_kernel(13 * interior, layout=layout)
            else:
                # u' = u + r * (neigh - 6u), fused into the buffer.
                np.multiply(c, 6.0, out=work)
                np.subtract(neigh, work, out=work)
                np.multiply(work, r, out=work)
                np.add(c, work, out=nxt[1:-1, 1:-1, 1:-1])
                # Exactly 9 FLOPs per interior point (Table 6).
                session.charge_kernel(9 * interior, layout=layout)
            # One 7-point stencil: six surface exchanges pipelined.
            session.record_comm(
                CommPattern.STENCIL,
                bytes_network=net,
                bytes_local=bytes_local,
                rank=3,
                stages=6,
                detail="7-point",
            )
            field, nxt = DistArray(nxt, layout, session, "u"), d
    final = field.np
    return AppResult(
        name="diff-3d",
        iterations=steps,
        problem_size=nx * ny * nz,
        local_access=LocalAccess.NA,
        observables={
            "max": float(final.max()),
            "min": float(final.min()),
            "initial_sum": initial_sum,
            "final_sum": float(final.sum()),
        },
        state={"u": final.copy(), "r": r},
    )
