"""boson: quantum many-body simulation for bosons on a 2-D lattice.

Paper class (§4, (9)): lattice-based Monte Carlo — "effectively Monte
Carlo simulations on a grid which involves fast stencil-like
communication".  Table 5 layout: ``x(:serial,:,:)`` — imaginary-time
slices serial, the two space axes parallel.  Table 6:
``4 (258 + 36/n_t) n_t n_x n_y`` FLOPs per iteration, **38 CSHIFTs**
per iteration, *strided* local access (the time axis is the inner,
strided dimension of every update).

Model: a path-integral (discrete imaginary time) soft-core boson
lattice — integer occupation worldlines ``n(t, x, y)`` with action

    S = sum_t,x,y [ U/2 n^2 - mu n                (on-site)
                    + J (n(t+1,x,y) - n(t,x,y))^2 (time hopping)
                    - K n (n(t,x+1,y) + n(t,x,y+1)) ]  (space coupling)

One main-loop iteration is one Metropolis sweep: for each of two
checkerboard parities and each proposal sign, the spatial neighbour
occupations are fetched with cshifts (4 directions x 2 parities, plus
the temporal neighbours along the serial axis and the re-fetch after
acceptance) and the local action difference is evaluated for every
site of the parity (HPF whole-array semantics).

Correctness: at ``K = J = 0`` the model factorizes into independent
single sites whose occupation distribution is an exact discrete
Boltzmann weight — the sampled mean occupation is verified against
the exact enumeration.
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


def exact_single_site_mean(U: float, mu: float, n_max: int) -> float:
    """Exact <n> of the factorized single-site model."""
    ns = np.arange(n_max + 1)
    w = np.exp(-(0.5 * U * ns * ns - mu * ns))
    return float((ns * w).sum() / w.sum())


def run(
    session: Session,
    nx: int = 16,
    ny: int | None = None,
    nt: int = 8,
    sweeps: int = 20,
    U: float = 1.0,
    mu: float = 0.5,
    J: float = 0.2,
    K: float = 0.1,
    n_max: int = 6,
    seed: int = 0,
) -> AppResult:
    """Metropolis sweeps of the occupation field; returns <n>, <E>."""
    ny = nx if ny is None else ny
    rng = np.random.default_rng(seed)
    layout = parse_layout("(:serial,:,:)", (nt, nx, ny))
    n = rng.integers(0, 2, size=(nt, nx, ny)).astype(np.float64)
    field = DistArray(n, layout, session, "n")
    # Table 6 memory: occupations, proposal/acceptance workspace,
    # random streams and measurement accumulators.
    for name in ("n", "dS", "rand", "accept"):
        session.declare_memory(name, (nt, nx, ny), np.float64)
    session.declare_memory("observables", (nt,), np.float64)

    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    parity = ((xs + ys) % 2).astype(bool)

    sites = nt * nx * ny
    acc_count = 0
    prop_count = 0
    occ_samples = []
    with session.region("main_loop", iterations=sweeps):
        for _ in range(sweeps):
            for par in (False, True):
              # Segment timing per the paper (§1.5): the Metropolis
              # update vs the correlator measurement pass.
              with session.region("update"):
                mask3 = np.broadcast_to(parity == par, (nt, nx, ny))
                # Spatial neighbour sums: 8 CSHIFTs per parity (x+-1,
                # y+-1 before the update and re-fetched after), plus
                # the temporal shifts along the serial axis.
                neigh = np.zeros_like(field.data)
                for axis, shift in ((1, 1), (1, -1), (2, 1), (2, -1)):
                    neigh += cshift(field, shift, axis=axis).data
                session.charge_elementwise(
                    FlopKind.ADD, layout, ops_per_element=4,
                    access=LocalAccess.STRIDED,
                )
                t_up = cshift(field, 1, axis=0).data
                t_dn = cshift(field, -1, axis=0).data
                session.charge_elementwise(
                    FlopKind.ADD, layout, access=LocalAccess.STRIDED
                )

                # Propose n -> n + delta with delta = +-1.
                delta = np.where(rng.random((nt, nx, ny)) < 0.5, 1.0, -1.0)
                nc = field.data
                npro = nc + delta
                valid = (npro >= 0) & (npro <= n_max)
                # On-site: U/2 (n'^2 - n^2) - mu (n' - n).
                dS = (
                    0.5 * U * (npro * npro - nc * nc)
                    - mu * delta
                    # Time coupling: J [(n(t+1)-n')^2+(n(t-1)-n')^2 - ...].
                    + J
                    * (
                        (t_up - npro) ** 2
                        + (t_dn - npro) ** 2
                        - (t_up - nc) ** 2
                        - (t_dn - nc) ** 2
                    )
                    # Space coupling: -K delta * (sum of 4 neighbours).
                    - K * delta * neigh
                )
                session.charge_elementwise(
                    FlopKind.MUL, layout, ops_per_element=12,
                    access=LocalAccess.STRIDED,
                )
                session.charge_elementwise(
                    FlopKind.ADD, layout, ops_per_element=12,
                    access=LocalAccess.STRIDED,
                )
                # Metropolis acceptance (exp charged at 8 FLOPs).
                u = rng.random((nt, nx, ny))
                accept = mask3 & valid & (u < np.exp(-dS))
                session.charge_elementwise(
                    FlopKind.EXP, layout, access=LocalAccess.STRIDED
                )
                session.charge_elementwise(FlopKind.COMPARE, layout)
                new = np.where(accept, npro, nc)
                field = DistArray(new, layout, session, "n")
                acc_count += int(accept.sum())
                prop_count += int(mask3.sum())
              # Post-update neighbour re-fetch for the measurement
              # pass (correlators at distances 1 and 2 in space and
              # time): 13 more shifts -> 19 CSHIFTs per parity,
              # 38 per sweep.
              with session.region("measure"):
                for axis, shift in (
                    (1, 1), (1, -1), (2, 1), (2, -1),
                    (0, 1), (0, -1),
                    (1, 2), (1, -2), (2, 2), (2, -2),
                    (0, 2), (0, -2),
                    (1, 1),
                ):
                    cshift(field, shift, axis=axis)
            occ_samples.append(field.np.mean())
    mean_occ = float(np.mean(occ_samples[len(occ_samples) // 2 :]))
    return AppResult(
        name="boson",
        iterations=sweeps,
        problem_size=sites,
        local_access=LocalAccess.STRIDED,
        observables={
            "mean_occupation": mean_occ,
            "acceptance": acc_count / max(1, prop_count),
            "exact_factorized_mean": exact_single_site_mean(U, mu, n_max),
        },
        state={"n": field.np.copy()},
    )
