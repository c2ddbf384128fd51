"""qmc: a Green's function quantum Monte Carlo code.

Paper class (§4, (9)): random-walk Monte Carlo — "each processor
locally determines how many new processes it must spawn … accomplished
by algorithms that involve sum-scans, general sends and segmented copy
scans".  Table 5 layouts: ``x(:,:)`` walker ensembles and
``x(:serial,:serial,:,:)`` walker coordinates (particle and dimension
axes serial, walker and ensemble axes parallel).

Table 6 charges, per iteration, ``(n_p n_d + 4)`` Scans on 2-D arrays
and ``(n_p n_d + 1)`` Sends — the branching step copies each of the
``n_p x n_d`` coordinate planes through the router with a scan-derived
address set, plus the weight plane — along with SPREADs (3-D to 1-D),
5 Reductions (2-D to 1-D ensemble statistics) and 3 Reductions (2-D to
scalar population/energy estimates).

Physics: diffusion Monte Carlo for ``n_p`` particles in ``n_d``
harmonic dimensions.  The growth energy converges to the exact ground
state ``E_0 = 0.5 n_p n_d`` (in units of the oscillator quantum),
which the test suite verifies within statistical error.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppResult
from repro.layout.spec import parse_layout
from repro.machine.session import Session
from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind
from repro.metrics.patterns import CommPattern


def run(
    session: Session,
    n_p: int = 2,
    n_d: int = 3,
    n_w: int = 200,
    n_e: int = 2,
    blocks: int = 3,
    steps_per_block: int = 40,
    dt: float = 0.02,
    seed: int = 0,
) -> AppResult:
    """DMC blocks; returns the growth-energy estimate per ensemble."""
    rng = np.random.default_rng(seed)
    # R[p, d, w, e] — particle/dimension serial, walker/ensemble parallel.
    R = rng.standard_normal((n_p, n_d, n_w, n_e))
    alive = np.ones((n_w, n_e), dtype=bool)
    e_ref = np.full(n_e, 0.5 * n_p * n_d)

    walker_layout = parse_layout("(:,:)", (n_w, n_e))
    coord_layout = parse_layout("(:serial,:serial,:,:)", (n_p, n_d, n_w, n_e))
    # Table 6 memory: 16 n_p n_d + 96 n_w n_e n_maxw.
    session.declare_memory("R", (n_p, n_d, n_w, n_e), np.float64)
    session.declare_memory("R_new", (n_p, n_d, n_w, n_e), np.float64)
    session.declare_memory("weights", (n_w, n_e), np.float64)
    session.declare_memory("copies", (n_w, n_e), np.int32)
    session.declare_memory("addresses", (n_w, n_e), np.int32)
    session.declare_memory("e_local", (n_w, n_e), np.float64)

    itemsize = 8
    off = walker_layout.off_node_fraction(session.nodes)

    def _scan(detail: str) -> None:
        session.record_comm(
            CommPattern.SCAN,
            bytes_network=n_e * itemsize * walker_layout.blocks(session.nodes, 0),
            bytes_local=n_w * n_e * itemsize,
            rank=2,
            detail=detail,
        )
        session.charge_reduction_flops(n_w, n_e, layout=walker_layout)

    def _send(elements: int, detail: str) -> None:
        session.record_comm(
            CommPattern.SEND,
            bytes_network=round(elements * itemsize * off),
            bytes_local=elements * itemsize,
            rank=2,
            detail=detail,
        )

    def _reduction(rank: int, detail: str) -> None:
        session.record_comm(
            CommPattern.REDUCTION,
            bytes_network=n_e * itemsize,
            rank=rank,
            detail=detail,
        )

    energy_history = []
    # The paper's per-iteration attributes are per *step*; blocks only
    # group the statistics.
    with session.region("main_loop", iterations=blocks * steps_per_block):
        for _ in range(blocks):
            block_energies = np.zeros(n_e)
            for _step in range(steps_per_block):
                # --- diffuse: gaussian moves on every coordinate ---
                R = R + np.sqrt(dt) * rng.standard_normal(R.shape)
                # Box-Muller arithmetic: ~ (8+2) FLOPs per coordinate.
                session.charge_elementwise(FlopKind.LOG, coord_layout)
                session.charge_elementwise(
                    FlopKind.MUL, coord_layout, ops_per_element=2
                )
                # SPREAD 3-D to 1-D: the per-dimension diffusion scale
                # broadcast across walkers.
                session.record_comm(
                    CommPattern.SPREAD,
                    bytes_network=n_w * n_e * itemsize if session.nodes > 1 else 0,
                    bytes_local=n_w * n_e * itemsize,
                    rank=3,
                    detail="diffusion scale",
                )

                # --- local energy: harmonic 0.5 |R|^2 per walker ---
                e_loc = 0.5 * (R * R).sum(axis=(0, 1))
                session.charge_elementwise(FlopKind.MUL, coord_layout)
                session.charge_reduction_flops(
                    n_p * n_d, n_w * n_e, layout=coord_layout
                )
                w = np.exp(-dt * (e_loc - e_ref[None, :]))
                session.charge_elementwise(FlopKind.EXP, walker_layout)
                session.charge_elementwise(
                    FlopKind.SUB, walker_layout, ops_per_element=2
                )
                w = np.where(alive, w, 0.0)
                # Mixed estimator over the pre-branching weights.
                mean_e = (w * e_loc).sum(axis=0) / np.maximum(
                    w.sum(axis=0), 1e-300
                )

                # --- branching: integer copies, scan addresses, sends ---
                copies = np.floor(w + rng.random(w.shape)).astype(int)
                copies = np.minimum(copies, 3)
                # 4 global scans: copy counts, capacity, validity, rank.
                for detail in ("copy offsets", "capacity", "validity", "rank"):
                    _scan(detail)
                new_R = np.empty_like(R)
                new_alive = np.zeros((n_w, n_e), dtype=bool)
                for e in range(n_e):
                    idx = np.repeat(np.arange(n_w), copies[:, e])
                    if idx.size == 0:  # population died; reseed
                        idx = np.array([int(np.argmax(w[:, e]))])
                    if idx.size > n_w:  # comb down to capacity
                        sel = rng.choice(idx.size, n_w, replace=False)
                        idx = idx[np.sort(sel)]
                    new_alive[: idx.size, e] = True
                    new_R[:, :, : idx.size, e] = R[:, :, idx, e]
                    new_R[:, :, idx.size :, e] = R[
                        :, :, idx[: max(1, idx.size)][0], e
                    ][:, :, None]
                # (n_p n_d) per-plane scans + sends, + 1 weight send.
                for p in range(n_p):
                    for d in range(n_d):
                        _scan(f"plane ({p},{d}) addresses")
                        _send(n_w * n_e, f"plane ({p},{d}) copy")
                _send(n_w * n_e, "weights")
                R = new_R
                alive = new_alive

                # --- statistics ---
                pop = alive.sum(axis=0)
                # 5 Reductions 2-D to 1-D: population, sum E, sum E^2,
                # max weight, sum weight (per ensemble).
                for detail in ("population", "sum E", "sum E2", "max w", "sum w"):
                    _reduction(2, detail)
                session.charge_reduction_flops(n_w, 5 * n_e, layout=walker_layout)
                # Population control: adjust E_ref toward target size.
                e_ref = e_ref - 0.5 / dt * np.log(np.maximum(pop, 1) / (0.9 * n_w))
                session.charge_elementwise(FlopKind.LOG, walker_layout)
                block_energies += mean_e
                # 3 Reductions 2-D to scalar: global population, global
                # energy, global variance.
                for detail in ("global pop", "global E", "global var"):
                    _reduction(2, detail)
            energy_history.append(block_energies / steps_per_block)
    energies = np.array(energy_history)
    estimate = float(energies[-max(1, blocks // 2) :].mean())
    exact = 0.5 * n_p * n_d
    return AppResult(
        name="qmc",
        iterations=blocks,
        problem_size=n_w * n_e,
        local_access=LocalAccess.DIRECT,
        observables={
            "energy_estimate": estimate,
            "exact_energy": exact,
            "relative_error": abs(estimate - exact) / exact,
            "final_population": float(alive.sum()),
        },
        state={"energies": energies},
    )
