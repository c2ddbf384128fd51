"""Effective-bandwidth measurement via the transpose benchmark.

Paper §2: the transpose, "apart from being an indispensable operation
in linear algebra and other numerous applications, may be used to
confirm advertised bisection bandwidths".  This module does exactly
that: sweep transpose sizes, fit the elapsed-time model
``t = latency + bytes / B_eff`` and report the recovered effective
bisection bandwidth — which should match the machine model's
configured value (the test suite closes that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.machine.model import MachineModel
from repro.machine.session import Session
from repro.metrics.patterns import CommPattern
from repro.suite.runner import run_benchmark


@dataclass(frozen=True)
class BandwidthFit:
    """Linear fit of transpose elapsed time vs bytes moved."""

    effective_bandwidth: float  # bytes/second through the bisection
    latency: float  # fitted startup seconds per transpose
    sizes: Tuple[int, ...]
    elapsed: Tuple[float, ...]
    bytes_moved: Tuple[int, ...]

    def advertised_ratio(self, machine: MachineModel) -> float:
        """Measured / advertised bisection bandwidth."""
        advertised = machine.network.bisection_bandwidth(machine.nodes)
        return self.effective_bandwidth / advertised


def measure_bisection_bandwidth(
    machine: MachineModel,
    sizes: Sequence[int] = (64, 128, 256, 512),
    repeats: int = 4,
) -> BandwidthFit:
    """Run transpose sweeps and back-solve the effective bandwidth.

    Uses the *network* portion of the per-transpose elapsed time (the
    data motion through the bisection), exactly as a benchmarker with
    a wall clock would after subtracting local copy costs.  A single
    node has no bisection: its transposes move no network bytes at any
    size, so it is rejected before the sweep.
    """
    if machine.nodes < 2:
        raise ValueError(
            f"bisection bandwidth needs at least 2 nodes; {machine.name} "
            f"has {machine.nodes}"
        )
    elapsed = []
    bytes_moved = []
    for n in sizes:
        session = Session(machine)
        run_benchmark("transpose", session, n=n, repeats=repeats)
        aapc = session.recorder.root.comm_by_pattern()[CommPattern.AAPC]
        # Network time only: subtract the node-local copy share.
        net_busy = aapc.busy_time - machine.local_move_time(
            aapc.bytes_local / machine.nodes
        )
        elapsed.append((net_busy + aapc.idle_time) / aapc.count)
        bytes_moved.append(aapc.bytes_network // aapc.count)

    # Least-squares fit t = a + bytes / B.
    A = np.stack([np.ones(len(sizes)), np.array(bytes_moved, dtype=float)], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, np.array(elapsed), rcond=None)
    latency, inv_bw = coeffs
    if inv_bw <= 0:
        raise RuntimeError(
            "transpose sweep did not resolve a bandwidth slope; "
            "use larger sizes"
        )
    return BandwidthFit(
        effective_bandwidth=1.0 / inv_bw,
        latency=float(latency),
        sizes=tuple(sizes),
        elapsed=tuple(elapsed),
        bytes_moved=tuple(bytes_moved),
    )
