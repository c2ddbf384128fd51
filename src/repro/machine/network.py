"""Analytic network-cost models for the DPF communication patterns.

Costs follow the classic latency/bandwidth decomposition.  For each
collective the model returns a :class:`NetworkCost` with a *busy*
component (time the processors spend actively moving data — charged to
the paper's busy time) and an *idle* component (network latency, tree
depth and synchronization — charged only to elapsed time).

Shapes per pattern (``p`` = participating nodes, ``v`` = bytes per node
crossing the network, ``V = p * v`` = total network bytes):

=================  ====================================================
cshift/eoshift     one NEWS-neighbor exchange: ``a_news + v/bw_link``
reduction/scan/
broadcast/spread   control-network tree: ``ceil(log2 p)`` stages
AAPC (transpose)   router, bisection-limited: ``a_router +
                   V / bisection_bw(p)``
AABC               p-1 rounds of neighbor exchange (all-to-all
                   broadcast): ``(p-1) * (a_news + v/bw_link)``
gather/scatter/
send/get           router with a collision factor: ``a_router +
                   c * v / bw_router``
sort               bitonic: ``ceil(log2 p)**2`` router stages
butterfly          ``1`` exchange stage of an FFT butterfly network
stencil            k shifted surface exchanges, pipelined behind one
                   startup
=================  ====================================================

The CM-5's fat tree provides full bisection bandwidth, so
``bisection_bw(p) = bw_link * p / 2`` by default; thin-tree machines
can set ``bisection_fraction < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.metrics.patterns import CommPattern


@dataclass(frozen=True)
class NetworkCost:
    """Busy/idle seconds charged for one collective."""

    busy: float
    idle: float

    @property
    def elapsed(self) -> float:
        """Total seconds: busy + idle."""
        return self.busy + self.idle

    def __add__(self, other: "NetworkCost") -> "NetworkCost":
        return NetworkCost(self.busy + other.busy, self.idle + other.idle)


ZERO_COST = NetworkCost(0.0, 0.0)


@dataclass(frozen=True)
class NetworkModel:
    """Parameterized interconnect model.

    Bandwidths are in bytes/second, latencies in seconds.
    """

    #: point-to-point link bandwidth per node (data network)
    bw_link: float = 10e6
    #: sustained router bandwidth per node for general communication
    bw_router: float = 4e6
    #: NEWS/grid-neighbor startup (software + network)
    latency_news: float = 30e-6
    #: router startup for general (gather/scatter/send) traffic
    latency_router: float = 80e-6
    #: per-stage latency of control-network trees (reduce/bcast/scan)
    latency_tree: float = 8e-6
    #: fraction of full fat-tree bisection actually provisioned
    bisection_fraction: float = 1.0
    #: mean slowdown of router traffic from collisions (paper §4 (8))
    collision_factor: float = 1.5

    def __post_init__(self) -> None:
        for name in ("bw_link", "bw_router"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "latency_news",
            "latency_router",
            "latency_tree",
            "bisection_fraction",
            "collision_factor",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def with_overrides(self, **kwargs: float) -> "NetworkModel":
        """Copy with replaced parameters."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def bisection_bandwidth(self, nodes: int) -> float:
        """Aggregate bisection bandwidth for ``nodes`` participants."""
        return self.bw_link * max(nodes, 2) / 2.0 * self.bisection_fraction

    def cost(
        self,
        pattern: CommPattern,
        *,
        bytes_network: int,
        nodes: int,
        stages: Optional[int] = None,
        collisions: Optional[float] = None,
    ) -> NetworkCost:
        """Cost of one collective moving ``bytes_network`` total bytes.

        ``stages`` overrides the default stage count for multi-stage
        patterns (stencils pass their point count, sorts their stage
        count).  ``collisions`` overrides the router collision factor
        (PIC codes sort particles precisely to drive this to ~1).
        """
        if bytes_network < 0:
            raise ValueError("bytes_network must be non-negative")
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        if nodes == 1 or bytes_network == 0:
            # Purely local motion still pays the software startup of the
            # primitive, charged as idle time.
            return NetworkCost(0.0, self._startup(pattern))

        v = bytes_network / nodes  # per-node volume
        log_p = max(1, math.ceil(math.log2(nodes)))

        if pattern in (CommPattern.CSHIFT, CommPattern.EOSHIFT):
            return NetworkCost(busy=v / self.bw_link, idle=self.latency_news)

        if pattern is CommPattern.STENCIL:
            k = stages if stages is not None else 1
            return NetworkCost(
                busy=k * v / self.bw_link, idle=self.latency_news
            )

        if pattern in (
            CommPattern.REDUCTION,
            CommPattern.BROADCAST,
            CommPattern.SPREAD,
            CommPattern.SCAN,
        ):
            return NetworkCost(
                busy=v / self.bw_link, idle=log_p * self.latency_tree
            )

        if pattern is CommPattern.AAPC:
            transfer = bytes_network / self.bisection_bandwidth(nodes)
            return NetworkCost(
                busy=max(transfer, v / self.bw_link),
                idle=self.latency_router,
            )

        if pattern is CommPattern.AABC:
            rounds = nodes - 1
            return NetworkCost(
                busy=rounds * v / self.bw_link,
                idle=self.latency_news + (rounds - 1) * self.latency_tree,
            )

        if pattern in (
            CommPattern.GATHER,
            CommPattern.GATHER_COMBINE,
            CommPattern.SCATTER,
            CommPattern.SCATTER_COMBINE,
            CommPattern.SEND,
            CommPattern.GET,
        ):
            c = collisions if collisions is not None else self.collision_factor
            return NetworkCost(
                busy=c * v / self.bw_router, idle=self.latency_router
            )

        if pattern is CommPattern.SORT:
            n_stages = stages if stages is not None else log_p * log_p
            return NetworkCost(
                busy=n_stages * v / self.bw_router,
                idle=n_stages * self.latency_router,
            )

        if pattern is CommPattern.BUTTERFLY:
            n_stages = stages if stages is not None else 1
            return NetworkCost(
                busy=n_stages * v / self.bw_link,
                idle=n_stages * self.latency_news,
            )

        raise ValueError(f"no cost model for pattern {pattern!r}")

    def _startup(self, pattern: CommPattern) -> float:
        """Software startup charged even for node-local invocations."""
        if pattern in (
            CommPattern.GATHER,
            CommPattern.GATHER_COMBINE,
            CommPattern.SCATTER,
            CommPattern.SCATTER_COMBINE,
            CommPattern.SEND,
            CommPattern.GET,
            CommPattern.SORT,
            CommPattern.AAPC,
        ):
            return self.latency_router
        if pattern in (
            CommPattern.REDUCTION,
            CommPattern.BROADCAST,
            CommPattern.SPREAD,
            CommPattern.SCAN,
        ):
            return self.latency_tree
        return self.latency_news
