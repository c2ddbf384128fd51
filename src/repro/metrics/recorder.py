"""Hierarchical metrics recorder.

Benchmarks execute inside a :class:`MetricsRecorder` session owned by
the simulated machine.  The recorder keeps a stack of named
:class:`Region` s (e.g. ``setup`` / ``main_loop`` / ``solve``), because
the paper reports metrics for code *segments* of several benchmarks
(boson, fem-3D, md, qr, lu, ...) rather than only whole programs.

Every region accumulates

* FLOPs (via :class:`repro.metrics.flops.FlopCounter`),
* communication statistics (:class:`CommStats`, one accumulator per
  distinct ``(pattern, rank, detail)`` stream),
* simulated compute time and communication busy/idle time.

Communication is accounted in aggregate: each collective bumps its
stream's accumulator, and ``comm_busy`` / ``comm_idle`` are O(1)
running sums.  Per-event views of a run come from an observer such as
:class:`repro.obs.SpanCollector`, which sees every collective.

Busy time is the non-idle execution time (compute plus the
bandwidth-bound portion of communication); elapsed time adds network
latency and synchronization idle time, mirroring the paper's
busy/elapsed dichotomy.

Every charge lands in the innermost region as it is made; the region
tree is the only place charged quantities add up.  FLOP charges stay
cheap because :class:`~repro.metrics.flops.FlopCounter` stores raw
operation counts and applies the cost table only when read.

An optional :attr:`MetricsRecorder.observer` (duck-typed; see
:class:`repro.obs.SpanCollector`) is notified of every region
enter/exit, FLOP charge, compute charge and communication event.  All
hooks sit behind a single ``is not None`` check, so the default
(unobserved) path pays one attribute load per charge and nothing else —
observation never mutates recorder state, keeping reported metrics
byte-identical with and without a collector attached.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.flops import FlopCounter, FlopKind, reduction_flops
from repro.metrics.memory import MemoryLedger
from repro.metrics.patterns import CommPattern


#: Accumulator key: one stream per ``(pattern, rank, detail)``.
CommKey = Tuple[CommPattern, Optional[int], str]


class CommStats:
    """Aggregated statistics for one ``(pattern, rank, detail)`` stream.

    :meth:`Region.comm_by_pattern` reuses it, with ``rank=None`` and
    ``detail=""``, for the sum of all streams of one pattern.
    """

    __slots__ = (
        "pattern",
        "rank",
        "detail",
        "count",
        "bytes_network",
        "bytes_local",
        "busy_time",
        "idle_time",
    )

    def __init__(
        self, pattern: CommPattern, rank: Optional[int], detail: str
    ) -> None:
        self.pattern = pattern
        self.rank = rank
        self.detail = detail
        self.count = 0
        self.bytes_network = 0
        self.bytes_local = 0
        self.busy_time = 0.0
        self.idle_time = 0.0

    @property
    def elapsed_time(self) -> float:
        """Busy plus idle seconds over all occurrences."""
        return self.busy_time + self.idle_time

    def __repr__(self) -> str:
        return (
            f"CommStats({self.pattern.value!r}, count={self.count}, "
            f"bytes_network={self.bytes_network})"
        )


class Region:
    """A named measurement region; nests to form a tree."""

    def __init__(self, name: str, iterations: int = 1) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.name = name
        self.iterations = iterations
        self.flops = FlopCounter()
        self.comm_stats: Dict[CommKey, CommStats] = {}
        self.compute_busy = 0.0
        self.children: List["Region"] = []
        self._comm_count = 0
        self._comm_busy = 0.0
        self._comm_idle = 0.0
        self._bytes_network = 0
        self._bytes_local = 0
        #: how often ``MetricsRecorder.region`` entered this region, and
        #: how many ``Session.iterations`` trips began while it was the
        #: innermost one (the span summary's ``spans``/``iterations``)
        self.entries = 0
        self.marked_iterations = 0

    # -- recording -------------------------------------------------------
    def add_comm(
        self,
        pattern: CommPattern,
        *,
        bytes_network: int = 0,
        bytes_local: int = 0,
        busy_time: float = 0.0,
        idle_time: float = 0.0,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Account one collective in its ``(pattern, rank, detail)`` stream."""
        key = (pattern, rank, detail)
        stats = self.comm_stats.get(key)
        if stats is None:
            stats = self.comm_stats[key] = CommStats(pattern, rank, detail)
        stats.count += 1
        stats.bytes_network += bytes_network
        stats.bytes_local += bytes_local
        stats.busy_time += busy_time
        stats.idle_time += idle_time
        self._comm_count += 1
        self._comm_busy += busy_time
        self._comm_idle += idle_time
        self._bytes_network += bytes_network
        self._bytes_local += bytes_local

    # -- local (exclusive of children) ---------------------------------
    @property
    def comm_count(self) -> int:
        """Number of collectives recorded in this region (exclusive)."""
        return self._comm_count

    @property
    def comm_busy(self) -> float:
        """Bandwidth-bound communication seconds in this region."""
        return self._comm_busy

    @property
    def comm_idle(self) -> float:
        """Latency/synchronization seconds in this region."""
        return self._comm_idle

    # -- aggregate (inclusive of children) ------------------------------
    def walk(self) -> Iterator["Region"]:
        """Depth-first iteration over this region and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def total_flops(self) -> int:
        """FLOPs including child regions."""
        return sum(r.flops.total for r in self.walk())

    @property
    def total_comm_count(self) -> int:
        """Number of collectives recorded, including children's."""
        return sum(r._comm_count for r in self.walk())

    @property
    def busy_time(self) -> float:
        """Non-idle execution time: compute + bandwidth-bound comm."""
        return sum(r.compute_busy + r._comm_busy for r in self.walk())

    @property
    def elapsed_time(self) -> float:
        """Total execution time: busy + latency/synchronization idle."""
        return self.busy_time + sum(r._comm_idle for r in self.walk())

    @property
    def network_bytes(self) -> int:
        """Total bytes crossing node boundaries."""
        return sum(r._bytes_network for r in self.walk())

    def comm_by_pattern(self) -> Dict[CommPattern, CommStats]:
        """Per-pattern sums of every stream, children included.

        Folds the regions depth-first and their streams in first-seen
        order, so patterns keep first-seen order and float sums are
        reproducible.  Each value is a :class:`CommStats` with
        ``rank=None`` and ``detail=""``.
        """
        totals: Dict[CommPattern, CommStats] = {}
        for r in self.walk():
            for stats in r.comm_stats.values():
                agg = totals.get(stats.pattern)
                if agg is None:
                    agg = totals[stats.pattern] = CommStats(
                        stats.pattern, None, ""
                    )
                agg.count += stats.count
                agg.bytes_network += stats.bytes_network
                agg.bytes_local += stats.bytes_local
                agg.busy_time += stats.busy_time
                agg.idle_time += stats.idle_time
        return totals

    def comm_counts(self) -> Dict[CommPattern, int]:
        """Occurrences of each pattern within this region (inclusive)."""
        return {p: s.count for p, s in self.comm_by_pattern().items()}

    def comm_counts_per_iteration(self) -> Dict[CommPattern, float]:
        """Pattern counts divided by this region's iteration count."""
        return {p: c / self.iterations for p, c in self.comm_counts().items()}

    @property
    def flops_per_iteration(self) -> float:
        """Inclusive FLOPs divided by iteration count."""
        return self.total_flops / self.iterations

    def find(self, name: str) -> Optional["Region"]:
        """Locate a descendant region by name (depth-first)."""
        for r in self.walk():
            if r.name == name:
                return r
        return None

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, iters={self.iterations}, "
            f"flops={self.total_flops}, comm={self.total_comm_count})"
        )


@dataclass
class MetricsRecorder:
    """Accumulates metrics for one benchmark run."""

    root: Region = field(default_factory=lambda: Region("benchmark"))
    memory: MemoryLedger = field(default_factory=MemoryLedger)
    #: Optional span observer (e.g. :class:`repro.obs.SpanCollector`).
    #: Observers are read-only listeners: they may not alter any
    #: accounting, so attaching one leaves every metric bit-identical.
    observer: Optional[object] = None

    def __post_init__(self) -> None:
        self._stack: List[Region] = [self.root]

    @property
    def current(self) -> Region:
        """Innermost open region."""
        return self._stack[-1]

    @property
    def has_activity(self) -> bool:
        """Whether anything has been recorded yet.

        A fresh recorder has no child regions, no FLOPs, no simulated
        time, no communication events and no memory declarations;
        :func:`repro.suite.runner.run_benchmark` requires one so the
        report's totals describe a single benchmark.
        """
        root = self.root
        return bool(
            root.children
            or root.total_flops
            or root.comm_count
            or root.compute_busy
            or self.memory.declarations
        )

    @contextmanager
    def region(self, name: str, iterations: int = 1) -> Iterator[Region]:
        """Open a nested measurement region.

        Re-entering a region name under the same parent accumulates into
        the existing region (so per-timestep loops can wrap their body
        in ``with recorder.region("step"):`` without creating thousands
        of children); pass distinct names for distinct segments.
        """
        parent = self.current
        existing = next((c for c in parent.children if c.name == name), None)
        if existing is not None:
            region = existing
            region.iterations += iterations
        else:
            region = Region(name, iterations)
            parent.children.append(region)
        region.entries += 1
        self._stack.append(region)
        obs = self.observer
        if obs is not None:
            obs.on_region_enter(region)
        try:
            yield region
        finally:
            popped = self._stack.pop()
            assert popped is region, "unbalanced region stack"
            if obs is not None:
                obs.on_region_exit(region)

    # -- charging -------------------------------------------------------
    def charge_flops(
        self, kind: FlopKind, count: int, *, complex_valued: bool = False
    ) -> None:
        """Record operations of one kind in the current region."""
        self._stack[-1].flops.add(kind, count, complex_valued=complex_valued)
        obs = self.observer
        if obs is not None:
            obs.on_flops(kind, count, complex_valued=complex_valued)

    def charge_raw_flops(self, flops: int) -> None:
        """Record pre-weighted FLOPs in the current region."""
        self._stack[-1].flops.add_raw(flops)
        obs = self.observer
        if obs is not None:
            obs.on_raw_flops(flops)

    def charge_reduction(self, n_elements: int, n_results: int = 1) -> None:
        """Charge a reduction at its sequential cost of ``N - 1``.

        Charges the region directly rather than through
        :meth:`charge_raw_flops`, so a subclass overriding both methods
        sees each reduction once.
        """
        flops = reduction_flops(n_elements, n_results)
        self._stack[-1].flops.add_raw(flops)
        obs = self.observer
        if obs is not None:
            obs.on_raw_flops(flops)

    def charge_compute_time(self, seconds: float) -> None:
        """Add simulated compute seconds to the current region."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        self._stack[-1].compute_busy += seconds
        obs = self.observer
        if obs is not None:
            obs.on_compute(seconds)

    def charge_comm(
        self,
        pattern: CommPattern,
        *,
        bytes_network: int = 0,
        bytes_local: int = 0,
        busy_time: float = 0.0,
        idle_time: float = 0.0,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Account one collective in the current region.

        The single comm-accounting entry point: it updates the region
        (``Region.add_comm``) and notifies the observer.
        """
        self._stack[-1].add_comm(
            pattern,
            bytes_network=bytes_network,
            bytes_local=bytes_local,
            busy_time=busy_time,
            idle_time=idle_time,
            rank=rank,
            detail=detail,
        )
        obs = self.observer
        if obs is not None:
            obs.on_comm(
                pattern,
                bytes_network=bytes_network,
                bytes_local=bytes_local,
                busy_time=busy_time,
                idle_time=idle_time,
                rank=rank,
                detail=detail,
            )

    # -- convenience ----------------------------------------------------
    @property
    def total_flops(self) -> int:
        """FLOPs accumulated over the whole run."""
        return self.root.total_flops

    @property
    def busy_time(self) -> float:
        """Non-idle seconds over the whole run."""
        return self.root.busy_time

    @property
    def elapsed_time(self) -> float:
        """Total simulated seconds over the whole run."""
        return self.root.elapsed_time
