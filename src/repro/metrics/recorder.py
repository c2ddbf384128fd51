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

Communication is accounted in aggregate by default: each collective
bumps an accumulator, and ``comm_busy`` / ``comm_idle`` are O(1)
running sums.  Opening the recorder with ``detail_events=True`` (trace
mode) additionally keeps the full per-event :class:`CommEvent` list for
:mod:`repro.analysis.trace` — both modes report identical metrics.

Busy time is the non-idle execution time (compute plus the
bandwidth-bound portion of communication); elapsed time adds network
latency and synchronization idle time, mirroring the paper's
busy/elapsed dichotomy.

An optional :attr:`MetricsRecorder.observer` (duck-typed; see
:class:`repro.obs.SpanCollector`) is notified of every region
enter/exit, FLOP charge, compute charge and communication event.  All
hooks sit behind a single ``is not None`` check, so the default
(unobserved) path pays one attribute load per charge and nothing else —
observation never mutates recorder state, keeping reported metrics
byte-identical with and without a collector attached.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.chargebuffer import ChargeBuffer
from repro.metrics.flops import FlopCounter, FlopKind, reduction_flops
from repro.metrics.memory import MemoryLedger
from repro.metrics.patterns import CommPattern

#: Kill switch for batched charge accounting (``REPRO_CHARGE_BUFFER=0``
#: forces every charge onto the eager per-call path).  Read once at
#: import; tests toggle :attr:`MetricsRecorder.buffer_charges` instead.
_BUFFER_ENABLED = os.environ.get("REPRO_CHARGE_BUFFER", "1").lower() not in (
    "0",
    "false",
    "no",
)

_CHARGE_METRICS: Optional[Dict] = None


def _charge_metrics() -> Dict:
    """Charge-buffer telemetry on the process-global registry.

    Deferred import: :mod:`repro.obs` pulls in :mod:`repro.metrics`
    modules, so a top-level import here would cycle.  Resolved once and
    cached; these counters record wall-clock bookkeeping only and never
    touch any simulated metric.
    """
    global _CHARGE_METRICS
    if _CHARGE_METRICS is None:
        from repro.obs import telemetry

        registry = telemetry.get_registry()
        _CHARGE_METRICS = {
            "enabled": telemetry.enabled,
            "flushes": registry.counter(
                "repro_charge_flushes_total",
                "Non-empty charge-buffer flushes.",
            ),
            "entries": registry.histogram(
                "repro_charge_flush_entries",
                "Buffered entries drained per non-empty flush.",
                buckets=telemetry.SIZE_BUCKETS,
            ),
            "disengaged": registry.counter(
                "repro_charge_disengaged_total",
                "Region transitions where buffering could not engage.",
                ["reason"],
            ),
        }
    return _CHARGE_METRICS


@dataclass(frozen=True)
class CommEvent:
    """One collective-communication occurrence.

    ``bytes_network`` counts bytes that cross node boundaries under the
    array's layout; ``bytes_local`` counts intra-node data motion (e.g.
    a cshift along a serial axis moves memory but no messages).
    """

    pattern: CommPattern
    bytes_network: int
    bytes_local: int = 0
    nodes: int = 1
    busy_time: float = 0.0
    idle_time: float = 0.0
    rank: Optional[int] = None
    detail: str = ""

    @property
    def elapsed_time(self) -> float:
        """Busy plus idle seconds."""
        return self.busy_time + self.idle_time


#: Accumulator key: one stream per ``(pattern, rank, detail)``.
CommKey = Tuple[CommPattern, Optional[int], str]


def _dropped_events_error(accessor: str, dropped: int) -> RuntimeError:
    """Uniform error for per-event accessors hit on the fast path."""
    return RuntimeError(
        f"{accessor}: {dropped} communication event(s) were recorded in "
        "aggregate-only mode and dropped; open the session in trace "
        "mode with Session(detail_events=True) or "
        "repro.sessions.trace_session() to keep per-event traces"
    )


class CommStats:
    """Aggregated statistics for one ``(pattern, rank, detail)`` stream."""

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

    def __init__(
        self, name: str, iterations: int = 1, *, detail_events: bool = False
    ) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.name = name
        self.iterations = iterations
        self.detail_events = detail_events
        self.flops = FlopCounter()
        self.comm_stats: Dict[CommKey, CommStats] = {}
        #: populated only when ``detail_events`` is set (trace mode);
        #: read through the guarded :attr:`comm_events` property
        self._events: List[CommEvent] = []
        self.compute_busy = 0.0
        self.children: List["Region"] = []
        self._comm_count = 0
        self._comm_busy = 0.0
        self._comm_idle = 0.0
        self._bytes_network = 0
        self._bytes_local = 0
        #: how often ``MetricsRecorder.region`` entered this region, and
        #: how many ``Session.iteration`` markers ran while it was the
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
        nodes: int = 1,
        busy_time: float = 0.0,
        idle_time: float = 0.0,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> Optional[CommEvent]:
        """Account one collective; returns the event only in trace mode."""
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
        if not self.detail_events:
            return None
        event = CommEvent(
            pattern=pattern,
            bytes_network=bytes_network,
            bytes_local=bytes_local,
            nodes=nodes,
            busy_time=busy_time,
            idle_time=idle_time,
            rank=rank,
            detail=detail,
        )
        self._events.append(event)
        return event

    def record_comm(self, event: CommEvent) -> None:
        """Account an already-built :class:`CommEvent`."""
        key = (event.pattern, event.rank, event.detail)
        stats = self.comm_stats.get(key)
        if stats is None:
            stats = self.comm_stats[key] = CommStats(
                event.pattern, event.rank, event.detail
            )
        stats.count += 1
        stats.bytes_network += event.bytes_network
        stats.bytes_local += event.bytes_local
        stats.busy_time += event.busy_time
        stats.idle_time += event.idle_time
        self._comm_count += 1
        self._comm_busy += event.busy_time
        self._comm_idle += event.idle_time
        self._bytes_network += event.bytes_network
        self._bytes_local += event.bytes_local
        if self.detail_events:
            self._events.append(event)

    # -- local (exclusive of children) ---------------------------------
    @property
    def comm_events(self) -> List[CommEvent]:
        """Per-event history of this region (exclusive; trace mode).

        Raises if events were recorded but dropped because the recorder
        ran on the aggregate-only fast path; the exception names the
        exact flags (``Session(detail_events=True)`` /
        ``repro.sessions.trace_session``) that retain them.
        """
        dropped = self._comm_count - len(self._events)
        if dropped:
            raise _dropped_events_error("Region.comm_events", dropped)
        return self._events

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
    def total_comm_events(self) -> List[CommEvent]:
        """All communication events, including children's (trace mode).

        Raises if events were dropped because the recorder ran in the
        default aggregate-only fast path; open the session with
        ``detail_events=True`` to retain per-event traces.
        """
        out: List[CommEvent] = []
        dropped = 0
        for r in self.walk():
            out.extend(r._events)
            dropped += r._comm_count - len(r._events)
        if dropped:
            raise _dropped_events_error("Region.total_comm_events", dropped)
        return out

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

    def comm_counts(self) -> Dict[CommPattern, int]:
        """Occurrences of each pattern within this region (inclusive)."""
        counts: Dict[CommPattern, int] = {}
        for r in self.walk():
            for stats in r.comm_stats.values():
                counts[stats.pattern] = (
                    counts.get(stats.pattern, 0) + stats.count
                )
        return counts

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
    """Accumulates metrics for one benchmark run.

    ``detail_events=True`` (trace mode) retains the full per-event
    :class:`CommEvent` lists on every region; the default fast path
    keeps only the :class:`CommStats` accumulators, which carry all the
    information the :class:`~repro.metrics.report.PerfReport` needs.
    """

    root: Region = field(default_factory=lambda: Region("benchmark"))
    memory: MemoryLedger = field(default_factory=MemoryLedger)
    detail_events: bool = False
    #: Optional span observer (e.g. :class:`repro.obs.SpanCollector`).
    #: Observers are read-only listeners: they may not alter any
    #: accounting, so attaching one leaves every metric bit-identical.
    observer: Optional[object] = None

    #: Class-level opt-out for batched charge accounting.  When true
    #: (the default unless ``REPRO_CHARGE_BUFFER=0``), charges made
    #: inside regions are enqueued into a :class:`ChargeBuffer` and
    #: flushed in aggregate at each region transition — bit-identical
    #: to eager charging (see ``repro.metrics.chargebuffer``).  The
    #: runtime sanitizer's audit recorder sets this to ``False``.
    buffer_charges = _BUFFER_ENABLED

    def __post_init__(self) -> None:
        if self.detail_events:
            self.root.detail_events = True
        self._stack: List[Region] = [self.root]
        self._buffer = ChargeBuffer()
        #: the active buffer — ``None`` whenever charges must be eager
        #: (root region, observer attached, trace mode, buffering off)
        self._buf: Optional[ChargeBuffer] = None

    def _refresh_buffer_state(self) -> None:
        """Recompute whether charges should buffer, after any transition.

        Buffering engages only inside regions (root-level charges stay
        eager so ``charge → read`` sequences outside any region keep
        their historical immediacy), with no observer attached (span
        collectors must see every charge as it happens for ``repro.obs``
        reconciliation to stay bit-exact) and outside trace mode.
        """
        if (
            self.buffer_charges
            and len(self._stack) > 1
            and self.observer is None
            and not self.detail_events
        ):
            self._buf = self._buffer
        else:
            self._buf = None
            # inside a region, eager charging is a *disengage* worth
            # counting (root-level eager is just normal operation)
            if len(self._stack) > 1:
                metrics = _charge_metrics()
                if metrics["enabled"]():
                    if not self.buffer_charges:
                        reason = "disabled"
                    elif self.observer is not None:
                        reason = "observer"
                    else:
                        reason = "trace"
                    metrics["disengaged"].labels(reason=reason).inc()

    def flush_charges(self) -> None:
        """Drain pending buffered charges into the current region."""
        buf = self._buf
        if buf is not None and buf:
            metrics = _charge_metrics()
            if metrics["enabled"]():
                metrics["flushes"].inc()
                metrics["entries"].observe(buf.entries())
            buf.flush_into(self._stack[-1])

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
        self.flush_charges()
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
        self.flush_charges()
        parent = self.current
        existing = next((c for c in parent.children if c.name == name), None)
        if existing is not None:
            region = existing
            region.iterations += iterations
        else:
            region = Region(
                name, iterations, detail_events=self.detail_events
            )
            parent.children.append(region)
        region.entries += 1
        self._stack.append(region)
        self._refresh_buffer_state()
        obs = self.observer
        if obs is not None:
            obs.on_region_enter(region)
        try:
            yield region
        finally:
            self.flush_charges()
            popped = self._stack.pop()
            assert popped is region, "unbalanced region stack"
            self._refresh_buffer_state()
            if obs is not None:
                obs.on_region_exit(region)

    # -- charging -------------------------------------------------------
    def charge_flops(
        self, kind: FlopKind, count: int, *, complex_valued: bool = False
    ) -> None:
        """Record operations of one kind in the current region."""
        buf = self._buf
        if buf is not None:
            buf.add_flops(kind, count, complex_valued)
            return
        self.current.flops.add(kind, count, complex_valued=complex_valued)
        obs = self.observer
        if obs is not None:
            obs.on_flops(
                self.current, kind, count, complex_valued=complex_valued
            )

    def charge_raw_flops(self, flops: int) -> None:
        """Record pre-weighted FLOPs in the current region."""
        buf = self._buf
        if buf is not None:
            buf.add_raw(flops)
            return
        self.current.flops.add_raw(flops)
        obs = self.observer
        if obs is not None:
            obs.on_raw_flops(self.current, flops)

    def charge_reduction(self, n_elements: int, n_results: int = 1) -> None:
        """Charge a reduction at its sequential cost of ``N - 1``."""
        flops = reduction_flops(n_elements, n_results)
        buf = self._buf
        if buf is not None:
            buf.add_raw(flops)
            return
        self.current.flops.add_raw(flops)
        obs = self.observer
        if obs is not None:
            obs.on_raw_flops(self.current, flops)

    def charge_compute_time(self, seconds: float) -> None:
        """Add simulated compute seconds to the current region."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        buf = self._buf
        if buf is not None:
            buf.add_compute(seconds)
            return
        self.current.compute_busy += seconds
        obs = self.observer
        if obs is not None:
            obs.on_compute(self.current, seconds)

    def charge_comm(
        self,
        pattern: CommPattern,
        *,
        bytes_network: int = 0,
        bytes_local: int = 0,
        nodes: int = 1,
        busy_time: float = 0.0,
        idle_time: float = 0.0,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> Optional[CommEvent]:
        """Account one collective; the buffered twin of ``Region.add_comm``.

        Returns the :class:`CommEvent` only in trace mode (which is
        always eager); buffered and eager fast-path calls return
        ``None``, matching the session's ``record_comm`` contract.
        """
        buf = self._buf
        if buf is not None:
            buf.add_comm(
                pattern,
                rank,
                detail,
                bytes_network=bytes_network,
                bytes_local=bytes_local,
                busy_time=busy_time,
                idle_time=idle_time,
            )
            return None
        return self.current.add_comm(
            pattern,
            bytes_network=bytes_network,
            bytes_local=bytes_local,
            nodes=nodes,
            busy_time=busy_time,
            idle_time=idle_time,
            rank=rank,
            detail=detail,
        )

    def record_comm(self, event: CommEvent) -> None:
        """Account a communication event in the current region."""
        self.flush_charges()
        self.current.record_comm(event)
        obs = self.observer
        if obs is not None:
            obs.on_comm(
                self.current,
                event.pattern,
                bytes_network=event.bytes_network,
                bytes_local=event.bytes_local,
                busy_time=event.busy_time,
                idle_time=event.idle_time,
                rank=event.rank,
                detail=event.detail,
            )

    # -- convenience ----------------------------------------------------
    @property
    def total_flops(self) -> int:
        """FLOPs accumulated over the whole run."""
        self.flush_charges()
        return self.root.total_flops

    @property
    def busy_time(self) -> float:
        """Non-idle seconds over the whole run."""
        self.flush_charges()
        return self.root.busy_time

    @property
    def elapsed_time(self) -> float:
        """Total simulated seconds over the whole run."""
        self.flush_charges()
        return self.root.elapsed_time
