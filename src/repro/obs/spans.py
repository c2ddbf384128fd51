"""Span collection over the simulated machine clock.

A :class:`SpanCollector` is a read-only observer of one
:class:`~repro.machine.session.Session`.  It rebuilds the run as a
*timeline*: every compute charge and every communication event becomes
a :class:`Slice` with simulated start/end times, laid out sequentially
on a single simulated clock (compute seconds, then comm busy seconds,
then comm idle seconds, in the order the benchmark charged them).
Region enter/exit and the trips of
:meth:`~repro.machine.session.Session.iterations` become hierarchical
:class:`Span` s bracketing those slices.
FLOPs charged with no compute charge after them (scalar bookkeeping in
conj-grad, lu, qr, ...) are emitted as a zero-duration compute slice
at the next region boundary or at :meth:`SpanCollector.finalize`, so
the slices carry every FLOP the recorder counted.

The timeline is all the collector keeps.  Totals come from the
recorder it observes: :meth:`SpanCollector.totals` and
:func:`span_summary` read the region tree through one helper, by the
same depth-first sums as ``Region.busy_time`` / ``elapsed_time``, so
they equal the run's report exactly.  The collector never mutates
recorder state; with one attached, reported metrics (and their
canonical JSON) are byte-identical to an unobserved run.  With none
attached, every hook is a single ``is not None`` check.

The compact per-job summary the engine and ``repro serve`` forward,
:func:`span_summary`, needs no collector: workers call it on the
finished recorder.

Usage::

    collector = SpanCollector()
    collector.attach(session)
    run_benchmark("diff-2d", session)
    collector.finalize()
    collector.totals()["busy_time_s"]   # == report.busy_time, bit-exact
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.metrics.flops import FlopKind, flop_cost
from repro.metrics.patterns import CommPattern
from repro.metrics.recorder import MetricsRecorder, Region

#: Slice categories — one Chrome-trace track each.
CATEGORY_COMPUTE = "compute"
CATEGORY_COMM_BUSY = "comm-busy"
CATEGORY_COMM_IDLE = "comm-idle"
CATEGORIES = (CATEGORY_COMPUTE, CATEGORY_COMM_BUSY, CATEGORY_COMM_IDLE)

#: Span summary schema version (engine ``.stats`` sidecar payload).
#: Version 2 builds the summary from the recorder and drops ``slices``.
SPAN_SUMMARY_SCHEMA = 2


@dataclass
class Slice:
    """One contiguous stretch of simulated time of a single category."""

    category: str
    name: str
    start: float
    end: float
    #: weighted FLOPs attributed to this slice (compute slices)
    flops: int = 0
    #: raw operation counts by kind value (compute slices)
    ops: Dict[str, int] = field(default_factory=dict)
    bytes_network: int = 0
    bytes_local: int = 0
    #: communication pattern value (comm slices)
    pattern: Optional[str] = None
    #: array rank of the collective's stream (comm slices)
    rank: Optional[int] = None
    detail: str = ""

    @property
    def duration(self) -> float:
        """Simulated seconds covered by this slice."""
        return self.end - self.start


class Span:
    """One open/close interval on the simulated timeline.

    ``kind`` is ``"run"`` (the implicit root), ``"region"`` (a recorder
    region entry) or ``"iteration"`` (one trip of
    :meth:`~repro.machine.session.Session.iterations`).  Re-entry
    of a merged recorder region produces a *new* span per entry — spans
    are occurrences, regions are accumulators.
    """

    __slots__ = ("name", "kind", "start", "end", "children", "index")

    def __init__(
        self,
        name: str,
        kind: str,
        start: float,
        index: Optional[int] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.index = index

    @property
    def duration(self) -> float:
        """Simulated seconds between open and close (0 while open)."""
        return (self.end if self.end is not None else self.start) - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, kind={self.kind}, "
            f"start={self.start:.6g}, dur={self.duration:.6g})"
        )


class SpanCollector:
    """Reconstructs a run as spans and slices on the simulated clock.

    Attach with :meth:`attach` *before* the benchmark runs; call
    :meth:`finalize` after.  The collector is single-use: one session,
    one run.
    """

    def __init__(self) -> None:
        #: simulated clock (seconds); advanced by compute and comm time
        self.now = 0.0
        self.root = Span("run", "run", 0.0)
        self.slices: List[Slice] = []
        self._span_stack: List[Span] = [self.root]
        self._pending_ops: Dict[str, int] = {}
        self._pending_flops = 0
        self._finalized = False
        self._recorder: Optional[MetricsRecorder] = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, session) -> "SpanCollector":
        """Register as the session recorder's observer; returns self."""
        recorder = session.recorder
        if recorder.observer is not None and recorder.observer is not self:
            raise RuntimeError(
                "session already has a span observer attached; one "
                "SpanCollector observes one session"
            )
        if self._recorder is not None:
            raise RuntimeError(
                "SpanCollector is single-use: already attached to a session"
            )
        recorder.observer = self
        self._recorder = recorder
        return self

    @property
    def recorder(self) -> MetricsRecorder:
        """The observed recorder (raises before :meth:`attach`)."""
        if self._recorder is None:
            raise RuntimeError("collector was never attached to a session")
        return self._recorder

    def detach(self) -> None:
        """Unregister from the session (idempotent)."""
        recorder = self._recorder
        if recorder is not None and recorder.observer is self:
            recorder.observer = None

    def finalize(self) -> "SpanCollector":
        """Close the root span at the current clock; detach; idempotent."""
        if not self._finalized:
            self._flush_pending()
            # Close anything left open (crash or misuse mid-run).
            while len(self._span_stack) > 1:
                self._span_stack.pop().end = self.now
            self.root.end = self.now
            self._finalized = True
        self.detach()
        return self

    # -- observer hooks (MetricsRecorder) -------------------------------
    def on_region_enter(self, region: Region) -> None:
        self._flush_pending()
        span = Span(region.name, "region", self.now)
        self._span_stack[-1].children.append(span)
        self._span_stack.append(span)

    def on_region_exit(self, region: Region) -> None:
        self._flush_pending()
        # Close dangling iteration spans before the region span itself.
        while len(self._span_stack) > 1:
            span = self._span_stack.pop()
            span.end = self.now
            if span.kind == "region":
                break

    def on_flops(
        self, kind: FlopKind, count: int, *, complex_valued: bool = False
    ) -> None:
        key = kind.value
        self._pending_ops[key] = self._pending_ops.get(key, 0) + count
        self._pending_flops += flop_cost(
            kind, count, complex_valued=complex_valued
        )

    def on_raw_flops(self, flops: int) -> None:
        self._pending_ops["raw"] = self._pending_ops.get("raw", 0) + flops
        self._pending_flops += flops

    def on_compute(self, seconds: float) -> None:
        start = self.now
        end = start + seconds
        name = "+".join(sorted(self._pending_ops)) or "compute"
        self.slices.append(
            Slice(
                category=CATEGORY_COMPUTE,
                name=name,
                start=start,
                end=end,
                flops=self._pending_flops,
                ops=dict(self._pending_ops),
            )
        )
        self._pending_ops.clear()
        self._pending_flops = 0
        self.now = end

    def _flush_pending(self) -> None:
        """Emit FLOPs no compute charge has claimed as a 0 s slice."""
        if self._pending_ops:
            self.on_compute(0.0)

    def on_comm(
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
        start = self.now
        busy_end = start + busy_time
        self.slices.append(
            Slice(
                category=CATEGORY_COMM_BUSY,
                name=pattern.value,
                start=start,
                end=busy_end,
                bytes_network=bytes_network,
                bytes_local=bytes_local,
                pattern=pattern.value,
                rank=rank,
                detail=detail,
            )
        )
        end = busy_end + idle_time
        if idle_time > 0:
            self.slices.append(
                Slice(
                    category=CATEGORY_COMM_IDLE,
                    name=pattern.value,
                    start=busy_end,
                    end=end,
                    pattern=pattern.value,
                    rank=rank,
                    detail=detail,
                )
            )
        self.now = end

    # -- iteration markers ----------------------------------------------
    @contextmanager
    def iteration(self, index: Optional[int] = None) -> Iterator[None]:
        """Open an ``iteration`` span (see ``Session.iterations``)."""
        name = "iteration" if index is None else f"iteration {index}"
        span = Span(name, "iteration", self.now, index=index)
        self._span_stack[-1].children.append(span)
        self._span_stack.append(span)
        try:
            yield
        finally:
            # a region exit or finalize() may have closed it already
            while span.end is None:
                self._span_stack.pop().end = self.now

    # -- aggregation ----------------------------------------------------
    def totals(self) -> Dict[str, object]:
        """Run totals of the observed recorder, equal to its report's.

        Read from the recorder's region tree by the helper
        :func:`span_summary` uses, so the two agree exactly (``==``).
        """
        return _totals(self.recorder.root)

    def summary(self) -> Dict[str, object]:
        """:func:`span_summary` of the recorder this collector observed."""
        return span_summary(self.recorder)

    def region_paths(self) -> List[tuple]:
        """('/'-joined path, :class:`Region`) pairs, depth-first."""
        return _region_paths(self.recorder.root)


def exclusive_busy(region: Region) -> float:
    """Busy seconds charged in ``region`` itself, not its children."""
    return region.compute_busy + region.comm_busy


def _totals(root: Region) -> Dict[str, object]:
    """Scalar and per-pattern totals of a region tree.

    Scalars are the same depth-first sums ``Region.busy_time`` /
    ``elapsed_time`` use; per-pattern count/bytes/busy/idle come from
    ``Region.comm_by_pattern``.
    """
    regions = list(root.walk())
    patterns = {
        pattern.value: {
            "count": stats.count,
            "bytes_network": stats.bytes_network,
            "busy_s": stats.busy_time,
            "idle_s": stats.idle_time,
        }
        for pattern, stats in root.comm_by_pattern().items()
    }
    return {
        "busy_time_s": root.busy_time,
        "elapsed_time_s": root.elapsed_time,
        "compute_time_s": sum(r.compute_busy for r in regions),
        "comm_busy_s": sum(r.comm_busy for r in regions),
        "comm_idle_s": sum(r.comm_idle for r in regions),
        "flop_count": sum(r.flops.total for r in regions),
        "network_bytes": root.network_bytes,
        "comm_count": sum(r.comm_count for r in regions),
        "patterns": patterns,
    }


def span_summary(recorder: MetricsRecorder) -> Dict[str, object]:
    """Compact JSON-safe span summary of a finished run.

    Built from the recorder's region tree alone, so it needs no
    collector attached.  The totals are :meth:`SpanCollector.totals`
    of the same recorder, so they equal the run's report exactly.
    ``spans`` and ``iterations`` count region entries and
    ``Session.iterations`` trips; ``top_regions`` ranks regions by
    exclusive busy time.
    """
    root = recorder.root
    regions = list(root.walk())
    top = sorted(
        _region_paths(root),
        key=lambda item: exclusive_busy(item[1]),
        reverse=True,
    )
    return {
        "schema": SPAN_SUMMARY_SCHEMA,
        "spans": sum(r.entries for r in regions),
        "iterations": sum(r.marked_iterations for r in regions),
        **_totals(root),
        "top_regions": [
            {
                "path": path,
                "busy_s": exclusive_busy(region),
                "flops": region.flops.total,
            }
            for path, region in top[:3]
        ],
    }


def _region_paths(root: Region) -> List[tuple]:
    """('/'-joined path, region) pairs of a region tree.

    Depth-first, root excluded.
    """
    out: List[tuple] = []

    def visit(node: Region, prefix: str) -> None:
        for child in node.children:
            path = f"{prefix}/{child.name}" if prefix else child.name
            out.append((path, child))
            visit(child, path)

    visit(root, "")
    return out
