"""Span collection over the simulated machine clock.

A :class:`SpanCollector` is a read-only observer of one
:class:`~repro.machine.session.Session`.  It rebuilds the run as a
*timeline*: every compute charge and every communication event becomes
a :class:`Slice` with simulated start/end times, laid out sequentially
on a single simulated clock (compute seconds, then comm busy seconds,
then comm idle seconds, in the order the benchmark charged them).
Region enter/exit and :meth:`~repro.machine.session.Session.iteration`
markers become hierarchical :class:`Span` s bracketing those slices.

Two invariants make the collector safe to attach anywhere:

* **Zero accounting impact** — the collector never mutates recorder
  state; with one attached, reported metrics (and their canonical JSON)
  are byte-identical to an unobserved run.  With none attached, every
  hook is a single ``is not None`` check.
* **Exact reconciliation** — alongside the timeline, the collector
  keeps one :class:`RegionMirror` per recorder region, fed by the very
  same ``+=`` sequences (same operands, same order) the recorder uses.
  :meth:`SpanCollector.totals` then sums mirrors in the recorder's
  depth-first walk order, so busy/elapsed seconds match
  ``Region.busy_time`` / ``elapsed_time`` *bit-for-bit*, and FLOP/byte
  totals (integers) match exactly.

The compact per-job summary the engine and ``repro serve`` forward,
:func:`span_summary`, needs no collector: it reads the finished
recorder's region tree, so workers run with the charge buffer engaged.

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
    detail: str = ""

    @property
    def duration(self) -> float:
        """Simulated seconds covered by this slice."""
        return self.end - self.start


class Span:
    """One open/close interval on the simulated timeline.

    ``kind`` is ``"run"`` (the implicit root), ``"region"`` (a recorder
    region entry) or ``"iteration"`` (a
    :meth:`~repro.machine.session.Session.iteration` marker).  Re-entry
    of a merged recorder region produces a *new* span per entry — spans
    are occurrences, mirrors are accumulators.
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


class RegionMirror:
    """Shadow accumulator for one recorder region.

    Receives the exact ``+=`` sequence the region itself receives —
    same operand values, same order — so its float totals are
    bit-identical to the region's.  Children are appended in first-entry
    order, matching ``Region.children``, so depth-first walks visit the
    same order too.
    """

    __slots__ = (
        "name",
        "children",
        "compute",
        "comm_busy",
        "comm_idle",
        "flops",
        "ops",
        "bytes_network",
        "bytes_local",
        "comm_count",
        "comm_by_pattern",
        "entries",
        "marked_iterations",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: List["RegionMirror"] = []
        self.compute = 0.0
        self.comm_busy = 0.0
        self.comm_idle = 0.0
        self.flops = 0
        self.ops: Dict[str, int] = {}
        self.bytes_network = 0
        self.bytes_local = 0
        self.comm_count = 0
        #: pattern value -> [count, bytes_network, busy_s, idle_s]
        self.comm_by_pattern: Dict[str, List[float]] = {}
        self.entries = 0
        self.marked_iterations = 0

    def walk(self) -> Iterator["RegionMirror"]:
        """Depth-first iteration matching ``Region.walk`` order."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def busy(self) -> float:
        """Exclusive busy seconds (compute + comm bandwidth time)."""
        return self.compute + self.comm_busy

    def __repr__(self) -> str:
        return f"RegionMirror({self.name!r}, busy={self.busy:.6g})"


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
        self.root_mirror: Optional[RegionMirror] = None
        self._mirror_stack: List[RegionMirror] = []
        self._mirrors: Dict[int, RegionMirror] = {}
        self._pending_ops: Dict[str, int] = {}
        self._pending_flops = 0
        self._finalized = False
        self._session = None
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
        if self.root_mirror is not None:
            raise RuntimeError(
                "SpanCollector is single-use: already attached to a session"
            )
        root = recorder.root
        mirror = RegionMirror(root.name)
        self.root_mirror = mirror
        self._mirrors[id(root)] = mirror
        self._mirror_stack = [mirror]
        recorder.observer = self
        self._session = session
        self._recorder = recorder
        return self

    def detach(self) -> None:
        """Unregister from the session (idempotent)."""
        if self._session is not None:
            if self._session.recorder.observer is self:
                self._session.recorder.observer = None
            self._session = None

    def finalize(self) -> "SpanCollector":
        """Close the root span at the current clock; detach; idempotent."""
        if not self._finalized:
            # Close anything left open (crash or misuse mid-run).
            while len(self._span_stack) > 1:
                self._span_stack.pop().end = self.now
            self.root.end = self.now
            self._finalized = True
        self.detach()
        return self

    # -- observer hooks (MetricsRecorder / Session) ---------------------
    def on_region_enter(self, region: Region) -> None:
        mirror = self._mirrors.get(id(region))
        if mirror is None:
            mirror = RegionMirror(region.name)
            self._mirrors[id(region)] = mirror
            self._mirror_stack[-1].children.append(mirror)
        mirror.entries += 1
        self._mirror_stack.append(mirror)
        span = Span(region.name, "region", self.now)
        self._span_stack[-1].children.append(span)
        self._span_stack.append(span)

    def on_region_exit(self, region: Region) -> None:
        # Close dangling iteration spans before the region span itself.
        while len(self._span_stack) > 1:
            span = self._span_stack.pop()
            span.end = self.now
            if span.kind == "region":
                break
        if self._mirror_stack and self._mirror_stack[-1] is self._mirrors.get(
            id(region)
        ):
            self._mirror_stack.pop()

    def on_flops(
        self,
        region: Region,
        kind: FlopKind,
        count: int,
        *,
        complex_valued: bool = False,
    ) -> None:
        weighted = flop_cost(kind, count, complex_valued=complex_valued)
        mirror = self._current_mirror(region)
        mirror.flops += weighted
        key = kind.value
        mirror.ops[key] = mirror.ops.get(key, 0) + count
        self._pending_ops[key] = self._pending_ops.get(key, 0) + count
        self._pending_flops += weighted

    def on_raw_flops(self, region: Region, flops: int) -> None:
        mirror = self._current_mirror(region)
        mirror.flops += flops
        mirror.ops["raw"] = mirror.ops.get("raw", 0) + flops
        self._pending_ops["raw"] = self._pending_ops.get("raw", 0) + flops
        self._pending_flops += flops

    def on_compute(self, region: Region, seconds: float) -> None:
        mirror = self._current_mirror(region)
        mirror.compute += seconds
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

    def on_comm(
        self,
        region: Region,
        pattern: CommPattern,
        *,
        bytes_network: int = 0,
        bytes_local: int = 0,
        busy_time: float = 0.0,
        idle_time: float = 0.0,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> None:
        mirror = self._current_mirror(region)
        mirror.comm_busy += busy_time
        mirror.comm_idle += idle_time
        mirror.bytes_network += bytes_network
        mirror.bytes_local += bytes_local
        mirror.comm_count += 1
        agg = mirror.comm_by_pattern.get(pattern.value)
        if agg is None:
            agg = mirror.comm_by_pattern[pattern.value] = [0, 0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += bytes_network
        agg[2] += busy_time
        agg[3] += idle_time
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
                    detail=detail,
                )
            )
        self.now = end

    def _current_mirror(self, region: Region) -> RegionMirror:
        """Mirror for the charged region (stack top in well-formed runs)."""
        mirror = self._mirrors.get(id(region))
        if mirror is not None:
            return mirror
        # A region the collector never saw enter (e.g. built outside the
        # recorder's region() machinery): adopt it under the current top.
        mirror = RegionMirror(region.name)
        self._mirrors[id(region)] = mirror
        top = self._mirror_stack[-1] if self._mirror_stack else self.root_mirror
        if top is not None:
            top.children.append(mirror)
        return mirror

    # -- iteration markers ----------------------------------------------
    @contextmanager
    def iteration(self, index: Optional[int] = None) -> Iterator[None]:
        """Open an ``iteration`` span (see ``Session.iteration``)."""
        name = "iteration" if index is None else f"iteration {index}"
        span = Span(name, "iteration", self.now, index=index)
        self._span_stack[-1].children.append(span)
        self._span_stack.append(span)
        if self._mirror_stack:
            self._mirror_stack[-1].marked_iterations += 1
        try:
            yield
        finally:
            while len(self._span_stack) > 1:
                popped = self._span_stack.pop()
                popped.end = self.now
                if popped is span:
                    break

    # -- aggregation ----------------------------------------------------
    def totals(self) -> Dict[str, object]:
        """Run totals, bit-exact against the recorder's report totals.

        ``busy_time_s`` / ``elapsed_time_s`` are computed by the same
        summation (same operands, same depth-first order) as
        ``Region.busy_time`` / ``elapsed_time``; FLOP and byte totals
        are integer sums.  A parity test holds these equal (``==``, not
        approximately) to the :class:`~repro.metrics.report.PerfReport`
        of the same run.
        """
        root = self.root_mirror
        if root is None:
            raise RuntimeError("collector was never attached to a session")
        mirrors = list(root.walk())
        busy = sum(m.compute + m.comm_busy for m in root.walk())
        elapsed = busy + sum(m.comm_idle for m in root.walk())
        patterns: Dict[str, Dict[str, float]] = {}
        for m in mirrors:
            for pattern, (count, net, p_busy, p_idle) in (
                m.comm_by_pattern.items()
            ):
                agg = patterns.setdefault(
                    pattern,
                    {"count": 0, "bytes_network": 0, "busy_s": 0.0,
                     "idle_s": 0.0},
                )
                agg["count"] += count
                agg["bytes_network"] += net
                agg["busy_s"] += p_busy
                agg["idle_s"] += p_idle
        return {
            "busy_time_s": busy,
            "elapsed_time_s": elapsed,
            "compute_time_s": sum(m.compute for m in mirrors),
            "comm_busy_s": sum(m.comm_busy for m in mirrors),
            "comm_idle_s": sum(m.comm_idle for m in mirrors),
            "flop_count": sum(m.flops for m in mirrors),
            "network_bytes": sum(m.bytes_network for m in mirrors),
            "local_bytes": sum(m.bytes_local for m in mirrors),
            "comm_count": sum(m.comm_count for m in mirrors),
            "patterns": patterns,
        }

    def summary(self) -> Dict[str, object]:
        """:func:`span_summary` of the recorder this collector observed."""
        if self._recorder is None:
            raise RuntimeError("collector was never attached to a session")
        return span_summary(self._recorder)

    def region_paths(self) -> List[tuple]:
        """('/'-joined path, :class:`RegionMirror`) pairs, depth-first."""
        if self.root_mirror is None:
            return []
        return _region_paths(self.root_mirror)


def span_summary(recorder: MetricsRecorder) -> Dict[str, object]:
    """Compact JSON-safe span summary of a finished run.

    Built from the recorder's region tree alone, so it needs no
    collector attached and leaves the charge buffer engaged.  Totals
    are the same depth-first sums ``Region.busy_time`` /
    ``elapsed_time`` use, so they equal the run's report and
    :meth:`SpanCollector.totals` exactly.  Per-pattern ``busy_s`` /
    ``idle_s`` fold each region's per-stream :class:`CommStats` sums,
    while the collector folds charges in order, so those two may
    differ from its ``totals()["patterns"]`` by float rounding (counts
    and bytes are exact).  ``spans`` and ``iterations`` count region
    entries and ``Session.iteration`` markers.
    """
    recorder.flush_charges()
    root = recorder.root
    regions = list(root.walk())
    patterns: Dict[str, Dict[str, float]] = {}
    for region in regions:
        for stats in region.comm_stats.values():
            agg = patterns.setdefault(
                stats.pattern.value,
                {"count": 0, "bytes_network": 0, "busy_s": 0.0, "idle_s": 0.0},
            )
            agg["count"] += stats.count
            agg["bytes_network"] += stats.bytes_network
            agg["busy_s"] += stats.busy_time
            agg["idle_s"] += stats.idle_time
    top = sorted(
        _region_paths(root),
        key=lambda item: item[1].compute_busy + item[1].comm_busy,
        reverse=True,
    )
    return {
        "schema": SPAN_SUMMARY_SCHEMA,
        "spans": sum(r.entries for r in regions),
        "iterations": sum(r.marked_iterations for r in regions),
        "busy_time_s": root.busy_time,
        "elapsed_time_s": root.elapsed_time,
        "compute_time_s": sum(r.compute_busy for r in regions),
        "comm_busy_s": sum(r.comm_busy for r in regions),
        "comm_idle_s": sum(r.comm_idle for r in regions),
        "flop_count": sum(r.flops.total for r in regions),
        "network_bytes": root.network_bytes,
        "comm_count": sum(r.comm_count for r in regions),
        "patterns": patterns,
        "top_regions": [
            {
                "path": path,
                "busy_s": region.compute_busy + region.comm_busy,
                "flops": region.flops.total,
            }
            for path, region in top[:3]
        ],
    }


def _region_paths(root) -> List[tuple]:
    """('/'-joined path, node) pairs of a region or mirror tree.

    Depth-first, root excluded; works on :class:`Region` and
    :class:`RegionMirror` alike (both carry ``name`` and ``children``).
    """
    out: List[tuple] = []

    def visit(node, prefix: str) -> None:
        for child in node.children:
            path = f"{prefix}/{child.name}" if prefix else child.name
            out.append((path, child))
            visit(child, path)

    visit(root, "")
    return out
