"""Chrome trace-event export (Perfetto / chrome://tracing loadable).

Emits the JSON object form of the Trace Event Format: a dictionary with
a ``traceEvents`` list of ``ph: "X"`` duration events (timestamps and
durations in microseconds of *simulated* time), ``ph: "M"`` metadata
naming the process and threads, and ``ph: "C"`` counter events for
cumulative FLOPs and network bytes.

Track layout (one thread per category):

* tid 1 ``regions``   — region and iteration spans (the span tree)
* tid 2 ``compute``   — compute slices, labelled by FLOP kinds
* tid 3 ``comm busy`` — bandwidth-bound communication slices
* tid 4 ``comm idle`` — latency/synchronization slices

:func:`chrome_trace` renders a live :class:`~repro.obs.spans.SpanCollector`;
:func:`chrome_trace_from_report` rebuilds an approximate trace from a
stored :class:`~repro.metrics.report.PerfReport` (segments only — the
per-slice timeline is not persisted in the run store, so segments are
laid out sequentially with children packed at their parent's start).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.spans import (
    CATEGORY_COMM_BUSY,
    CATEGORY_COMM_IDLE,
    CATEGORY_COMPUTE,
    SpanCollector,
)

#: Thread ids of the fixed track layout.
TID_REGIONS = 1
TID_COMPUTE = 2
TID_COMM_BUSY = 3
TID_COMM_IDLE = 4

_TRACK_NAMES = {
    TID_REGIONS: "regions",
    TID_COMPUTE: "compute",
    TID_COMM_BUSY: "comm busy",
    TID_COMM_IDLE: "comm idle",
}

_CATEGORY_TIDS = {
    CATEGORY_COMPUTE: TID_COMPUTE,
    CATEGORY_COMM_BUSY: TID_COMM_BUSY,
    CATEGORY_COMM_IDLE: TID_COMM_IDLE,
}


def _us(seconds: float) -> float:
    """Simulated seconds -> trace microseconds."""
    return seconds * 1e6


def _metadata(pid: int, process_name: str) -> List[Dict]:
    events: List[Dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for tid, name in _TRACK_NAMES.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )
    return events


def chrome_trace(
    collector: SpanCollector,
    *,
    benchmark: str = "benchmark",
    pid: int = 1,
) -> Dict:
    """Render a finalized collector as a trace-event JSON object."""
    events = _metadata(pid, benchmark)
    for span in collector.root.walk():
        if span.kind == "run":
            continue
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": TID_REGIONS,
                "cat": span.kind,
                "name": span.name,
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "args": {},
            }
        )
    cum_flops = 0
    cum_bytes = 0
    counters: List[Dict] = [
        {
            "ph": "C",
            "pid": pid,
            "tid": 0,
            "name": "cumulative FLOPs",
            "ts": 0.0,
            "args": {"flops": 0},
        },
        {
            "ph": "C",
            "pid": pid,
            "tid": 0,
            "name": "network bytes",
            "ts": 0.0,
            "args": {"bytes": 0},
        },
    ]
    for sl in collector.slices:
        args: Dict[str, object] = {}
        if sl.flops:
            args["flops"] = sl.flops
        if sl.ops:
            args["ops"] = dict(sl.ops)
        if sl.bytes_network:
            args["bytes_network"] = sl.bytes_network
        if sl.bytes_local:
            args["bytes_local"] = sl.bytes_local
        if sl.rank is not None:
            args["rank"] = sl.rank
        if sl.detail:
            args["detail"] = sl.detail
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": _CATEGORY_TIDS[sl.category],
                "cat": sl.category,
                "name": sl.name,
                "ts": _us(sl.start),
                "dur": _us(sl.duration),
                "args": args,
            }
        )
        if sl.category == CATEGORY_COMPUTE and sl.flops:
            cum_flops += sl.flops
            counters.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": "cumulative FLOPs",
                    "ts": _us(sl.end),
                    "args": {"flops": cum_flops},
                }
            )
        elif sl.category == CATEGORY_COMM_BUSY and sl.bytes_network:
            cum_bytes += sl.bytes_network
            counters.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": "network bytes",
                    "ts": _us(sl.end),
                    "args": {"bytes": cum_bytes},
                }
            )
    events.extend(counters)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_from_report(report, *, pid: int = 1) -> Dict:
    """Rebuild an approximate trace from a stored report's segments.

    Stored runs persist only the flattened segment tree ('/'-joined
    path names; parents inclusive of children), not the slice-level
    timeline, so this lays segments out sequentially: top-level
    segments follow one another, and each segment's children are packed
    starting at their parent's start time.  Durations are the segments'
    elapsed seconds — totals are faithful, placement is schematic.
    """
    events = _metadata(pid, f"{report.benchmark} ({report.version})")
    starts: Dict[str, float] = {}
    cursor_at: Dict[str, float] = {"": 0.0}
    cum_flops = 0
    counters: List[Dict] = []
    for seg in report.segments:
        parent, _, _leaf = seg.name.rpartition("/")
        start = cursor_at.get(parent, 0.0)
        starts[seg.name] = start
        cursor_at[parent] = start + seg.elapsed_time
        cursor_at[seg.name] = start
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": TID_REGIONS,
                "cat": "region",
                "name": seg.name,
                "ts": _us(start),
                "dur": _us(seg.elapsed_time),
                "args": {
                    "flops": seg.flop_count,
                    "busy_s": seg.busy_time,
                    "network_bytes": seg.network_bytes,
                    "iterations": seg.iterations,
                },
            }
        )
        if "/" not in seg.name:
            # Counter samples over top-level segments only (children
            # are included in their parents' totals).
            cum_flops += seg.flop_count
            counters.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": "cumulative FLOPs",
                    "ts": _us(start + seg.elapsed_time),
                    "args": {"flops": cum_flops},
                }
            )
    events.extend(counters)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: Dict) -> List[str]:
    """Minimal structural validation of a trace-event JSON object.

    Returns a list of problems (empty when the trace is well-formed):
    the trace must be a dict with a ``traceEvents`` list, every event a
    dict with string ``ph`` and ``name`` and numeric ``pid``/``tid``,
    and every ``X`` event must carry numeric ``ts`` and non-negative
    ``dur``.  This is what the CI observability job asserts.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in ("X", "M", "C"):
            problems.append(f"event {i} has invalid ph={ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i} has no string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"event {i} has non-numeric {key}")
        if ph == "X":
            ts = event.get("ts")
            dur = event.get("dur")
            if not isinstance(ts, (int, float)):
                problems.append(f"event {i} (X) has non-numeric ts")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} (X) has invalid dur={dur!r}")
    return problems


def write_chrome_trace(trace: Dict, path) -> None:
    """Serialize a trace object to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
        fh.write("\n")


__all__ = [
    "TID_REGIONS",
    "TID_COMPUTE",
    "TID_COMM_BUSY",
    "TID_COMM_IDLE",
    "chrome_trace",
    "chrome_trace_from_report",
    "validate_chrome_trace",
    "write_chrome_trace",
]
