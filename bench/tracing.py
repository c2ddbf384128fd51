"""Spans around the program's public calls, and self-time arithmetic.

The traced run wraps public functions of each layer from the
benchmark's own files (nothing under ``src/`` changes).  Each wrapped
call records a span: name, start, end, parent span and the request id
(the request's content hash) it served.  Spans stay in memory until the
run ends, then :meth:`Tracer.export` writes them as JSON lines.

A span's *self time* is its duration minus the part of that interval
its direct children cover (the union of the children's intervals, so
overlapping children — concurrent pool futures — are not subtracted
twice).  A layer's self time is the sum over its spans; the layer is
the first dotted component of the span name.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import json
import os
import pstats
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from common import clock


_IDS = itertools.count(1)


def _next_id() -> int:
    """Span ids unique across tracers and processes (pid-qualified)."""
    return os.getpid() * 1_000_000_000 + next(_IDS)


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    request_id: Optional[str] = None
    span_id: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """In-memory span recorder; parent links follow each thread's stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(
        self, name: str, request_id: Optional[str] = None, *, push: bool = True
    ) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        with self._lock:
            span = Span(
                name=name,
                start=clock(),
                parent=parent.span_id if parent else None,
                request_id=request_id,
                span_id=_next_id(),
            )
            self.spans.append(span)
        if push:
            stack.append(span)
        return span

    def finish(self, span: Span, *, pop: bool = True) -> None:
        span.end = clock()
        if pop:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Span]:
        span = self.begin(name, request_id)
        try:
            yield span
        finally:
            self.finish(span)

    def worker_child(self, span: Span, compute_s: float) -> None:
        """Attribute in-worker compute inside a pool future's span.

        A worker cannot be traced from the driver, so its compute time
        (which the worker reports) becomes a ``worker.compute`` child at
        the end of the future's interval; the future's own self time is
        then the dispatch overhead alone.
        """
        end = span.end if span.end is not None else clock()
        with self._lock:
            self.spans.append(
                Span(
                    name="worker.compute",
                    start=max(span.start, end - compute_s),
                    end=end,
                    parent=span.span_id,
                    request_id=span.request_id,
                    span_id=_next_id(),
                )
            )

    def closed(self) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.end is not None]

    def export(self, path: Path) -> Path:
        """Write every closed span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.closed():
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
        return path


def load_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# -- self time -----------------------------------------------------------
def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span_id -> duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(span.start, span.end, children.get(span.span_id, []))
        for span in spans
        if span.end is not None
    }


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """layer -> summed self seconds of its spans."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span.span_id in own:
            totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals


def adopt(spans: List[Span], name: str) -> List[Span]:
    """Link another process's root spans under the ``name`` spans.

    Spans of different processes carry no parent link.  A root span
    that served a request becomes a child of the ``name`` span (e.g. the
    client's submit) with the same request id whose interval contains
    it, so that span's self time no longer counts the time spent inside
    the other process.  :func:`clock` is system-wide, so the intervals
    compare across processes.  Root spans without a request id (the
    server's periodic ``write_stats``) stay roots.
    """
    outer: Dict[str, List[Span]] = {}
    for span in spans:
        if span.name == name and span.request_id is not None and span.end is not None:
            outer.setdefault(span.request_id, []).append(span)
    for span in spans:
        if span.parent is not None or span.name == name or span.end is None:
            continue
        for candidate in outer.get(span.request_id, ()):
            if candidate.start <= span.start and span.end <= candidate.end:
                span.parent = candidate.span_id
                break
    return spans


def durations(spans: List[Span], name: str) -> List[float]:
    return [s.duration for s in spans if s.name == name and s.end is not None]


# -- wrappers ------------------------------------------------------------
def _request_hash(obj) -> Optional[str]:
    """Request id of a RunRequest or of a run-store record."""
    content_hash = getattr(obj, "content_hash", None)
    if callable(content_hash):
        return content_hash()
    if isinstance(obj, dict):
        return obj.get("request_hash")
    return None


class Patcher:
    """Installs span wrappers on module attributes and class members."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def function(self, owner, attr: str, name: str, rid_arg: Optional[int] = None, *, result_attrs=None) -> None:
        """Wrap a synchronous callable (function or method)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = _request_hash(args[rid_arg]) if rid_arg is not None and len(args) > rid_arg else None
            span = tracer.begin(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if result_attrs is not None:
                span.attrs.update(result_attrs(result))
            return result

        self._set(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def future(self, owner, attr: str, name: str, rid_arg: Optional[int] = None, *, result_attrs=None) -> None:
        """Wrap a method returning a future: the span ends when it resolves."""
        fn = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = _request_hash(args[rid_arg]) if rid_arg is not None else None
            span = tracer.begin(name, rid, push=False)
            fut = fn(*args, **kwargs)

            def _done(f) -> None:
                tracer.finish(span, pop=False)
                if result_attrs is not None and not f.cancelled() and f.exception() is None:
                    span.attrs.update(result_attrs(f.result()))
                    tracer.worker_child(span, span.attrs["compute_s"])

            fut.add_done_callback(_done)
            return fut

        self._set(owner, attr, wrapper)

    def coroutine(self, owner, attr: str, name: str, rid_arg: Optional[int] = None, *, result_attrs=None) -> None:
        """Wrap an ``async def`` method."""
        fn = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            rid = _request_hash(args[rid_arg]) if rid_arg is not None else None
            span = tracer.begin(name, rid, push=False)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.finish(span, pop=False)
            if result_attrs is not None:
                span.attrs.update(result_attrs(result))
                tracer.worker_child(span, span.attrs["compute_s"])
            return result

        self._set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _compute_attrs(payload) -> Dict[str, object]:
    return {"compute_s": payload.get("compute_time_s", 0.0)}


def _batch_attrs(payload) -> Dict[str, object]:
    members = payload.get("members", [])
    return {
        "members": len(members),
        "compute_s": sum(m.get("compute_time_s", 0.0) for m in members),
    }


def install_simulation(patcher: Patcher) -> None:
    """run_benchmark, PerfReport.from_recorder, report_to_dict."""
    import repro.metrics.serialize as serialize
    import repro.suite.runner as runner
    from repro.metrics.report import PerfReport

    patcher.function(runner, "run_benchmark", "suite.run_benchmark")
    patcher.function(PerfReport, "from_recorder", "metrics.from_recorder")
    patcher.function(serialize, "report_to_dict", "metrics.report_to_dict")


def install_engine(patcher: Patcher, *, serve: bool = False) -> None:
    """Cache, store, pool futures, stats, driver-side deserialization."""
    import repro.engine.executor as executor
    import repro.engine.stats as stats
    from repro.engine.cache import ResultCache
    from repro.engine.pool import WorkerPool
    from repro.engine.shards import ShardedRunStore
    from repro.engine.store import RunStore, StoreReader

    patcher.function(ResultCache, "get", "engine.cache.get", 1,
                     result_attrs=lambda r: {"hit": r is not None})
    patcher.function(ResultCache, "put", "engine.cache.put", 1)
    patcher.function(RunStore, "append", "engine.store.append", 1)
    patcher.function(ShardedRunStore, "append", "engine.store.append", 1)
    patcher.function(StoreReader, "write_stats", "engine.stats.write_stats")
    patcher.function(executor, "report_from_dict", "metrics.report_from_dict")
    patcher.function(stats, "stats_from_results", "engine.stats.stats_from_results")
    patcher.future(WorkerPool, "submit", "engine.pool.submit", 1,
                   result_attrs=_compute_attrs)
    patcher.future(WorkerPool, "submit_batch", "engine.pool.submit_batch",
                   result_attrs=_batch_attrs)
    if serve:
        patcher.coroutine(WorkerPool, "submit_async", "engine.pool.submit", 1,
                          result_attrs=_compute_attrs)


def replay(requests, *, collect_spans: bool = False) -> float:
    """Run requests in this process the way a pool worker does; seconds.

    Pool workers cannot be traced from outside, so the traced runs
    replay the workers' requests here, under simulation spans or
    cProfile.  ``collect_spans`` attaches a ``SpanCollector`` to each
    job, as ``repro serve``'s workers do.
    """
    import repro.metrics.serialize as serialize
    from repro.engine.jobs import execute_request
    from repro.obs import SpanCollector

    started = time.perf_counter()
    for request in requests:
        collector = SpanCollector() if collect_spans else None
        serialize.report_to_dict(execute_request(request, observer=collector))
        if collector is not None:
            collector.finalize().summary()
    return time.perf_counter() - started


# -- cProfile rollup -----------------------------------------------------
class Profile:
    """A cProfile session rolled up by package."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()

    def __enter__(self) -> "Profile":
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Leave a stretch of the benchmark's own work out of the profile."""
        self.profiler.disable()
        try:
            yield
        finally:
            self.profiler.enable()

    def rollup(self) -> Dict[str, object]:
        return rollup(pstats.Stats(self.profiler).stats)


def _package_of(filename: str, funcname: str, repro_root: str, numpy_root: str) -> str:
    if filename == "~":
        return "numpy" if "numpy" in funcname else "builtins"
    if filename.startswith(numpy_root):
        return "numpy"
    if filename.startswith(repro_root):
        head = filename[len(repro_root):].lstrip("/").split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head
    return "other"


def rollup(raw_stats: Dict) -> Dict[str, object]:
    """Self seconds per package plus the accounting call counts.

    ``charge_calls`` counts calls into ``Session.charge_*`` and
    ``Session.record_comm``; ``recorder_calls`` counts calls into functions of
    ``repro/metrics/recorder.py``; the NetworkModel pair gives the cost
    memo's hit ratio (``_cost`` runs only on a memo miss).
    """
    import numpy
    import repro

    repro_root = os.path.dirname(os.path.abspath(repro.__file__))
    numpy_root = os.path.dirname(os.path.abspath(numpy.__file__))
    self_s: Dict[str, float] = {}
    charge_calls = recorder_calls = cost_calls = cost_misses = 0
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) in raw_stats.items():
        package = _package_of(filename, funcname, repro_root, numpy_root)
        self_s[package] = self_s.get(package, 0.0) + tottime
        if package == "machine" and filename.endswith("session.py") and (
            funcname.startswith("charge_") or funcname == "record_comm"
        ):
            charge_calls += ncalls
        elif package == "metrics" and filename.endswith("recorder.py"):
            recorder_calls += ncalls
        elif package == "machine" and filename.endswith("network.py"):
            if funcname == "cost":
                cost_calls += ncalls
            elif funcname == "_cost":
                cost_misses += ncalls
    return {
        "self_s": self_s,
        "charge_calls": charge_calls,
        "recorder_calls": recorder_calls,
        "cost_calls": cost_calls,
        "cost_misses": cost_misses,
    }


#: cProfile packages reported as ``<package>.self_ms``
PROFILED_PACKAGES = (
    "apps", "linalg", "comm", "layout", "array", "numpy", "machine",
    "metrics", "suite", "engine", "serve", "obs",
)


def rollup_metrics(parts: Dict[str, Dict[str, object]], jobs: int, simulated: int) -> Dict[str, float]:
    """``<package>.self_ms`` per job and accounting counts per simulated job.

    ``parts`` maps a source (``"driver"``, ``"replay"``) to its rollup.
    Every source's self time is divided by the same ``jobs`` (the run's
    jobs or submissions), so the driver's and the worker-side replay's
    shares add up to one per-job cost.  The accounting counts come from
    the source that ran the simulation (the replay, if any) and are per
    job it simulated (``simulated``).
    """
    out = {f"{pkg}.self_ms": 0.0 for pkg in PROFILED_PACKAGES}
    for roll in parts.values():
        for pkg in PROFILED_PACKAGES:
            out[f"{pkg}.self_ms"] += 1e3 * roll["self_s"].get(pkg, 0.0) / max(1, jobs)
    roll = parts.get("replay") or parts["driver"]
    out["machine.charge_calls"] = roll["charge_calls"] / max(1, simulated)
    out["metrics.recorder_calls"] = roll["recorder_calls"] / max(1, simulated)
    out["machine.network_cost_hit_ratio"] = (
        1.0 - roll["cost_misses"] / roll["cost_calls"] if roll["cost_calls"] else 0.0
    )
    return out


def span_metrics(spans: List[Span], jobs: int) -> Dict[str, float]:
    """Per-job layer self time derived from the span tree."""
    layers = layer_self_times(spans)
    out = {
        f"span.{layer}.self_ms": 1e3 * layers.get(layer, 0.0) / max(1, jobs)
        for layer in ("suite", "metrics", "engine", "serve")
    }
    out["trace.spans_per_job"] = len(spans) / max(1, jobs)
    return out
