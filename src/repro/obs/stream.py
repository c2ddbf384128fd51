"""The run-event log: one JSONL schema for engine and server runs.

``repro suite --stream events.jsonl`` (``EngineConfig.stream``) and
``repro serve --stream`` append one JSON object per lifecycle
transition, flushed per event so a tail/follower sees each job the
moment it moves.  Every record carries ``kind``, ``seq`` (0-based and
strictly increasing within one run), ``ts`` (wall-clock seconds) and
``run_id``; :data:`EVENT_FIELDS` lists what each kind adds:

* ``run_started``  — the worker count (``n_jobs`` for engine runs);
* ``job_started``  — one attempt handed to a worker, with ``batch``,
  the members of its trip (1: solo);
* ``job_retried``  — an attempt ended ``failed`` or ``timeout`` and
  the job will run again;
* ``job_finished`` — the job's final status (``cached`` for a cache
  hit), its attempts, wall, queue-wait and compute seconds, and (when
  span collection is on) the worker's span summary (see
  :data:`repro.obs.spans.SPAN_SUMMARY_SCHEMA`);
* ``run_finished`` — one count per final status and the duration.

The log is observability output, not a store: replaying it does not
reconstruct reports (the run store does that).  The job-metric
families of the telemetry registry are folded from it
(:class:`repro.obs.telemetry.JobMetrics`).

Two consumers beyond the file writer:

* :func:`read_stream` / :func:`read_stream_partial` — read a stream
  back (or any JSONL event file, such as an older engine trace),
  tolerating the truncated trailing line a live reader sees when it
  races a writer mid-flush (the partial tail is reported, never
  parsed as garbage);
* :class:`EventFanout` — fan one live event stream out to N
  subscribers (queues or callbacks) plus any number of file sinks;
  engine runs and the ``repro serve`` server emit through one, and the
  server feeds every ``repro watch`` client from it.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

#: Fields each event kind carries beyond ``kind``, ``seq``, ``ts`` and
#: ``run_id``, in lifecycle order of the kinds.
EVENT_FIELDS: Dict[str, tuple] = {
    "run_started": ("workers",),
    "job_started": ("benchmark", "request_hash", "attempt", "batch"),
    "job_retried": ("benchmark", "request_hash", "attempt", "status", "error"),
    "job_finished": (
        "benchmark", "request_hash", "status", "attempts", "wall_time_s",
        "queue_wait_s", "compute_time_s", "error", "spans",
    ),
    "run_finished": ("duration_s", "ok", "failed", "timeout", "cached"),
}

#: Event kinds a stream may carry, in lifecycle order.
STREAM_EVENT_KINDS = tuple(EVENT_FIELDS)


def _record(kind: str, seq: int, fields: Dict) -> Dict:
    """One event record, stamped with ``seq`` and the wall-clock ``ts``."""
    if kind not in EVENT_FIELDS:
        raise ValueError(
            f"unknown stream event kind {kind!r}; "
            f"expected one of {STREAM_EVENT_KINDS}"
        )
    return {"kind": kind, "seq": seq, "ts": time.time(), **fields}


class EventStream:
    """Append-mode JSONL file sink of an :class:`EventFanout`.

    Each record is flushed as it is written.  The file is opened lazily
    on the first :meth:`write`, so configuring a stream costs nothing
    when no event is ever written.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None

    def write(self, record: Dict) -> None:
        """Append one record built by :meth:`EventFanout.emit`."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass
class StreamRead:
    """Outcome of reading a (possibly still-growing) stream file."""

    #: fully parsed events, file order
    events: List[Dict] = field(default_factory=list)
    #: raw text of a truncated trailing line (no newline / unparsable),
    #: or None when the file ended cleanly
    incomplete_tail: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Whether the file ended on a complete event line."""
        return self.incomplete_tail is None


def read_stream_partial(path: Union[str, Path]) -> StreamRead:
    """Read a stream file, tolerating a partial trailing line.

    A live subscriber tailing a file the writer is still appending to
    can observe the final line mid-write (flushed without its newline,
    or cut anywhere inside the JSON).  Such a tail is *reported*, not
    raised: every complete line parses as usual, and the unparsable
    remainder comes back as ``incomplete_tail`` so the follower can
    retry from there.  A malformed line *before* the tail is real
    corruption and still raises ``ValueError`` naming the line number.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    read = StreamRead()
    lines = text.split("\n")
    # A trailing newline leaves an empty final segment; anything else
    # is a potentially-partial tail.
    tail = lines.pop() if lines else ""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            read.events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: corrupt stream line {number}: {exc}"
            ) from None
    if tail.strip():
        try:
            # A writer that flushed the record but not yet the newline
            # still produced a complete event.
            read.events.append(json.loads(tail))
        except json.JSONDecodeError:
            read.incomplete_tail = tail
    return read


def read_stream(path: Union[str, Path], *, strict: bool = False) -> list:
    """Read a stream file back as a list of event dictionaries.

    Tolerant by default: a truncated trailing line (a reader racing
    the writer mid-flush) is silently dropped — use
    :func:`read_stream_partial` to also get the raw tail.  With
    ``strict=True`` a truncated tail raises instead, which is the
    right mode for post-run validation of a finished stream.
    """
    read = read_stream_partial(path)
    if strict and not read.clean:
        raise ValueError(
            f"{path}: truncated trailing line: {read.incomplete_tail[:80]!r}"
        )
    return read.events


#: Fields that must not be empty where they appear.
_NON_EMPTY = frozenset(("run_id", "benchmark", "request_hash", "status"))


def validate_stream(events: List[Dict]) -> List[str]:
    """Schema-check a list of stream events; a list of problems.

    Checks the invariants every producer guarantees: a known ``kind``,
    an integer ``seq`` strictly increasing, ``ts`` and a non-empty
    ``run_id`` on every record, and every field of
    :data:`EVENT_FIELDS` for the kind, with non-empty job identities
    and statuses.  An empty return means the stream validates.
    """
    problems: List[str] = []
    last_seq: Optional[int] = None
    for position, event in enumerate(events):
        where = f"event {position}"
        kind = event.get("kind")
        if kind not in EVENT_FIELDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        seq = event.get("seq")
        if not isinstance(seq, int):
            problems.append(f"{where}: missing integer seq")
        elif last_seq is not None and seq <= last_seq:
            problems.append(
                f"{where}: seq {seq} not increasing (previous {last_seq})"
            )
        if isinstance(seq, int):
            last_seq = seq
        for key in ("ts", "run_id") + EVENT_FIELDS[kind]:
            if key not in event:
                problems.append(f"{where}: {kind} missing {key}")
            elif key in _NON_EMPTY and not event[key]:
                problems.append(f"{where}: {kind} has an empty {key}")
        if kind == "job_retried" and event.get("status", "failed") not in (
            "failed", "timeout",
        ):
            problems.append(f"{where}: job_retried status {event['status']!r}")
    return problems


class Subscription:
    """One live subscriber of an :class:`EventFanout`.

    Queue-backed with a bound: a subscriber that stops draining loses
    *newest* events past the bound (counted in :attr:`dropped`) instead
    of stalling the producer — a slow watcher must never hold up the
    scheduler.  Iterating yields events until the fan-out closes.
    """

    _CLOSE = object()

    def __init__(self, maxsize: int) -> None:
        self._queue: "queue.Queue" = queue.Queue(maxsize=maxsize)
        self.dropped = 0
        self.closed = False

    def _deliver(self, record: Dict) -> None:
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            self.dropped += 1

    def _close(self) -> None:
        self.closed = True
        try:
            self._queue.put_nowait(self._CLOSE)
        except queue.Full:
            # No room for the sentinel: consumers still terminate — the
            # ``closed`` flag ends iteration once the queue drains, so
            # every already-delivered event is still read.
            pass

    def get(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Next event, or None on close/timeout."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is self._CLOSE:
            return None
        return item

    def __iter__(self) -> Iterator[Dict]:
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self.closed:
                    return
                continue
            if item is self._CLOSE:
                return
            yield item


class EventFanout:
    """Fan one live event stream out to N subscribers and file sinks.

    A single ``emit()`` point stamps the shared ``seq`` and delivers
    the record to every attached :class:`EventStream` file, every
    queue-backed :class:`Subscription`, and every callback subscriber.
    The retained ``run_started`` event is replayed to late subscribers
    so every consumer sees the run bracketing regardless of join time.
    Thread-safe: the serve scheduler emits from its event loop while
    watch connections subscribe/unsubscribe concurrently.
    """

    def __init__(self, *, maxsize: int = 1024) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._streams: List[EventStream] = []
        self._subscriptions: List[Subscription] = []
        self._callbacks: List[Callable[[Dict], None]] = []
        self._retained_start: Optional[Dict] = None
        self._maxsize = maxsize
        self._closed = False
        self._dropped_detached = 0

    @property
    def subscribers(self) -> int:
        """Live subscriber count (queues + callbacks)."""
        with self._lock:
            return len(self._subscriptions) + len(self._callbacks)

    @property
    def dropped(self) -> int:
        """Lifetime count of events lost to bounded subscriber queues.

        Sums the live subscriptions' drop counts plus those of every
        subscriber that has since detached, so the total survives
        subscriber churn (``/stats`` exposes it as ``dropped_events``).
        """
        with self._lock:
            return self._dropped_detached + sum(
                subscription.dropped for subscription in self._subscriptions
            )

    def attach(self, stream: EventStream) -> "EventFanout":
        """Add a file sink; every future event is appended to it."""
        with self._lock:
            self._streams.append(stream)
        return self

    def subscribe(
        self,
        callback: Optional[Callable[[Dict], None]] = None,
        *,
        replay: bool = True,
    ):
        """Add a live subscriber; returns its handle.

        With no ``callback`` a queue-backed :class:`Subscription` is
        returned; with one, the callback itself is the handle and is
        invoked synchronously under ``emit`` (keep it non-blocking —
        e.g. ``loop.call_soon_threadsafe``).  ``replay=True`` first
        delivers the retained ``run_started`` event, if any.
        """
        with self._lock:
            retained = self._retained_start if replay else None
            if callback is not None:
                self._callbacks.append(callback)
                handle = callback
            else:
                handle = Subscription(self._maxsize)
                self._subscriptions.append(handle)
        if retained is not None:
            if callback is not None:
                callback(retained)
            else:
                handle._deliver(retained)
        return handle

    def unsubscribe(self, handle) -> None:
        """Detach a subscriber (idempotent)."""
        with self._lock:
            if handle in self._subscriptions:
                self._dropped_detached += handle.dropped
                self._subscriptions.remove(handle)
            elif handle in self._callbacks:
                self._callbacks.remove(handle)

    def emit(self, kind: str, **fields) -> Dict:
        """Build one event and deliver it to every sink/subscriber."""
        with self._lock:
            if self._closed:
                raise RuntimeError("event fan-out is closed")
            record = _record(kind, self._seq, fields)
            self._seq += 1
            if kind == "run_started":
                self._retained_start = record
            streams = list(self._streams)
            subscriptions = list(self._subscriptions)
            callbacks = list(self._callbacks)
        for stream in streams:
            stream.write(record)
        for subscription in subscriptions:
            subscription._deliver(record)
        for callback in callbacks:
            callback(record)
        return record

    def close(self) -> None:
        """Close every subscription and file sink (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams)
            subscriptions = list(self._subscriptions)
            self._dropped_detached += sum(
                subscription.dropped for subscription in subscriptions
            )
            self._streams.clear()
            self._subscriptions.clear()
            self._callbacks.clear()
        for subscription in subscriptions:
            subscription._close()
        for stream in streams:
            stream.close()


__all__ = [
    "EVENT_FIELDS",
    "STREAM_EVENT_KINDS",
    "EventFanout",
    "EventStream",
    "StreamRead",
    "Subscription",
    "read_stream",
    "read_stream_partial",
    "validate_stream",
]
