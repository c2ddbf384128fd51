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
  hit) and error, its attempts, wall, queue-wait and compute seconds,
  and the worker's span summary, if it made one (see
  :data:`repro.obs.spans.SPAN_SUMMARY_SCHEMA`);
* ``run_finished`` — one count per final status and the duration;
  engine runs and servers alike add the run's throughput, cache-hit
  rate, worker utilization and retries
  (:class:`repro.engine.journal.RunJournal`).

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
* :class:`EventFanout` — fan one live event stream out to N callback
  subscribers plus any number of file sinks; engine runs and the
  ``repro serve`` server emit through one, and the server feeds every
  ``repro watch`` client from it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

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


class EventFanout:
    """Fan one live event stream out to N subscribers and file sinks.

    A single ``emit()`` point stamps the shared ``seq`` and delivers
    the record to every attached :class:`EventStream` file and every
    callback subscriber.  The retained ``run_started`` event is
    replayed to late subscribers so every consumer sees the run
    bracketing regardless of join time.  Thread-safe: the serve
    scheduler emits from its event loop while watch connections
    subscribe/unsubscribe concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._streams: List[EventStream] = []
        self._callbacks: List[Callable[[Dict], None]] = []
        self._retained_start: Optional[Dict] = None
        self._closed = False

    @property
    def subscribers(self) -> int:
        """Live subscriber count."""
        with self._lock:
            return len(self._callbacks)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ended the stream."""
        return self._closed

    def attach(self, stream: EventStream) -> "EventFanout":
        """Add a file sink; every future event is appended to it."""
        with self._lock:
            self._streams.append(stream)
        return self

    def subscribe(
        self, callback: Callable[[Dict], None], *, replay: bool = True
    ) -> Callable[[Dict], None]:
        """Add a live subscriber; returns its handle (the callback).

        The callback is invoked synchronously under ``emit`` (keep it
        non-blocking — e.g. ``loop.call_soon_threadsafe``).
        ``replay=True`` first delivers the retained ``run_started``
        event, if any.
        """
        with self._lock:
            retained = self._retained_start if replay else None
            self._callbacks.append(callback)
        if retained is not None:
            callback(retained)
        return callback

    def unsubscribe(self, handle: Callable[[Dict], None]) -> None:
        """Detach a subscriber (idempotent)."""
        with self._lock:
            if handle in self._callbacks:
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
            callbacks = list(self._callbacks)
        for stream in streams:
            stream.write(record)
        for callback in callbacks:
            callback(record)
        return record

    def close(self) -> None:
        """Detach every subscriber and close every file sink (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams)
            self._streams.clear()
            self._callbacks.clear()
        for stream in streams:
            stream.close()


__all__ = [
    "EVENT_FIELDS",
    "STREAM_EVENT_KINDS",
    "EventFanout",
    "EventStream",
    "StreamRead",
    "read_stream",
    "read_stream_partial",
    "validate_stream",
]
