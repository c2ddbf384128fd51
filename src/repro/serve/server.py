"""The asyncio run server: dedupe, warm pool, admission, fan-out.

One :class:`ServeApp` owns one event loop, one resident
:class:`~repro.engine.pool.WorkerPool`, one content-hash
:class:`~repro.engine.cache.ResultCache`, one sharded run store, and
one :class:`~repro.obs.stream.EventFanout`.  Every client connection is
a coroutine; every unique request hash is at most one worker execution,
no matter how many clients ask for it concurrently:

1. **rate limit** — the per-client token bucket answers 429 +
   ``Retry-After`` before any work is considered;
2. **dedupe, completed** — a hash already answered this server
   lifetime (or present in the disk cache) is served back instantly;
3. **dedupe, in-flight** — a hash currently executing gains a rider:
   the new client awaits the same future and receives the identical
   payload;
4. **admission** — with the active set full, 429 + ``Retry-After``
   (clients retry; the queue is bounded, and completed jobs beyond
   ``max_done_jobs`` are evicted to the disk cache, so memory is
   bounded too);
5. **execute** — one scheduler loop drives the job through the
   engine's :class:`~repro.engine.lifecycle.Lifecycle`: at most
   ``workers`` jobs run on the warm pool at once via
   ``pool.submit_async``, the timeout clock starts when a job is handed
   to the pool (not when it was admitted), failed attempts retry with
   backoff, and a stuck worker or a broken executor restarts the pool.

Completions persist exactly like engine runs do — a cache entry and a
sharded store record per job, one ``.stats`` sidecar when the run ends
— and emit one ``job_finished`` event through the fan-out to every
``/events`` subscriber.  Reports are byte-identical to CLI runs of the
same request: workers execute the same ``execute_request`` path and
serialize with the same canonical encoder.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.engine.cache import ResultCache
from repro.engine.executor import RunResult
from repro.engine.jobs import RunRequest
from repro.engine.lifecycle import Finish, Lifecycle, Restart, Submission
from repro.engine.pool import WorkerPool, _pool_supported, returned
from repro.engine.shards import ShardedRunStore
from repro.engine.stats import StatsAccumulator
from repro.engine.store import RunStore, make_record, new_run_id
from repro.obs import telemetry
from repro.obs.expo import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.obs.expo import render_exposition
from repro.obs.stream import EventFanout, EventStream
from repro.serve.protocol import (
    API_VERSION,
    ProtocolError,
    error_payload,
    job_payload,
    parse_submit,
)
from repro.serve.state import Job, ServerCounters, TokenBucket

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Tuning knobs of one server instance."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests)
    port: int = 8765
    #: resident worker-pool size
    workers: int = 2
    cache_dir: Optional[Union[str, Path]] = None
    #: LRU byte budget for the cache, enforced periodically
    cache_max_bytes: Optional[int] = None
    #: run-store path; a directory becomes a sharded store (the
    #: default layout for servers — many writers, many runs)
    store: Optional[Union[str, Path]] = None
    #: JSONL file sink attached to the event fan-out
    stream: Optional[Union[str, Path]] = None
    #: bound on concurrently admitted unique jobs (backpressure)
    max_queue: int = 64
    #: per-client admission rate, requests/second (None: unlimited)
    rate_limit: Optional[float] = None
    rate_burst: int = 8
    #: per-attempt job timeout, seconds
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.1
    #: pre-spawn and pre-import workers before accepting requests
    warmup: bool = True
    #: enforce the cache byte budget every N executions
    prune_every: int = 32
    #: completed jobs retained in memory; older done jobs are evicted
    #: (their durable copies — store record, cache entry — survive, so
    #: ``/result`` still answers for evicted hashes via the disk cache)
    max_done_jobs: int = 1024


class ServeApp:
    """One server instance: scheduler state + HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.run_id = new_run_id()
        self.counters = ServerCounters()
        self.fanout = EventFanout()
        self.jobs: Dict[str, Job] = {}
        # each app owns its registry (not the process-global one) so
        # GET /metrics describes exactly this server instance even with
        # several apps in one test process
        self.telemetry = telemetry.MetricsRegistry()
        self._init_telemetry()
        self.pool = WorkerPool(self.config.workers)
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.store = self._open_store(self.config.store)
        if self.config.stream is not None:
            self.fanout.attach(EventStream(self.config.stream))
        self.limiter = (
            TokenBucket(self.config.rate_limit, self.config.rate_burst)
            if self.config.rate_limit is not None
            else None
        )
        self._stats_acc = StatsAccumulator(
            self.run_id, workers=self.config.workers
        )
        config = self.config
        # keyed by request hash: at most one open job per hash
        self._lifecycle = Lifecycle(
            config.workers, retries=config.retries, backoff=config.backoff, timeout=config.timeout
        )
        #: resolved to wake the scheduler loop
        self._kick: Optional[asyncio.Future] = None
        self._done_order: "deque[str]" = deque()
        self._job_index = 0
        self._started_at = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    @staticmethod
    def _open_store(path):
        """A server store defaults to the sharded layout.

        An existing single-file store is honored for compatibility;
        any other path (existing directory or not yet created) becomes
        a :class:`ShardedRunStore` — concurrent completions land in
        per-prefix shard files under per-shard locks.
        """
        if path is None:
            return None
        p = Path(path)
        if p.is_file():
            return RunStore(p)
        return ShardedRunStore(p)

    # -- telemetry ------------------------------------------------------
    _ENDPOINTS = (
        "/healthz", "/stats", "/submit", "/result", "/events",
        "/shutdown", "/metrics",
    )

    def _init_telemetry(self) -> None:
        registry = self.telemetry
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "HTTP requests handled, by endpoint.",
            ["endpoint"],
        )
        self._m_latency = registry.histogram(
            "repro_serve_request_latency_seconds",
            "Request wall time by endpoint, seconds.",
            ["endpoint"],
        )
        self._m_submissions = registry.counter(
            "repro_serve_submissions_total",
            "Submission outcomes; mirrors the /stats counters.",
            ["outcome"],
        )
        self._m_dedupe_rate = registry.gauge(
            "repro_serve_dedupe_hit_rate",
            "Fraction of admitted submissions served without executing.",
        )
        self._m_queue_depth = registry.gauge(
            "repro_serve_queue_depth",
            "Admitted jobs executing or awaiting a dispatch slot.",
        )
        self._m_jobs = registry.counter(
            "repro_serve_jobs_total",
            "Completed jobs by final status.",
            ["status"],
        )
        self._m_dispatch = registry.histogram(
            "repro_serve_dispatch_latency_seconds",
            "Queue wait (wall minus compute) per executed job, seconds.",
        )
        self._m_timeouts = registry.counter(
            "repro_serve_timeouts_total",
            "Job attempts abandoned at the per-attempt timeout.",
        )
        self._m_retries = registry.counter(
            "repro_serve_retries_total",
            "Job attempts re-dispatched after a failure or timeout.",
        )
        self._m_subscribers = registry.gauge(
            "repro_serve_subscribers",
            "Live event-stream subscribers.",
        )
        self._m_dropped = registry.counter(
            "repro_serve_events_dropped_total",
            "Events lost to bounded subscriber queues.",
        )
        self._m_restarts = registry.counter(
            "repro_serve_pool_restarts_total",
            "Worker-pool restarts forced by timed-out jobs.",
        )
        self._m_cache = registry.counter(
            "repro_cache_requests_total",
            "Result-cache lookups by outcome.",
            ["result"],
        )
        self._m_evicted_files = registry.counter(
            "repro_cache_evicted_files_total",
            "Files evicted from the result cache by pruning.",
        )
        self._m_evicted_bytes = registry.counter(
            "repro_cache_evicted_bytes_total",
            "Bytes evicted from the result cache by pruning.",
        )
        registry.add_collector(self._collect_telemetry)

    def _collect_telemetry(self) -> None:
        # Derived series are set from the authoritative scheduler state
        # at collect time, so a /metrics scrape reconciles exactly (==)
        # with /stats by construction — there is no second tally that
        # could drift under concurrency.
        counters = self.counters.to_dict()
        for outcome in (
            "submitted", "executed", "coalesced", "served_cached",
            "rejected_queue", "rejected_rate",
        ):
            self._m_submissions.labels(outcome=outcome).set(
                counters[outcome]
            )
        self._m_dedupe_rate.set(counters["dedupe_hit_rate"])
        self._m_queue_depth.set(self._active())
        self._m_subscribers.set(self.fanout.subscribers)
        self._m_dropped.set(self.fanout.dropped)
        self._m_restarts.set(max(0, self.pool.generation - 1))

    @classmethod
    def _endpoint_label(cls, path: str) -> str:
        """Normalized, bounded endpoint label for request metrics.

        ``/result/<hash>`` collapses to ``/result`` and unknown paths
        to ``other`` — label cardinality must never scale with traffic.
        """
        if path.startswith("/result/"):
            return "/result"
        if path in cls._ENDPOINTS:
            return path
        return "other"

    # -- lifecycle ------------------------------------------------------
    async def serve(
        self,
        ready: Optional[threading.Event] = None,
        on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Run the server until shutdown is requested.

        ``ready`` is set and ``on_bound`` is called with the actually
        bound ``(host, port)`` once the listening socket exists — with
        ``port=0`` in the config, that is the only way callers learn
        the ephemeral port.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._kick = self._loop.create_future()
        if self.config.warmup and _pool_supported():
            await self._loop.run_in_executor(None, self.pool.warmup)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if on_bound is not None:
            on_bound(self.address)
        self.fanout.emit(
            "run_started",
            run_id=self.run_id,
            workers=self.config.workers,
            server="repro-serve",
        )
        if ready is not None:
            ready.set()
        try:
            await self._schedule()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for sub in self._lifecycle.inflight:
                sub.handle.cancel()
            # every open job reaches done and its waiters are released
            for finish in self._lifecycle.shutdown(time.monotonic()):
                self._complete(finish)
            self._finalize()
            # let open /events handlers observe the shutdown event and
            # unwind before the loop is torn down under them
            await asyncio.sleep(0.05)

    def _finalize(self) -> None:
        # the accumulator, not self.jobs: done jobs may have been
        # evicted from memory but still count toward the lifetime tally
        counts = {"ok": 0, "failed": 0, "timeout": 0, "cached": 0}
        for status, n in self._stats_acc.status_counts.items():
            if status in counts:
                counts[status] = n
        try:
            self.fanout.emit(
                "run_finished",
                run_id=self.run_id,
                duration_s=time.monotonic() - self._started_at,
                **counts,
            )
        except RuntimeError:  # pragma: no cover - already closed
            pass
        # the run's one sidecar, written when it ends as an engine
        # run's is; until then (or if this write fails) `engine stats`
        # and `engine check` recompute the run from its store records
        try:
            if self.store is not None and self._stats_acc.n_jobs:
                stats = self._stats_acc.snapshot(
                    duration_s=time.monotonic() - self._started_at,
                )
                self.store.write_stats(self.run_id, stats.to_dict())
        except OSError as exc:
            print(
                f"repro serve: stats sidecar not written: {exc}",
                file=sys.stderr,
            )
        finally:
            self.fanout.close()
            self.pool.shutdown(wait=False)

    def request_shutdown(self) -> None:
        """Ask the server to stop; safe to call from any thread."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._stop)

    def _stop(self) -> None:
        self._shutdown.set()
        self._nudge()

    def _nudge(self) -> None:
        """Wake the scheduler loop."""
        if not self._kick.done():
            self._kick.set_result(None)

    # -- HTTP front end -------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, target, headers, body = parsed
            split = urlsplit(target)
            path = split.path
            query = {
                k: v[-1] for k, v in parse_qs(split.query).items()
            }
            started = time.monotonic()
            try:
                await self._route(writer, method, path, query, headers, body)
            finally:
                if telemetry.enabled():
                    endpoint = self._endpoint_label(path)
                    self._m_requests.labels(endpoint=endpoint).inc()
                    self._m_latency.labels(endpoint=endpoint).observe(
                        time.monotonic() - started
                    )
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except Exception as exc:  # never kill the accept loop
            try:
                self._respond(
                    writer, 500, error_payload(f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _respond(
        self,
        writer,
        status: int,
        payload: Dict,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    def _respond_text(
        self,
        writer,
        status: int,
        text: str,
        *,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        """Plain-text response path (the ``/metrics`` exposition)."""
        body = text.encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    async def _route(self, writer, method, path, query, headers, body) -> None:
        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, self._healthz())
        elif path == "/stats" and method == "GET":
            self._respond(writer, 200, self._stats())
        elif path == "/metrics" and method == "GET":
            self._respond_text(
                writer,
                200,
                render_exposition(self.telemetry.collect()),
                content_type=_METRICS_CONTENT_TYPE,
            )
        elif path == "/submit" and method == "POST":
            await self._submit(writer, headers, body)
        elif path.startswith("/result/") and method == "GET":
            await self._result(writer, path[len("/result/"):], query)
        elif path == "/events" and method == "GET":
            await self._events(writer, query)
        elif path == "/shutdown" and method == "POST":
            self._respond(writer, 200, {"api": API_VERSION, "ok": True})
            await writer.drain()
            self._stop()
        elif path in (
            "/healthz", "/stats", "/metrics", "/submit", "/events",
            "/shutdown",
        ) or path.startswith("/result/"):
            self._respond(
                writer, 405, error_payload(f"{method} not allowed on {path}")
            )
        else:
            self._respond(writer, 404, error_payload(f"no such path {path}"))
        await writer.drain()

    def _healthz(self) -> Dict:
        return {
            "api": API_VERSION,
            "ok": True,
            "run_id": self.run_id,
            "uptime_s": time.monotonic() - self._started_at,
            "workers": self.pool.workers,
            "pool_generation": self.pool.generation,
            "process_pool": self.pool.process_based,
        }

    def _stats(self) -> Dict:
        return {
            "api": API_VERSION,
            "run_id": self.run_id,
            "uptime_s": time.monotonic() - self._started_at,
            "counters": self.counters.to_dict(),
            "jobs": len(self.jobs),
            "active": self._active(),
            "max_queue": self.config.max_queue,
            "subscribers": self.fanout.subscribers,
            "dropped_events": self.fanout.dropped,
            "workers": self.pool.workers,
            "pool_generation": self.pool.generation,
            "store": str(self.config.store) if self.config.store else None,
            "cache_dir": (
                str(self.config.cache_dir) if self.config.cache_dir else None
            ),
        }

    def _active(self) -> int:
        """Admitted jobs not yet done: the lifecycle's open jobs."""
        return self._lifecycle.unfinished

    # -- submission / dedupe --------------------------------------------
    def _client_key(self, writer, headers) -> str:
        client = headers.get("x-client-id")
        if client:
            return client
        peer = writer.get_extra_info("peername")
        return peer[0] if peer else "unknown"

    async def _submit(self, writer, headers, body) -> None:
        if self.limiter is not None:
            retry_after = self.limiter.allow(self._client_key(writer, headers))
            if retry_after > 0:
                self.counters.rejected_rate += 1
                self._respond(
                    writer,
                    429,
                    error_payload("rate limited", retry_after=retry_after),
                    extra_headers={"Retry-After": f"{retry_after:.3f}"},
                )
                return
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
            request, wait, timeout = parse_submit(parsed)
        except ProtocolError as exc:
            self._respond(writer, exc.status, error_payload(str(exc)))
            return
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._respond(writer, 400, error_payload(f"bad JSON body: {exc}"))
            return

        request_hash = request.content_hash()
        job = self.jobs.get(request_hash)

        if job is not None and job.done:
            self.counters.submitted += 1
            self.counters.served_cached += 1
            self._respond(writer, 200, job_payload(job, source="cache"))
            return

        if job is not None:
            # identical request in flight: ride along, never re-execute
            self.counters.submitted += 1
            self.counters.coalesced += 1
            job.coalesced += 1
            await self._answer(writer, job, wait, timeout, source="coalesced")
            return

        cached = self._from_cache(request, request_hash)
        if cached is not None:
            self.counters.submitted += 1
            self.counters.served_cached += 1
            self._respond(writer, 200, job_payload(cached, source="cache"))
            return

        if self._shutdown.is_set():  # no job admitted now could finish
            self._respond(writer, 503, error_payload("server shutting down"))
            return
        if self._active() >= self.config.max_queue:
            self.counters.rejected_queue += 1
            retry_after = self.config.timeout or 0.25
            self._respond(
                writer,
                429,
                error_payload("queue full", retry_after=retry_after),
                extra_headers={"Retry-After": f"{retry_after:.3f}"},
            )
            return

        self.counters.submitted += 1
        self.counters.executed += 1
        job = Job(
            request=request,
            request_hash=request_hash,
            future=self._loop.create_future(),
            index=self._job_index,
        )
        self._job_index += 1
        self.jobs[request_hash] = job
        self._lifecycle.add(request_hash, time.monotonic())
        self._nudge()
        await self._answer(writer, job, wait, timeout, source="executed")

    async def _answer(self, writer, job, wait, timeout, *, source) -> None:
        """Answer one submitter: block on the job future, or ack."""
        if job.done:
            # already complete — including jobs materialized from the
            # disk cache, which carry no future to wait on
            self._respond(writer, 200, job_payload(job, source=source))
            return
        if wait:
            try:
                await asyncio.wait_for(asyncio.shield(job.future), timeout)
            except asyncio.TimeoutError:
                self._respond(writer, 202, job_payload(job, source=source))
                return
            self._respond(writer, 200, job_payload(job, source=source))
        else:
            self._respond(writer, 202, job_payload(job, source=source))

    def _from_cache(self, request, request_hash: str) -> Optional[Job]:
        """Materialize a disk-cache hit as a completed job.

        Mirrors the engine's cache path: the hit is recorded in the
        store (status ``cached``) and announced on the event stream, so
        a server answering from cache leaves the same durable trail as
        one that executed.
        """
        if self.cache is None:
            return None
        hit = self.cache.get(request)
        job = self._materialize(request, request_hash, hit)
        if telemetry.enabled():
            self._m_cache.labels(
                result="hit" if job is not None else "miss"
            ).inc()
        return job

    def _from_cache_hash(self, request_hash: str) -> Optional[Job]:
        """Rematerialize an evicted hash from the disk cache.

        ``max_done_jobs`` eviction only drops the in-memory copy; the
        cache entry still holds the request and report, so ``/result``
        keeps answering for hashes the server no longer remembers.
        """
        if self.cache is None:
            return None
        job = None
        hit = self.cache.get_by_hash(request_hash)
        if hit is not None and isinstance(hit.get("request"), dict):
            try:
                request = RunRequest.from_dict(hit["request"])
            except (TypeError, ValueError, KeyError):
                request = None
            if request is not None:
                job = self._materialize(request, request_hash, hit)
        if telemetry.enabled():
            self._m_cache.labels(
                result="hit" if job is not None else "miss"
            ).inc()
        return job

    def _materialize(self, request, request_hash: str, hit) -> Optional[Job]:
        """Turn one cache record into a completed, recorded job."""
        if hit is None or hit.get("report") is None:
            return None
        job = Job(
            request=request,
            request_hash=request_hash,
            state="done",
            status="cached",
            source="cache",
            report_record=hit["report"],
            index=self._job_index,
        )
        self._job_index += 1
        job.finished_at = time.monotonic()
        self.jobs[request_hash] = job
        self._record(job)
        return job

    # -- execution ------------------------------------------------------
    async def _schedule(self) -> None:
        """The lifecycle's serve driver, until shutdown.

        Each pass hands released jobs to the pool, waits for a returned
        attempt, an admitted job (the kick) or the lifecycle's next
        wakeup, and reports what happened back to the lifecycle.
        """
        lifecycle = self._lifecycle
        while not self._shutdown.is_set():
            now = time.monotonic()
            for sub in lifecycle.dispatch(now):
                ((request_hash, attempt),) = sub.members
                job = self.jobs[request_hash]
                job.state, job.started_at = "running", job.started_at or now
                # workers always return a span summary: it rides in the
                # job payload, the job_finished event and the sidecar
                sub.handle = asyncio.ensure_future(
                    self.pool.submit_async(job.request, attempt=attempt, spans=True)
                )
            if self._kick.done():
                self._kick = self._loop.create_future()
            wakeup = lifecycle.next_wakeup()
            await asyncio.wait(
                [sub.handle for sub in lifecycle.inflight] + [self._kick],
                timeout=None if wakeup is None else max(0.0, wakeup - now),
                return_when=asyncio.FIRST_COMPLETED,
            )
            now = time.monotonic()
            for sub in lifecycle.inflight:
                if sub.handle.done():
                    self._apply(returned(lifecycle, sub, now))
            self._apply(lifecycle.expire(now, self._abandon))

    @staticmethod
    def _abandon(sub: Submission) -> bool:
        """Drop an overdue attempt: its worker cannot be reclaimed."""
        sub.handle.cancel()
        return False

    def _apply(self, actions) -> None:
        """Carry out the lifecycle's actions: metrics, restarts, results."""
        for action in actions:
            if isinstance(action, Restart):
                for sub in action.abandoned:
                    sub.handle.cancel()
                self.pool.restart()
                continue
            if action.status == "timeout" and telemetry.enabled():
                self._m_timeouts.inc()
            if isinstance(action, Finish):
                self._complete(action)
            elif telemetry.enabled():
                self._m_retries.inc()

    def _complete(self, finish: Finish) -> None:
        """Persist a finished job, then release its waiters.

        Runs however the job ended, at shutdown too: riders of a job
        that never reaches "done" would wait forever.
        """
        config = self.config
        job = self.jobs[finish.key]
        job.attempts = finish.attempts
        job.wall_time_s = finish.wall_s
        job.status = finish.status
        job.error = finish.error
        if finish.result is not None:
            job.report_record = finish.result["report"]
            job.spans = finish.result.get("spans")
        job.state = "done"
        job.finished_at = time.monotonic()
        if telemetry.enabled():
            self._m_dispatch.observe(finish.queue_wait_s)
        try:
            if finish.result is not None and self.cache is not None:
                self.cache.put_report(job.request, job.report_record, finish.wall_s)
            self._record(job, queue_wait=finish.queue_wait_s, compute=finish.compute_s)
            if (
                self.cache is not None
                and config.cache_max_bytes is not None
                and self.counters.executed % max(1, config.prune_every) == 0
            ):
                self.cache.prune(max_bytes=config.cache_max_bytes)
                if telemetry.enabled():
                    self._m_evicted_files.inc(self.cache.last_prune["files"])
                    self._m_evicted_bytes.inc(self.cache.last_prune["bytes"])
        except Exception as exc:  # persistence must not strand waiters
            job.error = job.error or f"persist: {exc}"
        if job.future is not None and not job.future.done():
            job.future.set_result(job)

    # -- persistence + events -------------------------------------------
    def _record(
        self, job: Job, *, queue_wait: float = 0.0, compute: float = 0.0
    ) -> None:
        """Persist one finished job and announce it to subscribers."""
        result = RunResult(
            request=job.request,
            status=job.status,
            report=None,
            report_record=job.report_record,
            error=job.error,
            attempts=job.attempts,
            wall_time_s=job.wall_time_s,
            index=job.index,
            queue_wait_s=queue_wait,
            compute_time_s=compute,
            spans=job.spans,
        )
        self._stats_acc.add(result)
        if telemetry.enabled():
            self._m_jobs.labels(status=job.status or "failed").inc()
        self._done_order.append(job.request_hash)
        self._evict_done()
        if self.store is not None:
            self.store.append(make_record(self.run_id, result))
        try:
            self.fanout.emit(
                "job_finished",
                run_id=self.run_id,
                benchmark=job.request.benchmark,
                request_hash=job.request_hash,
                status=job.status,
                attempts=job.attempts,
                wall_time_s=job.wall_time_s,
                error=job.error,
                spans=job.spans,
            )
        except RuntimeError:  # pragma: no cover - closed during shutdown
            pass

    def _evict_done(self) -> None:
        """Bound completed-job memory: drop the oldest done jobs.

        Only the in-memory :class:`Job` (with its report dictionary)
        goes; the store record and cache entry survive, so an evicted
        hash is still answered — from the disk cache on ``/result``
        and ``/submit``, or by re-execution when uncached.
        """
        limit = max(0, self.config.max_done_jobs)
        while len(self._done_order) > limit:
            request_hash = self._done_order.popleft()
            job = self.jobs.get(request_hash)
            if job is not None and job.done:
                del self.jobs[request_hash]

    # -- results + streaming --------------------------------------------
    async def _result(self, writer, request_hash: str, query) -> None:
        try:
            timeout = float(query["timeout"]) if "timeout" in query else None
        except ValueError:
            self._respond(
                writer,
                400,
                error_payload(f"bad timeout {query['timeout']!r}"),
            )
            return
        job = self.jobs.get(request_hash)
        if job is None:
            # evicted from memory? the disk cache still knows the hash
            job = self._from_cache_hash(request_hash)
        if job is None:
            self._respond(
                writer, 404, error_payload(f"unknown request {request_hash}")
            )
            return
        wait = query.get("wait", "0") not in ("0", "", "false")
        await self._answer(
            writer, job, wait, timeout,
            source="cache" if job.done else "executed",
        )

    async def _events(self, writer, query) -> None:
        """Stream fan-out events to one subscriber, newline-delimited."""
        try:
            limit = int(query["count"]) if "count" in query else None
        except ValueError:
            self._respond(
                writer, 400, error_payload(f"bad count {query['count']!r}")
            )
            return
        events: "asyncio.Queue" = asyncio.Queue()
        loop = self._loop
        handle = self.fanout.subscribe(
            lambda record: loop.call_soon_threadsafe(events.put_nowait, record)
        )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        try:
            await writer.drain()
            while limit is None or sent < limit:
                getter = asyncio.ensure_future(events.get())
                stopper = asyncio.ensure_future(self._shutdown.wait())
                done, pending = await asyncio.wait(
                    {getter, stopper}, return_when=asyncio.FIRST_COMPLETED
                )
                for task in pending:
                    task.cancel()
                if getter not in done:
                    break
                record = getter.result()
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
                sent += 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.fanout.unsubscribe(handle)


class ServerThread:
    """A server on a background thread — the test/embedding harness.

    Context manager: entering starts the loop thread, blocks until the
    listening socket is bound, and yields ``(host, port)`` (with
    ``port=0`` in the config, the ephemeral port actually bound).
    Exiting requests shutdown and joins the thread.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.app = ServeApp(config)
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> Tuple[str, int]:
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.app.serve(ready)),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("server failed to start within 60s")
        host, port = self.app.address
        return host, port

    def __exit__(self, *exc) -> None:
        self.app.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30)


def run_server(
    config: Optional[ServeConfig] = None,
    on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> ServeApp:
    """Blocking entry point (the ``repro serve`` CLI command).

    ``on_bound`` fires with the actually bound ``(host, port)`` once
    the socket exists — how ``--port 0`` callers learn their ephemeral
    port.
    """
    app = ServeApp(config)
    try:
        asyncio.run(app.serve(on_bound=on_bound))
    except KeyboardInterrupt:
        pass
    return app


__all__ = ["ServeApp", "ServeConfig", "ServerThread", "run_server"]
