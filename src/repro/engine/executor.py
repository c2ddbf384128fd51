"""Fault-tolerant run-request executor.

The :class:`Engine` turns a list of :class:`~repro.engine.jobs.RunRequest`
into :class:`RunResult` s through four layers:

* **cache** — requests whose (code fingerprint, request hash) entry
  exists are served from disk as status ``cached``;
* **execution** — remaining requests run either serially in-process or
  fanned out over a process pool (``jobs > 1``), with graceful
  degradation to serial when multiprocessing is unavailable;
* **fault tolerance** — per-job timeout (process mode), bounded retry
  with exponential backoff for failures, and isolation: one job
  exhausting its retries is recorded ``failed``/``timeout`` without
  aborting the rest;
* **persistence** — every result (including cache hits) appends to the
  run store *as its job finishes*, so a killed run keeps the history of
  every completed job; every lifecycle step emits a trace event; and a
  :class:`~repro.engine.stats.RunStats` summary is serialized next to
  the store and exposed as ``engine.last_run_stats``.

Determinism: the simulation itself is deterministic, and both execution
paths serialize reports with the same
:func:`repro.metrics.serialize.report_to_dict`, so serial and parallel
runs of the same request store byte-identical reports.

Test hooks: ``REPRO_ENGINE_INJECT_FAIL=bench:N`` makes attempts
``<= N`` of ``bench`` raise (``N`` < 0 or missing: every attempt);
``REPRO_ENGINE_INJECT_SLEEP=bench:SECONDS`` delays the job (for
exercising timeouts); ``REPRO_ENGINE_FORCE_SERIAL=1`` disables the
process pool.  Hooks apply in workers and in serial mode alike.

The worker-side machinery (payload protocol, injection hooks, pool
construction) lives in :mod:`repro.engine.pool`, whose resident
:class:`~repro.engine.pool.WorkerPool` can be shared across engine
invocations (``Engine(config, pool=...)``) so repeated runs reuse warm
workers instead of paying spawn + import per suite.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.jobs import RunRequest, execute_request
from repro.engine.pool import (  # noqa: F401  (re-exported compat names)
    ENV_FORCE_SERIAL,
    ENV_INJECT_FAIL,
    ENV_INJECT_SLEEP,
    InjectedFailure,
    WorkerPool,
    _apply_test_hooks,
    _parse_injection,
    _pool_supported,
    _worker_init,
    _worker_run,
)
from repro.engine.store import make_record, new_run_id, open_store
from repro.engine.trace import Tracer
from repro.metrics.report import PerfReport
from repro.metrics.serialize import report_from_dict, report_to_dict
from repro.obs import telemetry

#: Final job statuses.
STATUSES = ("ok", "failed", "timeout", "cached")

_METRICS: Optional[Dict] = None


def _metrics() -> Dict:
    """Engine metrics on the process-global registry, declared once.

    CLI engine runs share one process (and one registry), unlike serve
    apps which each own theirs; lazy declaration keeps module import
    free of registry work.
    """
    global _METRICS
    if _METRICS is None:
        registry = telemetry.get_registry()
        _METRICS = {
            "jobs": registry.counter(
                "repro_engine_jobs_total",
                "Engine jobs finished, by final status.",
                ["status"],
            ),
            "dispatch": registry.histogram(
                "repro_engine_dispatch_latency_seconds",
                "Queue wait (wall minus compute) per executed job, seconds.",
            ),
            "batch": registry.histogram(
                "repro_engine_batch_members",
                "Members per worker dispatch (1 = solo submission).",
                buckets=telemetry.SIZE_BUCKETS,
            ),
            "retries": registry.counter(
                "repro_engine_retries_total",
                "Job attempts re-dispatched after a failure or timeout.",
            ),
            "timeouts": registry.counter(
                "repro_engine_timeouts_total",
                "Job attempts abandoned at the per-attempt deadline.",
            ),
            "restarts": registry.counter(
                "repro_engine_pool_restarts_total",
                "Worker-pool restarts forced by uncancellable jobs.",
            ),
            "cache": registry.counter(
                "repro_cache_requests_total",
                "Result-cache lookups by outcome.",
                ["result"],
            ),
            "evicted_files": registry.counter(
                "repro_cache_evicted_files_total",
                "Files evicted from the result cache by pruning.",
            ),
            "evicted_bytes": registry.counter(
                "repro_cache_evicted_bytes_total",
                "Bytes evicted from the result cache by pruning.",
            ),
        }
    return _METRICS


@dataclass
class RunResult:
    """Outcome of one request after caching/retries."""

    request: RunRequest
    status: str
    report: Optional[PerfReport] = None
    #: the exact JSON-safe report dictionary persisted to cache/store
    report_record: Optional[Dict] = None
    error: str = ""
    attempts: int = 0
    wall_time_s: float = 0.0
    #: position in the submitted request list (plan order)
    index: int = 0
    #: seconds spent waiting for a worker, summed over attempts
    queue_wait_s: float = 0.0
    #: seconds a worker spent on this job, summed over attempts
    compute_time_s: float = 0.0
    #: span summary of the job's recorder (span collection on; see
    #: :func:`repro.obs.span_summary`), forwarded into the ``.stats``
    #: sidecar
    spans: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        """Whether a report is available (fresh or cached)."""
        return self.status in ("ok", "cached")


@dataclass
class EngineConfig:
    """Tuning knobs of one engine invocation."""

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.1
    cache_dir: Optional[Union[str, Path]] = None
    #: drop stale-fingerprint cache buckets before running
    cache_prune: bool = False
    #: LRU-evict cache entries (oldest access first) down to this byte
    #: budget before running; implies pruning stale buckets
    cache_max_bytes: Optional[int] = None
    store: Optional[Union[str, Path]] = None
    trace: Optional[Union[str, Path]] = None
    #: serial in-process mode only: let job exceptions propagate to the
    #: caller instead of recording a ``failed`` result (the historical
    #: ``run_suite`` contract).
    raise_on_error: bool = False
    run_id: Optional[str] = None
    #: JSONL live event stream path (repro suite --stream); implies
    #: span collection
    stream: Optional[Union[str, Path]] = None
    #: collect per-job span summaries (repro.obs) into the stats sidecar
    spans: bool = False
    #: most members one batch may carry (pool mode packs small
    #: first-attempt jobs into one worker submission; per-job results,
    #: cache entries, retries and timeouts keep request granularity);
    #: 32 amortizes dispatch to ~85 us/member on micro-job floods while
    #: keeping a failed batch's solo-requeue cost bounded
    batch_max: int = 32
    #: target summed compute-seconds per batch; jobs whose EWMA
    #: estimate exceeds half this always ship alone (protects the
    #: heavy subset from queueing behind batch siblings)
    batch_target_s: float = 0.25

    @property
    def collect_spans(self) -> bool:
        """Whether each job's result carries a span summary."""
        return self.spans or self.stream is not None


class Engine:
    """Parallel, cached, fault-tolerant executor of run requests."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        tracer: Optional[Tracer] = None,
        progress: Optional[Callable[[RunResult], None]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.tracer = tracer or Tracer(self.config.trace)
        self.progress = progress
        #: a resident :class:`WorkerPool` shared across invocations;
        #: when given, the engine submits to it and never shuts it down
        self.pool = pool
        #: :class:`~repro.engine.stats.RunStats` of the latest ``run()``
        self.last_run_stats = None
        self._store = None
        self._run_id: Optional[str] = None
        self._stream = None
        #: extra phase counters filled in by the pool path (batching)
        self._pool_phases: Dict[str, float] = {}

    # -- public API -----------------------------------------------------
    def run(
        self,
        requests: Sequence[RunRequest],
        session_factory: Optional[Callable[[], object]] = None,
    ) -> List[RunResult]:
        """Execute requests; results come back in request order.

        ``session_factory`` forces serial in-process execution (an
        arbitrary factory cannot be shipped to workers) and replaces
        the declarative machine spec — the compatibility path for
        :func:`repro.suite.runner.run_suite`.
        """
        from repro.engine.stats import stats_from_results

        requests = list(requests)
        config = self.config
        run_id = config.run_id or new_run_id()
        cache = (
            ResultCache(config.cache_dir) if config.cache_dir is not None else None
        )
        store = open_store(config.store) if config.store is not None else None
        results: List[Optional[RunResult]] = [None] * len(requests)
        self._store = store
        self._run_id = run_id
        if config.stream is not None:
            from repro.obs.stream import EventStream

            self._stream = EventStream(config.stream)
        started = time.perf_counter()

        try:
            pruned = 0
            if cache is not None and (
                config.cache_prune or config.cache_max_bytes is not None
            ):
                pruned = cache.prune(max_bytes=config.cache_max_bytes)
                if telemetry.enabled():
                    _metrics()["evicted_files"].inc(cache.last_prune["files"])
                    _metrics()["evicted_bytes"].inc(cache.last_prune["bytes"])
            self.tracer.emit(
                "run_started", detail=run_id, jobs=config.jobs, n=len(requests)
            )
            if self._stream is not None:
                self._stream.emit(
                    "run_started",
                    run_id=run_id,
                    workers=config.jobs,
                    n_jobs=len(requests),
                )
            pending: List[int] = []
            for index, request in enumerate(requests):
                self.tracer.emit("job_submitted", request)
                hit = cache.get(request) if cache is not None else None
                if hit is not None and hit.get("report") is not None:
                    result = RunResult(
                        request=request,
                        status="cached",
                        report=report_from_dict(hit["report"]),
                        report_record=hit["report"],
                        attempts=0,
                        wall_time_s=0.0,
                        index=index,
                    )
                    results[index] = result
                    self.tracer.emit("job_cached", request)
                    self._finish(request, result)
                else:
                    pending.append(index)
            lookup_done = time.perf_counter()
            if cache is not None and telemetry.enabled():
                hits = len(requests) - len(pending)
                if hits:
                    _metrics()["cache"].labels(result="hit").inc(hits)
                if pending:
                    _metrics()["cache"].labels(result="miss").inc(len(pending))

            use_pool = bool(pending) and (
                (config.jobs > 1 or self.pool is not None)
                and session_factory is None
                and not config.raise_on_error
                and _pool_supported()
            )
            workers_used = 1
            self._pool_phases = {}
            if pending:
                if use_pool:
                    workers_used = self._run_pool(
                        requests, pending, results, cache
                    )
                else:
                    self._run_serial(
                        requests, pending, results, cache, session_factory
                    )

            final = [r for r in results if r is not None]
            now = time.perf_counter()
            phases = {
                "cache_lookup_s": lookup_done - started,
                "execute_s": now - lookup_done,
            }
            phases.update(self._pool_phases)
            stats = stats_from_results(
                run_id,
                final,
                workers=workers_used if use_pool else 1,
                duration_s=now - started,
                phases=phases,
            )
            if pruned:
                stats.phases["cache_pruned_files"] = float(pruned)
            self.last_run_stats = stats
            if store is not None:
                store.write_stats(run_id, stats.to_dict())
            self.tracer.emit(
                "run_summary",
                detail=run_id,
                duration_s=stats.duration_s,
                throughput_jobs_per_s=stats.throughput_jobs_per_s,
                cache_hit_rate=stats.cache_hit_rate,
                worker_utilization=stats.worker_utilization,
                retries=stats.retries,
                timeouts=stats.timeouts,
            )
            counts = {s: 0 for s in STATUSES}
            for result in final:
                counts[result.status] += 1
            self.tracer.emit("run_finished", detail=run_id, **counts)
            if self._stream is not None:
                self._stream.emit(
                    "run_finished",
                    run_id=run_id,
                    duration_s=stats.duration_s,
                    **counts,
                )
            return final
        finally:
            if self._stream is not None:
                self._stream.close()
                self._stream = None
            self._store = None
            self._run_id = None

    # -- shared helpers -------------------------------------------------
    def _finish(self, request: RunRequest, result: RunResult) -> None:
        """Record one finished job: trace, durable store, progress.

        The store append happens here — as each job finishes, not after
        the whole run — so a killed run keeps the history of every job
        that completed before the kill (the store's append-only
        durability contract).
        """
        if telemetry.enabled():
            _metrics()["jobs"].labels(status=result.status).inc()
            if result.status != "cached":
                _metrics()["dispatch"].observe(result.queue_wait_s)
        self.tracer.emit(
            "job_finished",
            request,
            status=result.status,
            attempt=result.attempts,
            detail=result.error,
        )
        if self._stream is not None:
            self._stream.emit(
                "job_finished",
                run_id=self._run_id,
                benchmark=request.benchmark,
                request_hash=request.content_hash(),
                status=result.status,
                attempts=result.attempts,
                wall_time_s=result.wall_time_s,
                error=result.error,
                spans=result.spans,
            )
        if self._store is not None:
            self._store.append(make_record(self._run_id, result))
        if self.progress is not None:
            self.progress(result)

    def _ok_result(
        self,
        request: RunRequest,
        record: Dict,
        attempts: int,
        wall: float,
        cache: Optional[ResultCache],
        *,
        index: int = 0,
        queue_wait: float = 0.0,
        compute: float = 0.0,
    ) -> RunResult:
        result = RunResult(
            request=request,
            status="ok",
            report=report_from_dict(record),
            report_record=record,
            attempts=attempts,
            wall_time_s=wall,
            index=index,
            queue_wait_s=queue_wait,
            compute_time_s=compute,
        )
        if cache is not None:
            cache.put(
                request,
                {
                    "request": request.to_dict(),
                    "request_hash": request.content_hash(),
                    "status": "ok",
                    "wall_time_s": wall,
                    "report": record,
                },
            )
        return result

    def _backoff_delay(self, attempt: int) -> float:
        return self.config.backoff * (2 ** (attempt - 1))

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self,
        requests: Sequence[RunRequest],
        indices: Sequence[int],
        results: List[Optional[RunResult]],
        cache: Optional[ResultCache],
        session_factory: Optional[Callable[[], object]],
    ) -> None:
        """In-process execution: the degradation and compatibility path.

        Per-job timeouts are not enforced here — a single process
        cannot preempt its own benchmark — so ``timeout`` only bounds
        jobs in process-pool mode.

        Queue wait here is time spent behind earlier jobs of the same
        run (the single in-process "worker" is busy with them), so the
        serial and pool paths report comparable utilization numbers.
        """
        phase_start = time.perf_counter()
        for index in indices:
            request = requests[index]
            attempt = 0
            ready_at = phase_start
            queue_wait = 0.0
            compute = 0.0
            while True:
                attempt += 1
                self.tracer.emit("job_started", request, attempt=attempt)
                start = time.perf_counter()
                queue_wait += max(0.0, start - ready_at)
                try:
                    _apply_test_hooks(request.benchmark, attempt)
                    session = (
                        session_factory()
                        if session_factory is not None
                        else request.build_session()
                    )
                    report = execute_request(request, lambda: session)
                except Exception as exc:
                    if self.config.raise_on_error:
                        raise
                    wall = time.perf_counter() - start
                    compute += wall
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.config.retries:
                        self.tracer.emit(
                            "job_retried", request, attempt=attempt, detail=error
                        )
                        if telemetry.enabled():
                            _metrics()["retries"].inc()
                        time.sleep(self._backoff_delay(attempt))
                        ready_at = time.perf_counter()
                        continue
                    result = RunResult(
                        request=request,
                        status="failed",
                        error=error,
                        attempts=attempt,
                        wall_time_s=wall,
                        index=index,
                        queue_wait_s=queue_wait,
                        compute_time_s=compute,
                    )
                else:
                    wall = time.perf_counter() - start
                    compute += wall
                    result = self._ok_result(
                        request,
                        report_to_dict(report),
                        attempt,
                        wall,
                        cache,
                        index=index,
                        queue_wait=queue_wait,
                        compute=compute,
                    )
                    if self.config.collect_spans:
                        from repro.obs import span_summary

                        result.spans = span_summary(session.recorder)
                results[index] = result
                self._finish(request, result)
                break

    # -- worker-pool path -----------------------------------------------
    def _run_pool(
        self,
        requests: Sequence[RunRequest],
        indices: Sequence[int],
        results: List[Optional[RunResult]],
        cache: Optional[ResultCache],
    ) -> int:
        """Fan requests out over a worker pool with timeout + retry.

        The pool is either the engine's resident :class:`WorkerPool`
        (``Engine(..., pool=...)`` — reused across invocations, never
        shut down here) or a private one created and torn down for this
        run.  At most ``workers`` submissions are in flight, so a job's
        deadline starts when it is handed to the pool.  A timed-out job
        that the pool cannot cancel forces a pool restart (the stuck
        worker is abandoned); in-flight siblings are resubmitted at the
        same attempt number.

        **Batch dispatch**: first-attempt jobs whose pool EWMA estimate
        marks them small are packed into one worker submission of at
        most ``batch_max`` members or ``batch_target_s`` summed
        estimated seconds, amortizing the per-submission pickle/IPC
        toll that dominates sub-10 ms benchmarks.  Jobs with no estimate yet (cold pool) and jobs
        estimated above ``batch_target_s / 2`` ship alone, so the heavy
        subset never queues behind batch siblings; the first solo wave
        seeds the EWMA and batching engages mid-run.  Granularity is
        preserved per member: each gets its own ``RunResult``, cache
        entry and store record; a failing member fails alone and
        retries unbatched; a batch that exceeds its pooled deadline
        (``timeout × members``) requeues every member solo at the same
        attempt so the stuck one earns an individual timeout
        attribution.

        Retry backoff never blocks this scheduler loop: a retried job
        re-enters the queue and is held back until its release time,
        while the loop keeps draining completions and enforcing
        sibling timeouts.  Queue entries are ``(index, attempt,
        not_before, solo)`` with ``not_before=None`` for
        immediately-runnable jobs and ``solo=True`` forcing unbatched
        dispatch.

        Returns the worker count actually used (the resident pool's
        size may differ from ``config.jobs``).
        """
        import concurrent.futures as cf

        config = self.config
        owned = self.pool is None
        try:
            pool = self.pool or WorkerPool(config.jobs)
        except Exception:  # pragma: no cover - restricted platforms
            self._run_serial(requests, indices, results, cache, None)
            return 1
        workers = pool.workers

        queue = deque((index, 1, None, False) for index in indices)
        # future -> ("solo", (index, attempt), deadline, started)
        #         | ("batch", [(index, attempt), ...], deadline, started)
        inflight: Dict[object, tuple] = {}
        # Per-job accumulators across attempts: worker-busy seconds and
        # pool queue wait (submit-to-done wall minus in-worker compute).
        compute: Dict[int, float] = {index: 0.0 for index in indices}
        queue_wait: Dict[int, float] = {index: 0.0 for index in indices}
        batches_submitted = 0
        batched_jobs = 0
        # A job batches only when its estimate leaves room for at least
        # one sibling inside the batch target.
        small_cutoff = config.batch_target_s / 2.0

        def submit_solo(index: int, attempt: int) -> None:
            request = requests[index]
            self.tracer.emit("job_started", request, attempt=attempt)
            if telemetry.enabled():
                _metrics()["batch"].observe(1)
            future = pool.submit(
                request, attempt=attempt, spans=config.collect_spans
            )
            deadline = (
                time.perf_counter() + config.timeout
                if config.timeout is not None
                else None
            )
            inflight[future] = (
                "solo",
                (index, attempt),
                deadline,
                time.perf_counter(),
            )

        def submit_batch(members) -> None:
            nonlocal batches_submitted, batched_jobs
            if len(members) == 1:
                submit_solo(*members[0])
                return
            for index, attempt in members:
                self.tracer.emit(
                    "job_started", requests[index], attempt=attempt, batched=True
                )
            self.tracer.emit("batch_submitted", n=len(members))
            if telemetry.enabled():
                _metrics()["batch"].observe(len(members))
            future = pool.submit_batch(
                [(requests[index], attempt) for index, attempt in members],
                spans=config.collect_spans,
            )
            # The batch runs its members sequentially on one worker, so
            # the shared deadline is the per-job budget times the size.
            deadline = (
                time.perf_counter() + config.timeout * len(members)
                if config.timeout is not None
                else None
            )
            inflight[future] = ("batch", list(members), deadline, time.perf_counter())
            batches_submitted += 1
            batched_jobs += len(members)

        def fail_or_retry(index, attempt, wall, error, kind) -> None:
            request = requests[index]
            if attempt <= config.retries:
                self.tracer.emit(
                    "job_retried", request, attempt=attempt, detail=error
                )
                if telemetry.enabled():
                    _metrics()["retries"].inc()
                queue.append(
                    (
                        index,
                        attempt + 1,
                        time.perf_counter() + self._backoff_delay(attempt),
                        True,
                    )
                )
                return
            result = RunResult(
                request=request,
                status=kind,
                error=error,
                attempts=attempt,
                wall_time_s=wall,
                index=index,
                queue_wait_s=queue_wait[index],
                compute_time_s=compute[index],
            )
            results[index] = result
            self._finish(request, result)

        def finish_member(index, attempt, member, wall) -> None:
            """Resolve one batch member from its worker-side record."""
            request = requests[index]
            if member.get("ok"):
                job_compute = member.get("compute_time_s", 0.0)
                compute[index] += job_compute
                queue_wait[index] += max(0.0, wall - job_compute)
                result = self._ok_result(
                    request,
                    member["report"],
                    attempt,
                    wall,
                    cache,
                    index=index,
                    queue_wait=queue_wait[index],
                    compute=compute[index],
                )
                result.spans = member.get("spans")
                results[index] = result
                self._finish(request, result)
            else:
                fail_or_retry(
                    index,
                    attempt,
                    wall,
                    member.get("error", "batch member failed"),
                    "failed",
                )

        def requeue_solo(meta) -> None:
            """Push an in-flight submission's jobs back, forced solo."""
            kind, info, _, _ = meta
            members = [info] if kind == "solo" else info
            for index, attempt in reversed(members):
                queue.appendleft((index, attempt, None, True))

        try:
            while queue or inflight:
                now = time.perf_counter()
                deferred = []
                pending_batch: List[tuple] = []
                pending_est = 0.0

                def flush_batch() -> None:
                    nonlocal pending_batch, pending_est
                    if pending_batch:
                        submit_batch(pending_batch)
                        pending_batch = []
                        pending_est = 0.0

                while queue and len(inflight) < workers:
                    index, attempt, not_before, solo = queue.popleft()
                    if not_before is not None and now < not_before:
                        deferred.append((index, attempt, not_before, solo))
                        continue
                    estimate = None
                    if not solo and attempt == 1:
                        estimate = pool.estimate(requests[index].benchmark)
                    if estimate is not None and estimate <= small_cutoff:
                        pending_batch.append((index, attempt))
                        pending_est += estimate
                        if (
                            len(pending_batch) >= config.batch_max
                            or pending_est >= config.batch_target_s
                        ):
                            flush_batch()
                    else:
                        submit_solo(index, attempt)
                flush_batch()
                queue.extend(deferred)

                if not inflight:
                    # Everything queued is waiting out a backoff window;
                    # nothing can complete or time out meanwhile.
                    release = min(nb for _, _, nb, _ in queue if nb is not None)
                    time.sleep(max(0.0, release - time.perf_counter()))
                    continue

                now = time.perf_counter()
                wakeups = [m[2] for m in inflight.values() if m[2] is not None]
                wakeups += [nb for _, _, nb, _ in queue if nb is not None]
                wait_for = 0.25
                if wakeups:
                    wait_for = max(0.0, min(wakeups) - now) + 0.01
                done, _ = cf.wait(
                    set(inflight), timeout=wait_for, return_when=cf.FIRST_COMPLETED
                )

                for future in done:
                    kind, info, _, started = inflight.pop(future)
                    wall = time.perf_counter() - started
                    members = [info] if kind == "solo" else info
                    try:
                        payload = future.result()
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        share = wall / len(members)
                        for index, attempt in members:
                            compute[index] += share
                            fail_or_retry(index, attempt, wall, error, "failed")
                    else:
                        if kind == "solo":
                            index, attempt = info
                            job_compute = payload.get("compute_time_s", wall)
                            compute[index] += job_compute
                            queue_wait[index] += max(0.0, wall - job_compute)
                            result = self._ok_result(
                                requests[index],
                                payload["report"],
                                attempt,
                                wall,
                                cache,
                                index=index,
                                queue_wait=queue_wait[index],
                                compute=compute[index],
                            )
                            result.spans = payload.get("spans")
                            results[index] = result
                            self._finish(requests[index], result)
                        else:
                            for (index, attempt), member in zip(
                                members, payload["members"]
                            ):
                                finish_member(index, attempt, member, wall)

                # -- expire overdue submissions -------------------------
                now = time.perf_counter()
                expired = [
                    (future, meta)
                    for future, meta in inflight.items()
                    if meta[2] is not None and now > meta[2]
                ]
                if not expired:
                    continue
                needs_restart = False
                for future, meta in expired:
                    del inflight[future]
                    if not future.cancel():
                        needs_restart = True
                    kind, info, _, started = meta
                    if kind == "solo":
                        index, attempt = info
                        compute[index] += now - started
                        if telemetry.enabled():
                            _metrics()["timeouts"].inc()
                        fail_or_retry(
                            index,
                            attempt,
                            now - started,
                            f"timed out after {config.timeout:g}s",
                            "timeout",
                        )
                    else:
                        # One stuck member starves its siblings; rerun
                        # everyone solo at the SAME attempt so the stuck
                        # job earns an individual timeout attribution
                        # and the innocents are not charged an attempt.
                        requeue_solo(meta)
                if needs_restart:
                    # A running worker cannot be cancelled; abandon the
                    # pool's executor and resubmit the surviving
                    # in-flight jobs against fresh workers.
                    survivors = list(inflight.values())
                    inflight.clear()
                    pool.restart()
                    if telemetry.enabled():
                        _metrics()["restarts"].inc()
                    for meta in survivors:
                        requeue_solo(meta)
        finally:
            if owned:
                pool.shutdown(wait=False)
        self._pool_phases["batches_submitted"] = float(batches_submitted)
        self._pool_phases["batched_jobs"] = float(batched_jobs)
        return workers
