"""Fault-tolerant run-request executor.

The :class:`Engine` turns a list of :class:`~repro.engine.jobs.RunRequest`
into :class:`RunResult` s through four layers:

* **cache** — requests whose (code fingerprint, request hash) entry
  exists are served from disk as status ``cached``;
* **execution** — remaining requests run either serially in-process or
  fanned out over a process pool (``jobs > 1``), with graceful
  degradation to serial when multiprocessing is unavailable;
* **fault tolerance** — per-job timeout (process mode), bounded retry
  with exponential backoff for failures, pool restarts, and isolation:
  one job exhausting its retries is recorded ``failed``/``timeout``
  without aborting the rest.  Every such decision is made by
  :class:`~repro.engine.lifecycle.Lifecycle`; both execution paths
  here are its drivers and keep only the I/O;
* **persistence** — every result (including cache hits) appends to the
  run store *as its job finishes*, so a killed run keeps the history of
  every completed job; every lifecycle step emits a trace event; and a
  :class:`~repro.engine.stats.RunStats` summary is serialized next to
  the store and exposed as ``engine.last_run_stats``.

Determinism: the simulation itself is deterministic, and both execution
paths serialize reports with the same
:func:`repro.metrics.serialize.report_to_dict`, so serial and parallel
runs of the same request store byte-identical reports.

The worker-side machinery (payload protocol, test injection hooks,
pool construction) lives in :mod:`repro.engine.pool`, whose resident
:class:`~repro.engine.pool.WorkerPool` can be shared across engine
invocations (``Engine(config, pool=...)``) so repeated runs reuse warm
workers instead of paying spawn + import per suite.
"""

from __future__ import annotations

import concurrent.futures as cf
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.jobs import RunRequest, execute_request
from repro.engine.lifecycle import Finish, Lifecycle, Restart, Submission
from repro.engine.pool import WorkerPool, _apply_test_hooks, _pool_supported, returned
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
        #: the current run's requests, results and cache
        self._requests, self._results, self._cache = (), [], None
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
        self._requests, self._results, self._cache = requests, results, cache
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
            if use_pool:
                workers_used = self._run_pool(pending)
            elif pending:
                self._run_serial(pending, session_factory)

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
            self._requests, self._results, self._cache = (), [], None

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

    def _complete(self, finish: Finish) -> None:
        """Turn a finished job into its result; cache a fresh report."""
        request = self._requests[finish.key]
        payload = finish.result or {}
        record = payload.get("report")
        result = RunResult(
            request=request,
            status=finish.status,
            report=None if record is None else report_from_dict(record),
            report_record=record,
            error=finish.error,
            attempts=finish.attempts,
            wall_time_s=finish.wall_s,
            index=finish.key,
            queue_wait_s=finish.queue_wait_s,
            compute_time_s=finish.compute_s,
            spans=payload.get("spans"),
        )
        if record is not None and self._cache is not None:
            self._cache.put_report(request, record, finish.wall_s)
        self._results[finish.key] = result
        self._finish(request, result)

    def _apply(self, actions, pool: Optional[WorkerPool] = None) -> None:
        """Carry out the lifecycle's actions: results, traces, restarts."""
        for action in actions:
            if isinstance(action, Restart):
                pool.restart()
                if telemetry.enabled():
                    _metrics()["restarts"].inc()
                continue
            if action.status == "timeout" and telemetry.enabled():
                _metrics()["timeouts"].inc()
            if isinstance(action, Finish):
                self._complete(action)
                continue
            request = self._requests[action.key]
            self.tracer.emit(
                "job_retried", request, attempt=action.attempt, detail=action.error
            )
            if telemetry.enabled():
                _metrics()["retries"].inc()

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self,
        indices: Sequence[int],
        session_factory: Optional[Callable[[], object]],
    ) -> None:
        """In-process execution: the degradation and compatibility path.

        Per-job timeouts are not enforced here — a single process
        cannot preempt its own benchmark — so ``timeout`` only bounds
        jobs in process-pool mode.  A failed job waits out its backoff
        while later jobs run, as in pool mode.

        Queue wait here is time spent behind other jobs of the same run
        (the single in-process "worker" is busy with them), so the
        serial and pool paths report comparable utilization numbers.
        """
        config = self.config
        lifecycle = Lifecycle(1, retries=config.retries, backoff=config.backoff, inline=True)
        now = time.perf_counter()
        for index in indices:
            lifecycle.add(index, now)
        while lifecycle.unfinished:
            now = time.perf_counter()
            trips = lifecycle.dispatch(now)
            if not trips:
                # every open job is waiting out a backoff
                time.sleep(max(0.0, lifecycle.next_wakeup() - now))
                continue
            (sub,) = trips
            ((index, attempt),) = sub.members
            request = self._requests[index]
            self.tracer.emit("job_started", request, attempt=attempt)
            try:
                _apply_test_hooks(request.benchmark, attempt)
                session = (session_factory or request.build_session)()
                report = execute_request(request, lambda: session)
            except Exception as exc:
                if config.raise_on_error:
                    raise
                error = f"{type(exc).__name__}: {exc}"
                self._apply(lifecycle.failed(sub, index, time.perf_counter(), error))
                continue
            now = time.perf_counter()
            result = {"report": report_to_dict(report)}
            if config.collect_spans:
                from repro.obs import span_summary

                result["spans"] = span_summary(session.recorder)
            self._complete(lifecycle.finished(sub, index, now, result=result))

    # -- worker-pool path -----------------------------------------------
    def _run_pool(self, indices: Sequence[int]) -> int:
        """Fan requests out over a worker pool: the lifecycle's pool driver.

        The pool is either the engine's resident :class:`WorkerPool`
        (``Engine(..., pool=...)`` — reused across invocations, never
        shut down here) or a private one created and torn down for this
        run.  The lifecycle decides what to submit (solo trips, and
        batches sized by the pool's compute estimates), what is overdue,
        what to retry and when to restart the pool; this loop submits,
        waits for a returned trip or the next wakeup, and reports back.

        Returns the worker count actually used (the resident pool's
        size may differ from ``config.jobs``).
        """
        owned = self.pool is None
        pool = self.pool or WorkerPool(self.config.jobs)
        config, requests = self.config, self._requests
        lifecycle = Lifecycle(
            pool.workers,
            retries=config.retries,
            backoff=config.backoff,
            timeout=config.timeout,
            estimate=lambda index: pool.estimate(requests[index].benchmark),
            batch_max=config.batch_max,
            batch_target_s=config.batch_target_s,
        )
        now = time.perf_counter()
        for index in indices:
            lifecycle.add(index, now)
        self._pool_phases = {"batches_submitted": 0.0, "batched_jobs": 0.0}
        try:
            while lifecycle.unfinished:
                for sub in lifecycle.dispatch(time.perf_counter()):
                    self._submit(pool, sub)
                wakeup = lifecycle.next_wakeup()
                now = time.perf_counter()
                timeout = None if wakeup is None else max(0.0, wakeup - now)
                futures = [sub.handle for sub in lifecycle.inflight]
                if futures:
                    cf.wait(futures, timeout, cf.FIRST_COMPLETED)
                else:
                    time.sleep(timeout)  # every open job is in backoff
                now = time.perf_counter()
                for sub in lifecycle.inflight:
                    if sub.handle.done():
                        self._apply(returned(lifecycle, sub, now), pool)
                # a trip whose future cannot be cancelled has a stuck worker
                self._apply(lifecycle.expire(now, lambda sub: sub.handle.cancel()), pool)
        finally:
            if owned:
                pool.shutdown(wait=False)
        return pool.workers

    def _submit(self, pool: WorkerPool, sub: Submission) -> None:
        """Hand one trip to the pool; ``sub.handle`` is its future."""
        requests, spans = self._requests, self.config.collect_spans
        extra = {"batched": True} if sub.batched else {}
        for index, attempt in sub.members:
            self.tracer.emit("job_started", requests[index], attempt=attempt, **extra)
        if telemetry.enabled():
            _metrics()["batch"].observe(len(sub.members))
        if not sub.batched:
            ((index, attempt),) = sub.members
            sub.handle = pool.submit(requests[index], attempt=attempt, spans=spans)
            return
        self.tracer.emit("batch_submitted", n=len(sub.members))
        items = [(requests[index], attempt) for index, attempt in sub.members]
        sub.handle = pool.submit_batch(items, spans=spans)
        self._pool_phases["batches_submitted"] += 1
        self._pool_phases["batched_jobs"] += len(sub.members)
