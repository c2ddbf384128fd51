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
* **persistence** — the run's :class:`~repro.engine.journal.RunJournal`
  writes every finished job's trail (cache entry, store record,
  ``job_finished`` event, stats fold) *as its job finishes*, so a
  killed run keeps the history of every completed job; every lifecycle
  transition is emitted once as a run event (:mod:`repro.obs.stream`),
  which also feeds the job metrics; and the run's
  :class:`~repro.engine.stats.RunStats` is serialized next to the store
  and exposed as ``engine.last_run_stats``.

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
from repro.engine.journal import RunJournal
from repro.engine.lifecycle import Finish, Lifecycle, Restart, Submission
from repro.engine.pool import WorkerPool, _apply_test_hooks, _pool_supported, returned
from repro.engine.store import new_run_id, open_store
from repro.metrics.report import PerfReport
from repro.metrics.serialize import report_from_dict, report_to_dict
from repro.obs import telemetry

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
            "job": telemetry.JobMetrics(registry, "repro_engine"),
            "batch": registry.histogram(
                "repro_engine_batch_members",
                "Members per worker dispatch (1 = solo submission).",
                buckets=telemetry.SIZE_BUCKETS,
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
    #: span summary of the job's recorder (runs with a ``stream``; see
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
    run_id: Optional[str] = None
    #: JSONL run-event stream path (repro suite --stream); each job's
    #: result then carries its span summary
    stream: Optional[Union[str, Path]] = None


class Engine:
    """Parallel, cached, fault-tolerant executor of run requests."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        progress: Optional[Callable[[RunResult], None]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.progress = progress
        #: a resident :class:`WorkerPool` shared across invocations;
        #: when given, the engine submits to it and never shuts it down
        self.pool = pool
        #: :class:`~repro.engine.stats.RunStats` of the latest ``run()``
        self.last_run_stats = None
        #: the current run's journal, requests and results
        self._journal: Optional[RunJournal] = None
        self._requests, self._results = (), []
        #: extra phase counters filled in by the pool path (batching)
        self._pool_phases: Dict[str, float] = {}

    # -- public API -----------------------------------------------------
    def run(self, requests: Sequence[RunRequest]) -> List[RunResult]:
        """Execute requests; results come back in request order."""
        requests = list(requests)
        config = self.config
        cache = (
            ResultCache(config.cache_dir) if config.cache_dir is not None else None
        )
        journal = RunJournal(
            config.run_id or new_run_id(),
            _metrics()["job"],
            cache=cache,
            store=open_store(config.store) if config.store is not None else None,
            stream=config.stream,
        )
        results: List[Optional[RunResult]] = [None] * len(requests)
        self._journal, self._requests, self._results = journal, requests, results
        started = time.perf_counter()

        try:
            pruned = 0
            if cache is not None and (
                config.cache_prune or config.cache_max_bytes is not None
            ):
                pruned = cache.prune(max_bytes=config.cache_max_bytes)
                _metrics()["evicted_files"].inc(cache.last_prune["files"])
                _metrics()["evicted_bytes"].inc(cache.last_prune["bytes"])
            journal.emit("run_started", workers=config.jobs, n_jobs=len(requests))
            pending: List[int] = []
            for index, request in enumerate(requests):
                hit = cache.get(request) if cache is not None else None
                if hit is not None and hit.get("report") is not None:
                    record = hit["report"]
                    error = journal.record(
                        request, status="cached", report=record, index=index
                    )
                    self._finish(RunResult(
                        request, "cached", report_from_dict(record),
                        report_record=record, error=error, index=index,
                    ))
                else:
                    pending.append(index)
            lookup_done = time.perf_counter()
            if cache is not None:
                hits = len(requests) - len(pending)
                if hits:
                    _metrics()["cache"].labels(result="hit").inc(hits)
                if pending:
                    _metrics()["cache"].labels(result="miss").inc(len(pending))

            use_pool = (
                bool(pending)
                and (config.jobs > 1 or self.pool is not None)
                and _pool_supported()
            )
            self._pool_phases = {}
            if use_pool:
                workers = self._run_pool(pending)
            else:
                workers = 1
                if pending:
                    self._run_serial(pending)

            now = time.perf_counter()
            phases = {
                "cache_lookup_s": lookup_done - started,
                "execute_s": now - lookup_done,
            }
            phases.update(self._pool_phases)
            if pruned:
                phases["cache_pruned_files"] = float(pruned)
            self.last_run_stats = journal.close(now - started, workers, phases)
            return [r for r in results if r is not None]
        finally:
            # a killed run ends without run_finished, but its stream closes
            journal.fanout.close()
            self._journal, self._requests, self._results = None, (), []

    # -- shared helpers -------------------------------------------------
    def _finish(self, result: RunResult) -> None:
        """Hand back one job's result once the journal has recorded it.

        The store append happens as each job finishes, not after the
        whole run, so a killed run keeps the history of every job that
        finished before the kill.
        """
        self._results[result.index] = result
        if self.progress is not None:
            self.progress(result)

    def _complete(self, finish: Finish) -> None:
        """Record an executed job through the journal; build its result."""
        request = self._requests[finish.key]
        payload = finish.result or {}
        record = payload.get("report")
        job = {
            "status": finish.status, "attempts": finish.attempts,
            "wall_time_s": finish.wall_s, "queue_wait_s": finish.queue_wait_s,
            "compute_time_s": finish.compute_s, "spans": payload.get("spans"),
            "index": finish.key,
        }
        error = self._journal.executed(request, report=record, error=finish.error, **job)
        report = None if record is None else report_from_dict(record)
        self._finish(
            RunResult(request, report=report, report_record=record, error=error, **job)
        )

    def _apply(self, actions, pool: Optional[WorkerPool] = None) -> None:
        """Carry out the lifecycle's actions: results, retries, restarts."""
        for action in actions:
            if isinstance(action, Restart):
                pool.restart()
                _metrics()["restarts"].inc()
            elif isinstance(action, Finish):
                self._complete(action)
            else:
                self._journal.emit(
                    "job_retried",
                    self._requests[action.key],
                    attempt=action.attempt,
                    status=action.status,
                    error=action.error,
                )

    # -- serial path ----------------------------------------------------
    def _run_serial(self, indices: Sequence[int]) -> None:
        """In-process execution: the degradation path.

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
            self._journal.emit("job_started", request, attempt=attempt, batch=1)
            try:
                _apply_test_hooks(request.benchmark, attempt)
                session = request.build_session()
                report = execute_request(request, lambda: session)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                self._apply(lifecycle.failed(sub, index, time.perf_counter(), error))
                continue
            now = time.perf_counter()
            result = {"report": report_to_dict(report)}
            if config.stream is not None:
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
        requests, spans = self._requests, self.config.stream is not None
        batch = len(sub.members)
        for index, attempt in sub.members:
            self._journal.emit("job_started", requests[index], attempt=attempt, batch=batch)
        _metrics()["batch"].observe(batch)
        if not sub.batched:
            ((index, attempt),) = sub.members
            sub.handle = pool.submit(requests[index], attempt=attempt, spans=spans)
            return
        items = [(requests[index], attempt) for index, attempt in sub.members]
        sub.handle = pool.submit_batch(items, spans=spans)
        self._pool_phases["batches_submitted"] += 1
        self._pool_phases["batched_jobs"] += len(sub.members)
