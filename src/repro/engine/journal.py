"""The run journal: the one writer of a finished job's trail.

An engine run (:class:`~repro.engine.executor.Engine`) and a run server
(:class:`~repro.serve.server.ServeApp`) each keep one
:class:`RunJournal` per run.  It owns the run's
:class:`~repro.obs.stream.EventFanout` (plus the optional ``--stream``
file sink), its :class:`~repro.obs.telemetry.JobMetrics`, the
:class:`~repro.engine.stats.StatsAccumulator` behind the run's
:class:`~repro.engine.stats.RunStats`, and the cache and store the run
writes to.  The engine and the server keep only their own I/O.

A finished job leaves the same trail from the engine or the server,
in this order: the cache entry of a fresh report
(:meth:`RunJournal.executed`), the store record, then the
``job_finished`` event carrying the job's final error, folded into the
job metrics and the run's stats (:meth:`RunJournal.record`).  A
subscriber that sees ``job_finished`` can therefore read the record.

The failure policy is written once, here: an ``OSError`` from the cache
write or from the store append (a full disk) costs only that write.
The job keeps its status, its error names the write, and it is still
folded and announced.  :meth:`RunJournal.close` ends the run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.engine.jobs import RunRequest
from repro.engine.stats import RunStats, StatsAccumulator
from repro.engine.store import make_record
from repro.obs.stream import EventFanout, EventStream
from repro.obs.telemetry import JobMetrics

#: Final job statuses, each counted in ``run_finished``.
STATUSES = ("ok", "failed", "timeout", "cached")


class RunJournal:
    """One run's event log, stats fold, cache entries and store records.

    ``keep_jobs`` bounds the per-job rows of the run's sidecar (see
    :class:`~repro.engine.stats.StatsAccumulator`); None keeps them all.
    """

    def __init__(
        self, run_id: str, metrics: JobMetrics, *, cache=None, store=None,
        stream: Optional[Union[str, Path]] = None, keep_jobs: Optional[int] = None,
    ) -> None:
        self.run_id = run_id
        self.metrics = metrics
        self.cache = cache
        self.store = store
        self.fanout = EventFanout()
        if stream is not None:
            self.fanout.attach(EventStream(stream))
        self.stats = StatsAccumulator(run_id, keep_jobs=keep_jobs)

    def emit(self, kind: str, request: Optional[RunRequest] = None, **fields) -> Dict:
        """Emit one run event, then fold it into the job metrics."""
        if request is not None:
            fields["benchmark"] = request.benchmark
            fields["request_hash"] = request.content_hash()
        event = self.fanout.emit(kind, run_id=self.run_id, **fields)
        self.metrics.fold(event)
        return event

    def executed(
        self, request: RunRequest, *, report: Optional[Dict], wall_time_s: float,
        error: str = "", **job,
    ) -> str:
        """Cache an executed job's fresh report, then :meth:`record` it.

        Returns the job's final error.
        """
        if report is not None and self.cache is not None:
            try:
                self.cache.put_report(request, report, wall_time_s)
            except OSError as exc:
                error = error or f"cache write failed: {exc}"
        return self.record(
            request, report=report, wall_time_s=wall_time_s, error=error, **job
        )

    def record(
        self, request: RunRequest, *, status: str, report: Optional[Dict] = None,
        error: str = "", attempts: int = 0, wall_time_s: float = 0.0,
        queue_wait_s: float = 0.0, compute_time_s: float = 0.0,
        spans: Optional[Dict] = None, index: int = 0,
    ) -> str:
        """Store one finished job, then announce it and fold it.

        A cache hit calls this directly (its report is already cached).
        Returns the job's final error.
        """
        job = {
            "status": status, "attempts": attempts, "wall_time_s": wall_time_s,
            "queue_wait_s": queue_wait_s, "compute_time_s": compute_time_s,
            "error": error,
        }
        if self.store is not None:
            try:
                self.store.append(
                    make_record(self.run_id, request, index=index, report=report, **job)
                )
            except OSError as exc:
                job["error"] = error or f"store append failed: {exc}"
        self.stats.add(self.emit("job_finished", request, spans=spans, **job), report, index=index)
        return job["error"]

    def close(
        self, duration_s: float, workers: int, phases: Optional[Mapping[str, float]] = None
    ) -> RunStats:
        """End the run of ``workers`` workers: its stats, sidecar and ``run_finished``.

        A failed sidecar write is reported on stderr and costs only the
        sidecar: ``engine stats`` recomputes the run from its records.
        Closes the event log and returns the run's stats.
        """
        self.stats.workers = workers
        stats = self.stats.snapshot(duration_s=duration_s, phases=phases)
        if self.store is not None:
            try:
                self.store.write_stats(self.run_id, stats.to_dict())
            except OSError as exc:
                print(f"repro: stats sidecar not written: {exc}", file=sys.stderr)
        self.emit(
            "run_finished",
            duration_s=stats.duration_s,
            throughput_jobs_per_s=stats.throughput_jobs_per_s,
            cache_hit_rate=stats.cache_hit_rate,
            worker_utilization=stats.worker_utilization,
            retries=stats.retries,
            **{status: stats.status_counts.get(status, 0) for status in STATUSES},
        )
        self.fanout.close()
        return stats


__all__ = ["RunJournal", "STATUSES"]
