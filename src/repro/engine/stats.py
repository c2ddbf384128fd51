"""Engine observability: per-run scheduler stats and perf-regression gates.

The paper characterizes every benchmark by measured busy/elapsed time
and FLOP rates (§1.5); this module gives the *engine itself* the same
treatment.  A :class:`RunStats` record aggregates one engine
invocation — throughput, per-job queue wait and compute time, worker
utilization, cache hit rate, retry/timeout histograms and a wall-clock
phase breakdown — and is serialized next to the run store
(``<store>.stats/<run_id>.json``).

Two consumers sit on top:

* ``engine stats <run>`` renders a stored run's :class:`RunStats` as a
  human table or JSON;
* ``engine check <run> --baseline <run|file> --tolerance PCT``
  compares the per-benchmark §1.5 metrics of two runs (or a run
  against a saved stats file) and exits non-zero on regression — the
  metrics-drift gate.  Wall-clock speed is measured by the repo
  benchmark (``bench/run.py``), not here.

Stats are *metadata about the run*, never part of the deterministic
reports: wall-clock numbers live only here, in the trace and in the
store envelope.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Stats sidecar schema version.  Version 2 adds per-job ``spans``
#: summaries (repro.obs).  Readers are tolerant: unknown keys from
#: newer minor additions are dropped, missing keys take their
#: defaults, and only a sidecar declaring a schema *newer* than this
#: reader understands is rejected (with a clear message, not a
#: KeyError).
STATS_SCHEMA_VERSION = 2

#: Report metrics gated by ``engine check``: (record key, label,
#: direction) where direction +1 means "larger is a regression" (times,
#: work) and -1 means "smaller is a regression" (rates).
CHECK_METRICS: Tuple[Tuple[str, str, int], ...] = (
    ("busy_time_s", "busy (s)", +1),
    ("elapsed_time_s", "elapsed (s)", +1),
    ("flop_count", "FLOPs", +1),
    ("busy_floprate_mflops", "MFLOP/s", -1),
)


@dataclass
class JobStats:
    """Scheduler-level numbers of one job within a run."""

    benchmark: str
    status: str
    attempts: int
    queue_wait_s: float
    compute_time_s: float
    wall_time_s: float
    #: span summary forwarded by the worker's SpanCollector (None when
    #: the run executed without span collection — pre-v2 sidecars too)
    spans: Optional[Dict] = None


def _filter_fields(cls, record: Mapping) -> Dict:
    """Restrict a mapping to ``cls``'s dataclass fields.

    Dropping unknown keys (instead of exploding in ``cls(**record)``)
    is what lets an older reader open a sidecar written by a newer
    minor schema; missing optional keys fall back to field defaults.
    """
    known = {f.name for f in fields(cls)}
    return {k: v for k, v in record.items() if k in known}


@dataclass
class RunStats:
    """Aggregated scheduler metrics of one engine invocation."""

    run_id: str
    n_jobs: int
    #: worker processes the run executed with (None when unknown, e.g.
    #: stats recomputed from an old store without a sidecar)
    workers: Optional[int]
    duration_s: float
    status_counts: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_hit_rate: float = 0.0
    #: attempts beyond the first, summed over jobs
    retries: int = 0
    timeouts: int = 0
    #: attempts -> number of jobs that needed that many
    attempts_histogram: Dict[int, int] = field(default_factory=dict)
    throughput_jobs_per_s: float = 0.0
    queue_wait_total_s: float = 0.0
    queue_wait_mean_s: float = 0.0
    queue_wait_max_s: float = 0.0
    compute_total_s: float = 0.0
    compute_mean_s: float = 0.0
    compute_max_s: float = 0.0
    #: busy-worker seconds / (workers × duration); None when workers
    #: is unknown
    worker_utilization: Optional[float] = None
    #: wall-clock breakdown per engine phase (cache lookup, execute, …)
    phases: Dict[str, float] = field(default_factory=dict)
    jobs: List[JobStats] = field(default_factory=list)
    #: per-benchmark §1.5 metrics (the ``engine check`` comparison set)
    benchmarks: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe dictionary (inverse of :meth:`from_dict`)."""
        record = asdict(self)
        record["schema"] = STATS_SCHEMA_VERSION
        record["attempts_histogram"] = {
            str(k): v for k, v in self.attempts_histogram.items()
        }
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "RunStats":
        """Rebuild from :meth:`to_dict` output.

        Tolerant across schema versions: a v1 sidecar (no per-job
        ``spans``) loads with the new fields defaulted, and unknown
        keys from newer *minor* additions are ignored.  A sidecar
        declaring a schema newer than :data:`STATS_SCHEMA_VERSION` is
        rejected with a clear message instead of a confusing KeyError
        further down.
        """
        record = dict(record)
        schema = record.pop("schema", None)
        if isinstance(schema, (int, float)) and schema > STATS_SCHEMA_VERSION:
            raise ValueError(
                f"stats sidecar uses schema v{int(schema)}, newer than "
                f"this reader's v{STATS_SCHEMA_VERSION}; upgrade repro "
                "to inspect this run"
            )
        record["attempts_histogram"] = {
            int(k): v for k, v in record.get("attempts_histogram", {}).items()
        }
        record["jobs"] = [
            JobStats(**_filter_fields(JobStats, j))
            for j in record.get("jobs", [])
        ]
        return cls(**_filter_fields(cls, record))

    # -- rendering ------------------------------------------------------
    def table(self) -> str:
        """Human-readable multi-section rendering."""
        from repro.suite.tables import format_table

        counts = "  ".join(
            f"{status}={n}" for status, n in sorted(self.status_counts.items())
        )
        histogram = (
            " ".join(
                f"{attempts}:{n}"
                for attempts, n in sorted(self.attempts_histogram.items())
            )
            or "-"
        )
        util = (
            f"{100 * self.worker_utilization:.1f}%"
            if self.worker_utilization is not None
            else "-"
        )
        workers = str(self.workers) if self.workers is not None else "?"
        lines = [
            f"run {self.run_id}",
            f"  jobs        {self.n_jobs} ({counts})  workers {workers}",
            f"  duration    {self.duration_s:.3f}s  "
            f"throughput {self.throughput_jobs_per_s:.2f} jobs/s",
            f"  cache       {self.cache_hits}/{self.n_jobs} hits "
            f"({100 * self.cache_hit_rate:.1f}%)",
            f"  retries     {self.retries}  timeouts {self.timeouts}  "
            f"attempts histogram {histogram}",
            f"  queue wait  total {self.queue_wait_total_s:.3f}s  "
            f"mean {self.queue_wait_mean_s:.3f}s  "
            f"max {self.queue_wait_max_s:.3f}s",
            f"  compute     total {self.compute_total_s:.3f}s  "
            f"mean {self.compute_mean_s:.3f}s  "
            f"max {self.compute_max_s:.3f}s",
            f"  utilization {util}",
        ]
        if self.phases:
            breakdown = "  ".join(
                f"{name}={value:.3f}" for name, value in self.phases.items()
            )
            lines.append(f"  phases      {breakdown}")
        executed = [job for job in self.jobs if job.status != "cached"]
        if executed:
            lines.append("")
            lines.extend(
                latency_histogram_lines(
                    "queue-wait histogram",
                    [job.queue_wait_s for job in executed],
                )
            )
            lines.extend(
                latency_histogram_lines(
                    "compute histogram",
                    [job.compute_time_s for job in executed],
                )
            )
        if self.jobs:
            rows = [
                [
                    job.benchmark,
                    job.status,
                    str(job.attempts),
                    f"{job.queue_wait_s:.3f}",
                    f"{job.compute_time_s:.3f}",
                    f"{job.wall_time_s:.3f}",
                ]
                for job in self.jobs
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["Benchmark", "Status", "Att", "Queue (s)", "Compute (s)",
                     "Wall (s)"],
                    rows,
                )
            )
        spanned = [job for job in self.jobs if job.spans]
        if spanned:
            total_flops = sum(int(j.spans.get("flop_count", 0)) for j in spanned)
            total_bytes = sum(
                int(j.spans.get("network_bytes", 0)) for j in spanned
            )
            total_busy = sum(
                float(j.spans.get("busy_time_s", 0.0)) for j in spanned
            )
            total_elapsed = sum(
                float(j.spans.get("elapsed_time_s", 0.0)) for j in spanned
            )
            rows = [
                [
                    job.benchmark,
                    str(job.spans.get("spans", 0)),
                    str(job.spans.get("iterations", 0)),
                    f"{float(job.spans.get('busy_time_s', 0.0)):.6f}",
                    f"{float(job.spans.get('elapsed_time_s', 0.0)):.6f}",
                    f"{int(job.spans.get('flop_count', 0)):,}",
                    f"{int(job.spans.get('network_bytes', 0)):,}",
                ]
                for job in spanned
            ]
            lines.append("")
            lines.append(
                f"  spans       {len(spanned)}/{self.n_jobs} jobs traced  "
                f"sim busy {total_busy:.6f}s  sim elapsed {total_elapsed:.6f}s  "
                f"flops {total_flops:,}  net bytes {total_bytes:,}"
            )
            lines.append(
                format_table(
                    ["Benchmark", "Spans", "Iters", "Sim busy (s)",
                     "Sim elapsed (s)", "FLOPs", "Net bytes"],
                    rows,
                )
            )
        return "\n".join(lines)


def latency_histogram_lines(
    title: str, values: List[float], *, width: int = 24
) -> List[str]:
    """Render seconds samples into the telemetry latency buckets.

    Shares :data:`repro.obs.telemetry.LATENCY_BUCKETS_S` with the
    ``/metrics`` exposition, so ``engine stats`` sections and Prometheus
    scrapes bucket identically — and old runs' sidecars (which store
    per-job seconds, not buckets) benefit from the new formatting.
    Empty buckets are skipped; bars scale to the fullest bucket.
    """
    from bisect import bisect_left

    from repro.obs.telemetry import LATENCY_BUCKETS_S

    counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
    for value in values:
        counts[bisect_left(LATENCY_BUCKETS_S, value)] += 1
    top = max(counts)
    lines = [f"  {title} ({len(values)} jobs)"]
    if top == 0:
        return lines
    labels = [f"<={boundary:g}s" for boundary in LATENCY_BUCKETS_S]
    labels.append(f">{LATENCY_BUCKETS_S[-1]:g}s")
    label_width = max(len(label) for label in labels)
    for label, count in zip(labels, counts):
        if not count:
            continue
        bar = "#" * max(1, round(count / top * width))
        lines.append(f"    {label:<{label_width}}  {bar} {count}")
    return lines


class StatsAccumulator:
    """Fold jobs into a :class:`RunStats` one at a time.

    The one aggregation path behind every :class:`RunStats`: an engine
    run folds its results when it ends (:func:`stats_from_results`),
    a stored run folds its records (:func:`stats_from_records`), and a
    long-lived server folds each result as it completes and calls
    :meth:`snapshot` once, at shutdown, for its run's one sidecar.
    ``keep_jobs`` bounds the per-job rows kept for the sidecar table to
    the newest ones (None keeps all), so a server does not hold every
    job until shutdown; every aggregate covers everything added.
    """

    def __init__(
        self,
        run_id: str,
        *,
        workers: Optional[int] = None,
        keep_jobs: Optional[int] = 256,
    ) -> None:
        self.run_id = run_id
        self.workers = workers
        self.n_jobs = 0
        self.status_counts: Dict[str, int] = {}
        self.attempts_histogram: Dict[int, int] = {}
        self.retries = 0
        self.queue_wait_total_s = 0.0
        self.queue_wait_max_s = 0.0
        self.compute_total_s = 0.0
        self.compute_max_s = 0.0
        self.benchmarks: Dict[str, Dict[str, float]] = {}
        self._bench_counts: Dict[str, int] = {}
        self.jobs: "deque[JobStats]" = deque(
            maxlen=None if keep_jobs is None else max(0, keep_jobs)
        )

    def add(self, result) -> None:
        """Fold one :class:`RunResult` into the aggregates."""
        self.add_job(
            JobStats(
                benchmark=result.request.benchmark,
                status=result.status,
                attempts=result.attempts,
                queue_wait_s=result.queue_wait_s,
                compute_time_s=result.compute_time_s,
                wall_time_s=result.wall_time_s,
                spans=getattr(result, "spans", None),
            ),
            result.report_record,
        )

    def add_job(self, job: JobStats, report: Optional[Mapping]) -> None:
        """Fold one job and its report record (None: the job has none)."""
        self.n_jobs += 1
        self.status_counts[job.status] = (
            self.status_counts.get(job.status, 0) + 1
        )
        self.attempts_histogram[job.attempts] = (
            self.attempts_histogram.get(job.attempts, 0) + 1
        )
        self.retries += max(0, job.attempts - 1)
        self.queue_wait_total_s += job.queue_wait_s
        self.queue_wait_max_s = max(self.queue_wait_max_s, job.queue_wait_s)
        self.compute_total_s += job.compute_time_s
        self.compute_max_s = max(self.compute_max_s, job.compute_time_s)
        self.jobs.append(job)
        # per-benchmark §1.5 metrics, keyed name / name#N like
        # keyed_by_benchmark: every job counts toward the suffix, only
        # jobs with a report contribute (failed and timed-out jobs then
        # surface as *missing* in a check against a baseline that had
        # them)
        seen = self._bench_counts.get(job.benchmark, 0)
        self._bench_counts[job.benchmark] = seen + 1
        report = report or {}
        metrics = {
            metric: report[metric]
            for metric, _, _ in CHECK_METRICS
            if report.get(metric) is not None
        }
        if metrics:
            key = f"{job.benchmark}#{seen}" if seen else job.benchmark
            self.benchmarks[key] = metrics

    def snapshot(
        self,
        *,
        duration_s: float,
        phases: Optional[Mapping[str, float]] = None,
    ) -> RunStats:
        """The current aggregates as a :class:`RunStats`."""
        n = self.n_jobs
        cache_hits = self.status_counts.get("cached", 0)
        utilization = None
        if self.workers is not None and duration_s > 0:
            utilization = self.compute_total_s / (self.workers * duration_s)
        return RunStats(
            run_id=self.run_id,
            n_jobs=n,
            workers=self.workers,
            duration_s=duration_s,
            status_counts=dict(self.status_counts),
            cache_hits=cache_hits,
            cache_hit_rate=cache_hits / n if n else 0.0,
            retries=self.retries,
            timeouts=self.status_counts.get("timeout", 0),
            attempts_histogram=dict(self.attempts_histogram),
            throughput_jobs_per_s=n / duration_s if duration_s > 0 else 0.0,
            queue_wait_total_s=self.queue_wait_total_s,
            queue_wait_mean_s=self.queue_wait_total_s / n if n else 0.0,
            queue_wait_max_s=self.queue_wait_max_s,
            compute_total_s=self.compute_total_s,
            compute_mean_s=self.compute_total_s / n if n else 0.0,
            compute_max_s=self.compute_max_s,
            worker_utilization=utilization,
            phases=dict(phases or {}),
            jobs=list(self.jobs),
            benchmarks={k: dict(v) for k, v in self.benchmarks.items()},
        )


def stats_from_results(
    run_id: str,
    results: Sequence,
    *,
    workers: Optional[int],
    duration_s: float,
    phases: Optional[Mapping[str, float]] = None,
) -> RunStats:
    """Build stats from in-memory :class:`RunResult` s (engine path)."""
    acc = StatsAccumulator(run_id, workers=workers, keep_jobs=None)
    for result in results:
        acc.add(result)
    return acc.snapshot(duration_s=duration_s, phases=phases)


def stats_from_records(
    records: Sequence[Mapping],
    *,
    workers: Optional[int] = None,
    duration_s: Optional[float] = None,
) -> RunStats:
    """Recompute stats from stored run records (no-sidecar fallback).

    Record timestamps are append times (job completion), so the run
    duration is estimated as the completion span plus the first-to-
    finish job's wall time; worker count is not recoverable from
    records alone, so utilization stays None unless ``workers`` is
    given.
    """
    records = list(records)
    if duration_s is None:
        stamps = [r["ts"] for r in records if r.get("ts") is not None]
        duration_s = max(stamps) - min(stamps) if len(stamps) > 1 else 0.0
        if records:
            first = min(records, key=lambda r: r.get("ts") or 0.0)
            duration_s += first.get("wall_time_s", 0.0) or 0.0
    run_ids = {r.get("run_id") for r in records if r.get("run_id")}
    acc = StatsAccumulator(
        run_ids.pop() if len(run_ids) == 1 else "?",
        workers=workers,
        keep_jobs=None,
    )
    for record in records:
        acc.add_job(
            JobStats(
                benchmark=record.get("benchmark", "?"),
                status=record.get("status", "?"),
                attempts=record.get("attempts", 0),
                queue_wait_s=record.get("queue_wait_s", 0.0) or 0.0,
                compute_time_s=(
                    record.get("compute_time_s")
                    or record.get("wall_time_s", 0.0)
                    or 0.0
                ),
                wall_time_s=record.get("wall_time_s", 0.0) or 0.0,
            ),
            record.get("report"),
        )
    return acc.snapshot(duration_s=duration_s)


# -- perf-regression gate ----------------------------------------------
@dataclass
class CheckRow:
    """One metric comparison of ``compare_benchmarks``."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    delta_pct: float
    regressed: bool


@dataclass
class CheckReport:
    """Outcome of gating one run against a baseline."""

    tolerance_pct: float
    rows: List[CheckRow] = field(default_factory=list)
    #: benchmarks the baseline measured but the current run did not
    #: (failed, timed out, or not planned) — always a gate failure
    missing: List[str] = field(default_factory=list)
    #: benchmarks only the current run measured — previously silently
    #: unchecked; informational by default, a gate failure under
    #: ``strict`` (``engine check --strict``)
    extra: List[str] = field(default_factory=list)
    #: when True, ``extra`` benchmarks fail the gate too — a strict
    #: check demands the run and baseline cover the same set
    strict: bool = False

    @property
    def regressions(self) -> List[CheckRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        if self.strict and self.extra:
            return False
        return not self.regressions and not self.missing

    def table(self) -> str:
        """Plain-text comparison table plus verdict lines."""
        from repro.suite.tables import format_table

        lines = []
        if self.rows:
            lines.append(
                format_table(
                    ["Benchmark", "Metric", "Baseline", "Current", "Δ%",
                     "Verdict"],
                    [
                        [
                            row.benchmark,
                            row.metric,
                            f"{row.baseline:.6g}",
                            f"{row.current:.6g}",
                            f"{row.delta_pct:+.2f}%",
                            "REGRESSED" if row.regressed else "ok",
                        ]
                        for row in self.rows
                    ],
                )
            )
        if self.missing:
            lines.append(f"missing vs baseline: {', '.join(self.missing)}")
        if self.extra:
            suffix = " (strict: gate failure)" if self.strict else ""
            shown = self.extra[:20]
            listing = ", ".join(shown)
            if len(self.extra) > len(shown):
                listing += f", ... {len(self.extra) - len(shown)} more"
            lines.append(
                f"extra vs baseline: {len(self.extra)} benchmark(s): "
                f"{listing}{suffix}"
            )
        if self.ok:
            verdict = (
                f"OK: no regression beyond {self.tolerance_pct:g}% across "
                f"{len(self.rows)} metric(s)"
            )
        else:
            parts = [
                f"{len(self.regressions)} regression(s)",
                f"{len(self.missing)} missing benchmark(s)",
            ]
            if self.strict and self.extra:
                parts.append(f"{len(self.extra)} extra benchmark(s)")
            verdict = (
                f"FAIL: {', '.join(parts)} at "
                f"{self.tolerance_pct:g}% tolerance"
            )
        lines.append(verdict)
        return "\n".join(lines)


def compare_benchmarks(
    current: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Mapping[str, float]],
    tolerance_pct: float,
    *,
    strict: bool = False,
) -> CheckReport:
    """Gate ``current`` per-benchmark metrics against ``baseline``.

    Direction-aware: times and FLOP counts regress upward, rates
    regress downward (:data:`CHECK_METRICS`).  A change is a regression
    only beyond ``tolerance_pct`` percent in the worse direction;
    improvements of any size pass.  Benchmarks only the current run
    measured are reported as :attr:`CheckReport.extra` — informational
    unless ``strict``, which fails the gate on any coverage drift.
    """
    report = CheckReport(tolerance_pct=tolerance_pct, strict=strict)
    scale = tolerance_pct / 100.0
    for name in sorted(baseline):
        if name not in current:
            report.missing.append(name)
            continue
        for metric, _, direction in CHECK_METRICS:
            base = baseline[name].get(metric)
            cur = current[name].get(metric)
            if base is None or cur is None:
                continue
            if base == 0:
                delta_pct = 0.0 if cur == 0 else float("inf")
                worse = cur > 0 if direction > 0 else False
                regressed = worse and delta_pct > 0
            else:
                delta_pct = 100.0 * (cur - base) / base
                if direction > 0:
                    regressed = cur > base * (1.0 + scale)
                else:
                    regressed = cur < base * (1.0 - scale)
            report.rows.append(
                CheckRow(
                    benchmark=name,
                    metric=metric,
                    baseline=base,
                    current=cur,
                    delta_pct=delta_pct,
                    regressed=regressed,
                )
            )
    report.extra = sorted(set(current) - set(baseline))
    return report


def baseline_benchmarks(obj: Mapping) -> Dict[str, Dict[str, float]]:
    """Extract the per-benchmark metric map from any baseline document.

    Accepts a serialized :class:`RunStats` (a stats sidecar or
    ``engine stats --json`` output), any other document with a
    ``benchmarks`` map (such as the ``"kind": "bench"`` file
    ``benchmarks/baselines/seed_suite_bench.json``), or a bare
    ``{benchmark: {metric: value}}`` mapping.
    """
    if "benchmarks" in obj and isinstance(obj["benchmarks"], Mapping):
        return {k: dict(v) for k, v in obj["benchmarks"].items()}
    return {
        k: dict(v) for k, v in obj.items() if isinstance(v, Mapping)
    }


def load_baseline_file(path) -> Dict[str, Dict[str, float]]:
    """Read a baseline document from disk (see :func:`baseline_benchmarks`)."""
    with open(path, encoding="utf-8") as fh:
        return baseline_benchmarks(json.load(fh))
