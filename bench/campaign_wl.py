"""Workload ``campaign``: the committed 1,012-point sweep, cold.

Every pass is a fresh interpreter with fresh workers, a fresh result
cache and a fresh sharded store (``campaign_pass.py``), as ``repro
campaign run`` starts.  The seed fixes the order of the spec's groups,
which reorders the plan (and so batch packing) without changing its
1,012 points.  Passes repeat until the measured windows reach
``--seconds``.  Its median point costs a few ms of simulation, so
dispatch, batch packing, cache writes, store appends and driver-side
deserialization are a large share of the run.

Per-job latency here is the job's in-worker time (``RunResult``
compute time).  Every point is queued at t=0, so time from the start
would measure queue position, and a batched member's hand-off-to-result
wall is its whole batch's; the in-worker time is the job's own.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List

from common import (
    BENCH_DIR,
    SPEC_PATH,
    Outcome,
    Verifier,
    fresh_dir,
    median,
    per,
    percentile,
    spawn_json,
)


def _spec(seed: int, tiny: bool, work: Path) -> Path:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    if tiny:
        doc["groups"] = doc["groups"][:1]
    random.Random(seed).shuffle(doc["groups"])
    path = work / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _pass(spec: Path, index: int, verifier: Verifier, *flags: str) -> Dict:
    work = fresh_dir(f"campaign/pass{index}")
    spawned, record = spawn_json(
        [str(BENCH_DIR / "campaign_pass.py"), "--spec", str(spec), "--work", str(work),
         "--digests", str(verifier.path), *flags],
        timeout=170,
    )
    record["setup_s"] = record["ready_at"] - spawned
    return record


def run(seed: int, seconds: float, trace: bool, tiny: bool, verifier: Verifier) -> Outcome:
    out = Outcome()
    spec = _spec(seed, tiny, fresh_dir("campaign"))
    if not trace:
        passes: List[Dict] = []
        while not passes or sum(p["wall_s"] for p in passes) < seconds:
            passes.append(_pass(spec, len(passes), verifier))
        for p in passes:
            out.merge_counts(p)
        wall = sum(p["wall_s"] for p in passes)
        cpu = sum(p["driver_cpu_s"] + p["worker_cpu_s"] for p in passes)
        latencies = [x for p in passes for x in p["latencies_s"]]
        out.metrics.update(
            {
                "jobs_per_s": out.verified / wall,
                "latency_p50_ms": 1e3 * percentile(latencies, 50),
                "latency_p99_ms": 1e3 * percentile(latencies, 99),
                "cpu_ms_per_job": 1e3 * per(cpu, out.verified),
                "peak_rss_mb": median(p["driver_rss_mb"] + sum(p["worker_rss_mb"]) for p in passes),
                "setup_s": median(p["setup_s"] for p in passes),
            }
        )
        out.detail.update(
            {
                "passes": len(passes),
                "samples": len(latencies),
                "pass_walls_s": [p["wall_s"] for p in passes],
                "setup_samples": [p["setup_s"] for p in passes],
                "workers": [p["workers"] for p in passes],
                "setup_outside_window": all(p["window_start"] >= p["ready_at"] for p in passes),
            }
        )
        return out

    from tracing import durations, load_spans, rollup_metrics, span_metrics

    base = _pass(spec, 0, verifier)
    traced = _pass(spec, 1, verifier, "--mode", "spans")
    profiled = _pass(spec, 2, verifier, "--mode", "profile")
    for p in (base, traced, profiled):
        out.merge_counts(p)
    jobs = traced["n_jobs"]
    spans = load_spans(Path(traced["spans_file"]))
    gets = [s for s in spans if s.name == "engine.cache.get"]
    submits = [s for s in spans if s.name in ("engine.pool.submit", "engine.pool.submit_batch")]
    members = sum(s.attrs.get("members", 1) for s in submits)
    pool_wall = sum(s.duration for s in submits)
    pool_compute = sum(s.attrs.get("compute_s", 0.0) for s in submits)
    out.metrics.update(
        rollup_metrics(
            {"driver": profiled["driver_rollup"], "replay": profiled["replay_rollup"]},
            jobs=profiled["n_jobs"],
            simulated=profiled["n_jobs"],
        )
    )
    # the spans file holds the driver's spans and the in-process replay's
    # (the workers' share), so per-job layer self times cover both sides
    out.metrics.update(span_metrics(spans, jobs))
    out.metrics.update(
        {
            "metrics.report_build_ms": 1e3 * per(sum(durations(spans, "metrics.from_recorder")), jobs),
            "metrics.to_dict_ms": 1e3 * per(sum(durations(spans, "metrics.report_to_dict")), jobs),
            "metrics.from_dict_ms": 1e3 * per(sum(durations(spans, "metrics.report_from_dict")), jobs),
            "engine.pool.busy_ratio": base["compute_total_s"] / (base["workers"] * base["wall_s"]),
            "engine.pool.submissions": float(len(submits)),
            "engine.pool.jobs_per_submission": per(members, len(submits)),
            "engine.pool.overhead_ms": 1e3 * per(pool_wall - pool_compute, members),
            "engine.pool.worker_rss_mb": max(base["worker_rss_mb"] or [0.0]),
            "engine.driver_cpu_ms": 1e3 * per(base["driver_cpu_s"], base["n_jobs"]),
            "engine.cache.put_ms": 1e3 * median(durations(spans, "engine.cache.put")),
            "engine.cache.entry_bytes": base["cache_entry_bytes"],
            "engine.cache.get_hit_ms": 1e3 * median(s.duration for s in gets if s.attrs.get("hit")),
            "engine.cache.get_miss_ms": 1e3 * median(s.duration for s in gets if not s.attrs.get("hit")),
            "engine.cache.hit_ratio": per(base["cache_hits"], base["n_jobs"]),
            "engine.store.append_ms": 1e3 * median(durations(spans, "engine.store.append")),
            "engine.store.bytes_per_job": per(base["store_bytes"], base["n_jobs"]),
            "engine.stats.finalize_ms": 1e3 * (
                sum(durations(spans, "engine.stats.stats_from_results"))
                + sum(durations(spans, "engine.stats.write_stats"))
            ),
            "engine.retries": float(base["retries"]),
            "engine.timeouts": float(base["timeouts"]),
            "engine.pool.restarts": float(base["pool_restarts"]),
            "campaign.compile_ms": 1e3 * sum(durations(spans, "campaign.compile")),
            "setup.import_s": median(p["import_s"] for p in (base, traced, profiled)),
            "setup.pool_warm_s": median(p["pool_warm_s"] for p in (base, traced, profiled)),
            "trace.overhead_ms": 1e3 * (per(traced["wall_s"], jobs) - per(base["wall_s"], base["n_jobs"])),
        }
    )
    out.detail.update(
        {
            "spans_file": traced["spans_file"],
            "phases": base["phases"],
            "walls_s": {"plain": base["wall_s"], "spans": traced["wall_s"], "profile": profiled["wall_s"]},
        }
    )
    return out
