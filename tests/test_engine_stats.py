"""Observability layer tests: RunStats aggregation and the perf gate.

The acceptance bar: a real stored run yields throughput, queue-wait,
utilization, cache-hit rate and retry/timeout counts; an identical
rerun passes ``compare_benchmarks`` cleanly; a doctored baseline (or a
metric drifted beyond tolerance) fails it, direction-aware.
"""

import json
from pathlib import Path

import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    RunStats,
    RunStore,
    compare_benchmarks,
    plan_suite,
    stats_from_records,
)
from repro.engine.pool import ENV_INJECT_FAIL
from repro.engine.stats import (
    CHECK_METRICS,
    STATS_SCHEMA_VERSION,
    JobStats,
    baseline_benchmarks,
    load_baseline_file,
)

SEED_BASELINE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "baselines" / "seed_suite_bench.json"
)

SUBSET = ["fft", "lu", "gmo"]
SUBSET_PARAMS = {
    "fft": {"n": 64},
    "lu": {"n": 16},
    "gmo": {"ns": 128, "ntr": 16},
}


def run_with_store(tmp_path, **config):
    store_path = tmp_path / "runs.jsonl"
    engine = Engine(EngineConfig(store=store_path, **config))
    results = engine.run(plan_suite(SUBSET, params=SUBSET_PARAMS))
    return engine, results, RunStore(store_path)


class TestStatsAccumulator:
    """A run's incremental fold of its ``job_finished`` events must
    match the batch ``stats_from_results`` fold over the same results."""

    def test_matches_batch_aggregation(self, tmp_path):
        from repro.engine.stats import stats_from_results

        engine, results, _ = run_with_store(tmp_path)
        live = engine.last_run_stats
        batch = stats_from_results(
            live.run_id, results, workers=live.workers,
            duration_s=live.duration_s, phases=live.phases,
        )
        assert live.to_dict() == batch.to_dict()

    def test_keep_jobs_truncates_only_the_job_table(self, tmp_path):
        from repro.engine.stats import StatsAccumulator

        _, _, store = run_with_store(tmp_path)
        acc = StatsAccumulator("run", workers=1, keep_jobs=1)
        for record in store.records():
            acc.add(record, record["report"])
        snapshot = acc.snapshot(duration_s=1.0)
        # only the newest per-job row is retained ...
        assert len(snapshot.jobs) == 1
        assert snapshot.jobs[0].benchmark == SUBSET[-1]
        # ... every aggregate still covers all results
        assert snapshot.n_jobs == len(SUBSET)
        assert snapshot.status_counts == {"ok": 3}
        assert set(snapshot.benchmarks) == set(SUBSET)

    def test_batch_folds_keep_every_job_row(self):
        """Engine results and stored records fold through the
        accumulator without the server's 256-row job table limit."""
        from types import SimpleNamespace

        from repro.engine.stats import stats_from_results

        results = [
            SimpleNamespace(
                request=SimpleNamespace(benchmark="fft"), status="ok",
                attempts=1, queue_wait_s=0.0, compute_time_s=0.001,
                wall_time_s=0.001, spans=None, report_record={"flop_count": i},
            )
            for i in range(300)
        ]
        records = [
            {"benchmark": "fft", "status": "ok", "attempts": 1,
             "wall_time_s": 0.001, "report": {"flop_count": i}}
            for i in range(300)
        ]
        for stats in (
            stats_from_results("run", results, workers=1, duration_s=1.0),
            stats_from_records(records),
        ):
            assert stats.n_jobs == len(stats.jobs) == 300
            assert len(stats.benchmarks) == 300
            assert stats.benchmarks["fft#299"] == {"flop_count": 299}


class TestRunStatsFromEngine:
    def test_fresh_run_scheduler_metrics(self, tmp_path):
        engine, results, store = run_with_store(tmp_path)
        stats = engine.last_run_stats
        assert stats.n_jobs == len(SUBSET)
        assert stats.status_counts == {"ok": 3}
        assert stats.workers == 1
        assert stats.duration_s > 0
        assert stats.throughput_jobs_per_s > 0
        assert stats.compute_total_s > 0
        assert stats.compute_max_s <= stats.compute_total_s
        assert stats.cache_hits == 0 and stats.cache_hit_rate == 0.0
        assert stats.retries == 0 and stats.timeouts == 0
        assert stats.attempts_histogram == {1: 3}
        assert 0 < stats.worker_utilization <= 1.0
        assert stats.phases["execute_s"] > 0
        assert [job.benchmark for job in stats.jobs] == SUBSET
        # Serial queue wait: later jobs waited behind earlier ones.
        assert stats.jobs[-1].queue_wait_s >= stats.jobs[0].queue_wait_s
        assert set(stats.benchmarks) == set(SUBSET)
        for metrics in stats.benchmarks.values():
            assert metrics["flop_count"] > 0
            assert metrics["busy_time_s"] > 0

    def test_warm_cache_run_hit_rate(self, tmp_path):
        cache = tmp_path / "cache"
        run_with_store(tmp_path, cache_dir=cache)
        engine, _, _ = run_with_store(tmp_path, cache_dir=cache)
        stats = engine.last_run_stats
        assert stats.status_counts == {"cached": 3}
        assert stats.cache_hit_rate == 1.0
        # Cached jobs never touch a worker.
        assert stats.compute_total_s == 0.0
        assert stats.benchmarks  # cached reports still feed the gate

    def test_retry_histogram_counts_attempts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        engine, _, _ = run_with_store(tmp_path, retries=3, backoff=0.0)
        stats = engine.last_run_stats
        assert stats.retries == 2
        assert stats.attempts_histogram == {1: 2, 3: 1}
        assert stats.timeouts == 0

    def test_pool_run_reports_worker_count(self, tmp_path):
        engine, _, _ = run_with_store(tmp_path, jobs=2)
        stats = engine.last_run_stats
        assert stats.workers == 2
        assert 0 < stats.worker_utilization <= 1.0

    def test_sidecar_written_and_roundtrips(self, tmp_path):
        engine, _, store = run_with_store(tmp_path)
        sidecar = store.read_stats("latest")
        assert sidecar is not None
        rebuilt = RunStats.from_dict(sidecar)
        assert rebuilt.run_id == engine.last_run_stats.run_id
        assert rebuilt.n_jobs == engine.last_run_stats.n_jobs
        assert rebuilt.attempts_histogram == {1: 3}
        assert rebuilt.jobs[0].benchmark == "fft"
        assert rebuilt.table()  # renders

    def test_stats_from_records_fallback(self, tmp_path):
        """A store without a sidecar still yields scheduler stats."""
        engine, _, store = run_with_store(tmp_path)
        stats = stats_from_records(store.run_records("latest"))
        assert stats.run_id == engine.last_run_stats.run_id
        assert stats.n_jobs == 3
        assert stats.workers is None  # not recoverable from records
        assert stats.worker_utilization is None
        assert stats.compute_total_s > 0
        assert stats.benchmarks.keys() == engine.last_run_stats.benchmarks.keys()


class TestSidecarSchemaTolerance:
    """from_dict must survive other schema generations gracefully."""

    def v1_record(self):
        """A pre-spans (schema 1) sidecar as PR 4 wrote it."""
        return {
            "schema": 1,
            "run_id": "run-v1",
            "n_jobs": 1,
            "workers": 1,
            "duration_s": 0.5,
            "status_counts": {"ok": 1},
            "attempts_histogram": {"1": 1},
            "jobs": [
                {
                    "benchmark": "fft",
                    "status": "ok",
                    "attempts": 1,
                    "queue_wait_s": 0.0,
                    "compute_time_s": 0.1,
                    "wall_time_s": 0.1,
                }
            ],
            "benchmarks": {"fft": {"busy_time_s": 1.0}},
        }

    def test_v1_sidecar_loads_with_spans_defaulted(self):
        stats = RunStats.from_dict(self.v1_record())
        assert stats.run_id == "run-v1"
        assert stats.jobs[0].spans is None
        assert stats.table()  # renders without a span section

    def test_unknown_keys_from_newer_minor_are_dropped(self):
        record = self.v1_record()
        record["gpu_seconds"] = 12.0  # hypothetical future addition
        record["jobs"][0]["gpu_seconds"] = 12.0
        stats = RunStats.from_dict(record)
        assert stats.jobs[0].benchmark == "fft"
        assert not hasattr(stats, "gpu_seconds")

    def test_newer_schema_rejected_with_clear_message(self):
        record = self.v1_record()
        record["schema"] = STATS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than this reader"):
            RunStats.from_dict(record)
        with pytest.raises(ValueError, match="upgrade repro"):
            RunStats.from_dict(record)

    def test_spans_roundtrip_and_surface_in_table(self):
        record = self.v1_record()
        record["schema"] = STATS_SCHEMA_VERSION
        record["jobs"][0]["spans"] = {
            "schema": 1,
            "spans": 2,
            "iterations": 8,
            "busy_time_s": 0.25,
            "elapsed_time_s": 0.5,
            "flop_count": 1234,
            "network_bytes": 5678,
        }
        stats = RunStats.from_dict(record)
        assert stats.jobs[0].spans["iterations"] == 8
        table = stats.table()
        assert "1/1 jobs traced" in table
        assert "1,234" in table
        assert "Sim busy (s)" in table

    def test_engine_span_run_sidecar_has_spans(self, tmp_path):
        engine, results, store = run_with_store(
            tmp_path, stream=tmp_path / "events.jsonl"
        )
        assert all(r.spans is not None for r in results)
        sidecar = store.read_stats("latest")
        rebuilt = RunStats.from_dict(sidecar)
        assert all(isinstance(j.spans, dict) for j in rebuilt.jobs)
        assert all(
            j.spans["flop_count"]
            == engine.last_run_stats.benchmarks[j.benchmark]["flop_count"]
            for j in rebuilt.jobs
        ), "span FLOP totals must reconcile with the report metrics"
        assert "jobs traced" in rebuilt.table()

    def test_untraced_run_has_no_span_payload(self, tmp_path):
        _, results, store = run_with_store(tmp_path)
        assert all(r.spans is None for r in results)
        rebuilt = RunStats.from_dict(store.read_stats("latest"))
        assert all(j.spans is None for j in rebuilt.jobs)
        assert "jobs traced" not in rebuilt.table()

    def test_jobstats_dataclass_accepts_missing_spans(self):
        job = JobStats(
            benchmark="fft", status="ok", attempts=1,
            queue_wait_s=0.0, compute_time_s=0.1, wall_time_s=0.1,
        )
        assert job.spans is None


class TestCompareBenchmarks:
    BASE = {
        "fft": {"busy_time_s": 1.0, "elapsed_time_s": 2.0,
                "flop_count": 1000, "busy_floprate_mflops": 10.0},
        "lu": {"busy_time_s": 0.5, "elapsed_time_s": 1.0,
               "flop_count": 500, "busy_floprate_mflops": 20.0},
    }

    def test_identical_runs_pass(self):
        report = compare_benchmarks(self.BASE, self.BASE, tolerance_pct=5.0)
        assert report.ok
        assert len(report.rows) == 8
        assert report.regressions == []
        assert "OK" in report.table()

    def test_slower_time_beyond_tolerance_fails(self):
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["fft"]["busy_time_s"] = 1.2  # +20% > 5%
        report = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        assert not report.ok
        (row,) = report.regressions
        assert (row.benchmark, row.metric) == ("fft", "busy_time_s")
        assert row.delta_pct == pytest.approx(20.0)
        assert "REGRESSED" in report.table()

    def test_drift_within_tolerance_passes(self):
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["fft"]["busy_time_s"] = 1.04  # +4% < 5%
        assert compare_benchmarks(current, self.BASE, 5.0).ok

    def test_rate_metrics_regress_downward(self):
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["lu"]["busy_floprate_mflops"] = 15.0  # -25% rate
        report = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        (row,) = report.regressions
        assert (row.benchmark, row.metric) == ("lu", "busy_floprate_mflops")
        # A rate *increase* is an improvement, never a regression.
        current["lu"]["busy_floprate_mflops"] = 40.0
        assert compare_benchmarks(current, self.BASE, 5.0).ok

    def test_missing_benchmark_fails_gate(self):
        current = {"fft": dict(self.BASE["fft"])}
        report = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        assert not report.ok
        assert report.missing == ["lu"]

    def test_added_benchmark_is_informational(self):
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["qr"] = {"busy_time_s": 1.0}
        report = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        assert report.ok
        assert report.extra == ["qr"]

    def test_extra_benchmarks_are_reported_and_sorted(self):
        """The one-sided iteration bug: benchmarks only in *current*
        must surface, not vanish because the loop walked the baseline."""
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["zz"] = {"busy_time_s": 1.0}
        current["aa"] = {"busy_time_s": 1.0}
        report = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        assert report.extra == ["aa", "zz"]
        assert "extra vs baseline" in report.table()

    def test_extra_fails_gate_only_under_strict(self):
        current = {k: dict(v) for k, v in self.BASE.items()}
        current["qr"] = {"busy_time_s": 1.0}
        lax = compare_benchmarks(current, self.BASE, tolerance_pct=5.0)
        assert lax.ok
        strict = compare_benchmarks(
            current, self.BASE, tolerance_pct=5.0, strict=True
        )
        assert not strict.ok
        assert strict.extra == ["qr"]
        assert "FAIL" in strict.table()

    def test_strict_without_extra_still_passes(self):
        report = compare_benchmarks(
            self.BASE, self.BASE, tolerance_pct=5.0, strict=True
        )
        assert report.ok


class TestTrajectoryPoint:
    """The committed seed baseline is a ``"kind": "bench"`` trajectory
    point; that legacy format keeps loading as a check baseline."""

    def test_point_shape_and_baseline_reuse(self):
        point = json.loads(SEED_BASELINE.read_text())
        assert point["kind"] == "bench"
        assert point["engine"]["n_jobs"] == 32
        assert baseline_benchmarks(point) == point["benchmarks"]
        loaded = load_baseline_file(SEED_BASELINE)
        assert len(loaded) == 32
        for metrics in loaded.values():
            assert set(metrics) == {metric for metric, _, _ in CHECK_METRICS}
        # A fresh run at the suite's default parameters matches it
        # exactly, even at zero tolerance.
        engine = Engine(EngineConfig())
        engine.run(plan_suite(SUBSET))
        report = compare_benchmarks(
            engine.last_run_stats.benchmarks,
            {name: loaded[name] for name in SUBSET},
            tolerance_pct=0.0,
        )
        assert report.ok and len(report.rows) == 4 * len(SUBSET)

    def test_bare_mapping_accepted_as_baseline(self):
        bare = {"fft": {"busy_time_s": 1.0}}
        assert baseline_benchmarks(bare) == bare


class TestLatencyHistogramSection:
    def test_table_has_queue_wait_and_compute_histograms(self, tmp_path):
        engine, _, _ = run_with_store(tmp_path)
        table = engine.last_run_stats.table()
        assert "queue-wait histogram" in table
        assert "compute histogram" in table
        assert "#" in table  # at least one bar drawn

    def test_cached_only_run_skips_the_section(self, tmp_path):
        from repro.engine import EngineConfig, plan_suite

        cache_dir = tmp_path / "cache"
        Engine(EngineConfig(cache_dir=cache_dir)).run(
            plan_suite(SUBSET, params=SUBSET_PARAMS)
        )
        engine = Engine(EngineConfig(cache_dir=cache_dir))
        engine.run(plan_suite(SUBSET, params=SUBSET_PARAMS))
        stats = engine.last_run_stats
        assert stats.status_counts == {"cached": 3}
        assert "queue-wait histogram" not in stats.table()

    def test_histogram_lines_share_exposition_buckets(self):
        from repro.engine.stats import latency_histogram_lines

        lines = latency_histogram_lines(
            "queue-wait histogram", [0.0002, 0.0002, 0.004, 120.0]
        )
        assert lines[0] == "  queue-wait histogram (4 jobs)"
        body = "\n".join(lines)
        assert "<=0.00025s" in body
        assert "<=0.005s" in body
        assert ">60s" in body
        # empty buckets are skipped: only 3 bucket rows + header
        assert len(lines) == 4
