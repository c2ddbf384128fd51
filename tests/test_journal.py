"""The run journal: one write path and one failure policy, engine and server.

Every finished job of an engine run or a server leaves its trail through
:class:`repro.engine.journal.RunJournal`: the cache entry of a fresh
report, the store record, then the ``job_finished`` event with the
job's final error, folded into the run's stats.  A failed cache write
or store append (a full disk) costs only that write: the job keeps its
status, its error names the write, and the run still ends with
``run_finished``.  The run's ``RunStats`` is one fold, so the events
(with the stored reports), the store records and the sidecar agree.
"""

import pytest

from repro.engine import Engine, EngineConfig, RunRequest, RunStore, open_store, plan_suite
from repro.engine.cache import ResultCache
from repro.engine.journal import RunJournal
from repro.engine.pool import ENV_INJECT_FAIL
from repro.engine.shards import ShardedRunStore
from repro.engine.stats import CHECK_METRICS, StatsAccumulator, stats_from_records
from repro.obs.stream import read_stream, validate_stream
from repro.obs.telemetry import JobMetrics, MetricsRegistry
from repro.serve import ServeClient, ServeConfig, ServerThread

PARAMS = {"fft": {"n": 64}, "lu": {"n": 16}, "ellip-2d": {"nx": 8}}


def requests():
    return plan_suite(list(PARAMS), params=PARAMS)


def full_disk(*args, **kwargs):
    raise OSError(28, "No space left on device")


def serve(config):
    """Submit every request to a fresh server; its jobs and its app."""
    thread = ServerThread(config)
    with thread as (host, port):
        client = ServeClient(host, port)
        jobs = [client.submit(request.to_dict())["job"] for request in requests()]
    assert not thread._thread.is_alive()
    return jobs, thread.app


@pytest.mark.parametrize("runner", ["engine-jobs-1", "engine-jobs-2", "server"])
def test_failed_store_append_costs_only_the_record(tmp_path, monkeypatch, runner):
    """A full disk at every store append leaves every job ``ok`` with an
    error naming the write, in its result and in its event, and the run
    still ends: the engine returns every result and its stats, the
    server answers every waiter."""
    stream = tmp_path / "events.jsonl"
    if runner == "server":
        monkeypatch.setattr(ShardedRunStore, "append", full_disk)
        jobs, _ = serve(
            ServeConfig(
                port=0, workers=2, timeout=120,
                store=str(tmp_path / "runs"), stream=str(stream),
            )
        )
    else:
        monkeypatch.setattr(RunStore, "append", full_disk)
        engine = Engine(EngineConfig(
            jobs=int(runner[-1]), store=tmp_path / "runs.jsonl", stream=stream,
        ))
        results = engine.run(requests())
        assert engine.last_run_stats.n_jobs == len(PARAMS)
        jobs = [
            {"benchmark": r.request.benchmark, "status": r.status, "error": r.error}
            for r in results
        ]
    assert [job["benchmark"] for job in jobs] == list(PARAMS)
    assert [job["status"] for job in jobs] == ["ok"] * len(PARAMS)
    for job in jobs:
        assert job["error"].startswith("store append failed")
        assert "No space left" in job["error"]
    events = read_stream(stream, strict=True)
    assert validate_stream(events) == []
    finished = {e["benchmark"]: e["error"] for e in events if e["kind"] == "job_finished"}
    assert finished == {job["benchmark"]: job["error"] for job in jobs}
    assert events[-1]["kind"] == "run_finished"
    assert events[-1]["ok"] == len(PARAMS)


class TestOneFold:
    """``StatsAccumulator.add`` is the one fold: a run's ``job_finished``
    events with the stored reports, its store records and its sidecar
    give the same stats."""

    def check(self, store, stream, run_id):
        records = store.run_records(run_id)
        reports = {r["request_hash"]: r["report"] for r in records}
        acc = StatsAccumulator(run_id, keep_jobs=None)
        for event in read_stream(stream, strict=True):
            if event["kind"] == "job_finished":
                acc.add(event, reports[event["request_hash"]])
        folded = acc.snapshot(duration_s=1.0).to_dict()
        from_records = stats_from_records(records).to_dict()
        sidecar = store.read_stats(run_id)
        for key in ("n_jobs", "status_counts", "attempts_histogram", "retries", "benchmarks"):
            assert folded[key] == from_records[key] == sidecar[key], key
        for key in ("queue_wait_total_s", "compute_total_s"):
            assert folded[key] == sidecar[key], key
            assert folded[key] == pytest.approx(from_records[key], rel=1e-12), key
        assert folded["retries"] == 2
        assert folded["attempts_histogram"] == {"1": len(PARAMS) - 1, "3": 1}

    def test_engine_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        store, stream = tmp_path / "runs.jsonl", tmp_path / "events.jsonl"
        engine = Engine(EngineConfig(
            jobs=2, retries=3, backoff=0.01, store=store, stream=stream,
        ))
        engine.run(requests())
        self.check(RunStore(store), stream, engine.last_run_stats.run_id)

    def test_server_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        stream = tmp_path / "events.jsonl"
        jobs, app = serve(
            ServeConfig(
                port=0, workers=2, retries=3, backoff=0.01, timeout=120,
                store=str(tmp_path / "runs"), stream=str(stream),
            )
        )
        assert [job["status"] for job in jobs] == ["ok"] * len(PARAMS)
        self.check(open_store(tmp_path / "runs"), stream, app.run_id)


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_benchmark_keyed_in_plan_order(tmp_path, jobs):
    """A sweep's sidecar keys ``fft``, ``fft#1``, ``fft#2`` in plan order,
    as ``keyed_by_benchmark`` keys the run's records, whatever order its
    jobs finish in: here the middle point is a cache hit, recorded before
    either other point executes."""
    sweep = [RunRequest("fft", params={"n": n}) for n in (32, 64, 128)]
    cache, store = tmp_path / "cache", tmp_path / "runs.jsonl"
    Engine(EngineConfig(cache_dir=cache)).run(sweep[1:2])
    engine = Engine(EngineConfig(jobs=jobs, cache_dir=cache, store=store))
    results = engine.run(sweep)
    assert [r.status for r in results] == ["ok", "cached", "ok"]
    planned = {
        key: {m: r.report_record[m] for m, _, _ in CHECK_METRICS if m in r.report_record}
        for key, r in zip(("fft", "fft#1", "fft#2"), results)
    }
    assert len({metrics["flop_count"] for metrics in planned.values()}) == 3
    run_id = engine.last_run_stats.run_id
    sidecar = RunStore(store).read_stats(run_id)
    assert sidecar["benchmarks"] == planned
    assert stats_from_records(RunStore(store).run_records(run_id)).benchmarks == planned
    assert [job["status"] for job in sidecar["jobs"]] == ["ok", "cached", "ok"]


REQUEST = RunRequest("fft", params={"n": 64})
REPORT = {"flop_count": 7, "busy_time_s": 1.0}
JOB = {"status": "ok", "attempts": 1, "queue_wait_s": 0.1, "compute_time_s": 0.2, "index": 0}


class TestRunJournal:
    def journal(self, tmp_path, events):
        journal = RunJournal(
            "run-1",
            JobMetrics(MetricsRegistry(), "repro_engine"),
            cache=ResultCache(tmp_path / "cache"),
            store=RunStore(tmp_path / "runs.jsonl"),
        )
        journal.fanout.subscribe(events.append)
        return journal

    @pytest.mark.parametrize(
        "broken, prefix",
        [("cache", "cache write failed"), ("store", "store append failed")],
    )
    def test_executed_job_loses_only_the_failed_write(self, tmp_path, broken, prefix):
        events = []
        journal = self.journal(tmp_path, events)
        if broken == "cache":
            journal.cache.put_report = full_disk
        else:
            journal.store.append = full_disk
        error = journal.executed(REQUEST, report=REPORT, wall_time_s=0.3, **JOB)
        assert error.startswith(prefix) and "No space left" in error
        (event,) = events
        assert (event["kind"], event["status"], event["error"]) == (
            "job_finished", "ok", error,
        )
        assert journal.stats.n_jobs == 1
        assert journal.stats.snapshot(duration_s=1.0).benchmarks == {"fft": REPORT}
        if broken == "cache":
            assert REQUEST not in journal.cache
            (record,) = journal.store.records()
            assert (record["status"], record["error"]) == ("ok", error)
        else:
            assert REQUEST in journal.cache
            assert journal.store.records() == []

    @pytest.mark.parametrize("store_fails", [False, True])
    def test_cache_hit_never_writes_the_cache(self, tmp_path, store_fails):
        events = []
        journal = self.journal(tmp_path, events)
        journal.cache.put_report = full_disk  # a cache write would name itself
        if store_fails:
            journal.store.append = full_disk
        error = journal.record(REQUEST, status="cached", report=REPORT)
        assert REQUEST not in journal.cache
        (event,) = events
        assert (event["status"], event["error"]) == ("cached", error)
        assert journal.stats.status_counts == {"cached": 1}
        if store_fails:
            assert error.startswith("store append failed")
        else:
            assert error == ""
            (record,) = journal.store.records()
            assert (record["status"], record["error"]) == ("cached", None)
            assert record["report"] == REPORT

    def test_close_writes_the_sidecar_then_announces_the_run(self, tmp_path):
        events = []
        journal = self.journal(tmp_path, events)
        journal.executed(REQUEST, report=REPORT, wall_time_s=0.3, **JOB)
        stats = journal.close(2.0, 1, {"execute_s": 1.5})
        assert journal.store.read_stats("run-1") == stats.to_dict()
        finished = events[-1]
        assert finished["kind"] == "run_finished"
        assert {k: finished[k] for k in ("ok", "failed", "timeout", "cached")} == {
            "ok": 1, "failed": 0, "timeout": 0, "cached": 0,
        }
        assert finished["duration_s"] == 2.0
        assert stats.workers == 1 and finished["worker_utilization"] == 0.1
        assert finished["throughput_jobs_per_s"] == stats.throughput_jobs_per_s == 0.5
        assert finished["cache_hit_rate"] == 0.0 and finished["retries"] == 0
        assert "timeouts" not in finished
        with pytest.raises(RuntimeError, match="closed"):
            journal.emit("run_started", workers=1)

    def test_failed_sidecar_write_still_finishes_the_run(self, tmp_path, capsys):
        events = []
        journal = self.journal(tmp_path, events)
        journal.record(REQUEST, status="cached", report=REPORT)
        journal.store.write_stats = full_disk
        stats = journal.close(1.0, 1)
        assert stats.n_jobs == 1
        assert "stats sidecar not written" in capsys.readouterr().err
        assert events[-1]["kind"] == "run_finished"
        assert events[-1]["cached"] == 1
        assert journal.store.read_stats("run-1") is None
