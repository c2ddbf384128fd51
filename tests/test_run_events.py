"""The run-event log: one schema for engine runs, servers and ``repro watch``.

Both drivers emit each lifecycle transition once, and their job-metric
families (``<prefix>_jobs_total``, ``_retries_total``,
``_timeouts_total``, ``_dispatch_latency_seconds``) are folded from
those events.  Under ``REPRO_ENGINE_INJECT_FAIL=fft:2`` with three
retries, each driver's log must validate, carry exactly fft's two
failed attempts as ``job_retried``, and agree with its registry.
"""

from collections import Counter

import pytest

from repro.cli import main
from repro.engine import Engine, EngineConfig, plan_suite
from repro.engine.pool import ENV_INJECT_FAIL
from repro.obs import telemetry
from repro.obs.expo import histogram_stats, parse_exposition, series_value
from repro.obs.stream import EVENT_FIELDS, read_stream, validate_stream
from repro.obs.telemetry import JobMetrics, MetricsRegistry
from repro.serve import ServeClient, ServeConfig, ServerThread

PARAMS = {"fft": {"n": 64}, "lu": {"n": 16}, "ellip-2d": {"nx": 8}}
STATUSES = ("ok", "failed", "timeout", "cached")


def requests():
    return plan_suite(list(PARAMS), params=PARAMS)


def job_metrics(families, prefix):
    """The four job-metric families of one driver, as plain numbers."""
    dispatch = histogram_stats(families, f"{prefix}_dispatch_latency_seconds")
    numbers = {
        "retries": series_value(families, f"{prefix}_retries_total"),
        "timeouts": series_value(families, f"{prefix}_timeouts_total"),
        "dispatched": dispatch["count"] if dispatch else 0.0,
    }
    for status in STATUSES:
        numbers[status] = series_value(
            families, f"{prefix}_jobs_total", {"status": status}
        )
    return numbers


def check_log(events, before, after):
    """The log validates, holds fft's two retries and explains the deltas."""
    assert validate_stream(events) == []
    retried = [
        (e["benchmark"], e["attempt"], e["status"])
        for e in events
        if e["kind"] == "job_retried"
    ]
    assert retried == [("fft", 1, "failed"), ("fft", 2, "failed")]
    finished = Counter(e["status"] for e in events if e["kind"] == "job_finished")
    delta = {key: after[key] - before[key] for key in after}
    assert delta["retries"] == 2
    assert delta["timeouts"] == 0
    for status in STATUSES:
        assert delta[status] == finished[status], status
    assert delta["dispatched"] == sum(finished.values()) - finished["cached"]
    return finished


@pytest.mark.parametrize(
    "prefix, jobs_help, timeouts_help",
    [
        (
            "repro_engine",
            "Engine jobs finished, by final status.",
            "Job attempts abandoned at the per-attempt deadline.",
        ),
        (
            "repro_serve",
            "Completed jobs by final status.",
            "Job attempts abandoned at the per-attempt timeout.",
        ),
    ],
)
def test_job_metrics_fold(prefix, jobs_help, timeouts_help):
    registry = MetricsRegistry()
    metrics = JobMetrics(registry, prefix)
    job = {"benchmark": "fft", "request_hash": "ab" * 32}
    for record in [
        {"kind": "run_started", "workers": 1},
        {"kind": "job_started", "attempt": 1, "batch": 1, **job},
        {"kind": "job_retried", "status": "timeout", **job},
        {"kind": "job_retried", "status": "failed", **job},
        {"kind": "job_finished", "status": "ok", "queue_wait_s": 0.1, **job},
        {"kind": "job_finished", "status": "timeout", "queue_wait_s": 0.2, **job},
        {"kind": "job_finished", "status": "cached", "queue_wait_s": 0.0, **job},
        {"kind": "run_finished", "duration_s": 1.0},
    ]:
        metrics.fold(record)
    families = registry.collect()
    assert families[f"{prefix}_jobs_total"]["help"] == jobs_help
    assert families[f"{prefix}_timeouts_total"]["help"] == timeouts_help
    assert families[f"{prefix}_retries_total"]["help"] == (
        "Job attempts re-dispatched after a failure or timeout."
    )
    assert families[f"{prefix}_dispatch_latency_seconds"]["help"] == (
        "Queue wait (wall minus compute) per executed job, seconds."
    )
    assert job_metrics(families, prefix) == {
        "retries": 2, "timeouts": 2, "dispatched": 2,
        "ok": 1, "failed": 0, "timeout": 1, "cached": 1,
    }
    dispatch = histogram_stats(families, f"{prefix}_dispatch_latency_seconds")
    assert dispatch["sum"] == pytest.approx(0.3)


class TestFaultInjectedRuns:
    def test_engine_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        registry = telemetry.get_registry()
        config = EngineConfig(
            jobs=2, retries=3, backoff=0.01, cache_dir=tmp_path / "cache",
            stream=tmp_path / "events.jsonl",
        )
        before = job_metrics(registry.collect(), "repro_engine")
        results = Engine(config).run(requests())
        after = job_metrics(registry.collect(), "repro_engine")
        assert [r.status for r in results] == ["ok"] * len(PARAMS)
        events = read_stream(config.stream, strict=True)
        assert check_log(events, before, after) == {"ok": len(PARAMS)}
        run_finished = events[-1]
        assert run_finished["kind"] == "run_finished"
        assert run_finished["retries"] == 2 and run_finished["ok"] == len(PARAMS)

        # a warm rerun: every job is a cache hit, finished as "cached"
        config.stream = tmp_path / "rerun.jsonl"
        Engine(config).run(requests())
        rerun = read_stream(config.stream, strict=True)
        assert validate_stream(rerun) == []
        assert [e["kind"] for e in rerun] == (
            ["run_started"] + ["job_finished"] * len(PARAMS) + ["run_finished"]
        )
        cached = job_metrics(registry.collect(), "repro_engine")
        assert cached["cached"] - after["cached"] == len(PARAMS)
        assert cached["dispatched"] == after["dispatched"]

    def test_server_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        stream = tmp_path / "events.jsonl"
        config = ServeConfig(
            port=0, workers=2, retries=3, backoff=0.01, stream=str(stream)
        )
        with ServerThread(config) as (host, port):
            client = ServeClient(host, port)
            for request in requests():
                assert client.submit(request.to_dict())["job"]["status"] == "ok"
            after = job_metrics(parse_exposition(client.metrics()), "repro_serve")
            subscribers = client.stats()["subscribers"]
        assert subscribers == 0  # the fold is not a subscriber
        before = {key: 0.0 for key in after}
        events = read_stream(stream, strict=True)
        assert check_log(events, before, after) == {"ok": len(PARAMS)}
        assert [e["kind"] for e in events].count("job_started") == len(PARAMS) + 2


def test_watch_prints_one_line_per_kind(monkeypatch, capsys):
    events = [
        {"kind": "run_started", "seq": 0, "ts": 1.0, "run_id": "r1", "workers": 2},
        {
            "kind": "job_started", "seq": 1, "ts": 2.0, "run_id": "r1",
            "benchmark": "fft", "request_hash": "ab" * 32, "attempt": 1,
            "batch": 1,
        },
        {
            "kind": "job_retried", "seq": 2, "ts": 3.0, "run_id": "r1",
            "benchmark": "fft", "request_hash": "ab" * 32, "attempt": 1,
            "status": "failed", "error": "InjectedFailure: boom",
        },
        {
            "kind": "job_finished", "seq": 3, "ts": 4.0, "run_id": "r1",
            "benchmark": "fft", "request_hash": "ab" * 32, "status": "ok",
            "attempts": 2, "wall_time_s": 0.5, "queue_wait_s": 0.1,
            "compute_time_s": 0.4, "error": "", "spans": None,
        },
        {
            "kind": "run_finished", "seq": 4, "ts": 5.0, "run_id": "r1",
            "duration_s": 4.0, "ok": 1, "failed": 0, "timeout": 0, "cached": 0,
        },
    ]
    assert [e["kind"] for e in events] == list(EVENT_FIELDS)
    assert validate_stream(events) == []
    monkeypatch.setattr(
        ServeClient, "watch", lambda self, count=None, timeout=None: iter(events)
    )
    assert main(["watch", "--port", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[0] server up: run r1 (2 workers)",
        "[1] fft: started (attempt=1)",
        "[2] fft: attempt 1 failed, retrying: InjectedFailure: boom",
        "[3] fft: ok (attempts=2, wall=0.500s)",
        "[4] server done: run r1",
    ]
