"""Run-server tests: dedupe, parity, admission control, streaming.

The acceptance bar for ``repro serve``: 16 concurrent clients with
duplicate submissions coalesce to one worker execution and all receive
identical canonical report JSON; a bounded queue answers 429 +
Retry-After instead of melting; per-client rate limiting is isolated
by client id; and streamed events validate against the EventStream
schema.
"""

import json
import threading

import pytest

from repro.engine.jobs import RunRequest, execute_request
from repro.engine.lifecycle import Finish, Lifecycle, Restart
from repro.engine.pool import _pool_supported
from repro.metrics.serialize import canonical_report_json, report_to_dict
from repro.obs.stream import read_stream, validate_stream
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

# n-body-class small jobs: milliseconds each, structurally real.
SMALL = {"benchmark": "n-body", "params": {"n": 16}}


def small_request(i: int) -> dict:
    return {"benchmark": "n-body", "params": {"n": 12 + i}}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One warm server shared by the read-mostly tests."""
    tmp = tmp_path_factory.mktemp("serve")
    config = ServeConfig(
        port=0,
        workers=2,
        cache_dir=str(tmp / "cache"),
        store=str(tmp / "runs"),
        stream=str(tmp / "events.jsonl"),
        timeout=120,
    )
    with ServerThread(config) as (host, port):
        yield host, port, tmp


class TestRoundTrip:
    def test_health_and_stats(self, server):
        host, port, _ = server
        client = ServeClient(host, port)
        health = client.health()
        assert health["ok"] and health["workers"] == 2
        stats = client.stats()
        assert stats["max_queue"] == 64
        assert set(stats["counters"]) >= {
            "submitted", "executed", "coalesced", "served_cached",
            "rejected_queue", "rejected_rate", "dedupe_hit_rate",
        }

    def test_submit_report_matches_direct_execution(self, server):
        """The serve path is metrics-identical to an in-process run."""
        host, port, _ = server
        payload = ServeClient(host, port).submit(SMALL)
        assert payload["job"]["status"] == "ok"
        direct = execute_request(RunRequest.from_dict(SMALL))
        assert canonical_report_json(payload["report"]) == (
            canonical_report_json(report_to_dict(direct))
        )

    def test_resubmission_served_from_memory(self, server):
        host, port, _ = server
        client = ServeClient(host, port)
        first = client.submit({"benchmark": "lu", "params": {"n": 16}})
        again = client.submit({"benchmark": "lu", "params": {"n": 16}})
        assert again["job"]["source"] == "cache"
        assert again["report"] == first["report"]

    def test_submit_accepts_runrequest_objects(self, server):
        host, port, _ = server
        payload = ServeClient(host, port).submit(
            RunRequest(benchmark="fft", params={"n": 64})
        )
        assert payload["job"]["benchmark"] == "fft"
        assert payload["job"]["status"] == "ok"

    def test_no_wait_ack_then_result_endpoint(self, server):
        host, port, _ = server
        client = ServeClient(host, port)
        request = {"benchmark": "jacobi", "params": {"n": 24}}
        ack = client.submit(request, wait=False)
        request_hash = ack["job"]["request_hash"]
        assert ack["job"]["state"] in ("queued", "running", "done")
        done = client.result(request_hash, wait=True, timeout=60)
        assert done["job"]["state"] == "done"
        assert done["report"]["flop_count"] > 0
        # and the hash is the client-computable content hash
        assert request_hash == RunRequest.from_dict(request).content_hash()

    def test_unknown_result_is_404(self, server):
        host, port, _ = server
        with pytest.raises(ServeError) as err:
            ServeClient(host, port).result("deadbeef" * 8)
        assert err.value.status == 404

    def test_malformed_submissions_are_400(self, server):
        host, port, _ = server
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as err:
            client.submit({"params": {"n": 4}})  # no benchmark
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.submit({"benchmark": "fft", "tier": "nonsense"})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client._request("POST", "/submit", {"request": "not-a-dict"})
        assert err.value.status == 400

    def test_worker_failure_reported_not_fatal(self, server):
        """An unknown benchmark fails in the worker; the server keeps
        serving and reports the error in the payload."""
        host, port, _ = server
        client = ServeClient(host, port)
        payload = client.submit({"benchmark": "no-such-benchmark"})
        assert payload["job"]["status"] == "failed"
        assert "no-such-benchmark" in payload["job"]["error"]
        assert "report" not in payload
        # the server survived
        assert client.health()["ok"]


class TestConcurrentDedupe:
    def test_16_clients_with_duplicates_coalesce(self, server):
        """8 duplicate + 8 unique concurrent submissions: the duplicate
        group costs exactly one execution and every rider receives the
        identical canonical report."""
        host, port, _ = server
        duplicate = {"benchmark": "md", "params": {"n_p": 8, "steps": 2}}
        payloads = {}
        errors = []

        def submit(slot: int, request: dict) -> None:
            try:
                client = ServeClient(host, port, client_id=f"c{slot}")
                payloads[slot] = client.submit(request, busy_retries=16)
            except Exception as exc:  # pragma: no cover - assertion aid
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i, dict(duplicate)))
            for i in range(8)
        ] + [
            threading.Thread(target=submit, args=(8 + i, small_request(i)))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(payloads) == 16

        dup = [payloads[i] for i in range(8)]
        assert all(p["job"]["status"] in ("ok", "cached") for p in dup)
        executed = [p for p in dup if p["job"]["source"] == "executed"]
        assert len(executed) == 1, "duplicates must coalesce to one execution"
        # >= 7/8 dedupe hit rate within the duplicate group
        assert sum(
            p["job"]["source"] in ("coalesced", "cache") for p in dup
        ) >= 7
        reports = {canonical_report_json(p["report"]) for p in dup}
        assert len(reports) == 1, "every client must see the same report"

        unique = [payloads[8 + i] for i in range(8)]
        assert all(p["job"]["status"] in ("ok", "cached") for p in unique)
        hashes = {p["job"]["request_hash"] for p in unique}
        assert len(hashes) == 8

    def test_counters_account_for_dedupe(self, server):
        host, port, _ = server
        counters = ServeClient(host, port).stats()["counters"]
        assert counters["submitted"] == (
            counters["executed"]
            + counters["coalesced"]
            + counters["served_cached"]
        )
        # the 8-duplicate group cost one execution: 7 rode along,
        # either coalesced onto the in-flight job or served from memory
        assert counters["deduped"] >= 7


class TestEventStreaming:
    def test_live_events_validate_against_schema(self, server):
        host, port, _ = server
        events = []
        ready = threading.Event()

        def watch() -> None:
            client = ServeClient(host, port)
            gen = client.watch(count=3, timeout=60)
            first = next(gen)  # replayed run_started
            events.append(first)
            ready.set()
            events.extend(gen)

        watcher = threading.Thread(target=watch)
        watcher.start()
        assert ready.wait(timeout=30)
        client = ServeClient(host, port)
        client.submit({"benchmark": "gather", "params": {"n": 256}})
        client.submit({"benchmark": "scatter", "params": {"n": 256}})
        watcher.join(timeout=60)
        assert [e["kind"] for e in events] == [
            "run_started", "job_finished", "job_finished",
        ]
        assert validate_stream(events) == []
        finished = events[1:]
        assert {e["benchmark"] for e in finished} == {"gather", "scatter"}
        for event in finished:
            assert event["status"] == "ok"
            assert event["run_id"]
            assert len(event["request_hash"]) == 64
            assert event["spans"] is not None

    def test_two_subscribers_see_the_same_events(self, server):
        host, port, _ = server
        seen = {0: [], 1: []}
        ready = threading.Barrier(3, timeout=30)

        def watch(slot: int) -> None:
            gen = ServeClient(host, port).watch(count=2, timeout=60)
            seen[slot].append(next(gen))
            ready.wait()
            seen[slot].extend(gen)

        watchers = [
            threading.Thread(target=watch, args=(slot,)) for slot in (0, 1)
        ]
        for w in watchers:
            w.start()
        ready.wait()
        ServeClient(host, port).submit(
            {"benchmark": "reduction", "params": {"n": 512}}
        )
        for w in watchers:
            w.join(timeout=60)
        assert [e["kind"] for e in seen[0]] == ["run_started", "job_finished"]
        # both watchers got the identical job_finished record
        assert seen[0][1] == seen[1][1]

    def test_stream_file_sink_written_and_valid(self, server):
        host, port, tmp = server
        events = read_stream(tmp / "events.jsonl")
        assert validate_stream(events) == []
        kinds = {e["kind"] for e in events}
        assert kinds >= {"run_started", "job_finished"}


class TestAdmissionControl:
    def test_queue_full_answers_429_with_retry_after(self, tmp_path):
        config = ServeConfig(port=0, workers=1, max_queue=0, warmup=False)
        with ServerThread(config) as (host, port):
            client = ServeClient(host, port)
            with pytest.raises(ServeError) as err:
                client.submit(SMALL, wait=False)
            assert err.value.status == 429
            assert err.value.busy
            assert err.value.retry_after is not None
            assert err.value.retry_after > 0
            counters = client.stats()["counters"]
            assert counters["rejected_queue"] == 1
            assert counters["submitted"] == 0

    def test_busy_retries_exhaust_then_raise(self, tmp_path):
        config = ServeConfig(port=0, workers=1, max_queue=0, warmup=False)
        with ServerThread(config) as (host, port):
            client = ServeClient(host, port)
            with pytest.raises(ServeError):
                client.submit(SMALL, wait=False, busy_retries=2)
            assert client.stats()["counters"]["rejected_queue"] == 3

    def test_new_job_refused_once_shutdown_began(self):
        """A job admitted after shutdown began could never run: 503."""
        thread = ServerThread(ServeConfig(port=0, workers=1, warmup=False))
        with thread as (host, port):
            app, began = thread.app, threading.Event()
            app._loop.call_soon_threadsafe(lambda: (app._shutdown.set(), began.set()))
            assert began.wait(timeout=10)
            with pytest.raises(ServeError) as err:
                ServeClient(host, port).submit(SMALL)
            assert err.value.status == 503
            assert app._active() == 0

    def test_bucket_eviction_bounds_memory(self):
        """The unbounded-growth fix: a long-lived bucket table must
        shed buckets once they are idle long enough to be full again —
        a full bucket is indistinguishable from an absent one."""
        from repro.serve.state import TokenBucket

        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        for i in range(500):
            assert bucket.allow(f"client-{i}") == 0.0
        assert len(bucket) == 500
        # idle past the refill horizon (burst/rate = 2 s): every bucket
        # has refilled to full and the next allow() sweeps them all
        now[0] = 3.0
        bucket.allow("client-new")
        assert len(bucket) == 1  # only the client that just spent a token

    def test_eviction_never_grants_extra_tokens(self):
        """Eviction must be lossless: a drained client re-appearing
        after eviction gets exactly the full burst, nothing more."""
        from repro.serve.state import TokenBucket

        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.allow("a") == 0.0
        assert bucket.allow("a") == 0.0
        assert bucket.allow("a") == pytest.approx(1.0)  # drained
        now[0] = 10.0  # long idle => evicted at next sweep
        bucket.allow("other")
        assert "a" not in bucket._buckets
        # fresh bucket == full bucket: exactly burst tokens, no more
        assert bucket.allow("a") == 0.0
        assert bucket.allow("a") == 0.0
        assert bucket.allow("a") == pytest.approx(1.0)

    def test_active_bucket_survives_the_sweep(self):
        """A client mid-drain must keep its (partial) bucket across a
        sweep — eviction only touches effectively-full buckets."""
        from repro.serve.state import TokenBucket

        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=4, clock=lambda: now[0])
        now[0] = 3.0
        for _ in range(4):
            assert bucket.allow("busy") == 0.0
        # at t=5 the sweep fires (scheduled for t=4) with "busy" only
        # refilled to 2 of 4 tokens: it must survive
        now[0] = 5.0
        assert bucket.allow("nudge-sweep") == 0.0
        assert "busy" in bucket._buckets
        assert bucket.allow("busy") == 0.0  # spends a refilled token
        assert bucket.allow("busy") == 0.0
        assert bucket.allow("busy") == pytest.approx(1.0)  # empty again

    def test_rate_limit_is_per_client(self, tmp_path):
        config = ServeConfig(
            port=0, workers=1, warmup=False,
            rate_limit=0.001, rate_burst=1,
        )
        with ServerThread(config) as (host, port):
            a = ServeClient(host, port, client_id="client-a")
            b = ServeClient(host, port, client_id="client-b")
            a.submit(SMALL, wait=False)  # spends a's only token
            with pytest.raises(ServeError) as err:
                a.submit(SMALL, wait=False)
            assert err.value.status == 429
            assert err.value.retry_after > 0
            # b has its own bucket and is still admitted
            b.submit(SMALL, wait=False)
            counters = a.stats()["counters"]
            assert counters["rejected_rate"] == 1
            # rate limiting never reaches the dedupe/admission layer
            assert counters["submitted"] == 2


class TestTimeoutRecovery:
    def test_queued_sibling_survives_pool_restart(self):
        """A sibling queued behind a worker that times out must still
        complete: its timeout clock only starts once it reaches the
        pool, and a sibling in flight when the stuck worker forces a
        restart is requeued at the same attempt, not failed.  Driven
        on the server's lifecycle settings with synthetic times."""
        # one worker: the sibling waits in the queue behind the stuck job
        lifecycle = Lifecycle(1, timeout=4.0)
        lifecycle.add("slow", 0.0)
        lifecycle.add("sibling", 0.0)
        (slow,) = lifecycle.dispatch(0.0)
        assert lifecycle.dispatch(3.9) == []
        actions = lifecycle.expire(4.0, cancel=lambda trip: False)
        (timed_out,) = [a for a in actions if isinstance(a, Finish)]
        assert timed_out.key == "slow" and timed_out.status == "timeout"
        assert "timed out" in timed_out.error
        assert any(isinstance(a, Restart) for a in actions)
        (sibling,) = lifecycle.dispatch(4.0)
        assert sibling.members == [("sibling", 1)]
        assert sibling.deadline == 8.0  # its own clock, from handoff
        assert lifecycle.finished(sibling, "sibling", 4.1).status == "ok"
        assert lifecycle.unfinished == 0  # both done: no admission leak

        # two workers: the sibling is in flight on the abandoned pool
        lifecycle = Lifecycle(2, timeout=4.0)
        lifecycle.add("slow", 0.0)
        lifecycle.add("sibling", 3.0)
        (slow,) = lifecycle.dispatch(0.0)
        (sibling,) = lifecycle.dispatch(3.0)
        actions = lifecycle.expire(4.0, cancel=lambda trip: False)
        (restart,) = [a for a in actions if isinstance(a, Restart)]
        assert restart.abandoned == [sibling]
        (again,) = lifecycle.dispatch(4.0)
        assert again.members == [("sibling", 1)]
        finish = lifecycle.finished(again, "sibling", 4.1)
        assert (finish.status, finish.attempts) == ("ok", 1)

    @pytest.mark.skipif(
        not _pool_supported(), reason="process pool unavailable"
    )
    def test_stuck_worker_times_out_and_pool_restarts(self, monkeypatch):
        """Real-process smoke test of the server's timeout path: the
        stuck job times out, the pool restarts, and the job queued
        behind it completes on fresh workers."""
        from repro.engine.pool import ENV_INJECT_SLEEP

        monkeypatch.setenv(ENV_INJECT_SLEEP, "fft:3")
        config = ServeConfig(port=0, workers=1, timeout=0.5, warmup=False)
        with ServerThread(config) as (host, port):
            client = ServeClient(host, port)
            slow = client.submit(
                {"benchmark": "fft", "params": {"n": 64}}, wait=False
            )
            sibling = client.submit({"benchmark": "lu", "params": {"n": 16}})
            assert sibling["job"]["status"] == "ok"
            assert sibling["job"]["attempts"] == 1
            timed_out = client.result(
                slow["job"]["request_hash"], wait=True, timeout=30
            )
            assert timed_out["job"]["status"] == "timeout"
            assert "timed out after 0.5s" in timed_out["job"]["error"]
            assert client.stats()["active"] == 0
            assert client.health()["pool_generation"] == 2

    @pytest.mark.skipif(
        not _pool_supported(), reason="process pool unavailable"
    )
    def test_killed_worker_restarts_pool(self):
        """A worker killed between two submissions breaks the executor;
        it refuses the next submission, the pool restarts, and the job
        runs at the same attempt on fresh workers."""
        import os
        import signal
        import time

        thread = ServerThread(ServeConfig(port=0, workers=2, retries=1, timeout=120))
        with thread as (host, port):
            client = ServeClient(host, port)
            assert client.submit(small_request(0))["job"]["status"] == "ok"
            executor = thread.app.pool._executor
            os.kill(sorted(executor._processes)[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            payload = client.submit(small_request(1))
            assert payload["job"]["status"] == "ok"
            assert payload["job"]["attempts"] == 1  # the refusal cost none
            assert client.health()["pool_generation"] == 2

    def test_execute_resubmits_cancelled_pool_future(self):
        """A pool restart cancels a still-queued submission
        (CancelledError, a BaseException): the scheduler must resubmit
        it at the same attempt number and finish the job instead of
        leaving it unresolved."""
        import asyncio

        calls = []

        class FlakyPool:
            workers = 1
            generation = 1
            process_based = False

            async def submit_async(self, request, *, attempt, spans):
                calls.append(attempt)
                if len(calls) == 1:
                    # what wrap_future raises when restart() cancelled
                    # the queued submission
                    raise asyncio.CancelledError
                return {"report": {"flop_count": 1}, "compute_time_s": 0.0}

            def restart(self):
                pass

            def shutdown(self, wait=False):
                pass

        thread = ServerThread(ServeConfig(port=0, workers=1, warmup=False))
        thread.app.pool = FlakyPool()
        with thread as (host, port):
            client = ServeClient(host, port)
            payload = client.submit({"benchmark": "fft", "params": {"n": 64}})
            assert payload["job"]["status"] == "ok"
            assert payload["job"]["attempts"] == 1  # the cancelled try did not count
            assert payload["report"] == {"flop_count": 1}
            assert client.stats()["active"] == 0
        assert calls == [1, 1]


class TestDiskCacheFallback:
    def test_result_wait_on_cache_materialized_job(self, tmp_path):
        """``/result?wait=1`` for a job this server instance never ran
        must materialize the disk-cache hit and answer 200 — such jobs
        carry no future to wait on."""
        request = {"benchmark": "lu", "params": {"n": 24}}
        cache = str(tmp_path / "cache")
        config = ServeConfig(port=0, workers=1, cache_dir=cache, timeout=120)
        with ServerThread(config) as (host, port):
            first = ServeClient(host, port).submit(request)
            assert first["job"]["status"] == "ok"
            request_hash = first["job"]["request_hash"]
        fresh = ServeConfig(port=0, workers=1, cache_dir=cache, warmup=False)
        with ServerThread(fresh) as (host, port):
            client = ServeClient(host, port)
            done = client.result(request_hash, wait=True, timeout=5)
            assert done["job"]["state"] == "done"
            assert done["job"]["status"] == "cached"
            assert done["report"] == first["report"]
            # submitting the same request also waits cleanly on the
            # materialized (future-less) job
            again = client.submit(request)
            assert again["job"]["source"] == "cache"
            assert again["report"] == first["report"]

    def test_done_jobs_evicted_but_still_served(self, tmp_path):
        """``max_done_jobs`` bounds completed-job memory; evicted
        hashes are still answered from the disk cache, not re-run."""
        config = ServeConfig(
            port=0, workers=1, warmup=False, timeout=120,
            cache_dir=str(tmp_path / "cache"), max_done_jobs=2,
        )
        with ServerThread(config) as (host, port):
            client = ServeClient(host, port)
            hashes = [
                client.submit(small_request(i))["job"]["request_hash"]
                for i in range(4)
            ]
            stats = client.stats()
            assert stats["jobs"] <= 2
            assert stats["active"] == 0
            payload = client.result(hashes[0], wait=True, timeout=10)
            assert payload["job"]["state"] == "done"
            assert payload["report"]["flop_count"] > 0
            again = client.submit(small_request(0))
            assert again["job"]["source"] == "cache"
            assert client.stats()["counters"]["executed"] == 4


class TestQueryValidation:
    def test_bad_events_count_is_400(self, server):
        host, port, _ = server
        with pytest.raises(ServeError) as err:
            ServeClient(host, port)._request("GET", "/events?count=banana")
        assert err.value.status == 400

    def test_bad_result_timeout_is_400(self, server):
        host, port, _ = server
        with pytest.raises(ServeError) as err:
            ServeClient(host, port)._request(
                "GET", f"/result/{'0' * 64}?wait=1&timeout=banana"
            )
        assert err.value.status == 400


class TestEphemeralPortAnnounce:
    def test_run_server_reports_bound_port(self):
        """``--port 0`` callers learn the actually bound port via the
        on_bound callback (the CLI prints it from there)."""
        from repro.serve.server import run_server

        bound = {}
        ready = threading.Event()

        def boot() -> None:
            run_server(
                ServeConfig(port=0, workers=1, warmup=False),
                on_bound=lambda addr: (bound.update(addr=addr), ready.set()),
            )

        thread = threading.Thread(target=boot, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)
        host, port = bound["addr"]
        assert port != 0
        client = ServeClient(host, port)
        assert client.health()["ok"]
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestPersistence:
    def test_sharded_store_written(self, server):
        host, port, tmp = server
        ServeClient(host, port).submit(SMALL)
        shards = sorted((tmp / "runs" / "shards").glob("*.jsonl"))
        assert shards, "server must persist to a sharded store"
        records = []
        for shard in shards:
            with open(shard, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    records.append(record)
                    prefix = record["request_hash"][:2]
                    assert shard.name == f"{prefix}.jsonl"
        run_id = ServeClient(host, port).health()["run_id"]
        assert all(r["run_id"] == run_id for r in records)

    def test_store_readable_by_engine_cli_layer(self, server):
        host, port, tmp = server
        from repro.engine import open_store

        store = open_store(tmp / "runs")
        run_id = store.resolve("latest")
        records = store.run_records(run_id)
        assert records
        assert all(r["report"] is not None for r in records if r["status"] == "ok")


def _engine_stats_json(store, capsys) -> dict:
    """``repro engine stats latest --json`` on ``store``, parsed."""
    from repro.cli import main

    capsys.readouterr()
    assert main(
        ["engine", "stats", "latest", "--store", str(store), "--json"]
    ) == 0
    return json.loads(capsys.readouterr().out)


class TestStatsSidecar:
    """A server run gets one stats sidecar, written at shutdown like an
    engine run's; until then ``engine stats`` reads it from records."""

    def test_written_once_at_shutdown(self, tmp_path, monkeypatch, capsys):
        from repro.engine.shards import ShardedRunStore

        calls = []
        write_stats = ShardedRunStore.write_stats

        def counted(self, run_id, record):
            calls.append(run_id)
            return write_stats(self, run_id, record)

        monkeypatch.setattr(ShardedRunStore, "write_stats", counted)
        store = tmp_path / "runs"
        thread = ServerThread(
            ServeConfig(port=0, workers=2, store=str(store), timeout=120)
        )
        with thread as (host, port):
            client = ServeClient(host, port)
            for i in range(40):
                payload = client.submit(small_request(i))
                assert payload["job"]["status"] == "ok"
                if i == 19:
                    # a live server's run: exact counts from its records
                    live = _engine_stats_json(store, capsys)
                    assert live["n_jobs"] == 20
                    assert live["workers"] is None
                    assert not list(store.glob("stats/*.json"))
            assert calls == []
        run_id = thread.app.run_id
        assert calls == [run_id]
        sidecar = json.loads((store / "stats" / f"{run_id}.json").read_text())
        assert sidecar["n_jobs"] == 40
        assert sidecar["workers"] == 2
        assert sidecar["jobs"]

    def test_failed_write_still_shuts_down(self, tmp_path, capsys):
        store = tmp_path / "runs"
        thread = ServerThread(
            ServeConfig(port=0, workers=2, store=str(store), timeout=120)
        )

        def full_disk(run_id, record):
            raise OSError(28, "No space left on device")

        thread.app.store.write_stats = full_disk
        with thread as (host, port):
            payload = ServeClient(host, port).submit(SMALL)
            assert payload["job"]["status"] == "ok"
        assert not thread._thread.is_alive()
        assert "stats sidecar not written" in capsys.readouterr().err
        with pytest.raises(RuntimeError, match="shut down"):
            thread.app.pool.submit(RunRequest.from_dict(SMALL))
        with pytest.raises(RuntimeError, match="closed"):
            thread.app.fanout.emit("run_finished", run_id=thread.app.run_id)
        assert _engine_stats_json(store, capsys)["n_jobs"] == 1

