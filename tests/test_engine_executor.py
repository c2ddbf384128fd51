"""Executor tests: parallelism, determinism, caching, fault tolerance.

The acceptance bar for the engine: parallel execution must store
byte-identical reports to serial execution, a warm cache must serve
every job, and an injected worker failure must be retried per
``retries`` and, on exhaustion, recorded as ``failed`` without
aborting the remaining jobs.
"""

import pytest

from repro import Session, cm5
from repro.engine import (
    Engine,
    EngineConfig,
    InjectedFailure,
    RunStore,
    plan_suite,
)
from repro.engine.lifecycle import Finish, Lifecycle, Restart, Retry
from repro.engine.pool import (
    ENV_FORCE_SERIAL,
    ENV_INJECT_FAIL,
    ENV_INJECT_SLEEP,
    WorkerPool,
    _parse_injection,
    _pool_supported,
)
from repro.engine.trace import Tracer
from repro.metrics.serialize import canonical_report_json
from repro.suite import run_suite

# A small, fast, structurally diverse slice of the suite.
SUBSET = ["fft", "lu", "ellip-2d", "gmo", "md"]
SUBSET_PARAMS = {
    "fft": {"n": 64},
    "lu": {"n": 16},
    "ellip-2d": {"nx": 8},
    "gmo": {"ns": 128, "ntr": 16},
    "md": {"n_p": 8, "steps": 2},
}


def subset_requests():
    return plan_suite(SUBSET, params=SUBSET_PARAMS)


def canonical_reports(results):
    return {
        r.request.benchmark: canonical_report_json(r.report_record)
        for r in results
    }


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        """Satellite: serial and --jobs 4 store byte-identical reports."""
        serial = Engine(EngineConfig(jobs=1)).run(subset_requests())
        parallel = Engine(EngineConfig(jobs=4)).run(subset_requests())
        assert all(r.status == "ok" for r in serial)
        assert all(r.status == "ok" for r in parallel)
        assert canonical_reports(serial) == canonical_reports(parallel)

    def test_second_run_served_entirely_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        first = Engine(EngineConfig(jobs=4, cache_dir=cache)).run(
            subset_requests()
        )
        second = Engine(EngineConfig(jobs=4, cache_dir=cache)).run(
            subset_requests()
        )
        assert all(r.status == "ok" for r in first)
        assert all(r.status == "cached" for r in second)
        assert canonical_reports(first) == canonical_reports(second)

    def test_results_in_request_order(self):
        results = Engine(EngineConfig(jobs=4)).run(subset_requests())
        assert [r.request.benchmark for r in results] == SUBSET


class TestFaultTolerance:
    def test_retry_then_succeed(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        results = Engine(EngineConfig(retries=3, backoff=0.0)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        assert results[0].status == "ok"
        assert results[0].attempts == 3  # two injected failures, then ok

    def test_exhaustion_fails_without_aborting_siblings(self, monkeypatch):
        """Acceptance: a failing job never takes down the rest."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")  # every attempt fails
        results = Engine(EngineConfig(retries=2, backoff=0.0)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "failed"
        assert by_name["fft"].attempts == 3  # initial + 2 retries
        assert "InjectedFailure" in by_name["fft"].error
        assert by_name["gmo"].status == "ok"

    def test_pool_failure_isolation(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        results = Engine(EngineConfig(jobs=2, retries=1, backoff=0.0)).run(
            plan_suite(["fft", "gmo", "lu"], params=SUBSET_PARAMS)
        )
        statuses = {r.request.benchmark: r.status for r in results}
        assert statuses == {"fft": "failed", "gmo": "ok", "lu": "ok"}

    def test_pool_timeout(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_SLEEP, "fft:10")
        results = Engine(EngineConfig(jobs=2, timeout=0.5)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "timeout"
        assert "timed out after 0.5s" in by_name["fft"].error
        assert by_name["gmo"].status == "ok"

    def test_force_serial_degradation(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_SERIAL, "1")
        results = Engine(EngineConfig(jobs=4)).run(
            plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
        )
        assert all(r.status == "ok" for r in results)

    def test_failed_result_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        cache = tmp_path / "cache"
        Engine(EngineConfig(cache_dir=cache)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        monkeypatch.delenv(ENV_INJECT_FAIL)
        results = Engine(EngineConfig(cache_dir=cache)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        assert results[0].status == "ok"  # a failure must not poison the cache

    def test_parse_injection(self):
        assert _parse_injection("fft:2", "fft") == 2.0
        assert _parse_injection("fft:2", "lu") is None
        assert _parse_injection("fft", "fft") == -1.0
        assert _parse_injection("*:1", "anything") == 1.0
        assert _parse_injection("lu:1,fft:3", "fft") == 3.0

    def test_parse_injection_exact_beats_wildcard(self):
        """Satellite: an exact entry wins regardless of spec order."""
        assert _parse_injection("*:1,fft:3", "fft") == 3.0
        assert _parse_injection("fft:3,*:1", "fft") == 3.0
        assert _parse_injection("*:1,fft:3", "lu") == 1.0
        assert _parse_injection("*,fft:3", "fft") == 3.0

    def test_injected_failure_raises_in_raise_mode(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        with pytest.raises(InjectedFailure):
            run_suite(
                lambda: Session(cm5(32)), ["fft"], params=SUBSET_PARAMS
            )


class TestBackoffScheduling:
    def test_sibling_timeout_fires_during_backoff(self):
        """Acceptance: retry backoff must not stall the scheduler.

        ``fft`` fails fast and enters a long (4 s) retry backoff while
        ``gmo`` hangs past its 1 s timeout.  The backoff is a release
        time, not a sleep: the next wakeup is gmo's deadline, so its
        timeout fires on schedule.  Synthetic times on the engine's
        lifecycle settings.
        """
        lifecycle = Lifecycle(2, retries=1, backoff=4.0, timeout=1.0)
        lifecycle.add("fft", 0.0)
        lifecycle.add("gmo", 0.0)
        fft, gmo = lifecycle.dispatch(0.0)
        (retry,) = lifecycle.failed(fft, "fft", 0.01, "InjectedFailure: boom")
        assert retry.at == pytest.approx(4.01)
        # gmo's first timeout is due well before fft's backoff expires
        assert lifecycle.next_wakeup() == 1.0
        assert lifecycle.dispatch(0.5) == []
        actions = lifecycle.expire(1.0, cancel=lambda trip: False)
        gmo_timeout = next(a for a in actions if isinstance(a, Retry))
        assert (gmo_timeout.key, gmo_timeout.status) == ("gmo", "timeout")
        assert lifecycle.next_wakeup() == pytest.approx(4.01)
        (fft,) = lifecycle.dispatch(4.01)
        (fft_done,) = lifecycle.failed(fft, "fft", 4.02, "InjectedFailure: boom")
        assert (fft_done.status, fft_done.attempts) == ("failed", 2)
        (gmo,) = lifecycle.dispatch(lifecycle.next_wakeup())
        assert gmo.members == [("gmo", 2)]
        (gmo_done,) = lifecycle.expire(gmo.deadline, cancel=lambda trip: True)
        assert (gmo_done.status, gmo_done.attempts) == ("timeout", 2)

    def test_jobs_in_backoff_still_complete(self, monkeypatch):
        """Backoff-queued retries run after their release time."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:1")
        results = Engine(
            EngineConfig(jobs=2, retries=2, backoff=0.05)
        ).run(plan_suite(["fft", "lu"], params=SUBSET_PARAMS))
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "ok"
        assert by_name["fft"].attempts == 2
        assert by_name["lu"].status == "ok"


class TestIncrementalPersistence:
    def test_killed_run_keeps_finished_jobs(self, tmp_path, monkeypatch):
        """Acceptance: a run that dies mid-way loses no finished work.

        ``raise_on_error`` propagates the second job's failure out of
        ``run()`` — the in-process equivalent of a kill — and the
        first job's record must already be durable in the store.
        """
        monkeypatch.setenv(ENV_INJECT_FAIL, "lu")
        store_path = tmp_path / "runs.jsonl"
        engine = Engine(EngineConfig(store=store_path, raise_on_error=True))
        with pytest.raises(InjectedFailure):
            engine.run(plan_suite(["fft", "lu"], params=SUBSET_PARAMS))
        records = RunStore(store_path).records()
        assert [r["benchmark"] for r in records] == ["fft"]
        assert records[0]["status"] == "ok"
        assert records[0]["report"]["flop_count"] > 0

    def test_records_appended_as_jobs_finish(self, tmp_path):
        """Each record lands when its job finishes, not at run end."""
        store_path = tmp_path / "runs.jsonl"
        store = RunStore(store_path)
        seen = []

        def progress(result):
            seen.append((result.request.benchmark, len(store.records())))

        Engine(EngineConfig(store=store_path), progress=progress).run(
            plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
        )
        # At the first job's completion exactly one record existed.
        assert seen[0] == ("fft", 1)
        assert seen[1] == ("lu", 2)

    def test_pool_records_carry_plan_order_index(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        Engine(EngineConfig(jobs=4, store=store_path)).run(subset_requests())
        records = RunStore(store_path).run_records("@0")
        assert [r["benchmark"] for r in records] == SUBSET
        assert [r["index"] for r in records] == list(range(len(SUBSET)))


class TestStoreIntegration:
    def test_every_outcome_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        store_path = tmp_path / "runs.jsonl"
        cache = tmp_path / "cache"
        Engine(EngineConfig(store=store_path, cache_dir=cache)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        monkeypatch.delenv(ENV_INJECT_FAIL)
        Engine(EngineConfig(store=store_path, cache_dir=cache)).run(
            plan_suite(["gmo"], params=SUBSET_PARAMS)
        )
        store = RunStore(store_path)
        records = store.records()
        assert [r["status"] for r in records] == ["failed", "ok", "cached"]
        assert len(store.run_ids()) == 2
        failed = records[0]
        assert failed["benchmark"] == "fft"
        assert failed["report"] is None
        assert "InjectedFailure" in failed["error"]
        ok = records[1]
        assert ok["schema"] == 1
        assert ok["report"]["flop_count"] > 0
        assert ok["request"] == plan_suite(
            ["gmo"], params=SUBSET_PARAMS
        )[0].to_dict()
        # The cached record carries the same report as the original run.
        assert records[2]["report"] == ok["report"]

    def test_store_records_wall_time_and_attempts(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        Engine(EngineConfig(store=store_path)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        (record,) = RunStore(store_path).records()
        assert record["attempts"] == 1
        assert record["wall_time_s"] > 0


class TestBatchDispatch:
    """Batch dispatch: grouped submission, per-member granularity.

    Batching decisions key off the pool's per-benchmark compute EWMA,
    so each test pre-seeds the estimates it needs — a cold pool ships
    everything solo by design (that is itself a test below).
    """

    def _seeded_pool(self, benchmarks, workers=1):
        pool = WorkerPool(workers=workers)
        for name in benchmarks:
            pool.note_compute(name, 0.001)
        return pool

    def test_batched_reports_match_solo_byte_for_byte(self):
        solo = Engine(EngineConfig(jobs=1)).run(subset_requests())
        pool = self._seeded_pool(SUBSET)
        try:
            engine = Engine(EngineConfig(jobs=1), pool=pool)
            batched = engine.run(subset_requests())
        finally:
            pool.shutdown()
        assert all(r.status == "ok" for r in batched)
        assert canonical_reports(solo) == canonical_reports(batched)
        phases = engine.last_run_stats.phases
        assert phases["batches_submitted"] >= 1
        assert phases["batched_jobs"] == len(SUBSET)

    def test_cold_pool_ships_solo_then_batching_engages(self):
        """No estimate -> solo; the first wave seeds the EWMA."""
        pool = WorkerPool(workers=1)
        try:
            first = Engine(EngineConfig(jobs=1), pool=pool)
            first.run(subset_requests())
            assert first.last_run_stats.phases["batches_submitted"] == 0
            for name in SUBSET:
                assert pool.estimate(name) is not None
            second = Engine(EngineConfig(jobs=1), pool=pool)
            second.run(subset_requests())
            assert second.last_run_stats.phases["batches_submitted"] >= 1
        finally:
            pool.shutdown()

    def test_failed_member_fails_alone_and_retries_solo(self, monkeypatch):
        """A failing batch member never takes down its siblings."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        events = []
        pool = self._seeded_pool(SUBSET)
        try:
            engine = Engine(
                EngineConfig(jobs=1, retries=1, backoff=0.0),
                pool=pool,
                tracer=Tracer(callback=events.append),
            )
            results = engine.run(subset_requests())
        finally:
            pool.shutdown()
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "failed"
        assert by_name["fft"].attempts == 2
        assert "InjectedFailure" in by_name["fft"].error
        for name in SUBSET:
            if name != "fft":
                assert by_name[name].status == "ok"
                assert by_name[name].attempts == 1
        # The retry must have been dispatched solo, not re-batched.
        retry_starts = [
            e
            for e in events
            if e.kind == "job_started"
            and e.benchmark == "fft"
            and e.attempt == 2
        ]
        assert retry_starts
        assert all(not e.extra.get("batched") for e in retry_starts)

    def test_expired_batch_times_out_only_the_stuck_member(self):
        """Timeout attribution stays per-member after a batch expiry.

        The stuck job starves its batch past the pooled deadline; every
        member is requeued solo at the same attempt, where the stuck
        one earns an individual ``timeout`` and the innocent sibling
        completes ``ok`` without being charged an extra attempt.
        Synthetic times; both jobs are estimated small.
        """
        lifecycle = Lifecycle(1, timeout=0.5, estimate=lambda key: 0.001)
        lifecycle.add("fft", 0.0)
        lifecycle.add("gmo", 0.0)
        (batch,) = lifecycle.dispatch(0.0)
        assert batch.members == [("fft", 1), ("gmo", 1)]
        assert batch.deadline == 1.0  # the per-job budget times the size
        assert lifecycle.expire(1.0, cancel=lambda trip: False) == [Restart([])]
        (fft,) = lifecycle.dispatch(1.0)
        assert fft.members == [("fft", 1)]
        (finish,) = [
            a
            for a in lifecycle.expire(1.5, cancel=lambda trip: False)
            if isinstance(a, Finish)
        ]
        assert (finish.key, finish.status, finish.attempts) == ("fft", "timeout", 1)
        assert "timed out after 0.5s" in finish.error
        (gmo,) = lifecycle.dispatch(1.5)
        finish = lifecycle.finished(gmo, "gmo", 1.6)
        assert (finish.status, finish.attempts) == ("ok", 1)

    def test_batch_members_get_individual_cache_entries(self, tmp_path):
        cache = tmp_path / "cache"
        pool = self._seeded_pool(SUBSET)
        try:
            config = EngineConfig(jobs=1, cache_dir=cache)
            first = Engine(config, pool=pool).run(subset_requests())
            second = Engine(config, pool=pool).run(subset_requests())
        finally:
            pool.shutdown()
        assert all(r.status == "ok" for r in first)
        assert all(r.status == "cached" for r in second)
        assert canonical_reports(first) == canonical_reports(second)

    def test_partial_cache_hits_leave_batch_remainder(self, tmp_path):
        """Cache hits resolve up front; the rest still batch."""
        cache = tmp_path / "cache"
        pool = self._seeded_pool(SUBSET)
        try:
            config = EngineConfig(jobs=1, cache_dir=cache)
            Engine(config, pool=pool).run(
                plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
            )
            engine = Engine(config, pool=pool)
            results = engine.run(subset_requests())
        finally:
            pool.shutdown()
        statuses = {r.request.benchmark: r.status for r in results}
        assert statuses["fft"] == "cached"
        assert statuses["lu"] == "cached"
        fresh = [n for n in SUBSET if n not in ("fft", "lu")]
        assert all(statuses[n] == "ok" for n in fresh)
        assert engine.last_run_stats.phases["batched_jobs"] == len(fresh)


class _FakePool:
    """A WorkerPool stand-in on a stopped clock: each wait of the
    engine takes one second and returns every trip submitted so far,
    with fixed compute figures."""

    def __init__(self, workers, estimates, figures, report):
        self.workers, self.now = workers, 100.0
        self.estimates, self.figures, self.report = estimates, figures, report
        self.trips, self.pending = [], []

    # the engine's clock (its ``time`` module) and its wait
    def perf_counter(self):
        return self.now

    def wait(self, fs, timeout=None, return_when=None):
        self.now += 1.0
        for future, payload in self.pending:
            future.set_result(payload)
        self.pending = []
        return set(fs), set()

    # the pool
    def estimate(self, benchmark):
        return self.estimates.get(benchmark)

    def _member(self, request):
        figure = self.figures.get(request.benchmark, 0.0)
        return {"ok": True, "report": self.report, "compute_time_s": figure}

    def _trip(self, requests, payload):
        import concurrent.futures as cf

        self.trips.append([r.benchmark for r in requests])
        future = cf.Future()
        self.pending.append((future, payload))
        return future

    def submit(self, request, *, attempt=1, spans=False):
        return self._trip([request], self._member(request))

    def submit_batch(self, items, *, spans=False):
        requests = [request for request, _ in items]
        return self._trip(requests, {"members": [self._member(r) for r in requests]})


class TestAccounting:
    """Happy-path accounting and packing, pinned on a fake pool and a
    stopped clock: compute is the worker's figure, queue wait is the
    trip's wall minus it, wall is the trip's, one attempt each."""

    @pytest.fixture
    def report(self):
        from repro.engine.jobs import RunRequest, execute_request
        from repro.metrics.serialize import report_to_dict

        return report_to_dict(execute_request(RunRequest("fft", params={"n": 64})))

    def _run(self, monkeypatch, report, names, workers, estimates, figures):
        import concurrent.futures

        import repro.engine.executor as executor
        from repro.engine.jobs import RunRequest

        pool = _FakePool(workers, estimates, figures, report)
        monkeypatch.setattr(executor, "time", pool)
        monkeypatch.setattr(concurrent.futures, "wait", pool.wait)
        requests = [RunRequest(name) for name in names]
        results = Engine(EngineConfig(jobs=workers), pool=pool).run(requests)
        return pool, {r.request.benchmark: r for r in results}

    def test_solo_and_batched_accounting(self, monkeypatch, report):
        figures = {"fft": 0.25, "lu": 0.5, "gmo": 0.125, "md": 0.375}
        pool, solo = self._run(monkeypatch, report, ["fft", "lu"], 1, {}, figures)
        assert pool.trips == [["fft"], ["lu"]]
        estimates = {"gmo": 0.01, "md": 0.01}
        pool, batched = self._run(monkeypatch, report, ["gmo", "md"], 1, estimates, figures)
        assert pool.trips == [["gmo", "md"]]
        for result in [*solo.values(), *batched.values()]:
            figure = figures[result.request.benchmark]
            assert result.status == "ok"
            assert result.attempts == 1
            assert result.compute_time_s == figure
            assert result.wall_time_s == 1.0
            assert result.queue_wait_s == 1.0 - figure

    def test_packing_order(self, monkeypatch, report):
        """Small first attempts fill the open batch in queue order;
        heavy and unestimated jobs ship solo as they come up."""
        estimates = {
            "fft": 0.0625, "lu": 0.0625, "n-body": 0.2, "gmo": 0.0625,
            "md": 0.0625, "jacobi": 0.0625,
        }
        names = ["fft", "lu", "n-body", "gmo", "ellip-2d", "md", "jacobi"]
        pool, results = self._run(monkeypatch, report, names, 4, estimates, {})
        assert pool.trips == [["n-body"], ["ellip-2d"], ["fft", "lu", "gmo", "md"], ["jacobi"]]
        assert all(r.status == "ok" for r in results.values())


class TestBrokenPool:
    @pytest.mark.skipif(
        not _pool_supported(), reason="process pool unavailable"
    )
    def test_worker_killed_mid_run(self):
        """A worker killed after the first result breaks the executor:
        the pool restarts, the attempts it broke are retried, and
        every request still gets an ``ok`` result."""
        import os
        import signal

        from repro.engine.jobs import RunRequest

        pool = WorkerPool(2)
        killed = []

        def kill_one_worker(result):
            if not killed:
                killed.append(sorted(pool._executor._processes)[0])
                os.kill(killed[0], signal.SIGKILL)

        requests = [RunRequest("n-body", params={"n": 12 + i}) for i in range(16)]
        try:
            results = Engine(
                EngineConfig(jobs=2, retries=1), pool=pool, progress=kill_one_worker
            ).run(requests)
            generation = pool.generation
        finally:
            pool.shutdown()
        assert killed
        assert len(results) == 16
        assert [r.status for r in results] == ["ok"] * 16
        assert generation >= 2


class TestRunSuiteWrapper:
    def test_run_suite_matches_engine(self):
        suite = run_suite(
            lambda: Session(cm5(32)), SUBSET, params=SUBSET_PARAMS
        )
        engine = Engine(EngineConfig()).run(subset_requests())
        assert list(suite) == SUBSET
        for result in engine:
            assert suite[result.request.benchmark] == result.report

    def test_run_suite_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            run_suite(lambda: Session(cm5(32)), ["no-such-benchmark"])

    def test_run_suite_custom_session_factory(self):
        big = run_suite(
            lambda: Session(cm5(64)), ["fft"], params=SUBSET_PARAMS
        )
        small = run_suite(
            lambda: Session(cm5(32)), ["fft"], params=SUBSET_PARAMS
        )
        # Twice the nodes, twice the aggregate peak rate.
        assert big["fft"].peak_mflops == 2 * small["fft"].peak_mflops

    def test_fresh_recorder_enforced(self):
        """Satellite: reusing a session's recorder is an error."""
        from repro.suite import run_benchmark

        session = Session(cm5(32))
        run_benchmark("fft", session, n=64)
        with pytest.raises(ValueError, match="fresh session"):
            run_benchmark("fft", session, n=64)
