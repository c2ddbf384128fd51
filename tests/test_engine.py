"""Unit tests for the execution engine's building blocks.

Covers run requests (canonical hashing), the content-addressed cache,
the JSONL run store, run events, and sweep planning.  Executor
behavior (parallelism, retries, timeouts) lives in
``test_engine_executor.py``.
"""

import json

import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    ResultCache,
    RunRequest,
    RunStore,
    code_fingerprint,
    diff_runs,
    execute_request,
    expand_grid,
    machine_sweep_requests,
    new_run_id,
    plan_suite,
    sweep_from_results,
    tier_sweep_requests,
)
from repro.metrics.patterns import CommPattern
from repro.obs.stream import read_stream, validate_stream
from repro.suite import REGISTRY


class TestRunRequest:
    def test_params_normalized(self):
        a = RunRequest("fft", params={"n": 64, "dims": 1})
        b = RunRequest("fft", params={"dims": 1, "n": 64})
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_hash_covers_every_field(self):
        base = RunRequest("fft", params={"n": 64})
        assert base.content_hash() != RunRequest("lu", params={"n": 64}).content_hash()
        assert base.content_hash() != RunRequest("fft", params={"n": 128}).content_hash()
        assert base.content_hash() != RunRequest("fft", nodes=64, params={"n": 64}).content_hash()
        assert base.content_hash() != RunRequest("fft", tier="cmssl", params={"n": 64}).content_hash()
        assert base.content_hash() != RunRequest("fft", machine="cm5e", params={"n": 64}).content_hash()
        assert base.content_hash() != RunRequest("fft", params={"n": 64}, seed=7).content_hash()

    def test_dict_roundtrip(self):
        request = RunRequest(
            "qr", machine="cluster", nodes=8, tier="cmssl",
            params={"m": 32, "n": 16}, seed=3,
        )
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_canonical_is_json(self):
        request = RunRequest("fft", params={"n": 64})
        assert json.loads(request.canonical())["benchmark"] == "fft"

    def test_bad_tier_rejected_eagerly(self):
        with pytest.raises(ValueError):
            RunRequest("fft", tier="turbo")

    def test_non_scalar_param_rejected(self):
        with pytest.raises(TypeError, match="non-scalar"):
            RunRequest("fft", params={"n": [1, 2]})

    def test_build_session_matches_spec(self):
        request = RunRequest("fft", machine="cm5e", nodes=64, tier="library")
        session = request.build_session()
        assert session.machine.nodes == 64
        assert "CM-5E" in session.machine.name
        assert session.tier.value == "library"

    def test_workstation_spec_rejects_multi_node(self):
        with pytest.raises(ValueError, match="fixed node count"):
            RunRequest("fft", machine="workstation", nodes=4).build_session()

    def test_execute_request(self):
        report = execute_request(RunRequest("ellip-2d", params={"nx": 8}))
        assert report.benchmark == "ellip-2d"
        assert report.flop_count > 0

    def test_seed_param_canonicalized(self):
        """Satellite: seed= and params={'seed': …} must not alias."""
        field = RunRequest("gmo", seed=5)
        via_params = RunRequest("gmo", params={"seed": 5})
        assert field == via_params
        assert field.content_hash() == via_params.content_hash()
        assert via_params.seed == 5
        assert "seed" not in via_params.params_dict

    def test_seed_both_spellings_agree(self):
        request = RunRequest("gmo", params={"seed": 5}, seed=5)
        assert request.seed == 5
        assert "seed" not in request.params_dict
        assert request.content_hash() == RunRequest("gmo", seed=5).content_hash()

    def test_conflicting_seeds_rejected(self):
        with pytest.raises(ValueError, match="conflicting seed"):
            RunRequest("gmo", params={"seed": 7}, seed=5)

    def test_none_param_seed_dropped(self):
        request = RunRequest("gmo", params={"seed": None}, seed=5)
        assert request.seed == 5
        assert request.content_hash() == RunRequest("gmo", seed=5).content_hash()

    def test_seed_aliases_dedup_in_plans(self):
        from repro.engine.plan import _dedup

        requests = _dedup(
            [RunRequest("gmo", seed=5), RunRequest("gmo", params={"seed": 5})]
        )
        assert len(requests) == 1


class TestNetworkOverrides:
    """Request-level interconnect overrides (campaign network axes)."""

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown network parameter"):
            RunRequest("fft", network={"bandwidth": 1e6})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(TypeError, match="must be a number"):
            RunRequest("fft", network={"bw_link": "fast"})
        with pytest.raises(TypeError, match="must be a number"):
            RunRequest("fft", network={"bw_link": True})

    def test_stock_request_encoding_unchanged(self):
        """No overrides -> no 'network' key, so old hashes stay valid."""
        stock = RunRequest("fft", params={"n": 64})
        assert "network" not in stock.to_dict()
        assert (
            stock.content_hash()
            == RunRequest("fft", params={"n": 64}, network={}).content_hash()
        )

    def test_overrides_participate_in_hash_and_normalize(self):
        a = RunRequest("fft", network={"bw_link": 5e6, "latency_news": 1e-6})
        b = RunRequest("fft", network={"latency_news": 1e-6, "bw_link": 5e6})
        assert a == b
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != RunRequest("fft").content_hash()
        assert (
            a.content_hash()
            != RunRequest("fft", network={"bw_link": 5e6}).content_hash()
        )

    def test_dict_roundtrip_with_network(self):
        request = RunRequest(
            "qr", nodes=8, params={"m": 32, "n": 16},
            network={"bw_link": 5e6, "collision_factor": 2.0},
        )
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_describe_marks_override(self):
        assert "*" not in RunRequest("fft").describe()
        assert "*" in RunRequest("fft", network={"bw_link": 5e6}).describe()

    def test_build_session_applies_overrides(self):
        session = RunRequest(
            "fft", network={"bw_link": 5e6, "latency_tree": 3e-6}
        ).build_session()
        assert session.machine.network.bw_link == 5e6
        assert session.machine.network.latency_tree == 3e-6

    def test_cached_stock_preset_never_mutated(self):
        """resolve_machine's memo must survive derived-machine builds."""
        stock_bw = RunRequest("fft").build_session().machine.network.bw_link
        RunRequest("fft", network={"bw_link": 1.0}).build_session()
        assert RunRequest("fft").build_session().machine.network.bw_link == (
            stock_bw
        )

    def test_override_machines_have_private_cost_memos(self):
        """Two override sets can never share priced comm costs."""
        s1 = RunRequest("fft", network={"bw_link": 1e6}).build_session()
        s2 = RunRequest("fft", network={"bw_link": 2e6}).build_session()
        assert s1.machine.network is not s2.machine.network
        for session in (s1, s2):
            session.record_comm(CommPattern.CSHIFT, bytes_network=1 << 20)
        assert s1._comm_cache is not s2._comm_cache
        assert s1.recorder.busy_time == pytest.approx(2 * s2.recorder.busy_time)

    def test_degraded_bandwidth_slows_comm_heavy_run(self):
        stock = execute_request(
            RunRequest("diff-1d", params={"nx": 256, "steps": 4})
        )
        slow = execute_request(
            RunRequest(
                "diff-1d",
                params={"nx": 256, "steps": 4},
                network={"bw_link": 1e4},
            )
        )
        assert slow.busy_time > stock.busy_time
        assert slow.elapsed_time > stock.elapsed_time
        assert slow.flop_count == stock.flop_count  # overrides price, not work


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_miss_then_hit(self, cache):
        request = RunRequest("fft", params={"n": 64})
        assert cache.get(request) is None
        cache.put(request, {"status": "ok", "report": {"flop_count": 1}})
        assert cache.get(request)["report"]["flop_count"] == 1
        assert request in cache
        assert len(cache) == 1

    def test_keyed_by_request(self, cache):
        cache.put(RunRequest("fft", params={"n": 64}), {"status": "ok"})
        assert cache.get(RunRequest("fft", params={"n": 128})) is None

    def test_code_fingerprint_invalidates(self, tmp_path):
        request = RunRequest("fft")
        ResultCache(tmp_path, fingerprint="a" * 64).put(request, {"s": 1})
        assert ResultCache(tmp_path, fingerprint="b" * 64).get(request) is None
        assert ResultCache(tmp_path, fingerprint="a" * 64).get(request) == {"s": 1}

    def test_fingerprint_is_stable_hex(self):
        assert code_fingerprint() == code_fingerprint()
        int(code_fingerprint(), 16)
        assert len(code_fingerprint()) == 64

    def test_torn_entry_is_a_miss(self, cache):
        request = RunRequest("fft")
        path = cache.put(request, {"status": "ok"})
        path.write_text("{not json")
        assert cache.get(request) is None

    def test_clear(self, cache):
        cache.put(RunRequest("fft"), {"s": 1})
        cache.put(RunRequest("lu"), {"s": 2})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_sweeps_crashed_put_tmp_files(self, cache):
        """Satellite: a crashed put's tmp file is cleaned, not leaked."""
        cache.put(RunRequest("fft"), {"s": 1})
        bucket = cache._bucket
        stray = bucket / "deadbeef.tmp.12345"
        stray.write_text("{torn")
        assert len(cache) == 1  # tmp files are never entries
        assert cache.clear() == 1
        assert not stray.exists()
        assert list(bucket.glob("*")) == []

    def test_prune_drops_stale_fingerprint_buckets(self, tmp_path):
        current = ResultCache(tmp_path / "cache", fingerprint="a" * 64)
        stale = ResultCache(tmp_path / "cache", fingerprint="b" * 64)
        current.put(RunRequest("fft"), {"s": 1})
        stale.put(RunRequest("fft"), {"s": 2})
        stale.put(RunRequest("lu"), {"s": 3})
        (current._bucket / "x.tmp.99").write_text("{torn")
        assert current.prune() == 3  # two stale entries + one tmp file
        assert len(current) == 1  # current entries survive
        assert not stale._bucket.exists()
        assert current.get(RunRequest("fft")) == {"s": 1}
        assert current.prune() == 0  # idempotent

    def test_prune_on_missing_root_is_noop(self, tmp_path):
        assert ResultCache(tmp_path / "nowhere").prune() == 0


class TestRunStore:
    def test_append_and_read(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        assert store.records() == []
        store.append({"run_id": "r1", "benchmark": "fft", "status": "ok"})
        store.append({"run_id": "r1", "benchmark": "lu", "status": "failed"})
        store.append({"run_id": "r2", "benchmark": "fft", "status": "cached"})
        assert len(store.records()) == 3
        assert store.run_ids() == ["r1", "r2"]
        assert [r["benchmark"] for r in store.run_records("r1")] == ["fft", "lu"]

    def test_prefix_resolution(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append({"run_id": "abc-123", "benchmark": "fft"})
        store.append({"run_id": "abd-456", "benchmark": "fft"})
        assert store.run_records("abc")[0]["run_id"] == "abc-123"
        with pytest.raises(KeyError, match="ambiguous"):
            store.run_records("ab")
        with pytest.raises(KeyError, match="no run"):
            store.run_records("zzz")

    def test_history_filter_and_limit(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        for i in range(5):
            store.append({"run_id": "r", "benchmark": "fft", "i": i})
            store.append({"run_id": "r", "benchmark": "lu", "i": i})
        fft = store.history(benchmark="fft", limit=2)
        assert [r["i"] for r in fft] == [3, 4]

    def test_run_ids_unique(self):
        assert new_run_id() != new_run_id()

    def test_resolve_run_references(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append({"run_id": "abc-123", "benchmark": "fft"})
        store.append({"run_id": "abd-456", "benchmark": "fft"})
        assert store.resolve("latest") == "abd-456"
        assert store.resolve("@0") == "abc-123"
        assert store.resolve("@-1") == "abd-456"
        assert store.resolve("@1") == "abd-456"
        assert store.resolve("abc") == "abc-123"
        with pytest.raises(KeyError, match="out of range"):
            store.resolve("@7")
        with pytest.raises(KeyError, match="expected @N"):
            store.resolve("@x")
        with pytest.raises(KeyError, match="no runs stored"):
            RunStore(tmp_path / "empty.jsonl").resolve("latest")

    def test_run_records_restore_plan_order(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        # Completion order 2, 0, 1 — as a process pool might append.
        store.append({"run_id": "r", "benchmark": "lu", "index": 2})
        store.append({"run_id": "r", "benchmark": "fft", "index": 0})
        store.append({"run_id": "r", "benchmark": "qr", "index": 1})
        assert [r["benchmark"] for r in store.run_records("r")] == [
            "fft", "qr", "lu",
        ]

    def test_stats_sidecar_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append({"run_id": "r1", "benchmark": "fft"})
        assert store.read_stats("r1") is None
        path = store.write_stats("r1", {"n_jobs": 3})
        assert path.parent == store.stats_dir
        assert store.read_stats("r1") == {"n_jobs": 3}
        assert store.read_stats("latest") == {"n_jobs": 3}

    def test_diff_runs(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        report = {"busy_time_s": 1.0, "elapsed_time_s": 2.0, "flop_count": 100,
                  "busy_floprate_mflops": 1.0, "memory_bytes": 10,
                  "network_bytes": 4}
        half = dict(report, elapsed_time_s=1.0)
        store.append({"run_id": "a", "benchmark": "fft", "status": "ok",
                      "report": report})
        store.append({"run_id": "a", "benchmark": "md", "status": "ok",
                      "report": report})
        store.append({"run_id": "b", "benchmark": "fft", "status": "ok",
                      "report": half})
        text = diff_runs(store, "a", "b")
        assert "0.5x" in text          # elapsed halved
        assert "=" in text             # unchanged metrics
        assert "only in a: md" in text


class TestRunEvents:
    def test_engine_emits_lifecycle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        engine = Engine(EngineConfig(jobs=1, stream=path))
        engine.run([RunRequest("ellip-2d", params={"nx": 8})])
        events = read_stream(path, strict=True)
        kinds = [e["kind"] for e in events]
        assert kinds == [
            "run_started",
            "job_started",
            "job_finished",
            "run_finished",
        ]
        assert validate_stream(events) == []
        started = events[1]
        assert (started["benchmark"], started["attempt"], started["batch"]) == (
            "ellip-2d", 1, 1,
        )
        assert started["request_hash"] == RunRequest(
            "ellip-2d", params={"nx": 8}
        ).content_hash()
        summary = events[-1]
        assert summary["throughput_jobs_per_s"] > 0
        assert summary["cache_hit_rate"] == 0.0
        assert summary["ok"] == 1 and summary["retries"] == 0
        assert summary["ts"] >= events[0]["ts"]


class TestPlanning:
    def test_plan_suite_covers_registry(self):
        requests = plan_suite()
        assert [r.benchmark for r in requests] == list(REGISTRY)

    def test_plan_suite_subset_with_params(self):
        requests = plan_suite(["fft", "lu"], params={"fft": {"n": 64}})
        assert len(requests) == 2
        assert requests[0].params_dict == {"n": 64}
        assert requests[1].params_dict == {}

    def test_expand_grid_cartesian_dedup(self):
        requests = expand_grid(
            ["fft"], nodes=(32, 64, 32), tiers=("basic", "optimized")
        )
        assert len(requests) == 4  # 2 distinct node counts x 2 tiers
        assert len({r.content_hash() for r in requests}) == 4

    def test_expand_grid_validates_names(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            expand_grid(["not-a-benchmark"])

    def test_expand_grid_network_axes(self):
        """network_grid multiplies the plan; combos merge over fixed."""
        requests = expand_grid(
            ["fft"],
            network={"collision_factor": 2.0},
            network_grid={"bw_link": [5e6, 10e6], "latency_news": [1e-6]},
        )
        assert len(requests) == 2
        nets = [dict(r.network) for r in requests]
        assert nets == [
            {"bw_link": 5e6, "collision_factor": 2.0, "latency_news": 1e-6},
            {"bw_link": 10e6, "collision_factor": 2.0, "latency_news": 1e-6},
        ]

    def test_expand_grid_network_grid_overrides_fixed(self):
        requests = expand_grid(
            ["fft"],
            network={"bw_link": 1e6},
            network_grid={"bw_link": [5e6, 10e6]},
        )
        assert [dict(r.network)["bw_link"] for r in requests] == [5e6, 10e6]

    def test_expand_grid_network_dedups_by_hash(self):
        requests = expand_grid(
            ["fft"], network_grid={"bw_link": [5e6, 5e6, 10e6]}
        )
        assert len(requests) == 2

    def test_machine_and_tier_sweep_requests(self):
        machine = machine_sweep_requests("diff-3d", [4, 16, 64], params={"nx": 8})
        assert [r.nodes for r in machine] == [4, 16, 64]
        tiers = tier_sweep_requests("fft", ["basic", "cmssl"], params={"n": 64})
        assert [r.tier for r in tiers] == ["basic", "cmssl"]

    def test_sweep_from_results(self):
        requests = machine_sweep_requests(
            "diff-3d", [4, 16], params={"nx": 8, "steps": 2}
        )
        results = Engine(EngineConfig()).run(requests)
        sweep = sweep_from_results("nodes", [4, 16], results)
        assert sweep.benchmark == "diff-3d"
        assert sweep.parameter == "nodes"
        series = sweep.series("elapsed_time")
        assert series[0] > series[1]  # more nodes, faster

    def test_requests_from_run_replays_a_stored_plan(self, tmp_path):
        from repro.engine import requests_from_run

        store_path = tmp_path / "runs.jsonl"
        requests = plan_suite(["fft", "lu"], params={"fft": {"n": 64}})
        Engine(EngineConfig(store=store_path)).run(requests)
        replay = requests_from_run(RunStore(store_path), "latest")
        assert replay == requests

    def test_sweep_from_results_rejects_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_INJECT_FAIL", "diff-3d")
        requests = machine_sweep_requests(
            "diff-3d", [4], params={"nx": 8, "steps": 2}
        )
        results = Engine(EngineConfig()).run(requests)
        with pytest.raises(RuntimeError, match="unsuccessful"):
            sweep_from_results("nodes", [4], results)
