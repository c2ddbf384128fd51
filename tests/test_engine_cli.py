"""CLI coverage of the execution engine.

``suite``/``tables`` engine flags (--jobs, --cache-dir, --store,
--retries, --trace), the ``engine runs/history/diff`` inspection
commands, and the fixed-node-preset ``--nodes`` conflict check.
"""

import json

import pytest

from repro.cli import main
from repro.engine import RunStore
from repro.engine.pool import ENV_INJECT_FAIL


@pytest.fixture
def stored_suite(tmp_path, capsys):
    """Run the suite twice against one cache/store; return paths."""
    store = tmp_path / "runs.jsonl"
    cache = tmp_path / "cache"
    argv = [
        "suite", "--store", str(store), "--cache-dir", str(cache),
    ]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()
    return store, cache


class TestSuiteFlags:
    def test_suite_reports_engine_summary(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        assert main(["suite", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Status" in out
        assert "engine: 32 jobs" in out
        assert "ok=32" in out
        assert len(RunStore(store).records()) == 32

    def test_second_run_all_cached(self, stored_suite, capsys):
        store, cache = stored_suite
        assert main(
            ["suite", "--store", str(store), "--cache-dir", str(cache)]
        ) == 0
        out = capsys.readouterr().out
        assert "cached=32" in out
        assert "ok=0" in out

    def test_cached_run_prints_identical_table(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["suite", "--cache-dir", str(cache)]) == 0
        fresh = capsys.readouterr().out
        assert main(["suite", "--cache-dir", str(cache)]) == 0
        cached = capsys.readouterr().out

        def metric_rows(text):
            # Drop the trailing status cell and the engine summary line;
            # everything else (the numbers) must match exactly.
            return [
                line.split()[:-1]
                for line in text.splitlines()
                if line and not line.startswith("engine:")
            ]

        assert metric_rows(fresh) == metric_rows(cached)

    def test_failed_job_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        assert main(["suite"]) == 1
        out = capsys.readouterr().out
        assert "failed=1" in out and "ok=31" in out
        assert "InjectedFailure" in out

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["suite", "--trace", str(trace)]) == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        kinds = {e["kind"] for e in events}
        assert {"run_started", "job_finished", "run_finished"} <= kinds

    def test_tables_accept_engine_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["tables", "4", "--jobs", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "matrix-vector" in first
        assert first == second  # cached rerun regenerates the same table


class TestFixedNodePresets:
    def test_workstation_conflicting_nodes_rejected(self, capsys):
        with pytest.raises(SystemExit, match="fixed at 1 node"):
            main(["run", "fft", "--machine", "workstation", "--nodes", "8",
                  "--param", "n=64"])

    def test_workstation_explicit_matching_nodes_ok(self, capsys):
        assert main(["run", "fft", "--machine", "workstation", "--nodes",
                     "1", "--param", "n=64"]) == 0
        assert "workstation" in capsys.readouterr().out.lower()

    def test_workstation_default_nodes_ok(self, capsys):
        assert main(["run", "fft", "--machine", "workstation",
                     "--param", "n=64"]) == 0

    def test_node_sweep_on_workstation_rejected(self, capsys):
        with pytest.raises(SystemExit, match="cannot sweep nodes"):
            main(["sweep", "fft", "--machine", "workstation",
                  "--over", "nodes", "--values", "1,2",
                  "--param", "n=64"])


class TestEngineInspection:
    def test_runs_lists_both_invocations(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(["engine", "runs", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "ok=32" in out
        assert "cached=32" in out

    def test_runs_empty_store(self, tmp_path, capsys):
        assert main(
            ["engine", "runs", "--store", str(tmp_path / "none.jsonl")]
        ) == 0
        assert "no runs stored" in capsys.readouterr().out

    def test_history_filters_by_benchmark(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(
            ["engine", "history", "--store", str(store),
             "--benchmark", "fft", "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "lu" not in out
        assert "cached" in out

    def test_diff_cached_run_is_identical(self, stored_suite, capsys):
        store, _ = stored_suite
        run_a, run_b = RunStore(store).run_ids()
        assert main(
            ["engine", "diff", run_a, run_b, "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "32 shared jobs, 32 with identical reports" in out

    def test_diff_unknown_run_exits_cleanly(self, stored_suite, capsys):
        store, _ = stored_suite
        with pytest.raises(SystemExit, match="no run"):
            main(["engine", "diff", "zzz", "zzz", "--store", str(store)])


class TestEngineStatsCommand:
    def test_stats_reports_scheduler_metrics(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(["engine", "stats", "latest", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "32/32 hits (100.0%)" in out  # the second run was all-cached
        assert "queue wait" in out
        assert "retries" in out and "timeouts" in out
        assert "utilization" in out

    def test_stats_defaults_to_latest(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(["engine", "stats", "--store", str(store)]) == 0
        run_b = RunStore(store).run_ids()[-1]
        assert run_b in capsys.readouterr().out

    def test_stats_first_run_by_index(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(["engine", "stats", "@0", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "0/32 hits (0.0%)" in out  # the first run was all-fresh

    def test_stats_json_output(self, stored_suite, capsys):
        store, _ = stored_suite
        assert main(
            ["engine", "stats", "latest", "--json", "--store", str(store)]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n_jobs"] == 32
        assert record["cache_hit_rate"] == 1.0
        assert record["throughput_jobs_per_s"] > 0
        assert len(record["jobs"]) == 32

    def test_stats_without_sidecar_recomputes(self, stored_suite, capsys):
        """Pre-stats stores (no sidecar) still get scheduler numbers."""
        import shutil

        store, _ = stored_suite
        shutil.rmtree(RunStore(store).stats_dir)
        assert main(["engine", "stats", "latest", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "workers ?" in out  # worker count unrecoverable
        assert "throughput" in out

    def test_stats_unknown_run_exits_cleanly(self, stored_suite):
        store, _ = stored_suite
        with pytest.raises(SystemExit, match="no run"):
            main(["engine", "stats", "zzz", "--store", str(store)])


class TestEngineCheckCommand:
    def test_identical_rerun_passes(self, stored_suite, capsys):
        """Acceptance: engine check exits 0 on an identical rerun."""
        store, _ = stored_suite
        assert main(
            ["engine", "check", "@-1", "--baseline", "@0",
             "--tolerance", "5", "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "OK: no regression" in out
        assert "128 metric(s)" in out  # 32 benchmarks x 4 metrics

    def test_regression_beyond_tolerance_fails(self, stored_suite, capsys,
                                               tmp_path):
        """Acceptance: a stored metric drifting past --tolerance gates."""
        store, _ = stored_suite
        sidecar = RunStore(store).read_stats("@0")
        # Doctor the baseline: pretend fft used to be twice as fast.
        sidecar["benchmarks"]["fft"]["busy_time_s"] /= 2
        sidecar["benchmarks"]["fft"]["busy_floprate_mflops"] *= 2
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(json.dumps(sidecar))
        assert main(
            ["engine", "check", "latest", "--baseline", str(baseline),
             "--tolerance", "5", "--store", str(store)]
        ) == 1
        out = capsys.readouterr().out
        assert out.count("REGRESSED") == 2  # time up, rate down
        assert "FAIL: 2 regression(s)" in out

    def test_huge_tolerance_forgives(self, stored_suite, capsys, tmp_path):
        store, _ = stored_suite
        sidecar = RunStore(store).read_stats("@0")
        sidecar["benchmarks"]["fft"]["busy_time_s"] *= 0.9
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(json.dumps(sidecar))
        assert main(
            ["engine", "check", "latest", "--baseline", str(baseline),
             "--tolerance", "50", "--store", str(store)]
        ) == 0

    def test_stats_json_is_a_baseline_file(self, stored_suite, capsys,
                                           tmp_path):
        """``engine stats --json`` output gates a rerun at tolerance 0."""
        store, _ = stored_suite
        capsys.readouterr()
        assert main(
            ["engine", "stats", "@-1", "--json", "--store", str(store)]
        ) == 0
        baseline = tmp_path / "stats.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(
            ["engine", "check", "@-1", "--baseline", str(baseline),
             "--tolerance", "0", "--store", str(store)]
        ) == 0
        assert "128 metric(s)" in capsys.readouterr().out


class TestCachePruneFlag:
    def test_suite_cache_prune_drops_stale_buckets(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        stale = cache / ("0" * 16)
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("{}")
        assert main(
            ["suite", "--cache-dir", str(cache), "--cache-prune"]
        ) == 0
        assert not stale.exists()
        # The real run's entries survived the prune.
        buckets = [p for p in cache.iterdir() if p.is_dir()]
        assert len(buckets) == 1
        assert len(list(buckets[0].glob("*.json"))) == 32
