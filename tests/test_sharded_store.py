"""Sharded run-store tests: layout, dispatch, concurrent-writer safety.

The store contract the serve layer relies on: records land in
``shards/<hash-prefix>.jsonl`` with no interleaved lines under
concurrent multi-process appends, stats sidecars are crash-safe
(tmp + atomic rename), and the whole read API (``resolve``,
``run_records``, ``history``, ``diff``) works identically on sharded
and flat stores via ``open_store``.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    RunStore,
    ShardedRunStore,
    new_run_id,
    open_store,
    write_json_atomic,
)
from repro.engine.jobs import RunRequest
from repro.engine.shards import DEFAULT_SHARD_WIDTH, FALLBACK_SHARD


def record(run_id: str, benchmark: str = "fft", index: int = 0) -> dict:
    request = RunRequest(benchmark=benchmark, params={"n": 64 + index})
    return {
        "schema": 2,
        "run_id": run_id,
        "ts": time.time(),
        "index": index,
        "benchmark": benchmark,
        "request": request.to_dict(),
        "request_hash": request.content_hash(),
        "status": "ok",
        "attempts": 1,
        "wall_time_s": 0.01,
        "queue_wait_s": 0.0,
        "compute_time_s": 0.01,
        "error": None,
        "report": {"elapsed_time_s": 1.0},
    }


class TestLayout:
    def test_records_shard_by_hash_prefix(self, tmp_path):
        store = ShardedRunStore(tmp_path / "runs")
        run_id = new_run_id()
        records = [record(run_id, index=i) for i in range(8)]
        store.extend(records)
        for rec in records:
            shard = store.shard_path(rec["request_hash"][:DEFAULT_SHARD_WIDTH])
            assert shard.is_file()
            lines = [
                json.loads(line) for line in shard.read_text().splitlines()
            ]
            assert any(
                r["request_hash"] == rec["request_hash"] for r in lines
            )
        assert store.records() == sorted(
            records, key=lambda r: r["ts"]
        )

    def test_marker_written_and_width_enforced(self, tmp_path):
        root = tmp_path / "runs"
        ShardedRunStore(root, width=3).append(record(new_run_id()))
        marker = json.loads((root / "store.json").read_text())
        assert marker["kind"] == "sharded-run-store"
        assert marker["width"] == 3
        # reopening discovers the stored width
        assert ShardedRunStore(root).width == 3
        with pytest.raises(ValueError, match="shard width"):
            ShardedRunStore(root, width=2)

    def test_bad_width_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedRunStore(tmp_path / "runs", width=0)
        with pytest.raises(ValueError):
            ShardedRunStore(tmp_path / "runs", width=9)

    def test_hashless_record_goes_to_fallback_shard(self, tmp_path):
        store = ShardedRunStore(tmp_path / "runs")
        rec = record(new_run_id())
        del rec["request_hash"]
        store.append(rec)
        assert store.shard_path(FALLBACK_SHARD).is_file()
        assert len(store.records()) == 1

    def test_records_for_hash_reads_one_shard(self, tmp_path):
        store = ShardedRunStore(tmp_path / "runs")
        run_id = new_run_id()
        records = [record(run_id, index=i) for i in range(6)]
        store.extend(records)
        target = records[3]
        found = store.records_for_hash(target["request_hash"])
        assert [r["request_hash"] for r in found] == [target["request_hash"]]


class TestOpenStoreDispatch:
    def test_directory_opens_sharded(self, tmp_path):
        root = tmp_path / "runs"
        ShardedRunStore(root).append(record(new_run_id()))
        store = open_store(root)
        assert isinstance(store, ShardedRunStore)
        assert len(store.records()) == 1

    def test_file_path_keeps_flat_store(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).append(record(new_run_id()))
        assert isinstance(open_store(path), RunStore)

    def test_fresh_path_defaults_to_flat(self, tmp_path):
        # the historical CLI contract: --store newfile.jsonl stays flat
        assert isinstance(open_store(tmp_path / "new.jsonl"), RunStore)

    def test_read_api_identical_across_flavors(self, tmp_path):
        run_id = new_run_id()
        records = [record(run_id, benchmark=b, index=i)
                   for i, b in enumerate(["fft", "lu", "jacobi"])]
        flat = RunStore(tmp_path / "flat.jsonl")
        flat.extend(records)
        sharded = ShardedRunStore(tmp_path / "sharded")
        sharded.extend(records)
        assert flat.run_ids() == sharded.run_ids() == [run_id]
        assert flat.resolve("latest") == sharded.resolve("latest")
        assert (
            [r["benchmark"] for r in flat.run_records(run_id)]
            == [r["benchmark"] for r in sharded.run_records(run_id)]
            == ["fft", "lu", "jacobi"]
        )
        assert (
            [r["benchmark"] for r in sharded.history(benchmark="lu")]
            == ["lu"]
        )

    def test_stats_sidecar_roundtrip_on_sharded(self, tmp_path):
        store = ShardedRunStore(tmp_path / "runs")
        run_id = new_run_id()
        store.append(record(run_id))
        store.write_stats(run_id, {"jobs": 1, "workers": 2})
        assert store.read_stats(run_id) == {"jobs": 1, "workers": 2}
        assert (tmp_path / "runs" / "stats" / f"{run_id}.json").is_file()


class TestAtomicWrites:
    def test_write_json_atomic_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "deep" / "stats.json"
        write_json_atomic(target, {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_crashed_writer_tmp_not_clobbered(self, tmp_path):
        # tmp names are per-pid: another process's crashed leftover is
        # never reused (and never mistaken for the real document)
        target = tmp_path / "stats.json"
        leftover = target.with_suffix(f".tmp.{os.getpid() + 1}")
        leftover.write_text("{torn")
        write_json_atomic(target, {"v": 1})
        assert json.loads(target.read_text()) == {"v": 1}
        assert leftover.read_text() == "{torn"

    def test_overwrite_is_atomic_replace(self, tmp_path):
        target = tmp_path / "stats.json"
        write_json_atomic(target, {"v": 1})
        write_json_atomic(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}

    def test_concurrent_threads_of_one_process(self, tmp_path):
        # threads share a pid, so a per-pid tmp name alone lets one
        # thread's rename steal another's tmp file (FileNotFoundError)
        import sys
        import threading

        target = tmp_path / "stats.json"
        barrier = threading.Barrier(8)
        errors = []

        def write_many(writer: int) -> None:
            barrier.wait(timeout=30)
            for i in range(50):
                try:
                    write_json_atomic(target, {"writer": writer, "i": i})
                except OSError as exc:
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write_many, args=(w,))
                for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert json.loads(target.read_text())["i"] == 49
        assert list(tmp_path.glob("*.tmp.*")) == []


def _append_worker(root: str, writer: int, count: int) -> None:
    store = ShardedRunStore(root)
    run_id = f"{writer:013x}-deadbeef"
    for i in range(count):
        store.append(record(run_id, benchmark="fft", index=i))


class TestTornTail:
    """A writer killed mid-append leaves a line with no newline; readers
    skip it and the next append cuts it, so the file stays readable."""

    @staticmethod
    def _tear(path, rec) -> None:
        line = json.dumps(rec, sort_keys=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])

    @pytest.mark.parametrize("flavor", ["flat", "sharded"])
    def test_torn_tail_is_skipped_then_cut(self, tmp_path, flavor):
        run_id = new_run_id()
        first, second = record(run_id, index=0), record(run_id, index=0)
        if flavor == "flat":
            store = RunStore(tmp_path / "runs.jsonl")
            path = store.path
        else:
            store = ShardedRunStore(tmp_path / "runs")
            path = store.shard_path(first["request_hash"][:DEFAULT_SHARD_WIDTH])
        store.append(first)
        self._tear(path, second)
        assert store.records() == [first]
        store.append(second)
        assert store.records() == [first, second]
        assert path.read_text().endswith("\n")
        if flavor == "sharded":
            hashed = store.records_for_hash(first["request_hash"])
            assert hashed == [first, second]

    def test_torn_first_line_is_cut_whole(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        rec = record(new_run_id())
        self._tear(store.path, rec)
        assert store.records() == []
        store.append(rec)
        assert store.records() == [rec]

    def test_corrupt_terminated_line_still_raises(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(record(new_run_id()))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("{not json}\n")
        with pytest.raises(json.JSONDecodeError):
            store.records()


class TestConcurrentWriters:
    def test_multiprocess_appends_never_tear_lines(self, tmp_path):
        """4 writer processes x 20 appends into one store: every line
        must parse, every record must be present exactly once."""
        root = tmp_path / "runs"
        writers, per_writer = 4, 20
        procs = [
            multiprocessing.Process(
                target=_append_worker, args=(str(root), w, per_writer)
            )
            for w in range(writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        store = ShardedRunStore(root)
        records = store.records()
        assert len(records) == writers * per_writer
        by_writer = {}
        for rec in records:
            by_writer.setdefault(rec["run_id"], []).append(rec["index"])
        assert len(by_writer) == writers
        for indices in by_writer.values():
            assert sorted(indices) == list(range(per_writer))

    def test_threaded_appends_through_one_store_object(self, tmp_path):
        import threading

        store = ShardedRunStore(tmp_path / "runs")
        run_id = new_run_id()

        def append_many(offset: int) -> None:
            for i in range(25):
                store.append(record(run_id, index=offset + i))

        threads = [
            threading.Thread(target=append_many, args=(o,))
            for o in (0, 25, 50, 75)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(store.records()) == 100


class TestEngineOnShardedStore:
    def test_engine_run_persists_to_existing_directory(self, tmp_path):
        """Pointing EngineConfig.store at a directory (pre-created, as
        `repro serve --store` does) shards the engine's own records."""
        root = tmp_path / "runs"
        root.mkdir()
        engine = Engine(EngineConfig(store=root))
        results = engine.run(
            [RunRequest(benchmark="n-body", params={"n": 16})]
        )
        assert results[0].status == "ok"
        store = open_store(root)
        assert isinstance(store, ShardedRunStore)
        records = store.records()
        assert len(records) == 1
        assert records[0]["report"] is not None
        # sidecar landed in the sharded layout's stats directory
        assert store.read_stats(records[0]["run_id"]) is not None
