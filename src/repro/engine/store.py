"""Append-only JSONL run store.

Every job a run executes — succeeded, failed, timed out or served from
cache — appends one record to the store: the request (and its content
hash), the run id grouping one engine invocation, the final status,
wall time, attempts, error text and the full serialized
:class:`~repro.metrics.report.PerfReport` (via
:mod:`repro.metrics.serialize`).  The store is the durable history the
``engine history`` / ``engine diff`` CLI commands read, and what makes
two runs comparable across machines, sizes and code tiers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

try:  # POSIX inter-process file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Store record schema version, bumped on incompatible changes.
SCHEMA_VERSION = 1


def new_run_id() -> str:
    """A unique id for one engine invocation (time-ordered prefix)."""
    return f"{int(time.time() * 1000):013x}-{os.urandom(4).hex()}"


def write_json_atomic(path: Path, record: Dict) -> Path:
    """Serialize ``record`` to ``path`` via tmp file + atomic rename.

    Concurrent writers (two engines or servers sharing a store, or
    threads of one process) each write their own
    ``*.tmp.<pid>.<thread>`` and rename into place, so readers never
    see a torn or interleaved document and no writer renames another's
    half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_text(
        json.dumps(record, sort_keys=True, indent=2), encoding="utf-8"
    )
    os.replace(tmp, path)
    return path


def read_records(path: Path) -> List[Dict]:
    """The records of one JSONL store file, in append order.

    A writer killed mid-append leaves its last line without a newline,
    and a reader racing a live append can see one too: such a line is
    not a record yet and is skipped.  A corrupt line that ends in a
    newline still raises.
    """
    with path.open(encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return [json.loads(line) for line in lines[:-1] if line.strip()]


def append_lines(path: Path, text: str) -> None:
    """Append whole JSONL lines to ``path`` under an exclusive ``flock``.

    The lines land in one write while the lock is held, so lines from
    concurrent writers never interleave.  Before writing, a torn tail —
    a last line without its newline, left by a writer killed
    mid-append — is cut back to the last newline; appending after it
    would glue the new record onto the fragment and leave that line
    unreadable for good.
    """
    with path.open("a+b") as fh:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            _cut_torn_tail(fh)
            fh.write(text.encode("utf-8"))
            fh.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _cut_torn_tail(fh) -> None:
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        return
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return
    pos = size
    while pos > 0:
        start = max(0, pos - 4096)
        fh.seek(start)
        found = fh.read(pos - start).rfind(b"\n")
        if found >= 0:
            fh.truncate(start + found + 1)
            return
        pos = start
    fh.truncate(0)


def open_store(path: Union[str, Path]):
    """Open the right store flavor for ``path``.

    An existing directory (or one carrying the sharded-store marker)
    opens as a :class:`~repro.engine.shards.ShardedRunStore`; anything
    else keeps the historical single-file :class:`RunStore` contract.
    The engine and every ``engine ...`` CLI command go through here, so
    a sharded store created by ``repro serve`` is inspectable with the
    same commands as a flat one.
    """
    from repro.engine.shards import ShardedRunStore

    p = Path(path)
    if p.is_dir():
        return ShardedRunStore(p)
    return RunStore(p)


class StoreReader:
    """Read-side store API shared by flat and sharded stores.

    Concrete stores provide :meth:`records` (all records, oldest
    first) and a ``stats_dir`` property; everything else — run
    grouping, reference resolution, plan-order reconstruction, history
    filtering, sidecar reads — is store-layout independent.
    """

    path: Path

    def records(self) -> List[Dict]:  # pragma: no cover - abstract
        raise NotImplementedError

    def run_ids(self) -> List[str]:
        """Distinct run ids in first-seen order."""
        seen: List[str] = []
        for record in self.records():
            run_id = record.get("run_id", "")
            if run_id and run_id not in seen:
                seen.append(run_id)
        return seen

    def resolve(self, ref: str) -> str:
        """Resolve a run reference to a full stored run id.

        Accepted forms: a full run id, a unique run-id prefix,
        ``latest`` (the most recent run), or ``@N`` — the Nth run in
        store order, with Python-style negative indices (``@0`` is the
        first run, ``@-1`` the latest).
        """
        run_ids = self.run_ids()
        if ref == "latest" or ref == "@-1":
            if not run_ids:
                raise KeyError(f"no runs stored in {self.path}")
            return run_ids[-1]
        if ref.startswith("@"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise KeyError(f"bad run index {ref!r}; expected @N") from None
            try:
                return run_ids[index]
            except IndexError:
                raise KeyError(
                    f"run index {ref} out of range; store holds "
                    f"{len(run_ids)} run(s)"
                ) from None
        matches = [r for r in run_ids if r.startswith(ref)]
        if not matches:
            raise KeyError(f"no run with id (prefix) {ref!r} in {self.path}")
        if len(matches) > 1:
            raise KeyError(
                f"run id prefix {ref!r} is ambiguous: {', '.join(matches)}"
            )
        return matches[0]

    def run_records(self, run_id: str) -> List[Dict]:
        """Records of one run, in plan order (see :meth:`resolve`).

        Records are appended as jobs *finish*, which under a process
        pool is completion order; the stored ``index`` field restores
        plan order so sweeps and diffs line up deterministically.
        """
        resolved = self.resolve(run_id)
        records = [r for r in self.records() if r.get("run_id") == resolved]
        return [
            r
            for _, r in sorted(
                enumerate(records),
                key=lambda pair: (pair[1].get("index", pair[0]), pair[0]),
            )
        ]

    # -- per-run stats sidecars -----------------------------------------
    @property
    def stats_dir(self) -> Path:
        """Directory of per-run :class:`RunStats` sidecar files."""
        return self.path.with_name(self.path.name + ".stats")

    def write_stats(self, run_id: str, record: Dict) -> Path:
        """Serialize one run's stats record next to the store.

        Crash-safe under concurrent writers: the record lands via
        per-writer tmp file + atomic rename (:func:`write_json_atomic`),
        so two engines sharing a store can never interleave sidecar
        bytes, and a killed writer leaves at worst a stale ``*.tmp.*``
        file — never a torn sidecar.
        """
        return write_json_atomic(self.stats_dir / f"{run_id}.json", record)

    def read_stats(self, run_id: str) -> Optional[Dict]:
        """The stats sidecar of one run, or None if never written."""
        path = self.stats_dir / f"{self.resolve(run_id)}.json"
        try:
            with path.open(encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def history(
        self,
        benchmark: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict]:
        """Most-recent-last record list, optionally filtered/truncated."""
        records = self.records()
        if benchmark is not None:
            records = [r for r in records if r.get("benchmark") == benchmark]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records


class RunStore(StoreReader):
    """One append-only JSONL file of run records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- writing --------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Append one record (a single JSON line, flushed)."""
        self.extend([record])

    def extend(self, records: Iterable[Dict]) -> None:
        """Append many records in one write."""
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        if not text:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_lines(self.path, text)

    # -- reading --------------------------------------------------------
    def records(self) -> List[Dict]:
        """All records in append order (empty if the file is missing)."""
        if not self.path.exists():
            return []
        return read_records(self.path)


def make_record(run_id: str, result) -> Dict:
    """Build the store record for one :class:`RunResult`."""
    request = result.request
    return {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "ts": time.time(),
        "index": result.index,
        "benchmark": request.benchmark,
        "request": request.to_dict(),
        "request_hash": request.content_hash(),
        "status": result.status,
        "attempts": result.attempts,
        "wall_time_s": result.wall_time_s,
        "queue_wait_s": result.queue_wait_s,
        "compute_time_s": result.compute_time_s,
        "error": result.error or None,
        "report": result.report_record,
    }


def keyed_by_benchmark(records: List[Dict]) -> Dict[str, Dict]:
    """Key one run's records by benchmark name.

    When a run holds several jobs of the same benchmark (a sweep), the
    duplicates are disambiguated by order of appearance as
    ``name#1``, ``name#2``, … — deterministic because
    :meth:`RunStore.run_records` restores plan order.
    """
    out: Dict[str, Dict] = {}
    counts: Dict[str, int] = {}
    for record in records:
        name = record.get("benchmark", "?")
        n = counts.get(name, 0)
        counts[name] = n + 1
        out[f"{name}#{n}" if n else name] = record
    return out


#: Metrics compared by ``diff_runs``, as (record key, label) pairs.
DIFF_METRICS = (
    ("busy_time_s", "busy (s)"),
    ("elapsed_time_s", "elapsed (s)"),
    ("flop_count", "FLOPs"),
    ("busy_floprate_mflops", "MFLOP/s"),
    ("memory_bytes", "memory (B)"),
    ("network_bytes", "net (B)"),
)


def diff_runs(store: RunStore, run_a: str, run_b: str) -> str:
    """Compare two stored runs benchmark-by-benchmark.

    Jobs are matched on benchmark name (the request hashes may differ —
    comparing configurations is the point).  Returns a plain-text table
    of metric ratios plus lists of jobs present in only one run.
    """
    from repro.suite.tables import format_table

    records_a = keyed_by_benchmark(store.run_records(run_a))
    records_b = keyed_by_benchmark(store.run_records(run_b))
    shared = sorted(set(records_a) & set(records_b))
    headers = ["Benchmark", "Status A", "Status B"] + [
        f"{label} B/A" for _, label in DIFF_METRICS
    ]
    rows = []
    identical = 0
    for name in shared:
        rec_a, rec_b = records_a[name], records_b[name]
        rep_a, rep_b = rec_a.get("report") or {}, rec_b.get("report") or {}
        cells = [name, rec_a.get("status", "?"), rec_b.get("status", "?")]
        same = bool(rep_a) and rep_a == rep_b
        identical += same
        for key, _ in DIFF_METRICS:
            va, vb = rep_a.get(key), rep_b.get(key)
            if va is None or vb is None:
                cells.append("-")
            elif va == vb:
                cells.append("=")
            elif not va:
                cells.append("inf")
            else:
                cells.append(f"{vb / va:.4g}x")
        rows.append(cells)
    lines = [format_table(headers, rows)] if rows else []
    lines.append(
        f"\n{len(shared)} shared jobs, {identical} with identical reports"
    )
    only_a = sorted(set(records_a) - set(records_b))
    only_b = sorted(set(records_b) - set(records_a))
    if only_a:
        lines.append(f"only in {run_a}: {', '.join(only_a)}")
    if only_b:
        lines.append(f"only in {run_b}: {', '.join(only_b)}")
    return "\n".join(lines)
