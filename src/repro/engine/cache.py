"""Content-addressed result cache.

A cached entry is keyed by *(code fingerprint, request hash)*: the
request hash covers everything the run depends on declaratively
(benchmark, machine, nodes, tier, params, seed) and the code
fingerprint covers the implementation — a digest over every ``*.py``
source file of the :mod:`repro` package.  Editing any source file
invalidates the whole cache; unchanged (request, code) pairs are served
from disk without re-simulating.

Entries live under ``<root>/<fingerprint[:16]>/<hash>.json`` and store
the full result record (status, report, wall time), written atomically
via a temporary file so a killed run never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Union

from repro.engine.jobs import RunRequest
from repro.engine.store import write_json_atomic


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 digest over the repro package's Python sources.

    Files are hashed in sorted relative-path order, path and content
    both, so renames and edits alike change the fingerprint.  Cached
    per process: the sources cannot change under a running engine.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """Disk cache of finished run records, content-addressed."""

    def __init__(
        self,
        root: Union[str, Path],
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        #: what the most recent :meth:`prune` removed — telemetry
        #: call sites read this to count evicted files and bytes
        self.last_prune: Dict[str, int] = {"files": 0, "bytes": 0}

    def _entry_path(self, request: RunRequest) -> Path:
        return self.root / self.fingerprint[:16] / f"{request.content_hash()}.json"

    def get(self, request: RunRequest) -> Optional[Dict]:
        """The stored result record, or None on a miss/torn entry.

        A hit bumps the entry's mtime (``os.utime``) so LRU eviction
        (:meth:`prune` with a byte budget) sees true access recency —
        filesystem atime is unreliable under ``relatime`` mounts.
        """
        return self.get_by_hash(request.content_hash())

    def get_by_hash(self, request_hash: str) -> Optional[Dict]:
        """The stored record for a bare request hash, or None.

        The by-hash variant of :meth:`get`, for callers that no longer
        hold the :class:`RunRequest` — the serve layer answers ``GET
        /result/<hash>`` for jobs evicted from memory this way (the
        stored record carries the request dictionary).  Hashes come off
        the wire, so anything that is not a plain hex digest is a miss,
        never a path.
        """
        if not request_hash or any(
            c not in "0123456789abcdef" for c in request_hash
        ):
            return None
        path = self.root / self.fingerprint[:16] / f"{request_hash}.json"
        try:
            with path.open(encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return record

    def put(self, request: RunRequest, record: Dict) -> Path:
        """Store a result record atomically; returns the entry path."""
        return write_json_atomic(self._entry_path(request), record)

    def put_report(self, request: RunRequest, report: Dict, wall_time_s: float) -> Path:
        """Store one successful job's report as a result record."""
        return self.put(
            request,
            {
                "request": request.to_dict(),
                "request_hash": request.content_hash(),
                "status": "ok",
                "wall_time_s": wall_time_s,
                "report": report,
            },
        )

    def __contains__(self, request: RunRequest) -> bool:
        return self._entry_path(request).exists()

    @property
    def _bucket(self) -> Path:
        """The entry directory of the current code fingerprint."""
        return self.root / self.fingerprint[:16]

    def __len__(self) -> int:
        """Number of entries for the current code fingerprint."""
        if not self._bucket.is_dir():
            return 0
        return sum(1 for p in self._bucket.glob("*.json"))

    def clear(self) -> int:
        """Delete entries for the current fingerprint; returns count.

        Also sweeps up ``*.tmp.*`` leftovers of crashed :meth:`put`
        calls (not counted — they were never entries).
        """
        bucket = self._bucket
        removed = 0
        if bucket.is_dir():
            for path in bucket.glob("*.json"):
                path.unlink()
                removed += 1
            for path in bucket.glob("*.tmp.*"):
                path.unlink()
        return removed

    def size_bytes(self) -> int:
        """Total bytes of every entry across every fingerprint bucket."""
        if not self.root.is_dir():
            return 0
        return sum(
            p.stat().st_size for p in self.root.rglob("*.json") if p.is_file()
        )

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Drop stale buckets, tmp leftovers, and (optionally) LRU-evict.

        A code edit moves the cache to a fresh bucket and orphans the
        old one forever, so without pruning the cache directory grows
        unbounded across code revisions.  ``prune`` deletes every
        bucket other than the current fingerprint's, plus any crashed-
        ``put`` temporary files inside the current bucket, and returns
        the number of files removed.

        ``max_bytes`` additionally bounds the surviving cache: while
        the current bucket still exceeds the budget, its oldest-access
        entries (mtime order — :meth:`get` touches entries on hit) are
        evicted first.  This is what keeps a long-lived server's cache
        from growing without bound: stale buckets go wholesale, then
        the live bucket is LRU-trimmed to size.  ``max_bytes=0`` empties
        the bucket.
        """
        import shutil

        removed = 0
        removed_bytes = 0
        if self.root.is_dir():
            current = self._bucket.name
            for child in self.root.iterdir():
                if child.is_dir() and child.name != current:
                    for p in child.rglob("*"):
                        if p.is_file():
                            removed += 1
                            try:
                                removed_bytes += p.stat().st_size
                            except OSError:  # pragma: no cover - raced
                                pass
                    shutil.rmtree(child)
        if self._bucket.is_dir():
            for path in self._bucket.glob("*.tmp.*"):
                try:
                    removed_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - entry raced away
                    pass
                path.unlink()
                removed += 1
        if max_bytes is not None and self._bucket.is_dir():
            entries = []
            for path in self._bucket.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - entry raced away
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            total = sum(size for _, size, _ in entries)
            entries.sort()  # oldest access first
            for _, size, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - entry raced away
                    continue
                total -= size
                removed += 1
                removed_bytes += size
        self.last_prune = {"files": removed, "bytes": removed_bytes}
        return removed
