"""Sharded run store: hash-prefix shards with concurrent-writer safety.

A flat :class:`~repro.engine.store.RunStore` is one JSONL file — fine
for a CLI run, hostile to a long-lived multi-writer server: every
append contends on a single file and a reader must scan everything.  A
:class:`ShardedRunStore` spreads records over
``<root>/shards/<prefix>.jsonl`` files keyed by the leading hex digits
of each record's request content hash, so concurrent writers mostly
touch *different* files, and hash-targeted lookups only read one shard.

Safety model (what ``repro serve`` relies on):

* **record appends** — one serialized line per record, written under a
  per-shard ``flock`` (plus an in-process mutex for threads sharing
  the store object), so lines from concurrent writers never interleave;
  a torn tail left by a killed writer is cut before the next append,
  and readers skip an unterminated last line;
* **stats sidecars** — ``<root>/stats/<run_id>.json`` written via
  per-writer tmp file + atomic rename
  (:func:`~repro.engine.store.write_json_atomic`);
* **layout marker** — ``<root>/store.json`` records the schema and
  shard width, so a store is always reopened with the width it was
  created with.

The read API (``records``/``resolve``/``run_records``/``history``/
``read_stats``) is inherited from
:class:`~repro.engine.store.StoreReader`, so ``engine runs``/``stats``/
``check``/``diff`` work on a sharded store exactly as on a flat one —
``open_store`` picks the flavor by path.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.engine.store import StoreReader, append_lines, read_records, write_json_atomic

#: Sharded-store layout version (the marker file's ``schema``).
SHARD_SCHEMA_VERSION = 1

#: Default shard-key width in hex digits (2 → up to 256 shards).
DEFAULT_SHARD_WIDTH = 2

#: Shard key used for records carrying no request hash.
FALLBACK_SHARD = "misc"


class ShardedRunStore(StoreReader):
    """Run records sharded by request-hash prefix under one directory."""

    MARKER = "store.json"

    def __init__(
        self,
        root: Union[str, Path],
        *,
        width: Optional[int] = None,
    ) -> None:
        self.path = Path(root)
        self.root = self.path
        marker = self._read_marker()
        if marker is not None:
            stored_width = int(marker.get("width", DEFAULT_SHARD_WIDTH))
            if width is not None and width != stored_width:
                raise ValueError(
                    f"store {self.root} was created with shard width "
                    f"{stored_width}, not {width}"
                )
            self.width = stored_width
        else:
            self.width = width if width is not None else DEFAULT_SHARD_WIDTH
            if not (1 <= self.width <= 8):
                raise ValueError(f"shard width must be in 1..8, got {self.width}")
        self._locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    # -- layout ---------------------------------------------------------
    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def stats_dir(self) -> Path:
        """Directory of per-run stats sidecars (atomic writes)."""
        return self.root / "stats"

    def _read_marker(self) -> Optional[Dict]:
        try:
            with (self.path / self.MARKER).open(encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def _write_marker(self) -> None:
        marker = self.root / self.MARKER
        if not marker.exists():
            write_json_atomic(
                marker,
                {
                    "kind": "sharded-run-store",
                    "schema": SHARD_SCHEMA_VERSION,
                    "width": self.width,
                },
            )

    def shard_key(self, record: Dict) -> str:
        """The shard a record belongs to (hash prefix, lowercased)."""
        request_hash = record.get("request_hash") or ""
        if not request_hash:
            return FALLBACK_SHARD
        return str(request_hash)[: self.width].lower()

    def shard_path(self, key: str) -> Path:
        return self.shards_dir / f"{key}.jsonl"

    def shard_keys(self) -> List[str]:
        """Keys of every shard currently on disk, sorted."""
        if not self.shards_dir.is_dir():
            return []
        return sorted(p.stem for p in self.shards_dir.glob("*.jsonl"))

    def _shard_mutex(self, key: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    # -- writing --------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Append one record to its shard, safely vs concurrent writers.

        The line is serialized first and written with a single
        ``write`` while holding both the in-process shard mutex
        (threads sharing this store) and a ``flock`` on the shard file
        (other processes), so concurrent appends can never interleave
        bytes within a line.
        """
        self.extend([record])

    def extend(self, records: Iterable[Dict]) -> None:
        """Append many records, grouped per shard under one lock each."""
        by_shard: Dict[str, List[str]] = {}
        for record in records:
            line = json.dumps(record, sort_keys=True) + "\n"
            by_shard.setdefault(self.shard_key(record), []).append(line)
        if not by_shard:
            return
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self._write_marker()
        for key, lines in sorted(by_shard.items()):
            path = self.shard_path(key)
            with self._shard_mutex(key):
                append_lines(path, "".join(lines))

    # -- reading --------------------------------------------------------
    def records(self) -> List[Dict]:
        """All records across shards, oldest first.

        Shard files interleave runs, so global order is rebuilt from
        the per-record append timestamp (``ts``); ties keep shard-file
        order, which preserves each writer's own append sequence.
        """
        out: List[Dict] = []
        for key in self.shard_keys():
            out.extend(read_records(self.shard_path(key)))
        out.sort(key=lambda r: r.get("ts") or 0.0)
        return out

    def records_for_hash(self, request_hash: str) -> List[Dict]:
        """Records of one request hash — reads only its shard."""
        key = str(request_hash)[: self.width].lower()
        path = self.shard_path(key)
        if not path.exists():
            return []
        out = [
            r for r in read_records(path) if r.get("request_hash") == request_hash
        ]
        out.sort(key=lambda r: r.get("ts") or 0.0)
        return out
