"""Shared plumbing of the repository benchmark.

Locates the checkout's sources, samples process CPU and peak RSS from
``/proc`` (Linux), verifies returned reports against the committed
digests, and assembles the one-line JSON result every workload prints.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "benchmarks" / "campaigns" / "pr7_thousand.json"
BASELINE_PATH = ROOT / "benchmarks" / "baselines" / "seed_suite_bench.json"
DIGESTS_PATH = BENCH_DIR / "data" / "digests.json"
#: scratch space for caches, stores and span exports (git-ignored)
WORK_ROOT = ROOT / ".bench_work"

#: Pool size of every workload: the measuring host has two cores.
WORKERS = 2

#: end-to-end metric -> unit, in print order
END_TO_END = {
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "verified_ratio": "ratio",
}

#: per-layer metric -> unit (the traced run reports every one; a layer
#: that a workload never crosses reads 0)
PER_LAYER = {
    "apps.self_ms": "ms",
    "linalg.self_ms": "ms",
    "comm.self_ms": "ms",
    "layout.self_ms": "ms",
    "array.self_ms": "ms",
    "numpy.self_ms": "ms",
    "machine.self_ms": "ms",
    "metrics.self_ms": "ms",
    "suite.self_ms": "ms",
    "engine.self_ms": "ms",
    "serve.self_ms": "ms",
    "obs.self_ms": "ms",
    "machine.charge_calls": "count",
    "metrics.recorder_calls": "count",
    "machine.network_cost_hit_ratio": "ratio",
    "metrics.report_build_ms": "ms",
    "metrics.to_dict_ms": "ms",
    "metrics.from_dict_ms": "ms",
    "engine.pool.busy_ratio": "ratio",
    "engine.pool.submissions": "count",
    "engine.pool.jobs_per_submission": "count",
    "engine.pool.overhead_ms": "ms",
    "engine.pool.worker_rss_mb": "MiB",
    "engine.driver_cpu_ms": "ms",
    "engine.cache.put_ms": "ms",
    "engine.cache.entry_bytes": "bytes",
    "engine.cache.get_hit_ms": "ms",
    "engine.cache.get_miss_ms": "ms",
    "engine.cache.hit_ratio": "ratio",
    "engine.store.append_ms": "ms",
    "engine.store.bytes_per_job": "bytes",
    "engine.stats.finalize_ms": "ms",
    "engine.retries": "count",
    "engine.timeouts": "count",
    "engine.pool.restarts": "count",
    "serve.overhead_ms": "ms",
    "serve.hit_latency_ms": "ms",
    "serve.dispatch_wait_ms": "ms",
    "serve.executed": "count",
    "serve.served_cached": "count",
    "serve.coalesced": "count",
    "serve.dedupe_ratio": "ratio",
    "serve.rejected": "count",
    "serve.response_bytes": "bytes",
    "serve.server_cpu_ms": "ms",
    "obs.span_bytes": "bytes",
    "campaign.compile_ms": "ms",
    "setup.import_s": "s",
    "setup.pool_warm_s": "s",
    "setup.server_ready_s": "s",
    "span.suite.self_ms": "ms",
    "span.metrics.self_ms": "ms",
    "span.engine.self_ms": "ms",
    "span.serve.self_ms": "ms",
    "trace.spans_per_job": "count",
    "trace.overhead_ms": "ms",
}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs (exit code 2)."""


def require_checkout() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail.

    The benchmark measures the code of the checkout it sits in; an
    importable ``repro`` from anywhere else would measure the wrong
    program, so it is refused.
    """
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", SPEC_PATH, BASELINE_PATH)
        if not path.is_file()
    ]
    if missing:
        raise SetupError("checkout is missing " + ", ".join(missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn_json(argv: List[str], timeout: float = 120.0, env: Optional[Dict[str, str]] = None):
    """Run a child interpreter; (spawn time, its last stdout JSON line)."""
    import subprocess

    spawned = clock()
    proc = subprocess.run(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        env=env or child_env(),
        cwd=str(ROOT),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
        )
    return spawned, json.loads(lines[-1])


def fresh_dir(name: str) -> Path:
    """An empty directory under the benchmark's scratch root."""
    path = WORK_ROOT / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


# -- /proc sampling (Linux) ----------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process."""
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(tok) for tok in text.split())
    return sorted(set(children))


def pool_worker_pids(pool) -> List[int]:
    """PIDs of a :class:`WorkerPool`'s live worker processes."""
    executor = getattr(pool, "_executor", None)
    processes = getattr(executor, "_processes", None) or {}
    return sorted(processes)


# -- correctness ---------------------------------------------------------
def report_digest(record: Dict) -> str:
    from repro.metrics.serialize import canonical_report_json

    return hashlib.sha256(
        canonical_report_json(record).encode("utf-8")
    ).hexdigest()


class Verifier:
    """Checks returned reports against the committed digests.

    Every request any workload submits has a digest of its canonical
    report JSON, generated once by ``gen_digests.py`` from a serial
    in-process run.  Suite requests are additionally held to the seed
    baseline's §1.5 metrics at tolerance 0 (exact equality).
    """

    def __init__(self, digests_path: Path = DIGESTS_PATH) -> None:
        self.path = Path(digests_path)
        with open(digests_path, encoding="utf-8") as fh:
            self.digests: Dict[str, str] = json.load(fh)["digests"]
        from repro.engine.stats import CHECK_METRICS, load_baseline_file

        self.baseline = load_baseline_file(BASELINE_PATH)
        self.baseline_metrics = [metric for metric, _, _ in CHECK_METRICS]
        self.baseline_checked = 0
        self.baseline_exact = 0

    def check(self, request_hash: str, record: Optional[Dict]) -> bool:
        """Whether ``record`` is exactly the committed report."""
        if record is None:
            return False
        expected = self.digests.get(request_hash)
        return expected is not None and report_digest(record) == expected

    def check_baseline(self, benchmark: str, record: Dict) -> bool:
        """Exact match of one suite report against the seed baseline."""
        base = self.baseline.get(benchmark, {})
        ok = True
        for metric in self.baseline_metrics:
            self.baseline_checked += 1
            if metric in base and record.get(metric) == base[metric]:
                self.baseline_exact += 1
            else:
                ok = False
        return ok


# -- result --------------------------------------------------------------
class Outcome:
    """Tally of one workload run: operations, failures, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.verified = 0
        #: failed, timed out, refused (429) or errored operations
        self.failed = 0
        #: operations whose report disagreed with its digest
        self.wrong = 0
        self.metrics: Dict[str, float] = {}
        #: diagnostic facts printed before the result line
        self.detail: Dict[str, object] = {}

    def count(self, ok: Optional[bool]) -> None:
        """One attempted operation: True verified, False wrong, None failed."""
        self.attempted += 1
        if ok:
            self.verified += 1
        elif ok is None:
            self.failed += 1
        else:
            self.wrong += 1

    def merge_counts(self, other: Dict[str, int]) -> None:
        for key in ("attempted", "verified", "failed", "wrong"):
            setattr(self, key, getattr(self, key) + int(other[key]))

    def counts(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "verified": self.verified,
            "failed": self.failed,
            "wrong": self.wrong,
        }

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.detail.get("baseline_ok", True)

    def result(self, names: Dict[str, str]) -> Dict:
        missing = sorted(set(names) - set(self.metrics))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        return {
            "correct": bool(self.correct),
            "attempted": self.attempted,
            "failed": self.failed + self.wrong,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in names.items()
            },
        }


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic()
