"""Suite execution engine: parallel, cached, fault-tolerant runs.

The engine is the managed layer between the simulation core and every
consumer (CLI, tables, benchmark harness, sweeps):

* :mod:`repro.engine.jobs` — :class:`RunRequest`, the declarative,
  content-hashed unit of work, and ``execute_request``;
* :mod:`repro.engine.executor` — the :class:`Engine`: process-pool
  fan-out and graceful degradation to serial execution;
* :mod:`repro.engine.lifecycle` — the job state machine both engine
  paths and the run server drive: per-job timeout, bounded retry with
  backoff, batching, pool restarts;
* :mod:`repro.engine.cache` — content-addressed result cache keyed by
  (code fingerprint, request hash);
* :mod:`repro.engine.store` — append-only JSONL run store of every
  result, with run grouping and diffing;
* :mod:`repro.engine.journal` — the one writer of a finished job's
  trail (cache entry, store record, event, stats fold), for engine
  runs and the run server alike;
* :mod:`repro.engine.plan` — grid/sweep expansion into deduplicated
  request lists, and stored-run replay;
* :mod:`repro.engine.stats` — per-run scheduler statistics
  (:class:`RunStats`) and the ``engine check`` perf-regression gate.

Quickstart::

    from repro.engine import Engine, EngineConfig, plan_suite

    engine = Engine(EngineConfig(jobs=4, cache_dir=".repro/cache",
                                 store=".repro/runs.jsonl"))
    results = engine.run(plan_suite())
    reports = {r.request.benchmark: r.report for r in results if r.ok}

See ``docs/ENGINE.md`` for architecture and format details.
"""

from repro.engine.cache import ResultCache, code_fingerprint
from repro.engine.executor import Engine, EngineConfig, RunResult
from repro.engine.jobs import RunRequest, execute_request
from repro.engine.pool import InjectedFailure, WorkerPool
from repro.engine.shards import ShardedRunStore
from repro.engine.plan import (
    expand_grid,
    machine_sweep_requests,
    plan_suite,
    requests_from_run,
    sweep_from_results,
    tier_sweep_requests,
)
from repro.engine.stats import (
    CheckReport,
    JobStats,
    RunStats,
    StatsAccumulator,
    compare_benchmarks,
    stats_from_records,
    stats_from_results,
)
from repro.engine.store import (
    RunStore,
    StoreReader,
    diff_runs,
    keyed_by_benchmark,
    new_run_id,
    open_store,
    write_json_atomic,
)

__all__ = [
    "CheckReport",
    "Engine",
    "EngineConfig",
    "InjectedFailure",
    "JobStats",
    "ResultCache",
    "RunRequest",
    "RunResult",
    "RunStats",
    "RunStore",
    "ShardedRunStore",
    "StoreReader",
    "WorkerPool",
    "code_fingerprint",
    "compare_benchmarks",
    "diff_runs",
    "execute_request",
    "expand_grid",
    "keyed_by_benchmark",
    "machine_sweep_requests",
    "new_run_id",
    "open_store",
    "plan_suite",
    "write_json_atomic",
    "requests_from_run",
    "StatsAccumulator",
    "stats_from_records",
    "stats_from_results",
    "sweep_from_results",
    "tier_sweep_requests",
]
