"""One cold pass of the ``campaign`` workload, in a fresh interpreter.

Imports the stack, warms a resident 2-worker ``WorkerPool``, then runs
the campaign spec through ``repro.campaign.run_campaign`` with a fresh
result cache and a fresh sharded store — what ``repro campaign run``
does.  Prints one JSON line: set-up split, timed wall, driver and
worker CPU, peak RSS, per-job verification counts and in-worker times.

``--mode spans`` wraps the engine calls in spans; ``--mode profile``
runs the driver under cProfile.  Both then replay the same requests in
this process, the way a worker runs them (with simulation spans, or
under cProfile): pool workers cannot be traced from outside, and the
replay gives the split of in-worker time by simulated-computation
layer.  Spans and profiles never share a pass, so neither inflates the
other.

    python3 bench/campaign_pass.py --spec S.json --work DIR --digests D \
        [--mode plain|spans|profile]
"""

import argparse
import json
import time

started = time.monotonic()

from common import (  # noqa: E402
    WORKERS,
    Outcome,
    Verifier,
    clock,
    pool_worker_pids,
    proc_cpu_s,
    proc_peak_rss_mb,
    require_checkout,
)

require_checkout()

import os  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.campaign.runner import run_campaign  # noqa: E402
from repro.campaign.spec import CampaignSpec, load_spec  # noqa: E402
from repro.engine.pool import WorkerPool  # noqa: E402

imported = time.monotonic()


def _dir_bytes(path: Path, pattern: str):
    files = [p for p in path.rglob(pattern) if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--digests", required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    args = parser.parse_args()

    pool = WorkerPool(WORKERS)
    warm_started = time.monotonic()
    pool.warmup()
    ready = clock()
    pool_warm = time.monotonic() - warm_started
    verifier = Verifier(Path(args.digests))
    spec = load_spec(args.spec)
    work = Path(args.work)

    tracer = patcher = profile = None
    if args.mode == "spans":
        from tracing import Patcher, Tracer, install_engine, install_simulation, replay

        tracer = Tracer()
        patcher = Patcher(tracer)
        install_engine(patcher)
        patcher.function(CampaignSpec, "compile", "campaign.compile")
    elif args.mode == "profile":
        from tracing import Profile, replay

        profile = Profile()

    workers = pool_worker_pids(pool)
    worker_cpu0 = {pid: proc_cpu_s(pid) for pid in workers}
    cpu0 = time.process_time()
    window_start = clock()
    t0 = time.perf_counter()
    if profile is not None:
        with profile:
            result = run_campaign(spec, root=work, jobs=WORKERS, pool=pool)
    else:
        result = run_campaign(spec, root=work, jobs=WORKERS, pool=pool)
    wall = time.perf_counter() - t0
    driver_cpu = time.process_time() - cpu0
    workers_after = pool_worker_pids(pool)
    worker_cpu = sum(proc_cpu_s(pid) - worker_cpu0.get(pid, 0.0) for pid in workers_after)
    worker_rss = [proc_peak_rss_mb(pid) for pid in workers_after]
    driver_rss = proc_peak_rss_mb(os.getpid())

    out = Outcome()
    latencies = []
    for res in result.results:
        if not res.ok:
            out.count(None)
            continue
        out.count(verifier.check(res.request.content_hash(), res.report_record))
        latencies.append(res.compute_time_s)
    stats = result.stats
    cache_bytes, cache_entries = _dir_bytes(result.cache_dir, "*.json")
    store_bytes, _ = _dir_bytes(result.store_path / "shards", "*.jsonl")
    record = {
        **out.counts(),
        "ready_at": ready,
        "window_start": window_start,
        "import_s": imported - started,
        "pool_warm_s": pool_warm,
        "wall_s": wall,
        "driver_cpu_s": driver_cpu,
        "worker_cpu_s": worker_cpu,
        "driver_rss_mb": driver_rss,
        "worker_rss_mb": worker_rss,
        "workers": len(workers_after),
        "latencies_s": latencies,
        "n_jobs": len(result.results),
        "compute_total_s": stats.compute_total_s,
        "phases": stats.phases,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "cache_hits": stats.cache_hits,
        "pool_restarts": pool.generation - 1,
        "cache_entry_bytes": cache_bytes / max(1, cache_entries),
        "store_bytes": store_bytes,
    }
    pool.shutdown(wait=True)
    if patcher is not None:
        patcher.restore()
        install_simulation(patcher)
        try:
            record["replay_s"] = replay(result.requests)
        finally:
            patcher.restore()
        span_file = work / "spans.jsonl"
        tracer.export(span_file)
        record["spans_file"] = str(span_file)
    if profile is not None:
        record["driver_rollup"] = profile.rollup()
        with Profile() as replay_profile:
            record["replay_s"] = replay(result.requests)
        record["replay_rollup"] = replay_profile.rollup()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
