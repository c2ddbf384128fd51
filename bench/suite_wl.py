"""Workload ``suite``: the 32 paper benchmarks, in process, pass after pass.

Each job makes the same calls a pool worker makes —
``execute_request`` then ``report_to_dict`` — on the benchmark's table
parameters.  The seed fixes the job order of every pass.  Whole passes
run until the measured window reaches ``--seconds``.  It never touches
the pool, cache, store or HTTP, so an engine or serve change should
read "no change" here.
"""

from __future__ import annotations

import contextlib
import random
import resource
import time
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    WORK_ROOT,
    Outcome,
    Verifier,
    median,
    per,
    percentile,
    clock,
    spawn_json,
)


def _passes(seed: int, requests: List) -> "iter":
    rng = random.Random(seed)
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


def _setup_samples(count: int) -> List[Dict[str, float]]:
    samples = []
    for _ in range(count):
        spawned, line = spawn_json([str(BENCH_DIR / "setup_probe.py")])
        samples.append(
            {"setup_s": line["ready_at"] - spawned, "import_s": line["import_s"]}
        )
    return samples


def _window(passes, seconds: float, job, verifier: Verifier, out: Outcome,
            latencies: List[float], max_passes: int = 0,
            checking=contextlib.nullcontext) -> Tuple[float, float, int, int]:
    """Run whole passes for ``seconds`` (or ``max_passes``).

    Returns (wall, CPU seconds, jobs, passes).  Only the jobs are timed:
    each pass's reports are verified after its timed part, inside the
    ``checking`` context (e.g. a paused profiler), so the benchmark's
    own checks stay out of the wall, the CPU and the profile.
    """
    wall = cpu = 0.0
    jobs = done_passes = 0
    while True:
        records = []
        started, cpu0 = time.perf_counter(), time.process_time()
        for request in next(passes):
            t0 = time.perf_counter()
            try:
                record = job(request)
            except Exception:  # a failed job is counted, not fatal
                record = None
            else:
                latencies.append(time.perf_counter() - t0)
            records.append((request, record))
        wall += time.perf_counter() - started
        cpu += time.process_time() - cpu0
        with checking():
            for request, record in records:
                if record is None:
                    out.count(None)
                    continue
                ok = verifier.check(request.content_hash(), record)
                if not verifier.check_baseline(request.benchmark, record):
                    ok = False
                out.count(ok)
                jobs += 1
        done_passes += 1
        if (max_passes and done_passes >= max_passes) or (
            not max_passes and wall >= seconds
        ):
            return wall, cpu, jobs, done_passes


def run(seed: int, seconds: float, trace: bool, tiny: bool, verifier: Verifier) -> Outcome:
    out = Outcome()
    setups = _setup_samples(1 if tiny else 3)
    import_started = time.perf_counter()
    from repro.engine.jobs import execute_request
    from repro.engine.plan import plan_suite
    import repro.metrics.serialize as serialize

    requests = plan_suite()
    if tiny:
        requests = requests[:8]

    def job(request):
        return serialize.report_to_dict(execute_request(request))

    passes = _passes(seed, requests)
    for request in requests:  # untimed warm-up pass
        job(request)
    setup_done = time.perf_counter()
    setup_end = clock()

    latencies: List[float] = []
    if not trace:
        window_start = clock()
        wall, cpu, jobs, n_passes = _window(passes, seconds, job, verifier, out, latencies)
        out.metrics.update(
            {
                "jobs_per_s": out.verified / wall,
                "latency_p50_ms": 1e3 * percentile(latencies, 50),
                "latency_p99_ms": 1e3 * percentile(latencies, 99),
                "cpu_ms_per_job": 1e3 * per(cpu, out.verified),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": median(s["setup_s"] for s in setups),
            }
        )
        out.detail.update(
            {
                "passes": n_passes,
                "samples": len(latencies),
                "setup_samples": [s["setup_s"] for s in setups],
                "in_process_setup_s": setup_done - import_started,
                "setup_outside_window": window_start >= setup_end,
            }
        )
    else:
        from tracing import Patcher, Profile, Tracer, durations, install_simulation
        from tracing import rollup_metrics, span_metrics

        half = max(1.0, seconds / 2.0)
        wall_u, _, jobs_u, n_passes = _window(passes, half, job, verifier, out, latencies)
        tracer = Tracer()
        patcher = Patcher(tracer)
        install_simulation(patcher)

        def traced_job(request):
            with tracer.span("bench.job", request.content_hash()):
                return job(request)

        try:
            wall_t, _, jobs_t, _ = _window(
                passes, 0, traced_job, verifier, out, [], max_passes=n_passes
            )
        finally:
            patcher.restore()
        with Profile() as profile:
            _, _, jobs_p, _ = _window(passes, 0, job, verifier, out, [], max_passes=n_passes,
                                      checking=profile.paused)
        spans = tracer.closed()
        export = tracer.export(WORK_ROOT / "spans" / f"suite-seed{seed}.jsonl")
        out.metrics.update(rollup_metrics({"driver": profile.rollup()}, jobs=jobs_p, simulated=jobs_p))
        out.metrics.update(span_metrics(spans, jobs_t))
        out.metrics.update(
            {
                "metrics.report_build_ms": 1e3 * per(sum(durations(spans, "metrics.from_recorder")), jobs_t),
                "metrics.to_dict_ms": 1e3 * per(sum(durations(spans, "metrics.report_to_dict")), jobs_t),
                "setup.import_s": median(s["import_s"] for s in setups),
                "trace.overhead_ms": 1e3 * (per(wall_t, jobs_t) - per(wall_u, jobs_u)),
            }
        )
        out.detail.update({"spans_file": str(export), "untraced_passes": n_passes})
    out.detail["baseline_exact"] = f"{verifier.baseline_exact}/{verifier.baseline_checked}"
    out.detail["baseline_ok"] = verifier.baseline_exact == verifier.baseline_checked
    return out
