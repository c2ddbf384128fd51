"""Workload ``serve``: two closed-loop clients against ``repro serve``.

The server runs as its own process with two workers, a sharded store
and a result cache pre-filled (untimed) with the sequence's disk-hit
requests — a restarted server.  Two client threads replay a seeded
sequence of rounds over the suite and campaign requests with
``ServeClient.submit``, which blocks like ``repro submit``, so the loop
is closed.  A round is either one request per client, drawn by
:data:`MIX`, or both clients submitting the same not-yet-run request
at once, which makes the server coalesce them in flight.  The shares
copy the executed / coalesced / cached split of the repository's CI
serve job (:data:`CI_OUTCOMES`), so most submissions execute.  Each
window replays the whole sequence (fixed work; ``--seconds`` sets the
number of windows), so a faster or slower host changes the wall, not
the work.

It is the only workload that crosses HTTP, dedupe and coalescing,
admission, solo dispatch with per-job span collection, and cache
reads.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import signal
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    WORKERS,
    Outcome,
    Verifier,
    child_env,
    child_pids,
    clock,
    fresh_dir,
    median,
    per,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    ROOT,
)

#: The mix copies the outcome split of the repository's CI serve job,
#: the only serve traffic the repository runs.  Of its 49 submissions
#: 41 execute (the 32 suite requests, 8 distinct n-body requests and
#: the first of 8 identical md requests), 7 ride on that md request in
#: flight, and 1 (a repeated ``repro submit fft``) is answered from the
#: cache.
CI_OUTCOMES = {"executed": 41, "coalesced": 7, "cached": 1}
#: share of rounds in which both clients submit one fresh request: with
#: two clients such a round is one executed and one coalesced
#: submission, so these rounds hold twice the coalesced share
PAIR_SHARE = 2 * CI_OUTCOMES["coalesced"] / sum(CI_OUTCOMES.values())
#: relative weights of a solo round's client steps: the executed
#: submissions outside pair rounds are fresh; the cached share is split
#: evenly between an exact repeat (answered from the server's job
#: table) and a disk-cache hit (a request pre-filled into the cache, as
#: a restarted server finds it), the two ways the server answers
#: without executing
MIX = {
    "fresh": CI_OUTCOMES["executed"] - CI_OUTCOMES["coalesced"],
    "repeat": CI_OUTCOMES["cached"] / 2,
    "disk": CI_OUTCOMES["cached"] / 2,
}
#: a repeat re-submits a request at least this many rounds old
REPEAT_LAG = 4
#: the seed shuffles the stratified order within blocks of this size
BLOCK = 16
#: requests a run replays per second of ``--seconds``: each epoch (a
#: fresh server) replays a sequence drawing every request once, which
#: takes about ``len(requests) / REQUESTS_PER_SECOND`` on a two-core host
REQUESTS_PER_SECOND = 105
#: server starts sampled for ``setup_s`` besides the measured ones
SETUP_PROBES = 3
#: a window that runs this long is cut short (stays under the run limit)
SAFETY_S = 120.0


def stratified(seed: int, requests: List) -> List:
    """Round-robin over benchmarks, shuffled by seed within small blocks.

    Job costs are heavy-tailed; interleaving benchmarks spreads the
    costly requests evenly over the sequence whatever the seed, so
    seeds vary the order and not where the work lies.
    """
    by_benchmark: Dict[str, deque] = {}
    for request in requests:
        by_benchmark.setdefault(request.benchmark, deque()).append(request)
    order: List = []
    while by_benchmark:
        for name in sorted(by_benchmark):
            order.append(by_benchmark[name].popleft())
            if not by_benchmark[name]:
                del by_benchmark[name]
    rng = random.Random(seed)
    for start in range(0, len(order), BLOCK):
        block = order[start:start + BLOCK]
        rng.shuffle(block)
        order[start:start + BLOCK] = block
    return order


def build_rounds(seed: int, requests: List) -> Tuple[List, List]:
    """(prefill requests, rounds) of one seed's sequence.

    Fresh, disk-hit and paired steps each take the next request of the
    stratified order, so the sequence draws every request once (a
    repeat re-submits an earlier one); a disk-hit request is pre-filled
    into the cache.  A round is ``("solo", req_a, req_b)`` or
    ``("pair", req)``.
    """
    supply = deque(stratified(seed, requests))
    rng = random.Random(seed)
    prefill: List = []
    submitted: List = []
    rounds: List = []
    kinds, weights = zip(*MIX.items())
    while supply:
        if rng.random() < PAIR_SHARE:
            request = supply.popleft()
            rounds.append(("pair", request))
            submitted.append(request)
            continue
        pair = []
        for kind in rng.choices(kinds, weights, k=2):
            old = len(submitted) - 2 * REPEAT_LAG
            if kind == "repeat" and old > 0:
                pair.append(submitted[rng.randrange(old)])
            elif supply:
                request = supply.popleft()
                if kind == "disk":
                    prefill.append(request)
                pair.append(request)
        if len(pair) < 2:
            break
        rounds.append(("solo", *pair))
        submitted.extend(pair)
    return prefill, rounds


class Server:
    """One server process, from spawn to ``/healthz`` to shutdown."""

    def __init__(self, store: Path, cache: Path, launcher_args: Optional[List[str]] = None) -> None:
        if launcher_args is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--jobs", str(WORKERS), "--store", str(store), "--cache-dir", str(cache)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), "--port", "0",
                    "--store", str(store), "--cache-dir", str(cache), *launcher_args]
        self.log = store.with_suffix(".log")
        self.workers: List[int] = []
        spawned = clock()
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                         text=True, env=child_env(), cwd=str(ROOT))
        try:
            line = self._readline(deadline=time.monotonic() + 90)
            host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
            from repro.serve import ServeClient

            self.client = ServeClient(host, int(port), timeout=120)
            while True:
                try:
                    self.client.health()
                    break
                except OSError:
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_at = clock()
        self.ready_s = self.ready_at - spawned
        self.pids()

    def _readline(self, deadline: float) -> str:
        while time.monotonic() < deadline and self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line:
                    return line
        raise RuntimeError(f"server did not start: {self.log.read_text()[-800:]}")

    def pids(self) -> List[int]:
        self.workers = child_pids(self.proc.pid)
        return [self.proc.pid] + self.workers

    def stop(self) -> None:
        """Shut down, then make sure the server and its workers are gone."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except Exception:  # already gone, or never came up
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.communicate()
        deadline = time.monotonic() + 10
        for pid in self.workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether a process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def _drive(server: Server, rounds: List, hashes: Dict, verifier: Verifier, out: Outcome) -> Dict:
    """Two closed-loop clients replay every round; samples and the wall.

    Responses are verified after the window, and the clients' garbage
    collector is paused during it: both are the benchmark's own work,
    and in the window they would hold the client threads' shared
    interpreter lock and delay the other client's reads.
    """
    from repro.serve import ServeClient, ServeError

    barrier = threading.Barrier(2)
    lock = threading.Lock()
    answers: List[Tuple] = []
    reached = [0, 0]
    host, port = server.client.host, server.client.port
    gc.collect()
    gc.disable()
    window_start = clock()
    started = time.perf_counter()
    deadline = started + SAFETY_S

    def client(slot: int) -> None:
        conn = ServeClient(host, port, client_id=f"bench-{slot}", timeout=120)
        for index in range(len(rounds)):
            if time.perf_counter() >= deadline:
                barrier.abort()
                return
            round_ = rounds[index]
            if round_[0] == "pair":
                try:
                    barrier.wait(timeout=60)
                except threading.BrokenBarrierError:
                    return
                request = round_[1]
            else:
                request = round_[1 + slot]
            reached[slot] = index + 1
            t0 = time.perf_counter()
            try:
                payload = conn.submit(request)
            except (ServeError, OSError):
                payload = None
            with lock:
                answers.append((time.perf_counter() - t0, payload, request))
        barrier.abort()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    samples: List[Tuple] = []
    for latency, payload, request in answers:
        job = (payload or {}).get("job", {})
        if job.get("status") not in ("ok", "cached"):
            out.count(None)
            continue
        out.count(verifier.check(hashes[request], payload.get("report")))
        samples.append((latency, job.get("source"), job.get("wall_time_s", 0.0), payload, request))
    return {"wall": wall, "samples": samples,
            "rounds": min(reached), "complete": min(reached) == len(rounds),
            "setup_outside_window": window_start >= server.ready_at}


def _phase(rounds, hashes, work: Path, cache_seed: Path, name: str,
           verifier: Verifier, out: Outcome, launcher_args=None) -> Dict:
    """One server start and one measured drive against it."""
    store, cache = work / f"{name}-store", work / f"{name}-cache"
    shutil.copytree(cache_seed, cache)
    server = Server(store, cache, launcher_args)
    try:
        pids = server.pids()
        cpu0 = {pid: proc_cpu_s(pid) for pid in pids}
        drive = _drive(server, rounds, hashes, verifier, out)
        pids = server.pids()
        drive["server_cpu_s"] = proc_cpu_s(pids[0]) - cpu0.get(pids[0], 0.0)
        drive["cpu_s"] = sum(proc_cpu_s(pid) - cpu0.get(pid, 0.0) for pid in pids)
        drive["rss_mb"] = [proc_peak_rss_mb(pid) for pid in pids]
        drive["stats"] = server.client.stats()
        drive["exposition"] = server.client.metrics()
    finally:
        server.stop()
    drive["ready_s"] = server.ready_s
    drive["store"], drive["cache"] = store, cache
    return drive


def run(seed: int, seconds: float, trace: bool, tiny: bool, verifier: Verifier) -> Outcome:
    from gen_digests import universe

    from repro.engine.executor import Engine, EngineConfig

    out = Outcome()
    requests = universe()
    if tiny:
        requests = requests[:48]
    hashes = {request: request.content_hash() for request in requests}
    # fixed work sized from --seconds: the sequence, replayed against
    # that many fresh servers (epochs); the traced run replays it once
    # per phase
    wanted = REQUESTS_PER_SECOND * seconds / len(requests)
    epochs = 1 if (tiny or trace) else max(1, round(wanted))
    prefill, rounds = build_rounds(seed, requests)
    work = fresh_dir("serve")
    cache_seed = work / "prefill-cache"
    Engine(EngineConfig(jobs=WORKERS, cache_dir=cache_seed)).run(prefill)

    if not trace:
        # set-up samples: one probe start plus every measured start
        readies = []
        for probe in range(0 if tiny else SETUP_PROBES):
            server = Server(work / f"probe{probe}-store", work / f"probe{probe}-cache")
            readies.append(server.ready_s)
            server.stop()
        drives = [
            _phase(rounds, hashes, work, cache_seed, f"epoch{e}", verifier, out)
            for e in range(epochs)
        ]
        readies += [d["ready_s"] for d in drives]
        latencies = [s[0] for d in drives for s in d["samples"]]
        out.metrics.update(
            {
                "jobs_per_s": out.verified / sum(d["wall"] for d in drives),
                "latency_p50_ms": 1e3 * percentile(latencies, 50),
                "latency_p99_ms": 1e3 * percentile(latencies, 99),
                "cpu_ms_per_job": 1e3 * per(sum(d["cpu_s"] for d in drives), out.verified),
                "peak_rss_mb": median(sum(d["rss_mb"]) for d in drives),
                "setup_s": median(readies),
            }
        )
        out.detail.update(
            {
                "epochs": epochs,
                "epoch_p50_ms": [1e3 * percentile([x[0] for x in d["samples"]], 50) for d in drives],
                "rounds": len(rounds),
                "complete": all(d["complete"] for d in drives),
                "walls_s": [d["wall"] for d in drives],
                "samples": len(latencies),
                "setup_samples": readies,
                "counters": [d["stats"]["counters"] for d in drives],
                "processes": [len(d["rss_mb"]) for d in drives],
                "setup_outside_window": all(d["setup_outside_window"] for d in drives),
            }
        )
        return out
    return _traced(rounds, hashes, work, cache_seed, verifier, out)


def _traced(rounds, hashes, work, cache_seed, verifier, out) -> Outcome:
    from tracing import Patcher, Profile, Tracer, adopt, durations, load_spans
    from tracing import install_simulation, replay, rollup_metrics, span_metrics

    from repro.engine.store import open_store
    from repro.obs.expo import histogram_quantile, histogram_stats, parse_exposition
    from repro.serve import ServeClient

    base = _phase(rounds, hashes, work, cache_seed, "plain", verifier, out)

    tracer = Tracer()
    patcher = Patcher(tracer)
    patcher.function(ServeClient, "submit", "serve.client.submit", 1)
    spans_file = work / "server-spans.jsonl"
    try:
        traced = _phase(rounds, hashes, work, cache_seed, "spans", verifier, out,
                        ["--spans", str(spans_file), "--setup-out", str(work / "setup-spans.json")])
    finally:
        patcher.restore()
    profile_file = work / "server-profile.json"
    profiled = _phase(rounds, hashes, work, cache_seed, "profile", verifier, out,
                      ["--profile", str(profile_file), "--setup-out", str(work / "setup-profile.json")])

    # worker-side split: replay what the server executed, as a worker
    # with span collection on runs it
    executed = [s[4] for s in profiled["samples"] if s[1] == "executed"]
    replay_tracer = Tracer()
    replay_patcher = Patcher(replay_tracer)
    install_simulation(replay_patcher)
    try:
        replay(executed, collect_spans=True)
    finally:
        replay_patcher.restore()
    with Profile() as replay_profile:
        replay(executed, collect_spans=True)

    # per-layer figures are per submission: the server's profile and the
    # replay of the submissions it executed share that denominator
    with open(profile_file, encoding="utf-8") as fh:
        server_rollup = json.load(fh)
    out.metrics.update(
        rollup_metrics(
            {"driver": server_rollup, "replay": replay_profile.rollup()},
            jobs=len(profiled["samples"]),
            simulated=len(executed),
        )
    )
    # the server's spans become children of the client submit that
    # carried their request, so the submit's self time excludes them
    spans = adopt(load_spans(spans_file) + tracer.closed() + replay_tracer.closed(),
                  "serve.client.submit")
    submissions_b = len(traced["samples"])
    out.metrics.update(span_metrics(spans, submissions_b))

    counters = base["stats"]["counters"]
    submitted = max(1, counters["submitted"])
    sidecar = open_store(base["store"]).read_stats(base["stats"]["run_id"]) or {}
    dispatch = histogram_stats(parse_exposition(base["exposition"]),
                               "repro_serve_dispatch_latency_seconds")
    gets = [s for s in spans if s.name == "engine.cache.get"]
    pool = [s for s in spans if s.name == "engine.pool.submit"]
    base_executed = [s for s in base["samples"] if s[1] == "executed"]
    cache_bytes = [p.stat().st_size for p in Path(base["cache"]).rglob("*.json")]
    store_bytes = sum(p.stat().st_size for p in Path(base["store"]).rglob("shards/*.jsonl"))
    replayed = len(executed)
    setups = []
    for name in ("spans", "profile"):
        with open(work / f"setup-{name}.json", encoding="utf-8") as fh:
            setups.append(json.load(fh))
    out.metrics.update(
        {
            "metrics.report_build_ms": 1e3 * per(sum(durations(spans, "metrics.from_recorder")), replayed),
            "metrics.to_dict_ms": 1e3 * per(sum(durations(spans, "metrics.report_to_dict")), replayed),
            "engine.pool.busy_ratio": sidecar.get("compute_total_s", 0.0) / (WORKERS * base["wall"]),
            "engine.pool.submissions": float(counters["executed"]),
            "engine.pool.jobs_per_submission": 1.0 if counters["executed"] else 0.0,
            "engine.pool.overhead_ms": 1e3 * per(
                sum(s.duration - s.attrs.get("compute_s", 0.0) for s in pool), len(pool)
            ),
            "engine.pool.worker_rss_mb": max(base["rss_mb"][1:] or [0.0]),
            "engine.driver_cpu_ms": 1e3 * per(base["server_cpu_s"], submitted),
            "engine.cache.put_ms": 1e3 * median(durations(spans, "engine.cache.put")),
            "engine.cache.entry_bytes": per(sum(cache_bytes), len(cache_bytes)),
            "engine.cache.get_hit_ms": 1e3 * median(s.duration for s in gets if s.attrs.get("hit")),
            "engine.cache.get_miss_ms": 1e3 * median(s.duration for s in gets if not s.attrs.get("hit")),
            "engine.cache.hit_ratio": per(sum(1 for s in gets if s.attrs.get("hit")), len(gets)),
            "engine.store.append_ms": 1e3 * median(durations(spans, "engine.store.append")),
            "engine.store.bytes_per_job": per(store_bytes, submitted),
            "engine.retries": float(sidecar.get("retries", 0)),
            "engine.timeouts": float(sidecar.get("timeouts", 0)),
            "engine.pool.restarts": float(base["stats"].get("pool_generation", 1) - 1),
            "serve.overhead_ms": 1e3 * median(s[0] - s[2] for s in base_executed),
            "serve.hit_latency_ms": 1e3 * median(s[0] for s in base["samples"] if s[1] == "cache"),
            "serve.dispatch_wait_ms": 1e3 * (histogram_quantile(dispatch, 0.5) if dispatch else 0.0),
            "serve.executed": float(counters["executed"]),
            "serve.served_cached": float(counters["served_cached"]),
            "serve.coalesced": float(counters["coalesced"]),
            "serve.dedupe_ratio": counters["deduped"] / submitted,
            "serve.rejected": float(counters["rejected_queue"] + counters["rejected_rate"]),
            "serve.response_bytes": median(
                len(json.dumps(s[3], sort_keys=True).encode("utf-8")) for s in traced["samples"]
            ),
            "serve.server_cpu_ms": 1e3 * per(base["server_cpu_s"], submitted),
            "obs.span_bytes": median(
                len(json.dumps(s[3]["spans"], sort_keys=True)) for s in traced["samples"]
                if s[1] == "executed" and s[3].get("spans") is not None
            ),
            "setup.import_s": median(s["import_s"] for s in setups),
            "setup.pool_warm_s": median(s.get("pool_warm_s", 0.0) for s in setups),
            "setup.server_ready_s": median(d["ready_s"] for d in (base, traced, profiled)),
            "trace.overhead_ms": 1e3 * (
                per(traced["wall"], submissions_b) - per(base["wall"], len(base["samples"]))
            ),
        }
    )
    out.detail.update(
        {
            "spans_file": str(spans_file),
            "rounds": base["rounds"],
            "counters": counters,
            "walls_s": {"plain": base["wall"], "spans": traced["wall"], "profile": profiled["wall"]},
        }
    )
    return out

