"""Resident worker pools: warm workers that outlive a single run.

Historically each :meth:`Engine.run` invocation created (and tore down)
its own process pool, so every suite paid worker spawn plus the full
``repro`` import cost again.  A :class:`WorkerPool` inverts that: the
pool is created once, its workers pre-import the benchmark stack via
the initializer, and any number of engine invocations — or the
long-lived ``repro serve`` server — submit requests against the same
resident workers.  This is what makes the serve layer's throughput
story real: after the first job, every subsequent job starts on a warm
interpreter.

The pool degrades to an in-process thread pool when multiprocessing is
unavailable (restricted platforms, ``REPRO_ENGINE_FORCE_SERIAL=1``);
the submission API is identical either way, and thread-mode results
are byte-identical because workers execute the same
:func:`_worker_run` payload protocol.

Test hooks: ``REPRO_ENGINE_INJECT_FAIL=bench:N`` makes attempts
``<= N`` of ``bench`` raise (``N`` < 0 or missing: every attempt);
``REPRO_ENGINE_INJECT_SLEEP=bench:SECONDS`` delays the job (for
exercising timeouts); ``REPRO_ENGINE_FORCE_SERIAL=1`` disables the
process pool.  Hooks apply in workers and in the engine's serial mode
alike.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import os
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.jobs import RunRequest

#: EWMA smoothing factor for per-benchmark compute-time estimates.
#: 0.3 tracks drift (cache warmup, machine load) within a few samples
#: while damping one-off outliers.
EWMA_ALPHA = 0.3

ENV_INJECT_FAIL = "REPRO_ENGINE_INJECT_FAIL"
ENV_INJECT_SLEEP = "REPRO_ENGINE_INJECT_SLEEP"
ENV_FORCE_SERIAL = "REPRO_ENGINE_FORCE_SERIAL"


class InjectedFailure(RuntimeError):
    """Raised by the test-only failure-injection hook."""


class SubmitRefused(cf.BrokenExecutor):
    """A broken executor refused a submission: nothing of it ran."""


def _parse_injection(spec: str, benchmark: str) -> Optional[float]:
    """The numeric argument of the entry matching ``benchmark``.

    An exact benchmark match takes precedence over a ``*`` wildcard
    regardless of spec order, so ``"*:1,bench:3"`` gives ``bench`` its
    override instead of the catch-all.
    """
    wildcard: Optional[float] = None
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, arg = entry.partition(":")
        if name not in ("*", benchmark):
            continue
        try:
            value = float(arg) if arg else -1.0
        except ValueError:
            value = -1.0
        if name == benchmark:
            return value
        if wildcard is None:
            wildcard = value
    return wildcard


def _apply_test_hooks(benchmark: str, attempt: int) -> None:
    """Honor the failure/delay injection environment hooks."""
    sleep_spec = os.environ.get(ENV_INJECT_SLEEP)
    if sleep_spec:
        seconds = _parse_injection(sleep_spec, benchmark)
        if seconds is not None and seconds > 0:
            time.sleep(seconds)
    fail_spec = os.environ.get(ENV_INJECT_FAIL)
    if fail_spec:
        upto = _parse_injection(fail_spec, benchmark)
        if upto is not None and (upto < 0 or attempt <= upto):
            raise InjectedFailure(
                f"injected failure for {benchmark!r} (attempt {attempt})"
            )


def _worker_init() -> None:
    """Process-pool initializer: pre-import the benchmark stack.

    Importing ``repro`` (numpy, the registry, every app module) costs
    hundreds of milliseconds; paying it once per worker at pool startup
    instead of inside the first ``_worker_run`` keeps the first wave of
    jobs from all serializing behind cold imports and from counting
    import time against their per-job timeout.
    """
    import repro.suite.registry  # noqa: F401  (side effect: full import)


def _worker_run(payload: Dict) -> Dict:
    """Worker entry point: execute one request attempt.

    Takes and returns only JSON-safe dictionaries so the engine's
    parallel and serial paths share one serialization (and the pickle
    crossing stays trivial).  When the payload asks for spans, the
    worker forwards :func:`repro.obs.span_summary` of its finished
    session's recorder; no collector is attached.
    """
    from repro.engine.jobs import execute_request
    from repro.metrics.serialize import report_to_dict

    request = RunRequest.from_dict(payload["request"])
    _apply_test_hooks(request.benchmark, payload["attempt"])
    start = time.perf_counter()
    session = request.build_session()
    report = execute_request(request, lambda: session)
    result = {
        "report": report_to_dict(report),
        "compute_time_s": time.perf_counter() - start,
    }
    if payload.get("spans"):
        from repro.obs import span_summary

        result["spans"] = span_summary(session.recorder)
    return result


def _worker_run_batch(payload: Dict) -> Dict:
    """Worker entry point: execute several request attempts in one trip.

    Each submission through the process pool pays a fixed toll — pickle
    both ways, an IPC round trip, future bookkeeping — that dwarfs a
    sub-10 ms benchmark.  Packing many small requests into one payload
    amortizes that toll across the batch while every member still runs
    through the exact :func:`_worker_run` path (same test hooks, same
    report serialization), so per-member results are byte-identical to
    solo submissions.

    Failures are isolated: a member that raises becomes ``{"ok": False,
    "error": ...}`` and its siblings keep executing.
    """
    members = []
    for member in payload["members"]:
        try:
            result = _worker_run(member)
        except Exception as exc:
            members.append(
                {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )
        else:
            result["ok"] = True
            members.append(result)
    return {"members": members}


def _pool_supported() -> bool:
    """Whether a process pool can be used on this platform."""
    if os.environ.get(ENV_FORCE_SERIAL):
        return False
    try:
        import multiprocessing

        multiprocessing.get_context()
    except Exception:  # pragma: no cover - platform-specific
        return False
    return True


def _noop() -> bool:
    """Warmup probe: returns once the worker exists (and has imported)."""
    return True


def _enqueue(executor, fn, payload: Dict) -> cf.Future:
    """Hand one payload to ``executor``; a broken one refuses it.

    An executor breaks when one of its workers dies, and from then on
    refuses every submission.  The refusal comes back as a future that
    failed with :class:`SubmitRefused` (nothing ran), unlike the
    executor's own error on the futures that were in flight.
    """
    try:
        return executor.submit(fn, payload)
    except cf.BrokenExecutor as exc:
        future: cf.Future = cf.Future()
        future.set_exception(SubmitRefused(str(exc)))
        return future


def returned(lifecycle, sub, now: float) -> list:
    """Feed one returned trip (``sub.handle`` is done) to ``lifecycle``.

    The handle is a future or an asyncio task of :class:`WorkerPool`
    submissions; its outcome becomes the lifecycle event it stands for,
    and the lifecycle's actions come back.  A succeeded member's
    :class:`~repro.engine.lifecycle.Finish` carries the worker's payload
    (``report``, ``compute_time_s``, ``spans``) as ``result``.
    """
    handle = sub.handle
    if handle.cancelled():
        return lifecycle.withdrawn(sub, now)
    exc = handle.exception()
    if isinstance(exc, SubmitRefused):
        return lifecycle.refused(sub, now)
    error = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, cf.BrokenExecutor):
        return lifecycle.broken(sub, now, error)
    actions: list = []
    if exc is not None:
        for key, _ in sub.members:
            actions += lifecycle.failed(sub, key, now, error)
        return actions
    payload = handle.result()
    members = payload["members"] if sub.batched else [payload]
    for (key, _), member in zip(sub.members, members):
        if member.get("ok", True):
            compute = member.get("compute_time_s")
            actions.append(lifecycle.finished(sub, key, now, compute, member))
        else:
            error = member.get("error", "batch member failed")
            actions += lifecycle.failed(sub, key, now, error, compute=0.0)
    return actions


class WorkerPool:
    """A resident pool of warm benchmark workers.

    The pool outlives any single engine invocation: create it once,
    hand it to any number of :class:`~repro.engine.executor.Engine`
    runs (``Engine(config, pool=...)``) or to the ``repro serve``
    scheduler, and shut it down when the process exits.  Submissions
    return :class:`concurrent.futures.Future` objects resolving to the
    worker payload dictionary (``report``, ``compute_time_s``, and
    optionally ``spans``, the :func:`repro.obs.span_summary` of the
    worker's recorder); :meth:`submit_async` bridges the same future
    into asyncio for the serve layer.

    ``restart()`` abandons the current executor (stuck workers and all)
    and provisions a fresh one — the timeout-recovery path.  The pool
    object itself stays valid across restarts.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.process_based = _pool_supported()
        self._lock = threading.Lock()
        self._executor = None
        self._generation = 0
        self._closed = False
        #: per-benchmark EWMA of observed in-worker compute seconds;
        #: survives executor restarts (it describes the workload, not
        #: the workers) and feeds the engine's batch-sizing decisions
        self._compute_ewma: Dict[str, float] = {}

    # -- compute-time estimates -----------------------------------------
    def note_compute(self, benchmark: str, seconds: float) -> None:
        """Fold one observed in-worker compute time into the EWMA."""
        with self._lock:
            prev = self._compute_ewma.get(benchmark)
            self._compute_ewma[benchmark] = (
                seconds if prev is None else prev + EWMA_ALPHA * (seconds - prev)
            )

    def estimate(self, benchmark: str) -> Optional[float]:
        """EWMA compute-seconds estimate, or ``None`` before any sample.

        ``None`` deliberately means "ship it solo": an unobserved
        benchmark could be a multi-second heavy job, and guessing small
        would serialize it behind batch siblings.
        """
        with self._lock:
            return self._compute_ewma.get(benchmark)

    # -- lifecycle ------------------------------------------------------
    def _make_executor(self):
        if self.process_based:
            try:
                return cf.ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_worker_init
                )
            except Exception:  # pragma: no cover - restricted platforms
                self.process_based = False
        return cf.ThreadPoolExecutor(max_workers=self.workers)

    def _ensure(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if self._executor is None:
                self._executor = self._make_executor()
                self._generation += 1
            return self._executor

    @property
    def generation(self) -> int:
        """How many executors this pool has provisioned (restarts + 1)."""
        return self._generation

    def warmup(self, timeout: Optional[float] = None) -> float:
        """Force every worker to start (and import); seconds taken.

        Submitting ``workers`` no-op tasks makes the process pool spawn
        its full complement and run the pre-importing initializer, so
        the first real job finds warm interpreters.  Safe to call more
        than once; later calls are near-free.
        """
        executor = self._ensure()
        started = time.perf_counter()
        futures = [executor.submit(_noop) for _ in range(self.workers)]
        cf.wait(futures, timeout=timeout)
        return time.perf_counter() - started

    def restart(self) -> None:
        """Abandon the current executor and provision a fresh one.

        The recovery path for stuck workers: a running job cannot be
        cancelled, so the whole executor is dropped (``wait=False``)
        and subsequent submissions go to new workers.  In-flight
        futures of the abandoned executor may still complete or may be
        cancelled — callers resubmit what they still need.
        """
        with self._lock:
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = False) -> None:
        """Shut the pool down; further submissions raise."""
        with self._lock:
            old, self._executor = self._executor, None
            self._closed = True
        if old is not None:
            old.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        request: RunRequest,
        *,
        attempt: int = 1,
        spans: bool = False,
    ):
        """Submit one request attempt; a future of the worker payload."""
        return self._submit_on(
            self._ensure(), request, attempt=attempt, spans=spans
        )

    def _submit_on(
        self,
        executor,
        request: RunRequest,
        *,
        attempt: int = 1,
        spans: bool = False,
    ):
        """Submit to an already-provisioned executor (never blocks)."""
        payload = {
            "request": request.to_dict(),
            "attempt": attempt,
            "spans": spans,
        }
        future = _enqueue(executor, _worker_run, payload)
        benchmark = request.benchmark

        def _note(fut) -> None:
            try:
                if fut.cancelled() or fut.exception() is not None:
                    return
                result = fut.result()
                seconds = result.get("compute_time_s")
                if seconds is not None:
                    self.note_compute(benchmark, seconds)
            except Exception:  # pragma: no cover - callback must not raise
                pass

        future.add_done_callback(_note)
        return future

    def submit_batch(
        self,
        items: Sequence[Tuple[RunRequest, int]],
        *,
        spans: bool = False,
    ):
        """Submit ``(request, attempt)`` pairs as one worker trip.

        Resolves to ``{"members": [...]}`` with one entry per item in
        order: ``{"ok": True, "report": ..., "compute_time_s": ...}``
        (plus ``"spans"`` when requested) or ``{"ok": False, "error":
        ...}``.  Successful members feed the compute-time EWMA exactly
        as solo submissions do.
        """
        payload = {
            "members": [
                {
                    "request": request.to_dict(),
                    "attempt": attempt,
                    "spans": spans,
                }
                for request, attempt in items
            ]
        }
        future = _enqueue(self._ensure(), _worker_run_batch, payload)
        benchmarks = [request.benchmark for request, _ in items]

        def _note(fut) -> None:
            try:
                if fut.cancelled() or fut.exception() is not None:
                    return
                for name, member in zip(benchmarks, fut.result()["members"]):
                    if not member.get("ok"):
                        continue
                    if member.get("compute_time_s") is not None:
                        self.note_compute(name, member["compute_time_s"])
            except Exception:  # pragma: no cover - callback must not raise
                pass

        future.add_done_callback(_note)
        return future

    async def submit_async(
        self,
        request: RunRequest,
        *,
        attempt: int = 1,
        spans: bool = False,
    ) -> Dict:
        """Asyncio bridge over :meth:`submit` (the serve layer's API).

        Provisioning is hoisted off the event loop: the first
        submission after a :meth:`restart` would otherwise spawn a
        whole process pool synchronously on the loop thread.  If a
        concurrent restart swaps the executor between the two steps,
        this submission lands on the abandoned executor and its future
        is cancelled — the same contract callers already handle for
        in-flight jobs at restart time.
        """
        loop = asyncio.get_running_loop()
        executor = await loop.run_in_executor(None, self._ensure)
        future = self._submit_on(
            executor, request, attempt=attempt, spans=spans
        )
        return await asyncio.wrap_future(future)
