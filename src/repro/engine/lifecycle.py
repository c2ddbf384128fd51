"""The job lifecycle: one pure retry/timeout/restart state machine.

The engine's serial and worker-pool loops and the run server's
scheduler are drivers of a :class:`Lifecycle`: they feed it events and
carry out the actions it returns.  It decides, for every job:

* **dispatch** -- at most ``workers`` trips in flight, each solo or a
  batch of small first attempts, with a deadline of ``timeout`` per
  member;
* **retry** -- a failed or timed-out attempt runs again after an
  exponential backoff, until ``retries`` run out;
* **requeue** -- an attempt that lost its worker without fault of its
  own (a batch mate's timeout, a pool restart, a refused submission)
  goes back to the head of the queue at the same attempt, solo;
* **restart** -- an overdue trip that cannot be cancelled, or a broken
  executor, restarts the pool, once per executor;
* **finish** -- every job added ends exactly once, with its status,
  attempts, last attempt's wall seconds, and compute and queue-wait
  seconds summed over attempts.

It takes the time as an argument and does no I/O, so its fault paths are
tested on synthetic times; :meth:`Lifecycle.next_wakeup` bounds each
driver's single wait.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple


@dataclass(eq=False)
class Submission:
    """One worker trip: a solo attempt, or a batch of first attempts."""

    #: ``(key, attempt)`` per member, in dispatch order
    members: List[Tuple[Hashable, int]]
    started: float
    #: the trip is overdue from this time (``None``: no timeout)
    deadline: Optional[float]
    #: restarts ordered before it was dispatched: its executor
    generation: int
    #: the driver's handle on the trip (a future or a task)
    handle: Any = None

    @property
    def batched(self) -> bool:
        return len(self.members) > 1


@dataclass
class Retry:
    """Attempt ``attempt`` ended ``status``; the next is released at ``at``."""

    key: Hashable
    attempt: int
    at: float
    status: str
    error: str


@dataclass
class Restart:
    """Restart the pool; the ``abandoned`` trips went back to the queue."""

    abandoned: List[Submission]


@dataclass
class Finish:
    """The job is done: its final status and accounting."""

    key: Hashable
    status: str
    error: str
    attempts: int
    wall_s: float
    compute_s: float
    queue_wait_s: float
    #: the worker's payload of a successful attempt, passed through
    result: Any = None


@dataclass
class _Job:
    attempt: int
    ready: float  # dispatchable from this time on
    solo: bool = False
    wall: float = 0.0
    compute: float = 0.0
    queue_wait: float = 0.0


@dataclass(eq=False)
class Lifecycle:
    """Retry, timeout, batching and restart policy over keyed jobs.

    ``estimate(key)`` is a first attempt's expected compute seconds
    (``None``: unknown; no estimator: every trip solo).  Queue wait is a
    successful attempt's wall minus the worker's compute figure, or for
    ``inline`` drivers (the serial engine) the wait for dispatch.
    """

    workers: int
    retries: int = 0
    backoff: float = 0.1
    timeout: Optional[float] = None
    estimate: Optional[Callable[[Hashable], Optional[float]]] = None
    batch_max: int = 32
    batch_target_s: float = 0.25
    inline: bool = False

    def __post_init__(self) -> None:
        #: pool restarts ordered so far
        self.generation = 0
        self._jobs: Dict[Hashable, _Job] = {}
        self._queue: deque = deque()
        self._inflight: List[Submission] = []
        #: release times of jobs waiting out a backoff
        self._held: Dict[Hashable, float] = {}
        #: the latest time an event carried
        self._now = float("-inf")

    @property
    def unfinished(self) -> int:
        """Jobs added and not yet finished."""
        return len(self._jobs)

    @property
    def inflight(self) -> List[Submission]:
        """Trips handed to the pool and not yet back, oldest first."""
        return list(self._inflight)

    def next_wakeup(self) -> Optional[float]:
        """The earliest trip deadline or future release time, if any."""
        times = [s.deadline for s in self._inflight if s.deadline is not None]
        times += [t for t in self._held.values() if t > self._now]
        return min(times, default=None)

    # -- events ---------------------------------------------------------
    def add(self, key: Hashable, now: float) -> None:
        """A new job, runnable from ``now``."""
        if key in self._jobs:
            raise ValueError(f"job {key!r} is already open")
        self._jobs[key] = _Job(attempt=1, ready=now)
        self._queue.append(key)

    def dispatch(self, now: float) -> List[Submission]:
        """Hand released jobs to free workers, solo or batched.

        A first attempt estimated at no more than half the batch target
        joins the open batch, which closes at ``batch_max`` members or
        once its estimates sum to ``batch_target_s``; a batch of one
        ships solo.  The open batch holds a worker, so a solo job that
        would need that worker waits at the head of the queue.
        """
        self._now = now
        trips: List[Submission] = []
        free = self.workers - len(self._inflight)
        batch: List[Hashable] = []
        total = 0.0
        held = []
        while self._queue and free > 0:
            job = self._jobs[self._queue[0]]
            if job.ready > now:
                held.append(self._queue.popleft())
                continue
            estimate = None
            if self.estimate is not None and not job.solo and job.attempt == 1:
                estimate = self.estimate(self._queue[0])
            if estimate is not None and estimate <= self.batch_target_s / 2:
                batch.append(self._queue.popleft())
                total += estimate
                if len(batch) >= self.batch_max or total >= self.batch_target_s:
                    trips.append(self._send(batch, now))
                    free -= 1
                    batch, total = [], 0.0
            elif batch and free == 1:
                break
            else:
                trips.append(self._send([self._queue.popleft()], now))
                free -= 1
        if batch:
            trips.append(self._send(batch, now))
        self._queue.extend(held)
        return trips

    def finished(self, sub, key, now, compute=None, result=None) -> Finish:
        """``key``'s attempt on ``sub`` succeeded; ``result`` is its payload.

        ``compute`` is the worker's figure; ``None`` charges the attempt
        its share of the trip's wall.
        """
        job, wall, spent = self._returned(sub, key, now, compute)
        job.queue_wait += max(0.0, wall - spent)
        return self._finish(key, "ok", "", result)

    def failed(self, sub, key, now, error: str, compute=None) -> List[Any]:
        """``key``'s attempt on ``sub`` raised: retry, or finish ``failed``."""
        self._returned(sub, key, now, compute)
        return [self._fail(key, now, "failed", error)]

    def broken(self, sub: Submission, now: float, error: str) -> List[Any]:
        """The trip's executor broke under it: its attempts failed.

        The first trip to report a broken executor restarts the pool;
        other trips of that executor fail without another restart.
        """
        actions = self._restart_once(sub)
        for key, _ in sub.members:
            actions += self.failed(sub, key, now, error)
        return actions

    def refused(self, sub: Submission, now: float) -> List[Any]:
        """A broken executor refused the trip: nothing of it ran."""
        return self._restart_once(sub) + self.withdrawn(sub, now)

    def withdrawn(self, sub: Submission, now: float) -> List[Any]:
        """A pool restart withdrew (cancelled) the trip before it ran."""
        self._inflight.remove(sub)
        self._requeue(sub, now)
        return []

    def expire(self, now: float, cancel: Callable[[Submission], bool]) -> List[Any]:
        """Time out every overdue trip; ``cancel(trip)`` tries to withdraw it.

        A solo trip's attempt times out.  An overdue batch is requeued
        member by member at the same attempt, so the stuck one earns
        its own timeout.  If any overdue trip could not be cancelled, a
        worker is stuck: the pool restarts and the other trips in flight
        are requeued at the same attempt.
        """
        self._now = now
        actions: List[Any] = []
        stuck = False
        for sub in list(self._inflight):
            if sub.deadline is None or now < sub.deadline:
                continue
            self._inflight.remove(sub)
            stuck |= not cancel(sub)
            if sub.batched:
                self._requeue(sub, now)
                continue
            ((key, _),) = sub.members
            self._returned(sub, key, now, None)
            actions.append(self._fail(key, now, "timeout", f"timed out after {self.timeout:g}s"))
        if stuck:
            abandoned, self._inflight = self._inflight, []
            self.generation += 1
            actions.append(Restart(abandoned))
            for sub in reversed(abandoned):
                self._requeue(sub, now)
        return actions

    def shutdown(self, now: float) -> List[Finish]:
        """Finish every open job ``failed``: the server is going away."""
        self._now = now
        self._inflight, self._queue, self._held = [], deque(), {}
        error = "cancelled at server shutdown"
        return [self._finish(key, "failed", error) for key in list(self._jobs)]

    # -- internals ------------------------------------------------------
    def _send(self, keys: List[Hashable], now: float) -> Submission:
        members = []
        for key in keys:
            job = self._jobs[key]
            if self.inline:
                job.queue_wait += max(0.0, now - job.ready)
            self._held.pop(key, None)
            members.append((key, job.attempt))
        deadline = None
        if self.timeout is not None:
            # a batch runs its members one after another on one worker
            deadline = now + self.timeout * len(members)
        sub = Submission(members, now, deadline, self.generation)
        self._inflight.append(sub)
        return sub

    def _returned(self, sub, key, now, compute) -> Tuple[_Job, float, float]:
        self._now = now
        if sub in self._inflight:
            self._inflight.remove(sub)
        job = self._jobs[key]
        job.wall = now - sub.started
        spent = job.wall / len(sub.members) if compute is None else compute
        job.compute += spent
        return job, job.wall, spent

    def _fail(self, key: Hashable, now: float, status: str, error: str):
        job = self._jobs[key]
        if job.attempt > self.retries:
            return self._finish(key, status, error)
        at = now + self.backoff * 2 ** (job.attempt - 1)
        retry = Retry(key, job.attempt, at, status, error)
        job.attempt += 1
        job.ready = self._held[key] = at
        job.solo = True
        self._queue.append(key)
        return retry

    def _requeue(self, sub: Submission, now: float) -> None:
        self._now = now
        for key, _ in reversed(sub.members):
            job = self._jobs[key]
            job.ready, job.solo = now, True
            self._queue.appendleft(key)

    def _restart_once(self, sub: Submission) -> List[Any]:
        if sub.generation != self.generation:
            return []
        self.generation += 1
        return [Restart([])]

    def _finish(self, key: Hashable, status: str, error: str, result=None) -> Finish:
        job = self._jobs.pop(key)
        return Finish(
            key, status, error, job.attempt, job.wall, job.compute, job.queue_wait, result
        )
