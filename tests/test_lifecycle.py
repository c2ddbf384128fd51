"""Lifecycle tests: the job state machine on synthetic times.

Every driver (the engine's serial and pool loops, the server's
scheduler) delegates retry, timeout, batching and restart decisions to
:class:`repro.engine.lifecycle.Lifecycle`, so its fault paths are
tested here without processes or sleeps: a property test feeds it
random interleavings of its events and checks its invariants, and unit
tests pin each path.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.lifecycle import Finish, Lifecycle, Restart, Retry

INF = float("inf")


class Harness:
    """Drives a lifecycle the way a driver does and checks invariants."""

    def __init__(self, lifecycle: Lifecycle) -> None:
        self.lifecycle = lifecycle
        self.now = 0.0
        self.added = []
        self.finished = Counter()
        #: the attempt each open job must be dispatched at next
        self.attempt = {}
        #: release times of retries not yet dispatched
        self.release = {}

    def add(self) -> None:
        key = len(self.added)
        self.added.append(key)
        self.attempt[key] = 1
        self.lifecycle.add(key, self.now)

    def dispatch(self) -> None:
        for trip in self.lifecycle.dispatch(self.now):
            for key, attempt in trip.members:
                # requeues keep the attempt; only a retry adds one
                assert attempt == self.attempt[key]
                assert attempt <= self.lifecycle.retries + 1
                # nothing is dispatched before its release time
                assert self.now >= self.release.pop(key, -INF)
        self.check()

    def apply(self, actions) -> None:
        for action in actions:
            if isinstance(action, Finish):
                self.finished[action.key] += 1
                self.release.pop(action.key, None)
                assert action.attempts == self.attempt.pop(action.key)
                assert action.attempts <= self.lifecycle.retries + 1
            elif isinstance(action, Retry):
                assert action.attempt == self.attempt[action.key]
                assert action.attempt <= self.lifecycle.retries
                assert action.at >= self.now
                self.attempt[action.key] += 1
                self.release[action.key] = action.at
        self.check()

    def check(self) -> None:
        lifecycle = self.lifecycle
        trips = lifecycle.inflight
        assert len(trips) <= lifecycle.workers
        due = [t.deadline for t in trips if t.deadline is not None]
        due += [t for t in self.release.values() if t > self.now]
        if due:
            wakeup = lifecycle.next_wakeup()
            assert wakeup is not None and wakeup <= min(due)

    def trip_returned(self, trip, outcome: str, compute: float) -> None:
        lifecycle, now = self.lifecycle, self.now
        if outcome == "ok":
            for key, _ in trip.members:
                self.apply([lifecycle.finished(trip, key, now, compute)])
        elif outcome == "failed":
            for key, _ in trip.members:
                self.apply(lifecycle.failed(trip, key, now, "RuntimeError: boom"))
        elif outcome == "mixed":  # a batch member fails alone
            for n, (key, _) in enumerate(trip.members):
                if n == 0:
                    self.apply(lifecycle.failed(trip, key, now, "boom", compute=0.0))
                else:
                    self.apply([lifecycle.finished(trip, key, now, compute)])
        elif outcome == "broken":
            self.apply(lifecycle.broken(trip, now, "BrokenProcessPool: dead"))
        elif outcome == "refused":
            self.apply(lifecycle.refused(trip, now))
        else:
            self.apply(lifecycle.withdrawn(trip, now))

    def drain(self) -> None:
        """Let every open job run to the end, all attempts succeeding."""
        lifecycle = self.lifecycle
        for _ in range(1000):
            if not lifecycle.unfinished:
                return
            self.dispatch()
            trips = lifecycle.inflight
            if trips:
                self.now += 0.001
                for trip in trips:
                    self.trip_returned(trip, "ok", 0.0)
            else:
                wakeup = lifecycle.next_wakeup()
                assert wakeup is not None, "open jobs but nothing to wait for"
                self.now = max(self.now, wakeup)
        raise AssertionError("lifecycle did not drain")


OUTCOMES = ("ok", "failed", "mixed", "broken", "refused", "cancelled")
EVENTS = st.one_of(
    st.tuples(st.just("add")),
    st.tuples(st.just("tick"), st.floats(0.0, 3.0)),
    st.tuples(
        st.just("return"),
        st.integers(0, 7),
        st.sampled_from(OUTCOMES),
        st.floats(0.0, 2.0),
    ),
    st.tuples(st.just("expire"), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(
    workers=st.integers(1, 3),
    retries=st.integers(0, 2),
    timeout=st.sampled_from([None, 1.0]),
    estimates=st.lists(st.sampled_from([None, 0.01, 0.1, 0.2]), min_size=12, max_size=12),
    events=st.lists(EVENTS, max_size=60),
    shutdown=st.booleans(),
)
def test_invariants_hold_under_any_interleaving(
    workers, retries, timeout, estimates, events, shutdown
):
    lifecycle = Lifecycle(
        workers,
        retries=retries,
        backoff=0.5,
        timeout=timeout,
        estimate=lambda key: estimates[key % len(estimates)],
        batch_max=3,
    )
    harness = Harness(lifecycle)
    for event in events:
        kind = event[0]
        if kind == "add":
            harness.add()
        elif kind == "tick":
            harness.now += event[1]
        elif kind == "return":
            trips = lifecycle.inflight
            if trips:
                _, index, outcome, compute = event
                harness.trip_returned(trips[index % len(trips)], outcome, compute)
        else:
            harness.apply(lifecycle.expire(harness.now, lambda trip: event[1]))
        harness.dispatch()  # a driver dispatches after every event
    if shutdown:
        harness.apply(lifecycle.shutdown(harness.now))
    else:
        harness.drain()
    # every added job finished exactly once
    assert lifecycle.unfinished == 0
    assert harness.finished == Counter(harness.added)


def _lifecycle(**kwargs) -> Lifecycle:
    lifecycle = Lifecycle(kwargs.pop("workers", 2), **kwargs)
    for key in ("a", "b", "c"):
        lifecycle.add(key, 0.0)
    return lifecycle


class TestFaultPaths:
    def test_retry_then_exhaustion(self):
        lifecycle = Lifecycle(1, retries=1, backoff=0.5)
        lifecycle.add("a", 0.0)
        (trip,) = lifecycle.dispatch(0.0)
        (retry,) = lifecycle.failed(trip, "a", 1.0, "boom")
        assert (retry.attempt, retry.at, retry.status) == (1, 1.5, "failed")
        assert lifecycle.dispatch(1.4) == []
        (trip,) = lifecycle.dispatch(1.5)
        assert trip.members == [("a", 2)]
        (finish,) = lifecycle.failed(trip, "a", 2.0, "boom")
        assert (finish.status, finish.attempts, finish.error) == ("failed", 2, "boom")

    def test_backoff_doubles_per_attempt(self):
        lifecycle = Lifecycle(1, retries=3, backoff=0.25)
        lifecycle.add("a", 0.0)
        releases = []
        now = 0.0
        for _ in range(3):
            (trip,) = lifecycle.dispatch(now)
            (retry,) = lifecycle.failed(trip, "a", now, "boom")
            releases.append(retry.at - now)
            now = retry.at
        assert releases == [0.25, 0.5, 1.0]

    def test_broken_executor_restarts_once(self):
        """Every attempt in flight on a broken executor fails; the pool
        restarts once for it; queued jobs keep their attempt."""
        lifecycle = _lifecycle(retries=1)
        first, second = lifecycle.dispatch(0.0)
        actions = lifecycle.broken(first, 1.0, "BrokenProcessPool: dead")
        assert actions[0] == Restart([])
        assert [type(a) for a in actions[1:]] == [Retry]
        actions = lifecycle.broken(second, 1.0, "BrokenProcessPool: dead")
        assert [type(a) for a in actions] == [Retry]
        (trip,) = lifecycle.dispatch(1.0)[:1]
        assert trip.members == [("c", 1)]
        assert trip.generation == 1

    def test_refused_trip_runs_again_at_the_same_attempt(self):
        lifecycle = _lifecycle()
        first, second = lifecycle.dispatch(0.0)
        assert lifecycle.refused(first, 0.0) == [Restart([])]
        assert lifecycle.refused(second, 0.0) == []  # same executor
        trips = lifecycle.dispatch(0.0)
        assert sorted(t.members[0] for t in trips) == [("a", 1), ("b", 1)]

    def test_withdrawn_trip_requeues_without_restart(self):
        lifecycle = _lifecycle()
        first, _ = lifecycle.dispatch(0.0)
        assert lifecycle.withdrawn(first, 0.5) == []
        (again,) = lifecycle.dispatch(0.5)
        assert again.members == [("a", 1)]

    def test_withdrawn_overdue_trip_needs_no_restart(self):
        lifecycle = _lifecycle(timeout=1.0)
        first, second = lifecycle.dispatch(0.0)
        lifecycle.finished(second, "b", 0.5)
        (finish,) = lifecycle.expire(1.0, cancel=lambda trip: True)
        assert (finish.key, finish.status) == ("a", "timeout")
        assert lifecycle.generation == 0

    def test_stuck_trip_restarts_and_requeues_survivors(self):
        lifecycle = _lifecycle(timeout=1.0)
        first, _ = lifecycle.dispatch(0.0)
        lifecycle.finished(first, "a", 0.2)
        (third,) = lifecycle.dispatch(0.5)
        actions = lifecycle.expire(1.0, cancel=lambda trip: False)
        (finish, restart) = actions
        assert (finish.key, finish.status) == ("b", "timeout")
        assert restart.abandoned == [third]
        (again,) = lifecycle.dispatch(1.0)
        assert again.members == [("c", 1)]
        assert lifecycle.generation == 1

    def test_shutdown_finishes_every_open_job(self):
        lifecycle = Lifecycle(1, retries=1, backoff=10.0)
        for key in ("in-flight", "held", "queued"):
            lifecycle.add(key, 0.0)
        (trip,) = lifecycle.dispatch(0.0)
        lifecycle.failed(trip, "in-flight", 0.1, "boom")  # now held
        (trip,) = lifecycle.dispatch(0.1)
        finishes = lifecycle.shutdown(0.2)
        assert sorted(f.key for f in finishes) == ["held", "in-flight", "queued"]
        for finish in finishes:
            assert finish.status == "failed"
            assert finish.error == "cancelled at server shutdown"
        assert lifecycle.unfinished == 0 and lifecycle.inflight == []


class TestAccounting:
    def test_pool_queue_wait_is_wall_minus_compute(self):
        lifecycle = Lifecycle(1, retries=1)
        lifecycle.add("a", 0.0)
        (trip,) = lifecycle.dispatch(1.0)
        (retry,) = lifecycle.failed(trip, "a", 1.5, "boom")
        (trip,) = lifecycle.dispatch(retry.at + 1.0)
        finish = lifecycle.finished(trip, "a", trip.started + 2.0, compute=0.5)
        assert finish.attempts == 2
        assert finish.wall_s == pytest.approx(2.0)  # the last attempt's
        # the failed try's wall, then the worker's figure
        assert finish.compute_s == pytest.approx(0.5 + 0.5)
        # the wait for dispatch does not count in a pool
        assert finish.queue_wait_s == pytest.approx(1.5)

    def test_batch_members_share_the_trip_wall(self):
        lifecycle = Lifecycle(1, estimate=lambda key: 0.01)
        lifecycle.add("a", 0.0)
        lifecycle.add("b", 0.0)
        (trip,) = lifecycle.dispatch(0.0)
        a = lifecycle.finished(trip, "a", 1.0, compute=0.25, result={"report": 1})
        b = lifecycle.finished(trip, "b", 1.0)
        assert (a.wall_s, a.compute_s, a.queue_wait_s) == (1.0, 0.25, 0.75)
        assert a.result == {"report": 1}
        assert (b.wall_s, b.compute_s, b.queue_wait_s) == (1.0, 0.5, 0.5)

    def test_inline_queue_wait_is_the_wait_for_dispatch(self):
        lifecycle = Lifecycle(1, retries=1, backoff=1.0, inline=True)
        lifecycle.add("a", 0.0)
        lifecycle.add("b", 0.0)
        (trip,) = lifecycle.dispatch(0.0)
        lifecycle.failed(trip, "a", 2.0, "boom")  # a released at 3.0
        (trip,) = lifecycle.dispatch(2.0)  # b runs during a's backoff
        b = lifecycle.finished(trip, "b", 5.0)
        (trip,) = lifecycle.dispatch(5.0)
        a = lifecycle.finished(trip, "a", 6.0)
        assert (b.queue_wait_s, b.compute_s, b.wall_s) == (2.0, 3.0, 3.0)
        assert (a.queue_wait_s, a.compute_s, a.wall_s) == (2.0, 3.0, 1.0)


class TestPacking:
    def test_batches_close_at_max_or_target(self):
        lifecycle = Lifecycle(8, estimate=lambda key: 0.05, batch_max=3)
        for key in range(7):
            lifecycle.add(key, 0.0)
        trips = lifecycle.dispatch(0.0)
        assert [t.members for t in trips] == [
            [(0, 1), (1, 1), (2, 1)],
            [(3, 1), (4, 1), (5, 1)],
            [(6, 1)],  # a batch of one ships solo
        ]
        assert [t.batched for t in trips] == [True, True, False]
        lifecycle = Lifecycle(8, estimate=lambda key: 0.1)
        for key in range(5):
            lifecycle.add(key, 0.0)
        trips = lifecycle.dispatch(0.0)
        assert [len(t.members) for t in trips] == [3, 2]  # 0.3 >= 0.25

    def test_heavy_unestimated_retried_and_requeued_jobs_ship_solo(self):
        estimates = {"heavy": 0.2, "small": 0.01, "small2": 0.01}
        lifecycle = Lifecycle(4, retries=1, backoff=0.0, estimate=estimates.get)
        for key in ("heavy", "unknown", "small", "small2"):
            lifecycle.add(key, 0.0)
        trips = lifecycle.dispatch(0.0)
        assert [t.members for t in trips] == [
            [("heavy", 1)],
            [("unknown", 1)],
            [("small", 1), ("small2", 1)],
        ]
        batch = trips[2]
        (retry,) = lifecycle.failed(batch, "small", 0.1, "boom", compute=0.0)
        lifecycle.refused(trips[0], 0.1)
        lifecycle.finished(batch, "small2", 0.1)
        assert [t.members for t in lifecycle.dispatch(0.1)] == [
            [("heavy", 1)],
            [("small", 2)],
        ]

    def test_open_batch_holds_the_last_worker(self):
        lifecycle = Lifecycle(1, estimate={"s": 0.01, "t": 0.01}.get)
        for key in ("s", "heavy", "t"):
            lifecycle.add(key, 0.0)
        (trip,) = lifecycle.dispatch(0.0)
        assert trip.members == [("s", 1)]
        assert len(lifecycle.inflight) == 1
