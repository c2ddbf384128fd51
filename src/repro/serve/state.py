"""In-memory scheduler state of the run server.

Everything here lives on the event loop: :class:`Job` records (one per
*unique* request hash, however many clients submitted it), the
:class:`ServerCounters` dedupe/admission tally exposed by ``GET
/stats``, and the :class:`TokenBucket` per-client rate limiter.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine.jobs import RunRequest


@dataclass
class Job:
    """One unique in-flight or completed request on the server.

    Identity is the request content hash: a second client submitting an
    identical request attaches to this job's ``future`` instead of
    creating a new one (``coalesced`` counts those riders).  Fields
    below ``state`` fill in as the job executes and are frozen once the
    future resolves.
    """

    request: RunRequest
    request_hash: str
    #: scheduler lifecycle: queued -> running -> done
    state: str = "queued"
    #: engine result status once done (ok / failed / timeout / cached)
    status: Optional[str] = None
    future: Optional["asyncio.Future"] = None
    attempts: int = 0
    wall_time_s: float = 0.0
    #: clients that attached to this job after the first submission
    coalesced: int = 0
    #: how the first answer was produced (executed / cache)
    source: str = "executed"
    error: str = ""
    #: canonical report JSON dict (identical to a CLI run of the request)
    report_record: Optional[Dict] = None
    #: worker span summary (executed jobs; cache hits have none)
    spans: Optional[Dict] = None
    #: submission order on this server instance
    index: int = 0

    @property
    def done(self) -> bool:
        return self.state == "done"

    @property
    def ok(self) -> bool:
        """Whether the job produced a report."""
        return self.status in ("ok", "cached")


@dataclass
class ServerCounters:
    """Lifetime tally of the scheduler, served by ``GET /stats``.

    The dedupe hit rate — the headline number of the serve milestone —
    is derived, not stored: of everything admitted, the fraction that
    never reached a worker.
    """

    #: submissions admitted (past rate limiting and queue bounds)
    submitted: int = 0
    #: jobs actually handed to the worker pool
    executed: int = 0
    #: submissions attached to an identical in-flight job
    coalesced: int = 0
    #: submissions answered from the content-hash cache or completed memory
    served_cached: int = 0
    #: submissions refused because the queue was full
    rejected_queue: int = 0
    #: submissions refused by the per-client rate limiter
    rejected_rate: int = 0

    @property
    def deduped(self) -> int:
        """Admitted submissions that did not cost a worker execution."""
        return self.coalesced + self.served_cached

    @property
    def dedupe_hit_rate(self) -> float:
        """Fraction of admitted submissions served without executing."""
        if self.submitted == 0:
            return 0.0
        return self.deduped / self.submitted

    def to_dict(self) -> Dict:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "coalesced": self.coalesced,
            "served_cached": self.served_cached,
            "rejected_queue": self.rejected_queue,
            "rejected_rate": self.rejected_rate,
            "deduped": self.deduped,
            "dedupe_hit_rate": self.dedupe_hit_rate,
        }


class TokenBucket:
    """Per-client token-bucket rate limiter.

    Each client key (``X-Client-Id`` header, else peer host) gets its
    own bucket of ``burst`` tokens refilled at ``rate`` tokens/second.
    :meth:`allow` spends one token and returns 0.0, or — with the bucket
    empty — returns the seconds until the next token, which the server
    forwards to the client as ``Retry-After``.

    Buckets are evicted once idle long enough to have refilled
    completely: a full bucket is indistinguishable from an absent one
    (a fresh bucket starts full), so eviction is lossless — without it
    every distinct client key ever seen would stay resident forever,
    and a long-lived server leaks memory under churning clients.  The
    sweep is amortized: at most one full scan per refill period.
    """

    def __init__(self, rate: float, burst: int = 1, *, clock=None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._buckets: Dict[str, tuple] = {}  # key -> (tokens, stamp)
        self._clock = clock or time.monotonic
        #: seconds for an empty bucket to refill — the idle horizon past
        #: which a bucket carries no information, and the sweep cadence
        self._refill_s = self.burst / self.rate
        self._next_sweep = self._clock() + self._refill_s

    def __len__(self) -> int:
        """Number of resident (not yet evicted) buckets."""
        return len(self._buckets)

    def _sweep(self, now: float) -> None:
        """Drop every bucket that has refilled to full while idle."""
        full = float(self.burst)
        self._buckets = {
            key: (tokens, stamp)
            for key, (tokens, stamp) in self._buckets.items()
            if tokens + (now - stamp) * self.rate < full
        }
        self._next_sweep = now + self._refill_s

    def allow(self, key: str) -> float:
        """Admit one request for ``key``; 0.0, or seconds to retry after."""
        now = self._clock()
        if now >= self._next_sweep:
            self._sweep(now)
        tokens, stamp = self._buckets.get(key, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - stamp) * self.rate)
        if tokens >= 1.0:
            self._buckets[key] = (tokens - 1.0, now)
            return 0.0
        self._buckets[key] = (tokens, now)
        return (1.0 - tokens) / self.rate


__all__ = ["Job", "ServerCounters", "TokenBucket"]
