"""Wall-clock metrics registry: counters, gauges, histograms.

Everything else in :mod:`repro.obs` observes the *simulated* machine;
this module observes the *host* runtime around it — the serve layer's
request flow, the engine's dispatch/batch/retry dynamics.  It is
deliberately dependency-free (no prometheus_client): a
:class:`MetricsRegistry` holds labeled :class:`Counter` /
:class:`Gauge` / :class:`Histogram` families, is thread-safe behind
one lock, and serializes to a JSON-safe *families* snapshot that
:mod:`repro.obs.expo` renders as Prometheus text exposition (and
parses back, strictly).

Process model: a registry is process-local.  Every instrumented site
runs in the process that owns the registry (the engine driver, the
serve event loop); pool workers record nothing here.

Invisibility contract: nothing here may touch simulated metrics.  The
registry records wall-clock observations in its own structures only,
and the simulation never writes to it (``tests/test_telemetry.py``
runs all 32 benchmarks against an unchanged registry).

The four job-metric families of a driver are a view of its run events:
:class:`JobMetrics` declares them and folds each ``job_retried`` and
``job_finished`` record into them (:mod:`repro.obs.stream`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fixed log-spaced latency buckets, seconds.  A 1-2.5-5 decade ladder
#: from 100 us to 60 s: fine enough to place a p99 within ~2x, coarse
#: enough that every histogram series stays 19 buckets wide forever
#: (bounded cardinality is part of the exposition contract).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Power-of-two size buckets for count-valued histograms (batch
#: members).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

def _check_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(label_names)
    for name in names:
        if not _LABEL_NAME_RE.match(name) or name == "le":
            raise ValueError(f"bad label name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


class _Child:
    """One labeled series of a metric family."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Metric", key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add to a counter (or gauge) series."""
        self._metric._inc(self._key, amount)

    def set(self, value: float) -> None:
        """Set a gauge series (or a counter fed by a collector whose
        source is itself monotone, e.g. ``ServerCounters``)."""
        self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        """Record one observation into a histogram series."""
        self._metric._observe(self._key, value)

    @property
    def value(self) -> float:
        """Current scalar value (counter/gauge)."""
        return self._metric._value(self._key)


class Metric:
    """One metric family: a name, a kind, and its labeled series.

    Series are created lazily by :meth:`labels`; an unlabeled family is
    the single series with the empty label tuple (the family object
    itself supports ``inc``/``set``/``observe`` directly).
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        *,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self._registry = registry
        self.name = _check_name(name)
        self.help = help_text
        self.kind = kind
        self.label_names = _check_labels(label_names)
        if kind == "histogram":
            if not buckets or sorted(buckets) != list(buckets):
                raise ValueError(f"{name}: buckets must be sorted, non-empty")
            self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        else:
            self.buckets = ()
        #: label-value tuple -> float, or [bucket counts..., +Inf] lists
        self._scalars: Dict[Tuple[str, ...], float] = {}
        self._hist: Dict[Tuple[str, ...], List[float]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    # -- series access ---------------------------------------------------
    def labels(self, **labels: str) -> _Child:
        """The series for one label-value assignment."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        return _Child(self, key)

    def _default(self) -> _Child:
        if self.label_names:
            raise ValueError(f"{self.name}: labels required")
        return _Child(self, ())

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    # -- series mutation (under the registry lock) -----------------------
    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if self.kind == "histogram":
            raise TypeError(f"{self.name}: histograms take observe()")
        if self.kind == "counter" and amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        with self._registry._lock:
            self._scalars[key] = self._scalars.get(key, 0.0) + amount

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        if self.kind == "histogram":
            raise TypeError(f"{self.name}: histograms take observe()")
        with self._registry._lock:
            self._scalars[key] = float(value)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        if self.kind != "histogram":
            raise TypeError(f"{self.name}: observe() is histogram-only")
        value = float(value)
        with self._registry._lock:
            counts = self._hist.get(key)
            if counts is None:
                counts = [0.0] * (len(self.buckets) + 1)
                self._hist[key] = counts
                self._scalars[key] = 0.0
                self._sums[key] = 0.0
            counts[bisect_left(self.buckets, value)] += 1
            self._scalars[key] += 1
            self._sums[key] += value

    def _value(self, key: Tuple[str, ...]) -> float:
        with self._registry._lock:
            return self._scalars.get(key, 0.0)

    # -- snapshot (caller holds the registry lock) -----------------------
    def _snapshot_series(self) -> List[Dict]:
        series: List[Dict] = []
        if self.kind == "histogram":
            for key in sorted(self._hist):
                counts = self._hist[key]
                cumulative: List[List[float]] = []
                running = 0.0
                for le, n in zip(self.buckets, counts):
                    running += n
                    cumulative.append([le, running])
                running += counts[-1]
                cumulative.append([float("inf"), running])
                series.append(
                    {
                        "labels": dict(zip(self.label_names, key)),
                        "buckets": cumulative,
                        "sum": self._sums[key],
                        "count": self._scalars.get(key, 0.0),
                    }
                )
        else:
            for key in sorted(self._scalars):
                series.append(
                    {
                        "labels": dict(zip(self.label_names, key)),
                        "value": self._scalars[key],
                    }
                )
        return series

    def _reset(self) -> None:
        self._scalars.clear()
        self._hist.clear()
        self._sums.clear()


class MetricsRegistry:
    """A process-local family of metrics plus its collect hooks.

    *Collectors* are callbacks invoked at every :meth:`collect` before
    the snapshot is taken; they refresh metrics whose source of truth
    lives elsewhere (``ServerCounters``, queue depths, pool
    generations) so a scrape reconciles exactly (``==``) with that
    state instead of tracking a parallel tally that could drift.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- declaration -----------------------------------------------------
    def _declare(self, name: str, help_text: str, kind: str, labels, **kw):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} re-declared as {kind} "
                        f"{tuple(labels)} (was {existing.kind} "
                        f"{existing.label_names})"
                    )
                return existing
            metric = Metric(self, name, help_text, kind, tuple(labels), **kw)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Metric:
        """Declare (or fetch) a monotone counter family."""
        return self._declare(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Metric:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Metric:
        """Declare (or fetch) a histogram family with fixed buckets."""
        return self._declare(
            name, help_text, "histogram", labels, buckets=tuple(buckets)
        )

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a refresh hook run at every :meth:`collect`."""
        with self._lock:
            self._collectors.append(collector)

    # -- snapshot --------------------------------------------------------
    def collect(self) -> Dict[str, Dict]:
        """JSON-safe families snapshot (collectors run first).

        Shape: ``{name: {type, help, label_names, buckets?, series}}``
        with each series carrying ``labels`` plus either ``value`` or
        cumulative ``buckets``/``sum``/``count`` — the same shape
        :func:`repro.obs.expo.parse_exposition` returns.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        families: Dict[str, Dict] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                family: Dict[str, object] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "series": metric._snapshot_series(),
                }
                if metric.kind == "histogram":
                    family["buckets"] = list(metric.buckets)
                families[name] = family
        return families

    def reset(self) -> None:
        """Zero every series of every metric (tests)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry.

    CLI-local instrumentation (engine runs, campaign sweeps) lands
    here; the serve layer gives each
    :class:`~repro.serve.server.ServeApp` its own registry instead so
    ``GET /metrics`` describes exactly one server instance.
    """
    return _REGISTRY


#: Help texts that differ between the drivers' job-metric families.
_JOB_HELP = {
    "repro_engine": (
        "Engine jobs finished, by final status.",
        "Job attempts abandoned at the per-attempt deadline.",
    ),
    "repro_serve": (
        "Completed jobs by final status.",
        "Job attempts abandoned at the per-attempt timeout.",
    ),
}


class JobMetrics:
    """A driver's four job-metric families, folded from its run events.

    ``prefix`` is ``repro_engine`` (the process-global registry) or
    ``repro_serve`` (each server's own).  :meth:`fold` is the only
    writer of these families; the driver calls it on every event it
    emits.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        jobs_help, timeouts_help = _JOB_HELP[prefix]
        self.jobs = registry.counter(f"{prefix}_jobs_total", jobs_help, ["status"])
        self.dispatch = registry.histogram(
            f"{prefix}_dispatch_latency_seconds",
            "Queue wait (wall minus compute) per executed job, seconds.",
        )
        self.retries = registry.counter(
            f"{prefix}_retries_total",
            "Job attempts re-dispatched after a failure or timeout.",
        )
        self.timeouts = registry.counter(f"{prefix}_timeouts_total", timeouts_help)

    def fold(self, record: Dict) -> None:
        """Count one run event: retries, timeouts, final statuses, queue waits."""
        kind = record["kind"]
        if kind not in ("job_retried", "job_finished"):
            return
        status = record["status"]
        if status == "timeout":
            self.timeouts.inc()
        if kind == "job_retried":
            self.retries.inc()
            return
        self.jobs.labels(status=status).inc()
        if status != "cached":
            self.dispatch.observe(record["queue_wait_s"])


__all__ = [
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
    "JobMetrics",
    "Metric",
    "MetricsRegistry",
    "get_registry",
]
