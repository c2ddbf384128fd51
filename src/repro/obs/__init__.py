"""repro.obs — span tracing and profiling over the simulated clock.

The observability spine of the reproduction (see docs/OBSERVABILITY.md):

* :class:`SpanCollector` (:mod:`repro.obs.spans`) — attaches to a
  session as a read-only observer and rebuilds the run as hierarchical
  spans and timeline slices on the simulated clock, with totals that
  reconcile bit-exactly against the run's
  :class:`~repro.metrics.report.PerfReport`; :func:`span_summary`
  condenses a finished recorder into the per-job summary the engine
  and ``repro serve`` forward;
* :mod:`repro.obs.chrome` — Chrome trace-event JSON export
  (Perfetto-loadable), from live collectors or stored reports;
* :mod:`repro.obs.profile` — text profile reports and folded-stack
  flamegraphs;
* :mod:`repro.obs.stream` — JSONL live event stream for engine runs;
* :mod:`repro.obs.telemetry` — wall-clock metrics registry (counters,
  gauges, histograms) for the host runtime around the simulation, with
  :mod:`repro.obs.expo` (Prometheus text exposition: renderer + strict
  parser), :mod:`repro.obs.slo` (declarative objectives evaluated from
  a scrape) and :mod:`repro.obs.dash` (live terminal dashboard).  See
  docs/TELEMETRY.md.

Attaching a collector never changes any reported metric; with no
collector attached, the hooks cost one ``is not None`` check.  The
telemetry registry observes wall-clock behaviour only and is likewise
benchmark-metrics-invisible: canonical report JSON is byte-identical
with telemetry enabled or disabled.
"""

from repro.obs.chrome import (
    chrome_trace,
    chrome_trace_from_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import (
    folded_stacks,
    profile_lines,
    render_profile,
    write_folded,
)
from repro.obs.spans import (
    SPAN_SUMMARY_SCHEMA,
    RegionMirror,
    Slice,
    Span,
    SpanCollector,
    span_summary,
)
from repro.obs.stream import (
    STREAM_EVENT_KINDS,
    EventFanout,
    EventStream,
    StreamRead,
    Subscription,
    read_stream,
    read_stream_partial,
    validate_stream,
)
from repro.obs.telemetry import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "get_registry",
    "SPAN_SUMMARY_SCHEMA",
    "STREAM_EVENT_KINDS",
    "EventFanout",
    "EventStream",
    "StreamRead",
    "Subscription",
    "RegionMirror",
    "Slice",
    "Span",
    "SpanCollector",
    "chrome_trace",
    "chrome_trace_from_report",
    "folded_stacks",
    "profile_lines",
    "read_stream",
    "read_stream_partial",
    "render_profile",
    "span_summary",
    "validate_stream",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_folded",
]
