"""Per-pattern communication profile of a run.

:func:`trace_summary` tabulates count, network bytes and busy/idle
seconds per pattern from the recorder's per-stream aggregates — the
modern equivalent of the CM-5's PRISM communication profiles.
Per-event timelines come from :class:`repro.obs.SpanCollector`
(``repro profile --chrome``, ``repro trace export``).
"""

from __future__ import annotations

from repro.metrics.recorder import MetricsRecorder


def trace_summary(recorder: MetricsRecorder) -> str:
    """Aggregate communication by pattern: count, bytes, time."""
    totals = recorder.root.comm_by_pattern()
    lines = [
        f"{'pattern':18s} {'count':>7s} {'net bytes':>12s} {'busy s':>10s} {'idle s':>10s}"
    ]
    for stats in sorted(totals.values(), key=lambda s: s.pattern.value):
        lines.append(
            f"{stats.pattern.value:18s} {stats.count:7d} "
            f"{stats.bytes_network:12d} "
            f"{stats.busy_time:10.6f} {stats.idle_time:10.6f}"
        )
    return "\n".join(lines)
