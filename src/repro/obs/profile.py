"""Text profile reports and folded-stack flamegraphs.

Renders a finalized :class:`~repro.obs.spans.SpanCollector` as

* a profile table — top regions by *exclusive* busy time (the time
  charged in the region itself, not its children), with FLOPs, bytes
  and per-region iteration counts, followed by a per-pattern
  communication attribution table and the run totals; and
* folded stacks — ``frame;frame;frame value`` lines (value = exclusive
  busy microseconds, integer), the input format of Brendan Gregg's
  ``flamegraph.pl`` and of speedscope's "folded" importer.

Both views walk the observed recorder's regions, so they carry the
same totals the :class:`~repro.metrics.report.PerfReport` reports.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.recorder import Region
from repro.obs.spans import SpanCollector, exclusive_busy


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.6f}"


def _fmt_count(n: int) -> str:
    return f"{n:,}"


def profile_lines(
    collector: SpanCollector,
    *,
    benchmark: str = "benchmark",
    top: int = 10,
) -> List[str]:
    """Profile report as a list of text lines."""
    from repro.suite.tables import format_table

    totals = collector.totals()
    paths = collector.region_paths()
    lines = [
        f"profile: {benchmark}",
        f"  simulated busy    {_fmt_seconds(totals['busy_time_s'])} s  "
        f"(compute {_fmt_seconds(totals['compute_time_s'])} s, "
        f"comm busy {_fmt_seconds(totals['comm_busy_s'])} s)",
        f"  simulated elapsed {_fmt_seconds(totals['elapsed_time_s'])} s  "
        f"(comm idle {_fmt_seconds(totals['comm_idle_s'])} s)",
        f"  flop count        {_fmt_count(totals['flop_count'])}",
        f"  network bytes     {_fmt_count(totals['network_bytes'])}  "
        f"over {totals['comm_count']} collective(s)",
    ]
    if paths:
        busy_total = totals["busy_time_s"] or 1.0
        ranked = sorted(
            paths, key=lambda item: exclusive_busy(item[1]), reverse=True
        )
        rows = []
        for path, region in ranked[: max(1, top)]:
            busy = exclusive_busy(region)
            net = sum(s.bytes_network for s in region.comm_stats.values())
            rows.append(
                [
                    path,
                    f"{_fmt_seconds(busy)}",
                    f"{100.0 * busy / busy_total:.1f}%",
                    _fmt_count(region.flops.total),
                    _fmt_count(net),
                    str(region.marked_iterations or region.entries),
                ]
            )
        lines.append("")
        lines.append(f"top regions by exclusive busy time (of {len(paths)}):")
        lines.append(
            format_table(
                ["Region", "Busy (s)", "Busy %", "FLOPs", "Net bytes",
                 "Iters"],
                rows,
            )
        )
    patterns = totals["patterns"]
    if patterns:
        rows = [
            [
                pattern,
                str(int(agg["count"])),
                _fmt_count(int(agg["bytes_network"])),
                _fmt_seconds(agg["busy_s"]),
                _fmt_seconds(agg["idle_s"]),
            ]
            for pattern, agg in sorted(patterns.items())
        ]
        lines.append("")
        lines.append("communication by pattern:")
        lines.append(
            format_table(
                ["Pattern", "Count", "Net bytes", "Busy (s)", "Idle (s)"],
                rows,
            )
        )
    return lines


def render_profile(
    collector: SpanCollector,
    *,
    benchmark: str = "benchmark",
    top: int = 10,
) -> str:
    """Profile report as one printable string."""
    return "\n".join(profile_lines(collector, benchmark=benchmark, top=top))


def folded_stacks(
    collector: SpanCollector,
    *,
    root_frame: Optional[str] = None,
) -> List[str]:
    """Folded flamegraph lines: ``frame;frame value`` per region.

    One line per region with non-zero exclusive busy time; the value is
    exclusive busy time in integer microseconds.  The root frame (the
    benchmark name by default) carries any time charged outside every
    region.
    """
    root = collector.recorder.root
    base = root_frame if root_frame is not None else root.name
    out: List[str] = []

    def visit(region: Region, prefix: str) -> None:
        us = int(round(exclusive_busy(region) * 1e6))
        if us > 0:
            out.append(f"{prefix} {us}")
        for child in region.children:
            visit(child, f"{prefix};{child.name}")

    visit(root, base)
    if not out:
        out.append(f"{base} 0")
    return out


def write_folded(collector: SpanCollector, path, **kwargs) -> None:
    """Write folded stacks to ``path``, one stack per line."""
    lines = folded_stacks(collector, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


__all__ = [
    "profile_lines",
    "render_profile",
    "folded_stacks",
    "write_folded",
]
