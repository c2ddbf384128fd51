"""Campaign-level analytics: rooflines, scaling series, diffs.

The paper quantifies every benchmark with FLOP counts, communication
patterns and network bytes (§1.5); a campaign sees those counters
across hundreds of configurations at once, which is enough to place
each point on a *communication roofline*: arithmetic intensity is
FLOPs per network byte, the machine's bisection bandwidth bounds the
rate at which network bytes can move, and the attainable FLOP rate of
a point is ``min(peak, intensity × bandwidth)``.  Points whose
attainable rate is clipped by the bandwidth term are
communication-bound; the rest are compute-bound.

Every roofline point is *reconciled*: the per-kind cost-weighted FLOP
breakdown (:attr:`repro.metrics.report.PerfReport.flop_kinds`) must
sum exactly to the report's ``flop_count``, and the byte total is read
off the same report — the analytics never invent numbers the recorder
did not produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.jobs import RunRequest
from repro.machine.presets import resolve_machine

#: Roofline report schema version.
ROOFLINE_SCHEMA_VERSION = 1


class ReconcileError(ValueError):
    """A point's FLOP-kind breakdown does not sum to its FLOP count."""


@dataclass
class RooflinePoint:
    """One campaign point placed on the communication roofline."""

    benchmark: str
    machine: str
    nodes: int
    tier: str
    params: Dict[str, object]
    request_hash: str
    flop_count: int
    network_bytes: int
    #: ``{kind: {"ops": raw count, "flops": cost-weighted}}``
    flop_kinds: Dict[str, Dict[str, int]]
    busy_time_s: float
    achieved_mflops: float
    peak_mflops: float
    #: aggregate bisection bandwidth, bytes/second
    network_bandwidth_bytes_s: float
    #: FLOPs per network byte (None for communication-free points)
    intensity: Optional[float]
    attainable_mflops: float
    #: ``compute`` or ``communication``
    bound: str
    #: whether the kind breakdown summed exactly to ``flop_count``
    reconciled: bool = True

    def to_dict(self) -> Dict:
        return {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "nodes": self.nodes,
            "tier": self.tier,
            "params": dict(self.params),
            "request_hash": self.request_hash,
            "flop_count": self.flop_count,
            "network_bytes": self.network_bytes,
            "flop_kinds": {k: dict(v) for k, v in self.flop_kinds.items()},
            "busy_time_s": self.busy_time_s,
            "achieved_mflops": self.achieved_mflops,
            "peak_mflops": self.peak_mflops,
            "network_bandwidth_bytes_s": self.network_bandwidth_bytes_s,
            "intensity": self.intensity,
            "attainable_mflops": self.attainable_mflops,
            "bound": self.bound,
            "reconciled": self.reconciled,
        }


def roofline_point(
    request: RunRequest,
    report_record: Mapping,
    *,
    strict: bool = True,
) -> RooflinePoint:
    """Place one (request, report) pair on the roofline.

    ``strict`` demands exact reconciliation: the cost-weighted
    per-kind FLOPs must sum to the report's ``flop_count`` and the
    breakdown must be present at all; violations raise
    :class:`ReconcileError`.  With ``strict=False`` (inspecting stores
    written before the breakdown existed) the point is marked
    ``reconciled=False`` instead.
    """
    flop_count = int(report_record["flop_count"])
    network_bytes = int(report_record["network_bytes"])
    flop_kinds = {
        str(kind): {"ops": int(v["ops"]), "flops": int(v["flops"])}
        for kind, v in (report_record.get("flop_kinds") or {}).items()
    }
    kind_total = sum(entry["flops"] for entry in flop_kinds.values())
    reconciled = bool(flop_kinds) and kind_total == flop_count
    if flop_count == 0 and not flop_kinds:
        reconciled = True  # a FLOP-free point has nothing to break down
    if strict and not reconciled:
        raise ReconcileError(
            f"{request.describe()}: flop_kinds sum {kind_total} != "
            f"flop_count {flop_count} "
            f"({'breakdown missing' if not flop_kinds else 'mismatch'})"
        )

    machine = resolve_machine(request.machine, request.nodes)
    peak = machine.peak_mflops
    bandwidth = machine.network.bisection_bandwidth(request.nodes)
    busy = float(report_record["busy_time_s"])
    achieved = flop_count / busy / 1e6 if busy > 0 else 0.0
    if network_bytes > 0:
        intensity: Optional[float] = flop_count / network_bytes
        attainable = min(peak, intensity * bandwidth / 1e6)
    else:
        intensity = None
        attainable = peak
    bound = "communication" if attainable < peak else "compute"
    return RooflinePoint(
        benchmark=request.benchmark,
        machine=request.machine,
        nodes=request.nodes,
        tier=request.tier,
        params=request.params_dict,
        request_hash=request.content_hash(),
        flop_count=flop_count,
        network_bytes=network_bytes,
        flop_kinds=flop_kinds,
        busy_time_s=busy,
        achieved_mflops=achieved,
        peak_mflops=peak,
        network_bandwidth_bytes_s=bandwidth,
        intensity=intensity,
        attainable_mflops=attainable,
        bound=bound,
        reconciled=reconciled,
    )


def _pairs_from_results(results: Sequence) -> List[Tuple[RunRequest, Mapping]]:
    return [
        (result.request, result.report_record)
        for result in results
        if result.ok and result.report_record is not None
    ]


def _pairs_from_records(records: Sequence[Mapping]) -> List[Tuple[RunRequest, Mapping]]:
    out = []
    for record in records:
        report = record.get("report")
        if report is None or not record.get("request"):
            continue
        out.append((RunRequest.from_dict(record["request"]), report))
    return out


def roofline_report(
    pairs: Sequence[Tuple[RunRequest, Mapping]],
    *,
    name: str = "",
    strict: bool = True,
) -> Dict:
    """The campaign roofline document over (request, report) pairs.

    Per-point placements plus a per-benchmark aggregate: point count,
    best achieved rate, intensity range and how many points land on
    each side of the roofline ridge.  The document is JSON-safe and
    stable under ``sort_keys``.
    """
    points = [
        roofline_point(request, record, strict=strict)
        for request, record in pairs
    ]
    by_benchmark: Dict[str, Dict] = {}
    for point in points:
        agg = by_benchmark.setdefault(
            point.benchmark,
            {
                "n_points": 0,
                "best_achieved_mflops": 0.0,
                "min_intensity": None,
                "max_intensity": None,
                "bound_counts": {"compute": 0, "communication": 0},
                "flop_total": 0,
                "network_byte_total": 0,
            },
        )
        agg["n_points"] += 1
        agg["best_achieved_mflops"] = max(
            agg["best_achieved_mflops"], point.achieved_mflops
        )
        if point.intensity is not None:
            agg["min_intensity"] = (
                point.intensity
                if agg["min_intensity"] is None
                else min(agg["min_intensity"], point.intensity)
            )
            agg["max_intensity"] = (
                point.intensity
                if agg["max_intensity"] is None
                else max(agg["max_intensity"], point.intensity)
            )
        agg["bound_counts"][point.bound] += 1
        agg["flop_total"] += point.flop_count
        agg["network_byte_total"] += point.network_bytes
    return {
        "kind": "roofline",
        "schema": ROOFLINE_SCHEMA_VERSION,
        "campaign": name,
        "n_points": len(points),
        "reconciled": all(point.reconciled for point in points),
        "benchmarks": {k: by_benchmark[k] for k in sorted(by_benchmark)},
        "points": [point.to_dict() for point in points],
    }


def roofline_from_results(results: Sequence, *, name: str = "", strict: bool = True) -> Dict:
    """Roofline document of in-memory engine results (ok points only)."""
    return roofline_report(_pairs_from_results(results), name=name, strict=strict)


def roofline_from_store(store, run_ref: str, *, name: str = "", strict: bool = True) -> Dict:
    """Roofline document of one stored run (see ``StoreReader.resolve``)."""
    return roofline_report(
        _pairs_from_records(store.run_records(run_ref)), name=name, strict=strict
    )


# -- strong-scaling series ----------------------------------------------
def scaling_series(results: Sequence) -> List[Dict]:
    """Strong-scaling efficiency series hiding inside a campaign.

    Groups ok results by (benchmark, machine, tier, params, seed) and
    emits one series per group that spans at least two node counts,
    reusing :class:`~repro.suite.sweeps.SweepResult` /
    :func:`~repro.suite.sweeps.efficiency_series` so the numbers match
    a hand-built machine sweep exactly.
    """
    from repro.suite.sweeps import SweepResult, efficiency_series

    groups: Dict[Tuple, List] = {}
    for result in results:
        if not result.ok or result.report is None:
            continue
        request = result.request
        key = (
            request.benchmark,
            request.machine,
            request.tier,
            request.params,
            request.seed,
        )
        groups.setdefault(key, []).append(result)
    series = []
    for (benchmark, machine, tier, params, seed), members in groups.items():
        by_nodes = {m.request.nodes: m for m in members}
        if len(by_nodes) < 2:
            continue
        nodes = sorted(by_nodes)
        sweep = SweepResult(benchmark, "nodes", tuple(nodes))
        sweep.reports = [by_nodes[n].report for n in nodes]
        eff = efficiency_series(sweep)
        series.append(
            {
                "benchmark": benchmark,
                "machine": machine,
                "tier": tier,
                "params": dict(params),
                "nodes": nodes,
                "elapsed_time_s": sweep.series("elapsed_time"),
                "speedup": eff["speedup"],
                "efficiency": eff["efficiency"],
            }
        )
    series.sort(
        key=lambda s: (s["benchmark"], s["machine"], s["tier"], s["nodes"])
    )
    return series


# -- campaign diff ------------------------------------------------------
def campaign_diff(
    store,
    run_a: str,
    run_b: str,
    *,
    tolerance_pct: float = 0.0,
    strict: bool = False,
):
    """Gate one campaign run against another from the same store.

    Thin wrapper over :func:`repro.engine.stats.compare_benchmarks`
    with run ``a`` as the baseline: regressions and missing points fail
    the gate, points only run ``b`` measured surface as ``extra``
    (fatal under ``strict``).  Returns a
    :class:`~repro.engine.stats.CheckReport`.
    """
    from repro.engine.stats import compare_benchmarks, stats_from_records

    baseline = stats_from_records(store.run_records(run_a)).benchmarks
    current = stats_from_records(store.run_records(run_b)).benchmarks
    return compare_benchmarks(
        current, baseline, tolerance_pct, strict=strict
    )
