"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``list``
    List the 32 registered benchmarks with group and description.
``run NAME``
    Run one benchmark and print its §1.5 performance report
    (``--nodes``, ``--machine``, ``--tier`` select the simulated
    environment; ``--param k=v`` forwards benchmark parameters).
``suite``
    Run every benchmark with small default sizes and print a summary
    table.  Engine options (``--jobs``, ``--cache-dir``, ``--store``,
    ``--timeout``, ``--retries``, ``--trace``, ``--stream``) run the
    suite through the parallel, cached, fault-tolerant execution
    engine; ``--stream PATH`` follows the run live as JSONL events
    with per-job span summaries (see ``docs/OBSERVABILITY.md``).
``profile NAME``
    Run one benchmark with a span collector attached and print a
    profile: top regions by simulated busy time and per-pattern
    communication attribution.  ``--chrome PATH`` exports a
    Perfetto-loadable Chrome trace of the run's simulated timeline;
    ``--folded PATH`` writes a folded-stack flamegraph.
``trace export RUN``
    Re-emit a stored run (see ``engine runs``) as a Chrome trace file
    rebuilt from its persisted report segments.
``tables``
    Regenerate the paper's tables (1, 2, 3, 5, 7, 8 structural; 4 and
    6 measured-vs-paper).  The measured tables accept the same engine
    options.
``sweep``
    Sweep a benchmark parameter or the node count.  Points execute
    through the engine, so the engine options (``--jobs``,
    ``--cache-dir``, ``--store``, ...) apply.
``campaign``
    Declarative machine-space sweeps (see ``docs/CAMPAIGNS.md``):
    ``campaign run SPEC`` compiles a JSON spec into a deduplicated
    request plan and executes it through the engine — parallel,
    content-hash cached, and therefore resumable after a kill;
    ``campaign status SPEC`` reports completed vs pending points;
    ``campaign report SPEC`` derives the roofline /
    arithmetic-intensity analytics and strong-scaling series of a
    stored run; ``campaign diff SPEC A B`` gates one campaign run
    against another.
``engine``
    Inspect the run store: ``engine runs`` lists stored runs,
    ``engine history`` prints per-job records, ``engine diff A B``
    compares two stored runs metric-by-metric, ``engine stats RUN``
    reports scheduler metrics (throughput, queue wait, utilization,
    cache-hit rate, retry/timeout histograms), and ``engine check RUN
    --baseline B --tolerance PCT`` gates a run's §1.5 metrics against
    a baseline run or file, exiting non-zero on regression.  Run
    references accept unique id prefixes, ``latest`` and ``@N``.
``check``
    Accounting verification (see ``docs/CHECKS.md``): ``check lint
    [paths] --format text|json`` runs the static accounting linter
    (rules RC001-RC006, baselined via ``.repro-check.toml``), and
    ``check audit NAME --tolerance PCT`` runs one benchmark with
    shadow-counted NumPy execution and diffs it against the charged
    FLOPs and communication.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.machine.presets import FIXED_NODE_PRESETS, PRESETS
from repro.machine.session import Session
from repro.sessions import open_session
from repro.versions import VersionTier

#: Legacy alias of :data:`repro.machine.presets.PRESETS`.
MACHINES: Dict[str, Callable[..., object]] = dict(PRESETS)

#: Default run-store path for the ``engine`` inspection commands.
DEFAULT_STORE = ".repro/runs.jsonl"

#: Default node count for presets without a fixed size.
DEFAULT_NODES = 32


def _parse_value(text: str):
    """Parse a CLI parameter value: int, float, bool or string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(entries: Optional[List[str]]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for entry in entries or []:
        if "=" not in entry:
            raise SystemExit(f"bad --param {entry!r}; expected key=value")
        key, _, value = entry.partition("=")
        params[key] = _parse_value(value)
    return params


def _effective_nodes(machine: str, nodes: Optional[int]) -> int:
    """Resolve ``--nodes``, rejecting conflicts with fixed-size presets.

    The workstation preset is a single shared-memory node; silently
    dropping an explicit ``--nodes`` would misreport what was
    simulated, so a conflicting request is an error.
    """
    fixed = FIXED_NODE_PRESETS.get(machine)
    if fixed is not None:
        if nodes is not None and nodes != fixed:
            raise SystemExit(
                f"--nodes {nodes} conflicts with machine preset "
                f"{machine!r}, which is fixed at {fixed} node(s)"
            )
        return fixed
    return nodes if nodes is not None else DEFAULT_NODES


def _make_session(args) -> Session:
    nodes = _effective_nodes(args.machine, args.nodes)
    return open_session(args.machine, nodes, tier=args.tier)


def _engine_config(args):
    from repro.engine import EngineConfig

    return EngineConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=args.cache_dir,
        cache_prune=getattr(args, "cache_prune", False),
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
        store=args.store,
        trace=args.trace,
        stream=getattr(args, "stream", None),
    )


def _cmd_list(args) -> int:
    from repro.suite import REGISTRY

    width = max(len(n) for n in REGISTRY)
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        versions = ",".join(t.value for t in spec.versions)
        print(f"{name:{width}s}  [{spec.group:6s}]  {spec.description}")
        if args.verbose:
            print(f"{'':{width}s}  layouts: {' '.join(spec.layouts)}")
            print(f"{'':{width}s}  versions: {versions}")
    return 0


def _cmd_run(args) -> int:
    from repro.suite import run_benchmark

    session = _make_session(args)
    report = run_benchmark(args.name, session, **_parse_params(args.param))
    print(f"machine: {session.machine.describe()}")
    print(report.summary())
    if report.extra:
        print("\nverification observables:")
        for key, value in report.extra.items():
            print(f"  {key:28s} {value:.6g}")
    if args.json:
        from repro.metrics.serialize import report_to_json

        with open(args.json, "w") as fh:
            fh.write(report_to_json(report))
        print(f"\nreport written to {args.json}")
    return 0


def _cmd_suite(args) -> int:
    from repro.engine import Engine, plan_suite
    from repro.suite.tables import engine_summary_line, format_table

    nodes = _effective_nodes(args.machine, args.nodes)
    requests = plan_suite(machine=args.machine, nodes=nodes, tier=args.tier)
    engine = Engine(_engine_config(args))
    results = engine.run(requests)

    by_name = {result.request.benchmark: result for result in results}
    rows = []
    for name in sorted(by_name):
        result = by_name[name]
        if result.ok:
            r = result.report
            eff = r.arithmetic_efficiency
            rows.append(
                [
                    name,
                    f"{r.busy_time:.6f}",
                    f"{r.elapsed_time:.6f}",
                    f"{r.busy_floprate_mflops:.2f}",
                    f"{r.flop_count}",
                    f"{100 * eff:.2f}%" if eff is not None else "-",
                    result.status,
                ]
            )
        else:
            rows.append([name, "-", "-", "-", "-", "-", result.status])
    print(
        format_table(
            [
                "Benchmark",
                "Busy (s)",
                "Elapsed (s)",
                "MFLOP/s",
                "FLOPs",
                "Eff",
                "Status",
            ],
            rows,
        )
    )
    print("\n" + engine_summary_line(results, engine.last_run_stats))
    bad = [r for r in results if not r.ok]
    for result in bad:
        print(f"  {result.request.describe()}: {result.status}: {result.error}")
    if args.telemetry_out:
        from repro.obs import telemetry
        from repro.obs.expo import render_exposition

        with open(args.telemetry_out, "w", encoding="utf-8") as fh:
            fh.write(render_exposition(telemetry.get_registry().collect()))
        print(f"telemetry exposition written to {args.telemetry_out}")
    return 1 if bad else 0


def _engine_table_runner(args, nodes: int, wanted) -> Optional[Callable]:
    """Prefetch the measured tables' runs through the engine.

    Returns a ``(name, params) -> PerfReport`` runner backed by the
    prefetched (possibly cached, possibly parallel) results, or None
    when no measured table was requested.
    """
    from repro.engine import Engine, RunRequest
    from repro.suite import tables

    runs = []
    if 4 in wanted:
        runs.extend(tables.TABLE4_RUNS)
    if 6 in wanted:
        runs.extend(tables.TABLE6_RUNS)
    if not runs:
        return None

    def _request(name: str, params: Dict[str, object]) -> "RunRequest":
        return RunRequest(
            benchmark=name,
            machine=args.machine,
            nodes=nodes,
            tier=args.tier,
            params=params,
        )

    requests, seen = [], set()
    for run in runs:
        request = _request(run.name, run.params_dict)
        if request.content_hash() not in seen:
            seen.add(request.content_hash())
            requests.append(request)
    engine = Engine(_engine_config(args))
    results = {r.request.content_hash(): r for r in engine.run(requests)}

    def runner(name: str, params: Dict[str, object]):
        result = results.get(_request(name, params).content_hash())
        if result is None:  # a run the plan did not cover; run inline
            from repro.suite.runner import run_benchmark

            return run_benchmark(name, _make_session(args), **params)
        if not result.ok:
            raise SystemExit(
                f"table run {result.request.describe()} {result.status}: "
                f"{result.error}"
            )
        return result.report

    return runner


def _cmd_tables(args) -> int:
    from repro.suite import tables

    structural = {
        1: tables.table1_versions,
        2: tables.table2_layouts,
        3: tables.table3_comm,
        5: tables.table5_layouts,
        7: tables.table7_comm,
        8: tables.table8_techniques,
    }
    measured_numbers = (4, 6)
    wanted = args.numbers or sorted(
        list(structural) + list(measured_numbers)
    )
    for number in wanted:
        if number not in structural and number not in measured_numbers:
            raise SystemExit(f"no table {number}; choose from 1-8")
    nodes = _effective_nodes(args.machine, args.nodes)
    runner = _engine_table_runner(args, nodes, set(wanted))
    measured = {
        4: lambda: tables.table4_linalg(
            lambda: _make_session(args), runner=runner
        ),
        6: lambda: tables.table6_apps(
            lambda: _make_session(args), runner=runner
        ),
    }
    for number in wanted:
        fn = structural.get(number) or measured[number]
        print(f"=== Table {number} ===")
        print(fn())
        print()
    return 0


def _cmd_sweep(args) -> int:
    from repro.engine import Engine
    from repro.suite.sweeps import (
        efficiency_series,
        engine_machine_sweep,
        engine_parameter_sweep,
    )

    values = [_parse_value(v) for v in args.values.split(",")]
    fixed = _parse_params(args.param)
    engine = Engine(_engine_config(args))
    try:
        if args.over == "nodes":
            if args.machine in FIXED_NODE_PRESETS:
                raise SystemExit(
                    f"cannot sweep nodes on machine preset {args.machine!r} "
                    f"(fixed at {FIXED_NODE_PRESETS[args.machine]} node(s))"
                )
            sweep = engine_machine_sweep(
                engine,
                args.name,
                values,
                machine=args.machine,
                tier=args.tier,
                params=fixed,
            )
            print(sweep.table())
            eff = efficiency_series(sweep)
            pairs = ", ".join(
                f"{n}: {e:.2f}" for n, e in zip(values, eff["efficiency"])
            )
            print(f"\nparallel efficiency vs {values[0]} nodes: {pairs}")
        else:
            nodes = _effective_nodes(args.machine, args.nodes)
            sweep = engine_parameter_sweep(
                engine,
                args.name,
                args.over,
                values,
                machine=args.machine,
                nodes=nodes,
                tier=args.tier,
                fixed_params=fixed,
            )
            print(sweep.table())
    except RuntimeError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def _cmd_engine_runs(args) -> int:
    from repro.engine import open_store
    from repro.suite.tables import format_table

    store = open_store(args.store)
    records = store.records()
    if not records:
        print(f"no runs stored in {args.store}")
        return 0
    rows = []
    for run_id in store.run_ids():
        run = [r for r in records if r.get("run_id") == run_id]
        counts: Dict[str, int] = {}
        for record in run:
            counts[record.get("status", "?")] = (
                counts.get(record.get("status", "?"), 0) + 1
            )
        summary = " ".join(f"{s}={n}" for s, n in sorted(counts.items()))
        rows.append([run_id, str(len(run)), summary])
    print(format_table(["Run id", "Jobs", "Statuses"], rows))
    return 0


def _cmd_engine_history(args) -> int:
    from repro.engine import open_store
    from repro.suite.tables import format_table

    store = open_store(args.store)
    records = store.history(benchmark=args.benchmark, limit=args.limit)
    if not records:
        print(f"no matching records in {args.store}")
        return 0
    rows = []
    for record in records:
        report = record.get("report") or {}
        rows.append(
            [
                record.get("run_id", "?")[:13],
                record.get("benchmark", "?"),
                record.get("status", "?"),
                str(record.get("attempts", "-")),
                f"{record.get('wall_time_s', 0.0):.3f}",
                (
                    f"{report.get('elapsed_time_s'):.6f}"
                    if report.get("elapsed_time_s") is not None
                    else "-"
                ),
                (
                    f"{report.get('busy_floprate_mflops'):.2f}"
                    if report.get("busy_floprate_mflops") is not None
                    else "-"
                ),
                record.get("error") or "",
            ]
        )
    print(
        format_table(
            [
                "Run",
                "Benchmark",
                "Status",
                "Att",
                "Wall (s)",
                "Elapsed (s)",
                "MFLOP/s",
                "Error",
            ],
            rows,
        )
    )
    return 0


def _cmd_engine_diff(args) -> int:
    from repro.engine import diff_runs, open_store

    store = open_store(args.store)
    try:
        print(diff_runs(store, args.run_a, args.run_b))
    except KeyError as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    return 0


def _load_run_stats(store, ref: str):
    """One stored run's RunStats: the sidecar, else recomputed.

    Runs recorded before the stats layer, runs a server is still
    serving, and runs whose engine or server was killed before the
    summary write have no sidecar; their scheduler stats are
    recomputed from the per-job records, with the worker count — not
    recoverable from records — left unknown.
    """
    from repro.engine import RunStats, stats_from_records

    run_id = store.resolve(ref)
    sidecar = store.read_stats(run_id)
    if sidecar is not None:
        return RunStats.from_dict(sidecar)
    return stats_from_records(store.run_records(run_id))


def _cmd_engine_stats(args) -> int:
    import json as json_module

    from repro.engine import open_store

    store = open_store(args.store)
    try:
        stats = _load_run_stats(store, args.run)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    if args.json:
        print(json_module.dumps(stats.to_dict(), sort_keys=True, indent=2))
    else:
        print(stats.table())
    return 0


def _cmd_engine_check(args) -> int:
    from pathlib import Path

    from repro.engine import compare_benchmarks, open_store
    from repro.engine.stats import load_baseline_file

    if args.baseline is None and args.slo is None:
        raise SystemExit("engine check: need --baseline and/or --slo")
    slo_ok = True
    if args.slo:
        slo_ok = _check_slo(args.slo, args.scrape)
    if args.baseline is None:
        return 0 if slo_ok else 1

    store = open_store(args.store)
    try:
        stats = _load_run_stats(store, args.run)
        if Path(args.baseline).is_file():
            baseline = load_baseline_file(args.baseline)
        else:
            baseline = _load_run_stats(store, args.baseline).benchmarks
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    report = compare_benchmarks(
        stats.benchmarks, baseline, args.tolerance, strict=args.strict
    )
    print(report.table())
    return 0 if (report.ok and slo_ok) else 1


def _check_slo(spec_path: str, scrape_path: Optional[str]) -> bool:
    """Evaluate an SLO spec against a saved exposition scrape."""
    from repro.obs.expo import ExpositionError, parse_exposition
    from repro.obs.slo import SLOSpecError, evaluate_slos, load_slo_spec

    if not scrape_path:
        raise SystemExit(
            "engine check --slo needs --scrape FILE "
            "(a saved /metrics exposition, e.g. from `repro telemetry "
            "--out`)"
        )
    try:
        spec = load_slo_spec(spec_path)
    except OSError as exc:
        raise SystemExit(f"cannot read SLO spec {spec_path}: {exc}") from None
    except SLOSpecError as exc:
        raise SystemExit(f"bad SLO spec {spec_path}: {exc}") from None
    try:
        with open(scrape_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read scrape {scrape_path}: {exc}") from None
    try:
        families = parse_exposition(text)
    except ExpositionError as exc:
        raise SystemExit(
            f"scrape {scrape_path} is not valid exposition: {exc}"
        ) from None
    report = evaluate_slos(spec, families)
    print(report.table())
    return report.ok


def _load_campaign_spec(path):
    from repro.campaign import load_spec

    try:
        return load_spec(path)
    except OSError as exc:
        raise SystemExit(f"cannot read campaign spec {path}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"bad campaign spec {path}: {exc}") from None


def _campaign_store(args, spec):
    """Resolve the campaign's store path from CLI overrides."""
    from pathlib import Path

    from repro.campaign import campaign_paths

    store_path, _ = campaign_paths(spec.name, args.root)
    return Path(args.store) if args.store else store_path


def _cmd_campaign_run(args) -> int:
    from repro.campaign import run_campaign
    from repro.suite.tables import engine_summary_line

    spec = _load_campaign_spec(args.spec)
    plan = spec.compile()
    label = spec.name + (f": {spec.description}" if spec.description else "")
    print(f"campaign {label}")
    print(f"  {len(plan)} unique points across {len(spec.groups)} group(s)")

    def _run():
        return run_campaign(
            spec,
            root=args.root,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            store=args.store,
            cache_dir=args.cache_dir,
        )

    if args.dash:
        result = _run_with_dashboard(_run, title=f"campaign {spec.name}",
                                     interval=args.interval)
    else:
        result = _run()
    print("  " + engine_summary_line(result.results, result.stats))
    bad = [r for r in result.results if not r.ok]
    for failure in bad[:10]:
        print(
            f"  {failure.request.describe()}: {failure.status}: "
            f"{failure.error}"
        )
    if len(bad) > 10:
        print(f"  ... and {len(bad) - 10} more failed point(s)")
    if args.report:
        import json as json_module

        from repro.campaign import roofline_from_results

        doc = roofline_from_results(
            result.results, name=spec.name, strict=not bad
        )
        with open(args.report, "w", encoding="utf-8") as fh:
            json_module.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"  roofline report written to {args.report}")
    print(f"  store: {result.store_path}  cache: {result.cache_dir}")
    return 1 if bad else 0


def _run_with_dashboard(work, *, title: str, interval: float):
    """Run ``work()`` in a thread with a live terminal dashboard.

    The dashboard polls the process-global telemetry registry — the
    campaign's engine runs in this process, so its metrics land there
    — and stops one frame after the worker finishes.
    """
    import threading

    from repro.obs import telemetry
    from repro.obs.dash import run_dashboard

    box: Dict[str, object] = {}

    def _work():
        try:
            box["result"] = work()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            box["error"] = exc

    thread = threading.Thread(target=_work, daemon=True)
    thread.start()
    try:
        run_dashboard(
            telemetry.get_registry().collect,
            interval=interval,
            title=title,
            stop=lambda: not thread.is_alive(),
        )
    except KeyboardInterrupt:
        pass
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


def _cmd_campaign_status(args) -> int:
    import json as json_module

    from repro.campaign import campaign_status

    spec = _load_campaign_spec(args.spec)
    status = campaign_status(
        spec, root=args.root, store=args.store, cache_dir=args.cache_dir
    )
    if args.json:
        print(json_module.dumps(status.to_dict(), sort_keys=True, indent=2))
        return 0
    print(f"campaign {status.name}")
    print(
        f"  {status.completed}/{status.total} points completed "
        f"({100 * status.fraction_complete:.1f}%), "
        f"{status.pending} pending"
    )
    if status.run_ids:
        print(f"  runs recorded: {len(status.run_ids)} "
              f"(latest {status.run_ids[-1]})")
    if status.pending_by_benchmark:
        worst = sorted(
            status.pending_by_benchmark.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )[:10]
        pairs = ", ".join(f"{name}={n}" for name, n in worst)
        print(f"  pending by benchmark: {pairs}")
    return 0


def _cmd_campaign_report(args) -> int:
    import json as json_module

    from repro.campaign import roofline_from_store, scaling_series
    from repro.engine import open_store
    from repro.engine.plan import requests_from_run
    from repro.suite.tables import format_table

    spec = _load_campaign_spec(args.spec)
    store_path = _campaign_store(args, spec)
    if not store_path.exists():
        raise SystemExit(
            f"campaign {spec.name!r} has no store at {store_path}; "
            "run it first"
        )
    store = open_store(store_path)
    try:
        doc = roofline_from_store(
            store, args.run, name=spec.name, strict=not args.no_strict
        )
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None

    rows = []
    for name, agg in doc["benchmarks"].items():
        bounds = agg["bound_counts"]
        intensity = (
            f"{agg['min_intensity']:.3g}..{agg['max_intensity']:.3g}"
            if agg["min_intensity"] is not None
            else "-"
        )
        rows.append(
            [
                name,
                str(agg["n_points"]),
                f"{agg['best_achieved_mflops']:.2f}",
                intensity,
                f"{bounds['compute']}/{bounds['communication']}",
                f"{agg['flop_total']:,}",
                f"{agg['network_byte_total']:,}",
            ]
        )
    print(
        format_table(
            [
                "Benchmark",
                "Points",
                "Best MFLOP/s",
                "Intensity",
                "Comp/Comm",
                "FLOPs",
                "Net bytes",
            ],
            rows,
        )
    )
    print(
        f"\n{doc['n_points']} point(s), reconciled="
        f"{str(doc['reconciled']).lower()}"
    )

    # Rebuild RunResults-shaped pairs for the scaling series off the
    # stored records: group by configuration, needs request + report.
    try:
        records = store.run_records(args.run)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    from repro.engine import RunResult, RunRequest
    from repro.metrics.serialize import report_from_dict

    results = []
    for record in records:
        if not record.get("request") or not record.get("report"):
            continue
        results.append(
            RunResult(
                request=RunRequest.from_dict(record["request"]),
                status=record.get("status", "ok"),
                report=report_from_dict(record["report"]),
                report_record=record["report"],
            )
        )
    series = scaling_series(results)
    if series:
        print(f"\nstrong-scaling series ({len(series)}):")
        for entry in series:
            pairs = ", ".join(
                f"{n}: {e:.2f}"
                for n, e in zip(entry["nodes"], entry["efficiency"])
            )
            params = (
                " " + ",".join(f"{k}={v}" for k, v in entry["params"].items())
                if entry["params"]
                else ""
            )
            print(
                f"  {entry['benchmark']} [{entry['machine']} "
                f"{entry['tier']}{params}] efficiency {pairs}"
            )
    if args.out:
        doc["scaling"] = series
        doc["plan_points"] = len(requests_from_run(store, args.run))
        with open(args.out, "w", encoding="utf-8") as fh:
            json_module.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"\nreport written to {args.out}")
    if args.plot:
        from repro.campaign import render_roofline_svg, validate_roofline_svg

        svg = render_roofline_svg(doc)
        summary = validate_roofline_svg(svg)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(
            f"roofline plot written to {args.plot} "
            f"({summary['points']} point(s), {summary['roofs']} roof "
            "line(s))"
        )
    return 0


def _cmd_campaign_diff(args) -> int:
    from repro.campaign import campaign_diff
    from repro.engine import open_store

    spec = _load_campaign_spec(args.spec)
    store_path = _campaign_store(args, spec)
    if not store_path.exists():
        raise SystemExit(
            f"campaign {spec.name!r} has no store at {store_path}; "
            "run it first"
        )
    store = open_store(store_path)
    try:
        report = campaign_diff(
            store,
            args.run_a,
            args.run_b,
            tolerance_pct=args.tolerance,
            strict=args.strict,
        )
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    print(report.table())
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    from repro.obs import (
        SpanCollector,
        chrome_trace,
        render_profile,
        write_chrome_trace,
        write_folded,
    )
    from repro.suite import run_benchmark

    session = _make_session(args)
    collector = SpanCollector().attach(session)
    run_benchmark(args.name, session, **_parse_params(args.param))
    collector.finalize()
    print(f"machine: {session.machine.describe()}")
    print(render_profile(collector, benchmark=args.name, top=args.top))
    if args.chrome:
        write_chrome_trace(
            chrome_trace(collector, benchmark=args.name), args.chrome
        )
        print(f"\nChrome trace written to {args.chrome} "
              "(load in ui.perfetto.dev or chrome://tracing)")
    if args.folded:
        write_folded(collector, args.folded, root_frame=args.name)
        print(f"folded stacks written to {args.folded} "
              "(feed to flamegraph.pl or speedscope)")
    return 0


def _cmd_trace_export(args) -> int:
    from repro.engine import open_store
    from repro.metrics.serialize import report_from_dict
    from repro.obs import chrome_trace_from_report, write_chrome_trace

    store = open_store(args.store)
    try:
        run_id = store.resolve(args.run)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    records = store.run_records(run_id)
    events = []
    exported = 0
    for pid, record in enumerate(records, start=1):
        if args.benchmark and record.get("benchmark") != args.benchmark:
            continue
        report_record = record.get("report")
        if not report_record:
            continue
        report = report_from_dict(report_record)
        trace = chrome_trace_from_report(report, pid=pid)
        events.extend(trace["traceEvents"])
        exported += 1
    if not exported:
        raise SystemExit(
            f"run {run_id} has no stored reports"
            + (f" for benchmark {args.benchmark!r}" if args.benchmark else "")
            + "; only ok/cached jobs carry one"
        )
    out = args.output or f"trace_{run_id[:12]}.json"
    write_chrome_trace({"traceEvents": events, "displayTimeUnit": "ms"}, out)
    print(
        f"exported {exported} report(s) of run {run_id} to {out} "
        "(load in ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _changed_paths() -> "list[str]":
    """Repo-relative paths changed vs HEAD, plus untracked files."""
    import subprocess

    out: "list[str]" = []
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            continue
        out.extend(
            line.strip() for line in proc.stdout.splitlines()
            if line.strip()
        )
    return out


def _cmd_check_lint(args) -> int:
    from pathlib import Path

    from repro.check.baseline import load_baseline, write_baseline
    from repro.check.findings import findings_to_json, format_findings
    from repro.check.lint import lint_paths
    from repro.check.sarif import sarif_to_json

    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    baseline = load_baseline(
        Path(args.baseline) if args.baseline else None
    )
    report_paths = None
    if getattr(args, "changed", False):
        report_paths = [
            p for p in _changed_paths() if p.endswith(".py")
        ]
        if not report_paths:
            print("0 finding(s) (no changed python files)")
            return 0
    result = lint_paths(
        paths,
        baseline=baseline,
        interprocedural=args.interprocedural,
        report_paths=report_paths,
    )
    if args.write_baseline:
        write_baseline(result.active, Path(args.write_baseline))
        print(
            f"wrote {len(result.active)} suppression(s) to "
            f"{args.write_baseline}; fill in every reason before "
            "committing"
        )
        return 0
    if args.format == "json":
        print(findings_to_json(result))
    elif args.format == "sarif":
        print(sarif_to_json(result))
    else:
        print(format_findings(result, verbose=args.verbose))
    if not result.ok:
        return 1
    if args.fail_on_stale and result.unused_suppressions:
        return 1
    return 0


def _cmd_check_audit(args) -> int:
    import json as _json

    from repro.check.sanitizer import audit_benchmark
    from repro.machine.presets import resolve_machine

    nodes = _effective_nodes(args.machine, args.nodes)
    machine = resolve_machine(args.machine, nodes)
    report = audit_benchmark(
        args.name,
        machine,
        params=_parse_params(args.param),
        tier=VersionTier(args.tier),
    )
    ok = report.ok(args.tolerance, strict=args.strict)
    if args.json:
        payload = report.to_dict()
        payload["ok"] = ok
        payload["tolerance_pct"] = args.tolerance
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if ok else 1
    print(report.table())
    verdict = "OK" if ok else "FAIL"
    print(
        f"{verdict}: {args.name} over-execution {report.over_pct:.3f}% "
        f"(tolerance {args.tolerance:g}%)"
        + (
            f", under-execution {report.under_pct:.3f}%"
            if args.strict
            else ""
        )
    )
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        cache_dir=args.cache_dir,
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
        store=args.store,
        stream=getattr(args, "stream", None),
        max_queue=args.max_queue,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        timeout=args.timeout,
        retries=args.retries,
    )
    def announce(address):
        # printed only once the socket is bound, so --port 0 reports
        # the ephemeral port actually chosen, not the literal 0
        host, port = address
        print(
            f"repro serve on {host}:{port} "
            f"({config.workers} warm workers; "
            "POST /shutdown or Ctrl-C to stop)",
            flush=True,
        )

    app = run_server(config, on_bound=announce)
    counters = app.counters
    print(
        f"served {counters.submitted} submissions "
        f"({counters.executed} executed, {counters.deduped} deduped, "
        f"hit rate {counters.dedupe_hit_rate:.2f})"
    )
    return 0


def _cmd_submit(args) -> int:
    import json as json_module

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, client_id=args.client_id)
    request = {
        "benchmark": args.name,
        "machine": args.machine,
        "nodes": _effective_nodes(args.machine, args.nodes),
        "tier": args.tier,
        "params": _parse_params(args.param),
    }
    try:
        payload = client.submit(
            request,
            wait=not args.no_wait,
            timeout=args.timeout,
            busy_retries=args.busy_retries,
        )
    except ServeError as exc:
        raise SystemExit(f"submit failed ({exc.status}): {exc}") from None
    if args.json:
        print(json_module.dumps(payload, sort_keys=True, indent=2))
        return 0 if payload["job"].get("status") in ("ok", "cached", None) else 1
    job = payload["job"]
    print(
        f"{job['benchmark']}  state={job['state']} "
        f"status={job.get('status') or '-'} source={job['source']} "
        f"hash={job['request_hash'][:12]}"
    )
    report = payload.get("report")
    if report is not None:
        print(
            f"  elapsed {report['elapsed_time_s']:.6f}s  "
            f"busy {report['busy_time_s']:.6f}s  "
            f"{report['busy_floprate_mflops']:.2f} MFLOP/s"
        )
    if job.get("error"):
        print(f"  error: {job['error']}")
    return 0 if job.get("status") in ("ok", "cached", None) else 1


def _cmd_watch(args) -> int:
    import json as json_module

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, client_id=args.client_id)
    if args.dash:
        from repro.obs.dash import run_dashboard
        from repro.obs.expo import parse_exposition

        failures = {"n": 0}

        def _poll():
            try:
                families = parse_exposition(client.metrics())
            except Exception:
                failures["n"] += 1
                raise
            failures["n"] = 0
            return families

        try:
            run_dashboard(
                _poll,
                interval=args.interval,
                title=f"repro serve {args.host}:{args.port}",
                stop=lambda: failures["n"] >= 3,
            )
        except KeyboardInterrupt:
            pass
        return 0
    try:
        for event in client.watch(count=args.count, timeout=args.timeout):
            if args.json:
                print(json_module.dumps(event, sort_keys=True), flush=True)
                continue
            kind = event.get("kind")
            if kind == "run_started":
                print(
                    f"[{event.get('seq')}] server up: run {event.get('run_id')} "
                    f"({event.get('workers')} workers)",
                    flush=True,
                )
            elif kind == "job_finished":
                print(
                    f"[{event.get('seq')}] {event.get('benchmark')}: "
                    f"{event.get('status')} "
                    f"(attempts={event.get('attempts')}, "
                    f"wall={event.get('wall_time_s', 0.0):.3f}s)",
                    flush=True,
                )
            else:
                print(
                    f"[{event.get('seq')}] server done: "
                    f"run {event.get('run_id')}",
                    flush=True,
                )
    except ServeError as exc:
        raise SystemExit(f"watch failed ({exc.status}): {exc}") from None
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_telemetry(args) -> int:
    import json as json_module

    from repro.obs.expo import (
        ExpositionError,
        histogram_quantile,
        parse_exposition,
    )

    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {args.file}: {exc}") from None
        source = args.file
    else:
        from repro.serve import ServeClient, ServeError

        client = ServeClient(args.host, args.port, client_id=args.client_id)
        try:
            text = client.metrics()
        except (ServeError, OSError) as exc:
            raise SystemExit(
                f"scrape of {args.host}:{args.port} failed: {exc}"
            ) from None
        source = f"{args.host}:{args.port}"
    try:
        families = parse_exposition(text)
    except ExpositionError as exc:
        raise SystemExit(
            f"{source}: invalid exposition: {exc}"
        ) from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"scrape written to {args.out}")
    if args.json:
        print(json_module.dumps(families, sort_keys=True, indent=2))
    else:
        print(f"# {source}: {len(families)} metric families")
        for name in sorted(families):
            family = families[name]
            print(f"{name} ({family['type']})")
            for series in family["series"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(series["labels"].items())
                )
                key = f"{{{labels}}}" if labels else "(total)"
                if family["type"] == "histogram":
                    count = series["count"]
                    if count:
                        stats = {
                            "buckets": series["buckets"],
                            "sum": series["sum"],
                            "count": count,
                        }
                        print(
                            f"  {key}  count={count:g} "
                            f"mean={series['sum'] / count:.6g} "
                            f"p50<={histogram_quantile(stats, 0.5):g} "
                            f"p99<={histogram_quantile(stats, 0.99):g}"
                        )
                    else:
                        print(f"  {key}  count=0")
                else:
                    print(f"  {key}  {series['value']:g}")
    if args.slo:
        from repro.obs.slo import SLOSpecError, evaluate_slos, load_slo_spec

        try:
            spec = load_slo_spec(args.slo)
        except OSError as exc:
            raise SystemExit(
                f"cannot read SLO spec {args.slo}: {exc}"
            ) from None
        except SLOSpecError as exc:
            raise SystemExit(f"bad SLO spec {args.slo}: {exc}") from None
        report = evaluate_slos(spec, families)
        print()
        print(report.table())
        return 0 if report.ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DPF benchmark suite (IPPS 1997) — Python reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_machine_args(p):
        p.add_argument(
            "--machine", choices=sorted(PRESETS), default="cm5",
            help="simulated machine preset (default: cm5)",
        )
        p.add_argument(
            "--nodes", type=int, default=None,
            help="node count (default: 32; workstation is fixed at 1)",
        )
        p.add_argument(
            "--tier",
            choices=[t.value for t in VersionTier],
            default="basic",
            help="code-version tier of Table 1 (default: basic)",
        )

    def _add_engine_args(p):
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for parallel execution (default: 1)",
        )
        p.add_argument(
            "--cache-dir", metavar="DIR",
            help="content-addressed result cache; unchanged (request, "
            "code) pairs are served from disk without re-simulating",
        )
        p.add_argument(
            "--store", metavar="PATH",
            help="append every result to this JSONL run store",
        )
        p.add_argument(
            "--timeout", type=float, metavar="SEC",
            help="per-job timeout in seconds (enforced in --jobs>1 mode)",
        )
        p.add_argument(
            "--retries", type=int, default=0, metavar="K",
            help="retries per failed job before recording it (default: 0)",
        )
        p.add_argument(
            "--trace", metavar="PATH",
            help="write structured engine events to this JSONL trace",
        )
        p.add_argument(
            "--stream", metavar="PATH",
            help="append live JSONL run events (with per-job span "
            "summaries) to this file as jobs finish",
        )
        p.add_argument(
            "--cache-prune", action="store_true",
            help="drop stale-fingerprint cache buckets and crashed-put "
            "tmp files before running (needs --cache-dir)",
        )
        p.add_argument(
            "--cache-max-bytes", type=int, metavar="N",
            help="LRU-evict cache entries (oldest access first) down to "
            "this byte budget before running; implies --cache-prune",
        )

    p_list = sub.add_parser("list", help="list registered benchmarks")
    p_list.add_argument("-v", "--verbose", action="store_true")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("name")
    p_run.add_argument(
        "--param", action="append", metavar="K=V",
        help="benchmark parameter override (repeatable)",
    )
    p_run.add_argument("--json", metavar="PATH", help="write report as JSON")
    _add_machine_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the whole suite")
    _add_machine_args(p_suite)
    _add_engine_args(p_suite)
    p_suite.add_argument(
        "--telemetry-out", metavar="PATH",
        help="after the run, write this process's telemetry registry "
        "as Prometheus text exposition",
    )
    p_suite.set_defaults(fn=_cmd_suite)

    p_tables = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tables.add_argument(
        "numbers", nargs="*", type=int, help="table numbers (default: all)"
    )
    _add_machine_args(p_tables)
    _add_engine_args(p_tables)
    p_tables.set_defaults(fn=_cmd_tables)

    p_profile = sub.add_parser(
        "profile",
        help="run one benchmark under the span collector and print a "
        "simulated-time profile",
    )
    p_profile.add_argument("name")
    p_profile.add_argument(
        "--param", action="append", metavar="K=V",
        help="benchmark parameter override (repeatable)",
    )
    p_profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="regions to show in the busy-time ranking (default: 10)",
    )
    p_profile.add_argument(
        "--chrome", metavar="PATH",
        help="also export a Chrome trace-event JSON of the run "
        "(Perfetto-loadable)",
    )
    p_profile.add_argument(
        "--folded", metavar="PATH",
        help="also write folded stacks (flamegraph.pl / speedscope "
        "format)",
    )
    _add_machine_args(p_profile)
    p_profile.set_defaults(fn=_cmd_profile)

    p_trace = sub.add_parser(
        "trace", help="work with exported trace files"
    )
    sub_trace = p_trace.add_subparsers(dest="trace_command", required=True)
    p_export = sub_trace.add_parser(
        "export",
        help="re-emit a stored run as a Chrome trace file rebuilt from "
        "its report segments",
    )
    p_export.add_argument(
        "run", nargs="?", default="latest",
        help="run reference: id prefix, 'latest' (default) or @N",
    )
    p_export.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_export.add_argument(
        "-o", "--output", metavar="PATH",
        help="output file (default: trace_<run-id>.json)",
    )
    p_export.add_argument(
        "--benchmark", metavar="NAME", help="only this benchmark"
    )
    p_export.set_defaults(fn=_cmd_trace_export)

    p_sweep = sub.add_parser(
        "sweep", help="sweep a benchmark parameter or the node count"
    )
    p_sweep.add_argument("name")
    p_sweep.add_argument(
        "--over", required=True, metavar="PARAM",
        help="parameter to sweep ('nodes' sweeps the machine size)",
    )
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated values, e.g. 8,16,32",
    )
    p_sweep.add_argument(
        "--param", action="append", metavar="K=V",
        help="fixed benchmark parameter (repeatable)",
    )
    _add_machine_args(p_sweep)
    _add_engine_args(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="declarative machine-space sweeps run through the engine "
        "(parallel, cached, resumable) with roofline analytics",
    )
    sub_campaign = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _add_campaign_paths(p):
        p.add_argument(
            "--root", default=".repro/campaigns", metavar="DIR",
            help="directory campaigns keep stores/caches under "
            "(default: .repro/campaigns)",
        )
        p.add_argument(
            "--store", metavar="PATH",
            help="override the campaign's run store location",
        )
        p.add_argument(
            "--cache-dir", metavar="DIR",
            help="override the campaign's result cache location",
        )

    p_crun = sub_campaign.add_parser(
        "run",
        help="compile a campaign spec and execute its plan; a rerun of "
        "a killed campaign skips completed points via the cache",
    )
    p_crun.add_argument("spec", help="campaign spec JSON file")
    p_crun.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1)",
    )
    p_crun.add_argument(
        "--timeout", type=float, metavar="SEC",
        help="per-job timeout in seconds (enforced in --jobs>1 mode)",
    )
    p_crun.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="retries per failed job (default: 0)",
    )
    p_crun.add_argument(
        "--report", metavar="PATH",
        help="also write the roofline report JSON here",
    )
    p_crun.add_argument(
        "--dash", action="store_true",
        help="live terminal dashboard while the campaign runs (full "
        "repaint on a TTY, one line per tick otherwise)",
    )
    p_crun.add_argument(
        "--interval", type=float, default=1.0, metavar="SEC",
        help="dashboard refresh interval (default: 1.0)",
    )
    _add_campaign_paths(p_crun)
    p_crun.set_defaults(fn=_cmd_campaign_run)

    p_cstatus = sub_campaign.add_parser(
        "status",
        help="completion picture of a campaign: points answered by its "
        "cache vs still pending",
    )
    p_cstatus.add_argument("spec", help="campaign spec JSON file")
    p_cstatus.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    _add_campaign_paths(p_cstatus)
    p_cstatus.set_defaults(fn=_cmd_campaign_status)

    p_creport = sub_campaign.add_parser(
        "report",
        help="roofline / arithmetic-intensity analytics plus "
        "strong-scaling series of a stored campaign run",
    )
    p_creport.add_argument("spec", help="campaign spec JSON file")
    p_creport.add_argument(
        "--run", default="latest",
        help="run reference: id prefix, 'latest' (default) or @N",
    )
    p_creport.add_argument(
        "--out", metavar="PATH", help="write the report document as JSON"
    )
    p_creport.add_argument(
        "--plot", metavar="SVG",
        help="render the roofline as a dependency-free SVG plot "
        "(validated before writing)",
    )
    p_creport.add_argument(
        "--no-strict", action="store_true",
        help="mark unreconciled points instead of failing (stores "
        "written before the FLOP-kind breakdown)",
    )
    _add_campaign_paths(p_creport)
    p_creport.set_defaults(fn=_cmd_campaign_report)

    p_cdiff = sub_campaign.add_parser(
        "diff",
        help="gate one campaign run against another (run A is the "
        "baseline); exits non-zero on regression",
    )
    p_cdiff.add_argument("spec", help="campaign spec JSON file")
    p_cdiff.add_argument("run_a", help="baseline run reference")
    p_cdiff.add_argument("run_b", help="current run reference")
    p_cdiff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="PCT",
        help="allowed worse-direction drift per metric (default: 0)",
    )
    p_cdiff.add_argument(
        "--strict", action="store_true",
        help="also fail on benchmarks only run B measured",
    )
    _add_campaign_paths(p_cdiff)
    p_cdiff.set_defaults(fn=_cmd_campaign_diff)

    p_engine = sub.add_parser(
        "engine", help="inspect the execution engine's run store"
    )
    sub_engine = p_engine.add_subparsers(dest="engine_command", required=True)

    p_runs = sub_engine.add_parser("runs", help="list stored runs")
    p_runs.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_runs.set_defaults(fn=_cmd_engine_runs)

    p_history = sub_engine.add_parser(
        "history", help="print stored per-job records"
    )
    p_history.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_history.add_argument(
        "--benchmark", metavar="NAME", help="only this benchmark"
    )
    p_history.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the most recent N records",
    )
    p_history.set_defaults(fn=_cmd_engine_history)

    p_diff = sub_engine.add_parser(
        "diff", help="compare two stored runs (unique id prefixes accepted)"
    )
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    p_diff.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_diff.set_defaults(fn=_cmd_engine_diff)

    p_stats = sub_engine.add_parser(
        "stats",
        help="per-run scheduler metrics: throughput, queue wait, "
        "utilization, cache hits, retry/timeout histograms",
    )
    p_stats.add_argument(
        "run", nargs="?", default="latest",
        help="run reference: id prefix, 'latest' (default) or @N",
    )
    p_stats.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_stats.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    p_stats.set_defaults(fn=_cmd_engine_stats)

    p_check = sub_engine.add_parser(
        "check",
        help="gate a run's metrics against a baseline run or file; "
        "exits non-zero on regression",
    )
    p_check.add_argument(
        "run", nargs="?", default="latest",
        help="run reference: id prefix, 'latest' (default) or @N",
    )
    p_check.add_argument(
        "--baseline", metavar="RUN|FILE",
        help="baseline: a run reference in the store, or a JSON file "
        "with a 'benchmarks' map (e.g. `engine stats --json` output); "
        "optional when --slo is given",
    )
    p_check.add_argument(
        "--slo", metavar="FILE",
        help="also evaluate this SLO spec (JSON) against a saved "
        "/metrics scrape; failing objectives fail the check",
    )
    p_check.add_argument(
        "--scrape", metavar="FILE",
        help="Prometheus text exposition the --slo objectives read "
        "(e.g. saved via `repro telemetry --out`)",
    )
    p_check.add_argument(
        "--tolerance", type=float, default=5.0, metavar="PCT",
        help="allowed worse-direction drift per metric in percent "
        "(default: 5)",
    )
    p_check.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"run store to read (default: {DEFAULT_STORE})",
    )
    p_check.add_argument(
        "--strict", action="store_true",
        help="also fail on benchmarks absent from the baseline "
        "(coverage drift), not just regressions",
    )
    p_check.set_defaults(fn=_cmd_engine_check)

    p_checker = sub.add_parser(
        "check",
        help="accounting linter (RC001-RC006) and runtime FLOP/comm "
        "sanitizer",
    )
    sub_check = p_checker.add_subparsers(dest="check_command", required=True)

    p_lint = sub_check.add_parser(
        "lint",
        help="static accounting linter over benchmark sources; exits "
        "non-zero on non-baselined findings",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="output format (default: text); sarif emits a SARIF 2.1.0 "
        "document for code-scanning upload",
    )
    p_lint.add_argument(
        "--baseline", metavar="PATH",
        help="suppression file (default: .repro-check.toml if present)",
    )
    p_lint.add_argument(
        "--interprocedural", action="store_true", default=True,
        help="build the whole-scope call graph so taint flows through "
        "helpers and the RC008/RC1xx families run (default)",
    )
    p_lint.add_argument(
        "--no-interprocedural", dest="interprocedural",
        action="store_false",
        help="per-function rules only (the pre-call-graph behaviour)",
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="report findings only for files changed vs git HEAD "
        "(plus untracked); the call graph still spans the full scope",
    )
    p_lint.add_argument(
        "--write-baseline", metavar="PATH",
        help="write a baseline covering the current active findings "
        "(reasons left to fill in) and exit",
    )
    p_lint.add_argument(
        "--fail-on-stale", action="store_true",
        help="also exit non-zero when baseline entries match nothing",
    )
    p_lint.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list baselined findings",
    )
    p_lint.set_defaults(fn=_cmd_check_lint)

    p_audit = sub_check.add_parser(
        "audit",
        help="run one benchmark with shadow-counted numpy execution and "
        "diff it against the charged FLOPs/comm",
    )
    p_audit.add_argument("name", help="registered benchmark name")
    p_audit.add_argument(
        "--tolerance", type=float, default=0.0, metavar="PCT",
        help="allowed over-execution (uncharged work) in percent of "
        "charged FLOPs (default: 0)",
    )
    p_audit.add_argument(
        "--strict", action="store_true",
        help="also gate under-execution and unmapped ufuncs (only for "
        "fully-observable benchmarks with no raw-array kernels)",
    )
    p_audit.add_argument(
        "--param", action="append", metavar="K=V",
        help="benchmark parameter override (repeatable)",
    )
    p_audit.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    _add_machine_args(p_audit)
    p_audit.set_defaults(fn=_cmd_check_audit)

    def _add_client_args(p):
        p.add_argument(
            "--host", default="127.0.0.1", help="server host (default: local)"
        )
        p.add_argument(
            "--port", type=int, default=8765,
            help="server port (default: 8765)",
        )
        p.add_argument(
            "--client-id", metavar="ID",
            help="client identity for per-client rate limiting",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the benchmark server: warm worker pool, request "
        "dedupe, sharded store, live event subscriptions",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: local)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 binds an ephemeral port (default: 8765)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="resident warm worker processes (default: 2)",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache shared with CLI runs",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=int, metavar="N",
        help="LRU byte budget for the cache, enforced periodically",
    )
    p_serve.add_argument(
        "--store", metavar="DIR",
        help="sharded run store directory (records land in per-prefix "
        "shard files; inspect with the usual `repro engine ...` commands)",
    )
    p_serve.add_argument(
        "--stream", metavar="PATH",
        help="also append every event to this JSONL file",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="bound on concurrently admitted unique jobs; beyond it "
        "submissions get 429 + Retry-After (default: 64)",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, metavar="R",
        help="per-client admission rate in requests/second "
        "(default: unlimited)",
    )
    p_serve.add_argument(
        "--rate-burst", type=int, default=8, metavar="N",
        help="token-bucket burst per client (default: 8)",
    )
    p_serve.add_argument(
        "--timeout", type=float, metavar="SEC",
        help="per-attempt job timeout in seconds",
    )
    p_serve.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="retries per failed job (default: 0)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one benchmark run to a repro serve instance"
    )
    p_submit.add_argument("name", help="registered benchmark name")
    p_submit.add_argument(
        "--param", action="append", metavar="K=V",
        help="benchmark parameter override (repeatable)",
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return the 202 acknowledgment instead of blocking for "
        "the result",
    )
    p_submit.add_argument(
        "--timeout", type=float, metavar="SEC",
        help="seconds to wait server-side before answering 202",
    )
    p_submit.add_argument(
        "--busy-retries", type=int, default=8, metavar="K",
        help="re-submissions after 429 backpressure, honoring the "
        "server's Retry-After (default: 8)",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="print the full job payload"
    )
    _add_machine_args(p_submit)
    _add_client_args(p_submit)
    p_submit.set_defaults(fn=_cmd_submit)

    p_watch = sub.add_parser(
        "watch", help="follow a repro serve instance's live event stream"
    )
    p_watch.add_argument(
        "--count", type=int, metavar="N",
        help="stop after N events (default: until the server stops)",
    )
    p_watch.add_argument(
        "--timeout", type=float, metavar="SEC",
        help="socket timeout while waiting for the next event",
    )
    p_watch.add_argument(
        "--json", action="store_true", help="print raw event JSON lines"
    )
    p_watch.add_argument(
        "--dash", action="store_true",
        help="poll /metrics and render a live terminal dashboard "
        "instead of tailing the event stream",
    )
    p_watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SEC",
        help="dashboard refresh interval (default: 1.0)",
    )
    _add_client_args(p_watch)
    p_watch.set_defaults(fn=_cmd_watch)

    p_telemetry = sub.add_parser(
        "telemetry",
        help="scrape and summarize a /metrics exposition (live server "
        "or saved file), optionally gating SLOs",
    )
    p_telemetry.add_argument(
        "--file", metavar="PATH",
        help="read a saved exposition instead of scraping a server",
    )
    p_telemetry.add_argument(
        "--out", metavar="PATH",
        help="also save the raw scrape here (feed to `engine check "
        "--slo --scrape`)",
    )
    p_telemetry.add_argument(
        "--json", action="store_true",
        help="emit the parsed families as JSON instead of a summary",
    )
    p_telemetry.add_argument(
        "--slo", metavar="FILE",
        help="evaluate this SLO spec against the scrape; exits "
        "non-zero when an objective fails",
    )
    _add_client_args(p_telemetry)
    p_telemetry.set_defaults(fn=_cmd_telemetry)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro engine history | head`
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
