"""repro.obs: span tracing, Chrome export, profiles, live streaming.

The two load-bearing guarantees, pinned here for every benchmark in
the registry:

* attaching a :class:`SpanCollector` never changes the metrics — the
  canonical report JSON is byte-identical to an unobserved run;
* the collector's totals reconcile with the :class:`PerfReport` of the
  same run *exactly* (``==`` on floats, not approximately): busy and
  elapsed seconds bit-for-bit, FLOP and byte counts as integers.

A worker's span summary, built from its recorder with no collector
attached, equals the summary of the same run observed.
"""

import json

import numpy as np
import pytest

from repro.array import from_numpy
from repro.cli import main
from repro.comm.primitives import cshift
from repro.engine import Engine, EngineConfig, RunRequest, RunStore, plan_suite
from repro.engine.jobs import execute_request
from repro.engine.pool import _worker_run
from repro.metrics.patterns import CommPattern
from repro.metrics.serialize import canonical_report_json, report_to_dict
from repro.obs import (
    SPAN_SUMMARY_SCHEMA,
    STREAM_EVENT_KINDS,
    EventFanout,
    EventStream,
    SpanCollector,
    chrome_trace,
    chrome_trace_from_report,
    folded_stacks,
    read_stream,
    render_profile,
    validate_chrome_trace,
    write_chrome_trace,
    write_folded,
)
from repro.obs.spans import CATEGORY_COMM_BUSY
from repro.sessions import open_session
from repro.suite import REGISTRY, SMALL_PARAMS, run_benchmark

#: Benchmarks whose main loops run on session.iterations, with
#: any parameter overrides needed to exercise a stepping variant
#: (n-body's default broadcast variant has no time loop).
ITERATION_ADOPTERS = (
    ("diff-1d", {}),
    ("diff-2d", {}),
    ("diff-3d", {}),
    ("conj-grad", {}),
    ("n-body", {"variant": "cshift"}),
    ("n-body", {"variant": "cshift_sym"}),
    ("fft", {}),
)


def traced_run(name, **params):
    """Run one benchmark with a collector attached; return both."""
    session = open_session()
    collector = SpanCollector().attach(session)
    report = run_benchmark(name, session, **params)
    collector.finalize()
    return report, collector


# ----------------------------------------------------------------------
# The tentpole guarantees, across the whole registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_collector_is_metrics_invisible_and_reconciles(name):
    params = SMALL_PARAMS.get(name, {})
    baseline = run_benchmark(name, open_session(), **params)
    base_json = canonical_report_json(report_to_dict(baseline))

    report, collector = traced_run(name, **params)
    assert canonical_report_json(report_to_dict(report)) == base_json, (
        "attaching a SpanCollector changed the canonical report"
    )
    totals = collector.totals()
    # Bit-exact float equality — same summation order as the recorder.
    assert totals["busy_time_s"] == report.busy_time
    assert totals["elapsed_time_s"] == report.elapsed_time
    assert totals["flop_count"] == report.flop_count
    assert totals["network_bytes"] == report.network_bytes


@pytest.mark.parametrize("name,extra", ITERATION_ADOPTERS)
def test_adopters_emit_iteration_spans(name, extra):
    """Every trip is a closed span directly under the main_loop region."""
    params = {**SMALL_PARAMS.get(name, {}), **extra}
    _, collector = traced_run(name, **params)
    parents = {
        id(child): span
        for span in collector.root.walk()
        for child in span.children
    }
    iteration_spans = [
        s for s in collector.root.walk() if s.kind == "iteration"
    ]
    assert iteration_spans, f"{name} produced no iteration spans"
    for span in iteration_spans:
        assert span.end is not None
        assert span.end >= span.start
        parent = parents[id(span)]
        assert (parent.kind, parent.name) == ("region", "main_loop"), (
            f"{name}: {span!r} opened under {parent!r}, not main_loop"
        )


def test_iteration_marker_is_noop_without_collector():
    """With nothing attached, trips are only counted, innermost region."""
    session = open_session()
    with session.region("benchmark") as outer:
        with session.region("main_loop", iterations=3) as inner:
            assert list(session.iterations(range(3))) == [0, 1, 2]
    assert (outer.marked_iterations, inner.marked_iterations) == (0, 3)
    assert [r.name for r in outer.walk()] == ["benchmark", "main_loop"]


def test_break_closes_the_open_iteration_span():
    session = open_session()
    collector = SpanCollector().attach(session)
    with session.region("main_loop", iterations=5) as region:
        for step in session.iterations(range(5)):
            if step == 2:
                break
        spans = [s for s in collector.root.walk() if s.kind == "iteration"]
        # closed at the break, not left for the region exit to close
        assert [(s.index, s.end is not None) for s in spans] == [
            (0, True), (1, True), (2, True),
        ]
    assert region.marked_iterations == 3


# ----------------------------------------------------------------------
# Worker span summaries: from the finished recorder, no collector
# ----------------------------------------------------------------------
SUMMARY_SCALARS = (
    "busy_time_s",
    "elapsed_time_s",
    "compute_time_s",
    "comm_busy_s",
    "comm_idle_s",
    "flop_count",
    "network_bytes",
    "comm_count",
)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_worker_summary_equals_observed_summary(name, monkeypatch):
    request = RunRequest(benchmark=name, params=SMALL_PARAMS.get(name, {}))

    def refuse_attach(self, session):
        raise AssertionError("worker attached an observer")

    with monkeypatch.context() as patch:
        patch.setattr(SpanCollector, "attach", refuse_attach)
        summary = _worker_run(
            {"request": request.to_dict(), "attempt": 1, "spans": True}
        )["spans"]

    collector = SpanCollector()
    execute_request(request, observer=collector)
    collector.finalize()
    assert summary == collector.summary()
    assert summary["schema"] == SPAN_SUMMARY_SCHEMA
    assert "slices" not in summary

    kinds = [s.kind for s in collector.root.walk()]
    assert summary["spans"] == kinds.count("region")
    assert summary["iterations"] == kinds.count("iteration")

    totals = collector.totals()
    for key in SUMMARY_SCALARS:
        assert summary[key] == totals[key], key
    # totals() and span_summary read one recorder: per-pattern busy and
    # idle seconds agree exactly, like the counts and bytes.
    assert summary["patterns"] == totals["patterns"]


# ----------------------------------------------------------------------
# Collector mechanics
# ----------------------------------------------------------------------
class TestSpanCollector:
    def test_span_tree_shape(self):
        _, collector = traced_run("diff-2d", nx=16, steps=3)
        root = collector.root
        assert root.kind == "run"
        kinds = {s.kind for s in root.walk()}
        assert kinds == {"run", "region", "iteration"}
        main_loop = [
            s for s in root.walk()
            if s.kind == "region" and s.name == "main_loop"
        ]
        assert main_loop
        assert sum(
            1 for s in main_loop[0].walk() if s.kind == "iteration"
        ) == 3

    def test_slices_tile_the_timeline(self):
        report, collector = traced_run("diff-2d", nx=16, steps=3)
        assert collector.slices
        cursor = 0.0
        for sl in collector.slices:
            assert sl.start == cursor  # sequential simulated clock
            assert sl.end >= sl.start
            cursor = sl.end
        assert cursor == collector.now
        # The running clock accumulates one slice at a time, so it can
        # differ from the report total by float-summation order (ULPs);
        # the bit-exact path is totals(), not the timeline cursor.
        assert cursor == pytest.approx(report.elapsed_time, rel=1e-12)

    def test_double_attach_rejected(self):
        session = open_session()
        SpanCollector().attach(session)
        with pytest.raises(RuntimeError, match="observer"):
            SpanCollector().attach(session)

    def test_collector_reuse_rejected(self):
        collector = SpanCollector()
        collector.attach(open_session())
        with pytest.raises(RuntimeError):
            collector.attach(open_session())

    def test_finalize_idempotent_and_detaches(self):
        session = open_session()
        collector = SpanCollector().attach(session)
        run_benchmark("fft", session, n=64)
        assert collector.finalize() is collector
        assert session.recorder.observer is None
        collector.finalize()  # no-op, no error
        assert collector.root.end is not None

    def test_summary_schema_and_totals(self):
        report, collector = traced_run("conj-grad", n=96)
        summary = collector.summary()
        assert summary["schema"] == SPAN_SUMMARY_SCHEMA
        assert summary["flop_count"] == report.flop_count
        assert summary["network_bytes"] == report.network_bytes
        assert summary["busy_time_s"] == report.busy_time
        assert summary["iterations"] == report.iterations
        assert summary["top_regions"]
        assert json.loads(json.dumps(summary)) == summary  # JSON-safe

    def test_direct_recorder_comm_charge_is_observed(self):
        # charge_comm is the one comm-accounting entry point: a direct
        # call notifies the collector just as Session.record_comm does.
        session = open_session()
        collector = SpanCollector().attach(session)
        with session.region("halo"):
            session.recorder.charge_comm(
                CommPattern.CSHIFT, bytes_network=64, busy_time=0.5
            )
        collector.finalize()
        busy = [s for s in collector.slices if s.category == CATEGORY_COMM_BUSY]
        assert len(busy) == 1
        assert busy[0].pattern == CommPattern.CSHIFT.value
        assert busy[0].bytes_network == 64
        assert busy[0].duration == 0.5

    def test_comm_slices_carry_the_stream_rank(self):
        # The report keys comm streams by (pattern, rank, detail); a
        # shift of a rank-1 and of a rank-2 array share pattern and
        # detail, so only the rank tells their slices apart.
        session = open_session()
        collector = SpanCollector().attach(session)
        cshift(from_numpy(session, np.arange(8.0), "(:)"), 1)
        cshift(from_numpy(session, np.arange(16.0).reshape(4, 4), "(:,:)"), 1)
        collector.finalize()
        busy = [s for s in collector.slices if s.category == CATEGORY_COMM_BUSY]
        assert [(s.detail, s.rank) for s in busy] == [
            ("axis=0, shift=1", 1),
            ("axis=0, shift=1", 2),
        ]
        events = chrome_trace(collector)["traceEvents"]
        assert [
            e["args"]["rank"] for e in events if e.get("cat") == CATEGORY_COMM_BUSY
        ] == [1, 2]

    def test_pattern_attribution_matches_recorder(self):
        session = open_session()
        collector = SpanCollector().attach(session)
        run_benchmark("conj-grad", session, n=96)
        collector.finalize()
        patterns = collector.totals()["patterns"]
        assert {p: a["count"] for p, a in patterns.items()} == {
            p.value: c
            for p, c in session.recorder.root.comm_counts().items()
        }


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_live_trace_is_valid(self):
        _, collector = traced_run("diff-2d", nx=16, steps=3)
        trace = chrome_trace(collector, benchmark="diff-2d")
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"X", "M", "C"}
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"regions", "compute", "comm busy", "comm idle"}

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_counters_are_cumulative_and_end_at_totals(self, name):
        # FLOPs no compute charge claims (scalar charges in conj-grad,
        # lu, qr, ...) still reach the counter via 0 s compute slices.
        report, collector = traced_run(name, **SMALL_PARAMS.get(name, {}))
        trace = chrome_trace(collector, benchmark=name)
        flop_samples = [
            e["args"]["flops"] for e in trace["traceEvents"]
            if e["ph"] == "C" and e["name"] == "cumulative FLOPs"
        ]
        byte_samples = [
            e["args"]["bytes"] for e in trace["traceEvents"]
            if e["ph"] == "C" and e["name"] == "network bytes"
        ]
        assert flop_samples == sorted(flop_samples)
        assert byte_samples == sorted(byte_samples)
        assert flop_samples[-1] == report.flop_count
        assert byte_samples[-1] == report.network_bytes

    def test_trace_from_stored_report(self):
        report, _ = traced_run("conj-grad", n=96)
        trace = chrome_trace_from_report(report)
        assert validate_chrome_trace(trace) == []
        region_events = [
            e for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert {e["name"] for e in region_events} == {
            seg.name for seg in report.segments
        }

    def test_write_roundtrip(self, tmp_path):
        _, collector = traced_run("fft", n=64)
        path = tmp_path / "trace.json"
        write_chrome_trace(chrome_trace(collector), path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace([]) == ["trace is not a JSON object"]
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                              "name": "x", "ts": 0.0, "dur": -1.0}]}
        )
        assert any("invalid dur" in p for p in problems)
        problems = validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        assert any("invalid ph" in p for p in problems)


# ----------------------------------------------------------------------
# Profile report and folded stacks
# ----------------------------------------------------------------------
class TestProfile:
    def test_render_profile_sections(self):
        _, collector = traced_run("conj-grad", n=96)
        text = render_profile(collector, benchmark="conj-grad")
        assert "profile: conj-grad" in text
        assert "top regions by exclusive busy time" in text
        assert "main_loop" in text
        assert "communication by pattern:" in text
        assert "cshift" in text and "reduction" in text

    def test_folded_stack_format(self):
        _, collector = traced_run("diff-2d", nx=16, steps=3)
        lines = folded_stacks(collector, root_frame="diff-2d")
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("diff-2d")
            assert int(value) >= 0
        assert any("diff-2d;main_loop" in line for line in lines)

    def test_folded_values_sum_to_busy_time(self):
        report, collector = traced_run("diff-2d", nx=16, steps=3)
        total_us = sum(
            int(line.rsplit(" ", 1)[1])
            for line in folded_stacks(collector)
        )
        assert total_us == pytest.approx(report.busy_time * 1e6, abs=2.0)

    def test_write_folded(self, tmp_path):
        _, collector = traced_run("fft", n=64)
        path = tmp_path / "stacks.folded"
        write_folded(collector, path, root_frame="fft")
        content = path.read_text().strip().splitlines()
        assert content == folded_stacks(collector, root_frame="fft")


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
class TestEventStream:
    def test_lazy_open_and_seq(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"
        stream = EventStream(path)
        fanout = EventFanout().attach(stream)
        assert not path.exists()  # nothing written yet
        fanout.emit("run_started", run_id="r1", n_jobs=2)
        fanout.emit("job_started", benchmark="fft", attempt=1, batch=1)
        fanout.emit("job_retried", benchmark="fft", attempt=1, status="failed")
        fanout.emit("job_finished", benchmark="fft", status="ok")
        fanout.emit("run_finished", duration_s=1.0)
        handle = stream._fh
        fanout.close()
        assert handle.closed  # closing the fan-out closes its file sinks
        events = read_stream(path)
        assert [e["kind"] for e in events] == list(STREAM_EVENT_KINDS)
        assert STREAM_EVENT_KINDS == (
            "run_started", "job_started", "job_retried", "job_finished",
            "run_finished",
        )
        assert [e["seq"] for e in events] == [0, 1, 2, 3, 4]
        assert all(isinstance(e["ts"], float) for e in events)


# ----------------------------------------------------------------------
# Engine integration: spans in results, sidecar and stream
# ----------------------------------------------------------------------
SUBSET = ["diff-2d", "conj-grad", "fft"]
SUBSET_PARAMS = {k: SMALL_PARAMS[k] for k in SUBSET}


class TestEngineIntegration:
    def run_engine(self, tmp_path, **config):
        store = tmp_path / "runs.jsonl"
        engine = Engine(EngineConfig(store=store, **config))
        results = engine.run(plan_suite(SUBSET, params=SUBSET_PARAMS))
        return engine, results, store

    def test_serial_span_collection_reconciles(self, tmp_path):
        _, results, _ = self.run_engine(tmp_path, stream=tmp_path / "e.jsonl")
        for result in results:
            assert result.spans is not None
            assert result.spans["schema"] == SPAN_SUMMARY_SCHEMA
            assert result.spans["flop_count"] == result.report.flop_count
            assert result.spans["busy_time_s"] == result.report.busy_time

    def test_pool_workers_forward_span_summaries(self, tmp_path):
        _, results, _ = self.run_engine(
            tmp_path, stream=tmp_path / "e.jsonl", jobs=2
        )
        for result in results:
            assert result.spans is not None
            assert result.spans["flop_count"] == result.report.flop_count

    def test_span_runs_report_identically_to_plain_runs(self, tmp_path):
        _, plain, _ = self.run_engine(tmp_path / "a")
        _, traced, _ = self.run_engine(tmp_path / "b", stream=tmp_path / "e.jsonl")
        for p, t in zip(plain, traced):
            assert canonical_report_json(
                report_to_dict(p.report)
            ) == canonical_report_json(report_to_dict(t.report))

    def test_stream_lifecycle(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        _, results, _ = self.run_engine(tmp_path, stream=events_path)
        events = read_stream(events_path)
        assert events[0]["kind"] == "run_started"
        assert events[0]["n_jobs"] == len(SUBSET)
        assert events[-1]["kind"] == "run_finished"
        assert events[-1]["ok"] == len(SUBSET)
        finished = [e for e in events if e["kind"] == "job_finished"]
        assert {e["benchmark"] for e in finished} == set(SUBSET)
        for event in finished:
            assert event["status"] == "ok"
            assert event["spans"]["schema"] == SPAN_SUMMARY_SCHEMA
        assert [e["seq"] for e in events] == list(range(len(events)))


# ----------------------------------------------------------------------
# CLI: repro profile / repro trace export / repro suite --stream
# ----------------------------------------------------------------------
class TestCLI:
    def test_profile_command(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        folded = tmp_path / "stacks.folded"
        assert main(
            ["profile", "diff-2d", "--param", "nx=16", "--param", "steps=3",
             "--chrome", str(chrome), "--folded", str(folded)]
        ) == 0
        out = capsys.readouterr().out
        assert "profile: diff-2d" in out
        assert "main_loop" in out
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []
        assert "diff-2d;main_loop" in folded.read_text()

    def test_trace_export_from_store(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        out_path = tmp_path / "trace.json"
        engine = Engine(EngineConfig(store=store))
        engine.run(plan_suite(SUBSET, params=SUBSET_PARAMS))
        assert main(
            ["trace", "export", "latest", "--store", str(store),
             "-o", str(out_path)]
        ) == 0
        assert (
            f"exported {len(SUBSET)} report(s)" in capsys.readouterr().out
        )
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        # One process per stored report.
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert len(pids) == len(SUBSET)

    def test_trace_export_benchmark_filter(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        out_path = tmp_path / "trace.json"
        engine = Engine(EngineConfig(store=store))
        engine.run(plan_suite(SUBSET, params=SUBSET_PARAMS))
        assert main(
            ["trace", "export", "latest", "--store", str(store),
             "--benchmark", "fft", "-o", str(out_path)]
        ) == 0
        assert "exported 1 report(s)" in capsys.readouterr().out
        names = {
            e["args"]["name"]
            for e in json.loads(out_path.read_text())["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(names) == 1 and "fft" in next(iter(names))

    def test_trace_export_unknown_run_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no run"):
            main(
                ["trace", "export", "zzz", "--store",
                 str(tmp_path / "runs.jsonl")]
            )

    def test_suite_stream_flag(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        store = tmp_path / "runs.jsonl"
        assert main(
            ["suite", "--store", str(store), "--stream", str(events_path)]
        ) == 0
        events = read_stream(events_path)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_started" and kinds[-1] == "run_finished"
        assert kinds.count("job_finished") == len(REGISTRY)
        # The stream's run id matches the stored run.
        assert events[0]["run_id"] == RunStore(store).run_ids()[-1]
