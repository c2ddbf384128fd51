"""Self-time arithmetic on hand-built span trees, and span export."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Span, Tracer, adopt, layer_self_times, load_spans, self_times  # noqa: E402


def span(span_id, name, start, end, parent=None, request_id=None):
    return Span(name=name, start=start, end=end, parent=parent, span_id=span_id,
                request_id=request_id)


def test_nested_and_back_to_back_children():
    # root [0, 10] has back-to-back children a [1, 4] and b [4, 6], and
    # c [5.5, 7] overlapping b; a has a nested grandchild g [2, 3].
    spans = [
        span(1, "bench.job", 0.0, 10.0),
        span(2, "suite.run_benchmark", 1.0, 4.0, parent=1),
        span(3, "metrics.report_to_dict", 4.0, 6.0, parent=1),
        span(4, "engine.cache.put", 5.5, 7.0, parent=1),
        span(5, "metrics.from_recorder", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    # the union of a, b, c covers [1, 7]: overlap is not subtracted twice,
    # and the grandchild does not reduce the root
    assert own[1] == 4.0
    assert own[2] == 2.0
    assert own[3] == 2.0
    assert own[4] == 1.5
    assert own[5] == 1.0
    assert layer_self_times(spans) == {
        "bench": 4.0,
        "suite": 2.0,
        "metrics": 3.0,
        "engine": 1.5,
    }


def test_children_outside_the_parent_are_clipped():
    spans = [
        span(1, "engine.pool.submit", 0.0, 2.0),
        span(2, "worker.compute", 1.5, 3.0, parent=1),
    ]
    assert self_times(spans)[1] == 1.5


def test_tracer_links_parents_and_exports(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.job", "abc"):
        with tracer.span("suite.run_benchmark"):
            pass
        with tracer.span("metrics.report_to_dict"):
            pass
    path = tracer.export(tmp_path / "spans.jsonl")
    loaded = load_spans(path)
    assert [s.name for s in loaded] == [
        "bench.job", "suite.run_benchmark", "metrics.report_to_dict",
    ]
    root = loaded[0]
    assert all(s.parent == root.span_id for s in loaded[1:])
    assert all(s.request_id == "abc" for s in loaded)
    own = self_times(loaded)
    assert abs(sum(own.values()) - root.duration) < 1e-9


def test_other_process_roots_are_adopted_by_request_and_interval():
    # two clients submit request r at [0, 10] and [20, 30]; the server's
    # root spans for r fall inside one of them, one for s and one
    # without a request id stay roots, and so does a later replay of r
    spans = [
        span(1, "serve.client.submit", 0.0, 10.0, request_id="r"),
        span(2, "serve.client.submit", 20.0, 30.0, request_id="r"),
        span(3, "engine.cache.get", 1.0, 2.0, request_id="r"),
        span(4, "engine.pool.submit", 2.0, 9.0, request_id="r"),
        span(5, "worker.compute", 3.0, 8.0, parent=4, request_id="r"),
        span(6, "engine.store.append", 21.0, 22.0, request_id="r"),
        span(7, "engine.cache.get", 1.0, 2.0, request_id="s"),
        span(8, "metrics.report_from_dict", 9.0, 9.5),
        span(9, "suite.run_benchmark", 40.0, 41.0, request_id="r"),
    ]
    adopt(spans, "serve.client.submit")
    assert [s.parent for s in spans] == [None, None, 1, 1, 4, 2, None, None, None]
    own = self_times(spans)
    # the first submit keeps [0, 1] and [9, 10]; the pool future keeps
    # its dispatch overhead [2, 3] and [8, 9]
    assert own[1] == 2.0
    assert own[2] == 9.0
    assert own[4] == 2.0
