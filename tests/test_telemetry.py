"""Telemetry acceptance tests: registry, exposition, /metrics parity.

The contract under test: the metrics registry is thread-safe and
label-bounded; the hand-rolled Prometheus text exposition round-trips
through the strict in-tree parser; a live server's ``/metrics``
answers valid exposition whose counters reconcile **exactly** (``==``)
with ``/stats`` after a 16-concurrent-client workload; and telemetry
is benchmark-metrics-invisible — running any registered benchmark
leaves the registry untouched.
"""

import math
import threading

import pytest

from repro.obs import telemetry
from repro.obs.expo import (
    ExpositionError,
    histogram_quantile,
    histogram_stats,
    parse_exposition,
    render_exposition,
    series_value,
)
from repro.obs.telemetry import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.sessions import open_session
from repro.suite import REGISTRY, SMALL_PARAMS, run_benchmark


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "a counter", labels=("kind",))
        c.labels(kind="x").inc()
        c.labels(kind="x").inc(4)
        c.labels(kind="y").inc(2)
        g = reg.gauge("t_depth", "a gauge")
        g.set(7)
        h = reg.histogram("t_lat_seconds", "a histogram")
        h.observe(0.003)
        h.observe(0.04)
        fam = reg.collect()
        assert series_value(fam, "t_total", {"kind": "x"}) == 5
        assert series_value(fam, "t_total", {"kind": "y"}) == 2
        assert series_value(fam, "t_depth") == 7
        stats = histogram_stats(fam, "t_lat_seconds")
        assert stats["count"] == 2
        assert stats["sum"] == pytest.approx(0.043)

    def test_declare_is_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        c1 = reg.counter("t_total", "h")
        c2 = reg.counter("t_total", "h")
        c1.inc()
        c2.inc()
        assert series_value(reg.collect(), "t_total") == 2
        with pytest.raises(ValueError):
            reg.gauge("t_total", "h")
        with pytest.raises(ValueError):
            reg.counter("t_total", "h", labels=("other",))

    def test_histogram_rejects_scalar_ops_and_vice_versa(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_h", "h")
        c = reg.counter("t_c", "c")
        with pytest.raises(TypeError):
            h.inc()
        with pytest.raises(TypeError):
            c.observe(1.0)

    def test_le_label_reserved(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("t_total", "h", labels=("le",))

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "h")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "h")
        h = reg.histogram("t_lat", "h")

        def work():
            for _ in range(1000):
                c.inc()
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fam = reg.collect()
        assert series_value(fam, "t_total") == 8000
        assert histogram_stats(fam, "t_lat")["count"] == 8000

    def test_collectors_run_at_collect_time(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_now", "g")
        state = {"v": 1}
        reg.add_collector(lambda: g.set(state["v"]))
        assert series_value(reg.collect(), "t_now") == 1
        state["v"] = 9
        assert series_value(reg.collect(), "t_now") == 9


class TestExposition:
    def _sample_families(self):
        reg = MetricsRegistry()
        c = reg.counter("t_req_total", "requests", labels=("endpoint",))
        c.labels(endpoint="/submit").inc(3)
        c.labels(endpoint='/we"ird\n\\path').inc(1)
        reg.gauge("t_depth", "queue depth").set(2.5)
        h = reg.histogram("t_lat_seconds", "latency")
        for v in (0.0002, 0.003, 1.7):
            h.observe(v)
        return reg.collect()

    def test_round_trip(self):
        fam = self._sample_families()
        text = render_exposition(fam)
        assert render_exposition(parse_exposition(text)) == text

    def test_rendered_shape(self):
        text = render_exposition(self._sample_families())
        assert "# TYPE t_req_total counter" in text
        assert "# TYPE t_lat_seconds histogram" in text
        assert 't_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "t_lat_seconds_count 3" in text
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "bad",
        [
            # samples before their TYPE line
            "t_x 1\n# HELP t_x h\n# TYPE t_x counter\n",
            # double space between name and value
            "# HELP t_x h\n# TYPE t_x counter\nt_x  1\n",
            # duplicate series
            "# HELP t_x h\n# TYPE t_x counter\nt_x 1\nt_x 2\n",
            # unknown type
            "# HELP t_x h\n# TYPE t_x summary\nt_x 1\n",
            # histogram without +Inf bucket
            "# HELP t_h h\n# TYPE t_h histogram\n"
            't_h_bucket{le="1"} 1\nt_h_sum 1\nt_h_count 1\n',
            # histogram with non-monotonic cumulative counts
            "# HELP t_h h\n# TYPE t_h histogram\n"
            't_h_bucket{le="1"} 2\nt_h_bucket{le="2"} 1\n'
            't_h_bucket{le="+Inf"} 2\nt_h_sum 1\nt_h_count 2\n',
            # count disagrees with the +Inf bucket
            "# HELP t_h h\n# TYPE t_h histogram\n"
            't_h_bucket{le="+Inf"} 2\nt_h_sum 1\nt_h_count 3\n',
            # inconsistent label sets within a family
            "# HELP t_x h\n# TYPE t_x counter\n"
            't_x{a="1"} 1\nt_x{b="2"} 1\n',
            # reserved le label on a counter
            "# HELP t_x h\n# TYPE t_x counter\n" 't_x{le="1"} 1\n',
            # garbage value
            "# HELP t_x h\n# TYPE t_x counter\nt_x one\n",
        ],
    )
    def test_strict_parser_rejects(self, bad):
        with pytest.raises(ExpositionError):
            parse_exposition(bad)

    def test_quantile_upper_bound_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_lat", "h")
        for v in (0.003, 0.2, 120.0):
            h.observe(v)
        stats = histogram_stats(reg.collect(), "t_lat")
        assert histogram_quantile(stats, 0.5) == 0.25
        assert math.isinf(histogram_quantile(stats, 0.999))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("telemetry-serve")
    config = ServeConfig(
        port=0,
        workers=2,
        cache_dir=str(tmp / "cache"),
        store=str(tmp / "runs"),
        timeout=120,
    )
    with ServerThread(config) as (host, port):
        yield host, port


class TestMetricsEndpoint:
    def test_scrape_parses_and_has_inventory(self, server):
        host, port = server
        client = ServeClient(host, port)
        client.submit({"benchmark": "n-body", "params": {"n": 16}})
        families = parse_exposition(client.metrics())
        for name in (
            "repro_serve_requests_total",
            "repro_serve_request_latency_seconds",
            "repro_serve_submissions_total",
            "repro_serve_dedupe_hit_rate",
            "repro_serve_queue_depth",
            "repro_serve_jobs_total",
            "repro_serve_dispatch_latency_seconds",
            "repro_serve_subscribers",
            "repro_serve_events_dropped_total",
            "repro_serve_pool_restarts_total",
            "repro_cache_requests_total",
        ):
            assert name in families, f"{name} missing from /metrics"
        assert (
            series_value(
                families, "repro_serve_submissions_total",
                {"outcome": "executed"},
            )
            >= 1
        )

    def test_sixteen_client_workload_reconciles_exactly(self, server):
        """Counters on /metrics == counters on /stats, no drift."""
        host, port = server
        errors = []

        def hammer(i):
            try:
                c = ServeClient(host, port, client_id=f"c{i}")
                c.submit(
                    {"benchmark": "n-body", "params": {"n": 12 + (i % 4)}},
                    busy_retries=16,
                )
                c.stats()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        client = ServeClient(host, port)
        stats = client.stats()
        families = parse_exposition(client.metrics())
        counters = stats["counters"]
        for outcome in (
            "submitted",
            "executed",
            "coalesced",
            "served_cached",
            "rejected_queue",
            "rejected_rate",
        ):
            assert (
                series_value(
                    families, "repro_serve_submissions_total",
                    {"outcome": outcome},
                )
                == counters[outcome]
            ), f"{outcome} drifted from /stats"
        assert (
            series_value(families, "repro_serve_dedupe_hit_rate")
            == counters["dedupe_hit_rate"]
        )
        assert series_value(families, "repro_serve_queue_depth") == (
            stats["active"]
        )
        assert series_value(families, "repro_serve_subscribers") == (
            stats["subscribers"]
        )
        assert series_value(
            families, "repro_serve_events_dropped_total"
        ) == stats["dropped_events"]
        assert series_value(
            families, "repro_serve_pool_restarts_total"
        ) == max(0, stats["pool_generation"] - 1)

    def test_label_cardinality_is_bounded(self, server):
        """No per-run-id / per-hash label leaks: label values stay in
        small closed sets even after a varied workload."""
        host, port = server
        client = ServeClient(host, port)
        payload = client.submit({"benchmark": "fft", "params": {"n": 128}})
        client.result(payload["job"]["request_hash"])
        client.health()
        families = parse_exposition(client.metrics())
        for family in families.values():
            assert len(family["series"]) <= 16
        endpoints = {
            s["labels"]["endpoint"]
            for s in families["repro_serve_requests_total"]["series"]
        }
        assert endpoints <= {
            "/healthz", "/stats", "/submit", "/result", "/events",
            "/shutdown", "/metrics", "other",
        }
        # the per-request hash must not appear in any label value
        request_hash = payload["job"]["request_hash"]
        for family in families.values():
            for series in family["series"]:
                assert request_hash not in "".join(
                    series["labels"].values()
                )

    def test_stats_exposes_dropped_events_field(self, server):
        host, port = server
        stats = ServeClient(host, port).stats()
        assert "dropped_events" in stats
        assert stats["dropped_events"] >= 0

    def test_metrics_content_type(self, server):
        import http.client

        host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            parse_exposition(body.decode("utf-8"))
        finally:
            conn.close()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_telemetry_is_benchmark_metrics_invisible(name):
    """The simulation never writes the registry: a run leaves it as it was."""
    registry = telemetry.get_registry()
    before = registry.collect()
    run_benchmark(name, open_session("cm5", 32), **SMALL_PARAMS.get(name, {}))
    assert registry.collect() == before


def test_latency_buckets_are_strictly_increasing_and_finite():
    assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)
    assert len(set(LATENCY_BUCKETS_S)) == len(LATENCY_BUCKETS_S)
    assert all(math.isfinite(b) and b > 0 for b in LATENCY_BUCKETS_S)
