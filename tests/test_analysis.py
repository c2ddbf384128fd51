"""Tests for the analysis package: ratios, comparisons, traces."""

import pytest

from repro import Session, cm5, workstation
from repro.analysis.compare import compare_environments, find_crossover
from repro.analysis.ratios import comm_to_comp_ratio, grain_size, pattern_mix
from repro.analysis.trace import trace_summary
from repro.metrics.patterns import CommPattern
from repro.suite import run_benchmark
from repro.versions import VersionTier


class TestRatios:
    def test_grain_size_matches_ops_per_point(self, session):
        rep = run_benchmark("diff-3d", session, nx=10, steps=4)
        assert grain_size(rep) == rep.ops_per_point

    def test_summary_fields(self, session):
        rep = run_benchmark("ellip-2d", session, nx=10)
        summary = comm_to_comp_ratio(rep)
        assert summary.benchmark == "ellip-2d"
        assert summary.comm_events_per_iteration == pytest.approx(7.0, abs=0.2)
        assert summary.flops_per_comm_event > 0
        assert 0.0 < summary.busy_fraction <= 1.0

    def test_no_comm_benchmark_infinite_intensity(self, session):
        rep = run_benchmark("gmo", session, ns=64, ntr=8)
        summary = comm_to_comp_ratio(rep)
        assert summary.flops_per_comm_event == float("inf")
        assert summary.classify() == "compute-bound"

    def test_classification_labels(self, session):
        rep = run_benchmark("ellip-2d", session, nx=8)
        label = comm_to_comp_ratio(rep).classify()
        assert label in ("compute-bound", "latency-bound", "bandwidth-bound")

    def test_pattern_mix_sums_to_one(self, session):
        rep = run_benchmark("qptransport", session, iterations=4)
        mix = pattern_mix(rep)
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix[CommPattern.SCATTER] > mix[CommPattern.SORT]

    def test_pattern_mix_empty_for_no_comm(self, session):
        rep = run_benchmark("fermion", session, sites=8, n=4, sweeps=1)
        assert pattern_mix(rep) == {}


class TestCompare:
    BENCHES = {
        "diff-3d": {"nx": 10, "steps": 3},
        "gmo": {"ns": 64, "ntr": 8},
    }

    def test_compare_environments(self):
        cmp = compare_environments(
            ("cm5-basic", lambda: Session(cm5(32))),
            ("cm5-cmssl", lambda: Session(cm5(32), tier=VersionTier.CMSSL)),
            self.BENCHES,
        )
        assert set(cmp.elapsed_a) == set(self.BENCHES)
        # CMSSL-quality code beats basic on every compute benchmark.
        for bench in self.BENCHES:
            assert cmp.speedup(bench) > 1.0
        assert cmp.geomean_speedup() > 1.0
        assert set(cmp.winners().values()) == {"cm5-cmssl"}

    def test_summary_text(self):
        cmp = compare_environments(
            ("a", lambda: Session(cm5(8))),
            ("b", lambda: Session(cm5(64))),
            {"diff-3d": {"nx": 10, "steps": 2}},
        )
        text = cmp.summary()
        assert "a vs b" in text
        assert "geomean" in text

    def test_find_crossover_detects_flip(self):
        """A low-latency small machine beats a big machine on tiny
        problems; the big machine overtakes as sizes grow."""
        def small_fast():
            return Session(
                cm5(4).with_overrides(
                    network=cm5(4).network.with_overrides(
                        latency_news=1e-6,
                        latency_tree=1e-6,
                        latency_router=2e-6,
                    )
                )
            )

        def big():
            return Session(cm5(256))
        crossover = find_crossover(
            "ellip-2d", small_fast, big, "nx", [8, 32, 64],
        )
        assert crossover == 64

    def test_find_crossover_none_when_no_flip(self):
        def slow():
            return Session(cm5(2))

        def fast():
            return Session(cm5(2))
        result = find_crossover(
            "diff-3d", fast, slow, "nx", [8], fixed_params={"steps": 2}
        )
        assert result is None


class TestTrace:
    def test_trace_summary_table(self, session):
        run_benchmark("qptransport", session, iterations=4)
        text = trace_summary(session.recorder)
        assert "scatter" in text
        assert "sort" in text
        assert "count" in text


class TestBisectionBandwidth:
    """Paper §2: transpose 'may be used to confirm advertised
    bisection bandwidths' — the sweep must recover the model value."""

    def test_recovers_cm5_bandwidth(self):
        from repro.analysis.bandwidth import measure_bisection_bandwidth

        machine = cm5(32)
        fit = measure_bisection_bandwidth(machine)
        assert fit.advertised_ratio(machine) == pytest.approx(1.0, rel=0.05)

    def test_detects_thin_bisection(self):
        from repro.analysis.bandwidth import measure_bisection_bandwidth

        full = cm5(32)
        thin = full.with_overrides(
            network=full.network.with_overrides(bisection_fraction=0.25)
        )
        fit_full = measure_bisection_bandwidth(full)
        fit_thin = measure_bisection_bandwidth(thin)
        assert fit_thin.effective_bandwidth == pytest.approx(
            0.25 * fit_full.effective_bandwidth, rel=0.05
        )

    def test_latency_fit_nonnegative(self):
        from repro.analysis.bandwidth import measure_bisection_bandwidth

        fit = measure_bisection_bandwidth(cm5(16))
        assert fit.latency >= 0.0
        assert len(fit.sizes) == len(fit.elapsed) == len(fit.bytes_moved)

    @pytest.mark.parametrize("machine", [workstation(), cm5(1)], ids=["workstation", "cm5-1"])
    def test_single_node_rejected_before_sweep(self, machine, monkeypatch):
        import repro.analysis.bandwidth as bandwidth

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran on a single node")

        monkeypatch.setattr(bandwidth, "run_benchmark", no_sweep)
        with pytest.raises(ValueError, match="has 1"):
            bandwidth.measure_bisection_bandwidth(machine)
