"""Integration tests: the full suite end-to-end, and the paper-vs-measured
agreements EXPERIMENTS.md documents."""

import pytest

from repro import Session, cm5
from repro.suite import SMALL_PARAMS, run_benchmark, run_suite
from repro.suite.tables import measure
from repro.suite import analytic


class TestFullSuite:
    def test_all_32_run_and_report(self, session_factory):
        reports = run_suite(session_factory, params=SMALL_PARAMS)
        assert len(reports) == 32
        for name, rep in reports.items():
            assert rep.elapsed_time >= rep.busy_time >= 0.0, name
            assert rep.memory_bytes > 0, name

    def test_flop_producing_benchmarks(self, session_factory):
        reports = run_suite(session_factory, params=SMALL_PARAMS)
        no_flops = {"gather", "scatter", "transpose"}
        for name, rep in reports.items():
            if name in no_flops:
                assert rep.flop_count == 0, name
            else:
                assert rep.flop_count > 0, name

    def test_deterministic_given_seed(self, session_factory):
        a = run_benchmark("md", session_factory(), n_p=8, steps=3)
        b = run_benchmark("md", session_factory(), n_p=8, steps=3)
        assert a.flop_count == b.flop_count
        assert a.extra["energy_final"] == b.extra["energy_final"]


#: benchmarks whose per-iteration communication budget reproduces the
#: paper's Table 4/6 rows exactly (see EXPERIMENTS.md).
EXACT_COMM_ROWS = [
    ("ellip-2d", {"nx": 8}, analytic.ellip2d(8, 8)),
    ("rp", {"nx": 4}, analytic.rp(4, 4, 4)),
    ("diff-2d", {"nx": 16, "steps": 2}, analytic.diff2d(16)),
    ("diff-3d", {"nx": 8, "steps": 2}, analytic.diff3d(8, 8, 8)),
    ("boson", {"nx": 6, "nt": 4, "sweeps": 2}, analytic.boson(4, 6, 6)),
    ("mdcell", {"nc": 3, "steps": 1}, analytic.mdcell(1, 27, 3, 3, 3)),
    ("md", {"n_p": 8, "steps": 2}, analytic.md(8)),
    (
        "pic-gather-scatter",
        {"nx": 8, "n_p": 32, "steps": 1},
        analytic.pic_gather_scatter(32, 8),
    ),
    ("qptransport", {"iterations": 6}, analytic.qptransport(30)),
    ("qmc", {"blocks": 1, "steps_per_block": 5, "n_w": 40}, analytic.qmc(2, 3, 40, 2)),
    ("step4", {"nx": 8, "steps": 1}, analytic.step4(8, 8)),
    ("conj-grad", {"n": 64}, analytic.conj_grad(64)),
    ("gauss-jordan", {"n": 12}, analytic.gauss_jordan(12)),
    ("pcr", {"n": 32}, analytic.pcr(32, 1)),
    ("matrix-vector", {"n": 24, "repeats": 2}, analytic.matvec(24, 24)),
]


class TestPaperCommBudgets:
    @pytest.mark.parametrize(
        "name,params,row", EXACT_COMM_ROWS, ids=[r[0] for r in EXACT_COMM_ROWS]
    )
    def test_comm_per_iteration_matches_table(
        self, session_factory, name, params, row
    ):
        _, _, _, comm = measure(name, session_factory, params)
        for pattern, expected in row.comm_per_iteration.items():
            assert comm.get(pattern, 0.0) == pytest.approx(
                expected, abs=0.25
            ), f"{name}: {pattern}"


class TestExactFlopRows:
    def test_diff3d(self, session_factory):
        _, flops, _, _ = measure("diff-3d", session_factory, {"nx": 10, "steps": 2})
        assert flops == analytic.diff3d(10, 10, 10).flops_per_iteration

    def test_fft_5n_per_stage(self, session_factory):
        _, flops, _, _ = measure("fft", session_factory, {"n": 256})
        assert flops == analytic.fft(256, 1).flops_per_iteration

    def test_qcd_606_per_site(self, session_factory):
        _, flops, _, _ = measure(
            "qcd-kernel", session_factory, {"nx": 2, "iterations": 2}
        )
        assert flops == analytic.qcd_kernel(2, 2, 2, 2).flops_per_iteration

    def test_gmo_6_per_point(self, session_factory):
        _, flops, _, _ = measure("gmo", session_factory, {"ns": 64, "ntr": 8})
        assert flops == analytic.gmo(64 * 8).flops_per_iteration


class TestMemoryRows:
    @pytest.mark.parametrize(
        "name,params,expected",
        [
            ("conj-grad", {"n": 64}, 40 * 64),
            ("diff-3d", {"nx": 8, "steps": 1}, 8 * 512),
            ("diff-2d", {"nx": 16, "steps": 1}, 32 * 256),
            ("wave-1d", {"nx": 32, "steps": 1}, 64 * 32),
            ("pcr", {"n": 32}, 8 * 5 * 32),
        ],
    )
    def test_memory_matches_paper(self, session_factory, name, params, expected):
        _, _, mem, _ = measure(name, session_factory, params)
        assert mem == expected


class TestScalingShape:
    """Qualitative behaviours the paper's metrics are meant to expose."""

    def test_elapsed_speedup_hits_latency_floor(self):
        """Busy time scales with nodes, but elapsed time retains the
        network-latency/synchronization floor — the gap between the
        paper's busy and elapsed FLOP rates."""
        small = run_benchmark("ellip-2d", Session(cm5(4)), nx=12)
        big = run_benchmark("ellip-2d", Session(cm5(256)), nx=12)
        busy_speedup = small.busy_time / big.busy_time
        elapsed_speedup = small.elapsed_time / big.elapsed_time
        assert busy_speedup > elapsed_speedup
        assert big.elapsed_floprate_mflops < big.busy_floprate_mflops

    def test_ops_per_point_independent_of_size(self, session_factory):
        small = run_benchmark("diff-3d", session_factory(), nx=10, steps=3)
        large = run_benchmark("diff-3d", session_factory(), nx=20, steps=3)
        # interior/total ratio differs slightly; ops/point stays ~9.
        assert small.ops_per_point == pytest.approx(
            large.ops_per_point, rel=0.35
        )

    def test_arithmetic_efficiency_below_one(self, session_factory):
        rep = run_benchmark("matrix-vector", session_factory(), n=64)
        assert 0.0 < rep.arithmetic_efficiency < 1.0
