"""Tests for Session charging semantics."""

import pytest

from repro import Session, cm5, workstation
from repro.layout.spec import parse_layout
from repro.metrics.flops import FlopKind
from repro.metrics.patterns import CommPattern
from repro.versions import VersionTier


class TestChargeElementwise:
    def test_charges_full_array_hpf_semantics(self, session):
        layout = parse_layout("(:)", (100,))
        session.charge_elementwise(FlopKind.ADD, layout)
        assert session.recorder.total_flops == 100

    def test_ops_per_element(self, session):
        layout = parse_layout("(:)", (10,))
        session.charge_elementwise(FlopKind.MUL, layout, ops_per_element=3)
        assert session.recorder.total_flops == 30

    def test_weighted_cost(self, session):
        layout = parse_layout("(:)", (10,))
        session.charge_elementwise(FlopKind.DIV, layout)
        assert session.recorder.total_flops == 40

    def test_complex_cost(self, session):
        layout = parse_layout("(:)", (10,))
        session.charge_elementwise(FlopKind.MUL, layout, complex_valued=True)
        assert session.recorder.total_flops == 60

    def test_empty_layout_free(self, session):
        layout = parse_layout("(:)", (0,))
        session.charge_elementwise(FlopKind.ADD, layout)
        assert session.recorder.total_flops == 0

    def test_charges_compute_time(self, session):
        layout = parse_layout("(:)", (1 << 16,))
        session.charge_elementwise(FlopKind.ADD, layout)
        assert session.recorder.busy_time > 0

    def test_distribution_speeds_up_compute(self):
        layout = parse_layout("(:)", (1 << 16,))
        t_many = Session(cm5(64))
        t_many.charge_elementwise(FlopKind.ADD, layout)
        t_one = Session(cm5(1))
        t_one.charge_elementwise(FlopKind.ADD, layout)
        assert t_many.recorder.busy_time < t_one.recorder.busy_time


class TestChargeKernel:
    def test_raw_flops(self, session):
        session.charge_kernel(1234)
        assert session.recorder.total_flops == 1234

    def test_zero_noop(self, session):
        session.charge_kernel(0)
        assert session.recorder.busy_time == 0.0

    def test_critical_fraction_explicit(self, session):
        session.charge_kernel(1_000_000, critical_fraction=1.0)
        full = session.recorder.busy_time
        s2 = Session(session.machine)
        s2.charge_kernel(1_000_000, critical_fraction=0.1)
        assert s2.recorder.busy_time == pytest.approx(full / 10)


class TestChargeReduction:
    def test_sequential_cost(self, session):
        session.charge_reduction_flops(100, 2)
        assert session.recorder.total_flops == 198

    def test_trivial_free(self, session):
        session.charge_reduction_flops(1, 10)
        assert session.recorder.total_flops == 0


class TestRecordComm:
    def test_event_recorded_with_cost(self, session):
        session.record_comm(
            CommPattern.CSHIFT, bytes_network=1 << 16, bytes_local=1 << 16
        )
        machine = session.machine
        cost = machine.network.cost(
            CommPattern.CSHIFT, bytes_network=1 << 16, nodes=machine.nodes
        )
        root = session.recorder.root
        assert cost.busy > 0
        assert cost.idle > 0
        assert root.comm_busy == cost.busy + machine.local_move_time(
            (1 << 16) / machine.nodes
        )
        assert root.comm_idle == cost.idle
        assert root.comm_counts()[CommPattern.CSHIFT] == 1

    def test_local_only_motion_on_single_node(self):
        s = Session(workstation())
        s.record_comm(CommPattern.CSHIFT, bytes_network=0, bytes_local=1 << 20)
        # Busy time from local memory motion, idle from startup.
        assert s.recorder.root.comm_busy > 0
        assert s.recorder.root.comm_idle > 0

    def test_rank_and_detail_preserved(self, session):
        session.record_comm(
            CommPattern.GATHER, bytes_network=10, rank=3, detail="probe"
        )
        assert list(session.recorder.root.comm_stats) == [
            (CommPattern.GATHER, 3, "probe")
        ]

    def test_nodes_override(self, session):
        session.record_comm(CommPattern.REDUCTION, bytes_network=4096, nodes=2)
        network = session.machine.network
        two = network.cost(CommPattern.REDUCTION, bytes_network=4096, nodes=2)
        full = network.cost(
            CommPattern.REDUCTION, bytes_network=4096, nodes=session.nodes
        )
        root = session.recorder.root
        assert (root.comm_busy, root.comm_idle) == (two.busy, two.idle)
        assert (two.busy, two.idle) != (full.busy, full.idle)


class TestMemoryDeclaration:
    def test_declare_memory(self, session):
        session.declare_memory("u", (128,), "float64")
        assert session.recorder.memory.total_bytes == 1024

    def test_declare_aligned_memory(self, session):
        session.declare_memory("H", (8, 8), "float64")
        session.declare_aligned_memory("L", (8,), (8, 8), "float64")
        assert session.recorder.memory.total_bytes == 2 * 64 * 8


class TestTier:
    def test_default_tier_basic(self, session):
        assert session.tier is VersionTier.BASIC

    def test_faster_tier_less_busy_time(self):
        layout = parse_layout("(:)", (1 << 18,))
        basic = Session(cm5(32), tier=VersionTier.BASIC)
        basic.charge_elementwise(FlopKind.ADD, layout)
        tuned = Session(cm5(32), tier=VersionTier.C_DPEAC)
        tuned.charge_elementwise(FlopKind.ADD, layout)
        assert tuned.recorder.busy_time < basic.recorder.busy_time
