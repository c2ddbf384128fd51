"""Tests for the FLOP-count conventions (paper §1.5(1))."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.flops import (
    FLOP_COSTS,
    FlopCounter,
    FlopKind,
    flop_cost,
    merge_counters,
    reduction_flops,
    scan_flops,
)


class TestFlopCosts:
    def test_add_sub_mul_cost_one(self):
        for kind in (FlopKind.ADD, FlopKind.SUB, FlopKind.MUL):
            assert FLOP_COSTS[kind] == 1

    def test_div_sqrt_cost_four(self):
        assert FLOP_COSTS[FlopKind.DIV] == 4
        assert FLOP_COSTS[FlopKind.SQRT] == 4

    def test_transcendentals_cost_eight(self):
        for kind in (FlopKind.LOG, FlopKind.EXP, FlopKind.TRIG, FlopKind.POW):
            assert FLOP_COSTS[kind] == 8

    def test_flop_cost_scales_with_count(self):
        assert flop_cost(FlopKind.DIV, 10) == 40

    def test_flop_cost_zero(self):
        assert flop_cost(FlopKind.ADD, 0) == 0

    def test_flop_cost_negative_raises(self):
        with pytest.raises(ValueError):
            flop_cost(FlopKind.ADD, -1)

    def test_complex_add_doubles(self):
        assert flop_cost(FlopKind.ADD, 5, complex_valued=True) == 10

    def test_complex_mul_costs_six(self):
        assert flop_cost(FlopKind.MUL, 1, complex_valued=True) == 6

    def test_complex_div_exceeds_real_div(self):
        assert flop_cost(FlopKind.DIV, 1, complex_valued=True) > flop_cost(
            FlopKind.DIV, 1
        )

    def test_complex_transcendental_doubles(self):
        assert flop_cost(FlopKind.EXP, 1, complex_valued=True) == 16


class TestReductionScanCosts:
    def test_reduction_is_n_minus_one(self):
        assert reduction_flops(100) == 99

    def test_reduction_multiple_results(self):
        # Reducing a (m, n) array along axis 1: m results of n-1 adds.
        assert reduction_flops(10, 5) == 45

    def test_reduction_of_one_element_free(self):
        assert reduction_flops(1) == 0

    def test_reduction_of_zero_free(self):
        assert reduction_flops(0) == 0

    def test_scan_matches_reduction_cost(self):
        assert scan_flops(64, 3) == reduction_flops(64, 3)

    @given(st.integers(1, 10_000), st.integers(1, 100))
    def test_reduction_cost_formula(self, n, r):
        assert reduction_flops(n, r) == (n - 1) * r


class TestFlopCounter:
    def test_empty_counter_is_falsy(self):
        assert not FlopCounter()
        assert FlopCounter().total == 0

    def test_add_accumulates_weighted(self):
        c = FlopCounter()
        c.add(FlopKind.ADD, 10)
        c.add(FlopKind.DIV, 2)
        assert c.total == 10 + 8

    def test_add_raw(self):
        c = FlopCounter()
        c.add_raw(17)
        assert c.total == 17

    def test_add_raw_negative_raises(self):
        with pytest.raises(ValueError):
            FlopCounter().add_raw(-1)

    def test_add_negative_raises(self):
        with pytest.raises(ValueError):
            FlopCounter().add(FlopKind.ADD, -5)

    def test_add_zero_is_noop(self):
        c = FlopCounter()
        c.add(FlopKind.MUL, 0)
        assert not c
        assert c.operations == {}

    def test_operations_tracks_raw_counts(self):
        c = FlopCounter()
        c.add(FlopKind.SQRT, 3)
        assert c.operations[FlopKind.SQRT] == 3
        assert c.total == 12

    def test_merge(self):
        a = FlopCounter()
        a.add(FlopKind.ADD, 5)
        b = FlopCounter()
        b.add(FlopKind.ADD, 7)
        b.add(FlopKind.DIV, 1)
        a.merge(b)
        assert a.operations[FlopKind.ADD] == 12
        assert a.total == 12 + 4

    def test_copy_is_independent(self):
        a = FlopCounter()
        a.add(FlopKind.MUL, 2)
        b = a.copy()
        b.add(FlopKind.MUL, 3)
        assert a.total == 2
        assert b.total == 5

    def test_equality(self):
        a = FlopCounter()
        b = FlopCounter()
        a.add(FlopKind.ADD, 4)
        b.add(FlopKind.ADD, 4)
        assert a == b
        b.add(FlopKind.ADD, 1)
        assert a != b

    def test_merge_counters_helper(self):
        counters = []
        for i in range(3):
            c = FlopCounter()
            c.add(FlopKind.ADD, i + 1)
            counters.append(c)
        total = merge_counters(counters)
        assert total.total == 6

    def test_complex_flag_in_add(self):
        c = FlopCounter()
        c.add(FlopKind.MUL, 4, complex_valued=True)
        assert c.total == 24
        assert c.operations[FlopKind.MUL] == 4

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(list(FlopKind)),
                    st.integers(0, 1000),
                    st.booleans(),
                ),
                st.integers(0, 1000),  # an add_raw charge
            ),
            max_size=30,
        )
    )
    def test_total_is_sum_of_costs(self, charges):
        """Weighting on read equals weighting each charge as it comes."""
        c = FlopCounter()
        expected = 0
        weighted = {}
        ops = {}
        for charge in charges:
            if isinstance(charge, int):
                kind, n, cost = FlopKind.ADD, charge, charge
                c.add_raw(n)
            else:
                kind, n, complex_valued = charge
                cost = flop_cost(kind, n, complex_valued=complex_valued)
                c.add(kind, n, complex_valued=complex_valued)
            expected += cost
            if n:
                weighted[kind] = weighted.get(kind, 0) + cost
                ops[kind] = ops.get(kind, 0) + n
        assert c.total == expected
        # add_raw(0) leaves a zero ADD entry, as it always has
        assert {k: v for k, v in c.weighted_by_kind.items() if v} == weighted
        assert {k: v for k, v in c.operations.items() if v} == ops
