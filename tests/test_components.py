"""Component enumeration, counting, attachment and joining combinatorics."""

import math

import pytest
from hypothesis import given, strategies as st

from tkchar.components import (
    SL2C_LINE,
    SL2C_PUNCTURED_LINE,
    SL2C_THRICE_PUNCTURED,
    SU2_CIRCLE,
    SU2_INTERVAL,
    SU2_OPEN_INTERVAL,
    GroupParams,
    Irr,
    Red,
    attachment,
    bezout_coprime,
    count_irr,
    enumerate_irr,
    enumerate_red,
    fold_index,
    irr_info,
    joining_component,
    self_loops,
    self_paired,
)
from tkchar.roots import root

orders = st.integers(2, 24)


class TestGroupParams:
    def test_gcd_split(self):
        p = GroupParams(4, 6)
        assert (p.d, p.a, p.b) == (2, 2, 3)

    def test_coprime(self):
        p = GroupParams(3, 2)
        assert (p.d, p.a, p.b) == (1, 3, 2)

    def test_rejects_small_orders(self):
        for bad in [(1, 2), (2, 1), (0, 5), (-3, 2)]:
            with pytest.raises(ValueError):
                GroupParams(*bad)


class TestCounting:
    def test_closed_form_matches_enumeration(self):
        for m in range(2, 25):
            for n in range(2, 25):
                p = GroupParams(m, n)
                assert count_irr(p) == len(enumerate_irr(p)), (m, n)

    def test_both_even(self):
        assert count_irr(GroupParams(4, 6)) == ((4 - 1) * (6 - 1) + 1) // 2 == 8

    def test_both_odd(self):
        assert count_irr(GroupParams(5, 3)) == (5 - 1) * (3 - 1) // 2 == 4

    def test_mixed_parity(self):
        assert count_irr(GroupParams(3, 2)) == 1
        assert count_irr(GroupParams(6, 9)) == 20
        assert count_irr(GroupParams(9, 3)) == 8

    def test_enumeration_is_lexicographic_and_valid(self):
        p = GroupParams(7, 5)
        comps = enumerate_irr(p)
        assert comps == sorted(comps, key=lambda c: (c.k, c.kp))
        for c in comps:
            assert 0 < c.k < 7 and 0 < c.kp < 5 and (c.k - c.kp) % 2 == 0
        assert len(set(comps)) == len(comps)


class TestTopologyLabels:
    def test_irr_labels(self):
        info = irr_info(GroupParams(5, 3), Irr(1, 1))
        assert info.su2_topology == SU2_OPEN_INTERVAL
        assert info.sl2c_topology == SL2C_THRICE_PUNCTURED
        assert info.eigen_data == (root(1, 5), root(1, 3))

    def test_irr_label_validation(self):
        p = GroupParams(5, 3)
        for bad in [(0, 2), (5, 1), (1, 3), (1, 2)]:
            with pytest.raises(ValueError):
                irr_info(p, Irr(*bad))

    def test_red_even_gcd(self):
        infos = enumerate_red(GroupParams(8, 12))  # d = 4
        assert [i.id for i in infos] == [Red(0), Red(1), Red(2)]
        assert [i.su2_topology for i in infos] == [SU2_INTERVAL, SU2_CIRCLE, SU2_INTERVAL]
        assert [i.sl2c_topology for i in infos] == [SL2C_LINE, SL2C_PUNCTURED_LINE, SL2C_LINE]

    def test_red_odd_gcd(self):
        infos = enumerate_red(GroupParams(6, 9))  # d = 3
        assert [i.id for i in infos] == [Red(0), Red(1)]
        assert [i.su2_topology for i in infos] == [SU2_INTERVAL, SU2_CIRCLE]

    def test_red_coprime_single_interval(self):
        infos = enumerate_red(GroupParams(3, 2))
        assert len(infos) == 1 and infos[0].su2_topology == SU2_INTERVAL


class TestFolding:
    def test_examples(self):
        assert fold_index(0, 5) == 0
        assert fold_index(3, 5) == 2
        assert fold_index(4, 6) == 2
        assert fold_index(3, 6) == 3

    def test_self_paired(self):
        assert self_paired(0, 7)
        assert self_paired(3, 6)
        assert not self_paired(1, 6)

    @given(st.integers(-20, 40), st.integers(1, 15))
    def test_fold_is_involution_invariant(self, i, d):
        c = fold_index(i, d)
        assert 0 <= c <= d // 2
        assert fold_index(-i, d) == c
        assert fold_index(c, d) == c


class TestBezout:
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_identity(self, a, b):
        if math.gcd(a, b) != 1:
            return
        u, v = bezout_coprime(a, b)
        assert u * a + v * b == 1
        assert 0 <= u < max(b, 1)

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            bezout_coprime(4, 6)


class TestAttachment:
    def test_trefoil(self):
        assert attachment(GroupParams(3, 2), 1, 1) == (0, 0, 0, 0)

    def test_even_orders(self):
        p = GroupParams(4, 6)
        assert attachment(p, 1, 1) == (0, 1, 0, 1)
        assert attachment(p, 2, 2) == (0, 0, 0, 0)
        assert attachment(p, 2, 4) == (1, 1, 1, 1)

    def test_folding_applied(self):
        p = GroupParams(6, 9)  # d = 3
        i0, i1, c0, c1 = attachment(p, 5, 1)
        assert (i0, i1) == (2, 0)
        assert (c0, c1) == (1, 0)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            attachment(GroupParams(4, 6), 1, 2)


class TestJoining:
    def test_formula_round_trip(self):
        # every canonical node pair is hit by its formula component
        for m in range(2, 11):
            for n in range(2, 11):
                p = GroupParams(m, n)
                for i1 in range(1, p.d // 2 + 1):
                    for i0 in range(0, i1):
                        k, kp = joining_component(p, i0, i1)
                        assert 0 < k < p.m and 0 < kp < p.n and (k - kp) % 2 == 0
                        _, _, c0, c1 = attachment(p, k, kp)
                        assert {c0, c1} == {i0, i1}, (m, n, i0, i1)

    def test_example(self):
        # d + i0 - i1 = 1, d - i0 - i1 = 1
        assert joining_component(GroupParams(4, 6), 0, 1) == (1, 1)
        # d = 4: nodes 1 and 2 are joined by (3, 1)
        assert joining_component(GroupParams(8, 12), 1, 2) == (3, 1)

    def test_rejects_non_canonical_order(self):
        p = GroupParams(8, 12)
        with pytest.raises(ValueError):
            joining_component(p, 1, 1)
        with pytest.raises(ValueError):
            joining_component(p, 0, 3)  # 3 > d/2 = 2


class TestSelfLoops:
    def scan(self, p):
        found = set()
        for comp in enumerate_irr(p):
            i0 = ((comp.k - comp.kp) // 2) % p.d
            i1 = ((comp.k + comp.kp) // 2) % p.d
            if fold_index(i0, p.d) == fold_index(i1, p.d):
                found.add(((comp.k, comp.kp), fold_index(i0, p.d)))
        return found

    def test_frozen_sets(self):
        assert {((c.k, c.kp), i) for c, i in self_loops(GroupParams(4, 6))} == {
            ((2, 2), 0),
            ((2, 4), 1),
        }
        assert {((c.k, c.kp), i) for c, i in self_loops(GroupParams(6, 3))} == {((3, 1), 1)}
        assert {((c.k, c.kp), i) for c, i in self_loops(GroupParams(9, 3))} == {
            ((3, 1), 1),
            ((6, 2), 1),
        }

    def test_equal_orders_have_none(self):
        for m in range(2, 9):
            assert self_loops(GroupParams(m, m)) == []

    def test_divisor_cases_avoid_interval_nodes(self):
        for m, n in [(4, 2), (6, 2), (6, 3), (9, 3)]:
            p = GroupParams(m, n)
            for comp, i in self_loops(p):
                assert i != 0 and 2 * i != p.d

    def test_matches_independent_scan(self):
        for m in range(2, 13):
            for n in range(2, 13):
                p = GroupParams(m, n)
                assert {((c.k, c.kp), i) for c, i in self_loops(p)} == self.scan(p)
