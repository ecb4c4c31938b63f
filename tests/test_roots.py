"""Exact arithmetic in the group of roots of unity exp(i*pi*c/N)."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from tkchar.components import GroupParams, attachment
from tkchar.graph import build_graph
from tkchar.roots import MINUS_ONE, ONE, RootOfUnity, root


def coprime_endpoint(k: int, m: int, k2: int, n: int) -> RootOfUnity:
    """The t with t^n = exp(i*pi*k/m) and t^m = exp(i*pi*k2/n) for coprime
    m, n: writing t = exp(i*pi*c/(m*n)), the Chinese-remainder solution of
    c = k (mod 2m), c = k2 (mod 2n), which is the exact circle coordinate on
    the single reducible component.  Read off the incidence graph: arc
    (k, kp) closes at mu = exp(i*pi*kp/n) on endpoint 0 and at mu^-1 on
    endpoint 1, so k2 = 2n - kp addresses endpoint 1 of arc (k, kp)."""
    kp, side = (k2, 0) if k2 < n else (2 * n - k2, 1)
    for arc in build_graph(GroupParams(m, n)).arcs:
        if (arc.component.k, arc.component.kp) == (k, kp):
            return arc.endpoints[side].t_raw
    raise ValueError(f"no arc ({k}, {kp}) for orders ({m}, {n})")


def brute_force_crt(k: int, m: int, k2: int, n: int) -> RootOfUnity:
    """Scan all exp(i*pi*c/(m*n)) for the one with t^n = exp(i*pi*k/m) and
    t^m = exp(i*pi*k2/n); the independent oracle for coprime_endpoint."""
    target_a = root(k, m)
    target_b = root(k2, n)
    hits = [
        root(c, m * n)
        for c in range(2 * m * n)
        if root(c, m * n) ** n == target_a and root(c, m * n) ** m == target_b
    ]
    assert len(hits) == 1
    return hits[0]


class TestCanonicalization:
    def test_angle_reduced_mod_2pi(self):
        assert root(25, 12) == root(1, 12)

    def test_common_factor_removed(self):
        assert root(12, 12) == root(1, 1) == MINUS_ONE

    def test_zero_angle(self):
        assert root(0, 5) == ONE
        assert root(10, 5) == ONE

    def test_negative_numerator_wraps(self):
        assert root(-1, 6) == root(11, 6)

    def test_identity_values(self):
        assert complex(ONE) == 1 + 0j
        assert MINUS_ONE.to_complex() == pytest.approx(-1 + 0j)

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            RootOfUnity(1, 0)
        with pytest.raises(ValueError):
            RootOfUnity(1, -3)

    def test_canonical_range(self):
        for c in range(-30, 30):
            r = root(c, 6)
            assert 0 <= r.num < 2 * r.den
            assert math.gcd(r.num, r.den) == 1 or r.num == 0


class TestArithmetic:
    def test_product(self):
        assert root(1, 6) * root(1, 6) == root(1, 3)

    def test_inverse_cancels(self):
        r = root(5, 7)
        assert r * r.conj() == ONE

    def test_power_matches_repeated_product(self):
        r = root(3, 11)
        acc = ONE
        for _ in range(5):
            acc = acc * r
        assert r**5 == acc

    def test_negative_power(self):
        r = root(3, 8)
        assert r**-1 == r.conj()
        assert r**-2 == (r * r).conj()

    def test_angle_and_complex_agree(self):
        r = root(7, 9)
        assert cmath.exp(1j * r.angle) == pytest.approx(complex(r), abs=1e-14)


@given(st.integers(-40, 40), st.integers(1, 20), st.integers(-40, 40), st.integers(1, 20))
def test_product_matches_complex(c1, n1, c2, n2):
    r1, r2 = root(c1, n1), root(c2, n2)
    assert complex(r1 * r2) == pytest.approx(complex(r1) * complex(r2), abs=1e-12)


@given(st.integers(-40, 40), st.integers(1, 20), st.integers(-7, 7))
def test_power_matches_complex(c, n, k):
    r = root(c, n)
    assert complex(r**k) == pytest.approx(complex(r) ** k, abs=1e-12)


@given(st.integers(-40, 40), st.integers(1, 20))
def test_conj_is_complex_conjugate(c, n):
    r = root(c, n)
    assert complex(r.conj()) == pytest.approx(complex(r).conjugate(), abs=1e-14)


@given(st.integers(0, 200), st.integers(1, 30))
def test_canonical_form_is_stable(c, n):
    r = root(c, n)
    again = root(r.num, r.den)
    assert r == again and r.angle == again.angle


class TestCrtAttachment:
    """Coprime endpoints as the raw coordinates of the incidence graph."""

    def test_first_example(self):
        assert coprime_endpoint(1, 3, 1, 2) == root(1, 6)

    def test_inverse_endpoint_example(self):
        assert coprime_endpoint(1, 3, 3, 2) == root(7, 6)

    def test_larger_orders(self):
        assert coprime_endpoint(2, 5, 2, 3) == root(2, 15)

    def test_requires_matching_parity(self):
        with pytest.raises(ValueError):
            attachment(GroupParams(3, 5), 1, 2)

    def test_agrees_with_brute_force_scan(self):
        for m, n in [(3, 2), (2, 3), (5, 3), (5, 2), (7, 4), (8, 3), (9, 2)]:
            for k in range(1, m):
                for kp in range(1, n):
                    if (k - kp) % 2 != 0:
                        continue
                    assert coprime_endpoint(k, m, kp, n) == brute_force_crt(k, m, kp, n)
                    # the other closure point uses the inverted second eigenvalue
                    assert coprime_endpoint(k, m, 2 * n - kp, n) == brute_force_crt(
                        k, m, 2 * n - kp, n
                    )

    def test_power_equations_hold_exactly(self):
        t = coprime_endpoint(3, 7, 1, 4)
        assert t**4 == root(3, 7)
        assert t**7 == root(1, 4)
