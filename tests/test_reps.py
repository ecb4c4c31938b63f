"""Word evaluation and explicit representative matrices."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tkchar.components import GroupParams, enumerate_irr
from tkchar.reps import (
    DEFAULT_WORDS,
    Word,
    build_irr,
    build_red_noncoprime,
    character,
    cross_ratio_of_pair,
    evaluate_word,
)
from tkchar.roots import root
from tkchar.su2 import (
    DegenerateError,
    UnitaryMatrix,
    is_reducible_pair,
    mat_pow,
    sup_diff,
    trace,
)

word_strings = st.text(alphabet="xyXY", max_size=12)


class TestWord:
    def test_parse_commutator(self):
        w = Word.parse("xyXY")
        assert w.letters == (("x", 1), ("y", 1), ("x", -1), ("y", -1))
        assert str(w) == "xyXY"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Word.parse("xzy")

    def test_normalization_merges_adjacent(self):
        w = Word.parse("xxXy")
        assert w.letters == (("x", 1), ("y", 1))

    def test_normalization_drops_cancellations(self):
        assert Word.parse("xX").letters == ()
        assert Word.parse("xYyX").letters == ()

    def test_default_words(self):
        assert [str(w) for w in DEFAULT_WORDS] == ["x", "y", "xy", "xY", "xyXY"]

    @given(word_strings)
    def test_string_round_trip(self, s):
        w = Word.parse(s)
        assert Word.parse(str(w)) == w


class TestEvaluate:
    def test_empty_word_is_identity(self):
        a = UnitaryMatrix(1j, 0)
        out = evaluate_word(Word.parse(""), a, a)
        assert sup_diff(out, UnitaryMatrix.identity()) == 0.0

    def test_single_letters(self):
        a = UnitaryMatrix(cmath.exp(0.3j), 0)
        b = UnitaryMatrix(0, 1)
        assert sup_diff(evaluate_word(Word.parse("x"), a, b), a) == 0.0
        assert sup_diff(evaluate_word(Word.parse("Y"), a, b), b.inv()) < 1e-15

    def test_commutator_word(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=4)
        h = rng.normal(size=4)
        from tkchar.su2 import from_quaternion

        a = from_quaternion(complex(g[0], g[1]), complex(g[2], g[3]))
        b = from_quaternion(complex(h[0], h[1]), complex(h[2], h[3]))
        w = evaluate_word(Word.parse("xyXY"), a, b)
        assert trace(w).real == pytest.approx(
            trace((a @ b) @ (a.inv() @ b.inv())).real, abs=1e-12
        )

    @given(word_strings)
    def test_word_times_inverse_is_identity(self, s):
        a = UnitaryMatrix(complex(0.6, 0.48), complex(0.384, 0.512))
        b = UnitaryMatrix(0.28 + 0.96j, 0j)
        w = Word.parse(s)
        inv = Word.parse("".join(c.swapcase() for c in reversed(str(w))))
        prod = evaluate_word(w, a, b) @ evaluate_word(inv, a, b)
        assert sup_diff(prod, UnitaryMatrix.identity()) < 1e-10

    def test_character_requires_words(self):
        a = UnitaryMatrix(1j, 0)
        with pytest.raises(ValueError):
            character(a, a, ())


class TestBuildIrr:
    def test_trefoil_midpoint(self):
        p = GroupParams(3, 2)
        a, b = build_irr(p, 1, 1, 0.5)
        assert trace(a).real == pytest.approx(1.0, abs=1e-14)              # 2cos(pi/3)
        assert trace(b).real == pytest.approx(0.0, abs=1e-14)              # 2cos(pi/2)
        assert cross_ratio_of_pair(a, b) == pytest.approx(-1.0, abs=1e-12) # t/(t-1)

    def test_relation_holds(self):
        for (m, n), k, kp, t in [
            ((3, 2), 1, 1, 0.25),
            ((5, 3), 3, 1, 0.8),
            ((4, 6), 2, 4, 0.5),
            ((6, 9), 5, 3, 0.01),
        ]:
            p = GroupParams(m, n)
            a, b = build_irr(p, k, kp, t)
            assert sup_diff(mat_pow(a, m), mat_pow(b, n)) < 1e-12

    def test_interior_is_irreducible(self):
        p = GroupParams(4, 6)
        for comp in enumerate_irr(p):
            a, b = build_irr(p, comp.k, comp.kp, 0.37)
            assert not is_reducible_pair(a, b)

    def test_t_range_enforced(self):
        p = GroupParams(3, 2)
        for bad in [0.0, 1.0, -0.1, 1.5]:
            with pytest.raises(ValueError):
                build_irr(p, 1, 1, bad)

    def test_label_enforced(self):
        p = GroupParams(3, 2)
        with pytest.raises(ValueError):
            build_irr(p, 2, 1, 0.5)  # parity
        with pytest.raises(ValueError):
            build_irr(p, 3, 1, 0.5)  # range

    def test_cross_ratio_law_sample(self):
        p = GroupParams(5, 3)
        for t in [0.1, 0.25, 0.5, 0.75, 0.9]:
            a, b = build_irr(p, 1, 1, t)
            assert cross_ratio_of_pair(a, b) == pytest.approx(t / (t - 1), abs=1e-11)

    def test_near_boundary_is_numerically_reducible(self):
        # at t = 1e-8 the axes are 2e-4 rad apart: parallel within the
        # relative bound 1e-3 but not 1e-9
        p = GroupParams(3, 2)
        a, b = build_irr(p, 1, 1, 1e-8)
        assert is_reducible_pair(a, b, 1e-3)
        assert not is_reducible_pair(a, b, 1e-9)

    def test_trace_of_product_moves_linearly(self):
        # tr(AB) = 2cos(al)cos(be) - 2(1-2t)sin(al)sin(be): affine in t
        p = GroupParams(5, 3)
        al, be = math.pi / 5, math.pi / 3
        for t in [0.2, 0.7]:
            a, b = build_irr(p, 1, 1, t)
            ab = evaluate_word(Word.parse("xy"), a, b)
            expected = 2 * math.cos(al) * math.cos(be) - 2 * (1 - 2 * t) * math.sin(al) * math.sin(be)
            assert trace(ab).real == pytest.approx(expected, abs=1e-12)


class TestBuildRed:
    def test_eigenvalue_equations(self):
        p = GroupParams(4, 6)
        t = cmath.exp(0.9j)
        for i in range(p.d):
            a, b = build_red_noncoprime(p, i, t)
            assert a.b == 0 and b.b == 0
            assert a.a == pytest.approx(t**p.b, abs=1e-14)
            # lam^a * mu^-b recovers the component label xi^i
            zeta = a.a**p.a * b.a**-p.b
            assert zeta == pytest.approx(cmath.exp(2j * math.pi * i / p.d), abs=1e-12)

    def test_frozen_angle_example(self):
        p = GroupParams(3, 2)
        a, b = build_red_noncoprime(p, 0, cmath.exp(1j * math.pi / 12))
        assert trace(a).real == pytest.approx(math.sqrt(3), abs=1e-14)  # 2cos(pi/6)
        assert trace(b).real == pytest.approx(math.sqrt(2), abs=1e-14)  # 2cos(pi/4)

    def test_minus_one_coordinate(self):
        p = GroupParams(3, 2)
        a, b = build_red_noncoprime(p, 0, -1.0 + 0j)
        assert sup_diff(a, UnitaryMatrix.identity()) < 1e-15             # (-1)^2
        assert sup_diff(b, UnitaryMatrix(-1.0 + 0j, 0j)) < 1e-15         # (-1)^3

    def test_relation_holds_everywhere(self):
        rng = np.random.default_rng(2)
        for m, n in [(3, 2), (4, 6), (6, 9)]:
            p = GroupParams(m, n)
            for _ in range(50):
                i = int(rng.integers(p.d))
                t = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                a, b = build_red_noncoprime(p, i, t)
                assert sup_diff(mat_pow(a, m), mat_pow(b, n)) < 1e-12

    def test_unit_circle_enforced(self):
        p = GroupParams(3, 2)
        with pytest.raises(ValueError):
            build_red_noncoprime(p, 0, 0.5 + 0j)

    def test_index_range_enforced(self):
        p = GroupParams(4, 6)
        with pytest.raises(ValueError):
            build_red_noncoprime(p, 2, 1j)

    def test_reducible_pairs_flagged(self):
        p = GroupParams(6, 9)
        a, b = build_red_noncoprime(p, 1, cmath.exp(2.2j))
        assert is_reducible_pair(a, b)
        with pytest.raises(DegenerateError):
            cross_ratio_of_pair(a, b)
