"""Matrix layer: quaternion SU(2) model, eigen data, cross-ratio."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tkchar.reps import Word, evaluate_word
from tkchar.su2 import (
    DegenerateError,
    ProjectivePoint,
    UnitaryMatrix,
    _qmul,
    _qmul_arrays,
    _qpow_arrays,
    _sup_diff_arrays,
    conjugate_by,
    cross_ratio,
    eigen_decompose,
    from_quaternion,
    is_reducible_pair,
    mat_pow,
    polar,
    proj_gap,
    sup_diff,
    trace,
)

unit_complex = st.builds(
    complex,
    st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    st.floats(-1, 1, allow_nan=False, allow_infinity=False),
)


def random_su2(rng) -> UnitaryMatrix:
    g = rng.normal(size=4)
    return from_quaternion(complex(g[0], g[1]), complex(g[2], g[3]))


def act(m: UnitaryMatrix, p: ProjectivePoint) -> ProjectivePoint:
    """The linear action of a 2x2 matrix on a projective point."""
    m11, m12, m21, m22 = m.entries()
    return ProjectivePoint(m11 * p.x + m12 * p.y, m21 * p.x + m22 * p.y)


class TestUnitaryMatrix:
    def test_determinant_is_one(self):
        u = from_quaternion(0.6 + 0.1j, 0.3 - 0.2j)
        m = u.matrix()
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_inverse(self):
        u = from_quaternion(1 + 2j, 3 - 1j)
        assert sup_diff(u @ u.inv(), UnitaryMatrix.identity()) < 1e-15

    def test_product_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = random_su2(rng), random_su2(rng)
            assert np.max(np.abs((u @ v).matrix() - u.matrix() @ v.matrix())) < 1e-14

    def test_rejects_zero_quaternion(self):
        with pytest.raises(ValueError):
            from_quaternion(0, 0)

    def test_entries_layout(self):
        u = UnitaryMatrix(0.6 + 0.0j, 0.8 + 0.0j)
        assert u.entries() == (0.6 + 0.0j, -0.8 + 0.0j, 0.8 + 0.0j, 0.6 - 0.0j)


class TestPowersAndTraces:
    def test_mat_pow_matches_numpy(self):
        rng = np.random.default_rng(1)
        for k in [0, 1, 2, 3, 7, 12]:
            u = random_su2(rng)
            assert np.max(np.abs(mat_pow(u, k).matrix() - np.linalg.matrix_power(u.matrix(), k))) < 1e-12

    def test_negative_power(self):
        u = from_quaternion(2, 1 - 1j)
        assert sup_diff(mat_pow(u, -3), mat_pow(u.inv(), 3)) < 1e-14

    def test_trace_is_real_for_unitary(self):
        u = from_quaternion(0.1 + 5j, 2)
        assert trace(u).imag == 0.0

    def test_commutator_trace_frozen_example(self):
        a = UnitaryMatrix(1j, 0)          # diag(i, -i)
        b = UnitaryMatrix(0, 1)           # [[0, -1], [1, 0]]
        assert trace(evaluate_word(Word.parse("xyXY"), a, b)) == pytest.approx(-2.0, abs=1e-14)

    def test_commuting_pair_has_commutator_trace_two(self):
        a = UnitaryMatrix(cmath.exp(0.3j), 0)
        b = UnitaryMatrix(cmath.exp(1.1j), 0)
        assert trace(evaluate_word(Word.parse("xyXY"), a, b)) == pytest.approx(2.0, abs=1e-14)


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def quaternion_columns(pairs) -> tuple[np.ndarray, ...]:
    return tuple(np.array(c) for c in zip(*((a.real, a.imag, b.real, b.imag) for a, b in pairs)))


class TestQuaternionArrays:
    """The batched products repeat the scalar ones bit for bit."""

    def signed_zero_pairs(self, rng, count):
        # random quaternion pairs whose parts are often +0.0 or -0.0
        parts = rng.normal(size=(count, 4))
        parts[rng.random(size=parts.shape) < 0.3] = 0.0
        parts[rng.random(size=parts.shape) < 0.5] *= -1.0
        return [(complex(w, x), complex(y, z)) for w, x, y, z in parts.tolist()]

    def test_product_equals_qmul(self):
        rng = np.random.default_rng(17)
        xs, ys = self.signed_zero_pairs(rng, 4000), self.signed_zero_pairs(rng, 4000)
        assert any(math.copysign(1.0, a.real) < 0 and a.real == 0 for a, _ in xs)
        got = _qmul_arrays(quaternion_columns(xs), quaternion_columns(ys))
        want = quaternion_columns([_qmul(*x, *y) for x, y in zip(xs, ys)])
        for g, w in zip(got, want):
            assert bits(g) == bits(w)

    def test_power_equals_mat_pow(self):
        rng = np.random.default_rng(18)
        us = [random_su2(rng) for _ in range(300)]
        for k in [0, 1, 2, 3, 7, 30, 45, 202, 300]:
            got = _qpow_arrays(quaternion_columns((u.a, u.b) for u in us), k)
            want = quaternion_columns((v.a, v.b) for v in (mat_pow(u, k) for u in us))
            for g, w in zip(got, want):
                assert bits(g) == bits(w), k
            # a single element takes the ladder on float64 scalars
            for u, v in zip(us[:20], (mat_pow(u, k) for u in us[:20])):
                one = _qpow_arrays(quaternion_columns([(u.a, u.b)]), k)
                assert [c.shape for c in one] == [(1,)] * 4
                assert bits(np.concatenate(one)) == bits([v.a.real, v.a.imag, v.b.real, v.b.imag])

    def test_sup_diff_equals_scalar(self):
        # NaN in any entry but the first is skipped by max(), as in sup_diff
        rng = np.random.default_rng(19)
        xs = [random_su2(rng) for _ in range(200)]
        ys = [random_su2(rng) for _ in range(200)]
        ys[0] = UnitaryMatrix(complex(math.nan, 0.0), 0.5j)
        ys[1] = UnitaryMatrix(0.5 + 0.0j, complex(0.0, math.nan))
        got = _sup_diff_arrays(*(quaternion_columns((u.a, u.b) for u in us) for us in (xs, ys)))
        assert bits(got) == bits([sup_diff(x, y) for x, y in zip(xs, ys)])
        assert math.isnan(got[0]) and not math.isnan(got[1])


class TestPolar:
    def test_examples(self):
        assert polar(UnitaryMatrix.identity()) == (0.0, (0.0, 0.0, 0.0))
        alpha, v = polar(UnitaryMatrix(-1.0 + 0.0j, 0.0j))
        assert alpha == math.pi and v == (0.0, 0.0, 0.0)
        alpha, v = polar(UnitaryMatrix(cmath.exp(0.3j), 0.0j))
        assert alpha == pytest.approx(0.3, abs=1e-15)
        assert v == pytest.approx((math.sin(0.3), 0.0, 0.0), abs=1e-15)
        assert polar(UnitaryMatrix(0.0j, 1j)) == (math.pi / 2, (0.0, 0.0, 1.0))

    def test_eigenvalue_and_axis_length(self):
        # exp(i*alpha) is an eigenvalue and |v| = sin(alpha), alpha in [0, pi]
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = random_su2(rng)
            alpha, v = polar(x)
            assert 0.0 <= alpha <= math.pi
            assert math.hypot(*v) == pytest.approx(math.sin(alpha), abs=1e-14)
            if 2 - abs(trace(x).real) > 1e-6:
                lam = eigen_decompose(x)[0]
                assert cmath.exp(1j * alpha) == pytest.approx(lam, abs=1e-12)

    def test_commutator_trace_is_axis_cross_product(self):
        # tr[a, b] = 2 - 4|va x vb|^2: the commutator is trivial exactly
        # when the axes are parallel
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_su2(rng), random_su2(rng)
            va, vb = np.array(polar(a)[1]), np.array(polar(b)[1])
            tr = trace(evaluate_word(Word.parse("xyXY"), a, b)).real
            assert tr == pytest.approx(2 - 4 * np.sum(np.cross(va, vb) ** 2), abs=1e-13)

    def test_invariant_under_conjugation(self):
        # conjugation keeps alpha and rotates every axis by the same rotation
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, g = random_su2(rng), random_su2(rng), random_su2(rng)
            (al_a, va), (al_b, vb) = polar(a), polar(b)
            (al_a2, va2), (al_b2, vb2) = polar(conjugate_by(a, g)), polar(conjugate_by(b, g))
            assert al_a2 == pytest.approx(al_a, abs=1e-12)
            assert al_b2 == pytest.approx(al_b, abs=1e-12)
            assert np.dot(va2, vb2) == pytest.approx(np.dot(va, vb), abs=1e-13)


class TestReducibility:
    def test_diagonal_pairs_reducible(self):
        a = UnitaryMatrix(cmath.exp(0.4j), 0)
        b = UnitaryMatrix(cmath.exp(2.0j), 0)
        assert is_reducible_pair(a, b)

    def test_criterion_matches_common_eigenvector(self):
        # parallel axes iff the pair shares an eigenvector; checked on a
        # seeded mix of planted-reducible and generic pairs.
        rng = np.random.default_rng(7)
        for trial in range(1000):
            if trial % 2 == 0:
                a = UnitaryMatrix(cmath.exp(1j * rng.uniform(0, math.pi)), 0)
                b = UnitaryMatrix(cmath.exp(1j * rng.uniform(0, math.pi)), 0)
                g = random_su2(rng)
                a, b = conjugate_by(a, g), conjugate_by(b, g)
                planted = True
            else:
                a, b = random_su2(rng), random_su2(rng)
                planted = False
            decided = is_reducible_pair(a, b, 1e-7)
            if planted:
                assert decided
            if decided:
                # exhibit the common eigenvector unless a is central
                if 2 - abs(trace(a).real) > 1e-7:
                    _, e1, _ = eigen_decompose(a, 1e-7)
                    img = act(b, e1)
                    assert proj_gap(e1, img) < 1e-5
            else:
                assert not planted


class TestEigen:
    def test_quarter_turn_example(self):
        lam, e1, e2 = eigen_decompose(from_quaternion(0, 1))
        assert lam == pytest.approx(1j, abs=1e-15)
        assert proj_gap(e1, ProjectivePoint(1, -1j)) < 1e-14
        assert proj_gap(e2, ProjectivePoint(1, 1j)) < 1e-14

    def test_diagonal_branch(self):
        lam, e1, e2 = eigen_decompose(UnitaryMatrix(cmath.exp(0.7j), 0))
        assert lam == pytest.approx(cmath.exp(0.7j), abs=1e-15)
        assert proj_gap(e1, ProjectivePoint(1, 0)) == 0.0
        lam2, f1, _ = eigen_decompose(UnitaryMatrix(cmath.exp(-0.7j), 0))
        assert lam2 == pytest.approx(cmath.exp(0.7j), abs=1e-15)
        assert proj_gap(f1, ProjectivePoint(0, 1)) == 0.0

    def test_eigenvector_equation(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            u = random_su2(rng)
            if 2 - abs(trace(u).real) < 1e-6:
                continue
            lam, e1, e2 = eigen_decompose(u)
            assert abs(lam.imag) > 0
            img = act(u, e1)
            assert abs(img.x - lam * e1.x) + abs(img.y - lam * e1.y) < 1e-12
            img2 = act(u, e2)
            lam2 = lam.conjugate()
            assert abs(img2.x - lam2 * e2.x) + abs(img2.y - lam2 * e2.y) < 1e-12

    def test_orthonormal_frame(self):
        lam, e1, e2 = eigen_decompose(from_quaternion(1 + 1j, 2 - 0.5j))
        assert e1.norm() == pytest.approx(1.0, abs=1e-14)
        assert e2.norm() == pytest.approx(1.0, abs=1e-14)
        assert abs(e1.x.conjugate() * e2.x + e1.y.conjugate() * e2.y) < 1e-14

    def test_refuses_central(self):
        with pytest.raises(DegenerateError):
            eigen_decompose(UnitaryMatrix.identity())
        with pytest.raises(DegenerateError):
            eigen_decompose(UnitaryMatrix(-1.0 + 0j, 0))


class TestProjective:
    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            ProjectivePoint(0, 0)

    def test_gap_is_projective(self):
        p = ProjectivePoint(1 + 1j, 2)
        q = ProjectivePoint((1 + 1j) * 3j, 6j)
        assert proj_gap(p, q) < 1e-15


class TestCrossRatio:
    def affine(self, z):
        return ProjectivePoint(1, z)

    def test_affine_formula(self):
        # ((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)) on sample affine points
        z = [0.3 + 0.1j, -1.2j, 2.5, 1 + 1j]
        expected = ((z[0] - z[2]) * (z[1] - z[3])) / ((z[0] - z[3]) * (z[1] - z[2]))
        got = cross_ratio(*[self.affine(w) for w in z])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_builder_quadruple_half(self):
        # ([1:0],[0:1],[a:b],[-conj(b):conj(a)]) has cross-ratio t/(t-1), t=|b|^2
        t = 0.5
        a, b = math.sqrt(1 - t), math.sqrt(t)
        got = cross_ratio(
            ProjectivePoint(1, 0),
            ProjectivePoint(0, 1),
            ProjectivePoint(a, b),
            ProjectivePoint(-b, a),
        )
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_builder_quadruple_fifth(self):
        t = 0.2
        a, b = math.sqrt(1 - t), math.sqrt(t)
        got = cross_ratio(
            ProjectivePoint(1, 0),
            ProjectivePoint(0, 1),
            ProjectivePoint(a, b),
            ProjectivePoint(-b, a),
        )
        assert got == pytest.approx(t / (t - 1), abs=1e-12)

    def test_invariance_under_unimodular_matrices(self):
        rng = np.random.default_rng(5)
        pts = [
            ProjectivePoint(1, 0.3 + 0.4j),
            ProjectivePoint(1, -2.0 + 1j),
            ProjectivePoint(0, 1),
            ProjectivePoint(1, 5.5),
        ]
        base = cross_ratio(*pts)
        for _ in range(50):
            g = random_su2(rng)
            moved = [act(g, q) for q in pts]
            assert cross_ratio(*moved) == pytest.approx(base, abs=1e-10)

    def test_degenerate_quadruple_refused(self):
        p = ProjectivePoint(1, 2)
        with pytest.raises(DegenerateError):
            cross_ratio(p, p, ProjectivePoint(1, 0), ProjectivePoint(0, 1))


@given(unit_complex, unit_complex)
def test_quaternion_norm_one(a, b):
    if abs(a) + abs(b) < 1e-3:
        return
    u = from_quaternion(a, b)
    assert abs(u.a) ** 2 + abs(u.b) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(unit_complex, unit_complex, unit_complex, unit_complex)
def test_conjugation_preserves_trace(a1, b1, a2, b2):
    if abs(a1) + abs(b1) < 1e-3 or abs(a2) + abs(b2) < 1e-3:
        return
    x = from_quaternion(a1, b1)
    g = from_quaternion(a2, b2)
    assert trace(conjugate_by(x, g)).real == pytest.approx(trace(x).real, abs=1e-10)
