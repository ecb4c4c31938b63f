"""Sampling oracle: classification round-trips, conjugator search,
empirical reconstruction of the component structure."""

import cmath
import dataclasses
import json
import math
import os
import time
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from tkchar import stream
from tkchar.components import (
    GroupParams,
    Irr,
    Red,
    alpha_root,
    count_irr,
    enumerate_irr,
    enumerate_red,
    fold_indices,
    irr_labels,
    irr_position,
)
from tkchar.graph import _endpoint_rule, _sig12, build_graph, involution_twist
from tkchar.reps import build_irr, build_red_noncoprime, character, cross_ratio_of_pair
from tkchar.roots import RootOfUnity, root
from tkchar.su2 import (
    DEFAULT_TOL,
    UnitaryMatrix,
    conjugate_by,
    from_quaternion,
    is_reducible_pair,
    mat_pow,
    sup_diff,
)
import tkchar.graph
import tkchar.reps
import tkchar.verify
from tkchar.verify import (
    AMBIGUOUS_A,
    AMBIGUOUS_B,
    CHUNK,
    OK,
    PARITY,
    RELATION,
    AmbiguousDecodeError,
    SampleConfig,
    _add_votes,
    _build_arrays,
    _classify_arrays,
    _decimal_rank,
    _irr_tables,
    _labels,
    _leaders,
    _red_arrays,
    _stream_args,
    canonical_red_angle,
    classify,
    empirical_structure,
    find_conjugator,
    sample_pair,
    summary_chunks,
    summary_to_json,
)


def use_cpus(monkeypatch, cpus: int) -> None:
    """Make empirical_structure see cpus CPUs, so that it splits its chunks
    into min(cpus, chunks) runs (verify._runs)."""
    monkeypatch.setattr(tkchar.verify, "_cpus", lambda: cpus)


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def columns(matrices) -> tuple[np.ndarray, ...]:
    """Quaternion arrays (Re a, Im a, Re b, Im b) of a list of matrices."""
    parts = ((u.a.real, u.a.imag, u.b.real, u.b.imag) for u in matrices)
    return tuple(np.array(c) for c in zip(*parts))


def matrices(q) -> list[UnitaryMatrix]:
    """The matrices of quaternion arrays (Re a, Im a, Re b, Im b)."""
    return [UnitaryMatrix(complex(w, x), complex(y, z)) for w, x, y, z in zip(*q)]


def rotation(half_angle: float, axis: tuple[float, float, float]) -> UnitaryMatrix:
    """cos(half_angle) + sin(half_angle) * axis, axis a unit vector."""
    s = math.sin(half_angle)
    x, y, z = (s * c for c in axis)
    return UnitaryMatrix(complex(math.cos(half_angle), x), complex(y, z))


def haar(rng) -> UnitaryMatrix:
    g = rng.normal(size=4)
    return from_quaternion(complex(g[0], g[1]), complex(g[2], g[3]))


class TestClassifyIrreducible:
    def test_round_trip_all_components_small_orders(self):
        # classify's kernel on one batch per order
        for m in range(2, 9):
            for n in range(2, 9):
                p = GroupParams(m, n)
                cases = [(comp, t) for comp in enumerate_irr(p) for t in (0.1, 0.5, 0.9)]
                pairs = [build_irr(p, comp.k, comp.kp, t) for comp, t in cases]
                out = _classify_arrays(p, *(columns(q) for q in zip(*pairs)), DEFAULT_TOL)
                assert (out.reason == OK).all() and not out.reducible.any(), (m, n)
                got = [Irr(k, kp) for k, kp in zip(out.k.tolist(), out.kp.tolist())]
                assert got == [comp for comp, _ in cases], (m, n)
                assert np.abs(out.coordinate - [t for _, t in cases]).max() <= 1e-10, (m, n)
                assert out.residual.max() < 1e-12, (m, n)

    def test_invariant_under_conjugation(self):
        p = GroupParams(5, 4)
        rng = np.random.default_rng(9)
        for _ in range(100):
            comp = enumerate_irr(p)[int(rng.integers(len(enumerate_irr(p))))]
            t = float(rng.uniform(0.02, 0.98))
            a, b = build_irr(p, comp.k, comp.kp, t)
            g = haar(rng)
            out = classify(p, conjugate_by(a, g), conjugate_by(b, g))
            assert out.component == comp
            assert out.coordinate == pytest.approx(t, abs=1e-9)

    def test_rejects_relation_violation(self):
        p = GroupParams(3, 2)
        a = from_quaternion(1 + 0.5j, 0.3)
        b = from_quaternion(0.2, 1 - 1j)
        with pytest.raises(ValueError, match="relation"):
            classify(p, a, b)

    def test_nearest_label_decodes_ladder(self):
        # the 50-digit angle pi*k/m, rounded once to a double, decodes to k
        # at every label of every order up to 300 and at 1000 and 10000
        mpmath.mp.dps = 50
        for m in [*range(2, 301), 1000, 10000]:
            alpha = np.array([float(mpmath.pi * k / m) for k in range(1, m)])
            labels, ambiguous = _labels(alpha, m, 1e-9)
            assert labels.tolist() == list(range(1, m)), m
            assert not ambiguous.any(), m

    def test_nearest_label_ambiguity(self):
        # an angle exactly halfway between two admissible labels is marked,
        # with the lower one as label; halfway towards an inadmissible 0 or m
        # is not
        alpha = np.array([2.5, 0.5, 6.5, 0.0, 7.0]) * math.pi / 7
        labels, ambiguous = _labels(alpha, 7, 1e-9)
        assert labels.tolist() == [2, 1, 6, 1, 6]
        assert ambiguous.tolist() == [True, False, False, False, False]
        labels, ambiguous = _labels(np.array([math.pi / 2]), 3, 1e-9)
        assert (labels.tolist(), ambiguous.tolist()) == ([1], [True])

    @pytest.mark.parametrize(
        "m, n", [(525, 524), (1000, 999), (3000, 2999), (10000, 9999), (10**8, 10**8 - 1)]
    )
    def test_round_trip_large_orders(self, m, n, monkeypatch):
        # small rotation angles (irr:1,1) and the far end (k = m - 1) keep
        # their labels and coordinate under Haar conjugation at large orders,
        # and classify never enumerates the O(m*n) irreducible labels
        def refuse(p):
            raise AssertionError(f"irreducible labels of {p} enumerated")

        monkeypatch.setattr(tkchar.verify, "_irr_tables", refuse)
        monkeypatch.setattr(tkchar.verify, "irr_labels", refuse)
        p = GroupParams(m, n)
        rng = np.random.default_rng(m)
        labels = [(1, 1), (m // 2, m // 2), (m - 1, n - 1 - (m - n) % 2)]
        for k, kp in labels:
            for t in np.linspace(0.05, 0.95, 15):
                a, b = build_irr(p, k, kp, float(t))
                g = haar(rng)
                out = classify(p, conjugate_by(a, g), conjugate_by(b, g))
                assert out.component == Irr(k, kp), (k, kp, t)
                assert out.coordinate == pytest.approx(t, abs=1e-6)

    def test_coordinate_matches_cross_ratio(self):
        # the axis chord and the eigenvector cross-ratio give the same t
        for m in range(2, 9):
            for n in range(2, 9):
                p = GroupParams(m, n)
                for comp in enumerate_irr(p):
                    for t in (0.1, 0.5, 0.9):
                        a, b = build_irr(p, comp.k, comp.kp, t)
                        r = cross_ratio_of_pair(a, b)
                        out = classify(p, a, b)
                        assert out.coordinate == pytest.approx(r / (r - 1.0), abs=1e-10)


class TestClassifyReducible:
    def test_round_trip_raw_circles(self):
        for m, n in [(3, 2), (4, 6), (6, 9), (8, 12)]:
            p = GroupParams(m, n)
            for i in range(p.d):
                for j in range(10):
                    theta = 0.09 + 2 * math.pi * j / 10
                    a, b = build_red_noncoprime(p, i, cmath.exp(1j * theta))
                    out = classify(p, a, b)
                    i_can, th_can = canonical_red_angle(p, i, theta)
                    assert out.component == Red(i_can)
                    assert out.coordinate == pytest.approx(th_can, abs=1e-9)
                    assert out.classification_residual < 1e-10

    def test_invariant_under_conjugation(self):
        p = GroupParams(6, 9)
        rng = np.random.default_rng(13)
        for _ in range(100):
            i = int(rng.integers(p.d))
            theta = float(rng.uniform(0, 2 * math.pi))
            a, b = build_red_noncoprime(p, i, cmath.exp(1j * theta))
            g = haar(rng)
            out = classify(p, conjugate_by(a, g), conjugate_by(b, g))
            i_can, th_can = canonical_red_angle(p, i, theta)
            assert out.component == Red(i_can)
            assert out.coordinate == pytest.approx(th_can, abs=1e-7)

    def test_central_pairs(self):
        p = GroupParams(3, 2)
        # t = 1: (Id, Id); t = -1: (Id, -Id)
        for t, theta in [(1.0 + 0j, 0.0), (-1.0 + 0j, math.pi)]:
            a, b = build_red_noncoprime(p, 0, t)
            out = classify(p, a, b)
            assert out.component == Red(0)
            assert out.coordinate == pytest.approx(theta, abs=1e-12)
            assert out.classification_residual < 1e-12

    def test_near_central_generator(self):
        # one generator within 1e-7 of central: the decoded coordinate must
        # still be accurate (eigenvalue read through the other generator)
        p = GroupParams(4, 6)
        theta = math.pi / p.b + 1e-7
        a, b = build_red_noncoprime(p, 1, cmath.exp(1j * theta))
        rng = np.random.default_rng(1)
        g = haar(rng)
        out = classify(p, conjugate_by(a, g), conjugate_by(b, g))
        i_can, th_can = canonical_red_angle(p, 1, theta)
        assert out.component == Red(i_can)
        assert out.coordinate == pytest.approx(th_can, abs=1e-8)
        assert out.classification_residual < 1e-7


class TestCanonicalRedAngle:
    def test_self_paired_involution(self):
        for m, n in [(3, 2), (4, 6), (8, 12)]:
            p = GroupParams(m, n)
            for i in range(p.d // 2 + 1):
                if (2 * i) % p.d != 0:
                    continue
                psi2 = involution_twist(p, i).angle
                for theta in [0.3, 1.7, 4.4]:
                    partner = (psi2 - theta) % (2 * math.pi)
                    assert canonical_red_angle(p, i, theta)[1] == pytest.approx(
                        canonical_red_angle(p, i, partner)[1], abs=1e-12
                    )

    def test_mirror_circles_fold_together(self):
        for m, n in [(6, 9), (8, 12), (10, 15)]:
            p = GroupParams(m, n)
            for i in range(1, (p.d + 1) // 2):
                if (2 * i) % p.d == 0:
                    continue
                big = 4 * p.d * p.a * p.b
                t = root(3, big)  # generic exact angle
                lam, mu = t**p.b, alpha_root(p, i).conj() * t**p.a
                # the mirrored character (lam^-1, mu^-1) on circle d - i
                alpha_mirror = alpha_root(p, p.d - i)
                hits = [
                    root(c, big)
                    for c in range(2 * big)
                    if root(c, big) ** p.b == lam**-1
                    and root(c, big) ** p.a == alpha_mirror * mu**-1
                ]
                assert len(hits) == 1
                t_mirror = hits[0]
                left = canonical_red_angle(p, i, t.angle)
                right = canonical_red_angle(p, (p.d - i) % p.d, t_mirror.angle)
                assert left[0] == right[0] == i
                assert left[1] == pytest.approx(right[1], abs=1e-12)

    def test_raw_index_validated(self):
        with pytest.raises(ValueError):
            canonical_red_angle(GroupParams(4, 6), 2, 0.5)

    def test_non_finite_angle_refused(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"angle {bad} is not finite"):
                canonical_red_angle(GroupParams(4, 6), 1, bad)

    def test_agrees_with_graph_fold(self):
        """canonical_red_angle folds every build_graph endpoint to its node
        and to the same representative, self-paired nodes included."""
        for m, n in [(4, 6), (6, 9), (8, 12), (12, 18), (30, 45), (12, 8), (7, 4), (100, 150)]:
            p = GroupParams(m, n)
            for arc in build_graph(p).arcs:
                for ep in arc.endpoints:
                    node, theta = canonical_red_angle(p, ep.raw_index, ep.t_raw.angle)
                    assert node == ep.node
                    assert abs(theta - ep.t_canonical.angle) < 1e-12, ((m, n), ep)

    def test_fold_rule_same_on_int_and_float(self):
        # the rule build_graph runs on exact integers gives the same answer
        # on the same numerators as floats
        for m, n in [(6, 9), (5, 3), (8, 12), (12, 18), (4, 6), (7, 4)]:
            p = GroupParams(m, n)
            rule = _endpoint_rule(p)
            for arc in build_graph(p).arcs:
                for ep in arc.endpoints:
                    c = ep.t_raw.num * (rule.big // ep.t_raw.den)
                    node, c_int = rule.fold(ep.raw_index, c)
                    c_can = ep.t_canonical.num * (rule.big // ep.t_canonical.den)
                    assert (node, c_int) == (ep.node, c_can)
                    assert rule.fold(ep.raw_index, float(c)) == (node, float(c_int))

    def test_ends_on_float_k_match_scalar_fold(self):
        # the decoder's one call, _EndpointRule.ends on float64 k, is fold on
        # the unreduced k - mirror*(h // d) bit for bit: k near integers, h
        # negative, at least d and on mirrored circles, and c either side of
        # the involution's cut at 0 ~ tau.  Reducing c_raw mod 2M before the
        # mirror rounds differently on mirrored circles far from h in [0, d).
        for m, n in [(12, 18), (8, 12), (4, 6), (300, 450)]:
            p = GroupParams(m, n)
            rule = _endpoint_rule(p)
            hs = np.arange(-3 * p.d - 1, 4 * p.d + 2)
            near = [k + e for k in (0, 1, m // 2, m - 1) for e in (0.0, 3e-13, -7e-10, 0.499)]
            kf, h = (x.ravel() for x in np.meshgrid(near, hs))
            # c_raw, or its mirror, at 0 and tau plus or minus 1e-9
            raw = hs % p.d
            node = fold_indices(raw, p.d)
            q = rule.mirror * (hs // p.d)
            for target in (0, rule.tau[node]):
                for e in (-1e-9, 1e-9):
                    c = np.where(node != raw, rule.mirror - target, target) + e
                    kf, h = np.concatenate([kf, c + q]), np.concatenate([h, hs])
            assert set(node.tolist()) == set(range(p.d // 2 + 1)), (m, n)
            got = zip(*(x.tolist() for x in rule.ends(kf, h)[1::2]))
            for k, i, (node_a, c_a) in zip(kf.tolist(), h.tolist(), got):
                node_s, c_s = rule.fold(i % p.d, k - rule.mirror * (i // p.d))
                assert (node_a, c_a.hex()) == (node_s, c_s.hex()), ((m, n), k, i)

    def test_float_branch_cut(self):
        # Red(1) of (4,6): tau = 16 over M = 12, so the involution's cut is at
        # c = 0 ~ 16.  Points just either side keep representatives about tau
        # apart but the same node and interval coordinate 2cos(theta - psi).
        p = GroupParams(4, 6)
        rule = _endpoint_rule(p)
        assert (rule.big, rule.tau[1]) == (12, 16)
        psi = involution_twist(p, 1).angle / 2.0
        (node_lo, th_lo), (node_hi, th_hi) = (
            canonical_red_angle(p, 1, math.pi * c / rule.big) for c in (-1e-9, 1e-9)
        )
        assert node_lo == node_hi == 1
        assert abs((th_lo - th_hi) * rule.big / math.pi - 16) < 1e-6
        assert 2 * math.cos(th_lo - psi) == pytest.approx(2 * math.cos(th_hi - psi), abs=1e-8)


class TestSamplePair:
    def test_deterministic_per_index(self):
        cfg = SampleConfig(params=GroupParams(4, 6), seed=3)
        a1, b1 = sample_pair(cfg, 17)
        a2, b2 = sample_pair(cfg, 17)
        assert sup_diff(a1, a2) == 0.0 and sup_diff(b1, b2) == 0.0

    def test_index_independence(self):
        cfg = SampleConfig(params=GroupParams(4, 6), seed=3)
        a1, _ = sample_pair(cfg, 0)
        a2, _ = sample_pair(cfg, 1)
        assert sup_diff(a1, a2) > 1e-3

    def test_relation_satisfied(self):
        cfg = SampleConfig(params=GroupParams(6, 9), seed=5)
        for idx in range(200):
            a, b = sample_pair(cfg, idx)
            assert sup_diff(mat_pow(a, 6), mat_pow(b, 9)) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(params=GroupParams(3, 2), sample_count=0)
        with pytest.raises(ValueError):
            SampleConfig(params=GroupParams(3, 2), reducible_fraction=1.5)
        with pytest.raises(ValueError, match="seed"):
            SampleConfig(params=GroupParams(3, 2), seed=-1)
        for bad in (math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="tol"):
                SampleConfig(params=GroupParams(3, 2), tol=bad)

    def test_config_refuses_what_the_stream_does_not_cover(self):
        # seeds of three entropy words, and K of integers(0, K) past 2**32,
        # where numpy takes its 64-bit bounded path
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64, got 18446744073709551616"):
            SampleConfig(params=GroupParams(3, 2), seed=2**64)
        SampleConfig(params=GroupParams(3, 2), seed=2**64 - 1)
        with pytest.raises(ValueError, match="8589869056 irreducible components"):
            SampleConfig(params=GroupParams(2**17, 2**17 + 1))
        SampleConfig(params=GroupParams(2**16, 2**17 + 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_classify_tolerance_validated(self, bad):
        # the tolerance SampleConfig refuses is refused by classify too
        p = GroupParams(4, 6)
        a, b = build_red_noncoprime(p, 1, cmath.exp(0.3j))
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            classify(p, a, b, tol=bad)

    def test_non_finite_pair_refused(self):
        # NaN compares false against every bound: the relation check must
        # still refuse it rather than decode a NaN coordinate
        a = UnitaryMatrix(complex(math.nan, math.nan), complex(math.nan))
        b = UnitaryMatrix(complex(math.nan), complex(0.5))
        with pytest.raises(ValueError, match="relation"):
            classify(GroupParams(3, 2), a, b)

    def test_per_order_work_done_once(self, monkeypatch):
        # the label arrays are built once per (m, n), not once per sample
        calls = []
        real = tkchar.verify.irr_labels

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(tkchar.verify, "irr_labels", counted)
        tkchar.verify._irr_tables.cache_clear()
        empirical_structure(SampleConfig(params=GroupParams(30, 45), sample_count=2000, seed=3))
        assert 1 <= len(calls) <= 2

    def test_reducible_builder_roots_built_per_circle(self, monkeypatch):
        # build_red_noncoprime builds alpha_root(p, i) once per raw circle,
        # so RootOfUnity constructions stay O(d), not O(samples)
        p = GroupParams(30, 45)
        cfg = SampleConfig(params=p, sample_count=2000, seed=3)
        empirical_structure(cfg)  # the per-order tables
        constructed = []
        real = RootOfUnity.__post_init__

        def counted(self):
            constructed.append(self)
            real(self)

        monkeypatch.setattr(RootOfUnity, "__post_init__", counted)
        tkchar.reps._alpha_conj.cache_clear()
        empirical_structure(cfg)
        assert 0 < len(constructed) <= 3 * p.d


class TestFindConjugator:
    def test_planted_conjugates_recovered(self):
        p = GroupParams(5, 3)
        rng = np.random.default_rng(21)
        comps = enumerate_irr(p)
        for _ in range(60):
            comp = comps[int(rng.integers(len(comps)))]
            a, b = build_irr(p, comp.k, comp.kp, float(rng.uniform(0.05, 0.95)))
            g = haar(rng)
            a2, b2 = conjugate_by(a, g), conjugate_by(b, g)
            q = find_conjugator(a, b, a2, b2)
            assert q is not None
            assert sup_diff(conjugate_by(a, q), a2) + sup_diff(conjugate_by(b, q), b2) < 1e-7

    def test_result_is_unitary(self):
        p = GroupParams(4, 6)
        a, b = build_irr(p, 1, 3, 0.4)
        g = from_quaternion(1 + 2j, 0.5 - 0.25j)
        q = find_conjugator(a, b, conjugate_by(a, g), conjugate_by(b, g))
        assert abs(abs(q.a) ** 2 + abs(q.b) ** 2 - 1.0) < 1e-12

    def test_inequivalent_points_rejected(self):
        p = GroupParams(5, 3)
        a, b = build_irr(p, 1, 1, 0.3)
        a2, b2 = build_irr(p, 1, 1, 0.6)
        assert find_conjugator(a, b, a2, b2) is None
        chars = character(a, b)
        chars2 = character(a2, b2)
        assert max(abs(u - v) for u, v in zip(chars, chars2)) > 1e-6

    def test_different_components_rejected(self):
        p = GroupParams(5, 3)
        a, b = build_irr(p, 1, 1, 0.4)
        a2, b2 = build_irr(p, 3, 1, 0.4)
        assert find_conjugator(a, b, a2, b2) is None

    def test_reducible_inputs_refused(self):
        p = GroupParams(3, 2)
        a, b = build_red_noncoprime(p, 0, cmath.exp(0.8j))
        with pytest.raises(ValueError):
            find_conjugator(a, b, a, b)


class TestEmpiricalStructure:
    def test_trefoil_reconstruction(self):
        cfg = SampleConfig(params=GroupParams(3, 2), sample_count=10000, seed=0)
        doc = json.loads(summary_to_json(empirical_structure(cfg)))
        assert doc["ok"] is True
        assert sorted(doc["counts"]) == ["irr:1,1", "red:0"]
        assert doc["decode_errors"] == 0
        assert doc["max_relation_residual"] < 1e-10
        assert doc["max_classification_residual"] < 1e-6
        assert all(arc["ok"] for arc in doc["adjacency"])
        # both limit sides of the single arc were observed and matched node 0
        arc = doc["adjacency"][0]
        assert arc["expected"] == [0, 0]
        assert sum(arc["observed_t0"].values()) > 0
        assert sum(arc["observed_t1"].values()) > 0

    def test_summary_is_deterministic(self):
        cfg = SampleConfig(params=GroupParams(4, 6), sample_count=800, seed=11)
        s1 = empirical_structure(cfg)
        s2 = empirical_structure(cfg)
        assert summary_to_json(s1) == summary_to_json(s2)

    def test_summary_schema(self):
        cfg = SampleConfig(params=GroupParams(3, 2), sample_count=50, seed=2)
        doc = json.loads(summary_to_json(empirical_structure(cfg)))
        assert doc["schema"] == "tkchar-verify/1"
        assert doc["params"] == {"m": 3, "n": 2, "d": 1}
        assert doc["seed"] == 2 and doc["sample_count"] == 50
        for key in (
            "counts",
            "expected_components",
            "adjacency",
            "flags",
            "ok",
            "max_relation_residual",
            "max_classification_residual",
            "decode_errors",
        ):
            assert key in doc

    def test_limit_vote_decodes_every_arc_end(self):
        # the adjacency vote reads a near-limit pair through the reducible
        # decoder; it must land on build_graph's endpoint node on both ends
        # of every arc, whatever the conjugation
        rng = np.random.default_rng(20240)
        for (m, n), ts in [
            ((30, 45), (0.0199, 0.9801)),
            ((100, 150), (0.0199, 0.9801)),
            ((200, 300), (0.0199, 0.9801, 0.01, 0.99)),
            ((300, 450), (0.0199, 0.9801, 0.01, 0.99)),
        ]:
            p = GroupParams(m, n)
            graph = build_graph(p)
            arcs = graph.k.size  # arc j is enumerate_irr(p)[j]
            for t in ts:
                side = 0 if t < 0.5 else 1
                pairs = _build_arrays(
                    p,
                    np.zeros(arcs, dtype=bool),
                    np.arange(arcs),
                    np.full(arcs, t),
                    rng.normal(size=(arcs, 4)),
                )
                out = _classify_arrays(p, *pairs, 1e-9)
                assert (out.reason == OK).all() and not out.reducible.any(), ((m, n), t)
                assert out.k.tolist() == graph.k.tolist() and out.kp.tolist() == graph.kp.tolist()
                wrong = np.flatnonzero(out.node != graph.node[:, side])
                assert wrong.size == 0, ((m, n), t, graph.k[wrong[:3]], graph.kp[wrong[:3]])

    def test_summary_json_is_strict(self):
        # a non-finite maximum is refused at the call, before a chunk exists
        s = empirical_structure(SampleConfig(params=GroupParams(3, 2), sample_count=50, seed=2))
        for field in ("max_relation", "max_classification"):
            for bad in (math.nan, math.inf):
                bad_summary = dataclasses.replace(s, **{field: bad})
                with pytest.raises(ValueError, match="non-finite"):
                    summary_to_json(bad_summary)
                with pytest.raises(ValueError, match="non-finite"):
                    summary_chunks(bad_summary)

    def test_tight_tolerance_fails_verification(self):
        # an absurd tolerance misroutes reducible samples; flags must drop
        cfg = SampleConfig(params=GroupParams(3, 2), sample_count=400, seed=1, tol=1e-18)
        s = empirical_structure(cfg)
        assert s.ok is False


def draw_arrays(cfg: SampleConfig, indices: range):
    """stream.draws of cfg's stream over indices."""
    return stream.draws(cfg.seed, indices, *_stream_args(cfg))


def reference_pair(cfg: SampleConfig, comps, index: int) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """The index-th sample built by the scalar builders from stream.draw, comps
    being enumerate_irr(cfg.params)."""
    p = cfg.params
    reducible, j, u, g = stream.draw(cfg.seed, index, *_stream_args(cfg))
    if reducible:
        a, b = build_red_noncoprime(p, j, cmath.exp(1j * (2.0 * math.pi * u)))
    else:
        comp = comps[j]
        a, b = build_irr(p, comp.k, comp.kp, min(max(u, 1e-12), 1.0 - 1e-12))
    conj = from_quaternion(complex(g[0], g[1]), complex(g[2], g[3]))
    return conjugate_by(a, conj), conjugate_by(b, conj)


def quaternion_bits(x: UnitaryMatrix) -> list[int]:
    return bits([x.a.real, x.a.imag, x.b.real, x.b.imag])


class TestBatchedOracle:
    """empirical_structure's chunked pipeline and classify, a batch of one."""

    @pytest.mark.parametrize("m, n", [(4, 6), (12, 18), (7, 4), (30, 45)])
    def test_batched_draws_equal_sample_pair(self, m, n):
        # the array builders equal the scalar builders bit for bit at every
        # index, over several chunks and a partial one, and sample_pair, a
        # batch of one, is the same pair (checked at every tenth index)
        cfg = SampleConfig(params=GroupParams(m, n), sample_count=2100, seed=8)
        comps = enumerate_irr(cfg.params)
        for start in range(0, cfg.sample_count, CHUNK):
            indices = range(start, min(start + CHUNK, cfg.sample_count))
            batch = [matrices(q) for q in _build_arrays(cfg.params, *draw_arrays(cfg, indices))]
            for pos, index in enumerate(indices):
                want = [quaternion_bits(x) for x in reference_pair(cfg, comps, index)]
                assert [quaternion_bits(q[pos]) for q in batch] == want, index
                if index % 10 == 0:
                    assert [quaternion_bits(x) for x in sample_pair(cfg, index)] == want, index

    @pytest.mark.parametrize(
        "m, n", [(2, 198), (2, 200), (2, 202), (202, 2), (1000, 999), (12, 18)]
    )
    def test_red_arrays_equal_build_red_noncoprime(self, m, n):
        # IEEE bits, sign of zero included, on every raw circle, with b or a
        # on both sides of CPython's switch from repeated multiplication
        # (|e| <= 100) to exp/log in its complex power
        p = GroupParams(m, n)
        turns = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
        u = np.array(turns + np.random.default_rng(m * n).random(200).tolist())
        for i in range(p.d):
            j = np.full(u.size, i)
            want = [build_red_noncoprime(p, i, cmath.exp(1j * (2.0 * math.pi * x))) for x in u]
            for q, pairs in zip(_red_arrays(p, j, u), zip(*want)):
                assert bits(np.stack(q, axis=1)) == [quaternion_bits(x) for x in pairs], i

    def assert_classify_raises(self, p, pairs, reasons, tol=1e-9):
        # the kernel's reason codes, and classify raising on exactly the
        # pairs whose code is not OK
        out = _classify_arrays(p, columns(a for a, _ in pairs), columns(b for _, b in pairs), tol)
        assert out.reason.tolist() == reasons
        for (a, b), reason in zip(pairs, reasons):
            if reason == OK:
                classify(p, a, b, tol)
            else:
                with pytest.raises(ValueError):
                    classify(p, a, b, tol)

    @pytest.mark.parametrize(
        "m, n", [(4, 6), (12, 18), (7, 4), (30, 45), (2, 202), (202, 2), (200, 300)]
    )
    def test_kernel_equals_classify(self, m, n):
        # the kernel's decisions on sampled pairs against the scalar su2
        # references and the drawn component and coordinate
        p = GroupParams(m, n)
        cfg = SampleConfig(params=p, sample_count=700, seed=m)
        reducible, j, u, _ = draws = draw_arrays(cfg, range(cfg.sample_count))
        a, b = _build_arrays(p, *draws)
        out = _classify_arrays(p, a, b, cfg.tol)
        comps = enumerate_irr(p)
        assert (out.reason == OK).all()
        assert out.reducible.tolist() == reducible.tolist()
        assert out.reducible.any() and not out.reducible.all()
        for pos, (x, y) in enumerate(zip(matrices(a), matrices(b))):
            assert out.reducible[pos] == is_reducible_pair(x, y, cfg.tol), pos
            relation = sup_diff(mat_pow(x, m), mat_pow(y, n))
            assert bits([out.relation[pos]]) == bits([relation]), pos
            if reducible[pos]:
                node = canonical_red_angle(p, int(j[pos]), 2.0 * math.pi * u[pos])[0]
                assert out.node[pos] == node, pos
            else:
                comp = comps[j[pos]]
                assert (out.k[pos], out.kp[pos]) == (comp.k, comp.kp), pos
                t = min(max(u[pos], 1e-12), 1.0 - 1e-12)
                assert abs(out.coordinate[pos] - t) <= 1e-9, pos

    def test_kernel_refuses_what_classify_refuses(self):
        # corrupted pairs between clean ones: each gets the code of the
        # first check it fails, and classify raises on exactly those
        p = GroupParams(4, 4)
        x, y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        clean = [build_irr(p, 1, 3, 0.3), build_red_noncoprime(p, 1, cmath.exp(0.7j))]
        nan = (UnitaryMatrix(complex(math.nan, math.nan), complex(math.nan)), clean[0][1])
        off_relation = (from_quaternion(1 + 0.5j, 0.3), from_quaternion(0.2, 1 - 1j))
        # a's half-angle 1e-8 decodes to k = 1, b's to kp = 2; a^4 and b^4
        # are within 1e-7 of the identity
        parity = (rotation(1e-8, x), rotation(math.pi / 2, y))
        pairs = [clean[0], nan, clean[1], off_relation, clean[0], parity, clean[1]]
        self.assert_classify_raises(p, pairs, [OK, RELATION, OK, RELATION, OK, PARITY, OK])
        with pytest.raises(ValueError, match=r"relation \(residual nan\)"):
            classify(p, *nan)
        with pytest.raises(ValueError, match=r"decoded labels \(1, 2\) violate the parity"):
            classify(p, *parity)

    def test_kernel_refuses_ambiguous_labels(self):
        # a's (b's) half-angle pi/2 + 1e-7 puts k = alpha*m/pi 1.3e-7 past 2,
        # which a tolerance just under 1/2 cannot separate from 2.5; the
        # axes stay orthogonal, so the pair is still irreducible
        p = GroupParams(4, 4)
        tol = 0.5 - 1e-8
        x, y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        ambiguous_a = (rotation(math.pi / 2 + 1e-7, x), rotation(math.pi / 2, y))
        ambiguous_b = (rotation(math.pi / 2, x), rotation(math.pi / 2 + 1e-7, y))
        clean = build_irr(p, 2, 2, 0.5)
        pairs = [clean, ambiguous_a, clean, ambiguous_b]
        self.assert_classify_raises(p, pairs, [OK, AMBIGUOUS_A, OK, AMBIGUOUS_B], tol)
        for pair in (ambiguous_a, ambiguous_b):
            with pytest.raises(AmbiguousDecodeError, match=r"fits labels \(2, 3\)") as exc:
                classify(p, *pair, tol)
            assert exc.value.candidates == (2, 3)

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_chunk_size_does_not_move_bytes(self, monkeypatch, chunk):
        cfg = SampleConfig(params=GroupParams(12, 18), sample_count=600, seed=4)
        want = summary_to_json(empirical_structure(cfg))
        monkeypatch.setattr(tkchar.verify, "CHUNK", chunk)
        assert summary_to_json(empirical_structure(cfg)) == want

    def test_no_scalar_call_per_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar path called")

        for name in ("sample_pair", "classify", "conjugate_by", "is_reducible_pair", "sup_diff"):
            monkeypatch.setattr(tkchar.verify, name, refuse)
        # build_red_noncoprime normalizes its coordinate through reps._unit
        monkeypatch.setattr(tkchar.reps, "_unit", refuse)
        s = empirical_structure(SampleConfig(params=GroupParams(4, 6), sample_count=300, seed=1))
        assert s.ok is True

    def test_memory_bounded_by_chunk(self, monkeypatch):
        # peak traced memory does not grow with the sample count.  tracemalloc
        # sees this process alone, so one worker: with two, this process
        # would tally 1 chunk at 2*CHUNK and 2 at 5*CHUNK, and a run of one
        # chunk peaks lower than a longer one, whose previous chunk's arrays
        # are alive while the next is built
        import tracemalloc

        use_cpus(monkeypatch, 1)
        p = GroupParams(4, 6)
        empirical_structure(SampleConfig(params=p, sample_count=10, seed=1))  # per-order tables
        peaks = []
        for count in (2 * CHUNK, 5 * CHUNK):
            assert count > CHUNK
            tracemalloc.start()
            try:
                empirical_structure(SampleConfig(params=p, sample_count=count, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


def assert_no_child() -> None:
    """Every worker has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """empirical_structure split into runs of whole chunks, all but the
    first tallied in forked workers: the same bytes at every worker count,
    a worker's exception raised here, and no worker left behind."""

    @pytest.mark.parametrize(
        "m, n, count, seed, tol, chunk",
        [
            (4, 6, 20_000, 1, DEFAULT_TOL, CHUNK),
            # the Lemire retry of tests/test_stream.py::test_retry_at_verify_30_45
            (30, 45, 16_000, 2395, DEFAULT_TOL, CHUNK),
            (12, 18, 600, 4, DEFAULT_TOL, 7),
            # samples fail to decode, so the flags are false
            (12, 18, 3 * CHUNK + 5, 1, 1e-18, CHUNK),
            # one chunk: one run at any CPU count, and no fork
            (4, 6, CHUNK, 1, DEFAULT_TOL, CHUNK),
        ],
    )
    def test_bytes_do_not_depend_on_workers(self, monkeypatch, m, n, count, seed, tol, chunk):
        monkeypatch.setattr(tkchar.verify, "CHUNK", chunk)
        cfg = SampleConfig(params=GroupParams(m, n), sample_count=count, seed=seed, tol=tol)
        chunks = -(-count // chunk)
        if chunks == 1:
            monkeypatch.setattr(os, "fork", None)
        documents = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            assert len(tkchar.verify._runs(count)) == min(cpus, chunks)
            summary = empirical_structure(cfg)
            documents.append(summary_to_json(summary))
        assert documents[1] == documents[0]
        assert documents[2] == documents[0]
        if tol == 1e-18:
            assert summary.decode_errors > 0 and summary.flags["residuals"] is False
        assert_no_child()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 11])
    def test_runs_are_whole_chunks_in_order(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        count = 10 * CHUNK + 1
        runs = tkchar.verify._runs(count)
        assert len(runs) == min(cpus, 11)
        assert [start for run in runs for start in run] == list(range(0, count, CHUNK))
        sizes = [len(run) for run in runs]
        assert sizes == sorted(sizes) and sizes[-1] - sizes[0] <= 1

    # N = 5*CHUNK + 100: the last chunk, of 100 samples, is in the last
    # run at every worker count, so the same sample fails at each
    COUNT = 5 * CHUNK + 100

    def failing_builder(self, monkeypatch, error):
        """_build_arrays that raises error on the last chunk."""
        real = tkchar.verify._build_arrays

        def failing(p, reducible, *draws):
            if reducible.size == 100:
                raise error
            return real(p, reducible, *draws)

        monkeypatch.setattr(tkchar.verify, "_build_arrays", failing)

    def corrupt_guard(self, monkeypatch):
        """A replica that differs from draw() at a guarded index of the last run."""
        cfg = SampleConfig(params=GroupParams(4, 6), sample_count=self.COUNT, seed=1)
        last = range(5 * CHUNK, self.COUNT)
        fast = stream.replica(cfg.seed, last, *_stream_args(cfg))[0]
        target = last[int(np.flatnonzero(fast)[0])]
        real = stream.replica

        def corrupted(seed, indices, *args):
            fast, reducible, j, u, g, seeded = real(seed, indices, *args)
            if target in indices:
                u[target - indices.start] = np.nextafter(u[target - indices.start], 1.0)
            return fast, reducible, j, u, g, seeded

        monkeypatch.setattr(stream, "replica", corrupted)

    @pytest.mark.parametrize(
        "error",
        [ValueError("zero-norm quaternion"), MemoryError(), "guard"],
        ids=["ValueError", "MemoryError", "guard"],
    )
    def test_worker_error_raised_here(self, monkeypatch, capfd, error):
        if error == "guard":
            self.corrupt_guard(monkeypatch)
        else:
            self.failing_builder(monkeypatch, error)
        cfg = SampleConfig(params=GroupParams(4, 6), sample_count=self.COUNT, seed=1)
        raised = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(Exception) as exc:
                empirical_structure(cfg)
            raised.append((type(exc.value), str(exc.value)))
            assert_no_child()
        assert raised[1] == raised[0] and raised[2] == raised[0]
        if error == "guard":
            assert raised[0][0] is RuntimeError and "default_rng" in raised[0][1]
        else:
            assert raised[0] == (type(error), str(error))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("error", [ValueError("zero-norm quaternion"), MemoryError()])
    def test_cli_error_line_does_not_depend_on_workers(self, monkeypatch, capfd, error):
        from tkchar.cli import main

        self.failing_builder(monkeypatch, error)
        argv = ["verify", "-m", "4", "-n", "6", "-N", str(self.COUNT), "--seed", "1"]
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            code = main(argv)
            results.append((code, *capfd.readouterr()))
            assert_no_child()
        assert results[0] == (2, "", f"error: {str(error) or 'out of memory'}\n")
        assert results[1] == results[0]

    def test_worker_without_result(self, monkeypatch):
        real = tkchar.verify._build_arrays
        parent = os.getpid()

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(tkchar.verify, "_build_arrays", dying)
        use_cpus(monkeypatch, 2)
        cfg = SampleConfig(params=GroupParams(4, 6), sample_count=self.COUNT, seed=1)
        with pytest.raises(RuntimeError, match="exited with code 3 and sent no result"):
            empirical_structure(cfg)
        assert_no_child()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_error_here_kills_the_workers(self, monkeypatch, error):
        # the workers would sleep for a minute; an error in this process's
        # run kills them at once, and reaps them
        real = tkchar.verify._build_arrays
        parent = os.getpid()

        def builder(*args):
            if os.getpid() != parent:
                time.sleep(60)
            else:
                raise error("stop")
            return real(*args)

        monkeypatch.setattr(tkchar.verify, "_build_arrays", builder)
        use_cpus(monkeypatch, 3)
        cfg = SampleConfig(params=GroupParams(4, 6), sample_count=self.COUNT, seed=1)
        start = time.perf_counter()
        with pytest.raises(error, match="stop"):
            empirical_structure(cfg)
        assert time.perf_counter() - start < 30
        assert_no_child()


def _round_floats(obj):
    """The reference serializer's float rounding: _sig12 on every float."""
    if isinstance(obj, bool) or isinstance(obj, int) or isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_json(summary: dict) -> str:
    """The tkchar-verify/1 document of a reference_summary by json.dumps."""
    return json.dumps(_round_floats(summary), indent=2, sort_keys=True, allow_nan=False)


def doc_key(comp) -> str:
    """The document's key of a component: "red:i" or "irr:k,kp"."""
    return f"red:{comp.i}" if isinstance(comp, Red) else f"irr:{comp.k},{comp.kp}"


def reference_summary(cfg: SampleConfig) -> dict:
    """The summary as a Counter tally makes it, one sample at a time in
    index order, from the kernel's decisions."""
    p = cfg.params
    g = build_graph(p)
    expected = sorted(
        [doc_key(info.id) for info in enumerate_red(p)] + [doc_key(c) for c in enumerate_irr(p)]
    )
    labels = list(zip(g.k.tolist(), g.kp.tolist()))
    counts: Counter[str] = Counter()
    votes = {key: [Counter(), Counter()] for key in labels}
    max_relation = max_classification = 0.0
    decode_errors = 0
    out = _classify_arrays(p, *_build_arrays(p, *draw_arrays(cfg, range(cfg.sample_count))), cfg.tol)
    for i in range(cfg.sample_count):
        if out.reason[i] != OK:
            decode_errors += 1
            continue
        max_relation = max(max_relation, float(out.relation[i]))
        max_classification = max(max_classification, float(out.residual[i]))
        if out.reducible[i]:
            counts[doc_key(Red(int(out.node[i])))] += 1
            continue
        key = (int(out.k[i]), int(out.kp[i]))
        counts[doc_key(Irr(*key))] += 1
        t = float(out.coordinate[i])
        if not 0.02 <= t <= 0.98:
            votes[key][0 if t < 0.02 else 1][int(out.node[i])] += 1
    adjacency = []
    for key, ends in zip(labels, g.node.tolist()):
        arc_ok = all(
            not tally or tally.most_common(1)[0][0] == ends[side]
            for side, tally in enumerate(votes[key])
        )
        observed = [{str(node): c for node, c in sorted(tally.items())} for tally in votes[key]]
        adjacency.append(
            {"k": key[0], "kp": key[1], "expected": ends, "observed_t0": observed[0],
             "observed_t1": observed[1], "ok": arc_ok}
        )
    flags = {
        "components": sorted(counts) == expected,
        "adjacency": all(arc["ok"] for arc in adjacency),
        "residuals": decode_errors == 0 and max_relation <= 1e-9 and max_classification <= 1e-6,
    }
    return {
        "schema": "tkchar-verify/1",
        "params": {"m": p.m, "n": p.n, "d": p.d},
        "seed": cfg.seed,
        "sample_count": cfg.sample_count,
        "reducible_fraction": cfg.reducible_fraction,
        "tolerance": cfg.tol,
        "counts": dict(sorted(counts.items())),
        "expected_components": expected,
        "max_relation_residual": max_relation,
        "max_classification_residual": max_classification,
        "decode_errors": decode_errors,
        "adjacency": adjacency,
        "flags": flags,
        "ok": all(flags.values()),
    }


# (m, n, N, seed, reducible fraction, tol)
SUMMARY_SWEEP = [
    (3, 2, 1, 0, 0.25, 1e-9),  # N below the component count
    (4, 6, 7, 1, 0.25, 1e-9),
    (3, 2, 400, 1, 0.25, 1e-18),  # decode errors
    (12, 18, 500, 4, 0.0, 1e-9),  # no reducible sample
    (12, 18, 300, 4, 1.0, 1e-9),  # no irreducible sample, so no vote
    (7, 4, 600, 2, 0.25, 1e-9),  # d = 1
    (30, 45, 2500, 1, 0.25, 1e-9),
    (40, 60, 1500, 3, 0.25, 1e-9),  # d = 20: "red:10" before "red:2"
    # d = 21: votes for nodes 0 to 10, but one node per arc end (two voted
    # nodes on one end are planted in test_votes_sorted_as_strings)
    (42, 63, 3000, 5, 0.25, 1e-9),
]


class TestSummaryWriter:
    """The array tally and summary_chunks against a Counter tally and json.dumps."""

    @pytest.mark.parametrize("m, n, count, seed, fraction, tol", SUMMARY_SWEEP)
    def test_bytes_match_reference_serializer(self, monkeypatch, m, n, count, seed, fraction, tol):
        cfg = SampleConfig(GroupParams(m, n), count, seed, fraction, tol)
        s = empirical_structure(cfg)
        want = reference_summary(cfg)
        # the tally itself, its maxima unrounded
        counts = {doc_key(Red(i)): c for i, c in enumerate(s.red_counts.tolist()) if c} | {
            doc_key(Irr(k, kp)): c
            for k, kp, c in zip(s.k.tolist(), s.kp.tolist(), s.irr_counts.tolist())
            if c
        }
        assert counts == want["counts"]
        assert s.max_relation == want["max_relation_residual"]
        assert s.max_classification == want["max_classification_residual"]
        assert s.decode_errors == want["decode_errors"]
        assert s.flags == want["flags"] and s.ok is want["ok"]
        text = reference_json(want)
        for chunk in (1, 2, 7, tkchar.graph.CHUNK):
            monkeypatch.setattr(tkchar.graph, "CHUNK", chunk)
            chunks = list(summary_chunks(s))
            assert "".join(chunks) == text, chunk
            # the adjacency and expected_components lists each break at every chunk arcs
            assert len(chunks) >= 2 * -(-len(s.k) // chunk)

    def test_reads_no_graph(self, monkeypatch):
        # the expected arc ends are the closed form over the label table, so
        # empirical_structure runs with build_graph refused, and its first
        # call at an order holds a few arrays per arc, not the exact graph
        import tracemalloc

        cfg = SampleConfig(GroupParams(40, 60), 1500, 3)
        want = reference_json(reference_summary(cfg))

        def refused(p):
            raise AssertionError("verify builds no incidence graph")

        monkeypatch.setattr(tkchar.graph, "build_graph", refused)
        monkeypatch.setattr(tkchar.verify, "build_graph", refused, raising=False)
        s = empirical_structure(cfg)
        assert summary_to_json(s) == want
        assert not any(a.flags.writeable for a in (s.k, s.kp, s.node))
        p = GroupParams(400, 399)
        tkchar.verify._irr_tables.cache_clear()
        tracemalloc.start()
        try:
            empirical_structure(SampleConfig(p, 100, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * count_irr(p), peak / count_irr(p)

    def test_int_floats_stay_ints(self):
        # an int fraction is written as json.dumps writes it
        cfg = SampleConfig(GroupParams(4, 6), 30, 2, reducible_fraction=1)
        text = summary_to_json(empirical_structure(cfg))
        assert text == reference_json(reference_summary(cfg))
        assert '"reducible_fraction": 1,' in text

    def test_votes_sorted_as_strings(self):
        # cells planted on two arc ends, which no sampled sweep gives: nodes
        # 10 and 2 on one end, a tie between 10, 3 and 2 on another; the
        # writer orders each end's nodes as json.dumps(sort_keys=True) does
        s = empirical_structure(SampleConfig(GroupParams(42, 63), 20, 5))
        assert len(s.red_counts) == 11
        planted = [(0, 2, 1), (0, 10, 3), (3, 2, 2), (3, 3, 2), (3, 10, 2)]
        group, node, count = (np.array(c, dtype=np.int64) for c in zip(*planted))
        s = dataclasses.replace(s, vote_group=group, vote_node=node, vote_count=count)
        text = summary_to_json(s)
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
        adjacency = json.loads(text)["adjacency"]
        assert adjacency[0]["observed_t0"] == {"2": 1, "10": 3}
        assert adjacency[1]["observed_t1"] == {"2": 2, "3": 2, "10": 2}

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=60),
        st.integers(1, 7),
        st.integers(0, 60),
    )
    def test_leaders_pick_most_common(self, votes, split, cut):
        # (group, node) votes in index order, cast split at a time into two
        # runs, the second from the vote at cut on, whose cells are then
        # merged as empirical_structure merges its workers' parts: the
        # array winner of each group is Counter.most_common(1)'s
        tallies: dict[int, Counter] = {}
        for group, node in votes:
            tallies.setdefault(group, Counter())[node] += 1
        empty = np.zeros(0, dtype=np.int64)
        runs = []
        for lo, hi in ((0, min(cut, len(votes))), (min(cut, len(votes)), len(votes))):
            run = (empty, empty, empty)
            for start in range(lo, hi, split):
                part = votes[start : min(start + split, hi)]
                cells = np.array([5 * group + node for group, node in part], dtype=np.int64)
                index = np.arange(start, start + len(part))
                run = _add_votes(run, (cells, index, np.ones_like(cells)))
            runs.append(run)
        state = _add_votes(*runs)
        cell, first, count = state
        group, node = np.divmod(cell, 5)
        assert dict(zip(zip(group.tolist(), node.tolist()), count.tolist())) == {
            (g, n): c for g, tally in tallies.items() for n, c in tally.items()
        }
        lead = _leaders(group, count, first)
        assert {int(group[j]): int(node[j]) for j in lead} == {
            g: tally.most_common(1)[0][0] for g, tally in tallies.items()
        }

    @pytest.mark.parametrize("size", [1, 2, 9, 10, 11, 99, 100, 101, 1234, 20001])
    def test_decimal_order_is_string_order(self, size):
        order = sorted(range(size), key=str)
        assert np.argsort(_decimal_rank(size)).tolist() == order

    @pytest.mark.parametrize(
        "m, n", [(2, 2), (3, 2), (4, 6), (7, 4), (6, 9), (12, 18), (30, 45), (41, 2), (2, 41)]
    )
    def test_label_arrays_in_enumerate_irr_order(self, m, n):
        # irr_labels, the builder's tables and the graph's arcs list the
        # labels in enumerate_irr's order, and irr_position inverts it
        p = GroupParams(m, n)
        want = [(c.k, c.kp) for c in enumerate_irr(p)]
        g = build_graph(p)
        for k, kp in (irr_labels(p), _irr_tables(p)[:2], (g.k, g.kp)):
            assert list(zip(k.tolist(), kp.tolist())) == want
        k, kp = irr_labels(p)
        assert irr_position(p, k, kp).tolist() == list(range(count_irr(p)))

    def test_writer_memory_bounded(self):
        # draining the writer holds a small part of its 5.4 MB document
        import tracemalloc

        s = empirical_structure(SampleConfig(GroupParams(200, 300), 1000, 1))
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in summary_chunks(s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 5_000_000
        assert peak < size / 3, (peak, size)
