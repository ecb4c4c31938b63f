"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured numbers.

Every tolerance and runtime bound here is part of the package contract;
nothing in this file is allowed to loosen silently.
"""

import cmath
import functools
import json
import math
import sys
import time

import numpy as np

from tkchar.cli import main as cli_main
from tkchar.components import (
    GroupParams,
    Irr,
    Red,
    count_irr,
    enumerate_irr,
    enumerate_red,
    fold_index,
    joining_component,
    self_loops,
)
from tkchar.graph import build_graph, is_connected
from tkchar.reps import DEFAULT_WORDS, build_irr, build_red_noncoprime, character, cross_ratio_of_pair
from tkchar.roots import root
from tkchar.su2 import DEFAULT_TOL, conjugate_by, from_quaternion, mat_pow, sup_diff
from tkchar.verify import (
    AMBIGUOUS_A,
    AMBIGUOUS_B,
    PARITY,
    RELATION,
    _classify_arrays,
    find_conjugator,
)


def quaternions(matrices):
    """Quaternion arrays (Re a, Im a, Re b, Im b) of a list of matrices."""
    parts = ((u.a.real, u.a.imag, u.b.real, u.b.imag) for u in matrices)
    return tuple(np.array(c) for c in zip(*parts))


def reported(number, title):
    """Emit "[criterion NN] PASS/FAIL" on the real stdout so the line is
    visible in the live test log regardless of capture settings."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(
                    f"\n[criterion {number:02d}] FAIL - {title}: {exc!r}",
                    file=sys.__stdout__,
                    flush=True,
                )
                raise
            print(
                f"\n[criterion {number:02d}] PASS - {title}: {detail}",
                file=sys.__stdout__,
                flush=True,
            )

        return wrapper

    return deco


@reported(1, "closed-form count matches enumeration, 2 <= m,n <= 24, < 1 s")
def test_criterion_01_counting():
    start = time.perf_counter()
    for m in range(2, 25):
        for n in range(2, 25):
            p = GroupParams(m, n)
            expected = (
                ((m - 1) * (n - 1) + 1) // 2
                if m % 2 == 0 and n % 2 == 0
                else (m - 1) * (n - 1) // 2
            )
            assert count_irr(p) == len(enumerate_irr(p)) == expected, (m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    return f"529 order pairs in {elapsed * 1000:.0f} ms"


@reported(2, "trefoil endpoints match the brute-force scan oracle to 1e-12, < 0.1 s")
def test_criterion_02_trefoil():
    start = time.perf_counter()
    g = build_graph(GroupParams(3, 2))
    assert len(g.nodes) == 1 and g.nodes[0].su2_topology == "closed-interval"
    assert len(g.arcs) == 1
    # oracle: scan all t = exp(i*pi*c/6) for the unique solutions of the
    # power equations at each closure point
    def scan(k2):
        hits = [
            c
            for c in range(12)
            if root(c, 6) ** 2 == root(1, 3) and root(c, 6) ** 3 == root(k2, 2)
        ]
        assert len(hits) == 1
        return root(hits[0], 6)

    t0, t1 = scan(1), scan(3)
    ep0, ep1 = g.arcs[0].endpoints
    assert ep0.t_raw == t0 and ep1.t_raw == t1
    s0, s1 = 2 * math.cos(t0.angle), 2 * math.cos(t1.angle)
    assert abs(ep0.s_real - s0) < 1e-12, f"s0 {ep0.s_real} vs oracle {s0}"
    assert abs(ep1.s_real - s1) < 1e-12, f"s1 {ep1.s_real} vs oracle {s1}"
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    return f"s0={ep0.s_real:.12f}, s1={ep1.s_real:.12f} in {elapsed * 1000:.1f} ms"


@reported(3, "relation residual < 1e-10 over 10,000 randomized builds")
def test_criterion_03_relation_residual():
    rng = np.random.default_rng(2024)
    cases = [(3, 2), (5, 3), (4, 6), (6, 9)]
    worst = 0.0
    for m, n in cases:
        p = GroupParams(m, n)
        comps = enumerate_irr(p)
        for _ in range(2500):
            if rng.random() < 0.3:
                i = int(rng.integers(p.d))
                a, b = build_red_noncoprime(p, i, cmath.exp(2j * math.pi * rng.random()))
            else:
                comp = comps[int(rng.integers(len(comps)))]
                t = min(max(rng.random(), 1e-9), 1 - 1e-9)
                a, b = build_irr(p, comp.k, comp.kp, t)
            worst = max(worst, sup_diff(mat_pow(a, m), mat_pow(b, n)))
    assert worst < 1e-10, f"worst residual {worst}"
    return f"worst ||A^m - B^n|| = {worst:.3e} over 10000 builds"


@reported(4, "cross-ratio equals t/(t-1) within 1e-9 on a 99-point grid, (m,n) <= 8")
def test_criterion_04_cross_ratio_law():
    worst = 0.0
    for m in range(2, 9):
        for n in range(2, 9):
            p = GroupParams(m, n)
            for comp in enumerate_irr(p):
                for j in range(1, 100):
                    t = j / 100.0
                    a, b = build_irr(p, comp.k, comp.kp, t)
                    r = cross_ratio_of_pair(a, b)
                    worst = max(worst, abs(r - t / (t - 1.0)))
    assert worst < 1e-9, f"worst deviation {worst}"
    return f"worst |r - t/(t-1)| = {worst:.3e}"


@reported(5, "classify(build(.)) round-trip within 1e-8, zero ambiguity, (m,n) <= 8")
def test_criterion_05_round_trip():
    # classify's kernel on one batch per order
    from tkchar.verify import canonical_red_angle

    ambiguity_errors = 0
    worst = 0.0
    for m in range(2, 9):
        for n in range(2, 9):
            p = GroupParams(m, n)
            pairs, expected = [], []
            for comp in enumerate_irr(p):
                for t in (0.05, 0.3, 0.5, 0.7, 0.95):
                    pairs.append(build_irr(p, comp.k, comp.kp, t))
                    expected.append((comp, t))
            for i in range(p.d):
                for j in range(8):
                    theta = 0.11 + 2 * math.pi * j / 8
                    pairs.append(build_red_noncoprime(p, i, cmath.exp(1j * theta)))
                    i_can, th_can = canonical_red_angle(p, i, theta)
                    expected.append((Red(i_can), th_can))
            out = _classify_arrays(p, *(quaternions(q) for q in zip(*pairs)), DEFAULT_TOL)
            assert not np.isin(out.reason, (RELATION, PARITY)).any(), (m, n)
            ambiguous = np.isin(out.reason, (AMBIGUOUS_A, AMBIGUOUS_B))
            ambiguity_errors += int(ambiguous.sum())
            for pos, (comp, coordinate) in enumerate(expected):
                if ambiguous[pos]:
                    continue
                k, kp, node = int(out.k[pos]), int(out.kp[pos]), int(out.node[pos])
                assert (Red(node) if out.reducible[pos] else Irr(k, kp)) == comp, (m, n, comp)
                worst = max(worst, abs(float(out.coordinate[pos]) - coordinate))
    assert ambiguity_errors == 0, f"{ambiguity_errors} ambiguity errors"
    assert worst < 1e-8, f"worst coordinate error {worst}"
    return f"worst coordinate error {worst:.3e}, 0 ambiguity errors"


@reported(6, "200 planted conjugators < 1e-7; 200 inequivalent pairs differ > 1e-6")
def test_criterion_06_conjugator_desk_scale():
    rng = np.random.default_rng(77)
    p = GroupParams(5, 4)
    comps = enumerate_irr(p)
    worst_planted = 0.0
    for _ in range(200):
        comp = comps[int(rng.integers(len(comps)))]
        a, b = build_irr(p, comp.k, comp.kp, float(rng.uniform(0.03, 0.97)))
        g4 = rng.normal(size=4)
        g = from_quaternion(complex(g4[0], g4[1]), complex(g4[2], g4[3]))
        a2, b2 = conjugate_by(a, g), conjugate_by(b, g)
        q = find_conjugator(a, b, a2, b2)
        assert q is not None
        worst_planted = max(
            worst_planted,
            sup_diff(conjugate_by(a, q), a2) + sup_diff(conjugate_by(b, q), b2),
        )
    assert worst_planted < 1e-7, f"worst planted residual {worst_planted}"

    smallest_gap = math.inf
    checked = 0
    while checked < 200:
        c1 = comps[int(rng.integers(len(comps)))]
        c2 = comps[int(rng.integers(len(comps)))]
        t1, t2 = rng.uniform(0.03, 0.97, size=2)
        if c1 == c2 and abs(t1 - t2) < 0.05:
            continue
        a, b = build_irr(p, c1.k, c1.kp, float(t1))
        a2, b2 = build_irr(p, c2.k, c2.kp, float(t2))
        chars = character(a, b)
        chars2 = character(a2, b2)
        gap = max(abs(u - v) for u, v in zip(chars, chars2))
        smallest_gap = min(smallest_gap, gap)
        assert find_conjugator(a, b, a2, b2) is None
        checked += 1
    assert smallest_gap > 1e-6, f"character gap only {smallest_gap}"
    return f"planted residual <= {worst_planted:.2e}, min character gap {smallest_gap:.2e}"


@reported(7, "graph connected for 2 <= m,n <= 10; node pairs joined by formula arcs")
def test_criterion_07_connectivity():
    pairs_checked = 0
    for m in range(2, 11):
        for n in range(2, 11):
            p = GroupParams(m, n)
            g = build_graph(p)
            assert is_connected(g), (m, n)
            by_label = {(a.component.k, a.component.kp): a for a in g.arcs}
            for i1 in range(1, p.d // 2 + 1):
                for i0 in range(i1):
                    k, kp = joining_component(p, i0, i1)
                    assert k == p.d + i0 - i1 and kp == p.d - i0 - i1
                    arc = by_label[(k, kp)]
                    assert {arc.endpoints[0].node, arc.endpoints[1].node} == {i0, i1}
                    pairs_checked += 1
    return f"81 graphs connected, {pairs_checked} node pairs joined by formula arcs"


@reported(8, "limit characters match attachment-point characters within 1e-2")
def test_criterion_08_limit_consistency():
    worst = 0.0
    for m, n in [(3, 2), (4, 6)]:
        p = GroupParams(m, n)
        for arc in build_graph(p).arcs:
            for side, t in ((0, 1e-6), (1, 1.0 - 1e-6)):
                a, b = build_irr(p, arc.component.k, arc.component.kp, t)
                ep = arc.endpoints[side]
                ar, br = build_red_noncoprime(p, ep.raw_index, complex(ep.t_raw))
                diff = max(
                    abs(u - v)
                    for u, v in zip(character(a, b, DEFAULT_WORDS), character(ar, br, DEFAULT_WORDS))
                )
                worst = max(worst, diff)
    assert worst < 1e-2, f"worst limit gap {worst}"
    return f"worst character gap at t -> limits: {worst:.3e}"


@reported(9, "self-loop sets: none for m=n in 2..8, none at interval nodes for divisor cases")
def test_criterion_09_self_loops():
    for m in range(2, 9):
        assert self_loops(GroupParams(m, m)) == [], m
    for m, n in [(4, 2), (6, 2), (6, 3), (9, 3)]:
        p = GroupParams(m, n)
        for comp, i in self_loops(p):
            assert i != 0 and 2 * i != p.d, (m, n, comp, i)
    # exhaustive scan oracle over a wider sweep
    for m in range(2, 13):
        for n in range(2, 13):
            p = GroupParams(m, n)
            scanned = set()
            for comp in enumerate_irr(p):
                i0 = fold_index((comp.k - comp.kp) // 2, p.d)
                i1 = fold_index((comp.k + comp.kp) // 2, p.d)
                if i0 == i1:
                    scanned.add(((comp.k, comp.kp), i0))
            assert {((c.k, c.kp), i) for c, i in self_loops(p)} == scanned, (m, n)
    return "loop-free cases verified; scan oracle agrees on 121 order pairs"


@reported(10, "verify -m 4 -n 6 -N 50000 --seed 7: 8+2 components, adjacency, < 30 s")
def test_criterion_10_empirical(capsys):
    start = time.perf_counter()
    code = cli_main(["verify", "-m", "4", "-n", "6", "-N", "50000", "--seed", "7"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code}"
    doc = json.loads(out)
    irr = sorted(k for k in doc["counts"] if k.startswith("irr:"))
    red = sorted(k for k in doc["counts"] if k.startswith("red:"))
    assert len(irr) == 8, irr
    assert len(red) == 2, red
    assert doc["counts"] == {k: v for k, v in doc["counts"].items() if v > 0}
    assert all(arc["ok"] for arc in doc["adjacency"])
    assert doc["flags"] == {"adjacency": True, "components": True, "residuals": True}
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return f"8 irreducible + 2 reducible observed, adjacency agreed, {elapsed:.1f} s"
