"""Incidence graph: exact attachment points, folding, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

import tkchar.graph
from tkchar.components import (
    GroupParams,
    alpha_root,
    attachment,
    attachment_nodes,
    count_irr,
    joining_component,
    self_paired,
)
from tkchar.graph import (
    _endpoint_rule,
    build_graph,
    involution_twist,
    is_connected,
    json_chunks,
    shared_endpoints,
    to_dot,
    to_json,
    to_svg_schematic,
)
from tkchar.roots import ONE, RootOfUnity, root

SWEEP = [(m, n) for m in range(2, 41) for n in range(2, 41)]
# orders for the chunk-boundary test: trefoil first, (6, 9) fourth; odd,
# even and coprime d, self-paired nodes, up to 741 arcs at (40, 39)
CHUNK_ORDERS = [(3, 2), (4, 6), (5, 3), (6, 9), (8, 12), (12, 18), (7, 4), (40, 39), (26, 39)]
ARRAYS = ("k", "kp", "raw", "c_raw", "node", "num", "den", "s_real")


def without_arcs(g):
    """The same nodes with every arc array cut to length zero."""
    return dataclasses.replace(g, **{name: getattr(g, name)[:0] for name in ARRAYS})


def reference_json(g):
    """The dict + json.dumps serializer the direct writer replaced: the byte
    reference for to_json."""
    ends = zip(*(getattr(g, name).tolist() for name in ("node", "num", "den", "s_real")))
    doc = {
        "params": {"m": g.params.m, "n": g.params.n, "d": g.params.d},
        "nodes": [{"id": info.id.i, "topology": info.su2_topology} for info in g.nodes],
        "arcs": [
            {
                "k": k,
                "kp": kp,
                "endpoints": [
                    {
                        "node": node[j],
                        "t_num": num[j],
                        "t_den": den[j],
                        "s_real": float(f"{s_real[j]:.12g}"),
                    }
                    for j in (0, 1)
                ],
            }
            for k, kp, (node, num, den, s_real) in zip(g.k.tolist(), g.kp.tolist(), ends)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def reference_shared_endpoints(g):
    """Object scan in (arc, side) order: the reference for the group-by."""
    seen, collisions = {}, []
    for ai, arc in enumerate(g.arcs):
        for side, ep in enumerate(arc.endpoints):
            key = (ep.node, ep.t_canonical)
            if key in seen:
                collisions.append((seen[key], (ai, side)))
            else:
                seen[key] = (ai, side)
    return collisions


def brute_force_endpoint(k, m, k2, n):
    """Independent scan for the unique t = exp(i*pi*c/(m*n)) with t^n and
    t^m equal to the prescribed eigenvalues (coprime orders only)."""
    hits = [
        c
        for c in range(2 * m * n)
        if root(c, m * n) ** n == root(k, m) and root(c, m * n) ** m == root(k2, n)
    ]
    assert len(hits) == 1
    return root(hits[0], m * n)


class TestTrefoil:
    def test_structure(self):
        g = build_graph(GroupParams(3, 2))
        assert len(g.nodes) == 1 and g.nodes[0].su2_topology == "closed-interval"
        assert len(g.arcs) == 1
        ep0, ep1 = g.arcs[0].endpoints
        assert ep0.node == 0 and ep1.node == 0

    def test_exact_coordinates(self):
        g = build_graph(GroupParams(3, 2))
        ep0, ep1 = g.arcs[0].endpoints
        assert ep0.t_raw == root(1, 6)
        assert ep1.t_raw == root(7, 6)
        # the mirror involution t ~ t^-1 picks the smaller angle
        assert ep1.t_canonical == root(5, 6)

    def test_against_brute_force_oracle(self):
        g = build_graph(GroupParams(3, 2))
        ep0, ep1 = g.arcs[0].endpoints
        t0 = brute_force_endpoint(1, 3, 1, 2)
        t1 = brute_force_endpoint(1, 3, 3, 2)
        assert ep0.t_raw == t0
        assert ep1.t_raw == t1
        assert abs(ep0.s_real - 2 * math.cos(t0.angle)) < 1e-12
        # s is even in the angle, so the folded representative agrees
        assert abs(ep1.s_real - 2 * math.cos(t1.angle)) < 1e-12
        assert ep0.s_real == pytest.approx(math.sqrt(3), abs=1e-12)
        assert ep1.s_real == pytest.approx(-math.sqrt(3), abs=1e-12)


class TestExactness:
    def test_power_equations_on_raw_coordinates(self):
        for m in range(2, 13):
            for n in range(2, 13):
                p = GroupParams(m, n)
                for arc in build_graph(p).arcs:
                    k, kp = arc.component.k, arc.component.kp
                    lam = root(k, m)
                    for side, ep in enumerate(arc.endpoints):
                        mu = root(kp, n) if side == 0 else root(2 * n - kp, n)
                        assert ep.t_raw ** p.b == lam
                        assert ep.t_raw ** p.a == alpha_root(p, ep.raw_index) * mu

    def test_folded_endpoints_carry_mirrored_eigenvalues(self):
        seen = 0
        for m, n in [(6, 9), (8, 12), (10, 4), (9, 12)]:
            p = GroupParams(m, n)
            for arc in build_graph(p).arcs:
                k, kp = arc.component.k, arc.component.kp
                lam = root(k, m)
                for side, ep in enumerate(arc.endpoints):
                    if not ep.folded:
                        continue
                    seen += 1
                    assert not self_paired(ep.node, p.d)
                    mu = root(kp, n) if side == 0 else root(2 * n - kp, n)
                    assert ep.t_canonical ** p.b == lam ** -1
                    assert ep.t_canonical ** p.a == alpha_root(p, ep.node) * mu ** -1
        assert seen > 0

    def test_self_paired_canonical_choice(self):
        for m, n in [(3, 2), (4, 6), (8, 12), (5, 10)]:
            p = GroupParams(m, n)
            for arc in build_graph(p).arcs:
                for ep in arc.endpoints:
                    if not self_paired(ep.node, p.d):
                        continue
                    twist = involution_twist(p, ep.node)
                    alt = twist * ep.t_canonical**-1
                    assert ep.t_canonical.angle <= alt.angle + 1e-15
                    assert ep.t_canonical in (ep.t_raw, twist * ep.t_raw**-1)
                    s = 2 * math.cos(ep.t_canonical.angle - twist.angle / 2)
                    assert ep.s_real == pytest.approx(s, abs=1e-14)

    def test_coprime_general_path_agrees_with_crt(self):
        # for coprime orders the endpoint is the Chinese-remainder solution,
        # found here by the independent scan
        for m, n in [(3, 2), (5, 3), (7, 4), (8, 3), (9, 2)]:
            for arc in build_graph(GroupParams(m, n)).arcs:
                k, kp = arc.component.k, arc.component.kp
                ep0, ep1 = arc.endpoints
                assert ep0.t_raw == brute_force_endpoint(k, m, kp, n)
                assert ep1.t_raw == brute_force_endpoint(k, m, 2 * n - kp, n)

    def test_endpoint_membership_validated(self, monkeypatch):
        # an endpoint formula that misses a power equation is refused: at
        # (6, 9), wherever h >= d, a mirror off by 2 breaks t^a = alpha*mu
        # (c off 2*raw + s mod 18) and one off by 18 breaks t^b = lam (c off
        # k mod 12)
        rule = _endpoint_rule(GroupParams(6, 9))
        for shift in (2, 18):
            shifted = dataclasses.replace(rule, mirror=rule.mirror + shift)
            monkeypatch.setattr(tkchar.graph, "_endpoint_rule", lambda p: shifted)
            with pytest.raises(RuntimeError, match="is not on component"):
                build_graph(GroupParams(6, 9))

    def test_arrays_match_scalar_rule(self):
        # per endpoint: _EndpointRule.fold on exact ints gives node and
        # canonical c, RootOfUnity(c, M) gives num/den in lowest terms, and
        # s_real is bit-identical to 2*math.cos(angle - psi)
        for m, n in SWEEP:
            p = GroupParams(m, n)
            g, rule = build_graph(p), _endpoint_rule(p)
            psi = [
                involution_twist(p, i).angle / 2.0 if self_paired(i, p.d) else 0.0
                for i in range(len(g.nodes))
            ]
            columns = ("raw", "c_raw", "node", "num", "den", "s_real")
            for raw, c_raw, node, num, den, s_real in zip(
                *(getattr(g, name).ravel().tolist() for name in columns)
            ):
                node_s, c = rule.fold(raw, c_raw)
                t = RootOfUnity(c, rule.big)
                assert (node, num, den) == (node_s, t.num, t.den), (m, n)
                assert s_real == 2.0 * math.cos(t.angle - psi[node]), (m, n)

    def test_involution_twist_guard(self):
        p = GroupParams(6, 9)  # d = 3: only component 0 is self-paired
        assert involution_twist(p, 0) == ONE
        with pytest.raises(ValueError):
            involution_twist(p, 1)
        # (12, 18): d = 6, nodes 0..3; 6 and -3 are self-paired mod 6 but no
        # node, and -3 must not index a per-node array from its end
        p = GroupParams(12, 18)
        assert (involution_twist(p, 0), involution_twist(p, 3)) == (ONE, RootOfUnity(4, 3))
        for i in (6, -3):
            with pytest.raises(ValueError, match=r"in \[0, 3\]"):
                involution_twist(p, i)


class TestStructure:
    def test_counts(self):
        for m, n in [(3, 2), (4, 6), (6, 9), (8, 12)]:
            p = GroupParams(m, n)
            g = build_graph(p)
            assert len(g.nodes) == p.d // 2 + 1
            assert len(g.arcs) == count_irr(p)

    def test_two_by_two(self):
        g = build_graph(GroupParams(2, 2))
        assert len(g.nodes) == 2 and len(g.arcs) == 1
        ep0, ep1 = g.arcs[0].endpoints
        assert {ep0.node, ep1.node} == {0, 1}
        assert ep0.t_canonical == root(1, 2) and ep1.t_canonical == root(1, 2)
        assert abs(ep0.s_real) < 1e-12 and abs(ep1.s_real) < 1e-12

    def test_connected_through_ten(self):
        for m in range(2, 11):
            for n in range(2, 11):
                assert is_connected(build_graph(GroupParams(m, n))), (m, n)

    def test_disconnected_without_arcs(self):
        p = GroupParams(4, 6)
        bare = without_arcs(build_graph(p))
        assert not is_connected(bare)

    def test_single_node_trivially_connected(self):
        p = GroupParams(3, 2)
        bare = without_arcs(build_graph(p))
        assert is_connected(bare)

    def test_every_node_pair_joined_by_formula_arc(self):
        for m, n in [(8, 12), (6, 9), (12, 18), (10, 10)]:
            p = GroupParams(m, n)
            g = build_graph(p)
            by_label = {(a.component.k, a.component.kp): a for a in g.arcs}
            for i1 in range(1, p.d // 2 + 1):
                for i0 in range(i1):
                    k, kp = joining_component(p, i0, i1)
                    arc = by_label[(k, kp)]
                    nodes = {arc.endpoints[0].node, arc.endpoints[1].node}
                    assert nodes == {i0, i1}

    def test_coprime_endpoints_pairwise_distinct(self):
        for m, n in [(3, 2), (5, 3), (5, 4), (7, 3), (8, 3), (7, 2), (9, 4)]:
            assert math.gcd(m, n) == 1
            assert shared_endpoints(build_graph(GroupParams(m, n))) == []

    def test_shared_endpoints_group_by_matches_object_scan(self):
        # the real graphs share no endpoint, non-coprime orders included
        for m, n in [(4, 6), (8, 12), (12, 18), (6, 9), (10, 10)]:
            g = build_graph(GroupParams(m, n))
            assert shared_endpoints(g) == reference_shared_endpoints(g) == [], (m, n)

    def test_shared_endpoints_reports_planted_coincidences(self):
        # copy endpoints onto others: a three-way coincidence, one within an
        # arc and one onto an earlier endpoint; pairs are (first, later),
        # ordered by the later
        g = build_graph(GroupParams(12, 18))
        cols = {name: getattr(g, name).copy() for name in ("node", "num", "den", "c_raw", "raw")}
        plants = [((5, 1), (2, 0)), ((5, 1), (40, 1)), ((7, 0), (7, 1)), ((3, 0), (1, 1))]
        for (a0, s0), (a1, s1) in plants:
            for col in cols.values():
                col[a1, s1] = col[a0, s0]
        planted = dataclasses.replace(g, **cols)
        shared = shared_endpoints(planted)
        assert shared == reference_shared_endpoints(planted)
        assert shared == [((1, 1), (3, 0)), ((2, 0), (5, 1)), ((7, 0), (7, 1)), ((2, 0), (40, 1))]

    def test_shared_endpoints_without_arcs(self):
        assert shared_endpoints(without_arcs(build_graph(GroupParams(4, 6)))) == []

    def test_arrays_read_only(self):
        g = build_graph(GroupParams(4, 6))
        with pytest.raises(ValueError):
            g.s_real[0, 0] = 0.0

    def test_attachment_nodes_match_component_combinatorics(self):
        # attachment_nodes is attachment over arrays, and agrees with the raw
        # circles and nodes build_graph takes from _EndpointRule.ends
        for m, n in SWEEP:
            p = GroupParams(m, n)
            g = build_graph(p)
            raw, node = attachment_nodes(p, g.k, g.kp)
            labels = zip(g.k.tolist(), g.kp.tolist())
            want = np.array([attachment(p, k, kp) for k, kp in labels]).reshape(-1, 4)
            assert np.array_equal(raw, want[:, :2]) and np.array_equal(node, want[:, 2:]), (m, n)
            assert np.array_equal(raw, g.raw) and np.array_equal(node, g.node), (m, n)


class TestSerialization:
    def test_json_schema_fields(self):
        doc = json.loads(to_json(build_graph(GroupParams(4, 6))))
        assert set(doc) == {"params", "nodes", "arcs"}
        assert doc["params"] == {"m": 4, "n": 6, "d": 2}
        assert {tuple(sorted(node)) for node in doc["nodes"]} == {("id", "topology")}
        for arc in doc["arcs"]:
            assert set(arc) == {"k", "kp", "endpoints"}
            for ep in arc["endpoints"]:
                assert set(ep) == {"node", "t_num", "t_den", "s_real"}

    def test_json_values(self):
        doc = json.loads(to_json(build_graph(GroupParams(6, 9))))
        assert [n["topology"] for n in doc["nodes"]] == ["closed-interval", "circle"]
        assert len(doc["arcs"]) == 20

    def test_json_deterministic(self):
        a = to_json(build_graph(GroupParams(8, 12)))
        b = to_json(build_graph(GroupParams(8, 12)))
        assert a == b

    def test_json_bytes_match_reference_serializer(self):
        for m, n in SWEEP:
            g = build_graph(GroupParams(m, n))
            assert to_json(g) == reference_json(g), (m, n)

    def test_json_without_arcs_matches_reference(self):
        bare = without_arcs(build_graph(GroupParams(6, 9)))
        assert to_json(bare) == reference_json(bare)

    def test_json_signed_zero_kept(self):
        g = build_graph(GroupParams(3, 2))
        g = dataclasses.replace(g, s_real=np.array([[0.0, -0.0]]))
        assert to_json(g) == reference_json(g)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 10_000])
    def test_json_chunk_boundaries(self, monkeypatch, chunk):
        # the 40x40 sweep never reaches a chunk boundary at the real CHUNK
        monkeypatch.setattr(tkchar.graph, "CHUNK", chunk)
        graphs = [build_graph(GroupParams(m, n)) for m, n in CHUNK_ORDERS]
        signed_zero = dataclasses.replace(graphs[0], s_real=np.array([[0.0, -0.0]]))
        for g in [*graphs, without_arcs(graphs[3]), signed_zero]:
            arcs = len(g.k)
            assert to_json(g) == reference_json(g), (g.params, chunk)
            # the head, the arc chunks, the list's close and the tail
            assert len(list(json_chunks(g))) == -(-arcs // chunk) + 3

    def test_json_chunks_memory_below_document(self):
        import tracemalloc

        g = build_graph(GroupParams(200, 300))
        size = 0
        tracemalloc.start()
        try:
            for chunk in json_chunks(g):
                size += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 9_000_000
        assert peak < size / 3, (peak, size)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_s_real(self, bad):
        g = build_graph(GroupParams(4, 6))
        s_real = g.s_real.copy()
        s_real[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            to_json(dataclasses.replace(g, s_real=s_real))
        # json_chunks refuses at the call, before a chunk exists
        with pytest.raises(ValueError, match="non-finite"):
            json_chunks(dataclasses.replace(g, s_real=s_real))

    def test_dot_shape(self):
        dot = to_dot(build_graph(GroupParams(4, 6)))
        lines = dot.strip().splitlines()
        assert lines[0] == "graph components {"
        assert lines[-1] == "}"
        node_lines = [l for l in lines if "[shape=" in l]
        edge_lines = [l for l in lines if " -- " in l]
        assert len(node_lines) == 2 and len(edge_lines) == 8
        assert all("shape=box" in l for l in node_lines)  # d = 2: both intervals
        dot2 = to_dot(build_graph(GroupParams(6, 9)))
        assert "shape=ellipse" in dot2  # circle node

    def test_dot_deterministic(self):
        g1, g2 = build_graph(GroupParams(6, 9)), build_graph(GroupParams(6, 9))
        assert to_dot(g1) == to_dot(g2)

    def test_svg_element_counts(self):
        p = GroupParams(6, 9)
        svg = to_svg_schematic(build_graph(p))
        assert svg.count('class="node"') == 2
        assert svg.count("<line") == 1 and svg.count("<circle") >= 1
        assert svg.count('class="arc"') == 20
        assert svg.count('class="dot"') == 40
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_svg_deterministic(self):
        a = to_svg_schematic(build_graph(GroupParams(4, 6)))
        b = to_svg_schematic(build_graph(GroupParams(4, 6)))
        assert a == b
