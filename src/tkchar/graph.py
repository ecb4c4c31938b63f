"""Incidence structure of the SU(2) character variety: which irreducible
intervals attach to which reducible components, with exact coordinates.

Nodes are the reducible components Red(0) .. Red(floor(d/2)); each
irreducible component (k, kp) contributes one arc whose closure meets the
reducible locus at the two eigenvalue pairs (lam, mu) and (lam, mu^-1),
lam = exp(i*pi*k/m), mu = exp(i*pi*kp/n).  Every coordinate here is a
RootOfUnity, so endpoint equality and the defining power equations are
checked exactly.

Canonicalization: every endpoint is exp(i*pi*c/M) for c mod 2M,
M = lcm(m, n) = d*a*b.  On its raw circle i (from attachment) the
endpoint (lam, mu) = (exp(i*pi*k/m), exp(i*pi*s/n)), with s = kp on the
first endpoint and s = -kp on the second, is the unique t with t^b = lam
and t^a = alpha_i * mu, which exists iff h = (k - s)/2 == i (mod d):
c = a*u*(2i + s) + b*v*k for u*a + v*b = 1, or equally
c = k - 2*a*u*(h - i).  Two reflections make it canonical.  If i exceeds
d/2, the mirrored character (lam^-1, mu^-1) on component d - i is
c -> 2*a*u*d - c.  On self-paired components (i == -i mod d) the
involution t ~ twist * t^-1 is c -> tau - c, with
twist = exp(i*pi*tau/M) = alpha_i^(2u), tau = 4*a*u*i, and the smaller
of c and tau - c mod 2M is kept.  _EndpointRule holds this formula and both
reflections once; build_graph runs them on exact integers and the verify
decoder on measured floats.  The involution invariant
2*cos(angle(t) - angle(twist)/2) is the interval coordinate s_real; for
circle nodes s_real is 2*cos(angle(t)) and is informational only (the
angle itself is the coordinate).

Serialization targets the "tkchar-graph/1" layout: a JSON object with
exactly the fields params / nodes / arcs, plus DOT and schematic SVG
renderings of the same structure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from .components import (
    ComponentInfo,
    GroupParams,
    Irr,
    attachment,
    bezout_coprime,
    enumerate_irr,
    enumerate_red,
    self_paired,
)
from .roots import RootOfUnity


@dataclass(frozen=True, slots=True)
class AttachmentPoint:
    """Where an arc endpoint meets a reducible component.

    node is the canonical component index, raw_index the circle on which
    t_raw solves the power equations, t_canonical the folded representative
    on the canonical component and s_real its interval coordinate (or
    positional cosine on circle nodes).
    """

    node: int
    raw_index: int
    t_raw: RootOfUnity
    t_canonical: RootOfUnity
    s_real: float
    folded: bool


@dataclass(frozen=True, slots=True)
class Arc:
    component: Irr
    endpoints: tuple[AttachmentPoint, AttachmentPoint]


@dataclass(frozen=True, slots=True)
class IncidenceGraph:
    params: GroupParams
    nodes: tuple[ComponentInfo, ...]
    arcs: tuple[Arc, ...]


@dataclass(frozen=True, slots=True)
class _EndpointRule:
    """The endpoint formula and fold of one order (see the module
    docstring), generic over int and float c.

    In float the involution has a branch cut at c = 0 ~ tau: points just
    either side keep representatives about tau apart, but the node and
    2*cos(pi*c/M - angle(twist)/2) agree.
    """

    d: int
    big: int  # M
    mirror: int  # 2*a*u*d
    taus: tuple[int | None, ...]  # per node: tau if self-paired

    def raw(self, k, h: int):
        """c = k - 2*a*u*(h - i) on raw circle i = h mod d."""
        return k - self.mirror * (h // self.d)

    def fold(self, i_raw: int, c):
        """(node, canonical c) of exp(i*pi*c/M) on raw circle i_raw."""
        if 2 * i_raw > self.d:
            i_raw, c = self.d - i_raw, self.mirror - c
        c %= 2 * self.big
        tau = self.taus[i_raw]
        if tau is not None:
            c = min(c, (tau - c) % (2 * self.big))
        return i_raw, c


@functools.cache
def _endpoint_rule(p: GroupParams) -> _EndpointRule:
    u, _ = bezout_coprime(p.a, p.b)
    taus = tuple(4 * p.a * u * i if self_paired(i, p.d) else None for i in range(p.d // 2 + 1))
    return _EndpointRule(p.d, p.d * p.a * p.b, 2 * p.a * u * p.d, taus)


def involution_twist(p: GroupParams, i: int) -> RootOfUnity:
    """Constant c of the involution t ~ c * t^-1 on self-paired component i."""
    if not self_paired(i, p.d):
        raise ValueError(f"component {i} is not self-paired for d={p.d}")
    rule = _endpoint_rule(p)
    return RootOfUnity(rule.taus[i], rule.big)


def build_graph(p: GroupParams) -> IncidenceGraph:
    """The full incidence graph with exact attachment coordinates."""
    rule = _endpoint_rule(p)
    psi = [0.0 if tau is None else RootOfUnity(tau, rule.big).angle / 2.0 for tau in rule.taus]

    def endpoint(k: int, s: int, i_raw: int) -> AttachmentPoint:
        # (exp(i*pi*k/m), exp(i*pi*s/n)) lies on circle i_raw iff
        # lam^a * mu^-b == xi^i_raw
        if (k - s - 2 * i_raw) % (2 * p.d):
            raise RuntimeError(f"endpoint ({k}/{p.m}, {s}/{p.n}) is not on component {i_raw}")
        c_raw = rule.raw(k, (k - s) // 2) % (2 * rule.big)
        node, c = rule.fold(i_raw, c_raw)
        t_raw = RootOfUnity(c_raw, rule.big)
        t_can = t_raw if c == c_raw else RootOfUnity(c, rule.big)
        s_real = 2.0 * math.cos(t_can.angle - psi[node])
        return AttachmentPoint(node, i_raw, t_raw, t_can, s_real, node != i_raw)

    arcs = []
    for comp in enumerate_irr(p):
        i0_raw, i1_raw, _, _ = attachment(p, comp.k, comp.kp)
        ep0 = endpoint(comp.k, comp.kp, i0_raw)
        ep1 = endpoint(comp.k, -comp.kp, i1_raw)
        if ep0.node == ep1.node and ep0.t_canonical == ep1.t_canonical:
            raise RuntimeError(f"arc {comp} has coincident endpoints; invariant violated")
        arcs.append(Arc(comp, (ep0, ep1)))
    return IncidenceGraph(p, tuple(enumerate_red(p)), tuple(arcs))


def is_connected(g: IncidenceGraph) -> bool:
    """Whether every node is reachable from Red(0) through arcs."""
    if not g.nodes:
        return True
    adjacency: dict[int, set[int]] = {info.id.i: set() for info in g.nodes}
    for arc in g.arcs:
        n0, n1 = arc.endpoints[0].node, arc.endpoints[1].node
        adjacency[n0].add(n1)
        adjacency[n1].add(n0)
    seen = {g.nodes[0].id.i}
    frontier = [g.nodes[0].id.i]
    while frontier:
        nxt = frontier.pop()
        for other in adjacency[nxt]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(g.nodes)


def shared_endpoints(g: IncidenceGraph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of distinct (arc index, side) whose attachment points coincide.

    Whether different arcs may share an endpoint is reported, not asserted;
    coprime orders provably never produce coincidences (tested), the general
    case is left to the data.
    """
    seen: dict[tuple[int, RootOfUnity], tuple[int, int]] = {}
    collisions = []
    for ai, arc in enumerate(g.arcs):
        for side, ep in enumerate(arc.endpoints):
            key = (ep.node, ep.t_canonical)
            if key in seen:
                collisions.append((seen[key], (ai, side)))
            else:
                seen[key] = (ai, side)
    return collisions


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


def to_json(g: IncidenceGraph) -> str:
    """"tkchar-graph/1" document: exactly the fields params, nodes, arcs."""
    doc = {
        "params": {"m": g.params.m, "n": g.params.n, "d": g.params.d},
        "nodes": [
            {"id": info.id.i, "topology": info.su2_topology} for info in g.nodes
        ],
        "arcs": [
            {
                "k": arc.component.k,
                "kp": arc.component.kp,
                "endpoints": [
                    {
                        "node": ep.node,
                        "t_num": ep.t_canonical.num,
                        "t_den": ep.t_canonical.den,
                        "s_real": _sig12(ep.s_real),
                    }
                    for ep in arc.endpoints
                ],
            }
            for arc in g.arcs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def to_dot(g: IncidenceGraph) -> str:
    """Undirected DOT multigraph, nodes red<i>, one edge per arc."""
    lines = [
        "graph components {",
        f'  label="<x,y | x^{g.params.m} = y^{g.params.n}>  d={g.params.d}";',
    ]
    for info in g.nodes:
        shape = "box" if info.su2_topology == "closed-interval" else "ellipse"
        lines.append(
            f'  red{info.id.i} [shape={shape}, label="Red({info.id.i}) {info.su2_topology}"];'
        )
    for arc in g.arcs:
        ep0, ep1 = arc.endpoints
        lines.append(
            f"  red{ep0.node} -- red{ep1.node} "
            f'[label="({arc.component.k},{arc.component.kp}) '
            f's0={_sig12(ep0.s_real):.6g} s1={_sig12(ep1.s_real):.6g}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _anchor(info: ComponentInfo, ep: AttachmentPoint, y: float) -> tuple[float, float]:
    if info.su2_topology == "closed-interval":
        return 80.0 + 520.0 * (ep.s_real + 2.0) / 4.0, y
    ang = ep.t_canonical.angle
    return 340.0 + 48.0 * math.cos(ang), y - 48.0 * math.sin(ang)


def to_svg_schematic(g: IncidenceGraph) -> str:
    """Qualitative picture: interval nodes as segments, circle nodes as
    circles, arcs as cubic curves anchored at their attachment points."""
    node_y = {info.id.i: 110.0 + 150.0 * idx for idx, info in enumerate(g.nodes)}
    height = int(150 * len(g.nodes) + 80)
    info_by_id = {info.id.i: info for info in g.nodes}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="680" height="{height}" '
        f'viewBox="0 0 680 {height}" font-family="sans-serif">',
        f"  <title>character components of &lt;x,y | x^{g.params.m} = y^{g.params.n}&gt;</title>",
    ]
    for info in g.nodes:
        y = node_y[info.id.i]
        label = f"Red({info.id.i}) {info.su2_topology}"
        if info.su2_topology == "closed-interval":
            parts.append(
                f'  <line class="node" x1="80.00" y1="{y:.2f}" x2="600.00" y2="{y:.2f}" '
                'stroke="black" stroke-width="2"/>'
            )
        else:
            parts.append(
                f'  <circle class="node" cx="340.00" cy="{y:.2f}" r="48.00" '
                'fill="none" stroke="black" stroke-width="2"/>'
            )
        parts.append(f'  <text x="20.00" y="{y - 58:.2f}" font-size="12">{label}</text>')
    for idx, arc in enumerate(g.arcs):
        ep0, ep1 = arc.endpoints
        x0, y0 = _anchor(info_by_id[ep0.node], ep0, node_y[ep0.node])
        x1, y1 = _anchor(info_by_id[ep1.node], ep1, node_y[ep1.node])
        lift = 34.0 + 16.0 * idx
        c0y, c1y = y0 - lift, y1 - lift
        parts.append(
            f'  <path class="arc" d="M {x0:.2f} {y0:.2f} C {x0:.2f} {c0y:.2f}, '
            f'{x1:.2f} {c1y:.2f}, {x1:.2f} {y1:.2f}" fill="none" stroke="#3465a4"/>'
        )
        parts.append(f'  <circle class="dot" cx="{x0:.2f}" cy="{y0:.2f}" r="2.50"/>')
        parts.append(f'  <circle class="dot" cx="{x1:.2f}" cy="{y1:.2f}" r="2.50"/>')
        lx, ly = (x0 + x1) / 2.0, min(c0y, c1y) - 3.0
        parts.append(
            f'  <text x="{lx:.2f}" y="{ly:.2f}" font-size="10" fill="#3465a4">'
            f"({arc.component.k},{arc.component.kp})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
