"""Incidence structure of the SU(2) character variety: which irreducible
intervals attach to which reducible components, with exact coordinates.

Nodes are the reducible components Red(0) .. Red(floor(d/2)); each
irreducible component (k, kp) contributes one arc whose closure meets the
reducible locus at the two eigenvalue pairs (lam, mu) and (lam, mu^-1),
lam = exp(i*pi*k/m), mu = exp(i*pi*kp/n).  Every coordinate here is an
exact integer: build_graph computes the endpoints of all arcs at once as
numpy int64 arrays, so endpoint equality and the defining power equations
are checked exactly.  RootOfUnity is the view: IncidenceGraph.arcs builds
Arc / AttachmentPoint / RootOfUnity objects on first access for the library
API, and no serializer needs them.

Canonicalization: every endpoint is exp(i*pi*c/M) for c mod 2M,
M = lcm(m, n) = d*a*b.  On its raw circle i = h mod d (the raw index of
components.attachment) the endpoint (lam, mu) = (exp(i*pi*k/m),
exp(i*pi*s/n)), with s = kp on the first endpoint and s = -kp on the
second and h = (k - s)/2, is the unique t with t^b = lam and
t^a = alpha_i * mu: c = a*u*(2i + s) + b*v*k for u*a + v*b = 1, or equally
c = k - 2*a*u*(h - i).  Two reflections make it canonical.  If i exceeds
d/2, the mirrored character (lam^-1, mu^-1) on component d - i is
c -> 2*a*u*d - c.  On self-paired components (i == -i mod d) the
involution t ~ twist * t^-1 is c -> tau - c, with
twist = exp(i*pi*tau/M) = alpha_i^(2u), tau = 4*a*u*i, and the smaller
of c and tau - c mod 2M is kept.  _EndpointRule holds this formula and both
reflections once; build_graph runs them elementwise on int64 arrays and the
verify decoder on measured floats, both on components.fold_indices' nodes.
The involution invariant 2*cos(angle(t) - angle(twist)/2) is the interval
coordinate s_real; for circle nodes s_real is 2*cos(angle(t)) and is
informational only (the angle itself is the coordinate).

Serialization targets the "tkchar-graph/1" layout: a JSON object with
exactly the fields params / nodes / arcs, written directly from the arrays
in the layout of json.dumps(indent=2, sort_keys=True).  json_chunks yields
it CHUNK arcs at a time, so a writer never holds the whole document;
to_json joins the chunks.  _json_block writes the depth-1 lists of both
JSON documents, this one and verify's "tkchar-verify/1", and CHUNK is the
chunk size of both writers.  DOT and schematic SVG render the same
structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .components import (
    ComponentInfo,
    GroupParams,
    Irr,
    attachment_nodes,
    bezout_coprime,
    enumerate_red,
    irr_labels,
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


@dataclass(frozen=True, eq=False)
class IncidenceGraph:
    """Nodes and arcs of one order, the arcs as read-only arrays.

    Arc j is Irr(k[j], kp[j]), in enumerate_irr's order.  The endpoint
    arrays have shape (arcs, 2); side 0 is the endpoint at mu, side 1 the
    one at mu^-1.  raw is the raw circle index, c_raw the numerator of
    t_raw = exp(i*pi*c_raw/M) in [0, 2M), node the canonical component,
    num/den the folded t_canonical = exp(i*pi*num/den) in lowest terms and
    s_real the interval coordinate (positional cosine on circle nodes).
    """

    params: GroupParams
    nodes: tuple[ComponentInfo, ...]
    k: np.ndarray
    kp: np.ndarray
    raw: np.ndarray
    c_raw: np.ndarray
    node: np.ndarray
    num: np.ndarray
    den: np.ndarray
    s_real: np.ndarray

    @functools.cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as Arc / AttachmentPoint / RootOfUnity objects, built
        from the arrays on first access."""
        big = _endpoint_rule(self.params).big
        columns = (self.raw, self.c_raw, self.node, self.num, self.den, self.s_real)
        return tuple(
            Arc(
                Irr(k, kp),
                tuple(
                    AttachmentPoint(
                        node[j], raw[j], RootOfUnity(c_raw[j], big),
                        RootOfUnity(num[j], den[j]), s_real[j], node[j] != raw[j],
                    )
                    for j in (0, 1)
                ),
            )
            for k, kp, (raw, c_raw, node, num, den, s_real) in zip(
                self.k.tolist(), self.kp.tolist(), zip(*(a.tolist() for a in columns))
            )
        )


@dataclass(frozen=True, slots=True, eq=False)
class _EndpointRule:
    """The endpoint formula and fold of one order (see the module
    docstring), generic over int and float c; fold_all is fold over arrays
    (int64 c in build_graph, float64 c in the verify kernel) given each
    circle's node (components.fold_indices).  paired and tau are taus as
    per-node arrays, built once with the rule, so that fold_all costs
    O(len(c)) and not O(d).

    In float the involution has a branch cut at c = 0 ~ tau: points just
    either side keep representatives about tau apart, but the node and
    2*cos(pi*c/M - angle(twist)/2) agree.
    """

    d: int
    big: int  # M
    mirror: int  # 2*a*u*d
    taus: tuple[int | None, ...]  # per node: tau if self-paired
    paired: np.ndarray  # per node: tau is not None
    tau: np.ndarray  # per node: tau, or 0

    def raw(self, k, h):
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

    def fold_all(self, i_raw: np.ndarray, node: np.ndarray, c: np.ndarray) -> np.ndarray:
        """fold's canonical c, elementwise over int64 raw circles, their
        nodes and int64 or float64 numerators (np.minimum and np.mod agree
        with min and % on both)."""
        c = np.where(node != i_raw, self.mirror - c, c) % (2 * self.big)
        tau = self.tau[node]
        return np.where(self.paired[node], np.minimum(c, (tau - c) % (2 * self.big)), c)


@functools.cache
def _endpoint_rule(p: GroupParams) -> _EndpointRule:
    u, _ = bezout_coprime(p.a, p.b)
    taus = tuple(4 * p.a * u * i if self_paired(i, p.d) else None for i in range(p.d // 2 + 1))
    paired = np.array([tau is not None for tau in taus])
    tau = np.array([tau or 0 for tau in taus])
    return _EndpointRule(p.d, p.d * p.a * p.b, 2 * p.a * u * p.d, taus, paired, tau)


def involution_twist(p: GroupParams, i: int) -> RootOfUnity:
    """Constant c of the involution t ~ c * t^-1 on self-paired component i."""
    if not self_paired(i, p.d):
        raise ValueError(f"component {i} is not self-paired for d={p.d}")
    rule = _endpoint_rule(p)
    return RootOfUnity(rule.taus[i], rule.big)


def build_graph(p: GroupParams) -> IncidenceGraph:
    """The full incidence graph with exact attachment coordinates.

    Every endpoint is computed at once in int64, which is exact: no
    intermediate exceeds 2M*(m + n) in size.
    """
    rule = _endpoint_rule(p)
    k, kp = irr_labels(p)
    raw, node = attachment_nodes(p, k, kp)
    kk, s = k[:, None], np.stack([kp, -kp], axis=1)
    c_raw = rule.raw(kk, (kk - s) // 2) % (2 * rule.big)
    # t = exp(i*pi*c/M) has t^b = lam iff c == k (mod 2m), and
    # t^a = alpha_raw * mu iff c == 2*raw + s (mod 2n)
    off = ((c_raw - kk) % (2 * p.m) != 0) | ((c_raw - 2 * raw - s) % (2 * p.n) != 0)
    if off.any():
        j, side = np.argwhere(off)[0]
        raise RuntimeError(
            f"endpoint ({k[j]}/{p.m}, {s[j, side]}/{p.n}) is not on component {raw[j, side]}"
        )
    c = rule.fold_all(raw, node, c_raw)
    same = (node[:, 0] == node[:, 1]) & (c[:, 0] == c[:, 1])
    if same.any():
        j = np.argmax(same)
        raise RuntimeError(
            f"arc {Irr(int(k[j]), int(kp[j]))} has coincident endpoints; invariant violated"
        )
    g = np.gcd(c, rule.big)
    num, den = c // g, rule.big // g
    # RootOfUnity(num, den).angle's operations in its order, then math.cos
    # per element, so s_real is bit-identical to the scalar definition
    psi = np.array(
        [0.0 if tau is None else RootOfUnity(tau, rule.big).angle / 2.0 for tau in rule.taus]
    )
    x = np.pi * num / den - psi[node]
    s_real = 2.0 * np.fromiter(map(math.cos, x.ravel().tolist()), float, x.size).reshape(x.shape)
    arrays = (k, kp, raw, c_raw, node, num, den, s_real)
    for a in arrays:
        a.flags.writeable = False
    return IncidenceGraph(p, tuple(enumerate_red(p)), *arrays)


def is_connected(g: IncidenceGraph) -> bool:
    """Whether every node is reachable from Red(0) through arcs."""
    if not g.nodes:
        return True
    adjacency: dict[int, set[int]] = {info.id.i: set() for info in g.nodes}
    for n0, n1 in g.node.tolist():
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

    Each pair is (first, later): the first endpoint in (arc, side) order at
    that (node, num, den) and a later one, ordered by the later.  Whether
    different arcs may share an endpoint is reported, not asserted; coprime
    orders provably never produce coincidences (tested), the general case
    is left to the data.
    """
    keys = np.stack([g.node, g.num, g.den], axis=-1).reshape(-1, 3)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    owner = first[inverse.ravel()]
    later = np.flatnonzero(owner != np.arange(len(keys)))
    return [(divmod(int(owner[f]), 2), divmod(int(f), 2)) for f in later]


def _sig12(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


_JSON_ARC = """    {
      "endpoints": [
        {
          "node": %d,
          "s_real": %s,
          "t_den": %d,
          "t_num": %d
        },
        {
          "node": %d,
          "s_real": %s,
          "t_den": %d,
          "t_num": %d
        }
      ],
      "k": %d,
      "kp": %d
    }"""

_JSON_NODE = """    {
      "id": %d,
      "topology": "%s"
    }"""

_JSON_HEAD = """{
  "arcs": """

_JSON_TAIL = """,
  "nodes": %s,
  "params": {
    "d": %d,
    "m": %d,
    "n": %d
  }
}"""

# Items per chunk of both JSON writers, json_chunks and summary_chunks
# (arcs, counts or expected components): about 330 kB of graph text.
CHUNK = 1024


def _json_block(parts: Iterable[list[str]], brackets: str) -> Iterator[str]:
    """A list or object ("[]" or "{}") at depth 1 of the indent-2 layout,
    its item lines given in lists, one chunk per non-empty list."""
    empty = True
    for items in parts:
        if items:
            yield (brackets[0] if empty else ",") + "\n" + ",\n".join(items)
            empty = False
    yield brackets if empty else "\n  " + brackets[1]


def _arc_lines(g: IncidenceGraph, text: list[str], which: np.ndarray, part: slice) -> list[str]:
    """The "arcs" entries in part; text[which] is each endpoint's s_real."""
    node0, den0, num0, node1, den1, num1 = (
        a[part, side].tolist() for side in (0, 1) for a in (g.node, g.den, g.num)
    )
    s0, s1 = (map(text.__getitem__, which[part, side].tolist()) for side in (0, 1))
    rows = zip(node0, s0, den0, num0, node1, s1, den1, num1,
               g.k[part].tolist(), g.kp[part].tolist())
    return [_JSON_ARC % row for row in rows]


def json_chunks(g: IncidenceGraph) -> Iterator[str]:
    """"tkchar-graph/1" document as text chunks of CHUNK arcs each: exactly
    the fields params, nodes, arcs, in the layout of
    json.dumps(indent=2, sort_keys=True); s_real is the repr of its
    12-significant-digit rounding.

    Raises ValueError on a non-finite s_real, which strict JSON cannot
    hold, at the call, before any chunk exists.
    """
    if not np.isfinite(g.s_real).all():
        raise ValueError("s_real holds a non-finite value; strict JSON cannot represent it")
    # endpoints shared between arcs repeat their s_real: format each value
    # once, keyed by its bits so that 0.0 and -0.0 stay apart
    bits, which = np.unique(np.ascontiguousarray(g.s_real).view(np.int64), return_inverse=True)
    text = [repr(_sig12(x)) for x in bits.view(np.float64).tolist()]
    which = which.reshape(g.s_real.shape)
    chunk = CHUNK  # read once, at the call
    arcs = (_arc_lines(g, text, which, slice(i, i + chunk)) for i in range(0, len(g.k), chunk))
    nodes = [_JSON_NODE % (info.id.i, info.su2_topology) for info in g.nodes]
    tail = _JSON_TAIL % ("".join(_json_block([nodes], "[]")), g.params.d, g.params.m, g.params.n)
    return itertools.chain([_JSON_HEAD], _json_block(arcs, "[]"), [tail])


def to_json(g: IncidenceGraph) -> str:
    """The json_chunks document as one string."""
    return "".join(json_chunks(g))


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
    for k, kp, (n0, n1), (s0, s1) in zip(
        g.k.tolist(), g.kp.tolist(), g.node.tolist(), g.s_real.tolist()
    ):
        lines.append(
            f"  red{n0} -- red{n1} "
            f'[label="({k},{kp}) s0={_sig12(s0):.6g} s1={_sig12(s1):.6g}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _anchor(topology: str, s_real: float, num: int, den: int, y: float) -> tuple[float, float]:
    if topology == "closed-interval":
        return 80.0 + 520.0 * (s_real + 2.0) / 4.0, y
    ang = math.pi * num / den
    return 340.0 + 48.0 * math.cos(ang), y - 48.0 * math.sin(ang)


def to_svg_schematic(g: IncidenceGraph) -> str:
    """Qualitative picture: interval nodes as segments, circle nodes as
    circles, arcs as cubic curves anchored at their attachment points."""
    node_y = {info.id.i: 110.0 + 150.0 * idx for idx, info in enumerate(g.nodes)}
    height = int(150 * len(g.nodes) + 80)
    topology = {info.id.i: info.su2_topology for info in g.nodes}
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
    ends = zip(g.node.tolist(), g.s_real.tolist(), g.num.tolist(), g.den.tolist())
    for idx, (k, kp, (node, s_real, num, den)) in enumerate(zip(g.k.tolist(), g.kp.tolist(), ends)):
        (x0, y0), (x1, y1) = (
            _anchor(topology[node[j]], s_real[j], num[j], den[j], node_y[node[j]]) for j in (0, 1)
        )
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
            f"({k},{kp})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
