"""Closed-form component data for the character varieties of <x,y | x^m = y^n>.

Over SL(2,C) the variety splits into reducible components indexed by
i in [0, d) with d = gcd(m, n) (identified in pairs i ~ d-i) and a finite
set of 4-punctured-sphere-free irreducible components indexed by the
eigenvalue exponents (k, k') with 0 < k < m, 0 < k' < n, k == k' (mod 2).
On the SU(2) locus the reducible components become intervals or circles
and each irreducible component becomes an open interval whose closure
attaches to the reducible locus at the two indices

    i0 = (k - k')/2 mod d,    i1 = (k + k')/2 mod d.

The eigenvalue-inversion symmetries are handled once and for all by the
fundamental domain above; the interval coordinate is never folded.  The
graph and the verify decoder fold endpoints in graph._EndpointRule.ends;
verify's expected nodes and self_loops are attachment_nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .roots import RootOfUnity, root

SU2_INTERVAL = "closed-interval"
SU2_CIRCLE = "circle"
SU2_OPEN_INTERVAL = "open-interval"
SL2C_LINE = "complex-line"
SL2C_PUNCTURED_LINE = "punctured-complex-line"
SL2C_THRICE_PUNCTURED = "thrice-punctured-line"


@dataclass(frozen=True, slots=True)
class GroupParams:
    """Orders (m, n) of the two generators' relation x^m = y^n, m, n >= 2.

    d = gcd(m, n), a = m/d, b = n/d are derived on construction.
    """

    m: int
    n: int
    d: int = field(init=False)
    a: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError(f"orders must be at least 2, got m={self.m}, n={self.n}")
        d = math.gcd(self.m, self.n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", self.m // d)
        object.__setattr__(self, "b", self.n // d)


@dataclass(frozen=True, slots=True, order=True)
class Red:
    """Reducible component, canonical index i in [0, floor(d/2)]."""

    i: int


@dataclass(frozen=True, slots=True, order=True)
class Irr:
    """Irreducible component labeled by eigenvalue exponents (k, kp)."""

    k: int
    kp: int


ComponentId = Red | Irr


@dataclass(frozen=True, slots=True)
class ComponentInfo:
    id: ComponentId
    su2_topology: str
    sl2c_topology: str
    eigen_data: tuple[RootOfUnity, RootOfUnity] | None


def fold_index(i: int, d: int) -> int:
    """Canonical representative of i under i ~ -i (mod d), in [0, floor(d/2)]."""
    j = i % d
    return min(j, (d - j) % d)


def self_paired(i: int, d: int) -> bool:
    """True when component i is its own mirror (i == -i mod d)."""
    return (2 * i) % d == 0


def bezout_coprime(a: int, b: int) -> tuple[int, int]:
    """(u, v) with u*a + v*b == 1 for coprime positive a, b; deterministic."""
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ValueError(f"need coprime positive integers, got a={a}, b={b}")
    u = pow(a, -1, b) if b > 1 else 0
    return u, (1 - u * a) // b


def alpha_root(p: GroupParams, i: int) -> RootOfUnity:
    """The fixed b-th root of xi**i, xi = exp(2*pi*i/d), used to coordinatize
    reducible component i.

    With omega = exp(i*pi/(d*a*b)), alpha_i = omega**(2*a*i); then
    alpha_i**b == xi**i exactly.  Builders, the incidence graph and the
    classifier must all share this choice, which is why it lives here.
    """
    return root(1, p.d * p.a * p.b) ** (2 * p.a * i)


def _check_irr_label(p: GroupParams, k: int, kp: int) -> None:
    if not (0 < k < p.m and 0 < kp < p.n):
        raise ValueError(f"(k, kp)=({k}, {kp}) outside 0<k<{p.m}, 0<kp<{p.n}")
    if (k - kp) % 2 != 0:
        raise ValueError(f"(k, kp)=({k}, {kp}) violates the parity condition")


def enumerate_irr(p: GroupParams) -> list[Irr]:
    """All irreducible components, ascending lexicographically in (k, kp)."""
    return [
        Irr(k, kp)
        for k in range(1, p.m)
        for kp in range(1, p.n)
        if (k - kp) % 2 == 0
    ]


def irr_labels(p: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(k, kp) of enumerate_irr(p) as int64 arrays, in its order."""
    k, kp = np.meshgrid(np.arange(1, p.m), np.arange(1, p.n), indexing="ij")
    keep = (k - kp) % 2 == 0
    return k[keep], kp[keep]


def irr_position(p: GroupParams, k: np.ndarray, kp: np.ndarray) -> np.ndarray:
    """The position of each admissible label (k, kp) in enumerate_irr(p),
    elementwise: before row k come k//2 odd rows of n//2 labels and
    (k - 1)//2 even rows of (n - 1)//2, and kp is the (kp - 1)//2-th of
    its row."""
    return (k // 2) * (p.n // 2) + ((k - 1) // 2) * ((p.n - 1) // 2) + (kp - 1) // 2


def count_irr(p: GroupParams) -> int:
    """Closed-form component count, matching len(enumerate_irr(p)).

    ((m-1)(n-1)+1)/2 when m and n are both even, (m-1)(n-1)/2 otherwise.
    """
    if p.m % 2 == 0 and p.n % 2 == 0:
        return ((p.m - 1) * (p.n - 1) + 1) // 2
    return (p.m - 1) * (p.n - 1) // 2


def irr_info(p: GroupParams, comp: Irr) -> ComponentInfo:
    _check_irr_label(p, comp.k, comp.kp)
    return ComponentInfo(
        comp,
        SU2_OPEN_INTERVAL,
        SL2C_THRICE_PUNCTURED,
        (root(comp.k, p.m), root(comp.kp, p.n)),
    )


def enumerate_red(p: GroupParams) -> list[ComponentInfo]:
    """Reducible components Red(0) .. Red(floor(d/2)).

    Red(0), and Red(d/2) for even d, are fixed by the mirror identification
    and are closed intervals on the SU(2) locus (complex lines over SL(2,C));
    the others are circles (punctured complex lines).
    """
    infos = []
    for i in range(p.d // 2 + 1):
        if self_paired(i, p.d):
            infos.append(ComponentInfo(Red(i), SU2_INTERVAL, SL2C_LINE, None))
        else:
            infos.append(ComponentInfo(Red(i), SU2_CIRCLE, SL2C_PUNCTURED_LINE, None))
    return infos


def attachment(p: GroupParams, k: int, kp: int) -> tuple[int, int, int, int]:
    """Attachment indices of the irreducible component (k, kp).

    Returns (i0_raw, i1_raw, i0_canonical, i1_canonical) where the raw
    values are (k -+ kp)/2 mod d and the canonical ones fold i ~ -i into
    [0, floor(d/2)].  The raw index addresses the coordinate circle the
    endpoint lives on; the canonical index names the graph node.
    """
    _check_irr_label(p, k, kp)
    i0 = ((k - kp) // 2) % p.d
    i1 = ((k + kp) // 2) % p.d
    return i0, i1, fold_index(i0, p.d), fold_index(i1, p.d)


def fold_indices(i: np.ndarray, d: int) -> np.ndarray:
    """fold_index over an array of raw indices in [0, d)."""
    return np.where(2 * i > d, d - i, i)


def attachment_nodes(p: GroupParams, k: np.ndarray, kp: np.ndarray) -> tuple[np.ndarray, ...]:
    """attachment over arrays of admissible labels, unchecked: (raw, node)
    of shape (len(k), 2), side 0 at (k - kp)/2 mod d, side 1 at (k + kp)/2."""
    raw = np.stack([k - kp, k + kp], axis=1) // 2 % p.d
    return raw, fold_indices(raw, p.d)


def joining_component(p: GroupParams, i0: int, i1: int) -> tuple[int, int]:
    """An explicit (k, kp) whose component attaches to Red(i0) and Red(i1).

    Valid for canonical indices 0 <= i0 < i1 <= d/2; the returned labels are
    k = d + i0 - i1 and kp = d - i0 - i1, and attachment() maps them back to
    (i0, i1).
    """
    if not (0 <= i0 < i1 and 2 * i1 <= p.d):
        raise ValueError(f"need 0 <= i0 < i1 <= d/2, got ({i0}, {i1}) with d={p.d}")
    return p.d + i0 - i1, p.d - i0 - i1


def self_loops(p: GroupParams) -> list[tuple[Irr, int]]:
    """All arcs whose two attachment indices coincide after folding.

    Coprime orders make every arc a loop on Red(0).  For m == n there are
    none at all, and when one order divides the other none occur at the
    interval components i in {0, d/2}; both facts are exercised in tests.
    """
    k, kp = irr_labels(p)
    _, node = attachment_nodes(p, k, kp)
    loop = np.flatnonzero(node[:, 0] == node[:, 1])
    ends = zip(k[loop].tolist(), kp[loop].tolist(), node[loop, 0].tolist())
    return [(Irr(a, b), i) for a, b, i in ends]
