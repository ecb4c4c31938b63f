"""The package's matrix kernel: SU(2) in quaternion form, the polar
(rotation angle and axis) reader, eigen pairs and the projective cross-ratio.

An SU(2) element is stored as the unit quaternion (a, b), the matrix being

    [[a, -conj(b)],
     [b,  conj(a)]]

so products, inverses and powers are a handful of complex multiplications.
Its polar form is a half-angle alpha in [0, pi] and an axis
v = (Im a, Re b, Im b) of length sin(alpha): the eigenvalue is exp(i*alpha),
and two elements commute exactly when their axes are parallel (or one axis
is zero, i.e. the element is central).  Eigen decomposition is closed form
and orients the canonical eigenvalue to the upper half circle (Im > 0).
The cross-ratio convention is fixed so that the eigenvector quadruple
[1:0], [0:1], [a:b], [-conj(b):conj(a)] evaluates to t/(t-1) with
t = |b|**2.

_qmul_arrays, _qpow_arrays and _sup_diff_arrays are _qmul, mat_pow and
sup_diff over float64 arrays of many elements, equal to them bit for bit;
the batched verify kernel runs on them.  _per_element applies a math
function to such arrays one Python float at a time, for the functions
(atan2, cos, exp, 3-argument hypot) whose numpy ufuncs round differently;
verify, stream and graph call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """The one tolerance rule: finite and > 0, else ValueError."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


class DegenerateError(ValueError):
    """Raised when an eigen or cross-ratio question has no stable answer
    (central matrix, coincident projective points, reducible pair)."""


def _qmul(xa: complex, xb: complex, ya: complex, yb: complex) -> tuple[complex, complex]:
    """Quaternion pair (a, b) of the product x @ y of two SU(2) elements.

    The module's one product formula: __matmul__, mat_pow and conjugate_by
    all go through it, so their floats agree bit for bit."""
    return xa * ya - xb.conjugate() * yb, xb * ya + xa.conjugate() * yb


@dataclass(frozen=True, slots=True)
class UnitaryMatrix:
    """SU(2) element [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 == 1."""

    a: complex
    b: complex

    @classmethod
    def identity(cls) -> "UnitaryMatrix":
        return cls(1.0 + 0.0j, 0.0j)

    def inv(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.a.conjugate(), -self.b)

    def __matmul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        return UnitaryMatrix(*_qmul(self.a, self.b, other.a, other.b))

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, -self.b.conjugate(), self.b, self.a.conjugate())

    def matrix(self) -> np.ndarray:
        e = self.entries()
        return np.array([[e[0], e[1]], [e[2], e[3]]], dtype=complex)


def from_quaternion(a: complex, b: complex) -> UnitaryMatrix:
    """Build an SU(2) element from a quaternion, normalizing the length.

    Inputs are expected on the unit sphere up to rounding; anything of
    length zero (below 1e-9) is rejected.
    """
    nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if nrm < 1e-9:
        raise ValueError("zero-norm quaternion")
    return UnitaryMatrix(complex(a) / nrm, complex(b) / nrm)


def mat_pow(x: UnitaryMatrix, k: int) -> UnitaryMatrix:
    """x**k by binary exponentiation; negative k inverts first.

    Multiplies raw quaternion pairs with _qmul (bit-identical to a chain
    of @ products) and builds one UnitaryMatrix at the end."""
    if k < 0:
        x, k = x.inv(), -k
    ra, rb = 1.0 + 0.0j, 0.0j
    ba, bb = x.a, x.b
    while k:
        if k & 1:
            ra, rb = _qmul(ra, rb, ba, bb)
        ba, bb = _qmul(ba, bb, ba, bb)
        k >>= 1
    return UnitaryMatrix(ra, rb)


def trace(x: UnitaryMatrix) -> complex:
    return complex(2.0 * x.a.real, 0.0)


def conjugate_by(x: UnitaryMatrix, p: UnitaryMatrix) -> UnitaryMatrix:
    """p x p^-1, as (p @ x) @ p.inv() on raw quaternion pairs (bit-identical
    to the @ chain, one UnitaryMatrix built)."""
    ya, yb = _qmul(p.a, p.b, x.a, x.b)
    return UnitaryMatrix(*_qmul(ya, yb, p.a.conjugate(), -p.b))


def polar(x: UnitaryMatrix) -> tuple[float, tuple[float, float, float]]:
    """Polar form (alpha, v) of an SU(2) element: x = cos(alpha) + v.

    v = (Im a, Re b, Im b) is the rotation axis scaled by sin(alpha), and
    alpha = atan2(|v|, Re a) in [0, pi] is the half-angle, so exp(i*alpha)
    is the eigenvalue on the eigenline that v points along.  atan2 keeps
    alpha accurate at both ends, where acos(Re a) loses half the digits.
    """
    v = (x.a.imag, x.b.real, x.b.imag)
    return math.atan2(math.hypot(*v), x.a.real), v


def is_reducible_pair(a: UnitaryMatrix, b: UnitaryMatrix, tol: float = DEFAULT_TOL) -> bool:
    """A pair generates a reducible representation iff its axes are parallel.

    Tested as |va x vb| <= tol * (|va| + |vb|) on the polar axes: |va x vb|
    is |va| |vb| times the sine of the angle between the axes, so the bound
    is relative to the axis lengths and grows to cover a near-central
    element, whose axis direction is noise.  For SU(2) pairs this is
    equivalent to sharing an eigenvector (the common invariant line), which
    the test suite checks independently.
    """
    (x1, y1, z1), (x2, y2, z2) = polar(a)[1], polar(b)[1]
    cross = math.hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return cross <= tol * (math.hypot(x1, y1, z1) + math.hypot(x2, y2, z2))


def sup_diff(x: UnitaryMatrix, y: UnitaryMatrix) -> float:
    """Entrywise sup-norm distance between two 2x2 matrices."""
    return max(abs(u - v) for u, v in zip(x.entries(), y.entries()))


# The batched forms below hold N elements as four float64 arrays
# (Re a, Im a, Re b, Im b).  Each complex product is spelled the way CPython
# computes it, in separate real ufuncs, and each conjugate as a negated
# imaginary part, so every element agrees with the scalar form bit for bit
# (numpy's complex128 product rounds differently).
QuaternionArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cmul(xr, xi, yr, yi):
    """CPython's complex product (xr + i*xi) * (yr + i*yi), as (re, im)."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def _qmul_arrays(x: QuaternionArrays, y: QuaternionArrays) -> QuaternionArrays:
    """_qmul elementwise over quaternion arrays (Re a, Im a, Re b, Im b)."""
    xar, xai, xbr, xbi = x
    yar, yai, ybr, ybi = y
    pr, pi = _cmul(xar, xai, yar, yai)  # xa * ya
    qr, qi = _cmul(xbr, -xbi, ybr, ybi)  # conj(xb) * yb
    rr, ri = _cmul(xbr, xbi, yar, yai)  # xb * ya
    sr, si = _cmul(xar, -xai, ybr, ybi)  # conj(xa) * yb
    return pr - qr, pi - qi, rr + sr, ri + si


def _qpow_arrays(x: QuaternionArrays, k: int) -> QuaternionArrays:
    """mat_pow's binary ladder for k >= 0 over quaternion arrays."""
    zero = np.zeros_like(x[0])
    r = (np.ones_like(x[0]), zero, zero, zero)
    while k:
        if k & 1:
            r = _qmul_arrays(r, x)
        k >>= 1
        if k:
            x = _qmul_arrays(x, x)
    return r


def _per_element(f, *columns: np.ndarray) -> np.ndarray:
    """f over Python floats of float64 arrays, element by element."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), float, columns[0].size)


def _sup_diff_arrays(x: QuaternionArrays, y: QuaternionArrays) -> np.ndarray:
    """sup_diff elementwise over quaternion arrays, with max's NaN rule."""

    def entries(q):  # (re, im) of a, -conj(b), b, conj(a)
        ar, ai, br, bi = q
        return (ar, ai), (-br, bi), (br, bi), (ar, -ai)

    # np.hypot is C hypot, as abs(complex) is
    out, *rest = (np.hypot(ur - vr, ui - vi) for (ur, ui), (vr, vi) in zip(entries(x), entries(y)))
    for diff in rest:
        out = np.where(diff > out, diff, out)
    return out


@dataclass(frozen=True, slots=True)
class ProjectivePoint:
    """A point [x : y] of the complex projective line."""

    x: complex
    y: complex

    def __post_init__(self) -> None:
        if self.x == 0 and self.y == 0:
            raise ValueError("[0:0] is not a projective point")

    def norm(self) -> float:
        return math.sqrt(abs(self.x) ** 2 + abs(self.y) ** 2)


def proj_gap(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Sine of the angle between the two lines; zero iff p == q projectively."""
    return abs(p.x * q.y - q.x * p.y) / (p.norm() * q.norm())


def eigen_decompose(
    m: UnitaryMatrix, tol: float = DEFAULT_TOL
) -> tuple[complex, ProjectivePoint, ProjectivePoint]:
    """Eigen data (lam, e1, e2) of a non-central SU(2) element.

    lam is the eigenvalue on the upper half circle (Im(lam) > 0), e1 its
    unit eigenvector and e2 the orthogonal unit eigenvector for lam**-1.
    Central matrices (trace within tol of +-2) have no preferred eigen
    direction and are refused rather than answered with noise.
    """
    re_a = m.a.real
    tr = 2.0 * re_a
    if 2.0 - abs(tr) <= tol:
        raise DegenerateError(f"matrix is within {tol} of a central element (trace {tr})")
    lam = complex(re_a, math.sqrt(max(0.0, 1.0 - re_a * re_a)))
    if abs(m.b) < 1e-13:
        # diagonal: eigenvectors are the coordinate axes
        if m.a.imag > 0:
            e1 = ProjectivePoint(1.0 + 0.0j, 0.0j)
            e2 = ProjectivePoint(0.0j, 1.0 + 0.0j)
        else:
            e1 = ProjectivePoint(0.0j, 1.0 + 0.0j)
            e2 = ProjectivePoint(-1.0 + 0.0j, 0.0j)
        return lam, e1, e2
    # first row of (m - lam) gives the kernel direction (conj(b), a - lam)
    x = m.b.conjugate()
    y = m.a - lam
    nrm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    e1 = ProjectivePoint(x / nrm, y / nrm)
    e2 = ProjectivePoint(-e1.y.conjugate(), e1.x.conjugate())
    return lam, e1, e2


def cross_ratio(
    p1: ProjectivePoint,
    p2: ProjectivePoint,
    p3: ProjectivePoint,
    p4: ProjectivePoint,
) -> complex:
    """Cross-ratio of four pairwise distinct projective points.

    Convention: in the affine chart z = y/x this is
    ((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), evaluated chart-free through the
    2x2 determinants d(p,q) = x_p y_q - x_q y_p.  Applying one determinant-1
    matrix to all four points leaves the value unchanged.
    """
    pts = (p1, p2, p3, p4)
    for i in range(4):
        for j in range(i + 1, 4):
            if proj_gap(pts[i], pts[j]) <= DEFAULT_TOL:
                raise DegenerateError(f"points {i + 1} and {j + 1} coincide projectively")

    def d(p: ProjectivePoint, q: ProjectivePoint) -> complex:
        return p.x * q.y - q.x * p.y

    return (d(p1, p3) * d(p2, p4)) / (d(p1, p4) * d(p2, p3))
