"""Monte Carlo oracle: sampling, classification and empirical structure.

Sampling is construction-then-conjugation: a component and an intrinsic
coordinate are drawn, the explicit representation is built, and both
matrices are conjugated by one Haar-uniform SU(2) element (normalized
4-dimensional Gaussian).  Rejection sampling against the relation is not
an option since the solution set has measure zero in SU(2) x SU(2).

Randomness is reproducible and order-independent: each sample index gets
its own stream, numpy's default_rng((seed, index)), so the draw for a given
sample never depends on how many other samples were drawn, by whom, or in
which thread.  tkchar.stream is the one definition of that stream, and
computes it without numpy's Generator: stream.draw makes one index's draw
in Python ints and stream.draws a range's as arrays, finished and checked.
verify only maps a SampleConfig to their arguments (_stream_args);
SampleConfig refuses the seeds and orders the stream does not cover.

Classification inverts the construction from the matrices alone, reading
every decision from the polar form (half-angle alpha, axis v) of each
generator: parallel axes separate reducible from irreducible, the angles
pin the eigenvalue exponents k = alpha*m/pi, the chord between the unit
axes recovers t, and for reducible pairs (and near-limit irreducible ones)
the eigenvalue angles on a's eigenline go through build_graph's endpoint
formula and fold rule in float (graph._EndpointRule.ends), so a decoded
reducible point and an exact graph endpoint are one canonical representative.

The irreducible labels, their eigenvalue tables and the fold rule depend
only on the orders; each is built once per (m, n), on first use, and shared
by every sample.  The kernel reads no O(m*n) label table, and verify no
graph: the arc ends' nodes are components.attachment_nodes of the labels.

Each step exists once, over arrays.  empirical_structure runs the stream
CHUNK samples at a time through the draws (stream.draws), the builders
(_build_arrays, float64 quaternion arrays), the kernel, which checks the
relation and classifies every pair at once (_classify_arrays), and the
tally.  sample_pair and classify are the same pipeline on a batch of one;
classify raises from the kernel's reason code.  Every array element repeats
the floating-point operations of build_irr, build_red_noncoprime (with
CPython's complex power), conjugate_by and mat_pow in their order, bit for
bit, so no per-sample Python call is left on the draw and build path
beyond the stream's slow draws, which it completes in Python ints, and the
math functions numpy rounds differently.

The chunks run on every CPU the process may use: _runs splits them into
W = min(len(os.sched_getaffinity(0)), chunks) contiguous runs of whole
chunks, so taskset sets W.  This process tallies the first run and a
forked worker each other one (_fork_map), which sends its part, O(its
samples + its vote cells + d), through a pipe; the parts merge in index
order.  Every index keeps its draws, guard and completion, so the bytes do
not depend on W.  A run of N <= CHUNK samples, a single CPU, or a platform
without os.fork or os.sched_getaffinity gives W = 1: one run, no fork.

The tally and the summary are arrays too, with no Python object per arc:
counts per node and per arc, running maxima (the residuals are >= 0, so
the order does not matter) and sparse vote cells (arc, side, node), each
with its count and first sample index, keyed and sorted by node id.  An
arc end's winner is the cell with the most votes, ties going to the
earliest first vote, which is what Counter.most_common(1) picks when votes
are counted one sample at a time.  summary_chunks writes the
"tkchar-verify/1" document from these arrays with %-templates, in chunks;
it alone sorts keys as strings, as json.dumps(sort_keys=True) sorts them
(_decimal_rank: "red:10" before "red:2").  It is the one definition of that
document; its lists go through graph._json_block, the list writer of the
"tkchar-graph/1" document too, graph.CHUNK items at a time.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
import pickle
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .components import (
    ComponentId,
    GroupParams,
    Irr,
    Red,
    attachment_nodes,
    count_irr,
    irr_labels,
    irr_position,
)
from . import graph, stream
from .graph import _endpoint_rule, _json_block, _sig12
from .reps import _alpha_conj, character
from .roots import root
from .su2 import (
    DEFAULT_TOL,
    QuaternionArrays,
    UnitaryMatrix,
    _cmul,
    _qmul_arrays,
    _qpow_arrays,
    _sup_diff_arrays,
    check_tol,
    conjugate_by,
    eigen_decompose,
    is_reducible_pair,
    sup_diff,
)

# Fixed thresholds of the kernel: a pair whose relation residual exceeds
# RELATION_TOL is refused, and the "residuals" flag of a summary holds when
# no sample failed to decode, the largest relation residual is at most
# RESIDUALS_FLAG_RELATION and the largest classification residual at most
# RESIDUALS_FLAG_CLASSIFICATION.
RELATION_TOL = 1e-6
RESIDUALS_FLAG_RELATION = 1e-9
RESIDUALS_FLAG_CLASSIFICATION = 1e-6

# find_conjugator's bounds: the characters of two conjugate pairs agree
# within CHAR_TOL, and a conjugator transports the pair within
# CONJUGATOR_TOL (acceptance criterion 6's bound).
CHAR_TOL = 1e-8
CONJUGATOR_TOL = 1e-7

# Samples per batch of empirical_structure: bounds the batch's arrays, so
# peak memory does not grow with the sample count.
CHUNK = 2048

# The kernel's reason code per pair: OK, or why classify refuses the pair
# (the relation fails, a's or b's label is ambiguous, the labels' parity).
OK, RELATION, AMBIGUOUS_A, AMBIGUOUS_B, PARITY = range(5)


class AmbiguousDecodeError(ValueError):
    """Raised when two admissible eigenvalue labels both fit a measured angle."""

    def __init__(self, message: str, candidates: tuple[int, ...]):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True, slots=True)
class SampleConfig:
    params: GroupParams
    sample_count: int = 1000
    seed: int = 0
    reducible_fraction: float = 0.25
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.seed >= stream.SEEDS:
            raise ValueError(f"seed must be below 2**64, got {self.seed}")
        p = self.params
        if count_irr(p) > stream.K_MAX:
            raise ValueError(
                f"({p.m}, {p.n}) has {count_irr(p)} irreducible components, more than "
                "the 2**32 the stream can draw from"
            )
        if not 0.0 <= self.reducible_fraction <= 1.0:
            raise ValueError("reducible_fraction must lie in [0, 1]")
        check_tol(self.tol)


@functools.lru_cache(maxsize=1)
def _irr_tables(p: GroupParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(k, kp, lam, mu) of one order, which the batched builder looks up: k
    and kp label the irreducible components in enumerate_irr's order
    (irr_labels), and lam and mu hold root(k, m) and root(kp, n) per
    exponent, as build_irr makes them.  O(m*n) labels, so only the order in
    use is kept; the reducible builder and the kernel never read them."""
    k, kp = irr_labels(p)  # first: an order too large for them fails at once
    lam, mu = (np.array([root(e, o).to_complex() for e in range(o)]) for o in (p.m, p.n))
    return k, kp, lam, mu


@dataclass(frozen=True, slots=True)
class ClassifiedPoint:
    component: ComponentId
    coordinate: float
    relation_residual: float
    classification_residual: float


def _stream_args(cfg: SampleConfig) -> tuple[float, int, int]:
    """stream's (fraction, k_red, k_irr) of cfg: the K of integers(0, K) is
    the raw reducible circles on one branch, the irreducible components on
    the other."""
    p = cfg.params
    return cfg.reducible_fraction, p.d // 2 + 1, count_irr(p)


def _one(x: UnitaryMatrix) -> QuaternionArrays:
    """x as quaternion arrays of length 1."""
    return tuple(np.array([v]) for v in (x.a.real, x.a.imag, x.b.real, x.b.imag))


def sample_pair(cfg: SampleConfig, index: int) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """The index-th sample of the configured stream: a pair satisfying the relation."""
    draw = (np.array([v]) for v in stream.draw(cfg.seed, index, *_stream_args(cfg)))
    return tuple(
        UnitaryMatrix(complex(q[0][0], q[1][0]), complex(q[2][0], q[3][0]))
        for q in _build_arrays(cfg.params, *draw)
    )


def canonical_red_angle(p: GroupParams, i_raw: int, theta: float) -> tuple[int, float]:
    """Canonical (component, angle) of the raw circle point exp(i*theta) on
    raw component i_raw, folded by the rule of build_graph's endpoints."""
    if not 0 <= i_raw < p.d:
        raise ValueError(f"raw component index {i_raw} outside [0, {p.d})")
    if not math.isfinite(theta):
        raise ValueError(f"circle angle {theta} is not finite")
    rule = _endpoint_rule(p)
    node, c = rule.fold(i_raw, theta * rule.big / math.pi)
    return node, math.pi * c / rule.big


def classify(
    p: GroupParams, a: UnitaryMatrix, b: UnitaryMatrix, tol: float = DEFAULT_TOL
) -> ClassifiedPoint:
    """Recover the component and intrinsic coordinate of a relation-satisfying pair.

    coordinate is t in (0, 1) for irreducible points and the canonical
    circle angle for reducible ones.  For irreducible points t is the
    squared half-chord |u_a - u_b|^2 / 4 between the unit axes u = v/|v|,
    which equals r/(r - 1) of the eigenvector cross-ratio r.  The
    classification residual is the trace distance to the decoded
    component's ideal traces.  This is _classify_arrays on one pair; a
    pair it refuses raises ValueError (AmbiguousDecodeError with both
    candidate labels if an angle fits two).
    """
    out = _classify_arrays(p, _one(a), _one(b), tol)
    reason, k, kp = int(out.reason[0]), int(out.k[0]), int(out.kp[0])
    if reason == RELATION:
        raise ValueError(f"pair violates the relation (residual {float(out.relation[0]):.3g})")
    if reason in (AMBIGUOUS_A, AMBIGUOUS_B):
        alpha, j = (out.alpha_a, k) if reason == AMBIGUOUS_A else (out.alpha_b, kp)
        raise AmbiguousDecodeError(f"angle {float(alpha[0])} fits labels {(j, j + 1)}", (j, j + 1))
    if reason == PARITY:
        raise ValueError(f"decoded labels ({k}, {kp}) violate the parity condition")
    return ClassifiedPoint(
        Red(int(out.node[0])) if out.reducible[0] else Irr(k, kp),
        float(out.coordinate[0]),
        float(out.relation[0]),
        float(out.residual[0]),
    )


# --- the batched pipeline ----------------------------------------------------
#
# Every pair is held as quaternion arrays (Re a, Im a, Re b, Im b) of
# float64.  Each step repeats the floating-point operations of the scalar
# builders and of su2 in the same order, so an array element equals what
# they compute, bit for bit.  Where numpy's routine rounds differently from
# the math module's (atan2, cos, 3-argument hypot) or from Python's x ** 2,
# the call is made per element in Python.


def _per_element(f, *columns: np.ndarray) -> np.ndarray:
    """f over Python floats of float64 arrays, element by element."""
    return np.array(list(map(f, *(c.tolist() for c in columns))), dtype=float)


def _two_cos(k: np.ndarray, order: int) -> np.ndarray:
    """2*cos(pi*k/order) per element, computed once per distinct k."""
    values = {j: 2.0 * math.cos(math.pi * j / order) for j in set(k.tolist())}
    return np.array([values[j] for j in k.tolist()], dtype=float)


def _cpow_arrays(re: np.ndarray, im: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """CPython's complex power (re + i*im) ** e for an int 1 <= e, elementwise
    on non-zero bases: c_powu's square-and-multiply ladder from r = 1 up to
    e = 100, _Py_c_pow's polar form (C pow, atan2, cos, sin) beyond."""
    if e <= 100:
        x = (re, im)
        r = (np.ones_like(re), np.zeros_like(re))
        while e:
            if e & 1:
                r = _cmul(*r, *x)
            e >>= 1
            if e:
                x = _cmul(*x, *x)
        return r
    length = _per_element(lambda v: math.pow(v, e), np.hypot(re, im))
    phase = _per_element(math.atan2, im, re) * float(e)
    return length * _per_element(math.cos, phase), length * _per_element(math.sin, phase)


def _red_arrays(
    p: GroupParams, j: np.ndarray, u: np.ndarray
) -> tuple[QuaternionArrays, QuaternionArrays]:
    """build_red_noncoprime(p, j, cmath.exp(1j * (2*pi*u))) elementwise.

    cmath.exp of the imaginary 2*pi*u is (cos, sin) of it; reps._unit
    divides by abs(t), C hypot, as CPython's complex / float, i.e.
    (re + im*0.0, im - re*0.0) / nrm; then lam = t ** b and
    mu = _alpha_conj(p, j) * t ** a.
    """
    x = 2.0 * math.pi * u
    re, im = _per_element(math.cos, x), _per_element(math.sin, x)
    nrm = np.hypot(re, im)
    if (np.abs(nrm - 1.0) > 1e-9).any():
        raise ValueError(f"coordinate must lie on the unit circle, |t| = {nrm.max()}")
    re, im = (re + im * 0.0) / nrm, (im - re * 0.0) / nrm
    alpha = {i: _alpha_conj(p, i) for i in set(j.tolist())}
    alpha = np.array([alpha[i] for i in j.tolist()], dtype=complex)
    lam = _cpow_arrays(re, im, p.b)
    mu = _cmul(alpha.real, alpha.imag, *_cpow_arrays(re, im, p.a))
    zero = np.zeros(j.size)
    return (*lam, zero, zero), (*mu, zero, zero)


def _build_arrays(
    p: GroupParams, reducible: np.ndarray, j: np.ndarray, u: np.ndarray, g: np.ndarray
) -> tuple[QuaternionArrays, QuaternionArrays]:
    """The pairs of the draws (reducible, j, u, g) of stream.draws:
    build_red_noncoprime(p, j, exp(2*pi*i*u)) (_red_arrays) or build_irr on
    enumerate_irr(p)[j] at t = u clamped into (0, 1), conjugated by
    from_quaternion of g."""
    a = tuple(np.zeros(reducible.size) for _ in range(4))
    b = tuple(np.zeros(reducible.size) for _ in range(4))

    red = np.flatnonzero(reducible)
    if red.size:
        for q, z in zip((a, b), _red_arrays(p, j[red], u[red])):
            for column, values in zip(q, z):
                column[red] = values

    # build_irr: a = diag(lam), b = rot @ diag(mu) @ rot.inv() with
    # rot = (sqrt(1 - t), sqrt(t)) as complex numbers
    irr = np.flatnonzero(~reducible)
    if irr.size:  # the O(m*n) label tables only when an irreducible draw reads them
        ks, kps, lam, mu = _irr_tables(p)
        lam, mu = lam[ks[j[irr]]], mu[kps[j[irr]]]
        t = np.minimum(np.maximum(u[irr], 1e-12), 1.0 - 1e-12)
        c, s = np.sqrt(1.0 - t), np.sqrt(t)
        zero = np.zeros(irr.size)
        mu = (mu.real, mu.imag, zero, zero)
        rotated = _qmul_arrays(_qmul_arrays((c, zero, s, zero), mu), (c, -zero, -s, -zero))
        for q, z in ((a, (lam.real, lam.imag, zero, zero)), (b, rotated)):
            for column, values in zip(q, z):
                column[irr] = values

    # from_quaternion: nrm = sqrt(abs(x)**2 + abs(y)**2) (np.hypot is C
    # hypot, as abs(complex) is), then CPython's complex / float, which
    # divides x + i*y as (x + y*0.0, y - x*0.0) / nrm
    g0, g1, g2, g3 = g.T
    nrm = _per_element(lambda x, y: math.sqrt(x**2 + y**2), np.hypot(g0, g1), np.hypot(g2, g3))
    if (nrm < 1e-9).any():
        raise ValueError("zero-norm quaternion")
    conj = tuple(
        part / nrm for part in (g0 + g1 * 0.0, g1 - g0 * 0.0, g2 + g3 * 0.0, g3 - g2 * 0.0)
    )
    inverse = (conj[0], -conj[1], -conj[2], -conj[3])
    return tuple(_qmul_arrays(_qmul_arrays(conj, q), inverse) for q in (a, b))


@dataclass(frozen=True, slots=True)
class _Classified:
    """The kernel's decisions, one entry per pair.

    reason is OK or the code of the check that refuses the pair; the other
    fields but relation are meaningful only where it is OK.  A reducible
    pair is on Red(node) at angle coordinate; an irreducible one is on
    Irr(k, kp) at t = coordinate, and node is the reducible component its
    limit eigenvalue pair decodes to (the adjacency vote).  alpha_a and
    alpha_b are the half-angles the labels k and kp are read from.
    """

    reason: np.ndarray
    reducible: np.ndarray
    k: np.ndarray
    kp: np.ndarray
    node: np.ndarray
    coordinate: np.ndarray
    relation: np.ndarray
    residual: np.ndarray
    alpha_a: np.ndarray
    alpha_b: np.ndarray


def _labels(alpha: np.ndarray, order: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(labels, ambiguous) of half-angles alpha, ideally pi*k/order: the
    nearest admissible k in [1, order - 1] to x = alpha*order/pi, except
    where x lies within tol of the half-integer between two admissible
    labels (corrupted data): there ambiguous is set and the label is
    floor(x), the lower of the two."""
    x = alpha * order / math.pi
    j = np.floor(x)
    ambiguous = (1 <= j) & (j < order - 1) & (np.abs(x - j - 0.5) <= tol)
    return np.where(ambiguous, j, np.clip(np.rint(x), 1, order - 1)).astype(np.int64), ambiguous


def _classify_arrays(
    p: GroupParams, a: QuaternionArrays, b: QuaternionArrays, tol: float
) -> _Classified:
    """Classify every pair (a[i], b[i]) of quaternion arrays (see classify
    and _Classified)."""
    check_tol(tol)
    with np.errstate(all="ignore"):
        # the relation a^m = b^n by mat_pow's ladder and sup_diff
        relation = _sup_diff_arrays(_qpow_arrays(a, p.m), _qpow_arrays(b, p.n))
        refused = ~(relation <= RELATION_TOL)
        # a pair past the relation gate is finite; the refused ones are
        # zeroed so that no NaN reaches the decoders
        a, b = (tuple(np.where(refused, 0.0, x) for x in q) for q in (a, b))

        # polar forms and the axis test (su2.polar, is_reducible_pair)
        (x1, y1, z1), (x2, y2, z2) = va, vb = a[1:], b[1:]
        na, nb = _per_element(math.hypot, *va), _per_element(math.hypot, *vb)
        alpha_a, alpha_b = _per_element(math.atan2, na, a[0]), _per_element(math.atan2, nb, b[0])
        cross = _per_element(math.hypot, y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
        reducible = cross <= tol * (na + nb)

        # the eigenvalue pair (alpha_a, +-alpha_b) on a's eigenline through
        # the fold rule: the common eigenline of a reducible pair, or the
        # limit an irreducible one reaches as b's axis turns onto a's (t -> 0)
        # or against it (t -> 1), exact in t.  The endpoint c of
        # rule.ends(k, h), h = round((k - s)/2), carries the float noise of k alone.
        rule = _endpoint_rule(p)
        beta = np.copysign(alpha_b, x1 * x2 + y1 * y2 + z1 * z2)
        kf = alpha_a * p.m / math.pi
        h = np.rint((kf - beta * p.n / math.pi) / 2.0).astype(np.int64)
        _, node, _, c = rule.ends(kf, h)
        theta = math.pi * c / rule.big

        k, ambiguous_k = _labels(alpha_a, p.m, tol)
        kp, ambiguous_kp = _labels(alpha_b, p.n, tol)
        irr = ~reducible
        reason = np.select(
            [refused, irr & ambiguous_k, irr & ambiguous_kp, irr & ((k - kp) % 2 != 0)],
            [RELATION, AMBIGUOUS_A, AMBIGUOUS_B, PARITY],
            OK,
        )
        # sum() of the three squares adds them left to right
        chord = (x / na - y / nb for x, y in zip(va, vb))
        t = _per_element(lambda x, y, z: x**2 + y**2 + z**2, *chord) / 4.0

        tr_a, tr_b = 2.0 * a[0], 2.0 * b[0]
        residual = np.abs(tr_a - _two_cos(k, p.m)) + np.abs(tr_b - _two_cos(kp, p.n))
        # the reducible residual, its cosines taken only where it is read
        r = np.flatnonzero(reducible)
        residual[r] = np.abs(tr_a[r] - 2.0 * _per_element(math.cos, p.b * theta[r])) + np.abs(
            tr_b[r] - 2.0 * _per_element(math.cos, p.a * theta[r] - 2.0 * math.pi * node[r] / p.n)
        )
    return _Classified(
        reason,
        reducible,
        k,
        kp,
        node,
        np.where(reducible, theta, t),
        relation,
        residual,
        alpha_a,
        alpha_b,
    )


def find_conjugator(
    a: UnitaryMatrix, b: UnitaryMatrix, a2: UnitaryMatrix, b2: UnitaryMatrix
) -> UnitaryMatrix | None:
    """A single SU(2) element conjugating (a, b) to (a2, b2), or None.

    Both pairs must be irreducible.  If the characters on the default word
    list disagree beyond CHAR_TOL no conjugator exists and None is returned;
    otherwise one is constructed by aligning the eigenbases of a and a2 and
    fixing the leftover diagonal phase from the second generator, and is
    returned only if it actually transports the pair within CONJUGATOR_TOL.
    """
    if is_reducible_pair(a, b) or is_reducible_pair(a2, b2):
        raise ValueError("conjugator search requires irreducible pairs")
    chars = character(a, b)
    chars2 = character(a2, b2)
    if max(abs(u - v) for u, v in zip(chars, chars2)) > CHAR_TOL:
        return None
    _, e1, _ = eigen_decompose(a)
    _, f1, _ = eigen_decompose(a2)
    u1 = UnitaryMatrix(e1.x, e1.y)
    u2 = UnitaryMatrix(f1.x, f1.y)
    # In the aligned eigenbases both first generators are the same diagonal,
    # so the leftover freedom is diag(q, conj(q)) between the two b-frames;
    # its conjugation scales the off-diagonal entry by conj(q)^2.
    b_in_1 = conjugate_by(b, u1.inv())
    b_in_2 = conjugate_by(b2, u2.inv())
    if abs(b_in_1.b) < 1e-12 or abs(b_in_2.b) < 1e-12:
        return None
    phi = -cmath.phase(b_in_2.b / b_in_1.b) / 2.0
    conj = u2 @ UnitaryMatrix(cmath.exp(1j * phi), 0.0j) @ u1.inv()
    residual = sup_diff(conjugate_by(a, conj), a2) + sup_diff(conjugate_by(b, conj), b2)
    if residual > CONJUGATOR_TOL:
        return None
    return conj


def _add_votes(
    votes: tuple[np.ndarray, np.ndarray, np.ndarray],
    more: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """votes (cell, first, count), sorted by cell, merged with more, cast
    by samples that come after every vote in votes: counts add per cell,
    and first is the smallest index."""
    cell, first, count = (np.concatenate(pair) for pair in zip(votes, more))
    cell, where, inverse = np.unique(cell, return_index=True, return_inverse=True)
    total = np.zeros(cell.size, dtype=np.int64)
    np.add.at(total, inverse, count)
    return cell, first[where], total


def _leaders(group: np.ndarray, count: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per distinct value of the increasing group, the position of its cell
    with the most votes, ties going to the smallest first index: the key
    Counter.most_common(1) picks when the votes are counted in index order,
    as it breaks ties by first insertion."""
    order = np.lexsort((first, -count, group))
    return order[np.flatnonzero(np.diff(group[order], prepend=-1))]


@dataclass(frozen=True, eq=False)
class Summary:
    """The tally of one empirical_structure run, as arrays.

    Arc j is Irr(k[j], kp[j]) with ends on node[j] (read-only arrays);
    red_counts counts the samples on each node and irr_counts those on each
    arc; max_relation and max_classification are the largest residuals and
    decode_errors the count of refused samples.  The near-limit votes are
    cells (vote_group, vote_node, vote_count): group 2*arc + side is an arc
    end, node the node voted for, sorted by group, then by node.
    arc_ok holds whether each arc end's most-voted node, if it has votes, is
    its node.  summary_chunks writes its "tkchar-verify/1" document.
    """

    cfg: SampleConfig
    k: np.ndarray
    kp: np.ndarray
    node: np.ndarray
    red_counts: np.ndarray
    irr_counts: np.ndarray
    max_relation: float
    max_classification: float
    decode_errors: int
    vote_group: np.ndarray
    vote_node: np.ndarray
    vote_count: np.ndarray
    arc_ok: np.ndarray

    @property
    def flags(self) -> dict[str, bool]:
        # every observed component is one of the closed form's, so the
        # observed keys equal the expected ones iff every count is positive
        return {
            "components": bool(self.red_counts.all() and self.irr_counts.all()),
            "adjacency": bool(self.arc_ok.all()),
            "residuals": self.decode_errors == 0
            and self.max_relation <= RESIDUALS_FLAG_RELATION
            and self.max_classification <= RESIDUALS_FLAG_CLASSIFICATION,
        }

    @property
    def ok(self) -> bool:
        return all(self.flags.values())


def _cpus() -> int:
    """The CPUs this process may run on, its affinity mask (which taskset
    sets); 1 where os.fork or os.sched_getaffinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _runs(sample_count: int) -> list[range]:
    """The starts of the CHUNK-sized chunks of range(sample_count) in
    W = min(_cpus(), chunks) contiguous runs of whole chunks, the later
    runs the longer by one where they cannot be equal."""
    starts = range(0, sample_count, CHUNK)
    w = min(_cpus(), len(starts))
    return [starts[len(starts) * i // w : len(starts) * (i + 1) // w] for i in range(w)]


@dataclass(frozen=True, eq=False)
class _Part:
    """The tally of one run of chunks: counts per node, the arcs with
    samples and their counts, the largest residuals, the count of refused
    samples and the vote cells (cell, first, count), sorted by cell.  It is
    O(samples + cells + d), never O(arcs), as it is what a worker sends."""

    red_counts: np.ndarray
    arcs: np.ndarray
    arc_counts: np.ndarray
    max_relation: float
    max_classification: float
    decode_errors: int
    votes: tuple[np.ndarray, np.ndarray, np.ndarray]


def _tally(cfg: SampleConfig, arcs: int, starts: range) -> _Part:
    """The samples of the chunks at starts through the batched pipeline
    into a _Part."""
    p = cfg.params
    nodes = p.d // 2 + 1
    red_counts = np.zeros(nodes, dtype=np.int64)
    irr_counts = np.zeros(arcs, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    votes = (empty, empty, empty)
    max_relation = max_classification = 0.0
    decode_errors = 0

    for start in starts:
        indices = range(start, min(start + CHUNK, cfg.sample_count))
        draws = stream.draws(cfg.seed, indices, *_stream_args(cfg))
        out = _classify_arrays(p, *_build_arrays(p, *draws), cfg.tol)
        ok = out.reason == OK
        decode_errors += int((~ok).sum())
        # the residuals are >= 0, so the max is the same in any order; a NaN
        # carries through to the summary, whose writer refuses it
        max_relation = out.relation[ok].max(initial=max_relation)
        max_classification = out.residual[ok].max(initial=max_classification)
        red, irr = ok & out.reducible, ok & ~out.reducible
        np.add.at(red_counts, out.node[red], 1)
        arc = irr_position(p, out.k, out.kp)
        np.add.at(irr_counts, arc[irr], 1)
        # a cell per (arc, side, node)
        t = out.coordinate
        vote = np.flatnonzero(irr & ~((0.02 <= t) & (t <= 0.98)))
        side = np.where(t[vote] < 0.02, 0, 1)
        cells = (2 * arc[vote] + side) * nodes + out.node[vote]
        votes = _add_votes(votes, (cells, start + vote, np.ones_like(cells)))

    hit = np.flatnonzero(irr_counts)
    return _Part(
        red_counts, hit, irr_counts[hit], max_relation, max_classification, decode_errors, votes
    )


def _fork_map(f, items: list) -> list:
    """[f(x) for x in items]: items[0] in this process, every other item
    in a forked worker that sends f's value, or the exception it raised,
    through a pipe.  The values are read in order, and the first exception
    is raised here with its type and message.  On any exception, here or
    in a worker, the workers still running are killed, and every worker is
    reaped before this returns or raises."""
    if len(items) == 1:
        return [f(items[0])]
    pids: list[int] = []  # the workers not yet reaped
    fds: list[int] = []  # the read ends of their pipes
    try:
        for x in items[1:]:
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                _worker(f, x, w, fds)
            os.close(w)
            pids.append(pid)
        values = [f(items[0])]
        for r in fds:
            data = b"".join(iter(functools.partial(os.read, r, 1 << 16), b""))
            _, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            if not data:
                raise RuntimeError(
                    f"a verify worker exited with code {os.waitstatus_to_exitcode(status)} "
                    "and sent no result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            values.append(value)
        return values
    finally:
        if pids:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
        for r in fds:
            os.close(r)


def _worker(f, x, w: int, fds: list[int]) -> NoReturn:
    """A forked worker of _fork_map: (True, f(x)), or (False, the exception
    it raised), pickled into the pipe's write end w.  It leaves only by
    os._exit, so it flushes no stdio buffer it inherited and runs no
    atexit hook nor any finally block of the stack it was forked from."""
    code = 1
    try:
        for r in fds:
            os.close(r)
        try:
            message = pickle.dumps((True, f(x)))
        except BaseException as exc:
            message = pickle.dumps((False, exc))
        with open(w, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)


def empirical_structure(cfg: SampleConfig) -> Summary:
    """Sample, classify, and compare observed structure with the closed form.

    Near-limit irreducible samples (t < 0.02 or t > 0.98) vote for the
    reducible component they approach: the kernel decodes their limit
    eigenvalue pair, exact in t, as it decodes reducible pairs.  The votes
    reconstruct the arc endpoints empirically; agreement with the closed
    form (components.attachment_nodes) is reported per arc.  decode_errors
    counts the samples whose reason is not OK.

    The samples go through the batched pipeline CHUNK at a time into array
    tallies: counts per node and per arc, running maxima and vote cells,
    with the summary a loop over sample_pair and classify would give.  The
    chunks are split into _runs, one per CPU; the first run is tallied in
    this process and each other in a forked worker (_fork_map), and the
    parts are merged in index order: counts add, maxima combine as the
    running maximum does and vote cells keep their first index, so the
    summary does not depend on the number of runs.
    """
    p = cfg.params
    k, kp = _irr_tables(p)[:2]
    _, expected = attachment_nodes(p, k, kp)
    k.flags.writeable = kp.flags.writeable = expected.flags.writeable = False
    nodes = p.d // 2 + 1
    red_counts = np.zeros(nodes, dtype=np.int64)
    irr_counts = np.zeros(len(k), dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    votes = (empty, empty, empty)
    max_relation = max_classification = 0.0
    decode_errors = 0

    for part in _fork_map(functools.partial(_tally, cfg, len(k)), _runs(cfg.sample_count)):
        red_counts += part.red_counts
        irr_counts[part.arcs] += part.arc_counts
        # np.maximum, not max(): a NaN carries through, as in the running maximum
        max_relation = np.maximum(max_relation, part.max_relation)
        max_classification = np.maximum(max_classification, part.max_classification)
        decode_errors += part.decode_errors
        votes = _add_votes(votes, part.votes)

    cell, first, count = votes
    group, node = np.divmod(cell, nodes)
    lead = _leaders(group, count, first)
    arc, side = np.divmod(group[lead], 2)
    arc_ok = np.ones(len(k), dtype=bool)
    arc_ok[arc[node[lead] != expected[arc, side]]] = False
    return Summary(
        cfg, k, kp, expected, red_counts, irr_counts, float(max_relation),
        float(max_classification), decode_errors, group, node, count, arc_ok,
    )


# --- the tkchar-verify/1 writer ----------------------------------------------

_JSON_ARC = """    {
      "expected": [
        %d,
        %d
      ],
      "k": %d,
      "kp": %d,
      "observed_t0": %s,
      "observed_t1": %s,
      "ok": %s
    }"""

_JSON_TAIL = """,
  "flags": {
    "adjacency": %s,
    "components": %s,
    "residuals": %s
  },
  "max_classification_residual": %s,
  "max_relation_residual": %s,
  "ok": %s,
  "params": {
    "d": %d,
    "m": %d,
    "n": %d
  },
  "reducible_fraction": %s,
  "sample_count": %d,
  "schema": "tkchar-verify/1",
  "seed": %d,
  "tolerance": %s
}"""

_JSON_BOOL = ("false", "true")

def _json_number(x: float) -> str:
    """x as json.dumps writes it after rounding a float to 12 significant
    digits (an int stays an int)."""
    return repr(_sig12(x)) if isinstance(x, float) else "%d" % x


def _lines(
    template: str,
    columns: tuple[np.ndarray, ...],
    order: np.ndarray,
    chunk: int,
    keep: np.ndarray | None = None,
) -> Iterator[list[str]]:
    """template % the row of columns at each position of order (those that
    keep holds), chunk positions at a time."""
    for start in range(0, len(order), chunk):
        j = order[start : start + chunk]
        if keep is not None:
            j = j[keep[j]]
        yield [template % row for row in zip(*(c[j].tolist() for c in columns))]


def _decimal_rank(size: int) -> np.ndarray:
    """rank[i] is the place of i among 0 .. size - 1 (size >= 1) in the
    order of their decimal strings ("10" before "2"), as sort_keys sorts
    them: by the digits padded on the right, then shorter first."""
    x = np.arange(size)
    digits, power = np.ones(size, dtype=np.int64), 10
    while power < size:
        digits += x >= power
        power *= 10
    rank = np.empty(size, dtype=np.int64)
    rank[np.lexsort((digits, x * 10 ** (digits[-1] - digits)))] = x
    return rank


def _arc_lines(s: Summary, chunk: int) -> Iterator[list[str]]:
    """The adjacency entries, chunk arcs at a time."""
    # the object of each voted arc end, its nodes sorted as strings
    order = np.lexsort((_decimal_rank(len(s.red_counts))[s.vote_node], s.vote_group))
    cells = zip(
        s.vote_group[order].tolist(),
        ['        "%d": %d' % vote for vote in zip(
            s.vote_node[order].tolist(), s.vote_count[order].tolist()
        )],
    )
    observed = {
        group: "{\n" + ",\n".join(line for _, line in run) + "\n      }"
        for group, run in itertools.groupby(cells, key=itemgetter(0))
    }
    arcs = len(s.k)
    for start in range(0, arcs, chunk):
        stop = min(start + chunk, arcs)
        ends = [observed.get(group, "{}") for group in range(2 * start, 2 * stop)]
        rows = zip(
            *(a[start:stop].tolist() for a in (s.node[:, 0], s.node[:, 1], s.k, s.kp)),
            ends[0::2],
            ends[1::2],
            map(_JSON_BOOL.__getitem__, s.arc_ok[start:stop].tolist()),
        )
        yield [_JSON_ARC % row for row in rows]


def summary_chunks(s: Summary) -> Iterator[str]:
    """The "tkchar-verify/1" document of s as text chunks, in the layout of
    json.dumps(indent=2, sort_keys=True) with every float rounded to 12
    significant digits; the adjacency entries, counts and expected
    components come graph.CHUNK at a time, each list through
    graph._json_block, so a writer never holds the whole document.

    Raises ValueError on a non-finite float, which strict JSON cannot hold,
    at the call, before any chunk exists.
    """
    floats = {
        "reducible_fraction": s.cfg.reducible_fraction,
        "tolerance": s.cfg.tol,
        "max_relation_residual": s.max_relation,
        "max_classification_residual": s.max_classification,
    }
    for key, x in floats.items():
        if not math.isfinite(x):
            raise ValueError(f"{key} is non-finite ({x}); strict JSON cannot represent it")
    return _summary_parts(s, graph.CHUNK)


def _summary_parts(s: Summary, chunk: int) -> Iterator[str]:
    """The chunks of summary_chunks, from its checked summary."""
    cfg = s.cfg
    p = cfg.params
    # keys sort as strings: every "irr:k,kp" before every "red:i", the
    # labels as their decimals with "," below every digit (lexsort for
    # both: np.argsort's default kind maps another 256 KiB of sort code)
    irr = np.lexsort((_decimal_rank(p.n)[s.kp], _decimal_rank(p.m)[s.k]))
    red = np.lexsort((_decimal_rank(len(s.red_counts)),))
    nodes = np.arange(len(s.red_counts))
    yield '{\n  "adjacency": '
    yield from _json_block(_arc_lines(s, chunk), "[]")
    yield ',\n  "counts": '
    yield from _json_block(
        itertools.chain(
            _lines('    "irr:%d,%d": %d', (s.k, s.kp, s.irr_counts), irr, chunk, s.irr_counts > 0),
            _lines('    "red:%d": %d', (nodes, s.red_counts), red, chunk, s.red_counts > 0),
        ),
        "{}",
    )
    yield ',\n  "decode_errors": %d,\n  "expected_components": ' % s.decode_errors
    yield from _json_block(
        itertools.chain(
            _lines('    "irr:%d,%d"', (s.k, s.kp), irr, chunk),
            _lines('    "red:%d"', (nodes,), red, chunk),
        ),
        "[]",
    )
    flags = s.flags
    yield _JSON_TAIL % (
        *(_JSON_BOOL[flags[key]] for key in ("adjacency", "components", "residuals")),
        _json_number(s.max_classification),
        _json_number(s.max_relation),
        _JSON_BOOL[s.ok],
        p.d,
        p.m,
        p.n,
        _json_number(cfg.reducible_fraction),
        cfg.sample_count,
        cfg.seed,
        _json_number(cfg.tol),
    )


def summary_to_json(summary: Summary) -> str:
    """The summary_chunks document as one string."""
    return "".join(summary_chunks(summary))
