"""Explicit SU(2) representations of <x,y | x^m = y^n> and their characters.

Irreducible points: x maps to diag(lam, conj(lam)) with lam = exp(i*pi*k/m)
and y maps to a conjugate of diag(mu, conj(mu)), mu = exp(i*pi*kp/n), by the
real rotation with columns (sqrt(1-t), sqrt(t)); t in (0, 1) parametrizes
the component and the eigenvector cross-ratio equals t/(t-1).

Reducible points: both images are diagonal.  On raw component i the circle
coordinate t gives lam = t^b and mu = alpha_i^-1 * t^a, where alpha_i is
the shared root from components.alpha_root; for coprime orders (d = 1,
alpha = 1) this is lam = t^n, mu = t^m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .components import GroupParams, _check_irr_label, alpha_root
from .roots import root
from .su2 import (
    DegenerateError,
    UnitaryMatrix,
    eigen_decompose,
    cross_ratio,
    is_reducible_pair,
    mat_pow,
    trace,
)


@dataclass(frozen=True, slots=True)
class Word:
    """A word in the generators x, y as ((gen, exponent), ...) letters.

    Normalized: consecutive letters use distinct generators and exponents
    are nonzero.  The empty word is the identity (trace 2).
    """

    letters: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def _normalize(pairs: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        for gen, exp in pairs:
            if exp == 0:
                continue
            if out and out[-1][0] == gen:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((gen, merged))
            else:
                out.append((gen, exp))
        return tuple(out)

    @classmethod
    def from_letters(cls, pairs: list[tuple[str, int]]) -> "Word":
        for gen, _ in pairs:
            if gen not in ("x", "y"):
                raise ValueError(f"unknown generator {gen!r}")
        return cls(cls._normalize(pairs))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a string like "xyXY"; uppercase letters are inverses."""
        pairs = []
        for ch in text:
            if ch in "xy":
                pairs.append((ch, 1))
            elif ch in "XY":
                pairs.append((ch.lower(), -1))
            else:
                raise ValueError(f"unknown letter {ch!r} in word {text!r}")
        return cls.from_letters(pairs)

    def __str__(self) -> str:
        out = []
        for gen, exp in self.letters:
            out.append((gen if exp > 0 else gen.upper()) * abs(exp))
        return "".join(out)


DEFAULT_WORDS: tuple[Word, ...] = tuple(Word.parse(s) for s in ("x", "y", "xy", "xY", "xyXY"))


def evaluate_word(word: Word, a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    gens = {"x": a, "y": b}
    result: UnitaryMatrix | None = None
    for gen, exp in word.letters:
        factor = mat_pow(gens[gen], exp)
        result = factor if result is None else result @ factor
    return a.identity() if result is None else result


def character(
    a: UnitaryMatrix, b: UnitaryMatrix, words: tuple[Word, ...] = DEFAULT_WORDS
) -> list[complex]:
    """Traces of the given words at the representation (a, b)."""
    if not words:
        raise ValueError("empty word list")
    return [trace(evaluate_word(w, a, b)) for w in words]


def build_irr(p: GroupParams, k: int, kp: int, t: float) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """The representation at parameter t of irreducible component (k, kp)."""
    _check_irr_label(p, k, kp)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly between 0 and 1, got {t}")
    lam = root(k, p.m).to_complex()
    mu = root(kp, p.n).to_complex()
    rot = UnitaryMatrix(complex(math.sqrt(1.0 - t)), complex(math.sqrt(t)))
    a = UnitaryMatrix(lam, 0.0j)
    b = rot @ UnitaryMatrix(mu, 0.0j) @ rot.inv()
    return a, b


def _unit(t: complex) -> complex:
    nrm = abs(t)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"coordinate must lie on the unit circle, |t| = {nrm}")
    return t / nrm


@functools.lru_cache(maxsize=4096)
def _alpha_conj(p: GroupParams, i: int) -> complex:
    """alpha_root(p, i)^-1 as a complex number: built once per (p, i), not per call."""
    return alpha_root(p, i).conj().to_complex()


def build_red_noncoprime(p: GroupParams, i: int, t: complex) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """Diagonal representation at circle coordinate t on raw reducible component i."""
    if not 0 <= i < p.d:
        raise ValueError(f"raw component index {i} outside [0, {p.d})")
    t = _unit(t)
    lam = t ** p.b
    mu = _alpha_conj(p, i) * t ** p.a
    return UnitaryMatrix(lam, 0.0j), UnitaryMatrix(mu, 0.0j)


def cross_ratio_of_pair(a: UnitaryMatrix, b: UnitaryMatrix) -> float:
    """Cross-ratio of the eigenvector quadruple (e1, e2, f1, f2) of the pair.

    Real and negative for irreducible SU(2) pairs; reducible pairs share an
    eigenvector and are refused as degenerate.
    """
    if is_reducible_pair(a, b):
        raise DegenerateError("reducible pair: eigenvector quadruple is degenerate")
    _, e1, e2 = eigen_decompose(a)
    _, f1, f2 = eigen_decompose(b)
    r = cross_ratio(e1, e2, f1, f2)
    return r.real
