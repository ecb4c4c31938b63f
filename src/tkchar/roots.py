"""Exact arithmetic on the circle group: roots of unity as integer angles.

A value is the point exp(i*pi*c/N) on the unit circle, stored as the
integer pair (c, N).  Angles are kept in units of pi rather than 2*pi so
that eigenvalue labels such as exp(i*pi*k/m) stay integral.  Products,
powers and conjugates never leave this representation, which means that
membership and coincidence questions about eigenvalues and attachment
coordinates are settled by integer arithmetic, not by comparing floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """exp(i*pi*num/den), held in canonical form.

    Canonical means den >= 1, 0 <= num < 2*den and gcd(num, den) == 1, so
    two values are equal on the circle iff their fields are equal.  The
    constructor canonicalizes, hence RootOfUnity(25, 12) == RootOfUnity(1, 12)
    and RootOfUnity(12, 12) == RootOfUnity(1, 1) == -1.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"denominator must be a positive integer, got {self.den}")
        c = self.num % (2 * self.den)
        g = math.gcd(c, self.den)
        object.__setattr__(self, "num", c // g)
        object.__setattr__(self, "den", self.den // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.num * other.den + other.num * self.den, self.den * other.den)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.num * k, self.den)

    def conj(self) -> "RootOfUnity":
        """Complex conjugate, i.e. the inverse on the unit circle."""
        return self ** -1

    @property
    def angle(self) -> float:
        """Angle in radians, in [0, 2*pi)."""
        return math.pi * self.num / self.den

    def to_complex(self) -> complex:
        a = self.angle
        return complex(math.cos(a), math.sin(a))

    def __complex__(self) -> complex:
        return self.to_complex()


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 1)


def root(c: int, n: int) -> RootOfUnity:
    """exp(i*pi*c/n) in canonical form."""
    return RootOfUnity(c, n)

