"""Catalogue of approximation thresholds, stored as exact right-hand sides.

Every bound is exposed as the value 1/f(q) that an approximation error
|x - p/q| is compared against, as an exact :class:`RadicalSum`.  Each
threshold is 1/(q^2 g(q)) for the g(q) in the last column, which
:func:`bound_g` returns as integers:

    dirichlet    1/q^2                                        1
    hurwitz      1/(sqrt(5) q^2)                              sqrt(5)
    vahlen       1/(2 q^2)         (pair witness)             2
    borel        1/(sqrt(5) q^2)   (triple witness)           sqrt(5)
    hancl_nair   1/((sqrt(5) + (4 - 5*sqrt(5) + sqrt(61))/(2 q^2)) q^2)
                                            sqrt(5) + (4 - 5*sqrt(5) + sqrt(61))/(2 q^2)
    nathanson    1/(sqrt(k^2+4) q^2)                          sqrt(k^2+4)
    hancl_g      refined_f at k = 1                           refined_f's, k = 1
    refined_f    1/f(q),  f(q) = (q^2 sqrt(k^2+4)/2)(1 + sqrt(1 + 4/((k^2+4) q^2)))
                                            (q sqrt(k^2+4) + sqrt((k^2+4) q^2 + 4))/(2q)

For refined_f the reciprocal collapses to the two-radical form

    1/f(q) = (sqrt((k^2+4) q^2 + 4) - q sqrt(k^2+4)) / (2 q),

verified symbolically against f(q) in the test suite.

For hancl_nair, with u = 2q^2 - 5, B = 5u^2 - 45, C = 8u and
N = B^2 - 5C^2, the denominator is rationalised in closed form:

    2/(4 + u sqrt(5) + sqrt(61)) = 2(4 + u sqrt(5) - sqrt(61))(B - C sqrt(5))/N
        = 2(4B - 5uC + (uB - 4C) sqrt(5) - B sqrt(61) + C sqrt(305))/N,

since (4 + u sqrt(5))^2 - 61 = B + C sqrt(5).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import RadicalSum, square_free_split

__all__ = [
    "BOUND_KINDS",
    "BoundSpec",
    "Outcome",
    "bound_g",
    "bound_rhs",
    "f_value",
]

BOUND_KINDS = (
    "dirichlet",
    "hurwitz",
    "hancl_g",
    "vahlen",
    "borel",
    "hancl_nair",
    "nathanson",
    "refined_f",
)

_NEEDS_K = frozenset({"nathanson", "refined_f"})


class Outcome(str, Enum):
    HOLDS_STRICT = "Holds_Strict"
    HOLDS_EQUAL = "Holds_Equal"
    FAILS = "Fails"


@dataclass(frozen=True)
class BoundSpec:
    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.kind in _NEEDS_K:
            if self.k is None or self.k < 1:
                raise ValueError(f"bound {self.kind!r} requires k >= 1")


def f_value(k: int, q: int) -> RadicalSum:
    """f(q) = (q/2)(q sqrt(k^2+4) + sqrt((k^2+4) q^2 + 4)), exactly."""
    d = k * k + 4
    return RadicalSum(0, [(Fraction(q * q, 2), d), (Fraction(q, 2), d * q * q + 4)])


def bound_g(spec: BoundSpec, q: int) -> tuple[int, list[tuple[int, int]], int]:
    """g(q) of the threshold 1/(q^2 g(q)) as integers (c, [(r, n), ...], den),
    meaning (c + sum n*sqrt(r))/den with den > 0.

    The square part of k^2 + 4 is folded into its coefficient (one cached
    split per k); the radicand (k^2+4) q^2 + 4 is left unsplit.
    """
    kind = spec.kind
    if kind == "dirichlet":
        return 1, [], 1
    if kind == "vahlen":
        return 2, [], 1
    if kind in ("hurwitz", "borel"):
        return 0, [(5, 1)], 1
    if kind == "hancl_nair":
        return 4, [(5, 2 * q * q - 5), (61, 1)], 2 * q * q
    k = 1 if kind == "hancl_g" else spec.k
    d = k * k + 4
    s, r = square_free_split(d)
    if kind == "nathanson":
        return 0, [(r, s)], 1
    return 0, [(r, s * q), (d * q * q + 4, 1)], 2 * q


def _refined_rhs(k: int, q: int) -> RadicalSum:
    # (s1 sqrt(k1) - q s2 sqrt(k2)) / (2q) in one _make; k2 > 1 because
    # k^2 + 4 is never a square, while d q^2 + 4 can be one (d = 5, q = 1)
    d = k * k + 4
    s1, k1 = square_free_split(d * q * q + 4)
    s2, k2 = square_free_split(d)
    pairs = [(k2, -q * s2)]
    if k1 == 1:
        return RadicalSum._make(s1, pairs, 2 * q)
    return RadicalSum._make(0, [(k1, s1), *pairs], 2 * q)


def bound_rhs(spec: BoundSpec, q: int) -> RadicalSum:
    """The exact threshold to compare |x - p/q| against, in canonical form."""
    if q < 1:
        raise ValueError("q must be >= 1")
    kind = spec.kind
    if kind == "dirichlet":
        return RadicalSum(Fraction(1, q * q))
    if kind in ("hurwitz", "borel"):
        return RadicalSum(0, [(Fraction(1, 5 * q * q), 5)])
    if kind == "vahlen":
        return RadicalSum(Fraction(1, 2 * q * q))
    if kind == "hancl_g":
        return _refined_rhs(1, q)
    if kind == "nathanson":
        d = spec.k * spec.k + 4
        return RadicalSum(0, [(Fraction(1, d * q * q), d)])
    if kind == "refined_f":
        return _refined_rhs(spec.k, q)
    # hancl_nair, rationalised in closed form (see the module docstring).
    # N != 0 for every q >= 1: at q = 1, 2 we get B = 0 and N = -5C^2, where
    # C != 0 because u is odd; otherwise B^2 = 5C^2 would make sqrt5 rational.
    # The sign of N moves into the numerators, since den must be positive.
    u = 2 * q * q - 5
    b, c = 5 * u * u - 45, 8 * u
    n = b * b - 5 * c * c
    s = 2 if n > 0 else -2
    return RadicalSum._make(
        s * (4 * b - 5 * u * c),
        [(5, s * (u * b - 4 * c)), (61, -s * b), (305, s * c)],
        abs(n),
    )
