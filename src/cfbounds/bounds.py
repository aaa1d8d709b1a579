"""Catalogue of approximation thresholds.

Every bound compares an approximation error |x - p/q| with a threshold
1/(q^2 g(q)), and :func:`bound_g` returns g(q) exactly, as integers:

    dirichlet    1
    hurwitz      sqrt(5)
    vahlen       2                                        (pair witness)
    borel        sqrt(5)                                  (triple witness)
    hancl_nair   sqrt(5) + (4 - 5*sqrt(5) + sqrt(61))/(2 q^2)
    nathanson    sqrt(k^2+4)
    hancl_g      refined_f's, at k = 1
    refined_f    (q sqrt(k^2+4) + sqrt((k^2+4) q^2 + 4))/(2q)

For refined_f, q^2 g(q) is the paper's
f(q) = (q^2 sqrt(k^2+4)/2)(1 + sqrt(1 + 4/((k^2+4) q^2))) (:func:`f_value`),
so its threshold is 1/f(q).
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
