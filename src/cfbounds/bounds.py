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
so its threshold is 1/f(q).  :func:`bound_g` is the one formula per kind.
Every g tends to a constant g_inf (1, 2, sqrt(5) or sqrt(k^2+4)), the g of a
constant kind, with g_inf <= g(q) <= g_inf + 1/q^2, so :func:`g_enclosure`
encloses bound_g's integers, cut to that window, in integers whose size
does not grow with q.
"""
from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import cache

from .exact import RadicalSum, _Frozen, _interval, square_free_split

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


class BoundSpec(_Frozen):
    """A bound of :data:`BOUND_KINDS`, with the k that nathanson and
    refined_f require."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):
        if kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {kind!r}")
        if kind in _NEEDS_K:
            if k is None or k < 1:
                raise ValueError(f"bound {kind!r} requires k >= 1")
        set_kind, set_k = self._setters
        set_kind(self, kind)
        set_k(self, k)


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


# the constant kind whose g is g_inf, the limit of a kind whose g depends
# on q; None takes the spec's k
_LIMIT = {"hancl_nair": ("hurwitz", None), "hancl_g": ("nathanson", 1), "refined_f": ("nathanson", None)}


@cache
def g_enclosure(spec: BoundSpec, bits: int) -> Callable[[int], tuple[int, int]]:
    """A function of q >= 1 that returns integers lo <= g(q)*2^bits <= hi,
    with hi - lo <= 3, in integers of about bits + bitlen(g) bits whatever q:
    :func:`exact._interval` of :func:`bound_g`, cut to a window.

    The window comes from the lemma g_inf <= g(q) <= g_inf + 1/q^2 for every
    kind, with g_inf from :data:`_LIMIT`.  Proof: dirichlet, vahlen,
    hurwitz, borel and nathanson have g = g_inf.  For refined_f and hancl_g,
    with d = k^2 + 4 (k = 1 for hancl_g) and g_inf = sqrt(d),

        g(q) - g_inf = (sqrt(d + 4/q^2) - sqrt(d))/2
                     = (2/q^2)/(sqrt(d + 4/q^2) + sqrt(d)),

    which lies in [0, 1/(q^2 sqrt(d))] and so in [0, 1/q^2], as d >= 5.
    For hancl_nair, g(q) - sqrt(5) = h/(2 q^2) with
    h = 4 - 5 sqrt(5) + sqrt(61) in (0.62, 0.64), so it lies in [0, 1/q^2].
    Let (L, L + 1) be the interval of g_inf*2^bits ((L, L) when exact),
    H = L + 2 and y = 2^bits/q^2: then L <= g(q)*2^bits < L + 1 + y, inside
    the window [L, H + floor(y)].  So a T outside the window is outside
    every enclosure below, on the same side: a scan decides most rows
    against the window and encloses g(q) only for the rest.

    A constant kind returns g_inf's interval at every q.  Another returns
    (L, H) once q >= 2^(bits//2 + 1), where y <= 1/2.  Below that g(q) =
    num/den with den >= 2, and num*2^bits, two radical terms, has an
    interval [lo, hi] 2 units wide; floor(lo/den) and ceil(hi/den) hold
    g(q)*2^bits at most 2 units apart, and the window, which holds it too,
    clamps them.  The function is made once per (spec, bits): a scan and
    the rows that render its digits share g_inf's root.
    """
    limit = _LIMIT.get(spec.kind)
    inf = spec if limit is None else BoundSpec(limit[0], limit[1] or spec.k)
    c, terms, _ = bound_g(inf, 1)
    lo_inf, hi_inf = _interval(c, terms, bits)
    if limit is None:
        return lambda q: (lo_inf, hi_inf)
    high, cut = lo_inf + 2, bits // 2 + 1

    def enc(q: int) -> tuple[int, int]:
        if q.bit_length() > cut:
            return lo_inf, high
        c, terms, den = bound_g(spec, q)
        lo, hi = _interval(c, terms, bits)
        return max(lo_inf, lo // den), min(high + (1 << bits) // (q * q), -(-hi // den))

    return enc
