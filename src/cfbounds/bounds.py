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
so its threshold is 1/f(q).  Every g tends to a constant g_inf (1, 2, sqrt(5)
or sqrt(k^2+4)) with g_inf <= g(q) <= g_inf + 1/q^2, so
:func:`g_enclosure` encloses g(q) in integers whose size does not grow with q.
"""
from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import cache
from math import isqrt

from .exact import RadicalSum, _Frozen, square_free_split

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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)


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


@cache
def g_enclosure(spec: BoundSpec, bits: int) -> Callable[[int], tuple[int, int]]:
    """A function of q >= 1 that returns integers lo <= g(q)*2^bits <= hi,
    with hi - lo <= 3, in integers of about bits + bitlen(g) bits whatever q.

    Each call works on q only through q^2 < 2^(bits + 2), because of the
    lemma g_inf <= g(q) <= g_inf + 1/q^2 for every kind.  Proof: dirichlet,
    vahlen, hurwitz, borel and nathanson have g = g_inf.  For refined_f and
    hancl_g, with d = k^2 + 4 (k = 1 for hancl_g) and g_inf = sqrt(d),

        g(q) - g_inf = (sqrt(d + 4/q^2) - sqrt(d))/2
                     = (2/q^2)/(sqrt(d + 4/q^2) + sqrt(d)),

    which lies in [0, 1/(q^2 sqrt(d))] and so in [0, 1/q^2], as d >= 5.
    For hancl_nair, g(q) - sqrt(5) = h/(2 q^2) with
    h = 4 - 5 sqrt(5) + sqrt(61) in (0.62, 0.64), so it lies in [0, 1/q^2].
    Once q >= 2^(bits//2 + 1), 1/q^2 < 2^-bits, so the enclosure
    [s, s + 2] of g_inf*2^bits, with s = isqrt(g_inf^2 * 4^bits), holds g(q);
    below that, q^2 < 2^(bits + 2) enters through one floor division:

        refined_f   g*2^bits = (sqrt(d 4^bits) + sqrt(d 4^bits + 4^(bits+1)/q^2))/2,
                    with t = 4^(bits+1) // q^2 <= 4^(bits+1)/q^2 < t + 1
                    and isqrt(m) <= sqrt(m) < isqrt(m) + 1 at each root;
        hancl_nair  g*2^bits = sqrt(5 4^bits) + h 2^bits/(2 q^2), with h 2^bits
                    between 4*2^bits - isqrt(125 4^bits) - 1 + isqrt(61 4^bits)
                    and 2 more, each quotient by 2 q^2 floored or ceiled.

    Each root of g_inf is taken once, when the function is made, and the
    function is made once per (spec, bits): a scan and the rows that render
    its digits share it.

    The window.  Let (L, H) be the enclosure past the cut, of g_inf alone,
    and y = 2^bits/q^2.  For every q >= 1 and bits >= 4 the enclosure lies
    in [L, H + floor(y)], so a T outside that window is outside it too, on
    the same side; a scan decides most rows against the window and encloses
    g(q) only for the rest.  Past the cut, y <= 1/2 and the enclosure is
    (L, H).  Below it:

        dirichlet, vahlen, hurwitz, borel, nathanson: it is (L, H).
        refined_f, hancl_g: L = s, H = s + 2, lo = (s + isqrt(u)) >> 1 and
            hi = (s + isqrt(u + 1) + 3) >> 1, for u = d 4^bits +
            4^(bits+1) // q^2.  lo >= s, as u >= d 4^bits.  As u + 1 <=
            d 4^bits + 4 2^bits y + 1, sqrt(a + e) <= sqrt(a) + e/(2 sqrt(a))
            and sqrt(d 4^bits) >= sqrt(5) 2^bits, isqrt(u + 1) < s + 1 +
            0.9 y + 2^-bits; so isqrt(u + 1) <= s + 1 + m for
            m = floor(0.9 y + 2^-bits), and hi <= s + 2 + floor(m/2).  m = 0
            when y < 1, and m/2 < y otherwise, so floor(m/2) <= floor(y).
        hancl_nair: L = s, H = s + 2, lo = s + hl // (2 q^2) >= s as hl > 0,
            and hi = s + 1 + ceil((hl + 2)/(2 q^2)).  hl <= h 2^bits <
            0.64 2^bits and 1/q^2 = y 2^-bits, so (hl + 2)/(2 q^2) < 0.32 y +
            y 2^-bits: below 1 when y < 1, else below 0.4 y < floor(y) + 1.
            So the ceiling is at most floor(y) + 1.
    """
    kind = spec.kind
    if kind in ("dirichlet", "vahlen"):
        one = (1 if kind == "dirichlet" else 2) << bits
        return lambda q: (one, one)
    d = spec.k * spec.k + 4 if kind in _NEEDS_K else 5
    dd = d << 2 * bits
    s = isqrt(dd)  # s <= sqrt(d)*2^bits < s + 1
    if kind in ("hurwitz", "borel", "nathanson"):
        return lambda q: (s, s + 1)
    cut = bits // 2 + 1
    if kind == "hancl_nair":
        hl = (4 << bits) - isqrt(125 << 2 * bits) - 1 + isqrt(61 << 2 * bits)

        def enc(q: int) -> tuple[int, int]:
            if q.bit_length() > cut:
                return s, s + 2
            q2 = 2 * q * q
            return s + hl // q2, s + 1 - (-(hl + 2) // q2)

        return enc
    four = 4 << 2 * bits

    def enc(q: int) -> tuple[int, int]:
        if q.bit_length() > cut:
            return s, s + 2
        t = dd + four // (q * q)
        return (s + isqrt(t)) >> 1, (s + isqrt(t + 1) + 3) >> 1

    return enc
