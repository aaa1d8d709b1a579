"""Unit tests for the approximation-bound thresholds 1/(q^2 g(q))."""
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from cfbounds.bounds import BOUND_KINDS, BoundSpec, bound_g, f_value, g_enclosure
from cfbounds.exact import RadicalSum
from cfbounds.verify import LemmaInstance, check_lemma
from conftest import g_value

mpmath.mp.dps = 200


def _as_mp(r: RadicalSum) -> mpmath.mpf:
    total = mpmath.mpf(r.c0.numerator) / r.c0.denominator
    for coeff, rad in r.terms:
        total += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.sqrt(rad)
    return total


def _oracle_threshold(kind: str, k, q) -> mpmath.mpf:
    """The threshold each bound compares |x - p/q| with, as the literature writes it."""
    sq5 = mpmath.sqrt(5)
    if kind == "dirichlet":
        return mpmath.mpf(1) / q**2
    if kind == "hurwitz":
        return 1 / (sq5 * q**2)
    if kind == "hancl_g":
        return 1 / (q**2 * sq5 / 2 * (1 + mpmath.sqrt(1 + 4 / (5 * mpmath.mpf(q) ** 2))))
    if kind == "vahlen":
        return 1 / (2 * mpmath.mpf(q) ** 2)
    if kind == "borel":
        return 1 / (sq5 * q**2)
    if kind == "hancl_nair":
        return 1 / ((sq5 + (4 - 5 * sq5 + mpmath.sqrt(61)) / (2 * q**2)) * q**2)
    d = mpmath.sqrt(k * k + 4)
    if kind == "nathanson":
        return 1 / (d * q**2)
    # refined: 1/f(q) with f(q) = (q/2)(q sqrt(k^2+4) + sqrt((k^2+4)q^2+4))
    return 1 / (mpmath.mpf(q) / 2 * (q * d + mpmath.sqrt((k * k + 4) * q**2 + 4)))


@pytest.mark.parametrize("kind", BOUND_KINDS)
@pytest.mark.parametrize("q", [1, 2, 7, 100])
def test_bound_rhs_matches_oracle(kind, q):
    # g(q) from bound_g against 1/(q^2 threshold) from the literature's form
    k = 3 if kind in ("nathanson", "refined_f") else None
    g = g_value(BoundSpec(kind, k), q)
    oracle = 1 / (mpmath.mpf(q) ** 2 * _oracle_threshold(kind, k, q))
    assert abs(_as_mp(g) - oracle) < mpmath.mpf(10) ** -150


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("q", [1, 2, 3, 10, 100, 1000, 10**6])
def test_refined_is_strictly_below_nathanson(k, q):
    # the refined threshold is below Nathanson's exactly when its g is above
    diff = g_value(BoundSpec("refined_f", k), q) - g_value(BoundSpec("nathanson", k), q)
    assert diff.sign() > 0


def _refined_reciprocal(k: int, q: int) -> RadicalSum:
    """1/f(q) = (sqrt((k^2+4) q^2 + 4) - q sqrt(k^2+4))/(2q), the paper's simplification."""
    d = k * k + 4
    return RadicalSum(0, [(Fraction(1, 2 * q), d * q * q + 4), (Fraction(-1, 2), d)])


@pytest.mark.parametrize("k", [1, 2, 5, 10])
@pytest.mark.parametrize("q", [1, 3, 50])
def test_reciprocal_simplification_is_exact(k, q):
    product = f_value(k, q) * _refined_reciprocal(k, q)
    assert (product - 1).sign() == 0
    assert (f_value(k, q) - g_value(BoundSpec("refined_f", k), q) * (q * q)).sign() == 0


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("q", [1, 2, 100, 1000])
def test_f_between_its_bracketing_values(k, q):
    # upper side f(q) < q^2 sqrt(k^2+4) + 1/sqrt(k^2+4) is lemma L0_limit; the
    # lower side f(q) > q^2 sqrt(k^2+4) is test_refined_is_strictly_below_nathanson
    holds, _ = check_lemma(LemmaInstance("L0_limit", k, {"q": q}))
    assert holds


def _spec(kind: str, k: int) -> BoundSpec:
    return BoundSpec(kind, k if kind in ("nathanson", "refined_f") else None)


def _paper_denominator(kind: str, k: int, q: int) -> RadicalSum:
    """The denominator of each threshold as the literature writes it."""
    if kind == "dirichlet":
        return RadicalSum(q * q)
    if kind == "vahlen":
        return RadicalSum(2 * q * q)
    if kind in ("hurwitz", "borel"):
        return RadicalSum.sqrt(5, q * q)
    if kind == "hancl_nair":
        # (sqrt(5) + (4 - 5 sqrt(5) + sqrt(61))/(2 q^2)) q^2
        return RadicalSum(2, [(q * q - Fraction(5, 2), 5), (Fraction(1, 2), 61)])
    if kind == "nathanson":
        return RadicalSum.sqrt(k * k + 4, q * q)
    return f_value(1 if kind == "hancl_g" else k, q)


@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_threshold_is_one_over_q_squared_g(kind):
    # q^2 g(q) is exactly the threshold's denominator, and g's denominator is positive
    for k in (1, 2, 3, 4, 6):
        for q in (1, 2, 3, 5, 8, 13, 100, 10**20 + 1):
            spec = _spec(kind, k)
            assert bound_g(spec, q)[2] > 0
            diff = g_value(spec, q) * (q * q) - _paper_denominator(kind, k, q)
            assert diff.sign() == 0, (kind, k, q)


# g_inf, the limit of g(q), for each kind
_G_LIMIT = {"dirichlet": 1, "vahlen": 2, "hurwitz": 5, "borel": 5, "hancl_nair": 5, "hancl_g": 5}
_LEMMA_QS = list(range(1, 301)) + [2**200 + 1, 3**130, 2**401 - 1, 10**150 + 7]


def _g_inf(spec) -> RadicalSum:
    limit = _G_LIMIT.get(spec.kind)
    if limit is None:
        return RadicalSum.sqrt(spec.k * spec.k + 4)
    return RadicalSum(limit) if spec.kind in ("dirichlet", "vahlen") else RadicalSum.sqrt(limit)


@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_g_lies_between_its_limit_and_the_limit_plus_one_over_q_squared(kind):
    # g_inf <= g(q) <= g_inf + 1/q^2, by exact signs: the lemma under g_enclosure
    for k in (1, 2, 5):
        spec = _spec(kind, k)
        g_inf = _g_inf(spec)
        for q in _LEMMA_QS:
            g = g_value(spec, q)
            assert (g - g_inf).sign() >= 0, (kind, k, q)
            assert (g_inf + Fraction(1, q * q) - g).sign() >= 0, (kind, k, q)


@pytest.mark.parametrize("kind", BOUND_KINDS)
@pytest.mark.parametrize("bits", [8, 64, 320])
def test_g_enclosure_holds_g_on_both_sides_of_the_constant_regime(kind, bits):
    # below q = 2^(bits//2 + 1) the enclosure uses q^2, above it g_inf alone;
    # both hold g(q)*2^bits within 3 units
    for k in (1, 2, 5):
        spec = _spec(kind, k)
        enc = g_enclosure(spec, bits)
        edge = 1 << (bits // 2 + 1)
        for q in _LEMMA_QS + [edge - 1, edge, edge + 1]:
            lo, hi = enc(q)
            assert 0 <= hi - lo <= 3, (kind, k, q)
            scaled = g_value(spec, q) * (1 << bits)
            assert (scaled - lo).sign() >= 0 and (hi - scaled).sign() >= 0, (kind, k, q)


@pytest.mark.parametrize("kind", ["refined_f", "hancl_g", "hancl_nair"])
def test_g_enclosure_lies_in_the_window_of_its_limit(kind):
    # past the cut the enclosure is (lo_inf, hi_inf), of g_inf; below it the
    # enclosure lies in [lo_inf, hi_inf + 2^bits // q^2], the window that a
    # scan decides most rows against before it encloses g(q)
    bits = 320
    qs = list(range(1, 10**4 + 1)) + [(1 << e) + t for e in range(14, 171) for t in (-1, 0, 1)]
    for k in range(1, 51) if kind == "refined_f" else [None]:
        enc = g_enclosure(BoundSpec(kind, k), bits)
        lo_inf, hi_inf = enc(1 << bits)
        for q in qs:
            lo, hi = enc(q)
            assert lo_inf <= lo and hi <= hi_inf + (1 << bits) // (q * q), (kind, k, q)


@pytest.mark.parametrize("bits", [8, 64, 320])
def test_g_enclosure_pins_the_window_of_its_limit(bits):
    # a scan reads its window from enc(1 << bits); these exact pairs fix it,
    # so a drift cannot move rows between the filter and the exact path.
    # With s = isqrt(g_inf^2 4^bits): (s, s + 2) past the cut where g
    # depends on q, (s, s + 1) at every q for sqrt(5) and sqrt(k^2+4), and
    # the exact g 2^bits for dirichlet and vahlen
    edge = 1 << (bits // 2 + 1)
    past = [edge, edge + 1, 1 << bits, 3**400]
    every = list(range(1, 40)) + [edge - 1] + past
    for k in range(1, 51):
        d = k * k + 4
        for kind, g_sq, width, qs in [
            ("refined_f", d, 2, past), ("hancl_g", 5, 2, past), ("hancl_nair", 5, 2, past),
            ("hurwitz", 5, 1, every), ("borel", 5, 1, every), ("nathanson", d, 1, every),
            ("dirichlet", 1, 0, every), ("vahlen", 4, 0, every),
        ]:
            s = isqrt(g_sq << 2 * bits)
            enc = g_enclosure(_spec(kind, k), bits)
            assert [enc(q) for q in qs] == [(s, s + width)] * len(qs), (kind, k)


def test_requires_k_for_parametric_bounds():
    with pytest.raises(ValueError):
        BoundSpec("refined_f")
    with pytest.raises(ValueError):
        BoundSpec("nathanson", 0)

