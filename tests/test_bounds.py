"""Unit tests for the approximation-bound right-hand sides."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.bounds import BOUND_KINDS, BoundSpec, bound_g, bound_rhs, f_value
from cfbounds.bounds import _refined_rhs
from cfbounds.exact import RadicalSum, radical_sign
from cfbounds.verify import LemmaInstance, check_lemma

mpmath.mp.dps = 200


def _as_mp(r: RadicalSum) -> mpmath.mpf:
    total = mpmath.mpf(r.c0.numerator) / r.c0.denominator
    for coeff, rad in r.terms:
        total += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.sqrt(rad)
    return total


def _oracle_rhs(kind: str, k, q) -> mpmath.mpf:
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
    k = 3 if kind in ("nathanson", "refined_f") else None
    rhs = bound_rhs(BoundSpec(kind, k), q)
    assert abs(_as_mp(rhs) - _oracle_rhs(kind, k, q)) < mpmath.mpf(10) ** -150


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("q", [1, 2, 3, 10, 100, 1000, 10**6])
def test_refined_is_strictly_below_nathanson(k, q):
    diff = bound_rhs(BoundSpec("refined_f", k), q) - bound_rhs(BoundSpec("nathanson", k), q)
    assert radical_sign(diff) < 0


@pytest.mark.parametrize("k", [1, 2, 5, 10])
@pytest.mark.parametrize("q", [1, 3, 50])
def test_reciprocal_simplification_is_exact(k, q):
    product = f_value(k, q) * _refined_rhs(k, q)
    assert (product - 1).sign() == 0
    assert (bound_rhs(BoundSpec("refined_f", k), q) - _refined_rhs(k, q)).sign() == 0


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("q", [1, 2, 100, 1000])
def test_f_between_its_bracketing_values(k, q):
    # upper side f(q) < q^2 sqrt(k^2+4) + 1/sqrt(k^2+4) is lemma L0_limit; the
    # lower side f(q) > q^2 sqrt(k^2+4) is test_refined_is_strictly_below_nathanson
    holds, _ = check_lemma(LemmaInstance("L0_limit", k, {"q": q}))
    assert holds


def _hancl_nair_by_inverse(q: int) -> RadicalSum:
    # the rationalisation the closed form replaces: 2/(4 + (2q^2 - 5) sqrt5 + sqrt61)
    return RadicalSum(4, [(2 * q * q - 5, 5), (1, 61)]).inverse() * 2


def test_hancl_nair_closed_form_equals_inverse():
    # RadicalSum equality compares the integer fields, so this is field for field;
    # q = 1, 2 are the values with N = B^2 - 5C^2 < 0
    for q in range(1, 401):
        assert bound_rhs(BoundSpec("hancl_nair"), q) == _hancl_nair_by_inverse(q)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**40))
def test_hancl_nair_closed_form_equals_inverse_at_large_q(q):
    assert bound_rhs(BoundSpec("hancl_nair"), q) == _hancl_nair_by_inverse(q)


def _refined_by_constructor(k, q):
    # the public constructor route the one-_make closed form replaces
    return RadicalSum(0, [(Fraction(1, 2 * q), (k * k + 4) * q * q + 4), (Fraction(-1, 2), k * k + 4)])


def _fields(r: RadicalSum):
    return r._c, r._t, r.den


def test_refined_closed_form_equals_constructor():
    # k = 1, q = 1 gives the perfect square 5 + 4 = 9, whose root is the constant
    assert _refined_rhs(1, 1).c0 == Fraction(3, 2)
    for k in range(1, 41):
        for q in range(1, 301):
            assert _fields(_refined_rhs(k, q)) == _fields(_refined_by_constructor(k, q))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=10**40))
def test_refined_closed_form_equals_constructor_at_large_q(k, q):
    assert _fields(_refined_rhs(k, q)) == _fields(_refined_by_constructor(k, q))


def _spec(kind: str, k: int) -> BoundSpec:
    return BoundSpec(kind, k if kind in ("nathanson", "refined_f") else None)


@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_threshold_is_one_over_q_squared_g(kind):
    # q^2 g(q) times the threshold is exactly 1, and g's denominator is positive
    for k in (1, 2, 3, 4, 6):
        for q in (1, 2, 3, 5, 8, 13, 100, 10**20 + 1):
            spec = _spec(kind, k)
            c, terms, den = bound_g(spec, q)
            assert den > 0
            g = RadicalSum(Fraction(c, den), [(Fraction(n, den), r) for r, n in terms])
            assert (g * (q * q) * bound_rhs(spec, q) - 1).sign() == 0, (kind, k, q)


def test_requires_k_for_parametric_bounds():
    with pytest.raises(ValueError):
        BoundSpec("refined_f")
    with pytest.raises(ValueError):
        BoundSpec("nathanson", 0)

