"""Unit tests for continued-fraction expansion and identities."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.cf import (
    CFExpansion,
    alpha1,
    alpha2,
    cf_value,
    closed_form_pq,
    convergents,
    error_identity,
    expand_rational,
    expand_surd,
    reversed_tail,
    tail_value,
)
from cfbounds.exact import QuadSurd
from conftest import make_random_surd

mpmath.mp.dps = 200


# ---------------------------------------------------------------------------
# rational expansions


@pytest.mark.parametrize(
    "f, rendered",
    [
        (Fraction(10, 7), "[1;2,3]"),
        (Fraction(3), "[3]"),
        (Fraction(-7, 2), "[-4;2]"),
        (Fraction(1, 2), "[0;2]"),
        (Fraction(355, 113), "[3;7,16]"),
    ],
)
def test_expand_rational_known(f, rendered):
    assert expand_rational(f).render() == rendered


@given(st.fractions(min_value=-1000, max_value=1000))
def test_rational_round_trip(f):
    cf = expand_rational(f)
    assert cf_value(cf) == f
    if len(cf) > 1:
        assert cf.digit(len(cf) - 1) != 1  # canonical: never ends in 1


@given(st.fractions(min_value=-1000, max_value=1000))
def test_last_convergent_is_the_number(f):
    cf = expand_rational(f)
    conv = convergents(cf, len(cf) - 1)[-1]
    assert Fraction(conv.p, conv.q) == f


# ---------------------------------------------------------------------------
# surd expansions


@pytest.mark.parametrize(
    "x, rendered",
    [
        (QuadSurd.make(0, 1, 1, 2), "[1;(2)]"),
        (QuadSurd.make(0, 1, 1, 3), "[1;(1,2)]"),
        (QuadSurd.make(1, 1, 2, 5), "[1;(1)]"),
        (QuadSurd.make(0, 1, 1, 61), "[7;(1,4,3,1,2,2,1,3,4,1,14)]"),
        (alpha1(1), "[0;(1)]"),
        (alpha1(2), "[0;(2)]"),
        (alpha2(2), "[0;1,1,(2)]"),
        (alpha2(3), "[0;1,2,(3)]"),
        # sqrt(a^2 + 1) = [a; (2a)]: a short period behind a huge radicand
        (QuadSurd.make(0, 1, 1, 10**24 + 1), f"[{10**12};({2 * 10**12})]"),
        # purely periodic: the period comes from x_1, not from x's own state
        (QuadSurd.make(1, 1, 1, 3), "[2;(1,2)]"),
        (QuadSurd.make(1, 1, 1, 2), "[2;(2)]"),
        (QuadSurd.make(3, -1, 1, 2), "[1;1,1,(2)]"),  # starts at a negative Q
        (QuadSurd.make(1, 1, 2, 3), "[1;(2,1)]"),
        (QuadSurd.make(-5, -3, 7, 11), "[-3;1,6,(2,1,2,2,2,2,2,1,2,7)]"),
    ],
)
def test_expand_surd_known(x, rendered):
    assert expand_surd(x).render() == rendered


def test_expand_surd_is_minimal(rng):
    for _ in range(200):
        cf = expand_surd(make_random_surd(rng))
        head, period = cf.head, cf.period
        # a head ending in the period's last digit could be rotated shorter
        if head:
            assert head[-1] != period[-1]
        length = len(period)
        for m in range(1, length):
            if length % m == 0:
                assert period != period[m:] + period[:m], (cf, m)


def test_surd_round_trip(rng):
    for _ in range(60):
        x = make_random_surd(rng)
        cf = expand_surd(x)
        assert (cf_value(cf) - x).sign() == 0


def test_integer_translate_shifts_only_a0():
    x = QuadSurd.make(0, 1, 1, 2)
    cf0, cf7 = expand_surd(x), expand_surd(x + 7)
    assert cf7.a0 == cf0.a0 + 7
    assert (cf7.head, cf7.period) == (cf0.head, cf0.period)


def test_expansion_digits_match_oracle(rng):
    for _ in range(40):
        x = make_random_surd(rng)
        cf = expand_surd(x)
        mp_x = (mpmath.mpf(x.a) + x.b * mpmath.sqrt(x.d)) / x.c
        for i in range(25):
            a = int(mpmath.floor(mp_x))
            assert a == cf.digit(i)
            mp_x = 1 / (mp_x - a)


# ---------------------------------------------------------------------------
# convergents


@given(
    st.integers(min_value=-50, max_value=50),
    st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=12),
)
def test_determinant_identity(a0, rest):
    if rest[-1] == 1:
        rest[-1] = 2
    cf = CFExpansion(a0, tuple(rest), None)
    convs = convergents(cf, len(rest))
    for c0, c1 in zip(convs, convs[1:]):
        assert c1.q * c0.p - c1.p * c0.q == (-1) ** c1.n


def test_convergents_alternate_around_value(rng):
    x = make_random_surd(rng)
    cf = expand_surd(x)
    for conv in convergents(cf, 10):
        side = (x - Fraction(conv.p, conv.q)).sign()
        assert side == (1 if conv.n % 2 == 0 else -1)


def test_convergents_out_of_range_for_finite():
    cf = expand_rational(Fraction(10, 7))
    with pytest.raises(ValueError):
        convergents(cf, 5)


# ---------------------------------------------------------------------------
# tails and the error identity


def test_tail_value_satisfies_shift(rng):
    for _ in range(20):
        x = make_random_surd(rng)
        cf = expand_surd(x)
        for n in range(0, 8):
            t_prev = tail_value(cf, n - 1)
            t = tail_value(cf, n)
            # [a_n; tail_{n}] relation: t_prev = a_n + 1/t
            assert (t_prev - (cf.digit(n) + 1 / t)).sign() == 0
            assert t > 1


def test_reversed_tail_explicit():
    cf = expand_rational(Fraction(10, 7))  # [1;2,3]
    assert reversed_tail(cf, 0) == 0
    assert reversed_tail(cf, 1) == Fraction(1, 2)
    assert reversed_tail(cf, 2) == Fraction(2, 7)  # [0;3,2]


def test_error_identity_random(rng):
    for _ in range(25):
        x = make_random_surd(rng)
        cf = expand_surd(x)
        for n in (0, 1, 5, 11):
            margin = error_identity(x, cf, n)
            assert margin.sign() > 0  # convergent error is never zero


# ---------------------------------------------------------------------------
# extremal families and closed forms


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_alpha_families_are_unit_interval(k):
    assert 0 < alpha1(k) < 1
    assert 0 < alpha2(k) < 1
    # conjugate roots of the same quadratic up to translation: a1 + a2 = 2 - ?
    assert ((alpha1(k) + alpha2(k)) - QuadSurd.make(2, 0, 2, k * k + 4)).sign() == 0


@pytest.mark.parametrize(
    "family, k",
    [("alpha1", 1), ("alpha1", 2), ("alpha1", 5), ("alpha2", 2), ("alpha2", 5)],
)
def test_closed_form_matches_recurrence(family, k):
    x = alpha1(k) if family == "alpha1" else alpha2(k)
    cf = expand_surd(x)
    start = 0 if family == "alpha1" else 1
    convs = convergents(cf, 20)
    for n in range(start, 21):
        assert closed_form_pq(k, n, family) == (convs[n].p, convs[n].q)


def test_alpha1_denominators_are_fibonacci_like():
    # k = 1: q_n follows the Fibonacci recurrence
    cf = expand_surd(alpha1(1))
    qs = [c.q for c in convergents(cf, 12)]
    for i in range(2, len(qs)):
        assert qs[i] == qs[i - 1] + qs[i - 2]
