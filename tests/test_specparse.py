"""Tests for the number-spec grammar."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfbounds.cf import CFExpansion, alpha1, cf_value
from cfbounds.exact import QuadSurd
from cfbounds.specparse import DecPrefix, SpecParseError, parse_number, render


@pytest.mark.parametrize(
    "text, expected",
    [
        ("rat:10/7", Fraction(10, 7)),
        ("rat:-3/5", Fraction(-3, 5)),
        ("dec:3.14159~5", DecPrefix(Fraction(314159, 100000), 5)),
        ("dec:-0.5~1", DecPrefix(Fraction(-1, 2), 1)),
    ],
)
def test_parse_simple_values(text, expected):
    assert parse_number(text).parsed == expected


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(7, 30), Fraction(1, 2**10 * 3)])
def test_dec_prefix_refuses_a_value_with_no_finite_decimal(value):
    # rendering such a value would look for a power of ten that never comes
    with pytest.raises(ValueError):
        DecPrefix(value, 3)


def test_parse_surd_is_alpha1():
    spec = parse_number("surd:(-1+1*sqrt(5))/2")
    assert (spec.parsed - alpha1(1)).sign() == 0


def test_parse_cf_periodic_value():
    spec = parse_number("cf:[0;(2)]")  # sqrt2 - 1
    value = cf_value(spec.parsed)
    assert (value - QuadSurd.make(-1, 1, 1, 2)).sign() == 0


def test_parse_cf_finite_is_canonicalized():
    spec = parse_number("cf:[0;2,1]")  # ends in 1: same value as [0;3]
    assert spec.parsed.render() == "[0;3]"
    assert parse_number("cf:[-2;1]").parsed.render() == "[-1]"
    assert parse_number("cf:[1;1,1]").parsed.render() == "[1;2]"
    assert parse_number("cf:[5]").parsed.render() == "[5]"


def test_parse_cf_with_head_and_period():
    spec = parse_number("cf:[3;1,(2,1)]")
    assert isinstance(spec.parsed, CFExpansion)
    assert spec.parsed.period is not None


def test_whitespace_insensitive():
    a = parse_number("surd:( -1 + 1 * sqrt( 5 ) ) / 2")
    b = parse_number("surd:(-1+1*sqrt(5))/2")
    assert render(a) == render(b) == render(b.parsed)


@pytest.mark.parametrize(
    "bad",
    [
        "rat:1/0",
        "surd:(1+1*sqrt(0))/2",
        "surd:(1+1*sqrt(5))/0",
        "cf:[0;2,0]",
        "cf:[0;-1]",
        "cf:[0;()]",
        "cf:[0;(2]",
        "cf:[0;1,,2]",
        "cf:[0;1,]",
        "cf:[0;,1]",
        "cf:[0;,(2)]",
        "cf:[0;1,,(2)]",
        "cf:[1;]",
        "cf:[0;1(2)]",
        "dec:3~2",
        "noprefix",
        "wat:1/2",
    ],
)
def test_rejects_malformed(bad):
    with pytest.raises(SpecParseError):
        parse_number(bad)


def test_parse_error_carries_position():
    try:
        parse_number("rat:1/0")
    except SpecParseError as exc:
        assert exc.pos > 0
        assert str(exc) == "zero denominator (at position 6)"
    else:
        pytest.fail("expected SpecParseError")
    # an error with no place in the text names none
    refusal = SpecParseError("needs an irrational input")
    assert str(refusal) == "needs an irrational input" and refusal.pos is None


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_rat_round_trip(f):
    spec = parse_number(f"rat:{f.numerator}/{f.denominator}")
    assert parse_number(render(spec)).parsed == spec.parsed


@given(
    st.integers(min_value=-20, max_value=20),
    st.lists(st.integers(min_value=1, max_value=9), max_size=4),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
)
def test_cf_round_trip_preserves_value(a0, head, period):
    text = f"cf:[{a0};" + ",".join(map(str, head + [f"({','.join(map(str, period))})"])) + "]"
    spec = parse_number(text)
    spec2 = parse_number(render(spec))
    assert (cf_value(spec.parsed) - cf_value(spec2.parsed)).sign() == 0


def test_dec_round_trip():
    spec = parse_number("dec:2.71828~6")
    assert parse_number(render(spec)).parsed == spec.parsed
