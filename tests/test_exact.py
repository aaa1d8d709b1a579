"""Unit tests for the exact-arithmetic layer."""
import copy
import io
import pickle
import random
import time
from fractions import Fraction
from math import isqrt, prod

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfbounds import exact, verify
from cfbounds.bounds import BoundSpec
from cfbounds.cf import expand_surd
from cfbounds.cli import main
from cfbounds.exact import (
    MixedFieldError,
    QuadSurd,
    RadicalSum,
    square_free_split,
)
from cfbounds.verify import verify_bound_scan
from conftest import direct_margin, make_random_surd

mpmath.mp.dps = 200


def _as_mp(r: RadicalSum) -> mpmath.mpf:
    total = mpmath.mpf(r.c0.numerator) / r.c0.denominator
    for coeff, rad in r.terms:
        total += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.sqrt(rad)
    return total


# ---------------------------------------------------------------------------
# square-free kernels


@pytest.mark.parametrize(
    "n, expected",
    [(1, (1, 1)), (2, (1, 2)), (12, (2, 3)), (49, (7, 1)), (50, (5, 2)), (720, (12, 5))],
)
def test_square_free_split_known(n, expected):
    assert square_free_split(n) == expected


@given(st.integers(min_value=1, max_value=10**12))
def test_square_free_split_reconstructs(n):
    f, s = square_free_split(n)
    assert s * f * f == n
    # no small square divides the kernel
    assert all(s % (p * p) for p in (2, 3, 5, 7, 11, 13))


_PRIMES_BELOW_10_4 = [p for p in range(2, 10**4) if all(p % d for d in range(2, isqrt(p) + 1))]
_M127 = 2**127 - 1  # a Mersenne prime
# cofactors without prime factors below 10^4, as (value, square root or None)
_LARGE_COFACTORS = [
    (1, 1), (10007, None), (10009, None), (10007 * 10009, None), (10007**2, 10007),
    (_M127, None), (_M127**2, _M127), (_M127 * 10007**2, None),
]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.one_of(st.just(9973), st.sampled_from(_PRIMES_BELOW_10_4)),
        st.integers(min_value=1, max_value=150),
        max_size=6,
    ),
    st.sampled_from(_LARGE_COFACTORS),
)
@example({9973: 77, 2: 3}, (10007, None))  # about 1,040 bits
@example({9973: 150, 9967: 151, 3: 2}, (_M127 * 10007**2, None))  # about 4,150 bits
@example({9949: 80, 9973: 80}, (_M127**2, _M127))  # a perfect square
def test_square_free_split_contract(exponents, cofactor):
    # n = prod p^e * m; the small primes split exactly, and m has no prime
    # below 10^4, so it moves whole into s when it is a square and into k
    # otherwise (10007^2 * M127 keeps its square factor, as documented)
    m, root = cofactor
    n, s, k = m, 1, 1
    for p, e in exponents.items():
        n *= p**e
        s *= p ** (e // 2)
        k *= p ** (e % 2)
    if root is None:
        k *= m
    else:
        s *= root
    exact._split_cache.clear()
    assert square_free_split(n) == (s, k)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=1500))
def test_square_free_split_of_lucas_squares(j):
    # 5 F_2j^2 + 4 = L_2j^2, a perfect square of up to ~2,100 bits
    f0, f1 = 0, 1
    for _ in range(2 * j):
        f0, f1 = f1, f0 + f1
    lucas = 2 * f1 - f0  # L_2j = F_(2j+1) + F_(2j-1)
    exact._split_cache.clear()
    assert square_free_split(5 * f0 * f0 + 4) == (lucas, 1)


# ---------------------------------------------------------------------------
# RadicalSum


def test_same_radicand_terms_merge():
    r = RadicalSum(0, [(1, 8), (3, 2)])  # sqrt(8) = 2 sqrt(2)
    assert r.terms == ((Fraction(5), 2),)


def test_perfect_square_radicand_folds_into_rational():
    r = RadicalSum(1, [(2, 49)])
    assert r.terms == () and r.c0 == 15


@pytest.mark.parametrize(
    "r, expected_sign",
    [
        (RadicalSum(0, [(1, 2), (1, 3)]) - RadicalSum(0, [(1, 5)]), 1),
        (RadicalSum(0, [(1, 8), (-2, 2)]), 0),
        (RadicalSum(0, [(1, 12), (1, 27), (-5, 3)]), 0),
        (RadicalSum(3, [(Fraction(-6, 5), 5)]), 1),  # 3 - (6/5) sqrt 5
        (RadicalSum(0, [(1, 2)]) - Fraction(141422, 100000), -1),
        (RadicalSum(0, [(1, 10**18 + 9)]) - 10**9, 1),
    ],
)
def test_radical_sign_known(r, expected_sign):
    assert r.sign() == expected_sign


def test_product_difference_of_squares_is_structural_zero():
    x = RadicalSum(0, [(1, 7), (1, 11)])
    y = RadicalSum(0, [(1, 7), (-1, 11)])
    assert (x * y + 4).sign() == 0  # (sqrt7 + sqrt11)(sqrt7 - sqrt11) = -4


def test_inverse_round_trip():
    r = RadicalSum(Fraction(3, 7), [(2, 5), (Fraction(-1, 3), 13)])
    assert (r * r.inverse() - 1).sign() == 0


def _counting_rounds(mp: pytest.MonkeyPatch, limit: int = 8) -> list:
    """Record each inverse round (one split-element call), and fail after
    ``limit`` of them instead of looping on."""
    rounds = []
    pick = exact._pick_split_prime

    def counted(rads):
        rounds.append(rads)
        if len(rounds) > limit:
            raise AssertionError(f"inverse still running after {limit} rounds")
        return pick(rads)

    mp.setattr(exact, "_pick_split_prime", counted)
    return rounds


def test_inverse_ends_on_radicands_of_primes_above_10_4(monkeypatch):
    # no radicand has a prime below 10^4: the split element starts at
    # 10007*10009 and is cut to 10007 by its gcd with the next radicand
    rounds = _counting_rounds(monkeypatch)
    x = RadicalSum(1, [(1, 10007 * 10009), (1, 10007 * 10037), (1, 10009 * 10037)])
    assert x * x.inverse() == RadicalSum(1)
    assert len(rounds) <= 3


_SPLIT_PRIMES = [2, 3, 10007, 10009, 10037, 10039]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-9, 9),
    st.lists(
        st.tuples(
            st.integers(-9, 9).filter(bool),
            st.sets(st.sampled_from(_SPLIT_PRIMES), min_size=1, max_size=3),
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_inverse_takes_at_most_one_round_per_prime(c, terms):
    # squarefree radicands mixing primes below and above 10^4
    x = RadicalSum(c, [(n, prod(ps)) for n, ps in terms])
    assume(x != RadicalSum(0))
    primes = {p for p in _SPLIT_PRIMES for _, r in x.terms if r % p == 0}
    with pytest.MonkeyPatch.context() as mp:
        rounds = _counting_rounds(mp)
        inv = x.inverse()
    assert len(rounds) <= len(primes)
    assert x * inv == RadicalSum(1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(2, 10**6).filter(lambda m: isqrt(m) ** 2 != m),
    st.sampled_from([1, 10007, 10009, 1000003]),
)
def test_inverse_of_one_radical_is_its_conjugate_in_one_round(c, n, m, p):
    # a lone radicand is cleared in one round, also when it hides a square
    # p*p with p > 10^4 that square_free_split cannot see
    r = p * p * m
    norm = c * c - n * n * r
    with pytest.MonkeyPatch.context() as mp:
        rounds = _counting_rounds(mp)
        inv = RadicalSum(c, [(n, r)]).inverse()
    assert len(rounds) == 1
    assert inv == RadicalSum(Fraction(c, norm), [(Fraction(-n, norm), r)])


def test_inverse_with_a_small_prime_beside_a_square_of_a_large_one(monkeypatch):
    _counting_rounds(monkeypatch)
    x = RadicalSum(1, [(1, 2 * 10007**2), (1, 3 * 10007)])
    assert x * x.inverse() == RadicalSum(1)
    # in 2 * 10007^2 * 10009 the square 10007^2 stays hidden: the product is
    # 1 in value, though not in representation, which equality compares
    y = RadicalSum(1, [(1, 2 * 10007**2 * 10009), (1, 3 * 10007)])
    assert (y * y.inverse() - 1).sign() == 0


def test_decimal_matches_oracle():
    r = RadicalSum(Fraction(-2, 3), [(1, 2), (5, 7)])
    got = mpmath.mpf(r.decimal(50))
    assert abs(got - _as_mp(r)) < mpmath.mpf(10) ** -45


def test_decimal_of_zero():
    assert (RadicalSum(0, [(1, 18), (-3, 2)])).decimal(50) == "0"


@settings(max_examples=200)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.lists(
        st.tuples(
            st.fractions(min_value=-20, max_value=20),
            st.integers(min_value=2, max_value=500),
        ),
        max_size=3,
    ),
)
def test_radical_sign_matches_oracle(c0, terms):
    r = RadicalSum(c0, terms)
    approx = _as_mp(r)
    if abs(approx) < mpmath.mpf(10) ** -100:
        assert r.sign() == 0
    else:
        assert r.sign() == (1 if approx > 0 else -1)


@settings(max_examples=100)
@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
    st.lists(
        st.tuples(
            st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
            st.integers(min_value=2, max_value=500),
        ),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=300),
)
def test_interval_encloses_scaled_value(c0, terms, bits):
    r = RadicalSum(c0, terms)
    lo, hi = exact._interval(r._c, r._t, bits)
    # value * den * 2^bits from its exact integer parts; only the square roots round
    scale = r.den << bits
    with mpmath.workdps(250):
        scaled = int(r.c0 * scale) + sum(
            int(c * scale) * mpmath.sqrt(rad) for c, rad in r.terms
        )
        assert lo <= scaled <= hi
    assert hi - lo <= len(r.terms)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=10**6).filter(lambda r: isqrt(r) ** 2 != r),
    st.integers(min_value=1, max_value=2**2000),
    st.sampled_from([-1, 1]),
    st.sampled_from(["opposite-floor", "opposite-ceil", "same", "zero"]),
    st.integers(min_value=1, max_value=2**100),
)
def test_one_radical_sign_matches_deciding_interval(r, n, n_sign, case, den):
    # c + n*sqrt(r) with c next to -n*sqrt(r) cancels to about 2^-2000
    t = RadicalSum(0, [(n_sign * n, r)])
    ((coef, k),) = t.terms  # r with its square part folded into coef
    root = isqrt(coef.numerator**2 * k)
    c = {
        "opposite-floor": -n_sign * root,
        "opposite-ceil": -n_sign * (root + 1),
        "same": n_sign * root,
        "zero": 0,
    }[case]
    x = (t + c) / den
    bits = 64
    while True:
        lo, hi = exact._interval(x._c, x._t, bits)
        if lo > 0 or hi < 0:
            break
        bits *= 2
        assert bits <= 1 << 16
    assert x.sign() == (1 if lo > 0 else -1)
    assert (-x).sign() == -x.sign()
    # the same integers as a QuadSurd take the same sign rule
    assert QuadSurd.make(c, n_sign * n, den, r).sign() == x.sign()


def test_decimal_of_zero_that_is_not_structurally_zero():
    # 5*4010488^2 + 4 has the square factor 10007^2, which square_free_split
    # leaves in the radicand: the two terms below cancel exactly
    n = 5 * 4010488**2 + 4
    assert n % 10007**2 == 0
    z = RadicalSum(0, [(1, n), (-10007, n // 10007**2)])
    assert len(z.terms) == 2 and z.sign() == 0
    assert z.decimal(50) == "0"
    assert (z + Fraction(1, 3)).decimal(5) == "3.3333e-01"


# squarefree kernels k, some with a prime above 10^4: then a planted p^2,
# p > 10^4, stays hidden in the radicand p^2*k (square_free_split leaves it)
_KERNELS = [2, 3, 6, 10, 10007, 2 * 10009, 3 * 10037, 10039 * 10061]
_planted_terms = st.lists(
    st.tuples(
        st.integers(min_value=-30, max_value=30),
        st.sampled_from(_KERNELS),
        st.sampled_from([1, 10007, 10009, 10061]),
    ),
    max_size=4,
)


def _planted(c, terms):
    """c + sum coef*sqrt(p^2*k), and whether its merged form, with the
    coefficient sum of coef*p for each k, is zero."""
    merged = {}
    for coef, k, p in terms:
        merged[k] = merged.get(k, 0) + coef * p
    x = RadicalSum(c, [(coef, p * p * k) for coef, k, p in terms])
    return x, c == 0 and not any(merged.values())


def _check_against_oracle(x, is_zero):
    with mpmath.workdps(500):
        v = _as_mp(x)
        if is_zero:
            assert abs(v) < mpmath.mpf(10) ** -480
            assert x.sign() == 0 and x.decimal(50) == "0"
        else:
            assert abs(v) > mpmath.mpf(10) ** -400
            assert x.sign() == (1 if v > 0 else -1)
            assert x.decimal(50) == _mp_decimal(v, 50)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=7), _planted_terms)
@example(Fraction(0), [(10007, 10007, 1), (-1, 10007, 10007)])  # sqrt(10007^3) cancels
@example(Fraction(0), [(3, 2 * 10009, 10009), (-1, 2 * 10009, 1), (-3 * 10009, 2 * 10009, 1)])
@example(Fraction(1, 3), [(10009, 3 * 10037, 1), (-1, 3 * 10037, 10009), (1, 2, 1)])
def test_planted_square_values_match_oracle(c, terms):
    x, is_zero = _planted(c, terms)
    _check_against_oracle(x, is_zero)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    st.lists(
        st.tuples(
            st.integers(min_value=-30, max_value=30).filter(bool),
            st.sampled_from(_KERNELS),
            st.sampled_from([10007, 10009, 10061]),
        ),
        min_size=1,
        max_size=2,
    ),
)
def test_zero_from_non_canonical_copy(c, terms):
    # x' holds coef*sqrt(p^2*k) where x holds coef*p*sqrt(k): x - x' is 0
    # with up to four radicands, even when no term of it cancels structurally
    x = RadicalSum(c, [(coef * p, k) for coef, k, p in terms])
    x_ = RadicalSum(c, [(coef, p * p * k) for coef, k, p in terms])
    _check_against_oracle(x - x_, True)
    _check_against_oracle(x - x_ + x, x == RadicalSum(0))


def _pow(x, j):
    acc = RadicalSum(1)
    for _ in range(j):
        acc = acc * x
    return acc


# near the separation bound: the four conjugates of 2 - 3*sqrt(2) + sqrt(5)
# multiply to 1, so it is the reciprocal of the other three, about 1/152;
# sqrt(2) - 1 and sqrt(5) - 2 are units, for which (one radical term) the
# exponent 2^m - 1 = 1 is tight
_NEAR_EXTREMAL = [
    *(_pow(RadicalSum(2, [(-3, 2), (1, 5)]), j) for j in (1, 2, 3, 5, 8, 13, 20)),
    *(_pow(RadicalSum(-1, [(1, 2)]), j) for j in (1, 40, 150, 300)),
    *(_pow(RadicalSum(-2, [(1, 5)]), j) for j in (1, 100, 250)),
]


@pytest.mark.parametrize("x", _NEAR_EXTREMAL, ids=range(len(_NEAR_EXTREMAL)))
def test_zero_bits_interval_excludes_near_extremal_values(x):
    lo, hi = exact._interval(x._c, x._t, exact._zero_bits(x._c, x._t))
    assert lo > 0 or hi < 0
    _check_against_oracle(x, False)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=7), _planted_terms)
def test_zero_bits_interval_excludes_nonzero_values(c, terms):
    x, is_zero = _planted(c, terms)
    if x.is_rational or is_zero:
        return
    lo, hi = exact._interval(x._c, x._t, exact._zero_bits(x._c, x._t))
    assert lo > 0 or hi < 0


def test_sign_of_hidden_square_zero_needs_no_deep_interval(monkeypatch):
    n = 5 * 4010488**2 + 4  # 10007^2 * (n / 10007^2), left unsplit
    z = RadicalSum(0, [(1, n), (-10007, n // 10007**2)])
    seen = []
    interval = exact._interval

    def recording(c, terms, bits):
        seen.append(bits)
        return interval(c, terms, bits)

    monkeypatch.setattr(exact, "_interval", recording)
    assert z.sign() == 0
    assert seen and max(seen) <= 128


def test_radical_sum_is_immutable():
    r = RadicalSum(1, [(2, 3)])
    for name in ("c0", "terms", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        del r.den
    assert r == RadicalSum(1, [(2, 3)])
    assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r


def test_equal_values_share_one_dict_key():
    a = RadicalSum(Fraction(1, 2), [(1, 8)])  # 1/2 + 2 sqrt 2
    b = RadicalSum(0, [(2, 2)]) + Fraction(1, 2)
    table = {a: "first"}
    table[b] = "second"
    assert a == b and hash(a) == hash(b)
    assert table == {a: "second"}
    assert RadicalSum(0, [(1, 8), (-2, 2)]) in {RadicalSum(0): None}


# distinct primes, so the canonical form keeps every term as it is given
_PRIME_RADICANDS = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 10007, 10009]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(_PRIME_RADICANDS), min_size=5, max_size=6, unique=True),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6).filter(bool), min_size=6, max_size=6),
    st.integers(min_value=0, max_value=60),
    st.sampled_from([1, -1]),
)
def test_five_and_six_radical_values_match_oracle(rads, coefs, cancel, sign):
    # the constant takes off the sum's first cancel digits after the point,
    # so the value is below 10^-cancel and a large cancel needs rungs above
    # 64 bits
    x = RadicalSum(0, list(zip(coefs, rads)))
    with mpmath.workdps(120):
        c = Fraction(int(mpmath.floor(_as_mp(x) * 10**cancel)), 10**cancel)
    x = (x - c) * sign
    assert len(x.terms) == len(rads)
    _check_against_oracle(x, False)


# primes above 10^4: square_free_split leaves each p^2*r unsplit
_HIDDEN_PAIRS = [(10007, 10009), (10037, 10039), (10061, 10067)]


def test_six_radical_zero_hidden_from_the_canonical_form():
    # sqrt(p^2 r) - p sqrt(r) for each pair: six distinct radicands, value 0
    terms = [t for p, r in _HIDDEN_PAIRS for t in ((1, p * p * r), (-p, r))]
    zero = RadicalSum(0, terms)
    assert len(zero.terms) == 6
    start = time.perf_counter()
    assert zero.sign() == 0 and zero.decimal(50) == "0"
    assert time.perf_counter() - start < 1
    _check_against_oracle(zero, True)
    # without the last term the value is 10061*sqrt(10067)
    rest = RadicalSum(0, terms[:-1])
    assert len(rest.terms) == 5
    _check_against_oracle(rest, False)
    assert rest.decimal(50) == RadicalSum.sqrt(10067, 10061).decimal(50)


@pytest.mark.parametrize("significant", [0, -1])
def test_decimal_rejects_fewer_than_one_digit(significant):
    values = [RadicalSum(1, [(1, 2)]), RadicalSum(0, [(1, 2), (1, 3)]), RadicalSum(Fraction(1, 3))]
    for x in values + [RadicalSum(0)]:
        with pytest.raises(ValueError):
            x.decimal(significant)


def _mp_decimal(v: mpmath.mpf, significant: int) -> str:
    """Correctly rounded d.dd...e<exp> of an irrational v evaluated at high precision."""
    sign = "-" if v < 0 else ""
    a = abs(v)
    e = int(mpmath.floor(mpmath.log10(a)))
    if a < mpmath.mpf(10) ** e:
        e -= 1
    elif a >= mpmath.mpf(10) ** (e + 1):
        e += 1
    digits = int(mpmath.nint(a * mpmath.mpf(10) ** (significant - 1 - e)))
    if digits == 10**significant:
        digits //= 10
        e += 1
    ds = str(digits)
    mantissa = f"{ds[0]}.{ds[1:]}" if significant > 1 else ds
    return f"{sign}{mantissa}e{e:+03d}"


def test_deep_cancellation_margins_match_oracle():
    # refined_f margins at large depth: terms near 1 cancel down to about
    # 1/q_n^4, far below the precision at which each term is rounded
    x, spec = QuadSurd.make(3, 2, 5, 7), BoundSpec("refined_f", 2)
    records = verify_bound_scan(x, spec, 600)
    for n in (100, 300, 600):
        r = records[n]
        margin = direct_margin(x, spec, r.p, r.q)
        with mpmath.workdps(4 * len(str(r.q)) + 60):
            v = _as_mp(margin)
            assert abs(v) > mpmath.mpf(10) ** (-mpmath.mp.dps + 40)
            assert margin.sign() == r.margin_sign == (1 if v > 0 else -1)
            assert margin.decimal(50) == r.margin_decimal(50) == _mp_decimal(v, 50)


def _hidden_square_zero() -> RadicalSum:
    """sqrt(n) - 10007*sqrt(n/10007^2): zero, with n = 5*4010488^2 + 4 left unsplit."""
    n = 5 * 4010488**2 + 4
    return RadicalSum(0, [(1, n), (-10007, n // 10007**2)])


# R-lemma margins at depth 20, which cancel by up to 293 bits against their
# largest term at k = 100
_DEEP_R_MARGINS = [
    verify.check_lemma(verify.LemmaInstance(f"R{i}", k, {"depth": 20}))[1]
    for i in range(1, 6) for k in (3, 60, 100)
]


def _oracle_sign(c, terms):
    """The sign of c + sum n*sqrt(r) read off one interval at the separation
    bound, which excludes every nonzero value there."""
    lo, hi = exact._interval(c, terms, exact._zero_bits(c, terms))
    return 1 if lo > 0 else -1 if hi < 0 else 0


def _check_enclose(x, is_zero):
    # the numerator v = x*den, held in the integers _enclose takes
    c, terms, m = x._c, x._t, len(x._t)
    v, sign = x * x.den, _oracle_sign(c, terms)
    assert (sign == 0) == is_zero
    for need in (0, 1, 232, 400):
        enc = exact._enclose(c, terms, need)
        if is_zero:
            assert enc is None
            continue
        assert enc[0] == sign
        _, bits, lo, hi = enc
        scaled = v * sign * Fraction(2) ** bits  # |v|*2^bits
        assert (scaled - lo).sign() >= 0 and (hi - scaled).sign() >= 0
        assert hi - lo <= m + 1
        assert 2 * lo >= (1 << need) - 2 * (m + 1)  # lo >= 2^(need - 1) - m - 1


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    _planted_terms,
    st.sampled_from(["any", "positive", "negative"]),
)
@example(Fraction(0), [(10007, 10007, 1), (-1, 10007, 10007)], "any")
@example(Fraction(0), [(3, 2 * 10009, 10009), (2, 10, 1)], "positive")
@example(Fraction(0), [(3, 10007, 10007), (1, 2, 10061)], "negative")
def test_enclose_holds_the_value_to_the_bits_asked_for(c, terms, kind):
    # "positive": c = 0 and every term positive; "negative": c and every
    # term negative.  Both are one sign: one interval, whatever need is
    if kind != "any":
        s = 1 if kind == "positive" else -1
        c = 0 if kind == "positive" else -abs(c)
        terms = [(s * abs(coef), k, p) for coef, k, p in terms]
    _check_enclose(*_planted(c, terms))


@pytest.mark.parametrize(
    "x, is_zero",
    [(_hidden_square_zero(), True), (_hidden_square_zero() + Fraction(1, 3), False),
     *((x, False) for x in _NEAR_EXTREMAL), *((x, False) for x in _DEEP_R_MARGINS)],
)
def test_enclose_holds_hidden_squares_near_extremal_values_and_deep_margins(x, is_zero):
    _check_enclose(x, is_zero)


@pytest.mark.parametrize(
    "x",
    [RadicalSum(10**100, [(10**100, 2)]), RadicalSum(-(10**100), [(-(3**250), 7), (-1, 10**90 + 1)]),
     RadicalSum(Fraction(10**120, 7), [(Fraction(5**200, 3), 11)])],
)
def test_decimal_of_a_sum_of_one_sign_above_its_digits(x):
    # its one interval is taken at fewer than 0 bits
    _check_against_oracle(x, False)


def test_deep_r_margins_cancel_past_256_bits():
    def cancelled(x):
        _, bits, lo, _ = exact._enclose(x._c, x._t, 232)
        return exact._top(x._c, x._t) - (lo.bit_length() - bits)

    assert max(map(cancelled, _DEEP_R_MARGINS)) > 256


def _enclose_counting(c, terms, need):
    """_enclose(c, terms, need) and the number of intervals it took."""
    calls = []
    interval = exact._interval

    def recording(*args):
        calls.append(args)
        return interval(*args)

    exact._interval = recording
    try:
        return exact._enclose(c, terms, need), len(calls)
    finally:
        exact._interval = interval


def _rung_bound(c, terms, need):
    """The rungs 64*2^i from the first at or above need to the first at or
    above the separation bound, plus one."""
    bits, cap, rungs = 64, exact._zero_bits(c, terms), 1
    while bits < need:
        bits *= 2
    while bits < cap:
        bits, rungs = 2 * bits, rungs + 1
    return rungs + 1


@pytest.mark.parametrize("need", [0, 232])
def test_ladder_stays_within_its_rung_bound(need):
    # a zero ends on a rung, with no interval to top up its digits
    for x in [*_NEAR_EXTREMAL, _hidden_square_zero()]:
        enc, calls = _enclose_counting(x._c, x._t, need)
        assert 1 <= calls <= _rung_bound(x._c, x._t, need) - (enc is None)


@settings(max_examples=60, deadline=None)
@given(_planted_terms, st.sampled_from([0, 232]))
def test_ladder_stays_within_its_rung_bound_on_planted_zeros(terms, need):
    # sum coef*sqrt(p^2*k) minus sum coef*p*sqrt(k): zero, with no term
    # cancelling structurally when p > 10^4 stays hidden in the radicand
    x, is_zero = _planted(0, terms + [(-coef * p, k, 1) for coef, k, p in terms])
    assert is_zero
    enc, calls = _enclose_counting(x._c, x._t, need)
    assert enc is None and calls <= _rung_bound(x._c, x._t, need) - 1


@pytest.mark.parametrize(
    "q, significant, expected",
    [
        (Fraction(1, 4), 1, "2e-01"),
        (Fraction(-1, 4), 1, "-2e-01"),
        (Fraction(1, 8), 2, "1.2e-01"),
        (Fraction(3, 8), 2, "3.8e-01"),
        (Fraction(-3, 8), 2, "-3.8e-01"),
    ],
)
def test_decimal_of_rational_tie_held_with_radicals(q, significant, expected):
    # the value sits exactly on a rounding midpoint, which no interval excludes
    x = _hidden_square_zero() + q
    assert len(x.terms) == 2
    start = time.perf_counter()
    got = x.decimal(significant)
    assert time.perf_counter() - start < 1
    assert got == expected == RadicalSum(q).decimal(significant)



@pytest.mark.parametrize("below", [False, True])
def test_decimal_settles_adjacent_ends_by_the_exact_sign(monkeypatch, below):
    # ends forced one digit apart, with the correctly rounded string as the
    # upper or the lower end, are settled by the exact sign of the value
    # minus their midpoint, for either sign of the value
    # (a value with one radical takes exact rounding, with no ends to settle)
    values = [RadicalSum(0, [(1, 2), (-1, 3)]), RadicalSum(Fraction(1, 3), [(1, 5), (-2, 7)]),
              RadicalSum(0, [(Fraction(-2, 9), 7), (Fraction(1, 5), 11)]), RadicalSum(Fraction(-10, 7))]
    values += [-v for v in values]
    expected = [RadicalSum(v.c0, v.terms).decimal(50) for v in values]
    round_pair, settle, settled = exact._round_pair, exact._settle, []

    def adjacent(x, y, d, significant):
        e, a, _ = round_pair(x, y, d, significant)
        return (e, a - 1, a) if below else (e, a, a + 1)

    def recording(*args):
        settled.append(args)
        return settle(*args)

    monkeypatch.setattr(exact, "_round_pair", adjacent)
    monkeypatch.setattr(exact, "_settle", recording)
    assert [v.decimal(50) for v in values] == expected
    assert len(settled) == len(values)

@st.composite
def _one_radical_cases(draw):
    """(c, n, r, den, significant) of (c + n sqrt(r))/den with r not a
    square: anywhere, cancelling deeply (c within 3 of -n sqrt(r)), or at
    10^55 and above, past the digits asked for."""
    r = draw(st.integers(2, 10**12).filter(lambda r: isqrt(r) ** 2 != r))
    n = draw(st.integers(-(10**30), 10**30).filter(bool))
    kind = draw(st.sampled_from(["any", "cancel", "huge"]))
    if kind == "cancel":
        c = -isqrt(n * n * r) * (1 if n > 0 else -1) + draw(st.integers(-3, 3))
    elif kind == "huge":
        c = draw(st.sampled_from([1, -1])) * draw(st.integers(10**75, 10**90))
    else:
        c = draw(st.integers(-(10**40), 10**40))
    den = draw(st.one_of(st.integers(1, 9), st.integers(1, 10**20)))
    return c, n, r, den, draw(st.sampled_from([1, 2, 50]))


@settings(max_examples=300, deadline=None)
@given(_one_radical_cases(), st.integers(-(10**6), 10**6))
@example((-3, 2, 2, 1, 50), 1)  # 2 sqrt(2) - 3 = -1/(3 + 2 sqrt(2))
@example((0, 1, 99999999999, 1, 1), 5)  # sqrt(10^11 - 1) rounds up to 3e+05
@example((10**80, -1, 2, 1, 1), 7)
@example((3, -1, 2, 1, 50), 2)  # 3 - sqrt(2): a negative radical term
def test_one_radical_decimal_is_exactly_rounded(case, m):
    # the one-isqrt routine against mpmath at 150 digits past the
    # cancellation, and against the enclosure path, taken by the same value
    # with its radical split into two terms n - m and m over one radicand
    c, n, r, den, significant = case
    got = exact._surd_decimal(c, n, r, den, significant)
    assert exact._decimal(c, [(r, n)], den, significant) == got
    with mpmath.workdps(150 + 2 * len(str(abs(c) + abs(n) * r))):
        v = (c + n * mpmath.sqrt(r)) / den
        assert got == ((1 if v > 0 else -1), _mp_decimal(v, significant))
    m = m if m not in (0, n) else n + 1
    assert exact._decimal(c, [(r, n - m), (r, m)], den, significant) == got


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**15), st.integers(-(10**20), 10**20).filter(bool),
       st.integers(-(10**30), 10**30), st.integers(1, 10**20), st.sampled_from([1, 2, 50]))
def test_one_radical_over_a_square_takes_the_enclosure(s, n, c, den, significant):
    # (c + n sqrt(s^2))/den is rational, zero too: today's path rounds it
    # half to even, with no call to the one-isqrt routine
    x = Fraction(c + n * s, den)
    want = (0, "0") if x == 0 else ((1 if x > 0 else -1), _fraction_decimal(x, significant))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_surd_decimal", None)
        assert exact._decimal(c, [(s * s, n)], den, significant) == want


def _fraction_decimal(x: Fraction, significant: int) -> str:
    """x rounded half to even to ``significant`` digits, in Fraction arithmetic."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    e = 0
    while x >= Fraction(10) ** (e + 1):
        e += 1
    while x < Fraction(10) ** e:
        e -= 1
    digits = round(x / Fraction(10) ** (e - significant + 1))  # round() of a Fraction is half-even
    if digits == 10**significant:
        digits //= 10
        e += 1
    ds = str(digits)
    mantissa = ds if significant == 1 else f"{ds[0]}.{ds[1:]}"
    return f"{sign}{mantissa}e{e:+03d}"


@st.composite
def _decimal_cases(draw):
    """(significant, x) with x anywhere, on an exact tie, or rounding up to a power of 10."""
    significant = draw(st.integers(min_value=1, max_value=60))
    scale = Fraction(10) ** draw(st.integers(min_value=-40, max_value=40))
    kind = draw(st.sampled_from(["any", "tie", "rollover"]))
    if kind == "any":
        x = Fraction(draw(st.integers(1, 10**70)), draw(st.integers(1, 10**70)))
    elif kind == "tie":
        digits = draw(st.integers(10 ** (significant - 1), 10**significant - 1))
        x = (digits + Fraction(1, 2)) * scale
    else:  # 10^s - 1/j rounds to 10^s; j = 2 is a tie that rounds up from an odd 99...9
        x = (10**significant - Fraction(1, draw(st.integers(2, 10**6)))) * scale
    return significant, draw(st.sampled_from([1, -1])) * x


@settings(max_examples=300, deadline=None)
@given(_decimal_cases())
@example((1, Fraction(1, 4)))
@example((1, Fraction(19, 2)))  # 9.5 -> 1e+01
@example((3, Fraction(-9995, 1000)))
@example((1, Fraction(25, 10)))  # a tie: 2.5 -> 2e+00
@example((2, Fraction(125 * 10**398)))  # a tie with its numerator far above 2^need -> 1.2e+400
@example((17, Fraction(10**400 + 7, 3)))
def test_decimal_rounds_half_to_even(case):
    significant, x = case
    expected = _fraction_decimal(x, significant)
    assert RadicalSum(x).decimal(significant) == expected
    # the same value held with two radicals that cancel, so an interval sees it
    assert (_hidden_square_zero() + x).decimal(significant) == expected


@st.composite
def _unreduced_forms(draw):
    """(significant, canonical, (c, terms, den)): one value as a canonical
    RadicalSum and as integers with a common factor f, each term
    n s sqrt(r) held unfolded as (s^2 r, n - m) plus (r, m s), so that
    radicands repeat; a tie puts the value on a rounding midpoint, with
    every term cancelled by (r, -n s)."""
    significant = draw(st.integers(min_value=1, max_value=40))
    drawn = draw(st.lists(
        st.tuples(st.integers(2, 500), st.integers(-10**6, 10**6), st.integers(1, 40),
                  st.integers(-10**6, 10**6)),
        min_size=1, max_size=2,
    ))
    if draw(st.booleans()):  # a tie: (digits + 1/2) 10^e, radicals cancelling
        digits = draw(st.integers(10 ** (significant - 1), 10**significant - 1))
        x = (2 * digits + 1) * Fraction(10) ** draw(st.integers(-20, 20)) / 2
        x *= draw(st.sampled_from([1, -1]))
        c, den, cancel = x.numerator, x.denominator, True
    else:
        c, den, cancel = draw(st.integers(-10**40, 10**40)), draw(st.integers(1, 10**40)), False
    exact_terms, terms = [], []
    for r, n, sq, m in drawn:
        exact_terms.append((r, n * sq))
        terms += [(sq * sq * r, n - m), (r, m * sq)]
        if cancel:
            exact_terms.append((r, -n * sq))
            terms.append((r, -n * sq))
    f = draw(st.integers(1, 10**6))
    unreduced = (f * c, [(r, f * n) for r, n in terms], f * den)
    return significant, exact._radical(c, exact_terms, den), unreduced


@settings(max_examples=150, deadline=None)
@given(_unreduced_forms())
def test_decimal_of_unreduced_integers_equals_the_canonical_decimal(case):
    significant, canonical, (c, terms, den) = case
    for s in (1, -1):
        got = exact._decimal(s * c, [(r, s * n) for r, n in terms], den, significant)
        assert got == ((canonical * s).sign(), (canonical * s).decimal(significant))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**53), max_value=2**53).filter(bool),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=60),
)
@example(1, -2, 1)  # 0.25 -> 2e-01
def test_decimal_matches_float_formatting(m, j, significant):
    # every binary64 value is a dyadic rational that Python formats correctly rounded
    x = m * Fraction(2) ** j
    assert RadicalSum(x).decimal(significant) == format(float(x), f".{significant - 1}e")


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.lists(
        st.tuples(
            st.fractions(min_value=-20, max_value=20, max_denominator=1000),
            st.integers(min_value=2, max_value=500),
        ),
        max_size=4,
    ),
)
def test_sign_and_decimal_agree_in_either_order_and_on_copies(c0, terms):
    with mpmath.workdps(300):
        v = _as_mp(RadicalSum(c0, terms))
        if abs(v) < mpmath.mpf(10) ** -250:
            sign, dec = 0, "0"
        else:
            sign, dec = (1 if v > 0 else -1), _mp_decimal(v, 50)
    first_sign = RadicalSum(c0, terms)
    assert first_sign.sign() == sign and first_sign.decimal(50) == dec
    first_decimal = RadicalSum(c0, terms)
    assert first_decimal.decimal(50) == dec and first_decimal.sign() == sign
    # copies hold the value and stay equal to the original
    for fresh in (copy.deepcopy(first_sign), pickle.loads(pickle.dumps(first_decimal))):
        assert fresh == first_sign and hash(fresh) == hash(first_sign)
        assert fresh.decimal(50) == dec and fresh.sign() == sign
    assert first_sign.sign() == sign and first_decimal.decimal(50) == dec


def test_verify_takes_one_enclosure_per_margin(monkeypatch):
    # a row decided by the scan's filter builds no RadicalSum and takes no
    # RadicalSum decimal: its sign and digits come from fixed-size
    # enclosures of g - T, g and T, so no isqrt operand of the scan or of the
    # rendering grows with depth
    calls = []
    decimal, assign = RadicalSum.decimal, RadicalSum._assign

    def recording_decimal(self, significant=50):
        calls.append("decimal")
        return decimal(self, significant)

    def recording_assign(self, *args):
        calls.append("construction")
        return assign(self, *args)

    argv = ["verify", "surd:(3+2*sqrt(7))/5", "--bound", "refined_f", "--k", "2", "--n", "200"]
    monkeypatch.setattr(RadicalSum, "decimal", recording_decimal)
    monkeypatch.setattr(RadicalSum, "_assign", recording_assign)
    assert main(argv, out=io.StringIO()) == 0
    widest = {}
    for n in (200, 1600):
        sizes = []
        for module in (exact, verify):
            monkeypatch.setattr(module, "isqrt", lambda v: sizes.append(v.bit_length()) or isqrt(v))
        records = verify_bound_scan(QuadSurd.make(3, 2, 5, 7), BoundSpec("refined_f", 2), n)
        for r in records:
            r.margin_decimal(50)
        for module in (exact, verify):
            monkeypatch.setattr(module, "isqrt", isqrt)
        widest[n] = max(sizes)
    monkeypatch.undo()
    assert calls == []
    assert widest[1600] <= widest[200] + 64


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-(2**10_000), max_value=2**10_000),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2**1000),
            st.integers(min_value=-(2**4000), max_value=2**4000),
        ),
        max_size=3,
    ),
    st.integers(min_value=-400, max_value=400),
)
def test_interval_at_any_bits_encloses_the_scaled_value(c, terms, bits):
    lo, hi = exact._interval(c, terms, bits)
    scale = Fraction(2) ** bits
    value = RadicalSum(c * scale, [(n * scale, r) for r, n in terms])
    assert (value - lo).sign() >= 0 and (hi - value).sign() >= 0
    assert hi - lo <= len(terms) + 1


_huge_fraction = st.builds(
    Fraction,
    st.integers(min_value=-(2**2000), max_value=2**2000),
    st.integers(min_value=1, max_value=2**2000),
)
_radical_sums = st.builds(
    RadicalSum,
    _huge_fraction,
    st.lists(st.tuples(_huge_fraction, st.integers(min_value=2, max_value=30)), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(_radical_sums, _radical_sums)
def test_structural_identities_with_huge_denominators(x, y):
    assert (x + y) - y == x
    assert x * y == y * x
    assert hash(x * y) == hash(y * x)
    assert -(-x) == x
    assert RadicalSum(x.c0, x.terms) == x
    assert hash(RadicalSum(x.c0, x.terms)) == hash(x)
    if x != RadicalSum(0):
        assert x * x.inverse() == RadicalSum(1)


# ---------------------------------------------------------------------------
# QuadSurd


def test_make_normalizes_canonical_form():
    x = QuadSurd.make(-2, 1, 2, 8)  # (-2 + 2 sqrt 2)/2 = -1 + sqrt 2
    assert (x.a, x.b, x.c, x.d) == (-1, 1, 1, 2)


def test_make_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QuadSurd.make(1, 1, 0, 2)


def test_rational_surd_folds_to_d_one():
    x = QuadSurd.make(3, 2, 6, 25)  # (3 + 2*5)/6
    assert x.is_rational and x.as_fraction() == Fraction(13, 6)


def test_mixed_field_arithmetic_raises():
    with pytest.raises(MixedFieldError):
        QuadSurd.make(0, 1, 1, 2) + QuadSurd.make(0, 1, 1, 3)


def test_surds_whose_radicands_differ_by_a_hidden_square_share_a_field():
    # square_free_split leaves 10007^2 inside 10007^2 * 20018, 20018 = 2*10009
    x, y = QuadSurd.make(0, 1, 1, 10007**2 * 20018), QuadSurd.make(0, 10007, 1, 20018)
    assert x.d == 10007**2 * 20018 and y.d == 20018
    assert x - y == QuadSurd.from_rational(0)
    assert x * y == QuadSurd.from_rational(10007**2 * 20018)
    assert (x + 1) / (y + 1) == QuadSurd.from_rational(1)
    assert x / (y + 3) - 1 == QuadSurd.from_rational(-3) / (y + 3)
    # equality compares representations, so the pair is unequal as objects
    assert x != y
    with pytest.raises(MixedFieldError):
        x + QuadSurd.make(0, 1, 1, 3 * 20018)


def test_floor_against_oracle(rng):
    for _ in range(300):
        x = make_random_surd(rng)
        mp_val = (mpmath.mpf(x.a) + x.b * mpmath.sqrt(x.d)) / x.c
        assert expand_surd(x).a0 == int(mpmath.floor(mp_val))


def test_field_axioms(rng):
    for _ in range(100):
        d = rng.choice([2, 3, 5, 7, 13])
        x = QuadSurd.make(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9), d)
        y = QuadSurd.make(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), d)
        assert ((x + y) - y - x).sign() == 0
        if y.sign() != 0:
            assert (x / y * y - x).sign() == 0


_surd_parts = st.tuples(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)


@settings(max_examples=200, deadline=None)
@given(_surd_parts, _surd_parts, st.sampled_from([2, 3, 5, 8, 12, 50, 10007 * 3]), _huge_fraction)
def test_surd_subtraction_equals_adding_the_negation(x, y, d, f):
    a, b = QuadSurd.make(*x, d), QuadSurd.make(*y, d)
    # equality compares a, b, c, d: field for field
    assert a - b == a + (-b)
    assert a - f == a + (-QuadSurd.from_rational(f))


@pytest.mark.parametrize(
    "x", [0, 1, -1, 7, -12, Fraction(0), Fraction(3, 4), Fraction(-5, 6), Fraction(10**30 + 1, 10**29)]
)
def test_from_rational_equals_make(x):
    f = Fraction(x)
    want = QuadSurd.make(f.numerator, 0, f.denominator, 1)
    assert QuadSurd.from_rational(x) == want
    # mixed arithmetic coerces its rational operand the same way
    s = QuadSurd.make(1, 1, 2, 5)
    assert s + x == s + want and x - s == want - s and s * x == s * want


def test_pow_matches_repeated_multiplication():
    x = QuadSurd.make(1, 1, 2, 5)
    acc = QuadSurd.make(1, 0, 1, 5)
    for n in range(6):
        assert (x**n - acc).sign() == 0
        acc = acc * x


@settings(max_examples=200, deadline=None)
@given(_surd_parts, st.sampled_from([2, 3, 5, 8, 12, 50, 10007 * 3]), _huge_fraction)
@example((0, 0, 7), 5, Fraction(2, 3))
@example((3, 0, 2), 8, Fraction(-5, 7))
def test_rational_over_a_surd_equals_dividing_its_surd(x, d, f):
    # f / t takes one make; QuadSurd.from_rational(f) / t divides two surds
    t = QuadSurd.make(*x, d)
    if t.sign() == 0:
        for r in (f, 1):
            with pytest.raises(ZeroDivisionError):
                r / t
    else:
        assert f / t == QuadSurd.from_rational(f) / t
        assert 3 / t == QuadSurd.from_rational(3) / t


def test_comparisons_are_exact():
    golden = QuadSurd.make(1, 1, 2, 5)
    assert golden > Fraction(161803, 100000)
    assert golden < Fraction(161804, 100000)
    assert not golden == Fraction(161803, 100000)
