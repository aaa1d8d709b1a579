"""Unit tests for the theorem-verification harness."""
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import isqrt
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds import cf, exact, verify
from cfbounds.bounds import BoundSpec, Outcome, f_value
from cfbounds.cf import CFExpansion, alpha1, alpha2, convergents, expand_rational, expand_surd
from cfbounds.cf import _error_term, _purely_periodic_value
from cfbounds.exact import QuadSurd, RadicalSum, _sign
from cfbounds.cli import main
from cfbounds.specparse import parse_number, render
from cfbounds.verify import (
    LEMMA_IDS,
    LemmaInstance,
    VerificationRecord,
    check_lemma,
    classical_window_check,
    classify_equality,
    equivalent,
    f_monotone_check,
    is_in_F,
    is_integer_translate,
    nathanson_applicable,
    verify_bound_scan,
    _LEMMA_MIN_K,
)
from conftest import direct_margin, make_random_surd, recording_g_enclosure

GOLDEN = QuadSurd.make(1, 1, 2, 5)


def _outcomes(x, spec, n):
    return {r.n: r.outcome for r in verify_bound_scan(x, spec, n)}


# ---------------------------------------------------------------------------
# scans


def test_alpha1_equality_parity():
    out = _outcomes(alpha1(1), BoundSpec("refined_f", 1), 9)
    assert all(out[n] is Outcome.HOLDS_EQUAL for n in range(1, 10, 2))
    assert all(out[n] is Outcome.FAILS for n in range(2, 10, 2))


def test_alpha2_equality_parity():
    out = _outcomes(alpha2(2), BoundSpec("refined_f", 2), 9)
    assert all(out[n] is Outcome.HOLDS_EQUAL for n in range(2, 10, 2))
    assert all(out[n] is Outcome.FAILS for n in range(3, 10, 2))


def test_integer_shift_preserves_outcomes():
    spec = BoundSpec("refined_f", 2)
    base = _outcomes(alpha1(2), spec, 9)
    shifted = _outcomes(alpha1(2) + 1, spec, 9)
    assert base == shifted


def test_rational_scan_is_allowed_for_plumbing():
    recs = verify_bound_scan(Fraction(10, 7), BoundSpec("dirichlet"), 2)
    assert [r.n for r in recs] == [0, 1, 2]
    # last convergent hits the number exactly: error 0 < 1/q^2
    assert recs[-1].outcome is Outcome.HOLDS_STRICT


# ---------------------------------------------------------------------------
# signs and digits from the tail form against the margin built directly

_ALL_SPECS = [
    BoundSpec(kind) for kind in ("dirichlet", "hurwitz", "hancl_g", "vahlen", "borel", "hancl_nair")
] + [BoundSpec(kind, k) for kind in ("nathanson", "refined_f") for k in (1, 2, 3)]


def _tail_equals_direct(x, spec, n):
    """Every record's sign and digits are those of |x - p/q| minus the
    threshold, built directly and canonically."""
    records = verify_bound_scan(x, spec, n)
    for r in records:
        direct = direct_margin(x, spec, r.p, r.q)
        assert r.margin_sign == direct.sign(), (x, spec, r.n)
        assert r.margin_decimal(50) == direct.decimal(50), (x, spec, r.n)
    return records


# the filter's g(q) is constant once q > 2^(_B/2 + 1)
_CONSTANT_G = verify._B // 2 + 1

# heads whose second state (P, Q) has Q < 0: alpha_1 = (P + sqrt(D))/Q with P < -sqrt(D)
_NEGATIVE_Q = [QuadSurd.make(-4, 1, 7, 2), QuadSurd.make(-5, 1, 7, 3)]


def _states(x, count: int) -> list[tuple[int, int, int]]:
    """The first ``count`` states (P, Q, a) of the walk from an irrational x."""
    return list(islice(cf._surd_walk(*cf._to_pqd(x)), count))


def _depth_past_constant_g(x) -> int:
    """A depth whose last rows have q > 2^(_B/2 + 1), with 20 rows to spare."""
    records = verify_bound_scan(x, BoundSpec("dirichlet"), 2000)
    return next(r.n for r in records if r.q.bit_length() > _CONSTANT_G) + 20


def test_tail_signs_equal_direct_signs_on_random_surds():
    rng = random.Random(2024)
    xs = [make_random_surd(rng, dmax=300) for _ in range(40)]
    assert all(_states(x, 2)[1][1] < 0 for x in _NEGATIVE_Q)
    for i, x in enumerate(xs + _NEGATIVE_Q):
        # every eighth surd, and those with Q < 0, reach the constant-g rows
        depth = _depth_past_constant_g(x) if i % 8 == 0 or i >= len(xs) else 60
        for spec in _ALL_SPECS:
            _tail_equals_direct(x, spec, depth)


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize(
    "x", [Fraction(10, 7), Fraction(355, 113), Fraction(-7, 2), Fraction(1, 2), Fraction(5, 2),
          Fraction(10**30 + 7, 10**29 + 3), Fraction(3),
          # [1; 1, ..., 1, 2]: its last rows have q > 2^(_B/2 + 1)
          Fraction(_fibonacci(301), _fibonacci(300))],
)
def test_tail_signs_equal_direct_signs_on_rationals(x):
    depth = len(expand_rational(x)) - 1
    for spec in _ALL_SPECS:
        records = _tail_equals_direct(x, spec, depth)
        assert records[-1].margin_sign == -1  # x = p/q: error 0 under a positive threshold
    # 1/2 = 0 + 1/2 meets vahlen's 1/(2 q^2) at q = 1 exactly
    if x == Fraction(1, 2):
        assert verify_bound_scan(x, BoundSpec("vahlen"), 1)[0].margin_sign == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tail_signs_equal_direct_signs_on_equality_families(k):
    translates = [alpha1(k) + t for t in (-3, 0, 2)]
    if k >= 2:
        translates += [alpha2(k) + t for t in (-3, 0, 2)]
    depth = _depth_past_constant_g(alpha1(k))
    for x in translates:
        for spec in (BoundSpec("refined_f", k), BoundSpec("nathanson", k), BoundSpec("hancl_g")):
            records = _tail_equals_direct(x, spec, depth)
            if spec.kind == "refined_f":
                first = 1 if classify_equality(x, k) == "alpha1" else 2
                zeros = [r.n for r in records if r.margin_sign == 0]
                assert zeros == list(range(first, depth + 1, 2))


@pytest.mark.parametrize("kind", ["hurwitz", "borel", "hancl_nair"])
def test_tail_signs_equal_direct_signs_where_g_minus_t_vanishes(kind):
    # T_n -> sqrt(5) along the golden ratio, so g - T_n -> 0 under hurwitz and
    # borel; g's sqrt(5) merges with x's own, and one comparison decides it
    _tail_equals_direct(GOLDEN, BoundSpec(kind), 100)


def test_rows_the_filter_leaves_undecided_take_the_exact_path(monkeypatch):
    # an enclosure of alpha too wide to decide anything sends every row to the
    # exact sign of g - T, with T from the (P, Q) state, and every digit string
    # to the exact enclosures of W, G and T
    signs = []
    sign = RadicalSum.sign
    monkeypatch.setattr(verify, "_alpha_enclosure", lambda p, q, sd: (-(1 << 900), 1 << 900))
    monkeypatch.setattr(RadicalSum, "sign", lambda self: signs.append(1) or sign(self))
    cases = [(QuadSurd.make(3, 2, 5, 7), BoundSpec("refined_f", 2), 40), (GOLDEN, BoundSpec("hancl_nair"), 30),
             (_NEGATIVE_Q[0], BoundSpec("hurwitz"), 30), (Fraction(355, 113), BoundSpec("vahlen"), 2)]
    undecided = []
    for x, spec, n in cases:
        records = verify_bound_scan(x, spec, n)
        # past a rational's last convergent (Q = 0) the margin is -1/(q^2 g)
        undecided += [r._tail[0] is None for r in records if r._tail[4][1]]
        for r in records:
            direct = direct_margin(x, spec, r.p, r.q)
            assert r.margin_sign == direct.sign() and r.margin_decimal(50) == direct.decimal(50)
    # hancl_nair's sqrt(61) leaves two radicals on the golden ratio's rows
    assert all(undecided) and len(signs) > 31


def _equality_translates() -> list[QuadSurd]:
    xs = [alpha1(k) + t for k in (1, 2, 3) for t in (-3, 0, 2)]
    return xs + [alpha2(k) + t for k in (2, 3) for t in (-3, 0, 2)]


def test_scan_signs_equal_the_exact_signs_of_g_minus_t():
    # the filter, against g_inf's window and then g(q) itself, gives every
    # row the exact sign of the numerator W of g - T
    for x in _pool_surds() + _NEGATIVE_Q + _equality_translates():
        for spec in _ALL_SPECS:
            for r in verify_bound_scan(x, spec, 40):
                assert r.margin_sign == _sign(*verify._exact_tail(r.q, *r._tail[2:])[0]), (x, spec, r.n)


def test_rows_on_both_sides_of_the_top_bits_cut_take_the_exact_sign():
    # q_{n-1}/q_n is divided exactly while q has at most _B + 2 bits, and
    # from the top bits of both after; the rows on both sides of the cut
    # decide the exact sign of g - T
    cut = 1 << (verify._B + 2)
    for x, first in ((QuadSurd.make(3, 2, 5, 7), 218), (alpha1(2) + 1, 254)):
        for spec in (BoundSpec("refined_f", 2), BoundSpec("hancl_nair")):
            records = verify_bound_scan(x, spec, 260)
            assert [r.n for r in records if r.q >= cut][0] == first
            for r in records:
                assert r.margin_sign == _sign(*verify._exact_tail(r.q, *r._tail[2:])[0]), (x, spec, r.n)


def test_sign_readers_count_the_records_outcomes(tmp_path):
    # report and classical_window_check read only each row's sign, and build
    # no record; their counts and verdicts are those of the records
    surds = _pool_surds() + _NEGATIVE_Q + _equality_translates()
    xs = surds + [Fraction(355, 113), Fraction(-7, 3), Fraction(5)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(render(x) + "\n" for x in xs), encoding="utf-8")
    for spec in _ALL_SPECS:
        k = [] if spec.k is None else ["--k", str(spec.k)]
        buf = io.StringIO()
        assert main(["report", "--corpus", str(corpus), "--bound", spec.kind, *k, "--n", "30"], out=buf) in (0, 1)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(rows) == len(xs)
        for x, row in zip(xs, rows):
            depth = min(30, len(expand_rational(x)) - 1) if isinstance(x, Fraction) else 30
            counts = Counter(r.outcome for r in verify_bound_scan(x, spec, depth))
            got = [row["holds_strict"], row["holds_equal"], row["fails"]]
            assert got == [counts[o] for o in Outcome], (x, spec)
    for rule, (spec, width) in verify._WINDOW_RULES.items():
        for x in surds:
            hits = [r.outcome is Outcome.HOLDS_STRICT for r in verify_bound_scan(x, spec, 30)]
            want = all(any(hits[i : i + width]) for i in range(32 - width))
            assert classical_window_check(x, rule, 30) == want, (x, rule)


def test_rows_decided_against_g_inf_render_the_exact_paths_digits(monkeypatch):
    # a row whose T lies outside g_inf's window is decided without g(q); g(q)'s
    # own enclosure, taken when the row is rendered, lies inside the window
    # (bounds.g_enclosure), so it decides the same sign, and the digits are
    # those that the exact path renders
    calls = recording_g_enclosure(monkeypatch)
    first_rung = 0
    for x in _pool_surds()[:40] + _NEGATIVE_Q + [GOLDEN, alpha1(2) + 1]:
        for spec in (BoundSpec("refined_f", 1), BoundSpec("refined_f", 3), BoundSpec("hancl_g"),
                     BoundSpec("hancl_nair"), BoundSpec("hurwitz")):
            calls.clear()
            records = verify_bound_scan(x, spec, 40)
            tight = set(calls)
            for r in records:
                if r._tail[0] is None or r.q in tight:
                    continue
                first_rung += 1
                tl, th = r._tail[0]
                gl, gh = verify.g_enclosure(spec, verify._B)(r.q)
                assert gl > th if r.margin_sign > 0 else gh < tl, (x, spec, r.n)
                exact_path = VerificationRecord(r.n, r.p, r.q, r.margin_sign, (None, *r._tail[1:]))
                assert r.margin_decimal(50) == exact_path.margin_decimal(50), (x, spec, r.n)
    assert first_rung > 8000  # of the 9,430 rows


@pytest.mark.parametrize("significant", [0, -1])
def test_margin_decimal_rejects_fewer_than_one_digit(significant):
    records = verify_bound_scan(alpha1(2), BoundSpec("refined_f", 2), 6)
    assert {r.margin_sign for r in records} == {0, 1}
    for r in records:
        with pytest.raises(ValueError):
            r.margin_decimal(significant)


def test_margin_decimal_equals_the_canonical_margins_decimal():
    rng = random.Random(7)
    xs = [make_random_surd(rng, dmax=300) for _ in range(6)]
    xs += [GOLDEN, alpha1(2) + 1, Fraction(355, 113), *_NEGATIVE_Q]
    xs += [alpha1(3) + t for t in (-2, 0, 3)] + [alpha2(3) + t for t in (-2, 0, 3)]
    for x in xs:
        depth = len(expand_rational(x)) - 1 if isinstance(x, Fraction) else 40
        for spec in _ALL_SPECS:
            for r in verify_bound_scan(x, spec, depth):
                direct = direct_margin(x, spec, r.p, r.q)
                assert r.margin_decimal(50) == direct.decimal(50), (x, spec, r.n)
    # deep rows, where q has about 450 bits, and more digits than the filter
    # holds, which the exact path renders
    x = QuadSurd.make(3, 2, 5, 7)
    for spec in (BoundSpec("refined_f", 2), BoundSpec("hancl_nair")):
        for r in verify_bound_scan(x, spec, 300):
            direct = direct_margin(x, spec, r.p, r.q)
            assert r.margin_decimal(50) == direct.decimal(50), (spec, r.n)
            if r.n % 20 == 0:
                assert r.margin_decimal(90) == direct.decimal(90), (spec, r.n)


def test_tail_digits_are_rounded_from_an_enclosure_of_the_margin(monkeypatch):
    ends = []
    round_pair = exact._round_pair

    def recording(x, y, d, significant):
        ends.append((x, y, d))
        return round_pair(x, y, d, significant)

    monkeypatch.setattr(exact, "_round_pair", recording)
    x = QuadSurd.make(3, 2, 5, 7)
    for spec in (BoundSpec("refined_f", 2), BoundSpec("hancl_nair")):
        for r in verify_bound_scan(x, spec, 40):
            ends.clear()
            r.margin_decimal(50)
            ((lo, hi, d),) = ends
            size = direct_margin(x, spec, r.p, r.q) * r.margin_sign
            assert (size - Fraction(lo, d)).sign() >= 0 and (Fraction(hi, d) - size).sign() >= 0


def test_margin_decimal_defers_adjacent_ends_to_the_canonical_decimal(monkeypatch):
    # ends that round one digit apart leave the choice to the exact sign of
    # f |W| - mid q^2 G T, which finds the right string on either side of
    # the midpoint without rendering any RadicalSum
    records = [r for spec in (BoundSpec("refined_f", 2), BoundSpec("hancl_nair"))
               for x, n in ((QuadSurd.make(3, 2, 5, 7), 60), (Fraction(355, 113), 2))
               for r in verify_bound_scan(x, spec, n)]
    expected = [r.margin_decimal(50) for r in records]
    round_pair, decimal, sign = exact._round_pair, RadicalSum.decimal, RadicalSum.sign
    calls = {"decimal": 0, "sign": 0}

    def counting(name, fn):
        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(RadicalSum, "decimal", counting("decimal", decimal))
    monkeypatch.setattr(RadicalSum, "sign", counting("sign", sign))
    for below in (False, True):
        # below: the right digits a are the upper end of (a - 1, a); else the lower of (a, a + 1)
        def adjacent(x, y, d, significant):
            e, a, _ = round_pair(x, y, d, significant)
            return (e, a - 1, a) if below and a > 10 ** (significant - 1) else (e, a, a + 1)

        monkeypatch.setattr(exact, "_round_pair", adjacent)
        assert [r.margin_decimal(50) for r in records] == expected, below
    assert calls == {"decimal": 0, "sign": 2 * len(records)}


def _counting_walks(monkeypatch) -> list[int]:
    """Patch the (P, Q) walk to record how many states each walk yields."""
    counts = []
    walk = cf._surd_walk

    def counting(*args):
        counts.append(0)
        for state in walk(*args):
            counts[-1] += 1
            yield state

    monkeypatch.setattr(cf, "_surd_walk", counting)
    return counts


# sqrt(100000000000031) has a period of 6,300,568 states
_LONG_PERIOD = QuadSurd.make(0, 1, 1, 100000000000031)


@pytest.mark.parametrize("x", [*_NEGATIVE_Q, GOLDEN, alpha1(3), _LONG_PERIOD])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_scan_reads_n_plus_two_states_and_expands_nothing(monkeypatch, x, n):
    # rows 0..n need the states of x_0..x_{n+1}, whatever x's period
    expected = [(r.n, r.p, r.q, r.margin_sign) for r in verify_bound_scan(x, BoundSpec("hurwitz"), n)]
    counts = _counting_walks(monkeypatch)
    monkeypatch.delattr(cf, "expand_surd")  # the scan has no expansion to call
    records = verify_bound_scan(x, BoundSpec("hurwitz"), n)
    assert counts == [n + 2]
    assert [(r.n, r.p, r.q, r.margin_sign) for r in records] == expected
    # each row's alpha_{n+1} is the walk's state n + 1
    assert [r._tail[4] for r in records] == [(p, q) for p, q, _ in _states(x, n + 2)[1:]]


def test_scan_digits_and_convergents_are_the_expansions():
    # the walk's digits are expand_surd's, on Q < 0 heads and on the purely
    # periodic golden ratio, whose x_1 has x_0's state again
    assert _states(GOLDEN, 2)[0] == _states(GOLDEN, 2)[1]
    for x in [*_NEGATIVE_Q, GOLDEN, alpha1(3), alpha2(3) - 2]:
        expansion = expand_surd(x)
        assert [a for _, _, a in _states(x, 30)] == expansion.digits(30)
        records = verify_bound_scan(x, BoundSpec("dirichlet"), 28)
        assert [(r.p, r.q) for r in records] == [(c.p, c.q) for c in convergents(expansion, 28)]


def test_long_period_scans_equal_direct_margins():
    # the scan reads 22 of the 6,300,568 states; its convergents are those
    # of sqrt(N) from 300-digit floats, and its signs and digits those of
    # the margin built directly
    p, p_prev, q, q_prev = 1, 0, 0, 1
    pqs = []
    with mpmath.workdps(300):
        t = mpmath.sqrt(100000000000031)
        for _ in range(21):
            a = int(mpmath.floor(t))
            t = 1 / (t - a)
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
            pqs.append((p, q))
    for spec in (BoundSpec("hurwitz"), BoundSpec("refined_f", 1), BoundSpec("refined_f", 2),
                 BoundSpec("borel"), BoundSpec("hancl_nair")):
        records = _tail_equals_direct(_LONG_PERIOD, spec, 20)
        assert [(r.p, r.q) for r in records] == pqs


def test_nathanson_applicable_expands_nothing(monkeypatch):
    calls = []
    expand = cf.expand_surd
    monkeypatch.setattr(cf, "expand_surd", lambda x: calls.append(x) or expand(x))
    assert nathanson_applicable(_LONG_PERIOD, 1) and nathanson_applicable(alpha1(3), 1)
    assert nathanson_applicable(alpha1(3), 2) and not nathanson_applicable(alpha1(3), 4)
    assert calls == []
    for k in (1, 2):
        with pytest.raises(ValueError):
            nathanson_applicable(Fraction(1, 2), k)


def test_applicability_and_membership_stop_at_their_first_deciding_digit(monkeypatch):
    # sqrt(N)'s x_1 is reduced and a_1 = 645161: the first period digit
    # decides "some period digit >= k" for k <= 3, and "every digit <= 2"
    counts = _counting_walks(monkeypatch)
    for k in (1, 2, 3):
        assert nathanson_applicable(_LONG_PERIOD, k)
    assert not is_in_F(_LONG_PERIOD - 10**7, 2)
    assert len(counts) == 4 and max(counts) <= 3


def _division_walk(p: int, q: int, d: int):
    """Oracle for cf._surd_walk: the states (P, Q, a) of (p + sqrt(d))/q,
    each Q_{i+1} = (d - P_{i+1}^2)/Q_i by a full division."""
    s = isqrt(d)
    while True:
        a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
        yield p, q, a
        p = a * q - p
        q = (d - p * p) // q


def test_surd_walk_states_equal_the_division_walk():
    # Q_{i+1} = Q_{i-1} + a_i (P_i - P_{i+1}) against the division, state by
    # state, through heads with Q < 0 into the period
    rng = random.Random(21)
    xs = _pool_surds() + _NEGATIVE_Q + [GOLDEN, alpha2(3) - 2]
    xs += [make_random_surd(rng, dmax=10**6) for _ in range(400)]
    for x in xs:
        pqd = cf._to_pqd(x)
        assert list(islice(cf._surd_walk(*pqd), 60)) == list(islice(_division_walk(*pqd), 60)), x
    # a period of 2,000 under a radicand of about 2,800 bits
    period = (1,) * 1999 + (2,)
    x = cf.cf_value(CFExpansion(0, (), period))
    pqd = cf._to_pqd(x)
    assert list(islice(cf._surd_walk(*pqd), 2002)) == list(islice(_division_walk(*pqd), 2002))
    assert expand_surd(x) == CFExpansion(0, (), period)


def _seen_dict_expansion(x: QuadSurd) -> CFExpansion:
    """Oracle for expand_surd: the period starts at the first state seen
    twice (a0's own state is not recorded), found with a dict of every state
    of the division walk."""
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    for i, (p, q, a) in enumerate(_division_walk(*cf._to_pqd(x))):
        if (p, q) in seen:
            break
        if i:
            seen[p, q] = i
        digits.append(a)
    start = seen[p, q]
    return CFExpansion(digits[0], tuple(digits[1:start]), tuple(digits[start:]))


def _recurrence_pqs(expansion: CFExpansion, n: int) -> list[tuple[int, int]]:
    """Oracle for convergents: the standard recurrences over digits 0..n."""
    p, p_prev, q, q_prev = 1, 0, 0, 1
    pqs = []
    for a in expansion.digits(n + 1):
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        pqs.append((p, q))
    return pqs


def _pool_surds() -> list[QuadSurd]:
    pool = Path(__file__).resolve().parent.parent / "cfbench" / "data" / "corpus_pool.txt"
    return [parse_number(line).parsed for line in pool.read_text(encoding="utf-8").split()]


def test_reduced_state_periods_equal_the_seen_dict_periods():
    xs = _pool_surds()
    assert len(xs) == 600
    xs += [*_NEGATIVE_Q, GOLDEN, *(alpha1(k) for k in range(1, 12)), alpha2(3) - 2]
    for x in xs:
        expansion = _seen_dict_expansion(x)
        assert expand_surd(x) == expansion, x
        assert [(c.p, c.q) for c in convergents(x, 12)] == _recurrence_pqs(expansion, 12), x
    # the golden ratio is purely periodic from x_0 and alpha1(k) from x_1;
    # either way the period is read from x_1
    assert expand_surd(GOLDEN).render() == "[1;(1)]" and expand_surd(alpha1(5)).render() == "[0;(5)]"


# derandomized: a draw with a large c*d has a long period that the oracle
# walks in full, so random draws made this test take 3 s on one run, 20 s on
# the next
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-40, max_value=40).filter(bool),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=2, max_value=10**5),
)
def test_reduced_state_periods_equal_the_seen_dict_periods_on_drawn_surds(a, b, c, d):
    x = QuadSurd.make(a, b, c, d)
    if x.is_rational:
        return
    expansion = _seen_dict_expansion(x)
    assert expand_surd(x) == expansion
    assert [(conv.p, conv.q) for conv in convergents(x, 8)] == _recurrence_pqs(expansion, 8)


# ---------------------------------------------------------------------------
# membership, equivalence, applicability


@pytest.mark.parametrize(
    "x, k, expected",
    [
        (alpha1(1), 1, True),
        (alpha1(2), 1, False),
        (alpha1(2), 2, True),
        (Fraction(1, 2), 2, True),
        (Fraction(3, 2), 2, False),  # outside [0, 1]
    ],
)
def test_is_in_F(x, k, expected):
    assert is_in_F(x, k) is expected


def test_equivalent_examples():
    assert equivalent(alpha1(1), GOLDEN)
    assert equivalent(alpha1(2), alpha2(2))
    assert not equivalent(alpha1(1), alpha1(2))
    assert equivalent(Fraction(10, 7), Fraction(-3, 5))


def _rotation_equivalent(px: tuple, py: tuple) -> bool:
    """Oracle for equivalent's period comparison: some rotation of px is py."""
    return len(px) == len(py) and (not px or any(px[i:] + px[:i] == py for i in range(len(px))))


def test_least_rotations_compare_periods_like_the_rotation_loop():
    rng = random.Random(11)
    for _ in range(3000):
        px = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 9)))
        if px and rng.random() < 0.5:
            i = rng.randrange(len(px))
            py = px[i:] + px[:i]
        else:
            py = tuple(rng.randint(1, 3) for _ in range(rng.choice([len(px), rng.randint(0, 9)])))
        least = verify._least_rotation(px)
        assert least == min((px[i:] + px[:i] for i in range(len(px))), default=())
        assert (least == verify._least_rotation(py)) is _rotation_equivalent(px, py), (px, py)
    # two periods of 8,000 that are not rotations of each other, and a rotation
    px, py = (1,) * 7999 + (2,), (1,) * 7998 + (2, 2)
    assert verify._least_rotation(px) != verify._least_rotation(py)
    assert verify._least_rotation(px) == verify._least_rotation(px[3000:] + px[:3000])


def test_equivalent_compares_minimal_periods_like_the_rotation_loop():
    rng = random.Random(12)
    for _ in range(300):
        x, y = (cf.cf_value(CFExpansion(rng.randint(-3, 3), tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
                                        tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 6)))))
                for _ in range(2))
        assert equivalent(x, y) is _rotation_equivalent(expand_surd(x).period, expand_surd(y).period), (x, y)


def test_nathanson_applicable():
    assert nathanson_applicable(alpha1(3), 3)
    assert not nathanson_applicable(GOLDEN, 2)
    assert nathanson_applicable(GOLDEN, 1)
    mixed = CFExpansion(0, (3,), (1, 2))
    assert nathanson_applicable(mixed, 2)
    with pytest.raises(ValueError):
        nathanson_applicable(Fraction(1, 2), 2)


def test_applicability_matches_equivalence_formulation(rng):
    # applicable(x, k) == x not equivalent to anything with all quotients <= k-1,
    # checked by exhaustive period inspection
    for _ in range(100):
        x = make_random_surd(rng)
        cf = expand_surd(x)
        for k in (2, 3):
            expected = any(a >= k for a in cf.period)
            assert nathanson_applicable(x, k) is expected


def test_integer_translate_detection():
    assert is_integer_translate(alpha1(2) + 5, alpha1(2))
    assert not is_integer_translate(alpha1(2) + Fraction(1, 2), alpha1(2))
    assert not is_integer_translate(QuadSurd.make(0, 1, 1, 3), alpha1(2))


@pytest.mark.parametrize(
    "x, k, expected",
    [
        (alpha1(1), 1, "alpha1"),
        (alpha2(2) - 4, 2, "alpha2"),
        (QuadSurd.make(0, 1, 1, 2), 2, "alpha1"),  # sqrt2 = alpha1(2) + 1
        (QuadSurd.make(0, 1, 1, 3), 2, "none"),
    ],
)
def test_classify_equality(x, k, expected):
    assert classify_equality(x, k) == expected


# ---------------------------------------------------------------------------
# lemma certificates


def test_lemma_L1_k1_margin_value():
    holds, margin = check_lemma(LemmaInstance("L1_case1", 1))
    assert holds
    # margin = 3 - (6/5) sqrt 5
    assert (margin - (3 - Fraction(6, 5) * QuadSurd.make(0, 1, 1, 5)).to_radical()).sign() == 0


def test_lemma_L2_k1_closed_value():
    holds, margin = check_lemma(LemmaInstance("L2_caseH", 1))
    assert holds
    # 1 + sqrt3 - sqrt5 > 0
    from cfbounds.exact import RadicalSum

    assert (margin - RadicalSum(1, [(1, 3), (-1, 5)])).sign() == 0


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_lemmas_hold_at_small_k(lemma):
    k = {"R2": 3}.get(lemma, 2)
    params = {"depth": 2} if lemma.startswith("R") else {}
    holds, margin = check_lemma(LemmaInstance(lemma, k, params))
    assert holds and margin.sign() > 0


def test_lemma_minimum_k_enforced():
    with pytest.raises(ValueError):
        LemmaInstance("R2", 2)
    with pytest.raises(ValueError):
        LemmaInstance("nonsense", 1)


def test_R1_fails_at_k1_odd_depth():
    # the k = 1 instance of this case is genuinely false at odd depths:
    # the displayed ratio alternates around its limit
    for depth, expected in [(1, False), (2, True), (3, False), (4, True)]:
        holds, _ = check_lemma(LemmaInstance("R1", 1, {"depth": depth}))
        assert holds is expected


def test_R1_margin_sign_identity():
    # R1's margin has the sign of d A^2 - B^2 (see tests/test_acceptance.py);
    # that equals 4 k^2 N + 4 (k - 1) P with N = q1^2 - k q1 q0 - q0^2 = ±1
    # (Cassini) and P positive, so at k = 1 the sign is exactly that of N
    sp = pytest.importorskip("sympy")
    k, q1, q0 = sp.symbols("k q1 q0", positive=True)
    d = k**2 + 4
    a = (k**2 + 3 * k + 1) * q1 + (k + 2) * q0
    b = (k**3 + k**2 + 5 * k + 4) * q1 + (k**2 + 6) * q0
    n = q1**2 - k * q1 * q0 - q0**2
    p, rem = sp.div(sp.expand(d * a**2 - b**2 - 4 * k**2 * n), 4 * (k - 1), k)
    assert rem == 0
    coeffs = sp.Poly(p, k, q1, q0).coeffs()
    assert coeffs and all(c > 0 for c in coeffs)


def _R_margin_by_inverse(lemma: str, k: int, q1: int, q0: int) -> RadicalSum:
    # factor * weight / (k q1 + 2 q0 + q1 sqrt(d)) - 1/sqrt(d), rationalised
    # through RadicalSum.inverse as before the Q(sqrt(d)) closed form
    d = k * k + 4
    factor, weight = {
        "R1": (RadicalSum(k + 2, [(-1, d)]), (k + 1) * q1 + q0),
        "R2": (RadicalSum(2 - k, [(1, d)]), q1 + q0),
        "R3": (RadicalSum(2 - k, [(1, d)]), (k - 1) * q1 + q0),
        "R4": (RadicalSum(1 - k, [(1, d)]), (2 * k - 1) * q1 + 2 * q0),
        "R5": (RadicalSum(-k, [(1, d)]), (2 * k - 1) * q1 + 2 * q0),
    }[lemma]
    y = RadicalSum(k * q1 + 2 * q0, [(q1, d)])
    return factor * weight * y.inverse() - RadicalSum(0, [(Fraction(1, d), d)])


_R_LEMMAS = ("R1", "R2", "R3", "R4", "R5")


def test_R_margins_equal_inverse_route():
    # RadicalSum equality compares the integer fields, so this is field for field
    for k in range(1, 41):
        q0, q1 = 0, 1
        for depth in range(1, 13):
            q0, q1 = q1, k * q1 + q0  # starred convergents of [0;(k)]
            for lemma in _R_LEMMAS:
                if k < _LEMMA_MIN_K.get(lemma, 1):
                    continue
                _, margin = check_lemma(LemmaInstance(lemma, k, {"depth": depth}))
                assert margin == _R_margin_by_inverse(lemma, k, q1, q0), (lemma, k, depth)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_R_LEMMAS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=0, max_value=10**30),
)
def test_R_margins_equal_inverse_route_at_random_qstar(lemma, k, q1, q0):
    if k < _LEMMA_MIN_K.get(lemma, 1):
        return
    _, margin = check_lemma(LemmaInstance(lemma, k, {"qstar": (q1, q0)}))
    assert margin == _R_margin_by_inverse(lemma, k, q1, q0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-12, max_value=-1),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=-3, max_value=3),
)
def test_error_term_equals_radical_difference(a, b, c, d, n, shift):
    x = QuadSurd.make(a, b, c, d)
    if x.is_rational:
        return
    conv = convergents(expand_surd(x), n)[-1]
    p, q = conv.p + shift, conv.q  # the convergent and rationals near it
    diff = x.to_radical() - Fraction(p, q)
    assert _error_term(x, p, q) == (-diff if diff.sign() < 0 else diff)


def _L_margin_by_fractions(lemma: str, k: int, q: int = 1) -> RadicalSum:
    # the constructions through Fraction, QuadSurd and RadicalSum arithmetic
    # (and the paper's f for L0) that the integer closed forms replaced
    d = k * k + 4
    sqrt_d = RadicalSum.sqrt(d)
    if lemma == "L0_limit":
        return RadicalSum(0, [(q * q, d), (Fraction(1, d), d)]) - f_value(k, q)
    if lemma == "L1_case1":
        return RadicalSum(k + 2) - RadicalSum(0, [(1, d), (Fraction(1, d), d)])
    if lemma == "L2_caseH":
        v = 1 / _purely_periodic_value((k + 1, 1)) * 2 + (k + 1)
    elif lemma == "L3_odd_block":
        v = alpha1(k) + Fraction(k) + Fraction(k + 1, k * k)
    else:
        s = Fraction(k) + Fraction(1, k) + 1 / (Fraction(k) + Fraction(1, k))
        return RadicalSum(s) - sqrt_d
    return v.to_radical() - sqrt_d


def test_L_margins_equal_fraction_route():
    # RadicalSum equality compares the integer fields, so this is field for field
    for k in range(1, 1001):
        for lemma in ("L0_limit", "L1_case1", "L2_caseH", "L3_odd_block", "L4_AB_margin"):
            _, margin = check_lemma(LemmaInstance(lemma, k))
            assert margin == _L_margin_by_fractions(lemma, k), (lemma, k)


@pytest.mark.parametrize("q", [1, 2, 100, 1000])
def test_L0_margin_equals_f_value_route(q):
    for k in range(1, 1001):
        holds, margin = check_lemma(LemmaInstance("L0_limit", k, {"q": q}))
        assert holds and margin == _L_margin_by_fractions("L0_limit", k, q), k


@pytest.mark.parametrize(
    "lemma, params",
    [
        ("L0_limit", {"q": -1}),
        ("L0_limit", {"q": 0}),
        ("R1", {"qstar": (0, 0)}),
        ("R1", {"qstar": (0, 1)}),
        ("R4", {"qstar": (-3, 1)}),
        ("R1", {"qstar": (2, -1)}),
        # not integers, and a bool is not taken for one
        ("L0_limit", {"q": 2.5}),
        ("R1", {"depth": 2.9}),
        ("R1", {"depth": True}),
        ("R1", {"qstar": (2.0, 1)}),
    ],
)
def test_lemma_rejects_non_denominators(lemma, params):
    with pytest.raises(ValueError):
        check_lemma(LemmaInstance(lemma, 2, params))


@pytest.mark.parametrize("k", [2.5, 2.0, True])
@pytest.mark.parametrize(
    "lemma", ["L0_limit", "L1_case1", "L2_caseH", "L3_odd_block", "L4_AB_margin", "R1"]
)
def test_lemma_rejects_non_integer_k(lemma, k):
    # as for q, depth and qstar, a float or a bool is not taken for an integer k
    with pytest.raises(ValueError, match="k must be an integer"):
        LemmaInstance(lemma, k)


def test_L4_param_monotonicity_gate():
    holds, _ = check_lemma(LemmaInstance("L4_AB_margin", 2, {"A": Fraction(2, 3)}))
    assert holds
    # boundary value A = 1/k is excluded (the inequality needs A > 1/k)
    holds, _ = check_lemma(LemmaInstance("L4_AB_margin", 2, {"A": Fraction(1, 2)}))
    assert not holds


def test_f_monotone_check():
    assert f_monotone_check(1, 100)
    assert f_monotone_check(2, 100)
    assert f_monotone_check(3, 1)  # degenerate grid is vacuously fine


# ---------------------------------------------------------------------------
# classical windows


def test_borel_on_the_golden_ratio():
    assert classical_window_check(GOLDEN, "borel_triples", 30)


def test_vahlen_on_sqrt2():
    assert classical_window_check(QuadSurd.make(0, 1, 1, 2), "vahlen_pairs", 30)


def test_hancl_nair_on_sqrt61():
    assert classical_window_check(QuadSurd.make(0, 1, 1, 61), "hancl_nair_triples", 20)


def test_window_check_rejects_rationals():
    with pytest.raises(ValueError):
        classical_window_check(Fraction(1, 2), "borel_triples", 5)
