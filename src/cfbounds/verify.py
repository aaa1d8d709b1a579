"""Theorem-verification harness.

Scans convergents against bounds with exact outcomes, classifies the
equality attainers, decides membership in F(k) (partial quotients all
<= k) and tail-equivalence, and certifies the individual inequalities
used in the proof of the refined bound as exact sign checks.

A scan decides each row's sign in tail form, as the sign of g(q_n) - T_n
with T_n = alpha_{n+1} + q_{n-1}/q_n, and builds no margin
|x - p_n/q_n| - 1/f(q_n).  A filter at a fixed precision of _B bits decides
it from integers whose size does not grow with q_n: the (P, Q) state of
alpha_{n+1}, the top bits of q_{n-1} and q_n, and a window of width
1/q_n^2 above g's limit g_inf, then g(q_n)'s own enclosure for the few rows
that meet the window.  Rows it cannot decide, the equality phases where
g - T_n is O(1/q_n^2), take an exact path (see :func:`verify_bound_scan`).
A row's digits come from the same enclosures, or from the exact path's
(see :meth:`VerificationRecord.margin_decimal`).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .bounds import BoundSpec, Outcome, bound_g, g_enclosure
from .cf import (
    NumberInput,
    alpha1,
    alpha2,
    _convergent_walk,
    _period_walk,
    _purely_periodic_value,
    _to_pqd,
    _value,
)
from .exact import MixedFieldError, QuadSurd, RadicalSum, _Frozen, square_free_split
from .exact import _enclose, _quotient_decimal, _radical, _sign, _tens

__all__ = [
    "NumberInput",
    "VerificationRecord",
    "LemmaInstance",
    "LEMMA_IDS",
    "verify_bound_scan",
    "is_in_F",
    "equivalent",
    "nathanson_applicable",
    "is_integer_translate",
    "classify_equality",
    "check_lemma",
    "f_monotone_check",
    "classical_window_check",
]


# (c, [(r, n), ...], den) stands for (c + sum n*sqrt(r))/den with den > 0
Surd = tuple[int, list[tuple[int, int]], int]

# a row's outcome, by the sign of its margin
_OUTCOMES = {-1: Outcome.HOLDS_STRICT, 0: Outcome.HOLDS_EQUAL, 1: Outcome.FAILS}

# bits of the scan's fixed-precision filter: every enclosure below is an
# integer times 2^-_B, and q enters through its top _B bits
_B = 320


class VerificationRecord(_Frozen):
    """Convergent n, p/q of a scan, and the sign of its margin
    |x - p/q| - 1/f(q) against the scan's bound.

    ``margin_sign`` is decided when the scan makes the record, and
    ``outcome`` is read off it.  The private tail holds what the margin
    (g - T)/(q^2 g T) is made of: the state (P, Q) of alpha_{n+1} and
    q_{n-1}, from which g and T are exact, and the filter's enclosures, from
    which :meth:`margin_decimal` renders most rows' digits.
    """

    # _tail is (enc, exact, spec, root, (P, Q), q_prev), data only, so a
    # record copies and pickles: enc = (tl, th) where the filter decided the
    # sign, with [tl, th] its enclosure of T*2^_B, which the row compares with
    # g(q)'s (:func:`bounds.g_enclosure` of spec) only if it prints digits;
    # else None, and exact = (W, g, T) of :func:`_exact_tail` decided the
    # sign, or the row is a rational's last convergent (exact None too).
    # alpha_{n+1} = (P + s sqrt(r))/Q for root = (s, r), or P/Q for a
    # rational (root None; Q = 0 past its last convergent).  It is left out
    # of repr, == and hash.
    __slots__ = ("n", "p", "q", "margin_sign", "_tail")

    def __init__(self, n: int, p: int, q: int, margin_sign: int, _tail: tuple):
        set_n, set_p, set_q, set_sign, set_tail = self._setters
        set_n(self, n)
        set_p(self, p)
        set_q(self, q)
        set_sign(self, margin_sign)
        set_tail(self, _tail)

    @property
    def outcome(self) -> Outcome:
        return _OUTCOMES[self.margin_sign]

    def margin_decimal(self, significant: int = 50) -> str:
        """The margin to ``significant`` digits, correctly rounded ("0" for
        a zero margin); ``significant`` < 1 raises ValueError.

        A row the filter decided is rendered from its enclosures, as
        |g - T|/(q^2 g T) with q^2 between qt^2 4^s and (qt + 1)^2 4^s, for
        qt = q >> s the top bits of q.  T's enclosure is the scan's; g(q)'s
        is taken here, since the scan decided most rows against g_inf's
        window without it (taking it again costs the few rows that the scan
        took it for at most two isqrt calls).  It lies inside that window
        (:func:`bounds.g_enclosure`), so it is apart from T's on the side
        that gave the sign, and |g - T| is enclosed away from 0.  That needs
        |g - T| to ``need + 3`` bits: g and T are at least 1 and enclosed
        within 5 units of 2^-_B, and qt has over _B bits, so each factor is
        known to a relative 2^-(_B - 3), and with _B >= need + 8 the
        quotient to 2^-(need - 3), a small part of a last-digit step.

        Other rows, and larger ``significant``, take the exact path: the
        margin is f W/(q^2 G T), with W, G and T the integer numerators of
        g - T, g and T (:func:`_exact_tail`; at a rational's last
        convergent W = -g.den and T = 1) and f = gcd(g.den, T.den), each
        enclosed to ``need`` bits of its own size by :func:`exact._enclose`:
        in one interval when its terms have one sign, as g's do, else by the
        ladder that the separation bound caps.  Ends that round to
        different strings are settled by the exact sign of f |W| - mid q^2 G
        T, a RadicalSum product with no division, for the midpoint ``mid``
        between them.
        """
        if significant < 1:
            raise ValueError("significant must be >= 1")
        sign = self.margin_sign
        if not sign:
            return "0"
        q = self.q
        enc, exact = self._tail[:2]
        need = _tens(significant)[1] + 64

        def side(mid: Fraction) -> int:
            # |margin| - mid has the sign of f |W| - mid q^2 G T
            (c, terms), g, t = exact or _exact_tail(q, *self._tail[2:])
            w, gn, tn = _radical(c, terms), _radical(*g[:2]), _radical(*t[:2])
            f = gcd(g[2], t[2])
            return (w * (sign * f * mid.denominator) - gn * tn * (mid.numerator * q * q)).sign()

        if enc is not None and need + 8 <= _B:
            tl, th = enc
            gl, gh = g_enclosure(self._tail[2], _B)(q)
            ml, mh = (gl - th, gh - tl) if sign > 0 else (tl - gh, th - gl)
            if (mh - ml) << (need + 3) <= ml:
                s = max(0, q.bit_length() - _B - 2)
                qt = q >> s
                qh = qt + (s > 0)
                lo, hi = (ml << _B, qh * qh * gh * th), (mh << _B, qt * qt * gl * tl)
                return _quotient_decimal(sign < 0, lo, hi, 2 * s, significant, side)
        (c, terms), g, t = exact or _exact_tail(q, *self._tail[2:])
        _, bw, wl, wh = _enclose(c, terms, need)
        _, bg, gl, gh = _enclose(g[0], g[1], need)
        _, bt, tl, th = _enclose(t[0], t[1], need)
        f, q2 = gcd(g[2], t[2]), q * q
        lo, hi = (f * wl, q2 * gh * th), (f * wh, q2 * gl * tl)
        return _quotient_decimal(sign < 0, lo, hi, bw - bg - bt, significant, side)


def verify_bound_scan(x: NumberInput, spec: BoundSpec, n_max: int) -> list[VerificationRecord]:
    """Exact outcome of |x - p_n/q_n| against the bound for n = 0..n_max.

    The threshold is 1/(q^2 g(q)) (:func:`bound_g`), and |x - p/q| =
    1/(q^2 T) with T = alpha_{n+1} + q_{n-1}/q_n, the tail of
    :func:`cf.error_identity`; so the margin (g - T)/(q^2 g T) has the sign
    of g - T, which is O(1).  x is not expanded: row n takes p_n, q_n,
    q_{n-1} and the state of alpha_{n+1} = (P + sqrt(D))/Q from
    :func:`cf._convergent_walk`, so the scan reads n_max + 2 states whatever
    x's period; a rational's states are its Euclid remainders, alpha = P/Q.
    Each sign is decided from integers whose size does not grow with q, a
    filter at _B bits with an exact fallback:

    * sqrt(D)*2^_B is enclosed once by isqrt, within one unit, and each
      row's alpha_{n+1}*2^_B, within 2 units, by a floor and a ceiling
      division (:func:`_alpha_enclosure`).
    * q_{n-1}/q_n*2^_B comes from the top bits of both: with s = bitlen(q) -
      _B - 2 > 0, qt = q >> s and pt = q_{n-1} >> s, the ratio lies in
      [pt/(qt + 1), (pt + 1)/qt], an interval of width at most 2/qt
      <= 2^-_B, so within 3 units of 2^-_B after the floor and ceiling;
      for smaller q, s = 0 and the one division is exact.
    * g(q)*2^_B is first placed in a window [L, H + 2^_B >> (2 bitlen(q) -
      2)], where (L, H) is :func:`bounds.g_enclosure`'s enclosure of
      g_inf*2^_B, taken once per scan: as q >= 2^(bitlen(q) - 1), the shift
      is at least floor(2^_B/q^2), so the window holds g_enclosure's
      [L, H + floor(2^_B/q^2)], and it costs no multiplication.

    So T*2^_B lies in [tl, th] with th - tl <= 5, and g - T > 0 when the
    window's low end is above th, < 0 when its high end is below tl.  That
    decides all but the rows whose T is within about 1/q^2 of g_inf (about
    one in a hundred of the first 31 rows of the benchmark's pool surds).
    Those compare [tl, th] with g(q)'s own enclosure [gl, gh], within 3
    units, which lies inside the window (:func:`bounds.g_enclosure`), so a
    row the window decides is decided by it too, with the same sign, when
    :meth:`VerificationRecord.margin_decimal` takes it to render the row.
    Where [gl, gh] and [tl, th] meet, the row takes the exact path:
    T = (q P + Q q_{n-1} + q sqrt(D))/(Q q) from the state, and
    g - T over a positive denominator, like radicands merged, is decided by
    :func:`exact._sign`: one comparison when it has at most one radical (the
    equality rows, where it has at most one), else the sign that the ladder
    of :func:`exact._enclose` finds, or proves zero.  A rational's last
    convergent, with error 0 and state Q = 0 after it, has the margin
    -1/(q^2 g); a rational scanned past it raises ValueError.
    """
    return [VerificationRecord(*row) for row in _scan(x, spec, n_max)]


def _scan(x: NumberInput, spec: BoundSpec, n_max: int):
    """The rows of :func:`verify_bound_scan`, each as the arguments
    (n, p, q, sign, tail) of its :class:`VerificationRecord`; a caller
    that reads only signs builds no record."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    value = _value(x)
    root, sd = None, 0
    if not isinstance(value, Fraction):
        d = _to_pqd(value)[2]
        root, sd = square_free_split(d), isqrt(d << 2 * _B)
    g_of = g_enclosure(spec, _B)
    one = 1 << _B
    g_lo, g_hi = g_of(one)  # g_inf*2^_B: q past g_of's cut
    for n, (p, q, q_prev, ap, aq) in zip(range(n_max + 1), _convergent_walk(value)):
        enc = exact = None
        if not aq:  # x = p/q: the error is 0 and the threshold positive
            sign = -1
        else:
            b = q.bit_length()
            if b <= _B + 2:  # s = 0: the division is exact
                rl = (q_prev << _B) // q
                rh = rl + 1
            else:
                s = b - _B - 2
                qt, pt = q >> s, q_prev >> s
                rl, rh = (pt << _B) // (qt + 1), ((pt + 1) << _B) // qt + 1
            al, ah = _alpha_enclosure(ap, aq, sd)
            tl, th = al + rl, ah + rh
            gl, gh = g_lo, g_hi + (one >> (2 * b - 2))
            if gl <= th and tl <= gh:  # T meets the window: enclose g(q) itself
                gl, gh = g_of(q)
            if gl > th:
                sign, enc = 1, (tl, th)
            elif gh < tl:
                sign, enc = -1, (tl, th)
            else:
                exact = _exact_tail(q, spec, root, (ap, aq), q_prev)
                sign = _sign(*exact[0])
        yield n, p, q, sign, (enc, exact, spec, root, (ap, aq), q_prev)


def _alpha_enclosure(p: int, q: int, sd: int) -> tuple[int, int]:
    """Integers lo <= (p + sqrt(D))/q * 2^_B <= hi, for q != 0 and
    sd = isqrt(D * 4^_B), so that p 2^_B + sqrt(D) 2^_B lies in [m, m + 1)
    for m = p 2^_B + sd."""
    m = (p << _B) + sd
    if q > 0:
        return m // q, -(-(m + 1) // q)
    return (m + 1) // q, -(-m // q)


def _exact_tail(q: int, spec: BoundSpec, root, state: tuple[int, int], q_prev: int) -> tuple:
    """(W, g, T) of a row, exactly: g = :func:`bound_g`, T = alpha_{n+1} +
    q_{n-1}/q as a Surd, and W = (c, terms) the integers of a positive
    multiple of g - T (:func:`_numerator`).  With alpha = (P + s sqrt(r))/Q,

        T = (q P + Q q_{n-1} + q s sqrt(r))/(Q q),

    negated above and below when Q < 0.  Past a rational's last convergent
    (Q = 0) the margin is -1/(q^2 g), which is W = -g.den over T = 1."""
    g = bound_g(spec, q)
    p, qq = state
    if not qq:
        return (-g[2], []), g, (1, [], 1)
    u = 1 if qq > 0 else -1
    terms = [(root[1], u * q * root[0])] if root else []
    t = (u * (q * p + qq * q_prev), terms, u * qq * q)
    return _numerator(g, t), g, t


def _numerator(g: Surd, t: Surd) -> tuple[int, list[tuple[int, int]]]:
    """Integers (c, [(r, n), ...]) of W = c + sum n*sqrt(r), a positive
    multiple of g - t: g and t over the least common denominator, like
    radicands merged."""
    gc, gt, gd = g
    tc, tt, td = t
    f = gcd(gd, td)
    gd, td = gd // f, td // f
    acc: dict[int, int] = {}
    for r, n in gt:
        acc[r] = acc.get(r, 0) + td * n
    for r, n in tt:
        acc[r] = acc.get(r, 0) - gd * n
    return td * gc - gd * tc, [(r, n) for r, n in acc.items() if n]


# ---------------------------------------------------------------------------
# membership / equivalence


def is_in_F(x: NumberInput, k: int) -> bool:
    """x in [0, 1] with every partial quotient <= k, read from
    :func:`cf._period_walk` up to the first digit > k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    value = _value(x)
    if value < 0 or value > 1:
        return False
    return all(a <= k for a, _ in _period_walk(value))


def equivalent(x: NumberInput, y: NumberInput) -> bool:
    """Tail coincidence: minimal periods equal up to rotation, compared by
    their least rotations (:func:`_least_rotation`); rationals are all
    pairwise equivalent (their tails terminate the same way, and their
    periods read from :func:`cf._period_walk` are empty)."""
    px, py = (tuple(a for a, periodic in _period_walk(_value(v)) if periodic) for v in (x, y))
    return _least_rotation(px) == _least_rotation(py)


def _least_rotation(s: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation of s, in O(len(s)) comparisons.

    Two candidate starts i != j are compared digit by digit.  If their
    rotations first differ k digits in, the one at i larger, then for each
    t <= k the rotation at i + t is larger than the one at j + t, so starts
    i..i + k are ruled out (likewise with i and j swapped).  A comparison
    either extends k or ends a run of k + 1 comparisons that rules out
    k + 1 starts, and i and j each pass at most len(s) starts."""
    n, i, j, k = len(s), 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[(i + k) % n], s[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    m = min(i, j)
    return s[m:] + s[:m]


def nathanson_applicable(x: NumberInput, k: int) -> bool:
    """True iff infinitely many partial quotients of x are >= k: for
    eventually periodic x, some period element is >= k, read from
    :func:`cf._period_walk` up to the first one.  Equivalently x is not
    equivalent to an element of F(k-1).  A rational x raises ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    value = _value(x)
    if isinstance(value, Fraction):
        raise ValueError("x must be irrational")
    return any(a >= k for a, periodic in _period_walk(value) if periodic)


def is_integer_translate(x: QuadSurd, y: QuadSurd) -> bool:
    """True iff x = y + t for some integer t."""
    try:
        diff = x - y
    except MixedFieldError:
        return False
    return diff.is_rational and diff.as_fraction().denominator == 1


def classify_equality(x: QuadSurd, k: int) -> str:
    """Which extremal family (if any) x is an integer translate of."""
    if is_integer_translate(x, alpha1(k)):
        return "alpha1"
    if is_integer_translate(x, alpha2(k)):
        return "alpha2"
    return "none"


# ---------------------------------------------------------------------------
# proof-case certificates


LEMMA_IDS = (
    "L0_limit",
    "L1_case1",
    "L2_caseH",
    "L3_odd_block",
    "L4_AB_margin",
    "R1",
    "R2",
    "R3",
    "R4",
    "R5",
)

_LEMMA_MIN_K = {"R2": 3, "R3": 2, "R4": 2, "R5": 2}


class LemmaInstance:
    """One proof-case inequality of :data:`LEMMA_IDS` at k, with its
    parameters (``depth``, ``q``); mutable, so unhashable."""

    __slots__ = ("lemma_id", "k", "params")

    def __init__(self, lemma_id: str, k: int, params: dict | None = None):
        if lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma {lemma_id!r}")
        if not _is_int(k):
            raise ValueError("k must be an integer")
        if k < _LEMMA_MIN_K.get(lemma_id, 1):
            raise ValueError(f"{lemma_id} requires k >= {_LEMMA_MIN_K.get(lemma_id, 1)}")
        self.lemma_id = lemma_id
        self.k = k
        self.params = {} if params is None else params

    def __eq__(self, other):
        if not isinstance(other, LemmaInstance):
            return NotImplemented
        return self.lemma_id == other.lemma_id and self.k == other.k and self.params == other.params

    def __repr__(self) -> str:
        return f"LemmaInstance(lemma_id={self.lemma_id!r}, k={self.k!r}, params={self.params!r})"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _starred_q(k: int, j: int) -> tuple[int, int]:
    """(q*_j, q*_{j-1}) for the convergents of [0; (k)]."""
    if j < 1:
        raise ValueError("depth must be >= 1")
    q0, q1 = 0, 1  # q_{-1}, q_0
    for _ in range(j):
        q0, q1 = q1, k * q1 + q0
    return q1, q0


def check_lemma(inst: LemmaInstance) -> tuple[bool, RadicalSum]:
    """Exact sign certificate for one proof-case inequality.

    Returns (holds, margin), where margin is the exact left-minus-right
    difference (scaled only by manifestly positive quantities) and holds
    means its sign is +1.  Each margin is written once in closed form, as
    integers (c, [(r, n), ...], den) that :func:`_radical` makes canonical,
    with d = k^2 + 4:

        L0_limit      ((d q^2 + 2) sqrt(d) - d q sqrt(d q^2 + 4))/(2d)
        L1_case1      (d (k + 2) - (d + 1) sqrt(d))/d
        L2_caseH      v - sqrt(d), v the limit of H below
        L3_odd_block  v - sqrt(d), v the odd-block limit below
        L4_AB_margin  (k^4 + 3k^2 + 1 - (k^3 + k) sqrt(d))/(k^3 + k)
        R1..R5        (d w (aY - b q1 d) + (d w (bY - a q1) - N) sqrt(d))/(d N)

    For R, the factor is a + b sqrt(d), w its weight, Y = k q1 + 2 q0 and
    N = Y^2 - q1^2 d = -4 (q1^2 - k q1 q0 - q0^2), nonzero for q1 >= 1.
    The checks that tie the closed forms to the paper's constructions still
    run: L2's and L3's v are built from continued fractions and compared
    with their closed forms as canonical QuadSurds, and L4's margin with its
    pre-squared display num/(s + sqrt(d)) through :meth:`RadicalSum.inverse`;
    a mismatch raises ArithmeticError (the CLI's exit 4).  The sign is
    :func:`_sign` of :func:`_lemma_row`'s integers; the CLI reads each row's
    sign and digits off one :func:`exact._decimal` of them instead.

    ``k`` (see :class:`LemmaInstance`) and R's ``depth`` must be integers,
    and L0's ``q`` and R's ``qstar = (q1, q0)`` denominators, integers with
    q >= 1, q1 >= 1 and q0 >= 0, else ValueError; a bool is not an integer.
    """
    lemma, params = inst.lemma_id, inst.params
    if lemma == "L0_limit":
        q = params.get("q", 1)
        if not _is_int(q) or q < 1:
            raise ValueError("q must be an integer >= 1")
    elif lemma[0] == "R":
        if not _is_int(params.get("depth", 1)):
            raise ValueError("depth must be an integer")
        if params.get("qstar"):
            q1, q0 = params["qstar"]
            if not (_is_int(q1) and _is_int(q0)) or q1 < 1 or q0 < 0:
                raise ValueError("qstar must be integers with q1 >= 1 and q0 >= 0")
    gated, c, terms, den = _lemma_row(lemma, inst.k, params)
    return _sign(c, terms) > 0 and not gated, _radical(c, terms, den)


def _lemma_row(lemma: str, k: int, params: dict) -> tuple[bool, int, list[tuple[int, int]], int]:
    """(gated, c, terms, den) of lemma at k: whether L4's A/B parameters
    failed their gate, and the unsigned margin (c + sum n*sqrt(r))/den, not
    made canonical; the instance holds when the margin is positive and it
    is not gated.  Its arguments are trusted to be what
    :func:`check_lemma` validates: a lemma of :data:`LEMMA_IDS`, an integer
    k that it admits, and well-typed parameters (R's depth below 1 still
    raises ValueError)."""
    d = k * k + 4
    gated = False  # L4's A/B parameters failed their gate

    if lemma == "L0_limit":
        # f(q) < q^2 sqrt(d) + 1/sqrt(d): the sqrt(1+x) < 1 + x/2 shortcut
        q = params.get("q", 1)
        margin = 0, [(d, d * q * q + 2), (d * q * q + 4, -d * q)], 2 * d
    elif lemma == "L1_case1":
        # k + 2 > sqrt(d) + 1/sqrt(d)
        margin = d * (k + 2), [(d, -(d + 1))], d
    elif lemma == "L2_caseH":
        # k + 1 + 2*[0;(k+1,1)] = (k^2 + k + sqrt(k^2+6k+5))/(k+1) > sqrt(d)
        v = 2 / _purely_periodic_value((k + 1, 1)) + (k + 1)
        if v != QuadSurd.make(k * k + k, 1, k + 1, k * k + 6 * k + 5):
            raise ArithmeticError("closed form for the limit of H does not match")
        margin = v.a, [(v.d, v.b), (d, -v.c)], v.c
    elif lemma == "L3_odd_block":
        # k + [0; k-1, k+1] + [0;(k)] = (k^3 + 2k + 2 + k^2 sqrt(d))/(2k^2) > sqrt(d)
        v = alpha1(k) + k + Fraction(k + 1, k * k)
        if v != QuadSurd.make(k**3 + 2 * k + 2, k * k, 2 * k * k, d):
            raise ArithmeticError("closed form for the odd-block limit does not match")
        # over v's one radicand: sqrt(d) = s sqrt(v.d)
        s = square_free_split(d)[0]
        margin = v.a, [(v.d, v.b - s * v.c)], v.c
    elif lemma == "L4_AB_margin":
        # num/(s + sqrt(d)) = s - sqrt(d) > 0 for s = k + 1/k + 1/(k + 1/k)
        # = (k^4 + 3k^2 + 1)/(k^3 + k) and num = 1/k^2 + 1/(k + 1/k)^2
        # = ((k^2 + 1)^2 + k^4)/(k^3 + k)^2; with s and num the numerators
        # over sd = k^3 + k and sd^2, the display is 1/((s sd + sd^2 sqrt(d))/num)
        e = k * k + 1
        s, sd = k**4 + 3 * k * k + 1, k * e
        displayed = _radical(s * sd, [(d, sd * sd)], e * e + k**4).inverse()
        margin = s, [(d, -sd)], sd
        if (displayed - _radical(*margin)).sign() != 0:
            raise ArithmeticError("pre-squared margin display does not match")
        gated = any(b + 1 / (k + b) <= Fraction(1, k) + 1 / (k + Fraction(1, k))
                    for b in (Fraction(params[n]) for n in ("A", "B") if n in params))
    else:
        # final reduction cases: displayed ratio > 1/sqrt(d), with starred
        # convergent denominators taken from [0;(k)]
        q1, q0 = params.get("qstar") or _starred_q(k, params.get("depth", 1))
        # factor (a, b) stands for a + b sqrt(d); the ratio
        # w (a + b sqrt(d))/(Y + q1 sqrt(d)) lies in Q(sqrt(d))
        if lemma == "R1":
            a, b, w = k + 2, -1, (k + 1) * q1 + q0
        elif lemma == "R2":
            a, b, w = 2 - k, 1, q1 + q0
        elif lemma == "R3":
            a, b, w = 2 - k, 1, (k - 1) * q1 + q0
        elif lemma == "R4":
            a, b, w = 1 - k, 1, (2 * k - 1) * q1 + 2 * q0
        else:
            a, b, w = -k, 1, (2 * k - 1) * q1 + 2 * q0
        y = k * q1 + 2 * q0
        n, dw = y * y - q1 * q1 * d, d * w
        if n < 0:  # the denominator d N must be positive
            n, dw = -n, -dw
        margin = dw * (a * y - b * q1 * d), [(d, dw * (b * y - a * q1) - n)], d * n

    return (gated, *margin)


def f_monotone_check(k: int, samples: int) -> bool:
    """Grid certificate that B + 1/(k+B) increases on (1/k, k+1]."""
    if k < 1 or samples < 1:
        raise ValueError("k and samples must be >= 1")
    lo = Fraction(1, k)
    step = (Fraction(k + 1) - lo) / samples
    floor_val = lo + 1 / (k + lo)
    prev = None
    for i in range(1, samples + 1):
        b = lo + i * step
        v = b + 1 / (k + b)
        if v <= floor_val or (prev is not None and v <= prev):
            return False
        prev = v
    return True


_WINDOW_RULES = {
    "vahlen_pairs": (BoundSpec("vahlen"), 2),
    "borel_triples": (BoundSpec("borel"), 3),
    "hancl_nair_triples": (BoundSpec("hancl_nair"), 3),
}


def classical_window_check(x: NumberInput, rule: str, n_max: int) -> bool:
    """Every window of consecutive convergents contains a strict witness.

    n_max must leave room for at least one window, or the verdict would be
    vacuously true; a smaller n_max raises ValueError.
    """
    if rule not in _WINDOW_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    spec, width = _WINDOW_RULES[rule]
    if n_max < width - 1:
        raise ValueError(f"{rule} needs n_max >= {width - 1} to check one window")
    value = _value(x)
    if isinstance(value, Fraction):
        raise ValueError("rule requires an irrational input")
    hits = [row[3] < 0 for row in _scan(value, spec, n_max)]
    return all(
        any(hits[i : i + width]) for i in range(0, n_max - width + 2)
    )
