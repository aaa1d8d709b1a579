"""Continued-fraction engine.

Expansion of rationals (Euclidean loop) and quadratic surds (period
detection on the reduced (P, Q) state), convergents by the standard
recurrences over the same states, exact tail values, the error identity

    |x - p_n/q_n| = 1 / (q_n^2 * ([a_{n+1}; a_{n+2}, ...] + [0; a_n, ..., a_1]))

checked against the direct difference, and the two extremal families

    alpha1(k) = (sqrt(k^2+4) - k)/2     = [0; (k)]
    alpha2(k) = (k + 2 - sqrt(k^2+4))/2 = [0; 1, k-1, (k)]   (k >= 2)

with their closed-form convergents.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import pairwise
from math import isqrt

from .exact import QuadSurd, RadicalSum, _Frozen

__all__ = [
    "CFExpansion",
    "Convergent",
    "IdentityMismatch",
    "expand_rational",
    "expand_surd",
    "convergents",
    "tail_value",
    "reversed_tail",
    "error_identity",
    "cf_value",
    "alpha1",
    "alpha2",
    "closed_form_pq",
]


class IdentityMismatch(ArithmeticError):
    """Two exact computations of the same quantity disagreed."""


class CFExpansion(_Frozen):
    """Canonical simple continued fraction [a0; head..., (period...)].

    ``period`` is None for finite (rational) expansions.  Finite expansions
    of length >= 2 never end in 1; periodic ones carry the minimal period
    and the shortest pre-period head.
    """

    __slots__ = ("a0", "head", "period")

    def __init__(self, a0: int, head: Iterable[int] = (), period: Iterable[int] | None = None):
        # stored as tuples, so that equal digits compare equal and hash
        head = tuple(head)
        if period is not None:
            period = tuple(period)
        if any(a < 1 for a in head):
            raise ValueError("partial quotients after a0 must be >= 1")
        if period is not None:
            if not period:
                raise ValueError("period must be nonempty")
            if any(a < 1 for a in period):
                raise ValueError("partial quotients in period must be >= 1")
        elif head and head[-1] == 1:
            raise ValueError("finite expansion must not end in 1")
        set_a0, set_head, set_period = self._setters
        set_a0(self, a0)
        set_head(self, head)
        set_period(self, period)

    @property
    def is_finite(self) -> bool:
        return self.period is None

    def __len__(self) -> int:
        """Number of digits of a finite expansion."""
        if not self.is_finite:
            raise ValueError("infinite expansion")
        return 1 + len(self.head)

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be >= 0")
        if i == 0:
            return self.a0
        if i <= len(self.head):
            return self.head[i - 1]
        if self.period is None:
            raise IndexError(f"finite expansion has {1 + len(self.head)} digits")
        return self.period[(i - len(self.head) - 1) % len(self.period)]

    def digits(self, count: int) -> list[int]:
        return [self.digit(i) for i in range(count)]

    def render(self) -> str:
        parts = ",".join(str(a) for a in self.head)
        if self.period is not None:
            per = "(" + ",".join(str(a) for a in self.period) + ")"
            parts = parts + "," + per if parts else per
        if not parts:
            return f"[{self.a0}]"
        return f"[{self.a0};{parts}]"

    def __repr__(self) -> str:
        return f"CFExpansion {self.render()}"


class Convergent(_Frozen):
    """n-th convergent p/q, indexed so that p0/q0 = a0/1."""

    __slots__ = ("n", "p", "q")

    def __init__(self, n: int, p: int, q: int):
        set_n, set_p, set_q = self._setters
        set_n(self, n)
        set_p(self, p)
        set_q(self, q)

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


NumberInput = int | Fraction | QuadSurd | CFExpansion


def expand_rational(x: Fraction | int) -> CFExpansion:
    """Finite expansion of a rational; last digit != 1 when length >= 2."""
    return _finite([a for _, _, a in _rational_walk(Fraction(x))])


def _rational_walk(f: Fraction) -> Iterator[tuple[int, int, int]]:
    """(r_{i-1}, r_i, a_i) for i = 0..m: the Euclid remainders of f =
    [a_0; a_1, ..., a_m] as the states of its complete quotients x_i =
    r_{i-1}/r_i, from r_{-1}, r_0 = numerator, denominator to r_{m+1} = 0.
    The last digit is >= 2 when m >= 1, so the expansion is canonical."""
    num, den = f.numerator, f.denominator
    while den:
        a = num // den
        yield num, den, a
        num, den = den, num - a * den


def _finite(digits: list[int]) -> CFExpansion:
    """Canonical expansion [d0; d1, ...] of digits with d_i >= 1 for i >= 1:
    a trailing 1 folds into the digit before it."""
    if len(digits) > 1 and digits[-1] == 1:
        digits = [*digits[:-2], digits[-2] + 1]
    return CFExpansion(digits[0], digits[1:])


def _to_pqd(x: QuadSurd) -> tuple[int, int, int]:
    """Rewrite x as (P + sqrt(D))/Q with Q | D - P^2."""
    if x.b > 0:
        p, q, d = x.a, x.c, x.b * x.b * x.d
    else:
        p, q, d = -x.a, -x.c, x.b * x.b * x.d
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    return p, q, d


def expand_surd(x: QuadSurd) -> CFExpansion:
    """Canonical eventually periodic expansion of a quadratic irrational:
    the digits of :func:`_period_walk`, split into the shortest head and
    the minimal period.  It keeps no state but reads the whole period."""
    if x.is_rational:
        raise ValueError("rational input: use expand_rational")
    head, period = [], []
    for a, periodic in _period_walk(x):
        (period if periodic else head).append(a)
    return CFExpansion(head[0], head[1:], period)


def _surd_walk(p: int, q: int, d: int) -> Iterator[tuple[int, int, int]]:
    """(P_i, Q_i, a_i) for i = 0, 1, ..., without end: the complete quotient
    x_i = [a_i; a_{i+1}, ...] = (P_i + sqrt(d))/Q_i of an irrational x_0 =
    (p + sqrt(d))/q with q | d - p^2.  Q_i divides d - P_i^2, and Q_i > 0
    once the state is reduced; a head state may have Q_i < 0.

    P_{i+1} = a_i Q_i - P_i and Q_{i+1} = (d - P_{i+1}^2)/Q_i, which is
    Q_{i-1} + a_i (P_i - P_{i+1}): d - P_{i+1}^2 = Q_{i-1} Q_i + P_i^2 -
    P_{i+1}^2, and P_i + P_{i+1} = a_i Q_i.  With Q_{-1} = (d - p^2)/q the
    walk divides d once, not once per state."""
    s = isqrt(d)
    q_prev = (d - p * p) // q
    while True:
        a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
        yield p, q, a
        p, p_prev = a * q - p, p
        q, q_prev = q_prev + a * (p_prev - p), q


def _period_walk(x: Fraction | QuadSurd) -> Iterator[tuple[int, bool]]:
    """(a_i, in_period) for x's digits to the end of its first minimal period
    (a rational's digits, none in a period).  By Galois' theorem x_i =
    (P + sqrt(D))/Q, i >= 1, is purely periodic iff reduced; as x_i > 1,
    iff -1 < (P - sqrt(D))/Q < 0, i.e. P <= s < P + Q for s = isqrt(D).  The
    period starts at the first such x_i and ends when its state comes back."""
    if isinstance(x, Fraction):
        yield from ((a, False) for _, _, a in _rational_walk(x))
        return
    p, q, d = _to_pqd(x)
    s, start = isqrt(d), None
    for i, (p, q, a) in enumerate(_surd_walk(p, q, d)):
        if start is None:
            if i and p <= s < p + q:
                start = p, q
        elif start == (p, q):
            return
        yield a, start is not None


def _value(x: NumberInput) -> Fraction | QuadSurd:
    """Exact value of x, a Fraction or an irrational QuadSurd, not expanded."""
    if isinstance(x, CFExpansion):
        x = cf_value(x)
    if isinstance(x, QuadSurd):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def _convergent_walk(x: Fraction | QuadSurd) -> Iterator[tuple[int, int, int, int, int]]:
    """(p_n, q_n, q_{n-1}, P, Q) for n = 0, 1, ...: the convergents of an
    exact x by the standard recurrences over the states of :func:`_surd_walk`,
    and the state of x_{n+1} = (P + sqrt(D))/Q, so row n reads n + 2 states.
    A rational's states are its Euclid remainders, x_{n+1} = P/Q, with (1, 0)
    past its last digit; asking for a further row raises ValueError."""
    walk = [*_rational_walk(x), (1, 0, 0)] if isinstance(x, Fraction) else _surd_walk(*_to_pqd(x))
    p, p_prev, q, q_prev = 1, 0, 0, 1  # p_{-1}, p_{-2}, q_{-1}, q_{-2}
    for (_, _, a), (ap, aq, _) in pairwise(walk):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q, q_prev, ap, aq
    raise ValueError(f"expansion has only {len(walk) - 1} digits")


def convergents(x: NumberInput, n: int) -> list[Convergent]:
    """Convergents 0..n (inclusive) of an expansion or an exact value, read
    from :func:`_convergent_walk`, so x is not expanded; a rational with at
    most n digits raises ValueError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Convergent(i, p, q) for i, (p, q, *_) in zip(range(n + 1), _convergent_walk(_value(x)))]


def _purely_periodic_value(digits: tuple[int, ...]) -> QuadSurd:
    """Value of the purely periodic expansion [d0; d1, ..., (repeat)]."""
    # t satisfies t = (A t + B) / (C t + D) for the Moebius product below
    a, b, c, d = 1, 0, 0, 1
    for x in digits:
        a, b, c, d = a * x + b, a, c * x + d, c
    disc = (a - d) * (a - d) + 4 * b * c
    t = QuadSurd.make(a - d, 1, 2 * c, disc)
    if t.is_rational or not t > 1:
        raise IdentityMismatch("periodic tail failed its fixed-point equation")
    return t


def tail_value(cf: CFExpansion, n: int) -> QuadSurd:
    """Exact value of the tail [a_{n+1}; a_{n+2}, ...] (n >= -1)."""
    if cf.is_finite:
        raise ValueError("finite expansion has no irrational tail")
    assert cf.period is not None
    h, length = len(cf.head), len(cf.period)
    j = n + 1
    if j < 0:
        raise ValueError("index must be >= -1")
    if j >= h + 1:
        r = (j - h - 1) % length
        return _purely_periodic_value(cf.period[r:] + cf.period[:r])
    t = _purely_periodic_value(cf.period)
    for i in range(h, j - 1, -1):
        t = cf.digit(i) + 1 / t
    return t


def cf_value(cf: CFExpansion) -> Fraction | QuadSurd:
    """Exact value of an expansion (Fraction if finite, surd otherwise)."""
    if not cf.is_finite:
        return tail_value(cf, -1)
    v = Fraction(cf.digit(len(cf) - 1))
    for i in range(len(cf) - 2, -1, -1):
        v = cf.digit(i) + 1 / v
    return v


def reversed_tail(cf: CFExpansion, n: int) -> Fraction:
    """Exact value of [0; a_n, a_{n-1}, ..., a_1]; zero when n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if cf.is_finite and n >= len(cf):
        raise ValueError(f"expansion has only {len(cf)} digits")
    v = Fraction(0)
    for i in range(1, n + 1):
        v = 1 / (cf.digit(i) + v)
    return v


def _error_term(value: Fraction | QuadSurd, p: int, q: int) -> RadicalSum:
    if isinstance(value, Fraction):
        return RadicalSum(abs(value - Fraction(p, q)))
    # (a + b sqrt(d))/c - p/q = (aq - pc + bq sqrt(d))/(cq)
    err = RadicalSum._make(value.a * q - p * value.c, [(value.d, value.b * q)], value.c * q)
    return -err if err.sign() < 0 else err


def error_identity(x: QuadSurd, cf: CFExpansion, n: int) -> RadicalSum:
    """|x - p_n/q_n| computed directly from x's integers, and via the tail
    identity 1/(q_n^2 (alpha_{n+1} + q_{n-1}/q_n)), on which a scan row's
    sign and digits rest.

    Both routes are evaluated exactly; a mismatch raises
    :class:`IdentityMismatch`.
    """
    conv = convergents(cf, n)[-1]
    direct = _error_term(x, conv.p, conv.q)
    denom = (tail_value(cf, n) + reversed_tail(cf, n)) * (conv.q * conv.q)
    via_tail = (1 / denom).to_radical()
    if (direct - via_tail).sign() != 0:
        raise IdentityMismatch(f"error identity failed at n={n} for {x!r}")
    return direct


def alpha1(k: int) -> QuadSurd:
    """(sqrt(k^2+4) - k)/2, the purely periodic [0; (k)]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return QuadSurd.make(-k, 1, 2, k * k + 4)


def alpha2(k: int) -> QuadSurd:
    """(k + 2 - sqrt(k^2+4))/2, i.e. [0; 1, k-1, (k)] for k >= 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return QuadSurd.make(k + 2, -1, 2, k * k + 4)


def closed_form_pq(k: int, n: int, family: str) -> tuple[int, int]:
    """Closed-form convergent (p_n, q_n) for alpha1(k) or alpha2(k).

    Evaluates the Binet-style displays in Q(sqrt(k^2+4)) -- powers of
    (k + sqrt(k^2+4))/2 and (k - sqrt(k^2+4))/2 -- and checks that the
    irrational parts cancel before returning integers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if family not in ("alpha1", "alpha2"):
        raise ValueError(f"unknown family {family!r}")
    if family == "alpha2" and k < 2:
        # alpha2(1) = [0;2,(1)] does not follow the [0;1,k-1,(k)] digit
        # pattern the alpha2 closed form encodes
        raise ValueError("alpha2 closed form requires k >= 2")
    dd = k * k + 4
    if family == "alpha1":
        if n < 0:
            raise ValueError("n must be >= 0 for family alpha1")
        e = n
    else:
        if n < 1:
            raise ValueError("n must be >= 1 for family alpha2")
        e = n - 1
    b1 = QuadSurd.make(k, 1, 2, dd) ** e   # 2/(sqrt(dd)-k), raised
    b2 = QuadSurd.make(k, -1, 2, dd) ** e  # -2/(sqrt(dd)+k), raised
    qcoef1 = QuadSurd.make(dd, k, 2 * dd, dd)
    qcoef2 = QuadSurd.make(dd, -k, 2 * dd, dd)
    qv = qcoef1 * b1 + qcoef2 * b2
    if family == "alpha1":
        pv = QuadSurd.make(0, 1, dd, dd) * (b1 - b2)
    else:
        pv = QuadSurd.make(dd, k - 2, 2 * dd, dd) * b1 + QuadSurd.make(
            dd, 2 - k, 2 * dd, dd
        ) * b2
    for v in (pv, qv):
        if not v.is_rational or v.as_fraction().denominator != 1:
            raise IdentityMismatch("closed form did not collapse to an integer")
    return int(pv.as_fraction()), int(qv.as_fraction())
