"""Exact arithmetic kernel: rationals, quadratic surds, radical sums.

Everything here is immutable and decided without floating point.  The
three value types:

* rationals -- ``fractions.Fraction`` (arbitrary precision, lowest terms);
* :class:`QuadSurd` -- (a + b*sqrt(d))/c with d squarefree, the field Q(sqrt(d));
* :class:`RadicalSum` -- a rational plus finitely many rational multiples of
  square roots of distinct non-square integers, held as integer numerators
  over one shared positive denominator.

The sign of a RadicalSum with one radical term is decided by one integer
comparison, and its decimal digits come from one ``isqrt``
(:func:`_surd_decimal`).  Every other sign and decimal digit comes from
one ladder, :func:`_enclose`, by integer directed rounding: with the value
scaled by its denominator and by 2^bits, every radical term is rounded
outward to neighbouring integers with ``isqrt``.  A sum whose terms all
have one sign takes one interval at the bits its digits need.  A
cancelling sum starts at the first rung 64*2^i at or above those bits,
jumps after a failed rung to the bit length of its largest term, and
doubles until the interval excludes zero or reaches the value's
separation bound (:func:`_zero_bits`; Burnikel, Funke, Mehlhorn, Schirra
and Schmitt, Algorithmica 55, 2009), where it proves the value zero; so
it takes at most the rungs up to that bound, plus one interval that tops
up the digits.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import attrgetter

__all__ = [
    "QuadSurd",
    "RadicalSum",
    "MixedFieldError",
    "UnsupportedExpressionError",
    "square_free_split",
]

Rational = int | Fraction


class MixedFieldError(ValueError):
    """Arithmetic attempted between surds lying in different quadratic fields."""


class UnsupportedExpressionError(ValueError):
    """A denominator that :meth:`RadicalSum.inverse` cannot rationalize."""


class _Frozen:
    """Base of the package's immutable value classes; it owns their ``==``,
    ``hash`` and ``repr``.

    A subclass lists its fields in ``__slots__`` and sets each once in
    ``__init__`` through ``_setters``, the slots' own setters in slot order
    (faster than ``object.__setattr__``).  Its key, :meth:`_key`, is
    the tuple of the slots not named with a leading underscore, read by one
    ``attrgetter`` that the class makes when it is defined: two
    instances are equal when they are of one class and their keys are
    equal, ``hash`` is the key's hash, and ``repr`` reads
    ``Name(field=value, ...)`` over the same slots.  Copy and pickle restore
    every slot, the private ones too.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [s for s in cls.__slots__ if s[0] != "_"]
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        cls._setters = tuple(cls.__dict__[s].__set__ for s in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots through __setattr__
        return _restore, (type(self), tuple(getattr(self, s) for s in self.__slots__))

    def _key(self) -> tuple:
        return self._fields(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__ if s[0] != "_")
        return f"{type(self).__name__}({fields})"


def _restore(cls: type, values: tuple) -> _Frozen:
    obj = object.__new__(cls)
    for set_slot, value in zip(cls._setters, values):
        set_slot(obj, value)
    return obj


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit) if flags[i]]


# one gcd with this product finds every prime below 10^4 that divides n
_PRIMORIAL = prod(_sieve(10_000))

_split_cache: dict[int, tuple[int, int]] = {}


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = s*s*k with k free of squares of primes below 10^4.

    Perfect squares are recognized at any size.  Otherwise each pass of a
    gcd ladder takes one power of each prime below 10^4 left in m (first n)
    out of m, sends those with no more power to k and the next power of the
    rest to s; what is left of m goes to s or k whole.  So a square p*p,
    p > 10^4, hidden in a non-square composite stays in k (for example
    5*4010488^2 + 4, a multiple of 10007^2).  That affects only equality and
    hashing, which compare representations; the sign of a RadicalSum stays
    exact, because its separation bound also holds for radicands that are
    not squarefree (see :func:`_zero_bits`).
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    cached = _split_cache.get(n)
    if cached is not None:
        return cached
    r = isqrt(n)
    if r * r == n:
        result = (r, 1)
    else:
        s, k, m, g = 1, 1, n, gcd(n, _PRIMORIAL)
        while g > 1:
            m //= g
            h = gcd(m, g)  # the primes of g with another power in m
            k, s, m = k * (g // h), s * h, m // h
            g = gcd(m, h)
        r = isqrt(m)
        if r * r == m:
            s *= r
        else:
            k *= m
        result = (s, k)
    if len(_split_cache) < 1 << 16:
        _split_cache[n] = result
    return result


def _sgn(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def _sign_surd(c: int, n: int, r: int) -> int:
    """Sign of c + n*sqrt(r), r >= 1: with opposite signs, compare c^2 with n^2*r."""
    if c == 0 or n == 0 or (c > 0) == (n > 0):
        return _sgn(c) or _sgn(n)
    return _sgn(c) * _sgn(c * c - n * n * r)


def _interval(c: int, terms: Iterable[tuple[int, int]], bits: int) -> tuple[int, int]:
    """Integers lo <= (c + sum n*sqrt(r))*2^bits <= hi, for integers r >= 1.

    Each term n*sqrt(r) is rounded outward to the integers around
    isqrt(n^2 * r * 4^bits), so the error is below one unit per term.  At
    negative ``bits`` c*2^bits and n^2 * r * 4^bits are floored first, so
    every ``isqrt`` operand has about 2 * (bits + bitlen(n*sqrt(r))) bits,
    and the interval is at most m + 1 units wide for m terms.
    """
    lo = c << bits if bits >= 0 else c >> -bits
    hi = lo + (bits < 0)
    for r, n in terms:
        sq = n * n * r
        s = isqrt(sq << 2 * bits if bits >= 0 else sq >> -2 * bits)
        if n > 0:
            lo += s
            hi += s + 1
        else:
            lo -= s + 1
            hi -= s
    return lo, hi


def _top(c: int, terms: list[tuple[int, int]] | tuple) -> int:
    """The larger of bitlen(c) and every term's bitlen(n) + ceil(bitlen(r)/2).

    |c| and every |n|*sqrt(r) lie below 2^top, and the largest of them is
    at least 2^(top - 2): |n|*sqrt(r) >= 2^(bitlen(n) - 1 + (bitlen(r) - 1)/2),
    and (bitlen(r) - 1)/2 >= ceil(bitlen(r)/2) - 1.
    """
    return max([c.bit_length()] + [n.bit_length() + (r.bit_length() + 1) // 2 for r, n in terms])


def _zero_bits(c: int, terms: list[tuple[int, int]] | tuple) -> int:
    """Bits at which an :func:`_interval` of c + sum n_i*sqrt(r_i), integers
    with r_i > 1, that holds zero proves the value zero.

    Let v = c + sum n_i*sqrt(r_i) with m radical terms, an algebraic integer,
    and first let the r_i be distinct and squarefree.  The product of its 2^m
    sign-flipped conjugates c + sum +-n_i*sqrt(r_i) is even in each
    sqrt(r_i), so it is a rational integer, nonzero when v != 0 (square
    roots of distinct squarefree integers are linearly independent over Q).
    Every conjugate is below S = |c| + sum |n_i|*(isqrt(r_i) + 1), hence
    |v| >= S^-(2^m - 1).  Otherwise group the terms by the squarefree part
    of r_i, a square r_i joining c: the grouped form has m' <= m radicals,
    and each of its conjugates is still below S, so |v| >= S^-(2^m' - 1)
    >= S^-(2^m - 1) all the same.  An interval is at most m + 1 units wide,
    so at bits >= (2^m - 1)*bitlen(S) + bitlen(m + 1) + 1 one that still
    holds zero proves v = 0.  Here bitlen(S) <= top + bitlen(m + 1), with
    top from :func:`_top`.
    """
    m = len(terms)
    w = (m + 1).bit_length()
    return ((1 << m) - 1) * (_top(c, terms) + w) + w + 1


def _enclose(c: int, terms: list[tuple[int, int]] | tuple, need: int) -> tuple[int, int, int, int] | None:
    """(sign, bits, lo, hi) of a nonzero v = c + sum n*sqrt(r), for integers
    with r >= 1 and m terms: v's sign, and lo <= |v|*2^bits <= hi with
    hi - lo <= m + 1 and lo >= 2^(need - 1) - m - 1.  None when v = 0.

    Every :func:`_interval` is at most m + 1 units wide, so one that puts
    |v| at 2^(need - 1) units or more has lo >= 2^(need - 1) - m - 1.  When
    c and every n have one sign, v has it, and |v| is at least the largest
    of |c| and the terms, at least 2^(top - 2) (:func:`_top`): one interval
    at need - top + 1 bits, fewer than 0 when top > need + 1, puts |v| at
    2^(need - 1) units or more.

    A cancelling sum climbs a ladder of rungs 64*2^i, from the first at or
    above need, doubling, and after a failed rung jumping to the first rung
    at or above top: below it every rung costs an ``isqrt`` nearly as long
    as one at top.  The first rung that excludes zero gives v's sign and
    |v|*2^bits >= M, the end nearer zero; when M < 2^(need - 1), one more
    interval at need - bitlen(M) more bits puts |v| at 2^(need - 1) units
    or more.  A rung at or above :func:`_zero_bits`, which is above top,
    whose interval holds zero proves v = 0.  So the ladder ends by the
    first rung at or above :func:`_zero_bits`, and takes at most the rungs
    from its first one to that one, plus one interval.
    """
    pos, neg = c > 0, c < 0
    for _, n in terms:
        pos, neg = pos or n > 0, neg or n < 0
    if not (pos or neg):
        return None
    if not (pos and neg):
        sign = 1 if pos else -1
        bits = need - _top(c, terms) + 1
        lo, hi = _interval(c, terms, bits)
    else:
        bits, cap = 64, 0
        while bits < need:
            bits *= 2
        while True:
            lo, hi = _interval(c, terms, bits)
            if lo > 0 or hi < 0:
                break
            if not cap:
                cap, top = _zero_bits(c, terms), _top(c, terms)
            if bits >= cap:
                return None
            bits *= 2
            while bits < top:
                bits *= 2
        sign = 1 if lo > 0 else -1
        short = need - min(abs(lo), abs(hi)).bit_length()
        if short > 0:
            bits += short
            lo, hi = _interval(c, terms, bits)
    return (sign, bits, lo, hi) if sign > 0 else (sign, bits, -hi, -lo)


def _sign(c: int, terms: list[tuple[int, int]] | tuple) -> int:
    """Exact sign of c + sum n*sqrt(r), for integers with r >= 1: one
    comparison with at most one radical term (:func:`_sign_surd`), else the
    sign that :func:`_enclose` finds, 0 where it proves the value zero."""
    if len(terms) == 1:
        ((r, n),) = terms
        return _sign_surd(c, n, r)
    if not terms:
        return _sgn(c)
    enc = _enclose(c, terms, 0)
    return enc[0] if enc else 0


def _rational(x: Rational) -> Rational:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _fold(c: int, terms: Iterable[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Integers (c', [(k, n'), ...]) of c + sum n*sqrt(r), for integers r >= 1:
    each radicand's square part s^2 moves into its coefficient (n' = n*s, k > 1),
    a square radicand into c', and a zero term is dropped unsplit."""
    pairs = []
    for r, n in terms:
        if n:
            s, k = square_free_split(r)
            if k == 1:
                c += n * s
            else:
                pairs.append((k, n * s))
    return c, pairs


def _radical(c: int, terms: Iterable[tuple[int, int]], den: int = 1) -> "RadicalSum":
    """(c + sum n*sqrt(r))/den as a canonical RadicalSum, for integers with
    den > 0 and r >= 1 (see :func:`_fold`)."""
    return RadicalSum._make(*_fold(c, terms), den)


# ---------------------------------------------------------------------------
# RadicalSum


class RadicalSum(_Frozen):
    """(c + sum of n*sqrt(r)) / den with distinct canonical radicands r > 1.

    The value is held as integers over one positive denominator: a constant
    numerator, a tuple of (radicand, numerator) pairs sorted by radicand, and
    ``den``, with gcd(den, every numerator) = 1.  The public constructor
    takes rationals, folds square parts of radicands into the coefficients
    and combines like radicands; arithmetic on canonical operands builds its
    result through :meth:`_make`, which only merges equal radicands, drops
    zero terms and divides out the gcd.  Two RadicalSums built from
    in-scope values are equal as reals iff they are equal as objects.
    Instances are immutable and hashable.
    """

    __slots__ = ("_c", "_t", "den")

    def __init__(self, c0: Rational = 0, terms: Iterable[tuple[Rational, int]] = ()):
        c0 = _rational(c0)
        terms = [(r, _rational(coef)) for coef, r in terms]
        den = lcm(c0.denominator, *[f.denominator for _, f in terms])
        ints = [(r, f.numerator * (den // f.denominator)) for r, f in terms]
        self._assign(*_fold(c0.numerator * (den // c0.denominator), ints), den)

    @classmethod
    def _make(cls, const: int, pairs: list[tuple[int, int]] | tuple, den: int) -> "RadicalSum":
        """Trusted constructor: canonical radicands > 1 and den > 0."""
        obj = object.__new__(cls)
        obj._assign(const, pairs, den)
        return obj

    def _assign(self, const: int, pairs: list[tuple[int, int]] | tuple, den: int) -> None:
        if pairs:
            acc: dict[int, int] = {}
            for r, n in pairs:
                acc[r] = acc.get(r, 0) + n
            terms = tuple(sorted((r, n) for r, n in acc.items() if n))
            g = gcd(den, const, *[n for _, n in terms])
        else:
            terms, g = (), gcd(den, const)
        if g != 1:
            const //= g
            terms = tuple((r, n // g) for r, n in terms)
            den //= g
        set_c, set_t, set_den = self._setters
        set_c(self, const)
        set_t(self, terms)
        set_den(self, den)

    def _key(self) -> tuple:
        return self._c, self._t, self.den

    # -- construction helpers and views

    @classmethod
    def sqrt(cls, n: int, coef: Rational = 1) -> "RadicalSum":
        return cls(0, [(coef, n)])

    @property
    def c0(self) -> Fraction:
        return Fraction(self._c, self.den)

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """(coefficient, radicand) pairs, sorted by radicand."""
        return tuple((Fraction(n, self.den), r) for r, n in self._t)

    @property
    def is_rational(self) -> bool:
        return not self._t

    def as_fraction(self) -> Fraction:
        if self._t:
            raise ValueError("value is irrational")
        return self.c0

    # -- ring operations

    def _scale(self, num: int, den: int) -> "RadicalSum":
        """self * num/den, for den != 0."""
        if den < 0:
            num, den = -num, -den
        return RadicalSum._make(self._c * num, [(r, n * num) for r, n in self._t], self.den * den)

    def _add(self, other: "RadicalSum | Rational", sign: int) -> "RadicalSum":
        if isinstance(other, RadicalSum):
            c, t, d = other._c, other._t, other.den
        else:
            other = _rational(other)
            c, t, d = other.numerator, (), other.denominator
        den = lcm(self.den, d)
        u, v = den // self.den, sign * (den // d)
        pairs = [(r, n * u) for r, n in self._t]
        pairs += [(r, n * v) for r, n in t]
        return RadicalSum._make(self._c * u + c * v, pairs, den)

    def __add__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._make(-self._c, [(r, -n) for r, n in self._t], self.den)

    def __sub__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        return self._add(other, -1)

    def __rsub__(self, other: Rational) -> "RadicalSum":
        return (-self)._add(other, 1)

    def __mul__(self, other: "RadicalSum | Rational") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            f = _rational(other)
            return self._scale(f.numerator, f.denominator)
        c1, c2 = self._c, other._c
        const = c1 * c2
        pairs = [(r, n * c2) for r, n in self._t]
        pairs += [(r, n * c1) for r, n in other._t]
        for r1, n1 in self._t:
            for r2, n2 in other._t:
                g = gcd(r1, r2)
                s, k = square_free_split((r1 // g) * (r2 // g))
                n = n1 * n2 * g * s
                if k == 1:
                    const += n
                else:
                    pairs.append((k, n))
        return RadicalSum._make(const, pairs, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "RadicalSum":
        f = _rational(other)
        if f == 0:
            raise ZeroDivisionError("division by zero")
        return self._scale(f.denominator, f.numerator)

    def inverse(self) -> "RadicalSum":
        """Exact reciprocal, by clearing one split element at a time."""
        num = None  # the product of the conjugates taken so far
        den = self
        guard = 0
        while den._t:
            guard += 1
            if guard > 64:
                raise UnsupportedExpressionError("cannot rationalize denominator")
            b = _pick_split_prime([r for r, _ in den._t])
            # the conjugate scaled by den.den; the scale cancels in num/den
            flip = [(r, -n if r % b == 0 else n) for r, n in den._t]
            conj = RadicalSum._make(den._c, flip, 1)
            num = conj if num is None else num * conj
            den *= conj
        if den._c == 0:
            raise ZeroDivisionError("division by zero RadicalSum")
        return (num or RadicalSum._make(1, (), 1))._scale(den.den, den._c)

    # -- sign machinery

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} (see :func:`_sign`)."""
        return _sign(self._c, self._t)

    # -- rendering

    def decimal(self, significant: int = 50) -> str:
        """Correctly rounded decimal string (see :func:`_decimal`)."""
        return _decimal(self._c, self._t, self.den, significant)[1]

    def __repr__(self) -> str:
        parts = [str(self.c0)] if self._c or not self._t else []
        parts.extend(f"{c}*sqrt({r})" for c, r in self.terms)
        return " + ".join(parts).replace("+ -", "- ")


def _decimal(c: int, terms: list[tuple[int, int]] | tuple, den: int, significant: int) -> tuple[int, str]:
    """(sign, digits) of v = (c + sum n*sqrt(r))/den, for integers with
    den > 0 and r >= 1: v's exact sign, and its correctly rounded decimal
    string with ``significant`` digits.

    Zero is (0, "0"); everything else renders as d.dd...e<exp> (de<exp> for
    one digit), rounded half to even; ``significant`` < 1 raises
    ValueError.  One radical term over a radicand that is not a square
    takes :func:`_surd_decimal`, exact from one ``isqrt`` by a floor
    identity and an exponent estimate within one of e (both proved there).
    Otherwise both come from one
    :func:`_enclose` of the numerator at ``need`` bits, None where it
    proves v = 0: an enclosure at most m + 1 units wide (m radical terms)
    of a value of at least 2^(need - 1) units, so its width is below 2^-62
    of a step in the last digit.  Endpoints that round apart go to
    :func:`_settle`, with sign(|v| - tn/td) the exact sign of
    sign*c*td - tn*den + sum sign*n*td*sqrt(r); radicands may repeat.
    """
    if significant < 1:
        raise ValueError("significant must be >= 1")
    if len(terms) == 1:
        ((r, n),) = terms
        if n and isqrt(r) ** 2 != r:
            return _surd_decimal(c, n, r, den, significant)
    need = _tens(significant)[1] + len(terms).bit_length() + 64
    enc = _enclose(c, terms, need)
    if enc is None:
        return 0, "0"
    sign, bits, lo, hi = enc
    if bits < 0:  # a sum of one sign above 2^need
        lo, hi, bits = lo << -bits, hi << -bits, 0
    e, a, b = _round_pair(lo, hi, den << bits, significant)
    if b != a:
        a = _settle(e, a, b, significant, lambda t: _sign(
            sign * c * t.denominator - t.numerator * den,
            [(r, sign * n * t.denominator) for r, n in terms]))
    return sign, _format_decimal(sign < 0, a, e, significant)


# log10(2) between these two integers over 10^16
_LOG10_2 = (3010299956639811, 3010299956639812)


def _surd_decimal(c: int, n: int, r: int, den: int, significant: int) -> tuple[int, str]:
    """:func:`_decimal` of v = (c + n*sqrt(r))/den, for integers with n != 0,
    den > 0 and r > 1 not a square, from one ``isqrt``.

    v is irrational, so nonzero.  Its sign is sign(n) when c = 0 or c has
    n's sign; else the two cancel, and it is sign(c)*sign(N) for
    N = c^2 - n^2 r, nonzero.

    The exponent e of |v| (10^e <= |v| < 10^(e + 1)) is estimated from bit
    lengths bl, in half-bits.  2 log2 |c| lies in [2 bl(c) - 2, 2 bl(c)),
    and 2 log2 (|n| sqrt(r)) in [hy - 3, hy) for hy = 2 bl(n) + bl(r) >= 4.
    So M, the larger of |c| and |n| sqrt(r), has 2 log2 M in [lo, hi) with
    lo = max(2 bl(c) - 2, hy - 3) (hy - 3 when c = 0) and hi =
    max(2 bl(c), hy) <= lo + 3.  Let u = |c + n sqrt(r)|.  Without
    cancellation u lies in [M, 2M].  With it, u = |N|/(|c| + |n| sqrt(r)),
    and the divisor lies in [M, 2M].  Taking off 2 log2 den, in
    [2 bl(den) - 2, 2 bl(den)), puts 2 log2 |v| in (h, h + 9) for
    h = lo - 2 bl(den) without cancellation, h = 2 bl(N) - hi - 4 -
    2 bl(den) with it.  Then e0 = floor(h log10(2)/2), with log10(2)
    rounded down for h >= 0 and up for h < 0, is at most e, and e <= e0 + 2
    as 9 log10(2)/2 < 1.36: the estimate e0 + 1 is within one of e (for
    |h| below 10^15, where the rounding of log10(2) moves h log10(2)/2 by
    less than 0.64).

    The digits of |v| are the rounding of |v| 10^j, j = significant - 1 - e,
    and with no ties (v is irrational) that is (Q + 1) >> 1 for
    Q = floor(2 |v| 10^j).  For any real x and integers A and D > 0,
    floor((A + x)/D) = floor((A + floor(x))/D): both are the largest
    integer t with t D <= A + x, and t D - A is an integer.  So, with
    j0 = significant - 1 - e0 and m = sign*n,

        Q0 = floor(2 |v| 10^j0) = floor((A + floor(t sqrt(r)))/D),

    A = 2 sign c 10^j0, t = 2 m 10^j0 and D = den when j0 >= 0, else
    A = 2 sign c, t = 2 m and D = den 10^-j0; floor(t sqrt(r)) is
    isqrt(t^2 r) for t > 0, else -isqrt(t^2 r) - 1, as t sqrt(r) is not an
    integer.  floor(Q0/10) = floor(2 |v| 10^(j0 - 1)) drops a digit
    exactly, so Q0 is divided by 10 until it lies below 2*10^significant,
    at most twice, and then it is Q; a Q below 2*10^(significant - 1) would
    break the bound above and raises ArithmeticError.
    """
    hc, hy = 2 * c.bit_length(), 2 * n.bit_length() + r.bit_length()
    if c and (c > 0) != (n > 0):  # c and n*sqrt(r) cancel
        big = c * c - n * n * r
        sign = -1 if (c > 0) != (big > 0) else 1
        h = 2 * big.bit_length() - (hc if hc > hy else hy) - 4
    else:
        sign = 1 if n > 0 else -1
        h = hc - 2 if hc + 1 > hy else hy - 3
    h -= 2 * den.bit_length()
    e = h * _LOG10_2[h < 0] // (2 * 10**16)
    j = significant - 1 - e
    if j >= 0:
        p = _pow10(j)
        a, t = 2 * p * sign * c, 2 * p * sign * n
    else:
        a, t, den = 2 * sign * c, 2 * sign * n, den * _pow10(-j)
    x = isqrt(t * t * r)
    q = (a + (x if t > 0 else -x - 1)) // den
    top = _tens(significant)[0]
    while q >= 2 * top:
        q //= 10
        e += 1
    if 5 * q < top:
        raise ArithmeticError("decimal exponent estimate is off by more than one")
    return sign, _format_decimal(sign < 0, (q + 1) >> 1, e, significant)


def _pick_split_prime(rads: list[int]) -> int:
    """A split element b > 1 of the sorted radicands: the primes below 10^4
    of the first one with any, else rads[0], cut to each proper gcd(b, r),
    so b | r or gcd(b, r) = 1.  For a prime p | b, flipping the terms with
    b | r is then sqrt(p) -> -sqrt(p), an automorphism when no radicand holds
    p twice: one round clears b (cfbench counts calls by this name as rounds)."""
    b = next((g for g in (gcd(r, _PRIMORIAL) for r in rads) if g > 1), rads[0])
    for r in rads:
        h = gcd(b, r)
        if 1 < h < b:
            b = h
    return b


def _round_pair(x: int, y: int, d: int, significant: int) -> tuple[int, int, int]:
    """(e, a, b) for 0 < x <= y and d > 0, with 10^e <= x/d, and a <= b the
    roundings, half to even, of a lower end of x/d and an upper end of y/d,
    times 10^(significant - 1 - e).  So every v in [x/d, y/d] rounds there
    to a digit string between a and b, and a = b gives the digits of all of
    them; a lies in [10^(significant - 1), 10^significant].

    The scale 10^j, j = significant - 1 - e, multiplies the ends when j > 0:
    10^j = 5^j 2^j, with 5^j enclosed by :func:`_pow5` and the power of two
    taken off d's trailing zeros, so a deep scan row's tiny margin, over
    d = 2^m, is rounded in integers of a few hundred bits; 5^j is exact for
    the j of a value near 1.  When j <= 0 the exact 10^-j divides.
    """
    # e from a bit-length estimate and one power of ten, then corrected by
    # factors of ten until x/d lies in [10^(significant - 1), 10^significant)
    e = (x.bit_length() - d.bit_length()) * 30103 // 100000
    j = significant - 1 - e
    if j > 0:
        lo, hi, shift = _pow5(j, 4 * significant + 64 + j.bit_length())
        zeros = (d & -d).bit_length() - 1
        # x 10^j/d = x 5^j/(d' 2^(zeros - j)) for d' = d >> zeros, and 5^j
        # lies between lo and hi times 2^shift
        x, y, d, t = x * lo, y * hi, d >> zeros, zeros - j - shift
        if t >= 0:
            d <<= t
        else:
            x, y = x << -t, y << -t
    else:
        d *= 10**-j
    low = d * _tens(significant)[2]
    while x < low:
        x, y, e = x * 10, y * 10, e - 1
    while x >= low * 10:
        d, low, e = d * 10, low * 10, e + 1
    a = _round_half_even(x, d)
    return e, a, a if y == x else _round_half_even(y, d)


def _pow5(j: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo 2^shift <= 5^j <= hi 2^shift, for j >= 0: exactly
    (5^j, 5^j, 0) when 5^j has fewer than 8 ``prec`` bits (below that the
    exact power is the cheaper), else with hi/lo < 1 + 2^(bitlen(j) + 5 - prec).

    Binary powering from j's top bit keeps lo 2^shift <= 5^i <= hi 2^shift
    for the prefix i of j's bits: squaring and multiplying by 5 keep it, and
    so does each cut of hi to ``prec`` bits, which floors lo and ceils hi.
    While hi/lo < 2, a cut leaves lo >= 2^(prec - 2) and so multiplies hi/lo
    by less than 1 + 2^(3 - prec); squaring squares hi/lo.  Over the
    bitlen(j) steps, the cut at step i is squared bitlen(j) - i times, so
    hi/lo < (1 + 2^(3 - prec))^(2 j) < 1 + 2^(bitlen(j) + 5 - prec).
    """
    if j * 2322 // 1000 + 1 < 8 * prec:  # 5^j < 2^(2.322 j + 1)
        p = 5**j
        return p, p, 0
    lo = hi = 1
    shift = 0
    for bit in bin(j)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi = 5 * lo, 5 * hi
        cut = hi.bit_length() - prec
        if cut > 0:
            lo, hi, shift = lo >> cut, -(-hi >> cut), shift + cut
    return lo, hi, shift


def _settle(e: int, a: int, b: int, significant: int, side: Callable[[Fraction], int]) -> int:
    """The digits of a nonzero |v|, a or b, for ends a < b of an enclosure
    of |v| that :func:`_round_pair` rounded apart (with exponent e).

    Ends more than one digit apart raise ArithmeticError.  Adjacent ends
    straddle the rational midpoint t between a and b, and ``side(t)``, the
    exact sign of |v| - t, picks one; a value on the midpoint (a rational
    held with cancelling radicals) takes the even one.
    """
    if b - a > 1:
        raise ArithmeticError("decimal enclosure spans more than one last-digit step")
    if a < _tens(significant)[0]:
        k = significant - 1 - e
        s = side(Fraction((2 * a + 1) * 10 ** max(0, -k), 2 * 10 ** max(0, k)))
        if s > 0 or (s == 0 and a & 1):
            return b
    return a


def _quotient_decimal(neg: bool, lo: tuple[int, int], hi: tuple[int, int], bits: int,
                      significant: int, side: Callable[[Fraction], int]) -> str:
    """The decimal string of v, negative if ``neg``, from positive integers
    with lo[0]/lo[1] <= |v|*2^bits <= hi[0]/hi[1] and |v| < 2.  Each end is
    rounded outward to about ``need`` bits before :func:`_round_pair` scales
    it; ends that round apart go to :func:`_settle`, with ``side`` as there."""
    need = _tens(significant)[1] + 64
    k = need + lo[1].bit_length() - lo[0].bit_length()
    x, y = (lo[0] << k) // lo[1], -((-hi[0] << k) // hi[1])
    # x >= 2^(need - 1) and |v| < 2, so bits + k >= need - 2
    e, a, b = _round_pair(x, y, 1 << (bits + k), significant)
    if b != a:
        a = _settle(e, a, b, significant, side)
    return _format_decimal(neg, a, e, significant)


@lru_cache(maxsize=8)
def _tens(significant: int) -> tuple[int, int, int]:
    """(10^significant, its bit length, 10^(significant - 1))."""
    top = 10**significant
    return top, top.bit_length(), top // 10


@lru_cache(maxsize=256)
def _pow10(j: int) -> int:
    return 10**j


def _round_half_even(n: int, d: int) -> int:
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def _format_decimal(neg: bool, digits: int, e: int, significant: int) -> str:
    """-digits*10^(e - significant + 1) if neg, else +, as d.dd...e<exp>, for
    digits in [10^(significant - 1), 10^significant]."""
    ds = str(digits)
    if len(ds) > significant:  # rounding rolled over, e.g. 999->1000
        ds, e = ds[:-1], e + 1
    if significant > 1:
        ds = f"{ds[0]}.{ds[1:]}"
    return f"{'-' if neg else ''}{ds}e{e:+03d}"


# ---------------------------------------------------------------------------
# QuadSurd


class QuadSurd(_Frozen):
    """(a + b*sqrt(d))/c in canonical form.

    Invariants: c >= 1, gcd(a, b, c) = 1, d as :func:`square_free_split`
    leaves it, and d = 1 exactly when b = 0 (the rational embedding).  Use
    :meth:`make` to construct; the constructor stores its integers as given.
    Arithmetic meets two radicands whose product is a square, as when one
    hides a square p*p with p > 10^4, over their gcd; ``==`` and ``hash``
    still compare representations, so such a pair can be equal as reals and
    unequal as objects.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        set_a, set_b, set_c, set_d = self._setters
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int) -> "QuadSurd":
        if c == 0:
            raise ZeroDivisionError("denominator c must be nonzero")
        if d <= 0:
            raise ValueError("radicand d must be positive")
        s, k = square_free_split(d)
        b *= s
        d = k
        if d == 1:
            a += b
            b = 0
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        if g != 1:
            a, b, c = a // g, b // g, c // g
        return cls(a, b, c, d)

    @classmethod
    def from_rational(cls, x: Rational) -> "QuadSurd":
        # a Fraction is in lowest terms with a positive denominator: canonical
        f = _rational(x)
        return cls(f.numerator, 0, f.denominator, 1)

    # -- predicates & conversions

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("value is irrational")
        return Fraction(self.a, self.c)

    def to_radical(self) -> RadicalSum:
        return RadicalSum._make(self.a, [(self.d, self.b)] if self.b else (), self.c)

    def _coerce(self, other: "QuadSurd | Rational") -> "QuadSurd":
        if isinstance(other, QuadSurd):
            return other
        return QuadSurd.from_rational(other)

    def _common_d(self, other: "QuadSurd") -> tuple[int, int, int]:
        """(d, b, other_b): both surds over one radicand d."""
        r, s = self.d, other.d
        if r == s or not (self.b and other.b):  # a rational one has d = 1
            return lcm(r, s), self.b, other.b
        if isqrt(r * s) ** 2 == r * s:  # r/s is a square: a hidden square
            g = gcd(r, s)
            return g, self.b * isqrt(r // g), other.b * isqrt(s // g)
        raise MixedFieldError(f"sqrt({r}) and sqrt({s}) span different fields")

    # -- field arithmetic

    def _add(self, other: "QuadSurd | Rational", sign: int) -> "QuadSurd":
        o = self._coerce(other)
        d, b, ob = self._common_d(o)
        return QuadSurd.make(
            self.a * o.c + sign * o.a * self.c,
            b * o.c + sign * ob * self.c,
            self.c * o.c,
            d,
        )

    def __add__(self, other: "QuadSurd | Rational") -> "QuadSurd":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other: "QuadSurd | Rational") -> "QuadSurd":
        return self._add(other, -1)

    def __rsub__(self, other: Rational) -> "QuadSurd":
        return (-self) + other

    def __mul__(self, other: "QuadSurd | Rational") -> "QuadSurd":
        o = self._coerce(other)
        d, b, ob = self._common_d(o)
        return QuadSurd.make(
            self.a * o.a + b * ob * d,
            self.a * ob + b * o.a,
            self.c * o.c,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadSurd | Rational") -> "QuadSurd":
        o = self._coerce(other)
        d, b, ob = self._common_d(o)
        norm = o.a * o.a - ob * ob * d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        # self times 1/o = c*(a - b*sqrt(d))/norm, in one make
        a, b = self.a * o.a - b * ob * d, b * o.a - self.a * ob
        return QuadSurd.make(o.c * a, o.c * b, self.c * norm, d)

    def __rtruediv__(self, other: Rational) -> "QuadSurd":
        return QuadSurd.from_rational(other) / self

    def __pow__(self, n: int) -> "QuadSurd":
        if n < 0:
            return (QuadSurd.from_rational(1) / self) ** (-n)
        result = QuadSurd.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order

    def sign(self) -> int:
        return _sign_surd(self.a, self.b, self.d)

    def __lt__(self, other: "QuadSurd | Rational") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "QuadSurd | Rational") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "QuadSurd | Rational") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "QuadSurd | Rational") -> bool:
        return (self - other).sign() >= 0

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}/{self.c}" if self.c != 1 else str(self.a)
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"
