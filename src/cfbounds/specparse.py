"""Parser for the textual number-spec language used by the CLI.

Grammar (whitespace-insensitive)::

    rat:<int>/<posint>
    surd:(<int>+<int>*sqrt(<posint>))/<posint>      (+ may be -)
    cf:[<int>]  |  cf:[<int>;q1,q2,...]             the last item may be a
                                                    period group (p1,...,pr)
    dec:<digits>.<digits>~<precision-digits>

``dec`` values carry finite precision and are excluded from exact
theorem claims; everything else parses to an exact value.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .cf import CFExpansion, _finite, cf_value, expand_surd
from .exact import QuadSurd, _Frozen

__all__ = ["DecPrefix", "NumberSpec", "SpecParseError", "parse_number", "render"]


class SpecParseError(ValueError):
    """A malformed or refused spec; ``pos`` is where in the text, if anywhere."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class DecPrefix(_Frozen):
    """Decimal prefix: value known only to ``places`` decimal places.  The
    value must have a finite decimal expansion, else ValueError."""

    __slots__ = ("value", "places")

    def __init__(self, value: Fraction, places: int):
        # den divides 10^m, m >= log2(den), iff 2 and 5 are its only primes
        den = value.denominator
        if 10 ** den.bit_length() % den:
            raise ValueError(f"{value} has no finite decimal expansion")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "places", places)


ParsedValue = Fraction | QuadSurd | CFExpansion | DecPrefix


class NumberSpec(_Frozen):
    """A parsed spec: its compacted ``text``, its ``kind`` (rat, surd, cf or
    dec) and the value it ``parsed`` to."""

    __slots__ = ("text", "kind", "parsed")

    def __init__(self, text: str, kind: str, parsed: ParsedValue):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parsed", parsed)

    @property
    def is_exact(self) -> bool:
        return self.kind != "dec"


_RAT = re.compile(r"(-?\d+)/(\d+)\Z")
_SURD = re.compile(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)\Z")
_CF = re.compile(r"\[(-?\d+)(?:;(.*))?\]\Z")
_DEC = re.compile(r"(-?\d+)\.(\d+)~(\d+)\Z")


def parse_number(text: str) -> NumberSpec:
    compact = "".join(text.split())
    if ":" not in compact:
        raise SpecParseError("expected '<kind>:<body>'", 0)
    kind, body = compact.split(":", 1)
    pos = len(kind) + 1
    if kind == "rat":
        m = _RAT.match(body)
        if not m:
            raise SpecParseError("expected rat:<int>/<posint>", pos)
        den = int(m.group(2))
        if den == 0:
            raise SpecParseError("zero denominator", pos + body.index("/") + 1)
        return NumberSpec(compact, "rat", Fraction(int(m.group(1)), den))
    if kind == "surd":
        m = _SURD.match(body)
        if not m:
            raise SpecParseError("expected surd:(<int>+<int>*sqrt(<posint>))/<posint>", pos)
        a, b, d, c = int(m.group(1)), int(m.group(2)), int(m.group(3)), int(m.group(4))
        if c == 0:
            raise SpecParseError("zero denominator", pos + body.rindex("/") + 1)
        if d == 0:
            raise SpecParseError("radicand must be positive", pos + body.index("sqrt") + 5)
        return NumberSpec(compact, "surd", QuadSurd.make(a, b, c, d))
    if kind == "cf":
        return NumberSpec(compact, "cf", _parse_cf(body, pos))
    if kind == "dec":
        m = _DEC.match(body)
        if not m:
            raise SpecParseError("expected dec:<digits>.<digits>~<precision>", pos)
        int_part, frac_part, places = m.group(1), m.group(2), int(m.group(3))
        value = Fraction(int(int_part + frac_part), 10 ** len(frac_part))
        if int_part.startswith("-"):
            value = -abs(value)
        return NumberSpec(compact, "dec", DecPrefix(value, places))
    raise SpecParseError(f"unknown kind {kind!r}", 0)


def _parse_cf(body: str, pos: int) -> CFExpansion:
    m = _CF.match(body)
    if not m:
        raise SpecParseError("expected cf:[<int>;q1,q2,...] with optional (period)", pos)
    a0, rest = int(m.group(1)), m.group(2)
    items = [] if rest is None else rest.split(",")
    period = None
    if rest and "(" in rest:
        idx = rest.index("(")
        if not rest.endswith(")"):
            raise SpecParseError("unterminated period group", pos + len(body) - 1)
        per_part = rest[idx + 1 : -1]
        if not per_part:
            raise SpecParseError("empty period", pos)
        period = [_positive_quotient(item, pos) for item in per_part.split(",")]
        # a head is followed by exactly one comma, which leaves "" last
        items = rest[:idx].split(",")
        if items.pop():
            raise SpecParseError("expected ',' before the period group", pos)
    head = [_positive_quotient(item, pos) for item in items]
    if period is None:
        return _finite([a0, *head])
    return expand_surd(cf_value(CFExpansion(a0, head, period)))


def _positive_quotient(item: str, pos: int) -> int:
    if not item.isdigit() or int(item) < 1:
        raise SpecParseError(f"partial quotient {item!r} must be a positive integer", pos)
    return int(item)


def render(spec: NumberSpec | ParsedValue) -> str:
    """Canonical text of a spec or of a parsed value; reparsing yields an
    equal parsed value."""
    v = spec.parsed if isinstance(spec, NumberSpec) else spec
    if isinstance(v, Fraction):
        return f"rat:{v.numerator}/{v.denominator}"
    if isinstance(v, QuadSurd):
        return f"surd:({v.a}{v.b:+d}*sqrt({v.d}))/{v.c}"
    if isinstance(v, CFExpansion):
        return "cf:" + v.render()
    return f"dec:{_dec_text(v)}"


def _dec_text(d: DecPrefix) -> str:
    sign = "-" if d.value < 0 else ""
    n, den = abs(d.value.numerator), d.value.denominator
    # den divides a power of ten; find the smallest exponent that clears it
    digits = 0
    scale = 1
    while scale % den:
        digits += 1
        scale *= 10
    whole, frac = divmod(n * (scale // den), scale)
    frac_text = str(frac).zfill(digits) if digits else "0"
    return f"{sign}{whole}.{frac_text}~{d.places}"
