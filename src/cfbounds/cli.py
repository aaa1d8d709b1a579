"""Command line interface.

Every command emits schema-stable records, one per line, as JSON
(default) or CSV (``--format csv``).  Reruns over the same inputs are
byte-identical.

Exit codes: 0 success, 1 a verified claim failed where it was expected
to hold, 2 usage error, 3 malformed number spec, 4 internal consistency
check failed (two exact computations of one quantity disagreed).

``expand`` reports ``"exact": null`` for ``dec:`` inputs, which carry
finite precision and so have no exact value to report.

``report`` scans each corpus line up to ``--n`` convergents, but a rational
line stops at its last convergent: a corpus mixes lengths, and a rational is
reported as scanned but not applicable.  ``verify`` on the same rational at
a depth past its last convergent exits 3 instead, because it was asked for
that depth.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .bounds import _NEEDS_K, BOUND_KINDS, BoundSpec
from .cf import (
    CFExpansion,
    IdentityMismatch,
    _value,
    cf_value,
    convergents,
    expand_rational,
    expand_surd,
)
from .exact import _decimal
from .specparse import DecPrefix, NumberSpec, SpecParseError, parse_number, render
from .verify import (
    LEMMA_IDS,
    _LEMMA_MIN_K,
    _OUTCOMES,
    _WINDOW_RULES,
    _lemma_row,
    _scan,
    _starred_q,
    classify_equality,
    classical_window_check,
    nathanson_applicable,
    verify_bound_scan,
)

__all__ = ["main"]

_FIELDS = {
    "expand": ["input", "command", "cf", "exact"],
    "convergents": ["input", "command", "n", "p", "q"],
    "verify": [
        "input", "command", "bound", "k", "n", "p", "q",
        "outcome", "margin_sign", "margin_decimal_50",
    ],
    "classify-equality": [
        "input", "command", "type", "k", "n", "p", "q", "outcome",
        "margin_sign", "margin_decimal_50", "equality_class", "equal_indices",
    ],
    "lemmas": ["command", "lemma", "k", "depth", "holds", "margin_sign", "margin_decimal_50"],
    "classical": ["input", "command", "rule", "n", "holds"],
    "report": [
        "input", "command", "type", "bound", "k", "n",
        "applicable", "holds_strict", "holds_equal", "fails",
    ],
}


def _parsed_value(spec: NumberSpec):
    """A spec's parsed value, a dec: prefix taken as the rational it shows."""
    v = spec.parsed
    return v.value if isinstance(v, DecPrefix) else v


def _exact_input(spec: NumberSpec, command: str):
    """Exact value of a spec that a theorem claim may use, not expanded;
    dec: is refused."""
    if not spec.is_exact:
        raise SpecParseError(f"dec: inputs carry finite precision; {command} needs an exact value")
    return _value(spec.parsed)


def _applicable(value, bound: str, k) -> bool:
    """The theorem's hypothesis: x irrational, and for the bounds that take k,
    infinitely many partial quotients >= k."""
    return not isinstance(value, Fraction) and (bound not in _NEEDS_K or nathanson_applicable(value, k))


def _detail_rows(head: tuple, records, tail: tuple = ()) -> list[tuple]:
    """A row head + (n, p, q, outcome, margin_sign, margin_decimal_50) + tail per record."""
    return [
        (*head, r.n, r.p, r.q, _OUTCOMES[r.margin_sign].value, r.margin_sign, r.margin_decimal(50), *tail)
        for r in records
    ]


# ---------------------------------------------------------------------------
# command implementations; each returns (rows, ok), every row a tuple of
# its command's _FIELDS values in order


def _cmd_expand(args) -> tuple[list[tuple], bool]:
    spec = parse_number(args.number)
    x = _parsed_value(spec)
    if isinstance(x, CFExpansion):  # a cf: spec is canonical already
        value, cf = cf_value(x), x
    else:
        value = _value(x)
        cf = expand_rational(value) if isinstance(value, Fraction) else expand_surd(value)
    row = (render(spec), "expand", cf.render(), render(value) if spec.is_exact else None)
    return [row], True


def _cmd_convergents(args) -> tuple[list[tuple], bool]:
    spec = parse_number(args.number)
    text = render(spec)
    rows = [(text, "convergents", c.n, c.p, c.q) for c in convergents(_parsed_value(spec), args.n)]
    return rows, True


def _cmd_verify(args) -> tuple[list[tuple], bool]:
    spec = parse_number(args.number)
    value = _exact_input(spec, "verify")
    records = verify_bound_scan(value, BoundSpec(args.bound, args.k), args.n)
    head = (render(spec), "verify", args.bound, args.k)
    ok = not _applicable(value, args.bound, args.k) or any(r.margin_sign <= 0 for r in records)
    return _detail_rows(head, records), ok


def _cmd_classify(args) -> tuple[list[tuple], bool]:
    spec = parse_number(args.number)
    value = _exact_input(spec, "classify-equality")
    if isinstance(value, Fraction):
        raise SpecParseError("classify-equality needs an irrational input")
    records = verify_bound_scan(value, BoundSpec("refined_f", args.k), args.n)
    text = render(spec)
    rows = _detail_rows((text, "classify-equality", "detail", args.k), records, (None, None))
    rows.append((text, "classify-equality", "summary", args.k, *[None] * 6,
                 classify_equality(value, args.k), [r.n for r in records if r.margin_sign == 0]))
    return rows, True


def _parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(lo) < 1 or int(hi) < int(lo):
        raise argparse.ArgumentTypeError("expected A..B with 1 <= A <= B")
    return range(int(lo), int(hi) + 1)


def _cmd_lemmas(args) -> tuple[list[tuple], bool]:
    # a row's sign and digits come from one decimal of its margin's integers,
    # with no RadicalSum and no LemmaInstance (every lemma and k here is one
    # it admits); R1..R5 share one (q*_j, q*_{j-1}) per k
    rows = []
    ok = True
    depth, plain = args.depth, {}
    lemmas = [(lemma, _LEMMA_MIN_K.get(lemma, 1), lemma[0] == "R") for lemma in LEMMA_IDS]
    for k in args.k_range:
        r_params = {"depth": depth, "qstar": _starred_q(k, depth)}
        for lemma, min_k, is_r in lemmas:
            if k < min_k:
                continue
            gated, c, terms, den = _lemma_row(lemma, k, r_params if is_r else plain)
            sign, digits = _decimal(c, terms, den, 50)
            holds = sign > 0 and not gated
            rows.append(("lemmas", lemma, k, depth if is_r else None, holds, sign, digits))
            ok = ok and holds
    return rows, ok


def _cmd_classical(args) -> tuple[list[tuple], bool]:
    spec = parse_number(args.number)
    value = _exact_input(spec, "classical")
    if isinstance(value, Fraction):
        raise SpecParseError("classical window rules need an irrational input")
    holds = classical_window_check(value, args.rule, args.n)
    return [(render(spec), "classical", args.rule, args.n, holds)], holds


def _cmd_report(args) -> tuple[list[tuple], bool]:
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecParseError(f"cannot read corpus: {exc}")
    rows = []
    ok = True
    bspec = BoundSpec(args.bound, args.k)
    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        spec = parse_number(text)
        value = _exact_input(spec, "report")
        depth = min(args.n, len(expand_rational(value)) - 1) if isinstance(value, Fraction) else args.n
        # the counts need only each row's sign, so no record is built
        signs = [row[3] for row in _scan(value, bspec, depth)]
        applicable = _applicable(value, args.bound, args.k)
        fails = signs.count(1)
        if applicable and fails == len(signs):
            ok = False
        rows.append((render(spec), "report", "summary", args.bound, args.k, args.n,
                     applicable, signs.count(-1), signs.count(0), fails))
    return rows, ok


# ---------------------------------------------------------------------------


def _render(rows: list[tuple], command: str, fmt: str) -> str:
    """Every output line of a command, as one string; each row is a tuple of
    the command's _FIELDS values in order."""
    fields = _FIELDS[command]
    if fmt == "jsonl":  # json.dumps(dict(zip(fields, row))), field by field
        heads = [(", " if i else "{") + json.dumps(f) + ": " for i, f in enumerate(fields)]
        encoder, dumps = _JSON_ENCODERS.get, json.dumps
        lines = []
        for row in rows:
            for h, v in zip(heads, row):
                lines.append(h)
                lines.append(encoder(type(v), dumps)(v))
            lines.append("}\n")
        return "".join(lines)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


# the field encoder: values of these types as json.dumps writes them, others by json.dumps
_JSON_ENCODERS = {str: encode_basestring_ascii, int: int.__repr__, type(None): {None: "null"}.get,
                  bool: {True: "true", False: "false"}.get}


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(str(x) for x in v)
    return v


@cache  # built on the first command, then reused by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfbounds",
        description="Exact continued-fraction expansion and approximation-bound checks.",
    )
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="canonical continued fraction of a number")
    p.add_argument("number")

    p = sub.add_parser("convergents", help="convergents p_n/q_n up to index n")
    p.add_argument("number")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="exact outcome of |x - p/q| against a bound")
    p.add_argument("number")
    p.add_argument("--bound", choices=BOUND_KINDS, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("classify-equality", help="equality indices and extremal class")
    p.add_argument("number")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lemmas", help="exact certificates for the proof-case inequalities")
    p.add_argument("--k-range", type=_parse_k_range, required=True, metavar="A..B")
    p.add_argument("--depth", type=int, default=1)

    p = sub.add_parser("classical", help="window checks for the classical refinements")
    p.add_argument("number")
    p.add_argument("--rule", choices=tuple(_WINDOW_RULES), required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("report", help="summary scan over a corpus file of number specs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bound", choices=BOUND_KINDS, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)

    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "convergents": _cmd_convergents,
    "verify": _cmd_verify,
    "classify-equality": _cmd_classify,
    "lemmas": _cmd_lemmas,
    "classical": _cmd_classical,
    "report": _cmd_report,
}


def main(argv=None, out=None) -> int:
    """Run one command and return its exit code.

    CPython 3.10.7 and later refuse to convert an int of more than 4,300
    digits to or from a decimal string; a spec's integers and the p, q of a
    deep scan have no such bound, so the limit is lifted while ``main`` runs
    and the caller's limit restored after.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv, out)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv, out) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    if args.command in ("verify", "report") and args.bound in _NEEDS_K and args.k is None:
        parser.error(f"--bound {args.bound} requires --k")
    if args.command == "classify-equality" or getattr(args, "bound", None) in _NEEDS_K:
        if args.k < 1:
            parser.error("--k must be >= 1")
    if getattr(args, "n", 0) < 0:
        parser.error("--n must be >= 0")
    if getattr(args, "depth", 1) < 1:
        parser.error("--depth must be >= 1")
    if args.command == "classical":
        width = _WINDOW_RULES[args.rule][1]
        if args.n < width - 1:
            parser.error(f"--rule {args.rule} needs --n >= {width - 1} to check one window")
    # every line is rendered before any is written, so a failure leaves stdout empty
    try:
        rows, ok = _HANDLERS[args.command](args)
        text = _render(rows, args.command, args.format)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IdentityMismatch, ArithmeticError) as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 4
    out.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
