"""Exact continued fractions and rational-approximation bound checks.

Everything is computed in exact arithmetic: rationals as
:class:`fractions.Fraction`, real quadratic irrationals as
:class:`~cfbounds.exact.QuadSurd`, and comparisons between sums of
square roots via :class:`~cfbounds.exact.RadicalSum`, whose sign is
decided with certified integer interval arithmetic (never floats).
"""
from .bounds import BOUND_KINDS, BoundSpec, Outcome, f_value
from .cf import (
    CFExpansion,
    Convergent,
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
from .exact import (
    MixedFieldError,
    QuadSurd,
    RadicalSum,
    UnsupportedExpressionError,
    square_free_split,
)
from .specparse import DecPrefix, NumberSpec, SpecParseError, parse_number, render
from .verify import (
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
)

__version__ = "1.0.0"

# the continued-fraction engine is pure Python; benchmark provenance records this
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BOUND_KINDS",
    "BoundSpec",
    "CFExpansion",
    "Convergent",
    "DecPrefix",
    "LEMMA_IDS",
    "LemmaInstance",
    "MixedFieldError",
    "NumberSpec",
    "Outcome",
    "QuadSurd",
    "RadicalSum",
    "SpecParseError",
    "UnsupportedExpressionError",
    "VerificationRecord",
    "alpha1",
    "alpha2",
    "cf_value",
    "check_lemma",
    "classical_window_check",
    "classify_equality",
    "closed_form_pq",
    "convergents",
    "equivalent",
    "error_identity",
    "expand_rational",
    "expand_surd",
    "f_monotone_check",
    "f_value",
    "is_in_F",
    "is_integer_translate",
    "nathanson_applicable",
    "parse_number",
    "render",
    "reversed_tail",
    "square_free_split",
    "tail_value",
    "verify_bound_scan",
]
