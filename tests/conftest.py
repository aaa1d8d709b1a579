import random
from fractions import Fraction
from math import isqrt

import pytest

from cfbounds import verify
from cfbounds.bounds import bound_g
from cfbounds.cf import _error_term
from cfbounds.exact import QuadSurd, RadicalSum


def make_random_surd(rng: random.Random, dmax: int = 400) -> QuadSurd:
    """A uniformly-messy quadratic irrational (a + b*sqrt(d))/c."""
    while True:
        d = rng.randint(2, dmax)
        if isqrt(d) ** 2 == d:
            continue
        a = rng.randint(-30, 30)
        b = rng.choice([-1, 1]) * rng.randint(1, 12)
        c = rng.choice([-1, 1]) * rng.randint(1, 25)
        return QuadSurd.make(a, b, c, d)


@pytest.fixture
def rng():
    return random.Random(20260826)


def g_value(spec, q: int) -> RadicalSum:
    """g(q) of the threshold 1/(q^2 g(q)), from bound_g, as a canonical RadicalSum."""
    c, terms, den = bound_g(spec, q)
    return RadicalSum(Fraction(c, den), [(Fraction(n, den), r) for r, n in terms])


def direct_margin(x, spec, p: int, q: int) -> RadicalSum:
    """Oracle for a scan row's margin |x - p/q| - 1/(q^2 g(q)), built directly:
    the error from x's integers, the threshold by inverting g(q)."""
    return _error_term(x, p, q) - g_value(spec, q).inverse() * Fraction(1, q * q)


def recording_g_enclosure(monkeypatch) -> list[int]:
    """Patch the scan's g enclosure to record each q at which g(q) itself is
    enclosed; the scan's one call at q = 2^bits, past the cut, reads g_inf."""
    calls = []
    make = verify.g_enclosure

    def recording(spec, bits):
        enc = make(spec, bits)

        def wrapped(q):
            if q != 1 << bits:
                calls.append(q)
            return enc(q)

        return wrapped

    monkeypatch.setattr(verify, "g_enclosure", recording)
    return calls
