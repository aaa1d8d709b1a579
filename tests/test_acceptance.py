"""Acceptance suite: ten end-to-end criteria, each printed as one
pass/fail line with its wall-clock budget enforced.

Criterion 7 asserts every proof-case certificate, with one sub-case pinned
by an exact oracle instead of "holds": the first final case R1 at k = 1.
With d = k^2 + 4, W = (k+1) q1 + q0, R1 compares
x/y = (k + 2 - sqrt d) W / (k q1 + 2 q0 + q1 sqrt d) with 1/sqrt d.  As
y > 0, the margin has the sign of d A^2 - B^2, where
A = (k^2+3k+1) q1 + (k+2) q0 and B = (k^3+k^2+5k+4) q1 + (k^2+6) q0, and

    d A^2 - B^2 = 4 k^2 (q1^2 - k q1 q0 - q0^2) + 4 (k - 1) P

with P a polynomial in k, q1, q0 whose coefficients are all positive
(tests/test_verify.py checks this identity symbolically).  For the starred
convergents q1 = q_j, q0 = q_{j-1} of [0;(k)], Cassini's identity gives
q1^2 - k q1 q0 - q0^2 = (-1)^j.  So at k >= 2 R1 holds at every depth,
while at k = 1 the margin's sign is exactly (-1)^depth: the ratio
alternates around its limit 1/sqrt 5, and R1 fails at every odd depth.
Criterion 7 requires that sign, and a matching verdict, at every k = 1
depth it evaluates.
"""
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

import cfbounds
from cfbounds.bounds import BoundSpec, Outcome, f_value
from cfbounds.cf import alpha1, alpha2, closed_form_pq, convergents, error_identity, expand_surd
from cfbounds.exact import QuadSurd, RadicalSum
from cfbounds.verify import (
    LemmaInstance,
    check_lemma,
    classical_window_check,
    classify_equality,
    nathanson_applicable,
    verify_bound_scan,
)
from conftest import g_value

mpmath.mp.dps = 200


def _report(num: int, ok: bool, budget: float, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} in {elapsed:.2f}s (budget {budget:.0f}s)"
    if detail:
        line += f" - {detail}"
    print(line, file=sys.stderr)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    assert ok, line


def _random_surd_corpus(count: int, seed: int) -> list[QuadSurd]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 300)
        if isqrt(d) ** 2 == d:
            continue
        x = QuadSurd.make(
            rng.randint(-20, 20),
            rng.choice([-1, 1]) * rng.randint(1, 9),
            rng.choice([-1, 1]) * rng.randint(1, 15),
            d,
        )
        out.append(x)
    return out


# shared between criteria 2 and 3
_CORPUS_SCANS: list[tuple[QuadSurd, int, list]] = []


def test_criterion_1_equality_parity():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 11):
        for r in verify_bound_scan(alpha1(k), BoundSpec("refined_f", k), 30):
            want = Outcome.HOLDS_EQUAL if r.n % 2 == 1 else Outcome.FAILS
            if r.n >= 1 and r.outcome is not want:
                ok = False
        if k >= 2:
            for r in verify_bound_scan(alpha2(k), BoundSpec("refined_f", k), 30):
                if r.n >= 2 and r.n % 2 == 0 and r.outcome is not Outcome.HOLDS_EQUAL:
                    ok = False
    _report(1, ok, 5.0, time.perf_counter() - t0, "alpha1 odd-n / alpha2 even-n equality")


def test_criterion_2_equality_uniqueness():
    t0 = time.perf_counter()
    corpus = _random_surd_corpus(400, seed=7)
    equal_hits = 0
    scanned = 0
    for i, x in enumerate(corpus):
        if scanned >= 200:
            break
        k = i % 5 + 1
        if not nathanson_applicable(x, k) or classify_equality(x, k) != "none":
            continue
        records = verify_bound_scan(x, BoundSpec("refined_f", k), 30)
        _CORPUS_SCANS.append((x, k, records))
        equal_hits += sum(r.outcome is Outcome.HOLDS_EQUAL for r in records)
        scanned += 1
    ok = scanned == 200 and equal_hits == 0
    _report(2, ok, 60.0, time.perf_counter() - t0, f"{scanned} surds, {equal_hits} spurious equalities")


def test_criterion_3_dominance():
    t0 = time.perf_counter()
    ok = True
    # threshold comparison: refined strictly below the unrefined threshold,
    # so its g(q) in 1/(q^2 g(q)) is strictly above
    qs = list(range(1, 1001)) + [10**6]
    for k in range(1, 11):
        for q in qs:
            diff = g_value(BoundSpec("refined_f", k), q) - g_value(BoundSpec("nathanson", k), q)
            if diff.sign() <= 0:
                ok = False
    # record-level: refined Holds at (x, n) implies the unrefined bound holds strictly
    pool = [(alpha1(k), k) for k in range(1, 11)] + [(x, k) for x, k, _ in _CORPUS_SCANS[:40]]
    for x, k in pool:
        refined = verify_bound_scan(x, BoundSpec("refined_f", k), 30)
        unrefined = verify_bound_scan(x, BoundSpec("nathanson", k), 30)
        for r, u in zip(refined, unrefined):
            if r.outcome is not Outcome.FAILS and u.outcome is not Outcome.HOLDS_STRICT:
                ok = False
    _report(3, ok, 10.0, time.perf_counter() - t0, "refined bound dominates pointwise and on records")


def test_criterion_4_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 11):
        convs1 = convergents(expand_surd(alpha1(k)), 50)
        for n in range(51):
            if closed_form_pq(k, n, "alpha1") != (convs1[n].p, convs1[n].q):
                ok = False
        if k >= 2:
            convs2 = convergents(expand_surd(alpha2(k)), 50)
            for n in range(1, 51):
                if closed_form_pq(k, n, "alpha2") != (convs2[n].p, convs2[n].q):
                    ok = False
    _report(4, ok, 5.0, time.perf_counter() - t0, "Binet-style p_n, q_n match recurrences, n <= 50")


def test_criterion_5_error_identity():
    t0 = time.perf_counter()
    ok = True
    for x in _random_surd_corpus(50, seed=11):
        cf = expand_surd(x)
        for n in range(0, 31, 3):
            if error_identity(x, cf, n).sign() <= 0:
                ok = False
    _report(5, ok, 30.0, time.perf_counter() - t0, "tail identity equals direct error on 50 surds")


def test_criterion_6_reciprocal_simplification():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 11):
        d = k * k + 4
        for q in range(1, 101):
            # 1/f(q) = (sqrt(d q^2 + 4) - q sqrt(d))/(2q), and f(q) = q^2 g(q)
            reciprocal = RadicalSum(0, [(Fraction(1, 2 * q), d * q * q + 4), (Fraction(-1, 2), d)])
            if (f_value(k, q) * reciprocal - 1).sign() != 0:
                ok = False
            if (f_value(k, q) - g_value(BoundSpec("refined_f", k), q) * (q * q)).sign() != 0:
                ok = False
    for k, q in [(1, 10**6), (5, 999983), (10, 123456)]:
        d = k * k + 4
        oracle = (q * mpmath.sqrt(d) + mpmath.sqrt(d * mpmath.mpf(q) ** 2 + 4)) / (2 * q)
        got = mpmath.mpf(g_value(BoundSpec("refined_f", k), q).decimal(40))
        if abs(got - oracle) > mpmath.mpf(10) ** -12 * oracle:
            ok = False
    _report(6, ok, 5.0, time.perf_counter() - t0, "f(q) * (1/f(q)) = 1 and f(q) = q^2 g(q) symbolically")


def test_criterion_7_proof_lemmas():
    t0 = time.perf_counter()
    bad = []
    for k in range(1, 1001):
        for lemma in ("L0_limit", "L1_case1", "L2_caseH", "L3_odd_block", "L4_AB_margin"):
            holds, _ = check_lemma(LemmaInstance(lemma, k))
            if not holds:
                bad.append((lemma, k))
    for lemma, kmin in [("R1", 1), ("R2", 3), ("R3", 2), ("R4", 2), ("R5", 2)]:
        for k in range(kmin, 101):
            q0, q1 = 0, 1  # q_{-1}, q_0 of [0;(k)]
            for depth in range(1, 21):
                q0, q1 = q1, k * q1 + q0  # now q_{depth-1}, q_depth
                holds, margin = check_lemma(LemmaInstance(lemma, k, {"depth": depth}))
                if lemma == "R1" and k == 1:
                    # exact sign law: sign(margin) = sign(q1^2 - q1 q0 - q0^2),
                    # which is (-1)^depth by Cassini's identity
                    cassini = q1 * q1 - q1 * q0 - q0 * q0
                    want = (cassini > 0) - (cassini < 0)
                    if want == 0 or margin.sign() != want or holds != (want > 0):
                        bad.append((lemma, k, depth))
                elif not holds:
                    bad.append((lemma, k, depth))
    ok = not bad
    _report(7, ok, 120.0, time.perf_counter() - t0,
            f"{len(bad)} wrong instances: {bad[:4]}{'...' if len(bad) > 4 else ''}")


def test_criterion_8_classical_theorems():
    t0 = time.perf_counter()
    ok = True
    hurwitz = BoundSpec("hurwitz")
    for x in _random_surd_corpus(100, seed=13):
        if not classical_window_check(x, "vahlen_pairs", 30):
            ok = False
        if not classical_window_check(x, "borel_triples", 30):
            ok = False
        strict = sum(
            r.outcome is Outcome.HOLDS_STRICT
            for r in verify_bound_scan(x, hurwitz, 30)
        )
        if strict < 10:
            ok = False
    _report(8, ok, 60.0, time.perf_counter() - t0, "Vahlen/Borel windows + Hurwitz witness density")


def test_criterion_9_kernel_soundness():
    t0 = time.perf_counter()
    rng = random.Random(17)
    mism = 0
    for _ in range(10_000):
        c0 = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        terms = [
            (Fraction(rng.randint(-20, 20), rng.randint(1, 9)), rng.randint(2, 400))
            for _ in range(rng.randint(1, 3))
        ]
        r = RadicalSum(c0, terms)
        approx = mpmath.mpf(r.c0.numerator) / r.c0.denominator
        for coeff, rad in r.terms:
            approx += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.sqrt(rad)
        if abs(approx) < mpmath.mpf(10) ** -150:
            continue  # not well-separated; sign decided structurally elsewhere
        if r.sign() != (1 if approx > 0 else -1):
            mism += 1
    zeros_bad = 0
    for _ in range(100):
        s = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        f = rng.randint(2, 1000)
        a = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        z = RadicalSum(0, [(a, s * f * f), (-a * f, s)])
        if z.sign() != 0:
            zeros_bad += 1
    ok = mism == 0 and zeros_bad == 0
    _report(9, ok, 60.0, time.perf_counter() - t0,
            f"{mism} oracle mismatches, {zeros_bad} missed zeros")


CLI_MATRIX = [
    (["expand", "rat:10/7"], 0),
    (["expand", "cf:[0;(1)]"], 0),
    (["convergents", "surd:(0+1*sqrt(2))/1", "--n", "5"], 0),
    (["verify", "surd:(-1+1*sqrt(5))/2", "--bound", "refined_f", "--k", "1", "--n", "9"], 0),
    (["verify", "cf:[0;(2)]", "--bound", "hurwitz", "--n", "10"], 0),
    # all three convergents fail and the period holds a 3 >= k: the claim fails
    (["verify", "cf:[0;1,1,1,1,(3)]", "--bound", "refined_f", "--k", "3", "--n", "2"], 1),
    (["--format", "csv", "convergents", "rat:355/113", "--n", "2"], 0),
    (["classify-equality", "surd:(0+1*sqrt(2))/1", "--k", "2", "--n", "10"], 0),
    (["lemmas", "--k-range", "2..4"], 0),
    (["classical", "surd:(1+1*sqrt(5))/2", "--rule", "borel_triples", "--n", "12"], 0),
    (["expand", "rat:1/0"], 3),
    (["expand", "wat:1"], 3),
    (["verify", "rat:1/2"], 2),
    (["frobnicate"], 2),
]


def test_criterion_10_cli_determinism():
    t0 = time.perf_counter()
    ok = True
    # the child imports the package from the directory this process took it from
    path = [os.path.dirname(os.path.dirname(cfbounds.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, want_code in CLI_MATRIX:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cfbounds", *argv],
                capture_output=True,
                env=env,
            )
            for _ in range(2)
        ]
        if any(r.returncode != want_code for r in runs):
            ok = False
        if runs[0].stdout != runs[1].stdout:
            ok = False
        if want_code == 0 and "--format" not in argv:
            try:
                for line in runs[0].stdout.decode().splitlines():
                    json.loads(line)
            except json.JSONDecodeError:
                ok = False
    _report(10, ok, 10.0, time.perf_counter() - t0, "byte-identical reruns, exit-code contract")
