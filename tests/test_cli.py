"""CLI behavior: schemas, determinism, exit codes."""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds import cf, cli, exact, verify
from cfbounds.cf import IdentityMismatch
from cfbounds.cli import main
from cfbounds.exact import QuadSurd, RadicalSum
from cfbounds.specparse import parse_number
from cfbounds.verify import classical_window_check
from conftest import recording_g_enclosure

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_expand_rational():
    code, out = run_cli(["expand", "rat:10/7"])
    assert code == 0
    row = json.loads(out)
    assert row["cf"] == "[1;2,3]"
    assert row["command"] == "expand"


def test_expand_periodic_reports_exact_surd():
    code, out = run_cli(["expand", "cf:[0;(1)]"])
    assert code == 0
    assert json.loads(out)["exact"] == "surd:(-1+1*sqrt(5))/2"


def test_convergents_schema():
    code, out = run_cli(["convergents", "surd:(0+1*sqrt(2))/1", "--n", "3"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 4
    assert [r["q"] for r in rows] == [1, 2, 5, 12]
    assert all(set(r) == {"input", "command", "n", "p", "q"} for r in rows)


def test_verify_equality_parity_lines():
    code, out = run_cli(
        ["verify", "surd:(-1+1*sqrt(5))/2", "--bound", "refined_f", "--k", "1", "--n", "9"]
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 10
    for r in rows:
        if r["n"] % 2 == 1:
            assert r["outcome"] == "Holds_Equal" and r["margin_sign"] == 0


def test_verify_schema_is_stable():
    _, out = run_cli(["verify", "rat:10/7", "--bound", "dirichlet", "--n", "2"])
    for line in out.splitlines():
        assert list(json.loads(line)) == [
            "input", "command", "bound", "k", "n", "p", "q",
            "outcome", "margin_sign", "margin_decimal_50",
        ]


def test_classify_equality_summary():
    code, out = run_cli(["classify-equality", "surd:(0+1*sqrt(2))/1", "--k", "2", "--n", "8"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    summary = rows[-1]
    assert summary["type"] == "summary"
    assert summary["equality_class"] == "alpha1"
    assert summary["equal_indices"] == [1, 3, 5, 7]


def test_lemmas_range():
    code, out = run_cli(["lemmas", "--k-range", "2..4", "--depth", "3"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert all(r["holds"] for r in rows)
    assert any(r["lemma"] == "R5" for r in rows)


def test_lemmas_sign_each_margin_once(monkeypatch):
    # each row's sign and digits come from one decision on its margin's
    # integers: the one-radical routine, or else one enclosure (None where it
    # proves the margin zero)
    signed = []
    enclose, surd_decimal = exact._enclose, exact._surd_decimal

    def recording_enclose(c, terms, need):
        enc = enclose(c, terms, need)
        signed.append(("enclose", enc[0] if enc else 0))
        return enc

    def recording_surd_decimal(*args):
        sign, digits = surd_decimal(*args)
        signed.append(("surd", sign))
        return sign, digits

    monkeypatch.setattr(exact, "_enclose", recording_enclose)
    monkeypatch.setattr(exact, "_surd_decimal", recording_surd_decimal)
    code, out = run_cli(["lemmas", "--k-range", "1..4", "--depth", "2"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["margin_sign"] for r in rows] == [sign for _, sign in signed]
    # L0's and L2's margins hold two radicals; every other one holds one
    assert [route for route, _ in signed] == [
        "enclose" if r["lemma"] in ("L0_limit", "L2_caseH") else "surd" for r in rows]


def test_lemmas_rows_equal_check_lemma():
    # the CLI renders each row from _lemma_row's integers, not made
    # canonical; check_lemma's canonical RadicalSum must give the same row
    for depth in range(1, 7):
        code, out = run_cli(["lemmas", "--k-range", "1..60", "--depth", str(depth)])
        assert code == (1 if depth % 2 else 0)
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 60 * 10 - 5  # R2 needs k >= 3, R3..R5 k >= 2
        for r in rows:
            params = {"depth": depth} if r["depth"] is not None else {}
            holds, margin = verify.check_lemma(verify.LemmaInstance(r["lemma"], r["k"], params))
            got = (r["holds"], r["margin_sign"], r["margin_decimal_50"])
            assert got == (holds, margin.sign(), margin.decimal(50)), (r["lemma"], r["k"], depth)


def test_lemmas_exit_1_on_failing_case():
    code, out = run_cli(["lemmas", "--k-range", "1..1", "--depth", "1"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 1  # the k=1 final-case ratio genuinely dips below its limit
    assert any(r["lemma"] == "R1" and not r["holds"] for r in rows)


def _golden() -> dict:
    return json.loads((ROOT / "cfbench" / "data" / "golden.json").read_text(encoding="utf-8"))


def _replay_golden(prefix, count):
    # the benchmark's golden copy of each command that starts with prefix:
    # the exit code, the line count and the SHA-256 of stdout
    commands = {key: want for key, want in _golden()["commands"].items() if key.startswith(prefix + " ")}
    assert len(commands) == count
    for key, want in commands.items():
        code, out = run_cli(key.split())
        got = {"exit": code, "lines": out.count("\n"), "sha256": hashlib.sha256(out.encode()).hexdigest()}
        assert got == want, key


def test_lemmas_match_golden_copy():
    _replay_golden("lemmas", 20)  # k = 1..100 at depths 1..20


@pytest.mark.parametrize("prefix, count", [("verify", 6), ("classify-equality", 18)])
def test_scans_match_golden_copy(prefix, count):
    # verify at depths 250 and 498..502, and classify-equality over 18
    # integer translates of the k = 2 families, at depth 400
    _replay_golden(prefix, count)


def test_report_matches_golden_copy():
    # the benchmark's golden SHA-256 of each report line, over the whole
    # corpus pool (600 surds) under both of its bounds, at n = 30
    pool = ROOT / "cfbench" / "data" / "corpus_pool.txt"
    tables = _golden()["report_rows"]
    assert len(tables) == 2
    for key, want in tables.items():
        command, *rest = key.split()
        code, out = run_cli([command, "--corpus", str(pool), *rest])
        got = [hashlib.sha256(line.encode()).hexdigest() for line in out.splitlines(keepends=True)]
        assert code == 0 and len(want) == 600 and got == want, key


def test_classical_rule():
    code, out = run_cli(
        ["classical", "surd:(1+1*sqrt(5))/2", "--rule", "borel_triples", "--n", "12"]
    )
    assert code == 0 and json.loads(out)["holds"] is True


@pytest.mark.parametrize(
    "rule, width", [("vahlen_pairs", 2), ("borel_triples", 3), ("hancl_nair_triples", 3)]
)
def test_classical_rejects_n_below_one_window(rule, width, capsys):
    # n = width - 2 gives width - 1 convergents: no window, so no verdict
    argv = ["classical", "surd:(1+1*sqrt(5))/2", "--rule", rule, "--n", str(width - 2)]
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    assert exc.value.code == 2
    assert f"--n >= {width - 1}" in capsys.readouterr().err
    with pytest.raises(ValueError):
        classical_window_check(QuadSurd.make(1, 1, 2, 5), rule, width - 2)
    code, out = run_cli(argv[:-1] + [str(width - 1)])  # exactly one window
    assert code == 0 and json.loads(out)["holds"] is True


def test_expand_dec_has_no_exact_value():
    code, out = run_cli(["expand", "dec:1.5~3"])
    row = json.loads(out)
    assert code == 0
    assert list(row) == ["input", "command", "cf", "exact"]
    assert row["exact"] is None and row["cf"] == "[1;2]"
    code, out = run_cli(["--format", "csv", "expand", "dec:1.5~3"])
    assert code == 0 and out.splitlines()[1].endswith(",")


@pytest.mark.parametrize(
    "target, argv, exc",
    [
        ("_lemma_row", ["lemmas", "--k-range", "2..2"], ArithmeticError("closed form")),
        (
            "verify_bound_scan",
            ["verify", "surd:(1+1*sqrt(5))/2", "--bound", "hurwitz", "--n", "3"],
            IdentityMismatch("error identity failed"),
        ),
    ],
)
def test_exit_4_on_failed_internal_check(monkeypatch, capsys, target, argv, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    code, out = run_cli(argv)
    assert code == 4 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


@pytest.mark.parametrize(
    "owner, name, make, code, message",
    [
        (verify, "_purely_periodic_value", _off_by_one, 4, "closed form for the limit of H does not match"),
        (verify, "_purely_periodic_value", lambda fn: _raising(IdentityMismatch("periodic tail")), 4,
         "periodic tail"),
        (verify, "alpha1", _off_by_one, 4, "closed form for the odd-block limit does not match"),
        (RadicalSum, "inverse", _off_by_one, 4, "pre-squared margin display does not match"),
        # ZeroDivisionError is an ArithmeticError too, but exits 3
        (RadicalSum, "inverse", lambda fn: _raising(ZeroDivisionError("division by zero")), 3,
         "division by zero"),
    ],
)
def test_closed_form_certification_failure_exits_nonzero(monkeypatch, capsys, owner, name, make, code,
                                                         message):
    # L2's, L3's and L4's closed forms are certified once per process, and
    # a success is cached: clear it so this command certifies, and after,
    # so that no later command skips the certification
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    verify._certify_closed_forms.cache_clear()
    try:
        got, out = run_cli(["lemmas", "--k-range", "1..3"])
    finally:
        verify._certify_closed_forms.cache_clear()
    assert (got, out) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message)


def test_exit_4_when_decimal_endpoints_round_apart(monkeypatch, capsys):
    # endpoints more than one digit apart would mean the precision bound broke
    round_pair = exact._round_pair

    def widen(*args):
        e, a, b = round_pair(*args)
        return e, a, b + 2

    monkeypatch.setattr(exact, "_round_pair", widen)
    code, out = run_cli(["verify", "surd:(1+1*sqrt(5))/2", "--bound", "hurwitz", "--n", "3"])
    assert code == 4 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_a_failure_while_rendering_leaves_stdout_empty(monkeypatch, capsys):
    # every line is rendered before any is written: the field encoder fails
    # on the third row, after two whole rows (n, p and q are ints)
    encode, encoded = cli._JSON_ENCODERS[int], []

    def failing(value):
        encoded.append(value)
        if len(encoded) == 7:
            raise ValueError("cannot render")
        return encode(value)

    monkeypatch.setitem(cli._JSON_ENCODERS, int, failing)
    code, out = run_cli(["convergents", "rat:355/113", "--n", "2"])
    assert code == 3 and out == "" and encoded == [0, 3, 1, 1, 22, 7, 2]
    assert capsys.readouterr().err == "error: cannot render\n"


_JSON_VALUES = st.one_of(
    st.text(st.characters(exclude_categories=())),  # quotes, controls, lone surrogates
    st.integers(),
    st.integers(4301, 4400).flatmap(lambda n: st.sampled_from([10**n + 7, -(10**n) - 7])),
    st.sampled_from([True, False, None]),
    st.lists(st.integers()),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(cli._FIELDS)), st.data())
def test_jsonl_lines_are_the_bytes_of_json_dumps(command, data):
    # the field encoder writes what json.dumps writes for the whole row, a
    # tuple of the command's field values in order; ints above 4,300 digits
    # need the limit that main lifts
    fields = cli._FIELDS[command]
    rows = data.draw(st.lists(st.tuples(*[_JSON_VALUES] * len(fields)), max_size=4))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        want = "".join(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)
        assert cli._render(rows, command, "jsonl") == want
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_report_corpus(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "# golden ratio and friends\n"
        "surd:(1+1*sqrt(5))/2\n"
        "rat:10/7   # rational: scanned but not applicable\n"
        "cf:[0;(2)]\n"
    )
    code, out = run_cli(
        ["report", "--corpus", str(corpus), "--bound", "refined_f", "--k", "1", "--n", "10"]
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 3
    assert [r["applicable"] for r in rows] == [True, False, True]


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_report_builds_no_margin(tmp_path, monkeypatch):
    # every row here is decided in tail form, equality rows included, and
    # report prints no digits, so no RadicalSum is built
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "surd:(1+1*sqrt(5))/2\nsurd:(3+2*sqrt(7))/5\nsurd:(-1+1*sqrt(5))/2\n"
        "rat:355/113\ncf:[0;1,1,(2)]\n"
    )
    counts = {}
    _counting(monkeypatch, RadicalSum, "_assign", counts)
    outs = []
    for flags in (["--bound", "refined_f", "--k", "1"], ["--bound", "hancl_nair"], ["--bound", "hurwitz"]):
        code, out = run_cli(["report", "--corpus", str(corpus), *flags, "--n", "40"])
        assert code == 0 and len(out.splitlines()) == 5
        outs.append(out)
    # alpha1(1) meets refined_f at k = 1 with equality at every odd n
    assert json.loads(outs[0].splitlines()[2])["holds_equal"] == 20
    assert counts == {}


def test_report_encloses_g_itself_for_few_rows(monkeypatch):
    # a row is first decided against g_inf's window, and only rows whose T
    # meets it enclose g(q) itself: at most 2% of the pool's rows at depth 30
    calls = recording_g_enclosure(monkeypatch)
    pool = ROOT / "cfbench" / "data" / "corpus_pool.txt"
    for flags in (["--bound", "refined_f", "--k", "1"], ["--bound", "hancl_nair"]):
        calls.clear()
        code, out = run_cli(["report", "--corpus", str(pool), *flags, "--n", "30"])
        assert code == 0 and len(out.splitlines()) == 600
        assert len(calls) <= 0.02 * 600 * 31, flags


def test_scanning_commands_expand_nothing(tmp_path, monkeypatch):
    # a scan reads x's states only up to its depth, and the applicability
    # check at k >= 2 only up to the first period quotient >= k
    spec = "surd:(1+1*sqrt(5))/2"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(spec + "\nrat:355/113\n")
    counts = {}
    _counting(monkeypatch, cli, "expand_surd", counts)
    _counting(monkeypatch, cf, "expand_surd", counts)
    for argv in (["classical", spec, "--rule", "borel_triples", "--n", "10"],
                 ["classify-equality", spec, "--k", "2", "--n", "10"],
                 ["verify", spec, "--bound", "refined_f", "--k", "1", "--n", "10"],
                 ["report", "--corpus", str(corpus), "--bound", "refined_f", "--k", "1", "--n", "10"],
                 ["verify", spec, "--bound", "refined_f", "--k", "2", "--n", "10"],
                 ["convergents", spec, "--n", "10"]):
        code, _ = run_cli(argv)
        assert code == 0 and counts == {}, argv


# sqrt(100000000000031) has a period of 6,300,568 states
_LONG_PERIOD = "surd:(0+1*sqrt(100000000000031))/1"


@pytest.mark.parametrize("argv", [
    ["verify", _LONG_PERIOD, "--bound", "hurwitz"],
    ["verify", _LONG_PERIOD, "--bound", "refined_f", "--k", "1"],
    ["classify-equality", _LONG_PERIOD, "--k", "2"],
    ["classical", _LONG_PERIOD, "--rule", "borel_triples"],
    ["report", "--bound", "hancl_nair"],
    ["convergents", _LONG_PERIOD],
    ["verify", _LONG_PERIOD, "--bound", "nathanson", "--k", "3"],
    ["verify", _LONG_PERIOD, "--bound", "refined_f", "--k", "2"],
    ["report", "--bound", "refined_f", "--k", "2"],
])
def test_scans_of_a_long_period_read_only_their_depth(tmp_path, argv):
    if argv[0] == "report":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(_LONG_PERIOD + "\n")
        argv = [*argv, "--corpus", str(corpus)]
    code, out = run_cli([*argv, "--n", "20"])
    assert code == 0 and out
    if argv[0] in ("verify", "classify-equality", "convergents"):
        assert [json.loads(line)["n"] for line in out.splitlines()[:21]] == list(range(21))


@pytest.mark.parametrize("k, code", [(3, 1), (4, 0)])
def test_claim_fails_only_where_nathanson_applies(tmp_path, k, code):
    # every convergent up to n = 2 fails; the period (3) has a quotient >= 3, not >= 4
    spec = "cf:[0;1,1,1,1,(3)]"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(spec + "\n")
    flags = ["--bound", "refined_f", "--k", str(k), "--n", "2"]
    got, out = run_cli(["report", "--corpus", str(corpus), *flags])
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert got == code and row["applicable"] is (k == 3) and row["fails"] == 3
    got, out = run_cli(["verify", spec, *flags])
    assert got == code
    assert [json.loads(line)["outcome"] for line in out.splitlines()] == ["Fails"] * 3


def test_report_clamps_rational_lines_to_their_last_convergent(tmp_path):
    # report scans a rational line only up to its last convergent, while
    # verify rejects a depth past it
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("rat:10/7\n")
    code, out = run_cli(
        ["report", "--corpus", str(corpus), "--bound", "refined_f", "--k", "1", "--n", "50"]
    )
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and row["n"] == 50 and row["applicable"] is False
    assert row["holds_strict"] + row["holds_equal"] + row["fails"] == 3
    code, out = run_cli(["verify", "rat:10/7", "--bound", "refined_f", "--k", "1", "--n", "50"])
    assert code == 3 and out == ""


def test_report_rejects_dec_lines(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("surd:(1+1*sqrt(5))/2\ndec:1.41~2\n")
    code, out = run_cli(
        ["report", "--corpus", str(corpus), "--bound", "refined_f", "--k", "1", "--n", "10"]
    )
    assert code == 3 and out == ""


def test_csv_has_header():
    code, out = run_cli(["--format", "csv", "convergents", "rat:10/7", "--n", "2"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "input,command,n,p,q"
    assert len(lines) == 4


def test_classify_equality_sees_through_a_hidden_square():
    # alpha1(103) over 10007^2 * 10613: square_free_split keeps the square
    code, out = run_cli(["classify-equality", "surd:(-1030721+1*sqrt(1062786340037))/20014",
                         "--k", "103", "--n", "3"])
    summary = json.loads(out.splitlines()[-1])
    assert code == 0 and summary["equality_class"] == "alpha1"


def _largest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p:
            p += 1
        else:
            n //= p
    return n


# k whose k^2 + 4 has a prime factor above 10^4, so that a planted p^2 with
# p > 10^4 stays hidden in the spec's radicand
_ROUGH_K = [k for k in range(100, 300) if _largest_prime_factor(k * k + 4) > 10**4]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_ROUGH_K),
    st.sampled_from([cf.alpha1, cf.alpha2]),
    st.integers(-5, 5),
    st.sampled_from([10007, 10009, 10037, 10039]),
)
def test_classify_equality_is_unmoved_by_a_planted_square(k, family, t, p):
    x = family(k) + t
    plain = f"surd:({x.a}{x.b:+d}*sqrt({x.d}))/{x.c}"
    planted = f"surd:({x.a * p}{x.b:+d}*sqrt({x.d * p * p}))/{x.c * p}"
    assert parse_number(planted).parsed.d == x.d * p * p  # the square stays hidden
    summaries = []
    for spec in (plain, planted):
        code, out = run_cli(["classify-equality", spec, "--k", str(k), "--n", "3"])
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        summaries.append((summary["equality_class"], summary["equal_indices"]))
    assert summaries[0][0] == family.__name__
    assert summaries[1] == summaries[0]


def test_two_commands_build_one_parser():
    cli.build_parser.cache_clear()
    run_cli(["expand", "rat:10/7"])
    run_cli(["expand", "rat:3/2"])
    assert cli.build_parser.cache_info().misses == 1


def test_classify_csv_rows():
    code, out = run_cli(
        ["--format", "csv", "classify-equality", "surd:(0+1*sqrt(2))/1", "--k", "2", "--n", "4"]
    )
    lines = out.splitlines()
    assert code == 0 and len(lines) == 7
    assert lines[0] == ",".join(cli._FIELDS["classify-equality"])
    assert all(line.split(",")[2] == "detail" and line.endswith(",,") for line in lines[1:-1])
    assert lines[-1] == "surd:(0+1*sqrt(2))/1,classify-equality,summary,2,,,,,,,alpha1,1;3"


def _csv_rows(argv) -> tuple[int, list[dict]]:
    code, out = run_cli(["--format", "csv", *argv])
    lines = out.splitlines()
    return code, [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_csv_writes_booleans_as_words_and_none_as_an_empty_cell(tmp_path):
    # lemmas at k = 1, depth 1: R1 fails, the rest hold; only R rows have a depth
    code, rows = _csv_rows(["lemmas", "--k-range", "1..1", "--depth", "1"])
    assert code == 1 and len(rows) == 6
    assert [(r["lemma"], r["holds"], r["depth"]) for r in rows] == [
        ("L0_limit", "true", ""), ("L1_case1", "true", ""), ("L2_caseH", "true", ""),
        ("L3_odd_block", "true", ""), ("L4_AB_margin", "true", ""), ("R1", "false", "1")]
    # report without --k: k is None; a rational is not applicable
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("surd:(1+1*sqrt(5))/2\nrat:10/7\n")
    code, rows = _csv_rows(["report", "--corpus", str(corpus), "--bound", "hurwitz", "--n", "5"])
    assert code == 0
    assert [(r["k"], r["applicable"]) for r in rows] == [("", "true"), ("", "false")]
    code, rows = _csv_rows(["classical", "surd:(1+1*sqrt(5))/2", "--rule", "borel_triples", "--n", "6"])
    assert code == 0 and [r["holds"] for r in rows] == ["true"]


@pytest.mark.parametrize("text", ["5..2", "0..3", "1-3", "a..b", "1.."])
def test_malformed_k_range_is_a_usage_error(text, capsys):
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--k-range", text], out=buf)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and buf.getvalue() == "" and captured.out == ""
    assert captured.err.endswith("error: argument --k-range: expected A..B with 1 <= A <= B\n")


def test_reruns_are_byte_identical():
    argv = ["verify", "cf:[0;(2)]", "--bound", "refined_f", "--k", "2", "--n", "12"]
    assert run_cli(argv) == run_cli(argv)


def test_exit_3_on_bad_spec():
    code, _ = run_cli(["expand", "rat:1/0"])
    assert code == 3


def test_exit_3_on_dec_in_exact_command():
    code, _ = run_cli(["verify", "dec:1.41~2", "--bound", "hurwitz", "--n", "3"])
    assert code == 3


def test_refusals_without_a_position_print_none(tmp_path, capsys):
    # a refused input or an unreadable corpus has no position in any spec
    missing = str(tmp_path / "missing.txt")
    for argv, message in [
        (["classify-equality", "rat:1/2", "--k", "1", "--n", "3"],
         "classify-equality needs an irrational input"),
        (["verify", "dec:1.41~2", "--bound", "hurwitz", "--n", "3"],
         "dec: inputs carry finite precision; verify needs an exact value"),
        (["classical", "rat:1/2", "--rule", "vahlen_pairs", "--n", "3"],
         "classical window rules need an irrational input"),
    ]:
        code, out = run_cli(argv)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"
    code, out = run_cli(["report", "--corpus", missing, "--bound", "hurwitz", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 3 and out == "" and err.startswith("error: cannot read corpus: ")
    assert "position" not in err
    code, out = run_cli(["expand", "rat:1/0"])
    assert code == 3 and capsys.readouterr().err == "error: zero denominator (at position 6)\n"


def test_exit_2_on_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "rat:1/2"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "rat:1/2", "--bound", "refined_f", "--n", "3"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # out-of-range counts are usage errors, not malformed specs (exit 3)
    for argv in (
        ["verify", "rat:1/2", "--bound", "dirichlet", "--n", "-1"],
        ["convergents", "rat:1/2", "--n", "-1"],
        ["classical", "surd:(1+1*sqrt(5))/2", "--rule", "borel_triples", "--n", "-1"],
        ["lemmas", "--k-range", "1..2", "--depth", "0"],
        ["verify", "rat:1/2", "--bound", "nathanson", "--k", "0", "--n", "3"],
        ["verify", "rat:1/2", "--bound", "refined_f", "--k", "0", "--n", "3"],
        ["report", "--corpus", "unused.txt", "--bound", "refined_f", "--k", "0", "--n", "3"],
        ["classify-equality", "surd:(0+1*sqrt(2))/1", "--k", "0", "--n", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# integers on both sides of CPython's 4,300-digit int/str limit
_DIGITS = [1, 30, 4299, 4300, 4301, 4400]


def _big(draw, digits=_DIGITS) -> int:
    n = draw(st.sampled_from(digits))
    return draw(st.integers(10 ** (n - 1), 10**n - 1))


@st.composite
def _spec(draw) -> str:
    kind = draw(st.sampled_from(["rat", "rat-big-den", "surd", "cf", "bad-den", "bad-root", "bad-text"]))
    if kind == "surd":
        # m^2 + e has a period of length at most 2, so R may have any size
        m, e = _big(draw, [1, 15, 2150, 2151, 2200]) + 1, draw(st.sampled_from([1, 2, -1]))
        return f"surd:({draw(st.integers(-9, 9))}+1*sqrt({m * m + e}))/1"
    if kind == "cf":  # large partial quotients make p and q long at small n
        return f"cf:[{_big(draw)};{_big(draw)},({_big(draw)})]"
    a = _big(draw)
    if kind == "rat":
        return f"rat:{draw(st.sampled_from(['', '-']))}{a}/{draw(st.integers(1, 99))}"
    if kind == "rat-big-den":
        return f"rat:{a}/{_big(draw)}"
    if kind == "bad-den":
        return f"rat:{a}/0"
    if kind == "bad-root":
        return f"surd:(1+{a}*sqrt(-3))/2"
    return f"rat:{a}/{a}x"


@st.composite
def _argv(draw, corpus: str) -> list[str]:
    spec, n = draw(_spec()), str(draw(st.integers(-1, 4)))
    bound = draw(st.sampled_from([["--bound", "hancl_nair"], ["--bound", "refined_f", "--k", "2"],
                                  ["--bound", "nathanson", "--k", "1"], ["--bound", "borel"]]))
    command = draw(st.sampled_from(["expand", "convergents", "verify", "classify", "classical", "report"]))
    if command == "expand":
        return ["expand", spec]
    if command == "convergents":
        return ["convergents", spec, "--n", n]
    if command == "verify":
        return ["verify", spec, *bound, "--n", n]
    if command == "classify":
        return ["classify-equality", spec, "--k", "2", "--n", n]
    if command == "classical":
        return ["classical", spec, "--rule", "borel_triples", "--n", n]
    Path(corpus).write_text(spec + "\n", encoding="utf-8")
    return ["report", "--corpus", corpus, *bound, "--n", n]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_failure_maps_to_its_exit_code_whatever_the_integer_size(data):
    # exit codes 0..4 only, no traceback and no refusal for the digit limit,
    # nothing on stdout for 2, 3 and 4, and the caller's limit restored
    limit = sys.get_int_max_str_digits()
    with tempfile.TemporaryDirectory() as tmp:
        sys.set_int_max_str_digits(0)  # to write the specs
        try:
            argv = data.draw(_argv(str(Path(tmp) / "corpus.txt")))
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv, out=out)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue() and "limit" not in err.getvalue(), argv
    assert code < 2 or out.getvalue() == ""
    assert code > 1 or out.getvalue()
    assert sys.get_int_max_str_digits() == limit


def test_integers_past_the_digit_limit_convert_both_ways():
    # R = 10^200 + 1: the convergents of sqrt(R) pass 4,300 digits by n = 50,
    # and a rat: numerator of 4,400 digits parses
    code, out = run_cli(["verify", f"surd:(0+1*sqrt({10**200 + 1}))/1", "--bound", "refined_f",
                         "--k", "2", "--n", "50"])
    assert code == 0 and len(out.splitlines()) == 51
    code, out = run_cli(["expand", "rat:7" + "0" * 4398 + "1/3"])
    assert code == 0 and json.loads(out)["cf"].startswith("[2" + "3" * 4399 + ";")
