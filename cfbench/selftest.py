"""Fast self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 cfbench/selftest.py

Checks that
* BENCHMARK.json names exactly the workloads and metrics run.py emits;
* golden matching passes on identical output, fails on a changed digest or
  exit code, and matches committed golden entries, including report rows
  drawn in another order;
* traced spans nest: every child lies inside its parent, siblings do not
  overlap, self times add up to the root spans, and every sign call has
  exactly one decision path.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        expect(listed == list(table), f"BENCHMARK.json {key} matches run.py")


def check_golden(deadline: float) -> None:
    pool = run.POOL.read_text(encoding="utf-8").splitlines()
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    rows = [5, 0, 2]
    corpus = run.OUT / "selftest-corpus.txt"
    run.OUT.mkdir(exist_ok=True)
    corpus.write_text("".join(pool[i] + "\n" for i in rows), encoding="utf-8")
    bound = run.REPORT_BOUNDS[1]
    tiny = [
        run.command(run.verify_argv(6)),
        run.command(["lemmas", "--k-range", "1..3", "--depth", "1"]),
        run.command(["report", "--corpus", str(corpus), *bound, "--n", str(run.CORPUS_N)],
                    run.report_key(bound), rows),
    ]
    first = run.spawn(tiny, deadline)
    own = {"commands": {c["key"]: got for c, got in zip(tiny, first["commands"])},
           "report_rows": golden["report_rows"]}
    expect(first["commands"][1]["exit"] == 1, "lemmas at k=1, depth 1 exits 1 (R1 fails there)")
    second = run.spawn(tiny, deadline)
    expect(run.check(tiny, second, own) == [] and second["commands"][2]["lines"] == len(rows),
           "a second fresh run matches the first, and report rows drawn out of order "
           "match the committed per-row golden")
    tampered = json.loads(json.dumps(own))
    tampered["commands"][tiny[0]["key"]]["sha256"] = "0" * 64
    tampered["commands"][tiny[1]["key"]]["exit"] = 0
    expect(run.check(tiny, second, tampered) == [tiny[0]["key"], tiny[1]["key"]],
           "a changed digest and a changed exit code are both caught")
    committed = [run.command(run.lemma_argv(1))]
    expect(run.check(committed, run.spawn(committed, deadline), golden) == [],
           "lemmas at depth 1 matches the committed golden copy")


def check_spans(deadline: float) -> None:
    spans_out = run.OUT / "selftest-spans.jsonl"
    corpus = run.OUT / "selftest-corpus.txt"
    tiny = [
        run.command(run.verify_argv(6)),
        run.command(run.classify_argv("alpha2", 1)[:-1] + ["6"]),
        run.command(["lemmas", "--k-range", "1..2", "--depth", "2"]),
        run.command(["report", "--corpus", str(corpus), "--bound", "hancl_nair", "--n", "4"]),
    ]
    report = run.spawn(tiny, deadline, trace=True, keep_depth=None, spans_out=spans_out)
    spans = [json.loads(line) for line in spans_out.read_text(encoding="utf-8").splitlines()]
    layers = report["layers"]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    inside = all(
        s["start_ns"] <= s["end_ns"]
        and (s["parent"] == -1 or by_id[s["parent"]]["start_ns"] <= s["start_ns"]
             and s["end_ns"] <= by_id[s["parent"]]["end_ns"])
        for s in spans
    )
    expect(inside, f"all {len(spans)} spans lie inside their parents")
    disjoint = all(
        a["end_ns"] <= b["start_ns"]
        for kids in children.values()
        for a, b in zip(sorted(kids, key=lambda s: s["start_ns"]),
                        sorted(kids, key=lambda s: s["start_ns"])[1:])
    )
    expect(disjoint, "sibling spans do not overlap")
    roots = [s for s in spans if s["parent"] == -1]
    expect([s["name"] for s in roots] == ["cli"] * len(tiny), "one cli root span per command")
    expect(all(layers[f"{name}.calls"] == sum(s["name"] == name for s in spans)
               for name in run.SPANS), "per-layer call counts equal the recorded spans")
    root_ns = sum(s["end_ns"] - s["start_ns"] for s in roots)
    self_ns = sum(layers[f"{name}.self_s"] for name in run.SPANS) * 1e9
    expect(abs(self_ns - root_ns) <= 1e-6 * root_ns + 10,
           "self times of all layers add up to the root spans")
    paths = sum(layers[f"exact.sign.path.{p}"] for p in run.SIGN_PATHS)
    expect(paths == layers["exact.RadicalSum.sign.calls"] > 0,
           "every sign call has exactly one decision path")
    expect(layers["exact.RadicalSum.inverse.rounds"] > 0 and layers["fractions.Fraction.new.calls"] > 0,
           "inverse rounds and Fraction constructions are counted")


def main() -> int:
    if not (run.SRC / "cfbounds" / "__init__.py").is_file():
        print(f"error: no cfbounds sources under {run.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 120
    check_manifest()
    check_golden(deadline)
    check_spans(deadline)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
