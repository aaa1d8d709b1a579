"""Alternating parent/change pairs of cfbench runs, summarised per metric.

Run from the root of a checkout, with the change in the working tree:

    python3 tools/bench_pairs.py --parent REF --workloads lemma_sweep,verify_deep \
        --pairs 10 --seconds 40 --seed-base 2801 --out BENCH_n.json

One scratch checkout of REF's committed tree (``git archive``) runs every
sample.  Before each run its ``src/`` is replaced by the side's ``src/``
without bytecode caches: REF's ``src/`` for the parent, the working tree's
for the change.  So the two sides differ in nothing but the program.  Pair i
runs seed ``seed-base + i`` on both sides, the parent first in even pairs
and the change first in odd ones, one run at a time, each as
``python3 cfbench/run.py --workload W --seed S --seconds SEC --trace 0``.

The output holds, per workload and end-to-end metric of ``BENCHMARK.json``,
both sides' values, their medians, the change/parent ratio, the pairs in
which the change was better, the quartiles (``statistics.quantiles``,
exclusive method) and IQR of the parent, and whether the change stays
within the metric's bound; and every run's raw record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def extract(ref: str, dest: Path, *paths: str) -> None:
    """The files of ``ref`` under ``paths`` (all when none), written below dest."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", ref, *paths), check=True)


def copy_src(src: Path, dest: Path) -> None:
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))


def count_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def run_once(checkout: Path, side_src: Path, workload: str, seed: int, seconds: int) -> dict:
    shutil.rmtree(checkout / "src")
    copy_src(side_src, checkout / "src")
    argv = [sys.executable, "cfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    record = {"rc": proc.returncode, "elapsed": round(time.monotonic() - t0, 1)}
    if proc.returncode != 0:
        record["stderr"] = proc.stderr.strip()[-2000:]
        return record
    result = json.loads(proc.stdout.splitlines()[-1])
    record.update(attempted=result["attempted"], failed=result["failed"])
    record.update({k: v["value"] for k, v in result["metrics"].items()})
    return record


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="exclusive")
    c1, _, c3 = statistics.quantiles(change, n=4, method="exclusive")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sign * (cm - pm) / pm
    return {
        "parent": parent,
        "change": change,
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "ratio": round(cm / pm, 3),
        "pairs_change_better": wins,
        "parent_q1_q3": [round(q1, 6), round(q3, 6)],
        "parent_iqr": round(q3 - q1, 6),
        "parent_iqr_over_median": round((q3 - q1) / pm, 3),
        "change_q1_q3": [round(c1, 6), round(c3, 6)],
        "bound": bound,
        "verdict": "within bound" if worse <= bound else "worse than bound",
    }


def pair_runs(checkout: Path, sources: dict, workload: str, seeds: list[int], seconds: int) -> list[dict]:
    """Both sides' runs of one workload, the parent first in even pairs."""
    raw = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            rec = run_once(checkout, sources[side], workload, seed, seconds)
            raw.append({"workload": workload, "pair": i, "seed": seed, "side": side,
                        "first": order[0], **rec})
            print(json.dumps(raw[-1]), file=sys.stderr, flush=True)
            if rec["rc"] != 0:
                raise SystemExit(f"{side} run failed: {rec.get('stderr', '')}")
    return raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workloads", required=True, help="comma-separated cfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent_sha = git("rev-parse", args.parent).decode().strip()
    seeds = [args.seed_base + i for i in range(args.pairs)]

    raw, runs = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        work = Path(tmp)
        checkout, sources = work / "checkout", {s: work / f"{s}-src" for s in SIDES}
        extract(parent_sha, checkout)
        extract(parent_sha, work / "parent-tree", "src")
        shutil.move(work / "parent-tree" / "src", sources["parent"])
        copy_src(ROOT / "src", sources["change"])
        lines = {f"src/cfbounds {s}": count_lines(sources[s] / "cfbounds") for s in SIDES}
        for w in args.workloads.split(","):
            mine = pair_runs(checkout, sources, w, seeds, args.seconds)
            raw += mine
            side_runs = {s: [r for r in mine if r["side"] == s] for s in SIDES}
            runs[w] = {
                "seeds": seeds,
                "pairs": args.pairs,
                "failed": {s: sum(r["failed"] for r in side_runs[s]) for s in SIDES},
                "attempted": {s: sum(r["attempted"] for r in side_runs[s]) for s in SIDES},
                "first": [mine[2 * i]["side"] for i in range(args.pairs)],
            }
            for m in metrics:
                values = {s: [r[m["name"]] for r in side_runs[s]] for s in SIDES}
                runs[w][m["name"]] = summarise(values["parent"], values["change"], m["better"], m["bound"])

    result = "; ".join(
        f"{w} {m['name']} {r[m['name']]['parent_median']} -> {r[m['name']]['change_median']} "
        f"({r[m['name']]['ratio']}, {r[m['name']]['pairs_change_better']}/{args.pairs} pairs better, "
        f"parent IQR/median {r[m['name']]['parent_iqr_over_median']}, {r[m['name']]['verdict']})"
        for w, r in runs.items() for m in metrics
    )
    out = {
        "what": (
            f"cfbench end-to-end metrics (python3 cfbench/run.py --workload W --seed S --seconds "
            f"{args.seconds} --trace 0), parent vs change, {args.pairs} alternating pairs per "
            f"workload (even pairs run the parent first, odd pairs the change first), seeds "
            f"{seeds[0]}-{seeds[-1]}, one run at a time, by tools/bench_pairs.py. Both sides ran "
            f"from one checkout of the parent's committed tree whose src/ was replaced before each "
            f"run by the side's src/ without bytecode cache."
        ),
        "parent_sha": parent_sha,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, nproc {os.cpu_count()}",
        "claim": None,
        "result": result,
        "runs": runs,
        "raw": raw,
        "lines": lines,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
