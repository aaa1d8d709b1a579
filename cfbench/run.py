"""cfbounds benchmark: cold-process CLI workloads with a golden output gate.

Run from the root of a checkout:

    python3 cfbench/run.py --workload verify_deep --seed 1 --seconds 40 --trace 0
    python3 cfbench/run.py --write-golden      # rewrite cfbench/data/golden.json
    python3 cfbench/selftest.py                # fast check of the harness itself
    python3 cfbench/compare.py A.json B.json   # two result files from cfbench/out

Every timed sample is a fresh interpreter (``child.py``) that imports
``cfbounds`` from ``src/`` of the checkout and runs the workload's commands
in-process through ``cfbounds.cli.main(argv, out=StringIO)``.  Samples run
one at a time.  Each command's stdout and exit code are compared
byte-for-byte (by SHA-256) with ``data/golden.json``; a mismatch counts as a
failed command.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's children; every sample is kept in the result file.
``--trace 1`` runs untraced samples, then traced ones, and prints the
per-layer metrics of :mod:`spans`, the tracing overhead and the depth
exponent of ``verify``.  The last line of stdout is the result object; the
line before it is the run's provenance, which is also written with the raw
samples to ``cfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

from spans import SIGN_PATHS, SPAN_TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = HERE / "out"
GOLDEN = DATA / "golden.json"
POOL = DATA / "corpus_pool.txt"

WORKLOADS = ("verify_deep", "corpus_scan", "lemma_sweep")

# verify_deep: one deep verify plus classify-equality on translates of alpha1(k), alpha2(k)
VERIFY_SPEC = "surd:(3+2*sqrt(7))/5"
VERIFY_K = 2
VERIFY_DEPTHS = range(498, 503)
HALF_DEPTH = 250  # second depth for verify.depth_exponent
CLASSIFY_K = 2
CLASSIFY_DEPTH = 400
TRANSLATES = range(-4, 5)

# corpus_scan: report over CORPUS_SIZE surds drawn from the committed pool
POOL_SEED = 2024
POOL_SIZE = 600
CORPUS_SIZE = 200
CORPUS_N = 30
REPORT_BOUNDS = (("--bound", "refined_f", "--k", "1"), ("--bound", "hancl_nair"))

# lemma_sweep: one depth from each pair (1, 2), (3, 4), ..., (19, 20)
LEMMA_K = 100
LEMMA_PAIRS = 10

HARD_LIMIT_S = 170  # a run must end within 180 s
SETUP_CHILDREN = 10  # import-only children per run, for setup_s
MIN_SAMPLES = 3
EXPONENT_PAIRS = 2

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

SPANS = list(SPAN_TARGETS)

PER_LAYER = (
    [(f"{s}.{m}", u, "lower") for s in SPANS for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        (f"exact.sign.path.{p}", "count", "higher" if p in ("rational", "b64", "direct") else "lower")
        for p in SIGN_PATHS
    ]
    + [
        ("exact.RadicalSum.interval.undecided_ratio", "ratio", "lower"),
        ("exact.square_free_split.repeat_ratio", "ratio", "lower"),
        ("exact.RadicalSum.inverse.rounds", "count", "lower"),
        ("fractions.Fraction.new.calls", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.accounted_ratio", "ratio", "higher"),
        ("verify.depth_exponent", "1", "lower"),
    ]
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# workloads


def verify_argv(n: int) -> list[str]:
    return ["verify", VERIFY_SPEC, "--bound", "refined_f", "--k", str(VERIFY_K), "--n", str(n)]


def classify_argv(family: str, t: int) -> list[str]:
    """classify-equality on alpha1(k) + t or alpha2(k) + t."""
    k = CLASSIFY_K
    d = k * k + 4
    if family == "alpha1":  # (sqrt(d) - k)/2 + t
        spec = f"surd:({2 * t - k}+1*sqrt({d}))/2"
    else:  # (k + 2 - sqrt(d))/2 + t
        spec = f"surd:({k + 2 + 2 * t}-1*sqrt({d}))/2"
    return ["classify-equality", spec, "--k", str(k), "--n", str(CLASSIFY_DEPTH)]


def lemma_argv(depth: int) -> list[str]:
    return ["lemmas", "--k-range", f"1..{LEMMA_K}", "--depth", str(depth)]


def report_key(bound: tuple[str, ...]) -> str:
    return " ".join(["report", *bound, "--n", str(CORPUS_N)])


def verify_depth(seed: int) -> int:
    return random.Random(seed).choice(VERIFY_DEPTHS)


def make_pool(seed: int = POOL_SEED, size: int = POOL_SIZE) -> list[str]:
    """The criterion-2 generator: d in [2, 300] non-square, small a, b, c."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        d = rng.randint(2, 300)
        if isqrt(d) ** 2 == d:
            continue
        a = rng.randint(-20, 20)
        b = rng.choice([-1, 1]) * rng.randint(1, 9)
        c = rng.choice([-1, 1]) * rng.randint(1, 15)
        if c < 0:  # the grammar wants a positive denominator
            a, b, c = -a, -b, -c
        out.append(f"surd:({a}{b:+d}*sqrt({d}))/{c}")
    return out


def command(argv: list[str], key: str | None = None, rows: list[int] | None = None) -> dict:
    return {"argv": argv, "key": key or " ".join(argv), "rows": rows, "per_line": rows is not None}


def workload_commands(workload: str, seed: int) -> list[dict]:
    """The workload's commands; the same seed gives the same commands."""
    rng = random.Random(seed)
    if workload == "verify_deep":
        return [
            command(verify_argv(verify_depth(seed))),
            command(classify_argv("alpha1", rng.choice(TRANSLATES))),
            command(classify_argv("alpha2", rng.choice(TRANSLATES))),
        ]
    if workload == "lemma_sweep":
        return [command(lemma_argv(2 * i + 1 + rng.randrange(2))) for i in range(LEMMA_PAIRS)]
    if workload == "corpus_scan":
        pool = POOL.read_text(encoding="utf-8").splitlines()
        rows = rng.sample(range(len(pool)), CORPUS_SIZE)
        OUT.mkdir(exist_ok=True)
        corpus = OUT / f"corpus-seed{seed}.txt"
        corpus.write_text("".join(pool[i] + "\n" for i in rows), encoding="utf-8")
        return [
            command(["report", "--corpus", str(corpus), *b, "--n", str(CORPUS_N)], report_key(b), rows)
            for b in REPORT_BOUNDS
        ]
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# children


def spawn(commands: list[dict], deadline: float, *, trace: bool = False,
          keep_depth: int | None = 1, spans_out: Path | None = None) -> dict:
    """Run one fresh interpreter on ``commands`` and return its report."""
    job = {
        "commands": [{"argv": c["argv"], "per_line": c["per_line"]} for c in commands],
        "trace": trace,
        "keep_depth": keep_depth,
        "spans_out": str(spans_out) if spans_out else None,
    }
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    argv = [sys.executable, "-I", str(HERE / "child.py"), json.dumps(job)]
    try:
        proc = subprocess.run(
            argv + [str(time.monotonic_ns())],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"sample exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    module = Path(report["module_file"]).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"imported cfbounds from {module}, not from {SRC}")
    return report


def check(commands: list[dict], report: dict, golden: dict) -> list[str]:
    """Keys of the commands whose stdout or exit code differ from the golden copy."""
    bad = []
    for cmd, got in zip(commands, report["commands"]):
        if cmd["rows"] is not None:
            table = golden["report_rows"][cmd["key"]]
            ok = got["exit"] == 0 and got["line_sha256"] == [table[i] for i in cmd["rows"]]
        else:
            want = golden["commands"].get(cmd["key"])
            ok = want is not None and all(got[f] == want[f] for f in ("exit", "lines", "sha256"))
        if not ok:
            bad.append(cmd["key"])
    return bad


# ---------------------------------------------------------------------------
# provenance


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: int, trace: bool, backend: str) -> dict:
    return {
        "workload": workload,
        "corpus_seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": backend,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring


class Run:
    """Samples of one benchmark run, and the correctness tally."""

    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []

    def sample(self, commands: list[dict], **kwargs) -> dict:
        report = spawn(commands, self.deadline, **kwargs)
        self.attempted += len(commands)
        self.failures += check(commands, report, self.golden)
        self.setups.append(report["setup_s"])
        return report

    def repeat(self, commands: list[dict], until: float, minimum: int, **kwargs) -> list[dict]:
        """At least ``minimum`` samples, then more while the next is expected to end by ``until``."""
        reports, lengths = [], []
        while len(reports) < minimum or time.monotonic() + statistics.median(lengths) <= until:
            t0 = time.monotonic()
            reports.append(self.sample(commands, **kwargs))
            lengths.append(time.monotonic() - t0)
        return reports


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    run = Run(json.loads(GOLDEN.read_text(encoding="utf-8")), start + HARD_LIMIT_S)
    commands = workload_commands(workload, seed)
    backend = spawn([], run.deadline)["backend"]  # also writes bytecode caches; not timed
    for _ in range(SETUP_CHILDREN):
        run.sample([])
    budget_end = start + seconds
    raw: dict = {}
    if not trace:
        samples = run.repeat(commands, budget_end, MIN_SAMPLES)
        raw["wall_s"] = [s["wall_s"] for s in samples]
        raw["maxrss_kb"] = [s["maxrss_kb"] for s in samples]
        metrics = {
            "wall_s": statistics.median(raw["wall_s"]),
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": statistics.median(raw["maxrss_kb"]) / 1024,
        }
    else:
        metrics, raw = measure_layers(run, workload, seed, commands, budget_end)
    if run.failures:
        print(f"golden mismatch: {sorted(set(run.failures))[:5]}", file=sys.stderr)
    return {
        "provenance": provenance(workload, seed, seconds, trace, backend),
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "setup_s": run.setups,
        "raw": raw,
    }


def measure_layers(run: Run, workload: str, seed: int, commands: list[dict],
                   budget_end: float) -> tuple[dict, dict]:
    n = verify_depth(seed)
    deep, half = [command(verify_argv(n))], [command(verify_argv(HALF_DEPTH))]
    t_deep, t_half = [], []
    for _ in range(EXPONENT_PAIRS):
        t_deep.append(run.sample(deep)["commands"][0]["seconds"])
        t_half.append(run.sample(half)["commands"][0]["seconds"])
    now = time.monotonic()
    plain = run.repeat(commands, now + (budget_end - now) / 2, 2)
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{workload}-seed{seed}.jsonl"
    traced = run.repeat(commands, budget_end, 1, trace=True, spans_out=spans_out)
    layers = {
        key: statistics.median_low(t["layers"][key] for t in traced) for key in traced[0]["layers"]
    }
    span_self = [sum(t["layers"][f"{s}.self_s"] for s in SPANS) for t in traced]
    traced_wall = [t["wall_s"] for t in traced]
    layers["trace.wall_s"] = statistics.median(traced_wall)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    layers["trace.accounted_ratio"] = statistics.median(s / w for s, w in zip(span_self, traced_wall))
    layers["verify.depth_exponent"] = math.log(
        statistics.median(t_deep) / statistics.median(t_half)
    ) / math.log(n / HALF_DEPTH)
    raw = {
        "plain_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": traced_wall,
        "verify_deep_s": t_deep,
        "verify_half_s": t_half,
    }
    return {name: layers[name] for name, _, _ in PER_LAYER}, raw


# ---------------------------------------------------------------------------
# golden copy


def write_golden() -> None:
    """Run every command any seed can produce, once each, and store digests."""
    deadline = time.monotonic() + 3600
    DATA.mkdir(exist_ok=True)
    pool = make_pool()
    POOL.write_text("".join(s + "\n" for s in pool), encoding="utf-8")
    argvs = [verify_argv(n) for n in [*VERIFY_DEPTHS, HALF_DEPTH]]
    argvs += [classify_argv(f, t) for f in ("alpha1", "alpha2") for t in TRANSLATES]
    argvs += [lemma_argv(d) for d in range(1, 2 * LEMMA_PAIRS + 1)]
    golden = {"commands": {}, "report_rows": {}}
    backend = None
    for argv in argvs:
        report = spawn([command(argv)], deadline)
        got = report["commands"][0]
        golden["commands"][" ".join(argv)] = {f: got[f] for f in ("exit", "lines", "sha256")}
        backend = report["backend"]
        print(f"{got['seconds']:7.3f}s exit {got['exit']}  {' '.join(argv)}", file=sys.stderr)
    for bound in REPORT_BOUNDS:
        cmd = command(["report", "--corpus", str(POOL), *bound, "--n", str(CORPUS_N)],
                      report_key(bound), list(range(len(pool))))
        got = spawn([cmd], deadline)["commands"][0]
        if got["exit"] != 0 or got["lines"] != len(pool):
            raise BenchError(f"{cmd['key']} over the pool: exit {got['exit']}, {got['lines']} lines")
        golden["report_rows"][cmd["key"]] = got["line_sha256"]
        print(f"{got['seconds']:7.3f}s exit 0  {cmd['key']} over {len(pool)} specs", file=sys.stderr)
    golden["written_with"] = {
        "backend": backend,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload and corpus seed")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps a running sample
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cfbounds" / "__init__.py").is_file():
        print(f"error: no cfbounds sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
