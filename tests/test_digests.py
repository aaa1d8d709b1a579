"""Byte identity of CLI output under every bound kind.

The benchmark's golden copy runs only refined_f and hancl_nair; this pins
the exit code and the SHA-256 of stdout for a fixed matrix of commands over
every bound kind, in both formats, plus classify-equality and classical.
The digests live in tests/data/cli_digests.json.  When output is meant to
change, rewrite them with

    PYTHONPATH=src python3 tests/test_digests.py
"""
import hashlib
import io
import json
import sys
from pathlib import Path

from cfbounds.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"

BOUNDS = [
    "dirichlet", "hurwitz", "hancl_g", "vahlen", "borel", "hancl_nair",
    "nathanson --k 1", "nathanson --k 3",
    "refined_f --k 1", "refined_f --k 2", "refined_f --k 3",
]

# the golden ratio's q passes 2^161 by n = 240, past g_enclosure's cut at
# 320 bits; the others stay below it.  The rational is F_45/F_44, with 43
# partial quotients: its last convergent is row 42
SCANS = [
    ("surd:(1+1*sqrt(5))/2", 240),
    ("surd:(0+1*sqrt(2))/1", 40),
    ("surd:(3+2*sqrt(7))/5", 40),
    ("cf:[2;(3,1,4)]", 40),
    ("rat:1134903170/701408733", 42),
]

OTHERS = [
    "classify-equality surd:(-1+1*sqrt(5))/2 --k 1 --n 60",
    "classify-equality surd:(0+1*sqrt(2))/1 --k 2 --n 60",
    "classify-equality surd:(-3+1*sqrt(13))/2 --k 3 --n 60",
    "classify-equality surd:(3+2*sqrt(7))/5 --k 2 --n 60",
    "classical surd:(1+1*sqrt(5))/2 --rule vahlen_pairs --n 60",
    "classical surd:(1+1*sqrt(5))/2 --rule borel_triples --n 60",
    "classical surd:(1+1*sqrt(5))/2 --rule hancl_nair_triples --n 60",
    "classical surd:(3+2*sqrt(7))/5 --rule hancl_nair_triples --n 60",
]


def commands() -> list[str]:
    cmds = [f"verify {x} --bound {b} --n {n}" for b in BOUNDS for x, n in SCANS] + OTHERS
    return [f"--format {fmt} {c}" for fmt in ("jsonl", "csv") for c in cmds]


def digest(command: str) -> dict:
    buf = io.StringIO()
    code = main(command.split(), out=buf)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def test_every_bound_kind_prints_its_recorded_bytes():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(commands())
    for command in commands():
        assert digest(command) == want[command], command


if __name__ == "__main__":
    table = {c: digest(c) for c in commands()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
