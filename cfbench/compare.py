"""Compare two benchmark result files written by run.py.

    python3 cfbench/compare.py cfbench/out/A.json cfbench/out/B.json

Prints each metric of both runs and the ratio B/A.  Refuses (exit 2) to
compare runs of different workloads, trace modes or kernel backends.
"""
import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    for field in ("backend", "workload", "trace"):
        if a["provenance"][field] != b["provenance"][field]:
            print(f"refusing to compare: {field} differs "
                  f"({a['provenance'][field]!r} vs {b['provenance'][field]!r})", file=sys.stderr)
            return 2
    for field in ("git_sha", "src_sha256", "corpus_seed", "python"):
        print(f"{field:>12}: {a['provenance'][field]}  ->  {b['provenance'][field]}")
    for name, va in a["metrics"].items():
        vb = b["metrics"][name]
        print(f"{name:<48} {va:>14.6g} {vb:>14.6g} {vb / va if va else float('nan'):8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
