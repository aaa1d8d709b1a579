"""One timed sample: a fresh interpreter that imports cfbounds and runs CLI
commands in-process through ``cfbounds.cli.main(argv, out=StringIO)``.
``cfbounds`` is imported from ``src/`` next to this file's directory.

Usage: ``python3 -I child.py <job json> <spawn ns>``, where the job is::

    {"commands": [{"argv": [...], "per_line": false}, ...],
     "trace": false, "keep_depth": 1, "spans_out": null}

and ``spawn ns`` is ``time.monotonic_ns()`` read by the parent just before
it started this process.  Prints one JSON line on stdout.

``setup_s`` runs from ``spawn ns`` to the end of ``import cfbounds.cli``;
CLOCK_MONOTONIC is system-wide on Linux, so the parent's clock reading is
comparable.  ``wall_s`` covers every command after import.  Digests are
taken after the timed region.
"""
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time


def _run(cli, argv):
    buf = io.StringIO()
    try:
        code = cli.main(argv, out=buf)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def main() -> None:
    spawn_ns = int(sys.argv[2])
    job = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    cfbounds = importlib.import_module("cfbounds")
    cli = importlib.import_module("cfbounds.cli")
    setup_ns = time.monotonic_ns() - spawn_ns

    tracer = None
    if job.get("trace"):
        sys.path.insert(0, here)
        from spans import Tracer

        tracer = Tracer(keep_depth=job.get("keep_depth", 1))
        tracer.install(cfbounds)
    results = []
    clock = time.perf_counter_ns
    t_all = clock()
    for cmd in job["commands"]:
        t0 = clock()
        code, text = _run(cli, cmd["argv"])
        results.append((cmd, code, text, clock() - t0))
    wall_ns = clock() - t_all
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    out = {
        "backend": cfbounds.BACKEND,
        "module_file": cfbounds.__file__,
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "maxrss_kb": maxrss_kb,
        "commands": [],
    }
    for cmd, code, text, dur_ns in results:
        data = text.encode()
        entry = {
            "exit": code,
            "lines": text.count("\n"),
            "sha256": hashlib.sha256(data).hexdigest(),
            "seconds": dur_ns / 1e9,
        }
        if cmd.get("per_line"):
            entry["line_sha256"] = [
                hashlib.sha256(line).hexdigest() for line in data.splitlines(keepends=True)
            ]
        out["commands"].append(entry)
    if tracer is not None:
        out["layers"] = tracer.summary()
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as fh:
                for span in tracer.kept_spans():
                    fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
