"""Outside-in layer tracer for cfbounds.

:class:`Tracer` wraps public functions and methods of an imported
``cfbounds`` at every place where callers look them up (module globals and
class attributes), so the program itself is not edited.  Each wrapped call
is a span with a name, a start, an end and a parent; a span's self time is
its duration minus the durations of its direct child spans.  Spans are
aggregated in memory as they close (calls and self time per name); spans
down to ``keep_depth`` are also kept whole so they can be written out or
checked for nesting.

Beside spans the tracer keeps counters measured where the work happens:

* how each ``RadicalSum.sign`` call was decided: ``rational`` (no radical
  terms), ``b<bits>`` (the interval precision that settled it), ``exact``
  (the recursive-squaring fallback ran) or ``direct`` (none of these);
* interval calls that did not settle their caller (``undecided_ratio``);
* ``square_free_split`` calls on an argument already seen in this process;
* rationalisation rounds inside ``RadicalSum.inverse``;
* ``fractions.Fraction`` constructions.
"""
from __future__ import annotations

import sys
import time
from fractions import Fraction

ROOT = "cli"
SIGN = "exact.RadicalSum.sign"
INTERVAL = "exact.RadicalSum.interval"
DECIMAL = "exact.RadicalSum.decimal"
INVERSE = "exact.RadicalSum.inverse"
SPLIT = "exact.square_free_split"

# span name -> (module, attribute path) of every function it covers
SPAN_TARGETS = {
    ROOT: [("cli", "main")],
    "specparse.parse_number": [("specparse", "parse_number")],
    "cf.expand_surd": [("cf", "expand_surd")],
    "cf.convergents": [("cf", "convergents")],
    "cf.kernels": [
        ("_backend", "rational_cf_digits"),
        ("_backend", "convergent_pairs"),
        ("_backend", "periodic_cf_digits"),
    ],
    "bounds.bound_rhs": [("bounds", "bound_rhs")],
    "verify.verify_bound_scan": [("verify", "verify_bound_scan")],
    "verify.check_lemma": [("verify", "check_lemma")],
    SPLIT: [("exact", "square_free_split")],
    "exact.QuadSurd.make": [("exact", "QuadSurd.make")],
    "exact.RadicalSum.init": [("exact", "RadicalSum.__init__")],
    "exact.RadicalSum.mul": [("exact", "RadicalSum.__mul__")],
    INVERSE: [("exact", "RadicalSum.inverse")],
    INTERVAL: [("exact", "RadicalSum.interval")],
    SIGN: [("exact", "RadicalSum.sign")],
    DECIMAL: [("exact", "RadicalSum.decimal")],
}

SIGN_BITS = [64 << i for i in range(9)]  # 64 .. 16384, the precision ladder
# "direct": decided with neither an interval nor the fallback (no such path yet)
SIGN_PATHS = ["rational", *(f"b{b}" for b in SIGN_BITS), "exact", "direct"]


class Tracer:
    def __init__(self, keep_depth: int | None = 1):
        self.keep_depth = keep_depth
        self.stats = {name: [0, 0] for name in SPAN_TARGETS}  # calls, self ns
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.sign_paths = dict.fromkeys(SIGN_PATHS, 0)
        self.interval_decided = 0
        self.inverse_rounds = 0
        self.split_repeats = 0
        self.fraction_new = 0
        self._split_seen: set[int] = set()
        # frame: [name, start ns, child ns, kept span index, last interval bits, exact]
        self._stack: list[list] = []
        self._undo: list = []

    # -- installing

    def install(self, package) -> None:
        """Wrap every target of SPAN_TARGETS and the counting hooks."""
        mods = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        for span, targets in SPAN_TARGETS.items():
            for mod_name, path in targets:
                self._wrap(mods, mod_name, path, lambda fn, s=span: self._span(s, fn))
        self._wrap(mods, "exact", "RadicalSum._sign_exact", self._exact_hook)
        self._wrap(mods, "exact", "_pick_split_prime", self._round_hook)
        orig_new = Fraction.__dict__["__new__"]
        inner = orig_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return inner(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._undo.append((Fraction, "__new__", orig_new))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, mods, mod_name, path, make_wrapper) -> None:
        mod = mods.get(mod_name)
        if mod is None:
            return
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                return
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = make_wrapper(fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            # cover aliases such as __rmul__ = __mul__
            for alias, value in list(cls.__dict__.items()):
                if value is raw:
                    self._undo.append((cls, alias, raw))
                    setattr(cls, alias, wrapped)
            return
        fn = getattr(mod, path, None)
        if fn is None:
            return
        wrapped = make_wrapper(fn)
        # every module that imported the function by name looks it up there
        for other in mods.values():
            for name, value in list(vars(other).items()):
                if value is fn:
                    self._undo.append((other, name, fn))
                    setattr(other, name, wrapped)

    # -- wrappers

    def _span(self, name: str, fn):
        stack = self._stack
        stats = self.stats[name]
        clock = time.perf_counter_ns
        keep = self.keep_depth
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == INTERVAL and parent is not None and parent[0] in (SIGN, DECIMAL):
                parent[4] = args[1] if len(args) > 1 else kwargs["bits"]
            elif name == SPLIT:
                n = args[0]
                if n in tracer._split_seen:
                    tracer.split_repeats += 1
                else:
                    tracer._split_seen.add(n)
            idx = -1
            if keep is None or len(stack) <= keep:
                idx = len(spans)
                spans.append((name, 0, 0, parent[3] if parent is not None else -1))
            frame = [name, 0, 0, idx, None, False]
            stack.append(frame)
            frame[1] = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats[0] += 1
                stats[1] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if idx >= 0:
                    spans[idx] = (name, frame[1], end, spans[idx][3])
                if ok and name == SIGN:
                    tracer._close_sign(frame, args[0])
                elif ok and name == DECIMAL and frame[4] is not None:
                    tracer.interval_decided += 1

        return wrapper

    def _close_sign(self, frame, value) -> None:
        if frame[5]:
            path = "exact"
        elif frame[4] is not None:
            path = f"b{frame[4]}"
            self.interval_decided += 1
        elif value.is_rational:
            path = "rational"
        else:
            path = "direct"
        self.sign_paths[path] += 1

    def _exact_hook(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == SIGN:
                stack[-1][5] = True
            return fn(*args, **kwargs)

        return wrapper

    def _round_hook(self, fn):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == INVERSE:
                tracer.inverse_rounds += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results

    def summary(self) -> dict:
        """Per-layer metrics: calls and self seconds per span, plus counters."""
        out = {}
        for name, (calls, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        for path, count in self.sign_paths.items():
            out[f"exact.sign.path.{path}"] = count
        intervals = self.stats[INTERVAL][0]
        out[f"{INTERVAL}.undecided_ratio"] = (
            1 - self.interval_decided / intervals if intervals else 0.0
        )
        splits = self.stats[SPLIT][0]
        out[f"{SPLIT}.repeat_ratio"] = self.split_repeats / splits if splits else 0.0
        out[f"{INVERSE}.rounds"] = self.inverse_rounds
        out["fractions.Fraction.new.calls"] = self.fraction_new
        return out

    def kept_spans(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
