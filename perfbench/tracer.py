"""Run one `mrt` CLI call with spans around the public functions of each layer.

Usage: python perfbench/tracer.py SPANS_JSON <mrt arguments...>

The program is not modified: each traced function is replaced, in every
`mrt` module that binds it (and on its class, for methods), by a wrapper that
records a span. A span holds its id, name, start, end, thread and parent; the
parent of a span started in a worker thread of `pmap` is that `pmap` span.
Spans stay in memory and are written to SPANS_JSON when the call ends. Counts
that the spans cannot carry are taken at the same boundary: objective
evaluations passed to `pattern_search`, distinct and computed `beta_multi`
keys, the cases of each `construct_curve` result, and report bytes.

If a traced function no longer exists, the tracer exits with code 70 and
names it, rather than recording zero work for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

EXIT_MISSING = 70

#: (layer, module, qualified name) of every traced function
TARGETS = [
    ("beta", "mrt.beta", "beta_multi"),
    ("beta", "mrt.beta", "BetaCache.mass_triples"),
    ("beta", "mrt.beta", "nearby_cubes_with_mass"),
    ("geometry", "mrt.geometry", "pattern_search"),
    ("geometry", "mrt.geometry", "fit_line"),
    ("jones", "mrt.jones", "jones_at"),
    ("jones", "mrt.jones", "square_sum"),
    ("measure", "mrt.measure", "DiscreteMeasure.atoms_in"),
    ("measure", "mrt.measure", "DiscreteMeasure.atoms_in_triple"),
    ("measure", "mrt.measure", "DiscreteMeasure.density_profile"),
    ("nets", "mrt.nets", "nets_from_points"),
    ("nets", "mrt.nets", "nets_from_tree"),
    ("nets", "mrt.nets", "validate_nets"),
    ("nets", "mrt.nets", "fit_alphas"),
    ("nets", "mrt.nets", "hausdorff_to_segments"),
    ("curve", "mrt.curve", "construct_curve"),
    ("curve", "mrt.curve", "length_certificate"),
    ("curve", "mrt.curve", "verify_connected"),
    ("rectify", "mrt.rectify", "grow_tree"),
    ("rectify", "mrt.rectify", "localize"),
    ("rectify", "mrt.rectify", "draw_through_tree"),
    ("rectify", "mrt.rectify", "decompose_estimate"),
    ("cli", "mrt.cli", "load_measure"),
    ("cli", "mrt.cli", "save_report"),
    ("parallel", "mrt._parallel", "pmap"),
]


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.beta_keys: set = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def under(self, parent: int, fn, *args):
        """Call fn in this thread with `parent` as the current span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args)
        finally:
            stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(sid, args, kwargs, attrs)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append((sid, name, t0, t1, threading.get_ident(), parent, attrs))
            if after is not None:
                after(args, kwargs, result, attrs)
            return result

        return traced

    # -- counters taken at the span boundary ----------------------------------

    def hooks(self, name: str, fn):
        if name == "beta.beta_multi":
            sig = inspect.signature(fn)

            def before(sid, args, kwargs, attrs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                key = (a["Q"], a["p"], a["variant"], a["c"], bool(a["refine"]))
                with self._lock:
                    attrs["distinct"] = int(key not in self.beta_keys)
                    self.beta_keys.add(key)
                cache = a["cache"]
                attrs["computed"] = int(cache is None or cache.get(key) is None)
                return args, kwargs

            return before, None
        if name == "geometry.pattern_search":

            def before(sid, args, kwargs, attrs):
                f = _arg(args, kwargs, 0, "f")
                count = attrs.setdefault("evals", [0])

                def counted(x):
                    count[0] += 1
                    return f(x)

                if args:
                    args = (counted,) + tuple(args[1:])
                else:
                    kwargs = dict(kwargs, f=counted)
                return args, kwargs

            def after(args, kwargs, result, attrs):
                attrs["evals"] = attrs["evals"][0]

            return before, after
        if name == "parallel.pmap":

            def before(sid, args, kwargs, attrs):
                fn_ = _arg(args, kwargs, 0, "fn")
                items = list(_arg(args, kwargs, 1, "items"))
                attrs["items"] = len(items)
                threads = _arg(args, kwargs, 2, "threads")
                return (functools.partial(self.under, sid, fn_), items, threads), {}

            return before, None
        if name == "curve.construct_curve":

            def after(args, kwargs, result, attrs):
                attrs["segments"] = len(result.segments)
                cases = [c for snap in result.snapshots for c in snap.cases.values()]
                attrs["case_I"] = sum(c == "I" for c in cases)
                attrs["case_II"] = sum(c.startswith("II") for c in cases)
                sides = [s for c in cases if c.startswith("II-") for s in c[3:].split("/")]
                attrs["T1"] = sides.count("T1")
                attrs["T2"] = sides.count("T2")

            return None, after
        if name == "curve.verify_connected":

            def before(sid, args, kwargs, attrs):
                attrs["segments"] = len(_arg(args, kwargs, 0, "segments"))
                return args, kwargs

            return before, None
        if name == "cli.save_report":

            def after(args, kwargs, result, attrs):
                path = _arg(args, kwargs, 1, "path")
                attrs["bytes"] = os.path.getsize(path) if path is not None else 0

            return None, after
        return None, None

    def dump(self, path: str) -> None:
        spans = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "thread": s[4],
             "parent": s[5], **({"attrs": s[6]} if s[6] else {})}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)


def install(rec: Recorder) -> None:
    """Replace every target wherever an `mrt` module binds it."""
    importlib.import_module("mrt.cli")  # imports every layer the CLI uses
    for layer, modname, qualname in TARGETS:
        mod = importlib.import_module(modname)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = None if owner is None else vars(owner).get(attr)
        if not callable(orig):
            sys.stderr.write(f"perfbench: traced function {modname}.{qualname} no longer exists\n")
            raise SystemExit(EXIT_MISSING)
        name = f"{layer}.{attr}"
        wrapped = rec.wrap(name, orig, *rec.hooks(name, orig))
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mname, m in list(sys.modules.items()):
            if mname == "mrt" or mname.startswith("mrt."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    import mrt.cli

    try:
        return mrt.cli.main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
