"""Span recorder that wraps vcreg's public functions from outside.

Nothing under src/ knows about it. `install` replaces every public
module-level function of every vcreg module, plus a few named methods, with
a wrapper that records a span: name, start, end, parent span and job id.
Every binding of a function is patched, so `vcreg.vc.epsilon_net` and the
copy that `from .vc import epsilon_net` made in `vcreg.regularity` both
record. Spans stay in memory; the caller writes them out when the run ends.

A re-entrant call of a function that is already open (recursion) records no
span of its own, so a span's time is inclusive time per outermost call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
import tracemalloc
from math import prod

# Leaf helpers called so often that a span per call would swamp the trace;
# their time stays in the caller's self time.
SKIP = {"jsonio.require", "jsonio.format_rational", "jsonio.parse_rational",
        "convexity.is_edge", "oracles.split_level"}

# Methods traced besides module-level functions: (module, class, attribute, span name).
METHODS = (
    ("core", "Hypergraph", "__post_init__", "core.Hypergraph.post_init"),
    ("core", "Hypergraph", "from_obj", "core.Hypergraph.from_obj"),
    ("core", "BinaryView", "__init__", "core.BinaryView.init"),
    ("core", "ProductSpace", "__init__", "core.ProductSpace.init"),
    ("vc", "SetFamily", "from_matrix", "vc.SetFamily.from_matrix"),
)

# Work counters read from a call's arguments and result.
HOOKS = {
    "vc.SetFamily.from_matrix": lambda a, r: {
        "rows": len(a[0]), "members": len(r.members)},
    "vc.epsilon_net": lambda a, r: {
        "heavy_members": r.meta["heavy_members"], "net_size": len(r.points)},
    "regularity.delta_approx_partition": lambda a, r: {
        "fibers": sum(len(c) for c in r.classes), "classes": len(r.classes),
        "net_path": int(r.path == "net")},
    "regularity.regular_partition": lambda a, r: {
        "boxes": prod(r.class_counts()), "sigma_boxes": len(r.sigma)},
    "regularity.verify_regular_partition": lambda a, r: {"boxes": r["box_count"]},
    "stable.good_descent_partition": lambda a, r: {"steps": r.steps},
    "stable.stable_regular_partition": lambda a, r: {
        "rounds_used": r.meta["rounds_used"]},
    "jsonio.load_json": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "jsonio.canonical_dumps": lambda a, r: {"bytes": len(r.encode("utf-8"))},
    "jsonio.dump_json": lambda a, r: {"bytes": os.path.getsize(a[1])},
}


def vcreg_modules():
    import vcreg
    mods = [vcreg]
    for info in pkgutil.iter_modules(vcreg.__path__):
        mods.append(importlib.import_module(f"vcreg.{info.name}"))
    return mods


def short_name(mod):
    return mod.__name__.partition(".")[2] or mod.__name__


class Patcher:
    """Replaces functions in every vcreg binding and puts them back."""

    def __init__(self):
        self._undo = []

    def patch(self, make_wrapper, want=lambda name: True):
        mods = vcreg_modules()
        wrapped = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                name = f"{short_name(mod)}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") and name not in SKIP and want(name):
                    wrapped[obj] = make_wrapper(name, obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"vcreg.{modname}"), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None or not want(name):
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            w = make_wrapper(name, fn)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, kind(w) if kind else w)

    def undo(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


class Recorder:
    """In-memory spans [name, start_ns, end_ns, parent index, job id] and
    per-name work counters. Records only while a job is set."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.job = None
        self._stack = []

    def wrapper(self, name, fn):
        rec, hook, active = self, HOOKS.get(name), [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.job is None or active[0]:
                return fn(*args, **kwargs)
            active[0] += 1
            span = [name, 0, 0, rec._stack[-1] if rec._stack else -1, rec.job]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                rec._stack.pop()
                active[0] -= 1
            if hook is not None:
                try:
                    for key, val in hook(args, result).items():
                        k = f"{name}.{key}"
                        rec.counters[k] = rec.counters.get(k, 0) + val
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    pass
            return result
        return traced


def install(recorder):
    p = Patcher()
    p.patch(recorder.wrapper)
    return p


class PeakAlloc:
    """Largest tracemalloc peak over calls of one function, in bytes."""

    def __init__(self):
        self.peak = 0

    def wrapper(self, name, fn):
        probe = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                probe.peak = max(probe.peak, tracemalloc.get_traced_memory()[1] - base)
                if started:
                    tracemalloc.stop()
        return measured


def summarize(spans, counters):
    """Per-name calls, inclusive s and self s; per-module inclusive s."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - child[i]) / 1e9
    modules = {}
    for name, t0, t1, parent, _ in spans:
        mod = name.split(".", 1)[0]
        p = parent
        while p >= 0 and spans[p][0].split(".", 1)[0] != mod:
            p = spans[p][3]
        if p < 0:
            modules[mod] = modules.get(mod, 0.0) + (t1 - t0) / 1e9
    return out, modules, dict(counters)
