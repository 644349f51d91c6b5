"""Span tracing from the benchmark's own code, around calls into each layer.

The tracer wraps the public functions of the package modules, the
evaluation methods of their function classes, and every module-level name a
module imported from a sibling module or from scipy, at the point where the
consumer bound it (``eigenid.unit_sphere_grid``, ``signsearch.distance_transform_edt``
and so on). A span records its name, duration and parent; spans are
aggregated as they close, and the first ``MAX_SPANS`` are kept raw for the
trace file.

Span names are ``<layer>.<function>``: a function defined in the package is
attributed to its defining module; a scipy function to the module that
imported it. A span's self time is its duration minus that of its direct
children. Totals and call counts take only spans with no ancestor of the same
name, so recursion and nested evaluations are not counted twice. A span that
starts on a thread with no open span (the CLI's worker pool) takes as parent
the innermost open span of the thread that installed the tracer.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict

MAX_SPANS = 50_000
LAYERS = ("specfun", "torus", "sphere", "eigenid", "signsearch", "cli")
METHODS = {
    "torus": (("TrigPoly", "eval_grid"), ("TrigPoly", "eval_many")),
    "sphere": (("SphereFn", "eval_many"),),
    "eigenid": (("PlaneWaveEigen", "eval_many"), ("EigenMix", "eval_many")),
}


# work counters per span name: (args, result) -> {counter: amount}
WORK = {
    "signsearch.distance_transform_edt": lambda a, r: {"cells": a[0].size},
    "signsearch.largest_signfree_ball": lambda a, r: {"samples": r.samples_used},
    "torus.TrigPoly.eval_grid": lambda a, r: {"points": r.size, "work": r.size * len(a[0].coeffs)},
    "torus.TrigPoly.eval_many": lambda a, r: {"points": r.size},
    "sphere.SphereFn.eval_many": lambda a, r: {"points": r.size, "work": r.size * len(a[0].terms)},
    "eigenid.PlaneWaveEigen.eval_many": lambda a, r: {
        "points": r.size, "work": r.size * len(a[0].waves)},
    "eigenid.EigenMix.eval_many": lambda a, r: {"points": r.size},
    "sphere.unit_sphere_grid": lambda a, r: {"points": r[0].shape[0]},
}


class _Span:
    __slots__ = ("name", "start", "children", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.children = 0.0
        self.parent = parent


class Tracer:
    """Wraps the layers on :meth:`install`, restores them on :meth:`uninstall`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []
        self._local = threading.local()
        self._home = None
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        span = _Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def _close(self, span, work):
        end = time.perf_counter()
        self._stack().pop()
        dur = end - span.start
        name = span.name
        self.self_time[name] += max(0.0, dur - span.children)
        parent = span.parent
        if parent is not None:
            parent.children += dur
        outer = parent
        while outer is not None and outer.name != name:
            outer = outer.parent
        if outer is None:
            self.calls[name] += 1
            self.total[name] += dur
        if work:
            for key, amount in work.items():
                self.counters[f"{name}.{key}"] += amount
            if parent is not None and parent.name == "signsearch.largest_signfree_ball":
                self.counters["signsearch.point_evals"] += work.get("points", 0)
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, span.start, end, parent.name if parent else None))

    def count(self, name: str, amount: float):
        """Add to a counter kept by the benchmark's own code, while installed."""
        if self._patches:
            self.counters[name] += amount

    def _wrapper(self, fn, name):
        tracer = self
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, work(args, result) if work and result is not None else None)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, package):
        """Wrap every layer of ``package`` (the imported ``nodal_radius``)."""
        self._home = self._stack()
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                home = by_module.get(value.__module__)
                if home is not None:
                    name = f"{home}.{value.__name__}"
                elif value.__module__.startswith("scipy"):
                    name = f"{layer}.{attr}"
                else:
                    continue
                key = (name, value)
                if key not in wrappers:
                    wrappers[key] = self._wrapper(value, name)
                self._patch(module, attr, wrappers[key])
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrapper(fn, f"{layer}.{cls_name}.{meth}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        """Self time summed over every span of a layer."""
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def dump(self) -> dict:
        names = sorted(set(self.calls) | set(self.self_time))
        return {
            "spans_kept": len(self.spans),
            "by_name": {
                n: {"calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_time[n]}
                for n in names
            },
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
        }
