"""Span tracing for the traced run, installed from outside the program.

`install` replaces every public function of patgf's layer modules with a
wrapper that records a span, in every module that imports the function by
name (so `contains` is wrapped in perms, decompose and engine alike), and
does the same for the public methods and arithmetic operators of Poly,
RatFunc and GfState.  A span is named `<layer>.<function>`, or
`<layer>.<class>_<method>` for methods, with `__init__` read as `new`.

Spans live in memory as four arrays (name, parent, start, end) in process
CPU seconds and are written out by `Tracer.dump`.  A span's self time is
its duration minus the durations of its wrapped children.

The untraced run never imports this module.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("perms", "decompose", "ratfunc", "chebyshev", "engine", "verify", "cli")
CLASSES = {"ratfunc": ("Poly", "RatFunc"), "engine": ("GfState",)}
OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
             "__pow__", "__floordiv__", "__mod__", "__call__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.notes: dict[int, object] = {}  # span index -> what an observer kept
        self.lru_functions: dict[str, object] = {}

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of fn that records one span per call.  `observe(args,
        result)` may return a value to keep with the span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, notes, clock = self.stack, self.notes, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                note = observe(args, result)
                if note is not None:
                    notes[idx] = note
            return result

        return wrapper

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def has_ancestor(self, idx: int, prefix: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name[p]].startswith(prefix):
                return True
            p = self.parent[p]
        return False

    def dump(self, stem: str) -> None:
        """Write the spans: `<stem>.json` names the columns of `<stem>.spans`,
        which holds the name, parent, start and end arrays one after another."""
        with open(stem + ".spans", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        header = {"names": self.names, "count": len(self.start),
                  "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (callable(obj) and hasattr(obj, "cache_info"))


def _observers() -> dict:
    return {
        # The key of a census series, to find the ones verify recomputes.
        "perms.census_series": lambda args, result: (args[0], args[1]),
        # GfState.make returns None for a state that counts nothing.
        "engine.gfstate_make": lambda args, result: True if result is None else None,
    }


def install(tracer: Tracer) -> None:
    """Wrap patgf's public functions and methods in place."""
    observers = _observers()
    modules = [importlib.import_module("patgf")]
    modules += [importlib.import_module(f"patgf.{layer}") for layer in LAYERS]
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"patgf.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_function(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if hasattr(obj, "cache_info"):
                tracer.lru_functions[name] = obj
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, observers.get(name)))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for layer, class_names in CLASSES.items():
        mod = sys.modules[f"patgf.{layer}"]
        for class_name in class_names:
            cls = getattr(mod, class_name)
            done: dict[int, object] = {}
            for attr, raw in list(vars(cls).items()):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not isinstance(fn, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in OPERATORS and id(fn) not in done:
                    continue
                if id(fn) not in done:
                    method = "new" if attr == "__init__" else attr.strip("_")
                    name = f"{layer}.{class_name.lower()}_{method}"
                    done[id(fn)] = tracer.wrap(name, fn, observers.get(name))
                wrapper = done[id(fn)]
                setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
