"""Span tracer that wraps the program's public functions and methods from outside.

Only the traced benchmark process installs it.  Each wrapped call records one
span (name, start, end, parent) in memory; ``restore`` puts every wrapped
attribute back.  Self time is a span's duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "ctrlstop"
# Modules whose public surface is wrapped, in layer order.
LAYER_MODULES = ("expressions", "model", "kernel", "grid", "solver", "simulate", "oracles")


class Tracer:
    """In-memory span recorder.

    ``hooks`` maps a span name to ``hook(tracer, result) -> result``; a hook
    may read counters off a return value or wrap a returned callable.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn, name: str):
        """Return fn wrapped so that every call records a span called name."""
        nid = self.intern(name)
        hook = self.hooks.get(name)
        stack = self._stack
        starts, ends, parents, ids = self.start, self.end, self.parent, self.name_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            ids.append(nid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            return result if hook is None else hook(self, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods defined in each layer module,
        rebinding every module-level alias of a wrapped function."""
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod in (sys.modules[f"{PACKAGE}.{m}"] for m in LAYER_MODULES):
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in sorted(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                            self._patch(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every attribute that install replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: (name_id, start, end, parent, self_time)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return nid, start, end, parent, dur - child_time

    def save(self, path) -> None:
        """Write all spans and counters to a compressed .npz file."""
        nid, start, end, parent, self_time = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
            self_time=self_time,
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]),
        )
