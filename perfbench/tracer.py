"""Spans around the public functions of each domkit module.

``Tracer.install`` wraps every public function and method defined in a
layer module (plus the arithmetic and comparison operators of its
classes) and rebinds the wrapper at every module binding of the
original, so a call through a name imported into another module, such
as ``make_node`` inside ``domkit.oracle``, is seen too.  ``remove``
restores every original and checks that no wrapper is left behind.

A span is a call into a layer from another layer or from the benchmark;
a call that stays inside its layer is only counted.  Self time is a
span's duration minus the time its child spans cover, so time spent in
``fractions`` or in private helpers counts toward the calling layer.
Spans are kept in memory in flat arrays and written out by ``write``.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array

OPERATORS = frozenset({
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__",
    "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
})

BENCH = "bench"


def _wanted(name: str) -> bool:
    return not name.startswith("_") or name in OPERATORS


class Tracer:
    def __init__(self, layer_modules: dict, extra_modules: list):
        """``layer_modules`` maps a layer name to its module; functions
        are wrapped where they are defined and rebound in those modules
        and in ``extra_modules``."""
        self.layer_modules = layer_modules
        self.bind_modules = list(layer_modules.values()) + list(extra_modules)
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls = array("q")
        self.self_s = {layer: 0.0 for layer in layer_modules}
        self.entries = {layer: 0 for layer in layer_modules}
        self.entered_from: dict = {}
        self.stack = [[BENCH, 0.0, -1]]
        self.request = -1
        self.next_id = 0
        self.span_id, self.span_parent = array("q"), array("q")
        self.span_fn, self.span_req = array("l"), array("q")
        self.span_t0, self.span_t1 = array("d"), array("d")
        self._patches: list = []
        self._wrappers: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__qualname__}")
        self.layer_of.append(layer)
        self.calls.append(0)
        calls, stack, clock = self.calls, self.stack, time.perf_counter
        self_s, entries, entered_from = self.self_s, self.entries, self.entered_from
        ids, parents, fns, reqs = self.span_id, self.span_parent, self.span_fn, self.span_req
        t0s, t1s = self.span_t0, self.span_t1
        tracer = self

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            top = stack[-1]
            if top[0] is layer:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            key = (fid, top[0])
            entered_from[key] = entered_from.get(key, 0) + 1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                self_s[layer] += dur - frame[1]
                entries[layer] += 1
                ids.append(sid)
                parents.append(top[2])
                fns.append(fid)
                reqs.append(tracer.request)
                t0s.append(t0)
                t1s.append(t1)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.perfbench_wrapper = True
        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, mod in self.layer_modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not _wanted(attr):
                            continue
                        if inspect.isfunction(val):
                            self._patch(obj, attr, self._wrap(val, layer))
                        elif isinstance(val, (classmethod, staticmethod)):
                            self._patch(obj, attr, type(val)(self._wrap(val.__func__, layer)))
        for mod in self.bind_modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, name, self._wrappers[obj])

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        left = self.installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left[:5]}")

    def installed_wrappers(self) -> list[str]:
        """Names of wrappers still bound in any traced module or class."""
        found = []
        owners = list(self.bind_modules)
        owners += [obj for mod in self.layer_modules.values()
                   for obj in vars(mod).values() if inspect.isclass(obj)]
        for owner in owners:
            for name, obj in vars(owner).items():
                fn = getattr(obj, "__func__", obj)
                if getattr(fn, "perfbench_wrapper", False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return found

    # -- results ------------------------------------------------------------

    def calls_of(self, qualified: str) -> int:
        """All calls of one function, inside its layer or not."""
        return sum(self.calls[i] for i, n in enumerate(self.names) if n == qualified)

    def calls_from(self, qualified: str, caller_layer: str) -> int:
        """Spans into one function opened from the given layer."""
        return sum(c for (fid, caller), c in self.entered_from.items()
                   if caller == caller_layer and self.names[fid] == qualified)

    def span_count(self) -> int:
        return len(self.span_id)

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, parent, request, name, start, end
        (seconds from the first span)."""
        base = min(self.span_t0) if self.span_t0 else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            names = self.names
            for sid, par, fid, req, t0, t1 in zip(self.span_id, self.span_parent,
                                                  self.span_fn, self.span_req,
                                                  self.span_t0, self.span_t1):
                fh.write(f"{sid},{par},{req},{names[fid]},{t0 - base:.9f},{t1 - base:.9f}\n")
