"""Call tracing for the traced benchmark phase.

The wrappers are installed from outside the library: every public
module-level function of the traced modules is replaced, in every ``bllp``
module that bound it (including names taken with ``from .respoly import
...``), by a wrapper that records the call.  The ``Poly`` operators are
wrapped on the class.  Nothing is installed unless :func:`install` runs, so
untraced runs execute the library unmodified.

A self-recursive function is entered through its wrapper once: while it is
active, its own module binding points back at the original, so recursion
adds no frames (the depth at which ``RecursionError`` strikes stays the
same) and the call count is the number of outermost calls.

Times kept per call:

* ``excl`` -- duration minus all child spans; summed per module, this
  partitions the traced time between modules.
* ``self`` -- duration minus the time spent in calls into *other* modules;
  calls to the same module's public functions stay inside.  This is the
  per-function ``.self_s`` metric.

Spans (id, name, start, end, parent, op) are kept in full for the calls the
benchmark makes into the library (``SPAN_DEPTH`` levels below an op);
deeper calls are folded into per-op aggregates (calls, inclusive, self and
exclusive seconds), which keeps memory bounded on the hot paths.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

MODULES = ("respoly", "formula", "typecheck", "proofs", "lammu", "machine", "syntax", "corpus")
POLY_OPERATORS = ("subst", "__add__", "__radd__", "__mul__", "__rmul__")
SPAN_DEPTH = 1


class Tracer:
    def __init__(self) -> None:
        # frame: [name, module, start, child_s, foreign_s, span_id]
        self.stack: list[list] = []
        self.op = -1
        self.spans: list[tuple] = []
        self.agg: dict[tuple[int, str], list[float]] = {}
        self._next_id = 1

    def _open(self, name: str, module: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [name, module, perf_counter(), 0.0, 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, module, start, child_s, foreign_s, span_id = frame
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent[4] += foreign_s if parent[1] == module else dur
            parent_id = parent[5]
        else:
            parent_id = 0
        if len(self.stack) <= SPAN_DEPTH:
            self.spans.append((span_id, name, start, end, parent_id, self.op))
        key = (self.op, name)
        rec = self.agg.get(key)
        if rec is None:
            self.agg[key] = [1, dur, dur - foreign_s, dur - child_s]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - foreign_s
            rec[3] += dur - child_s

    def begin_op(self, op: int) -> None:
        self.op = op
        self._open("bench.op", "bench")

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def call(self, name: str, module: str, fn, args, kwargs):
        frame = self._open(name, module)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def write(self, path: str, ops: list[dict]) -> None:
        """Write ops, spans and aggregates as JSON lines."""
        with open(path, "w") as fh:
            for rec in ops:
                fh.write(json.dumps({"type": "op", **rec}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"type": "span", "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op}) + "\n")
            for (op, name), (calls, incl, self_s, excl) in self.agg.items():
                fh.write(json.dumps({"type": "agg", "op": op, "name": name, "calls": calls,
                                     "s": incl, "self_s": self_s, "excl_s": excl}) + "\n")


def _make_wrapper(tracer: Tracer, name: str, module: str, fn, home, attr: str):
    # lammu.reduce spans carry the strategy: lammu.reduce.weak, .head, .machine
    split = 1 if name == "lammu.reduce" else None
    recursive = home is not None and fn.__name__ in fn.__code__.co_names
    active = 0

    def wrapper(*args, **kwargs):
        nonlocal active
        label = f"{name}.{args[split]}" if split is not None and len(args) > split else name
        if recursive and active == 0:
            setattr(home, attr, fn)
        active += 1
        try:
            return tracer.call(label, module, fn, args, kwargs)
        finally:
            active -= 1
            if recursive and active == 0:
                setattr(home, attr, wrapper)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the traced modules; returns the names."""
    mods = {m: importlib.import_module(f"bllp.{m}") for m in MODULES}
    replaced: dict[int, object] = {}
    names = []
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            replaced[id(fn)] = _make_wrapper(tracer, name, short, fn, mod, attr)
            names.append(name)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    poly = mods["respoly"].Poly
    for attr in POLY_OPERATORS:
        fn = vars(poly)[attr]
        name = f"respoly.Poly.{attr}"
        setattr(poly, attr, _make_wrapper(tracer, name, "respoly", fn, None, attr))
        names.append(name)
    return names
