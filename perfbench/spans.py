"""Spans and counts around the package's functions, installed from outside it.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of the classes they define, with a wrapper that
records one span per call: name, start, end and the span that was open
when the call began. Each module of the package that bound the same
function by name (``from .solver import solve_stationary``) gets the
wrapper too, so calls through any name are seen. A few calls also keep a
note taken from their arguments or result, such as the table size of a
solver sweep. ``uninstall`` puts every original back, and ``wrapped``
lists any wrapper still in place.

Spans stay in flat arrays in memory while the run lasts; ``save`` writes
them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "polyadnet"
LAYERS = ("cli", "solver", "distributions", "calibrate", "engine", "layers", "graph", "analysis")
# private functions traced by name; a name that is absent is reported missing
PRIVATE = {"solver": ("_sweep_kernel", "_solve_at")}

MARK = "__perfbench_traced__"


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# span name -> note(args, kwargs, result), kept per call
NOTES = {
    "solver._sweep_kernel": lambda a, k, r: len(_arg(a, k, 0, "arr")),
    "solver._solve_at": lambda a, k, r: r[1],
    "layers.LayerIndex.sample_many": lambda a, k, r: _arg(a, k, 2, "count"),
    "distributions.DegreeDistribution.from_probs": lambda a, k, r: len(_arg(a, k, 1, "probs")),
    "engine.grow": lambda a, k, r: r.steps,
    "analysis.triangle_count": lambda a, k, r: (id(a[0]), len(a[0].edges)),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _own(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.notes: dict[str, list] = {name: [] for name in NOTES}
        self.raised: list[tuple[int, type]] = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ---- recording ------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns
        note = NOTES.get(name)
        notes = self.notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised.append((i, type(exc)))
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes.append((i, note(args, kwargs, result)))
            return result

        setattr(traced, MARK, True)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        i = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    # ---- installing -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, fn, name: str, modules) -> None:
        wrapper = self._wrap(fn, name)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    self._replace(m, attr, wrapper)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self._wrap(raw, name))

    def install(self, only: set[str] | None = None) -> "Tracer":
        """Wrap the layers' functions; with ``only``, just the span names given."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        everywhere = _package_modules()
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _own(obj, mod):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if only is None or name in only:
                        self._wrap_function(obj, name, everywhere)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    if only is None or any(o.startswith(name + ".") for o in only):
                        self._wrap_class(obj, layer)
            for attr in PRIVATE.get(layer, ()):
                name = f"{layer}.{attr}"
                if only is not None and name not in only:
                    continue
                fn = vars(mod).get(attr)
                if callable(fn):
                    self._wrap_function(fn, name, [mod])
                else:
                    self.missing.append(name)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results --------------------------------------------------------

    def arrays(self):
        """(name id, parent, duration ns, self ns) per span, as numpy arrays."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, dur, dur - child

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name, _, dur, own = self.arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": selfs[i] / 1e9}
            for i, n in enumerate(self.names)
        }

    def root(self, i: int) -> int:
        """The outermost span enclosing span ``i``."""
        parent = self.span_parent
        while parent[i] >= 0:
            i = parent[i]
        return i

    def name_of(self, i: int) -> str:
        return self.names[self.span_name[i]]

    def save(self, path) -> None:
        name, parent, dur, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def wrapped() -> list[str]:
    """Every wrapper of any Tracer still bound in the package."""
    found = []
    for m in _package_modules():
        for attr, val in vars(m).items():
            if getattr(val, MARK, False):
                found.append(f"{m.__name__}.{attr}")
            elif inspect.isclass(val) and _own(val, m):
                for cattr, raw in vars(val).items():
                    if getattr(getattr(raw, "__func__", raw), MARK, False):
                        found.append(f"{m.__name__}.{val.__name__}.{cattr}")
    return found
