"""Per-layer tracing of the asvnav package from outside it.

The layers are the package modules. Tracing replaces the public functions
of those modules (and a few named methods) with wrappers, in every module
namespace that holds them, and restores the originals afterwards. Nothing
under src/ changes.

Two kinds of wrapper exist:

- span wrappers record (name, parent, start, end) in flat in-memory arrays
  and are used for timing. geo is left out of the span set, because its
  helpers run dozens of times per tick and wrapping them would bury the
  other layers under wrapper cost; geo time stays in its callers' self time.
- counting wrappers only increment a counter. They cover every public
  function and method of every layer, geo included, in a separate pass.
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

LAYERS = ("geo", "env", "vehicle", "effects", "control", "augment", "metrics", "harness", "cli")

# Layers whose module-level functions get span wrappers in the timed pass.
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "geo")

# Methods that carry a per-layer metric and so get span wrappers too.
SPAN_METHODS = (
    ("effects", "EffectModel", "predict"),
    ("effects", "OracleEffectModel", "predict"),
    ("effects", "TrainingSample", "__post_init__"),
    ("metrics", "TrajectoryLog", "append"),
    ("metrics", "TrajectoryLog", "to_csv"),
    ("metrics", "TrajectoryLog", "write_csv"),
    ("metrics", "TrajectoryLog", "from_csv"),
    ("metrics", "ComparisonTable", "to_text"),
    ("metrics", "ComparisonTable", "to_csv"),
)


def _module(layer: str):
    return importlib.import_module(f"asvnav.{layer}")


def public_functions(layer: str) -> dict[str, object]:
    """name -> function for the public functions defined in one layer."""
    mod = _module(layer)
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    }


def public_methods(layer: str) -> list[tuple[str, str]]:
    """(class, attribute) for the public methods and validators of one layer's classes."""
    mod = _module(layer)
    out = []
    for cls_name, cls in vars(mod).items():
        if cls_name.startswith("_") or not inspect.isclass(cls) or cls.__module__ != mod.__name__:
            continue
        for attr, raw in vars(cls).items():
            if attr.startswith("_") and attr != "__post_init__":
                continue
            if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                out.append((cls_name, attr))
    return out


class Patcher:
    """Replaces package callables with wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, original, wrapper) -> None:
        """Rebind every package-module name that refers to original."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "asvnav" or name.startswith("asvnav.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make_wrapper(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class SpanRecorder:
    """In-memory span store: one entry per wrapped call, parents by index.

    A span is allocated on entry, so a parent's index is always lower than
    its children's; its end time is filled in on exit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        """Id of name; installing the wrappers again reuses it."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapper(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        patcher = Patcher()
        try:
            for layer in SPAN_LAYERS:
                for fname, fn in public_functions(layer).items():
                    patcher.function(fn, self.wrapper(f"{layer}.{fname}", fn))
            for layer, cls_name, attr in SPAN_METHODS:
                cls = getattr(_module(layer), cls_name)
                qual = f"{layer}.{cls_name}.{attr}"
                patcher.method(cls, attr, functools.partial(self.wrapper, qual))
            yield self
        finally:
            patcher.restore()

    def table(self, lo: int, hi: int) -> "SpanTable":
        """Spans lo..hi as a SpanTable. The arrays are copies: a live view
        of an array.array would stop it from growing."""
        return SpanTable(
            names=self.names,
            name_id=np.frombuffer(self.name_id, dtype=np.uint16)[lo:hi].astype(np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo,
            start=np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            end=np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        )

    def save(self, path) -> None:
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanTable:
    """Spans of one pass as arrays, with self time and per-name reductions.

    parent is rebased to the slice; spans whose parent lies outside the
    slice (or who have none) get a negative parent.
    """

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.duration = end - start
        n = len(start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child[:n]
        self._ids = {name: i for i, name in enumerate(names)}

    def mask(self, names) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.name_id, ids)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        return self.mask([n for n in self.names if n.startswith(prefix)])

    def under(self, names) -> np.ndarray:
        """True for spans that have an ancestor (or are themselves) in names."""
        flag = self.mask(names)
        has_parent = self.parent >= 0
        while True:
            inherited = flag.copy()
            inherited[has_parent] |= flag[self.parent[has_parent]]
            if np.array_equal(inherited, flag):
                return flag
            flag = inherited

    def entries(self, member: np.ndarray) -> np.ndarray:
        """Spans in member whose parent is not in member: entries into a group."""
        outer = np.ones(len(member), dtype=bool)
        has_parent = self.parent >= 0
        outer[has_parent] = ~member[self.parent[has_parent]]
        return member & outer

    def count(self, member: np.ndarray) -> int:
        return int(np.count_nonzero(member))

    def self_sum(self, member: np.ndarray) -> float:
        return float(self.self_time[member].sum())

    def total(self, member: np.ndarray) -> float:
        """Inclusive time of the outermost spans of member, so nesting is not double counted."""
        return float(self.duration[self.entries(member)].sum())


class CallCounter:
    """Counting wrappers over every public function and method of every layer."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: list[int] = []

    def wrapper(self, name: str, fn):
        key = len(self.counts)
        self.names.append(name)
        self.counts.append(0)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        patcher = Patcher()
        try:
            for layer in LAYERS:
                for fname, fn in public_functions(layer).items():
                    patcher.function(fn, self.wrapper(f"{layer}.{fname}", fn))
                cls_owner = _module(layer)
                for cls_name, attr in public_methods(layer):
                    cls = getattr(cls_owner, cls_name)
                    patcher.method(cls, attr, functools.partial(self.wrapper, f"{layer}.{cls_name}.{attr}"))
            yield self
        finally:
            patcher.restore()

    def reset(self) -> None:
        for i in range(len(self.counts)):
            self.counts[i] = 0

    def layer_total(self, layer: str) -> int:
        prefix = layer + "."
        return sum(c for n, c in zip(self.names, self.counts) if n.startswith(prefix))
