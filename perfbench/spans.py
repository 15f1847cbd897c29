"""In-memory span recorder and the traced view of pdakit's layers.

The benchmark calls pdakit only through a ``Layers`` namespace.  Untraced,
its attributes are the pdakit modules themselves.  Traced, every public
function of a layer module is wrapped so that each call the benchmark makes
records a span named ``<layer>.<function>``.  Calls pdakit makes internally
(lifting validating its result, say) are not split out: they belong to the
span of the public call that made them.

Spans are kept in a list while the run lasts and written out once at the
end.  A span's self time is its duration minus the time its child spans
cover; spans of one op share the op's id.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("gridio", "constructions", "core", "compatibility", "lifting", "simulate")


class Layers:
    """One attribute per pdakit layer module."""

    def __init__(self, modules: dict):
        for name, mod in modules.items():
            setattr(self, name, mod)


def import_layers() -> Layers:
    """Import pdakit from scratch, so the import cost is paid again.

    Dropping the cached pdakit modules first makes each set-up repetition
    pay the import of pdakit's own modules again.
    """
    for name in [m for m in sys.modules if m == "pdakit" or m.startswith("pdakit.")]:
        del sys.modules[name]
    return Layers({name: importlib.import_module(f"pdakit.{name}") for name in LAYERS})


class Recorder:
    """Spans as [id, name, start, end, parent id, op id] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    def begin(self, name: str) -> list:
        span = [len(self.spans), name, perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self.op_id]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict:
        """Self time of every span, keyed by span id."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _TracedModule:
    def __init__(self, layer: str, module, rec: Recorder):
        for name, fn in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                fn = _wrap(f"{layer}.{name}", fn, rec)
            setattr(self, name, fn)


def _wrap(span_name: str, fn, rec: Recorder):
    def traced(*args, **kwargs):
        span = rec.begin(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)

    return traced


def traced_layers(layers: Layers, rec: Recorder) -> Layers:
    return Layers({name: _TracedModule(name, getattr(layers, name), rec) for name in LAYERS})
