"""Spans recorded around the package's public functions, from outside.

The package is not edited: `Tracer.install` replaces each public function
of the eight modules by a wrapper, in every module namespace that holds it
(so names that `trainer`, `cli`, `air_reg` and the others import directly
are wrapped too), plus the `SamplingMask.n_observed` property and
`Adam.step`. A span is (name, start, end, parent, run id); spans stay in
memory and are written once, when the traced process ends.

Self time of a span is its duration minus the durations of its direct
children. Calls are single-threaded and nested, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import namedtuple

MODULES = ("mat_core", "data_lab", "dmf", "air_reg", "trainer", "baselines",
           "theory_lab", "cli")

# Functions outside a module's __all__ that a per-layer metric names, with
# the short label the metric uses.
EXTRA = {
    "dmf": {"factor_grads_from_full": "factor_grads"},
    "cli": {"read_matrix_csv": "read_matrix_csv",
            "write_matrix_csv": "write_matrix_csv",
            "_gradcheck": "gradcheck"},
}

# Calls that bound the iterations a per-iteration metric divides by: the
# training call of `complete` and the gradient-flow loops of `verify`.
SCOPES = ("trainer.train", "theory_lab.verify_theorem1",
          "theory_lab.verify_balance")

Span = namedtuple("Span", "name start end parent run_id")


def public_functions(short: str, mod) -> dict:
    """{attribute: span name} for the module's own public functions."""
    out = {}
    for attr in getattr(mod, "__all__", ()):
        fn = getattr(mod, attr, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            out[attr] = f"{short}.{attr}"
    for attr, label in EXTRA.get(short, {}).items():
        out[attr] = f"{short}.{label}"
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    def install(self, only=None):
        """Wrap every public function, or only the span names in `only`.

        The property and method hooks are layer internals, so they are
        installed only in the full traced mode (`only` is None).
        """
        pkg = importlib.import_module("aircomplete")
        mods = {s: importlib.import_module(f"aircomplete.{s}") for s in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, name in public_functions(short, mod).items():
                if only is None or name in only:
                    fn = getattr(mod, attr)
                    wrappers[fn] = self.wrap(name, fn)
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        if only is None:
            mask_cls = mods["data_lab"].SamplingMask
            mask_cls.n_observed = property(
                self.wrap("data_lab.n_observed", mask_cls.n_observed.fget))
            adam = mods["trainer"].Adam
            adam.step = self.wrap("trainer.Adam.step", adam.step)

    def write(self, path):
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f)


def read_spans(path) -> list:
    with open(path) as f:
        rec = json.load(f)
    return [Span(*s, rec["run_id"]) for s in rec["spans"]]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def in_scope(spans, scopes=SCOPES) -> list:
    """Whether each span is a scope call or runs inside one. A parent is
    always recorded before its children."""
    flags = []
    for s in spans:
        flags.append(s.name in scopes or (s.parent >= 0 and flags[s.parent]))
    return flags


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, over the whole
    process and inside the scope calls only."""
    out: dict = {}
    for s, own, scoped in zip(spans, self_times(spans), in_scope(spans)):
        a = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "scope_calls": 0, "scope_s": 0.0,
                                    "scope_self_s": 0.0})
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += own
        if scoped:
            a["scope_calls"] += 1
            a["scope_s"] += s.end - s.start
            a["scope_self_s"] += own
    return out
