"""Span tracing from outside the program, for the benchmark's traced run.

The tracer replaces public functions and methods of ``isopairs`` with
wrappers that record one span per call: name, start, end, parent span
and the run phase, plus optional attributes computed from the result.
Spans stay in memory until the run ends; ``uninstall`` restores every
original, so the untraced iterations run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

# span record fields
NAME, START, END, PARENT, PHASE, ATTRS = range(6)


@dataclass
class Target:
    """One traced callable: ``owner.attr``.  When ``owner`` is a module,
    every module of ``modules`` that imported the same function under
    the same name is patched too, so calls through ``from x import f``
    bindings are seen as well.  ``attrs`` maps the call's result to the
    span's attributes."""

    name: str
    owner: Any
    attr: str
    attrs: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.phase = ""
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attr, original, wrapper)

    def _open(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if target.attrs is not None:
                rec[ATTRS] = target.attrs(result)
            return result

        return wrapper

    def prepare(self, targets, modules):
        """Resolve every target once; missing ones are reported, not fatal,
        so that a program refactor shows up as zero calls plus a warning."""
        for t in targets:
            fn = getattr(t.owner, t.attr, None)
            if fn is None:
                self.missing.append(t.name)
                continue
            wrapper = self._wrap(t, fn)
            owners = [t.owner]
            if isinstance(t.owner, types.ModuleType):
                owners = [m for m in modules if getattr(m, t.attr, None) is fn]
            self._patches += [(o, t.attr, fn, wrapper) for o in owners]
        if self.missing:
            print("trace: not found, reported as zero: " + ", ".join(self.missing),
                  file=sys.stderr)

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start_ns": rec[START],
                    "end_ns": rec[END], "parent": rec[PARENT], "phase": rec[PHASE],
                    "attrs": rec[ATTRS],
                }) + "\n")


class Summary:
    """Totals over the spans of one phase."""

    def __init__(self, spans, phase):
        self.spans = spans
        self.ids = [i for i, rec in enumerate(spans) if rec[PHASE] == phase]
        self.child_time: dict = {}
        for i in self.ids:
            p = spans[i][PARENT]
            if p >= 0:
                self.child_time[p] = self.child_time.get(p, 0) + self._dur(i)

    def _dur(self, i):
        rec = self.spans[i]
        return rec[END] - rec[START]

    def _has_ancestor(self, i, pred):
        p = self.spans[i][PARENT]
        while p >= 0:
            if pred(self.spans[p][NAME]):
                return True
            p = self.spans[p][PARENT]
        return False

    def named(self, name):
        return [i for i in self.ids if self.spans[i][NAME] == name]

    def calls(self, name) -> int:
        return len(self.named(name))

    def seconds(self, name) -> float:
        return sum(self._dur(i) for i in self.named(name)) / 1e9

    def self_seconds(self, name) -> float:
        """Time in ``name`` not covered by its direct child spans."""
        return sum(self._dur(i) - self.child_time.get(i, 0) for i in self.named(name)) / 1e9

    def layer_seconds(self, prefix) -> float:
        """Time in spans of one layer, counting nested calls once."""
        def inside(n):
            return n.startswith(prefix)
        return sum(
            self._dur(i) for i in self.ids
            if inside(self.spans[i][NAME]) and not self._has_ancestor(i, inside)
        ) / 1e9

    def attr_sum(self, name, key) -> float:
        return sum((self.spans[i][ATTRS] or {}).get(key, 0) for i in self.named(name))
