"""Function-level tracer for the afdof layer modules, installed from outside.

The tracer replaces each public function of the layer modules with a
timing wrapper, in every module namespace that binds it (consumers import
names directly, e.g. ``from .channel import end_to_end``), so calls made
through any binding are counted once and attributed to the module that
defines the function (``f.__module__``).  Nothing under ``src/`` changes.

Per function it keeps call counts, inclusive time and self time (inclusive
minus the time of wrapped callees).  Named groups give the inclusive time of
the outermost call into any member, so nested members (``census`` calling
``slot_states``) are not counted twice.  Functions in ``hot`` keep only
these aggregates; the others also record one span per call
``(name, start, end, parent)``.
A function named in ``groups``, ``hot`` or ``probes`` that the package no
longer defines is skipped, so later refactors do not break the harness.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, package, layers, hot=(), groups=None, probes=None):
        self.package = package
        self.layers = {f"{package.__name__}.{name}": name for name in layers}
        self.hot = set(hot)
        self.member_of = defaultdict(list)
        for group, members in (groups or {}).items():
            for key in members:
                self.member_of[key].append(group)
        self.probes = dict(probes or {})
        self.stats = {}             # key -> [calls, incl_s, self_s]
        self.group_incl = defaultdict(float)
        self.group_depth = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans = []             # [key, start, end, parent index or -1]
        self.covered_s = 0.0        # time inside outermost wrapped calls
        self._frames = []           # child time of each active call
        self._span_stack = []
        self._originals = []        # (namespace, name, original)

    def _namespaces(self):
        yield self.package
        for qualname in self.layers:
            module = sys.modules.get(qualname)
            if module is not None:
                yield module

    def install(self) -> None:
        wrappers = {}
        for ns in self._namespaces():
            for name, obj in list(vars(ns).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in self.layers):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._originals.append((ns, name, obj))
                setattr(ns, name, wrappers[obj])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._originals):
            setattr(ns, name, obj)
        self._originals.clear()

    def _wrap(self, f):
        key = f"{self.layers[f.__module__]}.{f.__name__}"
        groups = (self.layers[f.__module__], *self.member_of.get(key, ()))
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        keep_spans = key not in self.hot
        probe = self.probes.get(key)
        frames, span_stack, spans = self._frames, self._span_stack, self.spans
        depth, incl = self.group_depth, self.group_incl
        tracer = self

        def wrapper(*args, **kwargs):
            span = -1
            if keep_spans:
                span = len(spans)
                spans.append([key, 0.0, 0.0, span_stack[-1] if span_stack else -1])
                span_stack.append(span)
            outer = [g for g in groups if depth[g] == 0]
            for g in groups:
                depth[g] += 1
            frames.append(0.0)
            t0 = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                child = frames.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if frames:
                    frames[-1] += dur
                else:
                    tracer.covered_s += dur
                for g in groups:
                    depth[g] -= 1
                for g in outer:
                    incl[g] += dur
                if span >= 0:
                    span_stack.pop()
                    spans[span][1] = t0
                    spans[span][2] = t1
            if probe is not None:
                probe(tracer.counters, args, kwargs, result)
            return result

        return functools.wraps(f)(wrapper)

    def report(self) -> dict:
        return {
            "functions": {k: {"calls": c, "incl_s": i, "self_s": s}
                          for k, (c, i, s) in sorted(self.stats.items()) if c},
            "groups": dict(self.group_incl),
            "counters": dict(self.counters),
            "covered_s": self.covered_s,
            "spans": self.spans,
        }
