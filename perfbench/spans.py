"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each library module from the
outside: it replaces the function (or ``Series`` method) on its defining
module and on every ``wseries`` module that re-imported it by name, so a call
through ``pipelines.weierstrass_prepare`` or ``cli.parse_series`` is seen too.
Each call becomes a span ``(name, start, end, parent, op)``; spans stay in
memory and are written out once, at the end of the run.  ``Fraction``
arithmetic is counted, not spanned, because a span per coefficient operation
would cost more than the operation.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

# (span name, module, attribute); a module name of "Series" means a method
ENTRY_POINTS = (
    ("series.init", "Series", "__init__"),
    ("series.add", "Series", "__add__"),
    ("series.sub", "Series", "__sub__"),
    ("series.sub", "Series", "__rsub__"),
    ("series.mul", "Series", "__mul__"),
    ("series.pow", "Series", "__pow__"),
    ("series.inverse", "Series", "inverse"),
    ("series.compose", "Series", "compose"),
    ("series.substitute", "Series", "substitute"),
    ("localring.solve_implicit", "wseries.localring", "solve_implicit"),
    ("weierstrass.divide", "wseries.weierstrass", "weierstrass_divide"),
    ("weierstrass.prepare", "wseries.weierstrass", "weierstrass_prepare"),
    ("pipelines.split_square", "wseries.pipelines", "split_square"),
    ("pipelines.holomorphic_extension", "wseries.pipelines",
     "holomorphic_extension"),
    ("pipelines.semigroup_check", "wseries.pipelines", "semigroup_check"),
    ("parser.parse_series", "wseries.parser", "parse_series"),
    ("cli.main", "wseries.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))

# counted per call: (parent span, child span) -> metric name
PER_CALL = (
    ("series.inverse", "series.mul", "series.inverse.mul_per_call"),
    ("localring.solve_implicit", "series.substitute",
     "localring.solve_implicit.substitute_per_call"),
    ("weierstrass.divide", "series.mul", "weierstrass.divide.mul_per_call"),
)

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


class Recorder:
    """Collects spans and counts while ``active``; inert otherwise, so the
    benchmark's own untimed checks leave no trace."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.op = -1
        self.fraction_ops = 0
        self.mul_terms_out = 0
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_terms = name == "series.mul"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count_terms and result is not NotImplemented:
                self.mul_terms_out += len(result.terms)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            if self.active:
                self.fraction_ops += 1
            return fn(*args)

        return counted

    def install(self):
        """Patch every entry point; returns a function that undoes it."""
        from wseries.series import Series

        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for name, module, attr in ENTRY_POINTS:
            if module == "Series":
                original = Series.__dict__[attr]
                wrapped = self._wrap(name, original)
                for alias, value in list(Series.__dict__.items()):
                    if value is original:
                        replace(Series, alias, wrapped)
                continue
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "wseries" or mod_name.startswith("wseries."):
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, alias, wrapped)
        for attr in _FRACTION_OPS:
            replace(Fraction, attr, self._count(getattr(Fraction, attr)))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the direct
        child counts behind each ``*_per_call`` metric."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        for parent_name, child_name, metric in PER_CALL:
            children = sum(1 for name, _, _, parent, _ in spans
                           if name == child_name and parent >= 0
                           and spans[parent][0] == parent_name)
            calls = out[f"{parent_name}.calls"]
            out[metric] = children / calls if calls else 0.0
        out["series.mul.terms_out"] = self.mul_terms_out
        out["series.fraction_ops"] = self.fraction_ops
        return out

    def dump(self, path) -> None:
        """Write every span as JSON lines (gzip) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
