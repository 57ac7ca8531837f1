"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install` replaces public names with timing wrappers in every module
namespace where a caller looks them up, so the library itself is not
edited.  A span is (name, start, end, parent, request, pass, info): parent
is the index of the enclosing span or -1, and info holds what the layer
returned that a per-layer metric needs (poset size, search outcome, rank
matrix size).  Spans stay in memory and are written out once, at the end,
with start and end in reference seconds (see refclock.py).

A wrapped name that has vanished from the library raises TraceSetupError:
a layer that can no longer be seen must fail the run, never read as zero.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Callers bind these names into their own
# module globals with `from .x import y`, so each binding is wrapped where
# it is looked up.  `monocanon.sdepth` on the package is the function; its
# module is reached through sys.modules.
WRAPPED = [
    ("monocanon", "parse_problem", "parse"),
    ("monocanon", "canonicalize", "canonicalize"),
    ("monocanon", "sdepth", "sdepth"),
    ("monocanon", "verify_decomposition", "verify"),
    ("monocanon", "depth", "depth"),
    ("monocanon.sdepth", "char_poset", "poset"),
    ("monocanon.sdepth", "exists_partition", "search"),
    ("monocanon.koszul", "homology_profile", "profile"),
    ("monocanon.koszul", "matrix_rank", "rank"),
    ("monocanon.invariance", "check_forms", "check"),
    ("monocanon.invariance", "canonicalize", "canonicalize"),
    ("monocanon.invariance", "sdepth", "sdepth"),
    ("monocanon.invariance", "verify_decomposition", "verify"),
    ("monocanon.invariance", "depth", "depth"),
]

# Per-layer metrics in report order, with units.
LAYER_METRICS = {
    "parse.busy_s": "s",
    "canonical.busy_s": "s",
    "sdepth.poset.busy_s": "s",
    "sdepth.poset.cells": "count",
    "sdepth.poset.elements": "count",
    "sdepth.search.levels": "count",
    "sdepth.search.feasible_s": "s",
    "sdepth.search.infeasible_s": "s",
    "sdepth.search.limited_s": "s",
    "sdepth.search.limit_hits": "count",
    "sdepth.verify.self_s": "s",
    "sdepth.verify.poset_s": "s",
    "sdepth.cert.intervals": "count",
    "ideals.contains.calls": "count",
    "koszul.scan.self_s": "s",
    "koszul.profile.calls": "count",
    "koszul.profile.self_s": "s",
    "koszul.rank.calls": "count",
    "koszul.rank.busy_s": "s",
    "koszul.rank.entries": "count",
    "invariance.check.self_s": "s",
    "invariance.skipped": "count",
    "trace.overhead_frac": "frac",
}

# The span whose presence makes a metric meaningful, and what calls it.
_SOURCE = {
    "sdepth.": ("sdepth", "no sdepth request and no check request"),
    "koszul.": ("depth", "no depth request and no check request"),
    "invariance.": ("check", "no check request"),
    "parse.": ("parse", "no request"),
    "canonical.": ("canonicalize", "no canonical request"),
}


class TraceSetupError(RuntimeError):
    """A name the tracer wraps is missing from the library."""


def _info(name, args, result):
    """What a span keeps of its call for the per-layer counts."""
    if name == "poset":
        return (result.volume, len(result.coords))
    if name == "search":
        return "infeasible" if result is None else "feasible"
    if name == "rank":
        rows = args[0]
        return len(rows) * len(rows[0]) if rows else 0
    if name == "verify":
        return len(args[1].intervals)
    if name == "check":
        return result.status
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.contains_calls: list[int] = []
        self.request = -1
        self.pass_index = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        originals: dict[int, object] = {}
        for modname, attr, name in WRAPPED:
            module = sys.modules.get(modname)
            if module is None:
                raise TraceSetupError(f"module {modname} is not loaded")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceSetupError(f"{modname}.{attr} is missing or not callable")
            # one wrapper per function, however many namespaces bind it
            wrapper = originals.get(id(fn))
            if wrapper is None:
                wrapper = originals[id(fn)] = self._wrap(fn, name)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapper)
        ideals = sys.modules.get("monocanon.ideals")
        cls = getattr(ideals, "MonomialIdeal", None)
        contains = getattr(cls, "contains", None)
        if not callable(contains):
            raise TraceSetupError("monocanon.ideals.MonomialIdeal.contains is missing")
        counter = self.contains_calls

        def counted(ideal, m):
            counter[-1] += 1
            return contains(ideal, m)

        self._restore.append((cls, "contains", contains))
        cls.contains = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.request, self.pass_index, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = f"raised {type(exc).__name__}"
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[6] = _info(name, args, result)
            return result

        return wrapper

    def retime(self, at) -> None:
        """Map every span's start and end through `at`, a RefClock's
        perf_counter-to-reference-seconds map."""
        for span in self.spans:
            span[1], span[2] = at(span[1]), at(span[2])

    def start_pass(self, index: int) -> None:
        self.pass_index = index
        self.contains_calls.append(0)

    # ---------------------------------------------------------- metrics

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer totals over the spans of one traced pass."""
        by_index = {i: s for i, s in enumerate(self.spans) if s[5] == index}
        child = defaultdict(float)
        for s in by_index.values():
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        m = dict.fromkeys(LAYER_METRICS, 0.0)
        for i, s in by_index.items():
            name, start, end, parent, _, _, info = s
            dur = end - start
            self_s = dur - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "parse":
                m["parse.busy_s"] += dur
            elif name == "canonicalize":
                m["canonical.busy_s"] += dur
            elif name == "poset":
                if parent_name == "verify":
                    m["sdepth.verify.poset_s"] += dur
                else:
                    m["sdepth.poset.busy_s"] += dur
                    if isinstance(info, tuple):
                        m["sdepth.poset.cells"] += info[0]
                        m["sdepth.poset.elements"] += info[1]
            elif name == "search":
                m["sdepth.search.levels"] += 1
                if info == "feasible":
                    m["sdepth.search.feasible_s"] += dur
                elif info == "infeasible":
                    m["sdepth.search.infeasible_s"] += dur
                else:
                    m["sdepth.search.limited_s"] += dur
                    m["sdepth.search.limit_hits"] += 1
            elif name == "verify":
                m["sdepth.verify.self_s"] += self_s
                if isinstance(info, int):
                    m["sdepth.cert.intervals"] += info
            elif name == "depth":
                m["koszul.scan.self_s"] += self_s
            elif name == "profile":
                m["koszul.profile.calls"] += 1
                m["koszul.profile.self_s"] += self_s
            elif name == "rank":
                m["koszul.rank.calls"] += 1
                m["koszul.rank.busy_s"] += dur
                if isinstance(info, int):
                    m["koszul.rank.entries"] += info
            elif name == "check":
                m["invariance.check.self_s"] += self_s
                if info == "SKIPPED":
                    m["invariance.skipped"] += 1
        m["ideals.contains.calls"] = self.contains_calls[index]
        return m

    def absent(self) -> dict[str, str]:
        """Metric prefixes with no span in this run, and why."""
        seen = {s[0] for s in self.spans}
        return {prefix: why for prefix, (span, why) in _SOURCE.items()
                if span not in seen}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, pass_index, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request": request, "pass": pass_index, "info": info,
                }) + "\n")


def summarize(per_pass: list[dict[str, float]], overhead_frac: float) -> dict:
    """Counts from the first traced pass, times as medians over passes."""
    out = {}
    for metric, unit in LAYER_METRICS.items():
        if metric == "trace.overhead_frac":
            value = overhead_frac
        elif unit == "count":
            value = int(per_pass[0][metric])
        else:
            value = statistics.median(p[metric] for p in per_pass)
        out[metric] = {"value": value, "unit": unit}
    return out
