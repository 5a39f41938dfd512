"""Spans and exact counters around the public functions of each kcg layer.

The benchmark wraps the functions from the outside: ``Tracer.install``
replaces every attribute of every loaded ``kcg`` module (and the two
``Factorization`` methods) that is bound to a traced function, so calls
through ``from .laurent import factor`` aliases are seen as well as calls
through ``laurent.factor``.  Spans are kept in memory and written out at
the end; nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# metric prefix -> (module, attribute path) of each traced function
TRACED = {
    "laurent.factor": ("kcg.laurent", "factor"),
    "laurent.divides": ("kcg.laurent", "Factorization.divides"),
    "laurent.fmul": ("kcg.laurent", "Factorization.__mul__"),
    "seifert.alexander": ("kcg.seifert", "alexander"),
    "seifert.murasugi_signature": ("kcg.seifert", "murasugi_signature"),
    "seifert.signature_profile": ("kcg.seifert", "signature_profile"),
    "seifert.unit_circle_root_angles": ("kcg.seifert", "unit_circle_root_angles"),
    "foxmilnor.enhanced_required_factors": ("kcg.foxmilnor", "enhanced_required_factors"),
    "foxmilnor.residual": ("kcg.foxmilnor", "residual"),
    "bounds.gc_bounds": ("kcg.bounds", "gc_bounds"),
    "bounds.classify": ("kcg.bounds", "classify"),
    "tabledata.parse_table": ("kcg.tabledata", "parse_table"),
    "tabledata.census": ("kcg.tabledata", "census"),
    "tabledata.report_tsv": ("kcg.tabledata", "report_tsv"),
    "tabledata.match_candidates": ("kcg.tabledata", "match_candidates"),
    "cli.main": ("kcg.cli", "main"),
}

# called hundreds of thousands of times per run: counted, without spans
COUNTED_ONLY = ("laurent.divides", "laurent.fmul")

# spans whose first argument is recorded, to count distinct inputs
KEYED = ("laurent.factor", "bounds.gc_bounds")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: object
    error: str | None = None


def self_times(spans) -> list[float]:
    """Per span, its duration minus the part of it covered by the union
    of its direct children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call of each traced function, with the item
    id set by the caller, and exact per-function counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: object = None
        self.keys: dict[str, Counter] = {name: Counter() for name in KEYED}
        self.kept = 0  # matches returned by match_candidates
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, keyed = self.spans, self._stack, self.keys.get(name)
        if name in COUNTED_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.item)
            stack.append(len(spans))
            spans.append(span)
            if keyed is not None:
                keyed[args[0]] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "tabledata.match_candidates":
                self.kept += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every kcg module attribute bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kcg" or n.startswith("kcg.")]
        for name, (module, path) in TRACED.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            targets = [(owner, attr)]
            if "." not in path:
                targets = [(m, a) for m in modules
                           for a, v in list(vars(m).items()) if v is original]
            for obj, a in targets:
                self._undo.append((obj, a, original))
                setattr(obj, a, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def counters(self) -> dict:
        """Exact counts: calls per traced function, refusals, distinct
        inputs and the matcher's kept results."""
        calls = Counter(s.name for s in self.spans) + self.calls
        errors = Counter(s.name for s in self.spans if s.error)
        out = {f"{n}.calls": calls[n] for n in TRACED}
        out["seifert.signature_profile.refused"] = errors["seifert.signature_profile"]
        out["laurent.factor.distinct"] = len(self.keys["laurent.factor"])
        out["bounds.gc_bounds.records"] = len(self.keys["bounds.gc_bounds"])
        out["bounds.gc_bounds.max_per_record"] = max(
            self.keys["bounds.gc_bounds"].values(), default=0)
        out["tabledata.match.kept"] = self.kept
        return out

    def self_seconds(self) -> dict:
        out = {n: 0.0 for n in TRACED if n not in COUNTED_ONLY}
        for span, t in zip(self.spans, self_times(self.spans)):
            out[span.name] += t
        return out

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "item": s.item, "error": s.error}) + "\n")
