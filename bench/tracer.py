"""Span tracer that wraps trifactor's layer entry points from outside.

Each entry point is wrapped where its caller looks it up: a function that
`cover` imported by name is patched on `trifactor.cover`, methods are
patched on the class.  A span records its name, start, end, parent span
and the instance being solved; spans stay in memory until the run writes
them out.  Nothing in the package changes while the tracer is not
installed.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter
from typing import NamedTuple, Optional


def _exact_note(args, kwargs, res):
    return {"status": res.status, "nodes": res.stats.nodes_expanded,
            "depth": res.stats.max_depth}


# (module, owner inside the module or "", attribute, span name, note)
ENTRY_POINTS = (
    ("trifactor.families", "", "gen_random_min_degree", "families.gen_random_min_degree", None),
    ("trifactor.families", "", "blow_up", "families.blow_up", None),
    ("trifactor.families", "", "approx_blow_up", "families.approx_blow_up", None),
    ("trifactor.graph", "TripartiteGraph", "min_cross_degree", "graph.min_cross_degree", None),
    ("trifactor.graph", "TripartiteGraph", "induce", "graph.induce", None),
    ("trifactor.graph", "", "verify_cover", "graph.verify_cover", None),
    ("trifactor.cover", "", "verify_cover", "graph.verify_cover", None),
    ("trifactor.exact", "", "verify_cover", "graph.verify_cover", None),
    ("trifactor.extremal", "", "verify_cover", "graph.verify_cover", None),
    ("trifactor.matching", "", "max_matching", "matching.max_matching", None),
    ("trifactor.cover", "", "max_matching", "matching.max_matching", None),
    ("trifactor.cover", "", "solve", "cover.solve",
     lambda a, k, r: {"kind": r.kind, "source": r.source, "reason": r.reason}),
    ("trifactor.cover", "", "easy_cover", "cover.easy_cover", None),
    ("trifactor.cover", "", "match_triple_cover", "cover.match_triple_cover", None),
    ("trifactor.extremal", "", "match_triple_cover", "cover.match_triple_cover", None),
    ("trifactor.cover", "", "greedy_partial_cover", "cover.greedy_partial_cover",
     lambda a, k, r: {"deficit": a[0].n - r.size}),
    ("trifactor.cover", "", "augment_once", "cover.augment_once",
     lambda a, k, r: {"outcome": type(r).__name__}),
    ("trifactor.cover", "", "reduce_mod3", "cover.reduce_mod3", None),
    ("trifactor.cover", "", "exact_factor", "exact.exact_factor", _exact_note),
    ("trifactor.exact", "", "exact_factor", "exact.exact_factor", _exact_note),
    ("trifactor.extremal", "", "classify_extreme_partition",
     "extremal.classify_extreme_partition", None),
    ("trifactor.extremal", "", "discriminate_gamma_vs_theta",
     "extremal.discriminate_gamma_vs_theta",
     lambda a, k, r: {"inconclusive": r is None}),
    ("trifactor.extremal", "", "extreme_cover", "extremal.extreme_cover",
     lambda a, k, r: {"kind": r.kind}),
)

SOLVE = "cover.solve"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at top level
    instance: Optional[int]
    nested: bool                # inside a span of the same name
    in_solve: bool              # inside a cover.solve span
    attrs: Optional[dict]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.instance: Optional[int] = None
        self._stack: list = []
        self._active: Counter = Counter()
        self._saved: list = []

    def wrap(self, name, fn, note=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested, in_solve = active[name] > 0, active[SOLVE] > 0
            stack.append(idx)
            active[name] += 1
            attrs, returned = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except BaseException as exc:
                attrs = {"raised": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                if returned and note is not None:
                    attrs = note(args, kwargs, result)
                spans[idx] = Span(name, start, end, parent, self.instance,
                                  nested, in_solve, attrs)
        return traced

    def install(self) -> None:
        for module, owner, attr, name, note in ENTRY_POINTS:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def self_times(spans) -> dict:
    """name -> [calls, inclusive seconds, self seconds]; a span's self time
    is its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for s, c in zip(spans, child):
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        if not s.nested:
            row[1] += s.end - s.start
        row[2] += s.end - s.start - c
    return out


# cover.solve outcomes as the package spells them; anything else is "other"
SOURCES = ("easy", "constructive", "exact-oracle", "exact-fallback", "extreme-cover",
           "reduction", "reduction-swap")
REASONS = ("stuck", "n-not-divisible-by-3", "gamma3-witness", "budget")

LAYERS = ("graph.verify_cover", "graph.min_cross_degree", "graph.induce",
          "matching.max_matching", "cover.match_triple_cover", "cover.augment_once",
          "cover.reduce_mod3", "extremal.classify_extreme_partition",
          "extremal.discriminate_gamma_vs_theta", "extremal.extreme_cover")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def pass_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one traced pass."""
    calls: Counter = Counter()
    secs: Counter = Counter()
    counts: Counter = Counter()
    exact_s = {True: 0.0, False: 0.0}
    depth = 0
    for s in spans:
        if s.nested:
            continue                  # e.g. a sub-solve is part of its parent's time
        a = s.attrs or {}
        if s.name == SOLVE:
            for key, known in (("source", SOURCES), ("reason", REASONS)):
                if a.get(key):
                    counts[f"{SOLVE}.{key}.{a[key] if a[key] in known else 'other'}"] += 1
        calls[s.name] += 1
        secs[s.name] += s.end - s.start
        if s.name == "exact.exact_factor":
            exact_s[s.in_solve] += s.end - s.start
            if "nodes" in a:
                counts["exact.nodes"] += a["nodes"]
                counts["exact.budget_hits"] += a["status"] == "budget"
                depth = max(depth, a["depth"])
        elif s.name == "cover.greedy_partial_cover":
            counts["cover.greedy_partial_cover.deficit"] += a.get("deficit", 0)
        elif s.name == "cover.augment_once" and "outcome" in a:
            counts[f"cover.augment_once.{a['outcome'].lower()}"] += 1
        elif s.name == "extremal.classify_extreme_partition" and "raised" in a:
            counts["extremal.classify_extreme_partition.rejected"] += 1
        elif s.name == "extremal.discriminate_gamma_vs_theta" and a.get("inconclusive"):
            counts["extremal.discriminate_gamma_vs_theta.inconclusive"] += 1
        elif s.name == "extremal.extreme_cover" and a.get("kind") == "cover":
            counts["extremal.extreme_cover.cover"] += 1

    m = {f"{SOLVE}.calls": calls[SOLVE], f"{SOLVE}.s": secs[SOLVE]}
    m.update({f"{SOLVE}.source.{x}": counts[f"{SOLVE}.source.{x}"] for x in SOURCES + ("other",)})
    m.update({f"{SOLVE}.reason.{x}": counts[f"{SOLVE}.reason.{x}"] for x in REASONS + ("other",)})
    for name in LAYERS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = secs[name]
    m["cover.easy_cover.s"] = secs["cover.easy_cover"]
    m["cover.greedy_partial_cover.s"] = secs["cover.greedy_partial_cover"]
    m["cover.greedy_partial_cover.deficit"] = counts["cover.greedy_partial_cover.deficit"]
    for outcome in ("improved", "extreme", "stuck"):
        m[f"cover.augment_once.{outcome}"] = counts[f"cover.augment_once.{outcome}"]
    m["cover.augment_once.improved_ratio"] = _ratio(counts["cover.augment_once.improved"],
                                                    calls["cover.augment_once"])
    m["exact.in_solve.s"] = exact_s[True]
    m["exact.fallback.s"] = exact_s[False]
    m["exact.nodes"] = counts["exact.nodes"]
    m["exact.nodes_per_s"] = _ratio(counts["exact.nodes"], exact_s[True] + exact_s[False])
    m["exact.max_depth"] = depth
    m["exact.budget_hits"] = counts["exact.budget_hits"]
    for key in ("extremal.classify_extreme_partition.rejected",
                "extremal.discriminate_gamma_vs_theta.inconclusive",
                "extremal.extreme_cover.cover"):
        m[key] = counts[key]
    m["extremal.extreme_cover.success_ratio"] = _ratio(
        counts["extremal.extreme_cover.cover"], calls["extremal.classify_extreme_partition"])
    return m


SETUP_LAYERS = ("families.gen_random_min_degree", "families.blow_up", "families.approx_blow_up")


def setup_metrics(spans) -> dict:
    secs: Counter = Counter()
    for s in spans:
        if not s.nested:
            secs[s.name] += s.end - s.start
    return {f"{name}.s": secs[name] for name in SETUP_LAYERS}


def is_timing(name: str) -> bool:
    """Timings vary from pass to pass; every other per-layer metric is a
    count (or a ratio of counts) that must repeat exactly."""
    return name.endswith(".s") or name == "exact.nodes_per_s"
