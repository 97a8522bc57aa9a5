"""White-box tests of the exchange moves behind augment_once.

Dense random instances almost always admit a direct extension, so the
deeper moves (single exchanges, the relay, the pinned-edge endgame) are
exercised here on hand-built covers where exactly one move applies.  Every
expected state change is asserted against the real graph.
"""

import random

import pytest

import trifactor.cover
from trifactor.config import Config
from trifactor.cover import (
    Extreme,
    Improved,
    _exchange_for_edge,
    _pinned_phase,
    _tri_from_edge,
    _Work,
    MAX_REPLACED,
)
from trifactor.errors import InternalError
from trifactor.families import complete_tripartite
from trifactor.graph import Triangle, TriangleCover, build_graph, verify_cover


def work_on(g, triangles):
    return _Work(g, TriangleCover(triangles))


def unc_masks(work, pinned=None):
    pinned = pinned or [0, 0, 0]
    return [work.unc(c) & ~pinned[c] for c in range(3)]


def test_exchange_case_a_freed_vertex_sees_uncovered():
    # T = (0,0,0) is exchangeable with xa=(0,1); the freed (0,0) is adjacent
    # to the uncovered (1,2)
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # T
        ((0, 1), (1, 0)), ((0, 1), (2, 0)),                     # xa enters T
        ((0, 0), (1, 2)),                                       # freed edge
    ]
    g = build_graph(5, edges)
    work = work_on(g, [Triangle(0, 0, 0)])
    ua, ub = work.unc(0), work.unc(1)
    res = _exchange_for_edge(g, work, 0, 1, 1, 1, 2, ub, ua)
    assert res == ((0, 0), (1, 2))
    assert Triangle(1, 0, 0) in work.tris and Triangle(0, 0, 0) not in work.tris
    assert work.replaced_count() == 1


def test_exchange_case_b_mirror():
    # the mirror: T exchangeable with xb=(1,1); freed (1,0) sees (0,2)
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # T
        ((1, 1), (0, 0)), ((1, 1), (2, 0)),                     # xb enters T
        ((1, 0), (0, 2)),                                       # freed edge
    ]
    g = build_graph(5, edges)
    work = work_on(g, [Triangle(0, 0, 0)])
    res = _exchange_for_edge(g, work, 0, 1, 1, 1, 2, work.unc(1), work.unc(0))
    assert res == ((0, 2), (1, 0))
    assert Triangle(0, 1, 0) in work.tris
    assert work.replaced_count() == 1


def test_exchange_case_c_edge_between_freed_pair():
    # A-triangle Ta and B-triangle Tb with an edge between their freed
    # vertices (0,0) and (1,2): both exchanges happen, two replacements
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # Ta
        ((0, 2), (1, 2)), ((0, 2), (2, 2)), ((1, 2), (2, 2)),   # Tb
        ((0, 1), (1, 0)), ((0, 1), (2, 0)),                     # xa -> Ta
        ((1, 1), (0, 2)), ((1, 1), (2, 2)),                     # xb -> Tb
        ((0, 0), (1, 2)),                                       # the (A,B) edge
    ]
    g = build_graph(5, edges)
    work = work_on(g, [Triangle(0, 0, 0), Triangle(2, 2, 2)])
    res = _exchange_for_edge(g, work, 0, 1, 1, 1, 2, work.unc(1), work.unc(0))
    assert res == ((0, 0), (1, 2))
    assert Triangle(1, 0, 0) in work.tris and Triangle(2, 1, 2) in work.tris
    assert work.replaced_count() == 2


def test_exchange_relay_through_c_triangle():
    # no direct move exists: xa enters Ta freeing x=(0,0), x enters the
    # C-triangle T' freeing (0,2), which is adjacent to xb
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # Ta
        ((0, 2), (1, 2)), ((0, 2), (2, 2)), ((1, 2), (2, 2)),   # T'
        ((0, 1), (1, 0)), ((0, 1), (2, 0)),                     # xa -> Ta
        ((0, 0), (1, 2)), ((0, 0), (2, 2)),                     # x -> T'
        ((0, 2), (1, 1)),                                       # freed x' ~ xb
    ]
    g = build_graph(5, edges)
    work = work_on(g, [Triangle(0, 0, 0), Triangle(2, 2, 2)])
    res = _exchange_for_edge(g, work, 0, 1, 1, 1, 2, work.unc(1), work.unc(0))
    assert res == ((0, 2), (1, 1))
    assert Triangle(1, 0, 0) in work.tris      # xa took over Ta
    assert Triangle(0, 2, 2) in work.tris      # x took over T'
    assert work.replaced_count() == 2


def _pins(n, used_per_class=4):
    """Standard pin layout on the top four uncovered indices per class."""
    return {
        "e1": ((0, n - 4), (1, n - 4)),
        "e2": ((0, n - 3), (1, n - 3)),
        "f1": ((0, n - 2), (2, n - 4)),
        "f3": ((0, n - 1), (2, n - 3)),
        "g2": ((1, n - 2), (2, n - 2)),
        "g3": ((1, n - 1), (2, n - 1)),
    }


def _pin_edges(pins):
    return [tuple(e) for e in pins.values()]


def test_pinned_phase_intersection_move():
    # T = (0,0,0) lies in both B0 (its class-1 vertex completes f1) and C0
    # (its class-2 vertex completes e1): one triangle becomes two
    n = 6
    pins = _pins(n)
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # T
        ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)),   # filler T2
        # (1,0) completes f1 = ((0,4),(2,2)); (2,0) completes e1 = ((0,2),(1,2))
        ((0, 4), (1, 0)), ((1, 0), (2, 2)),
        ((0, 2), (2, 0)), ((1, 2), (2, 0)),
    ] + _pin_edges(pins)
    g = build_graph(n, edges)
    work = work_on(g, [Triangle(0, 0, 0), Triangle(1, 1, 1)])
    out = _pinned_phase(g, work, pins, Config())
    assert isinstance(out, Improved)
    assert out.cover.size == 3
    assert out.replaced == 2
    assert verify_cover(g, out.cover).ok


def test_pinned_phase_hunt_with_companions():
    # no pairwise intersection, but the triple (B0+C0, A1+C1, A2+B2)
    # contains the triangle ((0,0),(1,1),(2,2)); three companions pay for
    # the three removed cover triangles: net +1
    n = 7
    pins = _pins(n)
    edges = [
        ((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0)),   # T1
        ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)),   # T2
        ((0, 2), (1, 2)), ((0, 2), (2, 2)), ((1, 2), (2, 2)),   # T3
        # memberships: T1.i1 completes f1; T2.i0 completes g2; T3.i0 completes g3
        ((0, 5), (1, 0)), ((1, 0), (2, 3)),
        ((0, 1), (1, 5)), ((0, 1), (2, 5)),
        ((0, 2), (1, 6)), ((0, 2), (2, 6)),
        # the hunt triangle
        ((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2)),
    ] + _pin_edges(pins)
    g = build_graph(n, edges)
    work = work_on(g, [Triangle(0, 0, 0), Triangle(1, 1, 1), Triangle(2, 2, 2)])
    out = _pinned_phase(g, work, pins, Config())
    assert isinstance(out, Improved)
    assert out.cover.size == 4
    assert out.replaced <= MAX_REPLACED
    assert Triangle(0, 1, 2) in out.cover.triangles
    assert verify_cover(g, out.cover).ok


def reference_companion_plan(g, work, sets, companions, hunt):
    """_companion_plan as it was before its disjointness and reuse checks
    became one pass over masks, kept verbatim as the reference."""
    removed = []
    for c, z in enumerate(hunt):
        t = work.owner[c][z]
        if t not in removed:
            removed.append(t)
    if len(removed) == 1:
        return None  # the hunt triangle is an existing cover triangle

    options = []
    for c, z in enumerate(hunt):
        opts = []
        for key, slot, edge in companions[c]:
            t = sets[key].get(z)
            if t is not None and t is work.owner[c][z]:
                v = t[slot]
                if v != hunt[slot]:
                    cand = _tri_from_edge(edge, slot, v)
                    if g.triangle_exists(cand):
                        opts.append(cand)
        options.append(opts)

    need = len(removed)
    # choose a subset of companions, at most one per hunt vertex, that is
    # vertex-disjoint from the hunt triangle and from each other
    best = None
    import itertools
    for choice in itertools.product(*[opts + [None] for opts in options]):
        chosen = [c for c in choice if c is not None]
        if len(chosen) < need:
            continue
        added = [hunt] + chosen
        used = [0, 0, 0]
        ok = True
        for t in added:
            for c, i in enumerate(t):
                bit = 1 << i
                if used[c] & bit:
                    ok = False
                    break
                used[c] |= bit
            if not ok:
                break
        if not ok:
            continue
        # additions may only reuse vertices of removed triangles or pins
        removed_masks = [0, 0, 0]
        for t in removed:
            for c, i in enumerate(t):
                removed_masks[c] |= 1 << i
        conflict = False
        for t in added:
            for c, i in enumerate(t):
                if i in work.owner[c] and not removed_masks[c] >> i & 1:
                    conflict = True
                    break
            if conflict:
                break
        if conflict:
            continue
        if best is None or len(added) > len(best[1]):
            best = (removed, added)
    return best


def _pinned_phase_result(g, cover, pins):
    out = _pinned_phase(g, work_on(g, cover), pins, Config())
    if isinstance(out, Improved):
        return out.replaced, out.cover.triangles
    return out.witness.sets if isinstance(out, Extreme) else out.reason


def test_companion_plan_matches_reference(monkeypatch):
    # cover (i, i, i) for i < N - 4, the standard pins on the last four
    # vertices of each class, and random edges on top
    new_plan, plans = trifactor.cover._companion_plan, []

    def spy(*args):
        plans.append(new_plan(*args))
        return plans[-1]

    for seed in range(3000):
        n, density = 7 + seed % 3, (0.3, 0.5, 0.7)[seed // 3 % 3]
        rng = random.Random(seed)
        pins = _pins(n)
        cover = [Triangle(i, i, i) for i in range(n - 4)]
        edges = [((a, i), (b, j)) for a, b in ((0, 1), (0, 2), (1, 2))
                 for i in range(n) for j in range(n)
                 if i == j < n - 4 or rng.random() < density]
        g = build_graph(n, edges + _pin_edges(pins))
        monkeypatch.setattr(trifactor.cover, "_companion_plan", spy)
        got = _pinned_phase_result(g, cover, pins)
        monkeypatch.setattr(trifactor.cover, "_companion_plan", reference_companion_plan)
        assert got == _pinned_phase_result(g, cover, pins), seed
    # the hunt reached the plan often, and the plan often paid off
    assert len(plans) >= 300 and sum(p is not None for p in plans) >= 150


# -- soundness gates of _Work.replace: explicit raises, so they also run
# under python -O, and InternalError rather than AssertionError


def test_replace_gate_rejects_non_triangle():
    g = build_graph(2, [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0))])
    work = work_on(g, [Triangle(0, 0, 0)])
    with pytest.raises(InternalError, match="non-triangle"):
        work.replace([], [Triangle(1, 1, 1)])


def test_replace_gate_rejects_overlap():
    work = work_on(complete_tripartite(2), [Triangle(0, 0, 0)])
    with pytest.raises(InternalError, match="disjointness"):
        work.replace([], [Triangle(0, 1, 1)])
