"""Constructive covering pipeline.

Five layers, from cheap to expensive:

* easy_cover - at min cross-degree >= ceil(3N/4) a perfect cover always
  exists: take a perfect matching between classes 1 and 2 (degrees are
  above N/2), then match the matched edges against class 0; an edge
  (i, j) is adjacent to the class-0 vertices in the AND of the two
  endpoints' rows.  Both matchings are guaranteed by the Konig-Hall
  degree corollary, and both run on bitmask rows through max_matching.
  The cover passes the same verify_cover gate as every other source.

* greedy_partial_cover - randomized maximal initializer.

* augment_once - one exchange-augmentation step: given a partial cover
  with at least four uncovered vertices per class, either produce a
  strictly larger cover that replaces at most 15 triangles, or exhibit
  three sets of size floor(N/3), one per class, with pairwise density
  below the configured threshold (the extreme case).  The search
  escalates from cheap moves to expensive ones: direct extension, single
  exchanges, the relay through a third-class triangle, and finally the
  six-pinned-edge phase with its intersection and triangle hunts.  Every
  move that grows the cover ends in _finish_improved, which applies the
  replacement cap and re-verifies the cover; triangle searches inside
  vertex masks go through TripartiteGraph.iter_triangles/find_triangle.

* _endgame - finishes a cover that the augmentation loop left 1-3
  triangles short, by large-neighbourhood search (Shaw, CP 1998): free the
  uncovered vertices plus the k cover triangles with the most edges into
  them, decide that small sub-instance with the exact oracle, and splice
  its factor back in; k doubles on failure.  A failure proves nothing
  about the whole graph.  The spliced cover is returned unverified;
  solve's _verified exit checks it.

* solve - driver: easy path, greedy + augmentation loop, extreme-case
  classification and cover, the endgame, with the exact oracle as the
  fallback for desk-size instances.  When N is not divisible by 3,
  reduce_mod3 peels 1 or 2 triangles and solve runs on the rest; a
  NoFactor there sends the whole graph to the oracle.  A returned
  NoFactor is always oracle-confirmed on the whole graph.  Every cover
  that solve builds (constructive, endgame, extreme-cover, reduction)
  leaves through _verified, which re-verifies it as a perfect cover;
  easy_cover verifies its own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .config import Config
from .errors import (
    InternalError,
    InternalHallFailureError,
    NoTriangleExistsError,
    PreconditionDegreeError,
    PreconditionDivisibilityError,
    PreconditionViolatedError,
    SizeBandViolatedError,
    WitnessInvalidError,
)
from .exact import COVER, NO_FACTOR, exact_factor
from .graph import (
    CLASS_PAIRS,
    Triangle,
    TriangleCover,
    TripartiteGraph,
    iter_bits,
    mask_of,
    verify_cover,
)
from .matching import max_matching

MAX_REPLACED = 15  # hard cap on |T \ T0| per augmentation step


def _check_cover(g: TripartiteGraph, cover: TriangleCover, what: str,
                 require_perfect: bool = False) -> None:
    """Soundness gate: raise InternalError unless verify_cover accepts."""
    verdict = verify_cover(g, cover, require_perfect=require_perfect)
    if not verdict.ok:
        raise InternalError(f"{what} produced an invalid cover: {verdict.reason}")


# ---------------------------------------------------------------------------
# easy cover (3/4 threshold)
# ---------------------------------------------------------------------------


def easy_cover(g: TripartiteGraph, dmin: Optional[int] = None) -> TriangleCover:
    """Perfect cover under min cross-degree >= ceil(3N/4), verified.

    dmin is g.min_cross_degree() when the caller already has it."""
    n = g.n
    if dmin is None:
        dmin = g.min_cross_degree()
    if 4 * dmin < 3 * n:
        raise PreconditionDegreeError(
            f"min cross-degree {dmin} below ceil(3N/4) = {-(-3 * n // 4)}")
    full = (1 << n) - 1
    cover = match_triple_cover(g, full, full, full)
    if cover is None:
        raise InternalHallFailureError("guaranteed matching not found")
    _check_cover(g, cover, "easy cover", require_perfect=True)
    return cover


def match_triple_cover(g: TripartiteGraph, m0: int, m1: int, m2: int
                       ) -> Optional[TriangleCover]:
    """Double-matching cover of the induced triple, or None if some matching
    is imperfect.  Sizes of the three masks must agree.

    Class 1 is matched into class 2, then each matched edge (i, j) into
    the class-0 vertices adjacent to both of its ends; the triangles come
    in class-0 order."""
    l1 = list(iter_bits(m1))
    if not (m0.bit_count() == len(l1) == m2.bit_count()):
        raise ValueError("masks must have equal sizes")
    r12, r10, r20 = g._rows[(1, 2)], g._rows[(1, 0)], g._rows[(2, 0)]
    mate12 = max_matching([r12[i] & m2 for i in l1])
    if -1 in mate12:
        return None
    mate0 = max_matching([r10[i] & r20[j] & m0 for i, j in zip(l1, mate12)])
    if -1 in mate0:
        return None
    by_v0 = [None] * g.n
    for v0, i, j in zip(mate0, l1, mate12):
        by_v0[v0] = Triangle(v0, i, j)
    return TriangleCover([t for t in by_v0 if t is not None])


# ---------------------------------------------------------------------------
# greedy initializer
# ---------------------------------------------------------------------------


def greedy_partial_cover(g: TripartiteGraph, seed: int = 0) -> TriangleCover:
    """Maximal-by-inclusion disjoint triangle set; deterministic per seed.

    Availability only shrinks as triangles are added, so one shuffled pass
    over class-0 vertices already yields a maximal set.
    """
    n = g.n
    order = list(range(n))
    random.Random(f"greedy:{seed}").shuffle(order)
    r01, r02, r12 = g._rows[(0, 1)], g._rows[(0, 2)], g._rows[(1, 2)]
    u1 = u2 = (1 << n) - 1
    tris = []
    for v0 in order:
        row1 = r01[v0] & u1
        if not row1:
            continue
        base2 = r02[v0] & u2
        if not base2:
            continue
        while row1:
            low1 = row1 & -row1
            opts = base2 & r12[low1.bit_length() - 1]
            if opts:
                low2 = opts & -opts
                tris.append(Triangle(v0, low1.bit_length() - 1, low2.bit_length() - 1))
                u1 ^= low1
                u2 ^= low2
                break
            row1 ^= low1
    return TriangleCover(tris)


# ---------------------------------------------------------------------------
# extreme witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremeWitness:
    """Three sets of size floor(N/3), one per class, pairwise sparse."""

    sets: tuple          # three sorted index tuples
    densities: tuple     # d(S0,S1), d(S0,S2), d(S1,S2) as Fractions

    def masks(self) -> tuple[int, int, int]:
        return tuple(mask_of(s) for s in self.sets)

    def recheck(self, g: TripartiteGraph) -> tuple[Fraction, Fraction, Fraction]:
        return _pair_densities(g, self.masks())


def _pair_densities(g: TripartiteGraph, m) -> tuple[Fraction, Fraction, Fraction]:
    """d(S0,S1), d(S0,S2), d(S1,S2) of the three class masks m."""
    return tuple(g.density_masks(a, m[a], b, m[b]) for a, b in CLASS_PAIRS)


def finish_extreme_witness(g: TripartiteGraph, masks, cfg: Config
                           ) -> Optional[ExtremeWitness]:
    """Resize a candidate sparse triple to exactly floor(N/3) per class with
    resize_set and certify pairwise densities < delta0."""
    target = g.n // 3
    if target == 0:
        return None
    cur = list(masks)
    for c in range(3):
        cur[c] = resize_set(g, c, cur, target)
    dens = _pair_densities(g, cur)
    if max(dens) >= cfg.delta0_frac:
        return None
    return ExtremeWitness(tuple(tuple(iter_bits(m)) for m in cur), dens)


def resize_set(g: TripartiteGraph, c: int, masks, target: int) -> int:
    """masks[c] shrunk or padded to target vertices.

    Members leave most adjacent to the other two sets first (those
    contribute the most density; higher index first on ties); outside
    vertices enter least adjacent first (lower index first on ties).
    """
    def deg(i: int) -> int:
        return sum((g.nbr_mask(c, i, cp) & masks[cp]).bit_count()
                   for cp in range(3) if cp != c)

    members = sorted(iter_bits(masks[c]), key=lambda i: (deg(i), i))
    if len(members) >= target:
        return mask_of(members[:target])
    outside = sorted(iter_bits(((1 << g.n) - 1) ^ masks[c]), key=lambda i: (deg(i), i))
    return masks[c] | mask_of(outside[:target - len(members)])


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Improved:
    cover: TriangleCover
    replaced: int          # |T \ T0|


@dataclass(frozen=True)
class Extreme:
    witness: ExtremeWitness


@dataclass(frozen=True)
class Stuck:
    reason: str


class _Work:
    """Current cover as a vertex -> triangle index, supporting exchanges."""

    def __init__(self, g: TripartiteGraph, cover: TriangleCover):
        self.g = g
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.tris: set[Triangle] = set(cover.triangles)
        self.baseline = frozenset(cover.triangles)
        self.owner: list[dict[int, Triangle]] = [{}, {}, {}]
        for t in self.tris:
            for c, i in enumerate(t):
                self.owner[c][i] = t

    def unc(self, c: int) -> int:
        return self.full ^ mask_of(self.owner[c].keys())

    def replace(self, removed, added) -> None:
        for t in removed:
            self.tris.remove(t)
            for c, i in enumerate(t):
                del self.owner[c][i]
        for t in added:
            if not self.g.triangle_exists(t):
                raise InternalError(f"exchange built a non-triangle {t}")
            self.tris.add(t)
            for c, i in enumerate(t):
                if i in self.owner[c]:
                    raise InternalError("exchange broke disjointness")
                self.owner[c][i] = t

    def replaced_count(self) -> int:
        return len(self.tris - self.baseline)

    def to_cover(self) -> TriangleCover:
        return TriangleCover(sorted(self.tris))


def _exchange_sets(g: TripartiteGraph, work: _Work, ca: int, xa: int,
                   cb: int, xb: int, cc: int):
    """Triangles exchangeable with xa (A) and with xb (B); C is the rest.

    A triangle is in A when xa is adjacent to both its vertices outside
    class ca, so xa can replace its class-ca vertex without shrinking the
    cover; B is the mirror image for xb.
    """
    a_tris, b_tris, c_tris = [], [], []
    for t in work.tris:
        pa, pb, pc = t[ca], t[cb], t[cc]
        in_a = (g.nbr_mask(ca, xa, cb) >> pb & 1) and (g.nbr_mask(ca, xa, cc) >> pc & 1)
        in_b = (g.nbr_mask(cb, xb, ca) >> pa & 1) and (g.nbr_mask(cb, xb, cc) >> pc & 1)
        if in_a:
            a_tris.append(t)
        if in_b:
            b_tris.append(t)
        if not in_a and not in_b:
            c_tris.append(t)
    return a_tris, b_tris, c_tris


def _with_slot(t: Triangle, c: int, v: int) -> Triangle:
    parts = list(t)
    parts[c] = v
    return Triangle(*parts)


def _pin_edge(g: TripartiteGraph, work: _Work, ca: int, cb: int,
              pinned_mask: list[int]):
    """Produce one edge between uncovered, unpinned vertices of (ca, cb).

    Returns ('edge', (u, v)) on success, ('extreme', masks) when the failed
    exchange certifies the sparse triple candidate, or ('stuck', reason).
    """
    cc = 3 - ca - cb
    ua = work.unc(ca) & ~pinned_mask[ca]
    ub = work.unc(cb) & ~pinned_mask[cb]

    # an edge may already be present
    for ia in iter_bits(ua):
        m = g.nbr_mask(ca, ia, cb) & ub
        if m:
            return "edge", ((ca, ia), (cb, (m & -m).bit_length() - 1))

    first_failure = None
    for xa in iter_bits(ua):
        for xb in iter_bits(ub):
            # a failed attempt leaves the cover as it was, so these sets
            # still describe it for the sparse triple candidate below
            sets = _exchange_sets(g, work, ca, xa, cb, xb, cc)
            res = _exchange_for_edge(g, work, ca, xa, cb, xb, cc, ub, ua, sets)
            if res is not None:
                return "edge", res
            if first_failure is None:
                a_tris, b_tris, c_tris = sets
                cand = [0, 0, 0]
                cand[ca] = mask_of(t[ca] for t in a_tris)
                cand[cb] = mask_of(t[cb] for t in b_tris)
                cand[cc] = mask_of(t[cc] for t in c_tris)
                first_failure = tuple(cand)
    if first_failure is not None:
        return "extreme", first_failure
    return "stuck", "no uncovered candidates"


def _exchange_for_edge(g: TripartiteGraph, work: _Work, ca: int, xa: int,
                       cb: int, xb: int, cc: int, ub: int, ua: int, sets=None):
    """One (x_a, x_b) exchange attempt; mutates the cover on success and
    returns the created uncovered edge.  sets are the pair's _exchange_sets,
    computed here when not given."""
    if sets is None:
        sets = _exchange_sets(g, work, ca, xa, cb, xb, cc)
    a_tris, b_tris, c_tris = sets

    # (a) a vertex freed from an A-triangle already sees uncovered cb-vertices
    for t in a_tris:
        x = t[ca]
        m = g.nbr_mask(ca, x, cb) & ub
        if m:
            work.replace([t], [_with_slot(t, ca, xa)])
            return ((ca, x), (cb, (m & -m).bit_length() - 1))
    # (b) mirror image for B
    for t in b_tris:
        y = t[cb]
        m = g.nbr_mask(cb, y, ca) & ua
        if m:
            work.replace([t], [_with_slot(t, cb, xb)])
            return ((ca, (m & -m).bit_length() - 1), (cb, y))
    # (c) an edge between a freed A-vertex and a freed B-vertex
    b_by_vertex = {t[cb]: t for t in b_tris}
    b_mask = mask_of(b_by_vertex.keys())
    for t in a_tris:
        x = t[ca]
        m = g.nbr_mask(ca, x, cb) & b_mask
        for y in iter_bits(m):
            tb = b_by_vertex[y]
            if tb is t:
                continue
            work.replace([t, tb], [_with_slot(t, ca, xa), _with_slot(tb, cb, xb)])
            return ((ca, x), (cb, y))
    # (d) relay: x in A frees a third triangle's ca-vertex adjacent to xb
    res = _relay(g, work, a_tris, c_tris, ca, xa, cb, xb, cc)
    if res is not None:
        return res
    # (e) relay on the B side
    res = _relay(g, work, b_tris, c_tris, cb, xb, ca, xa, cc)
    if res is not None:
        ((c1, v1), (c2, v2)) = res
        return ((c2, v2), (c1, v1)) if c1 == cb else res
    return None


def _relay(g: TripartiteGraph, work: _Work, side_tris, c_tris,
           cs: int, xs: int, co: int, xo: int, cc: int):
    """Figure-2 style relay: x from the exchange set enters a C-triangle
    whose cs-vertex is adjacent to the opposite uncovered vertex xo.

    Two triangles are replaced: xs enters x's triangle and x enters the
    relay triangle, freeing its cs-vertex next to xo.
    """
    if not c_tris:
        return None
    for t in side_tris:
        x = t[cs]
        row_o = g.nbr_mask(cs, x, co)
        row_c = g.nbr_mask(cs, x, cc)
        for tp in c_tris:
            if not (row_o >> tp[co] & 1 and row_c >> tp[cc] & 1):
                continue
            xprime = tp[cs]
            if not g.nbr_mask(co, xo, cs) >> xprime & 1:
                continue
            work.replace([t, tp], [_with_slot(t, cs, xs), _with_slot(tp, cs, x)])
            return ((cs, xprime), (co, xo))
    return None


PIN_ORDER = (("e1", 0, 1), ("e2", 0, 1), ("f1", 0, 2), ("f3", 0, 2),
             ("g2", 1, 2), ("g3", 1, 2))


def augment_once(g: TripartiteGraph, cover: TriangleCover, cfg: Config):
    """One exchange-augmentation step from cover: Improved, Extreme, or Stuck."""
    n = g.n
    # a cover leaves n - size vertices uncovered in every class, so this is
    # the step's "at least 4 uncovered vertices per class" condition
    if cover.size >= n - 3:
        raise PreconditionViolatedError("need at least 4 uncovered vertices per class")
    if not cfg.meets_degree_floor(g.min_cross_degree(), n):
        raise PreconditionViolatedError("min cross-degree below (2/3 - eps')N")

    work = _Work(g, cover)

    # phase 1: direct extension
    t = g.find_triangle(work.unc(0), work.unc(1), work.unc(2))
    if t is not None:
        work.replace([], [t])
        return _finish_improved(g, work)

    # phases 2-3: create six disjoint pinned edges in the uncovered sets
    pinned, pinned_mask = {}, [0, 0, 0]
    for label, ca, cb in PIN_ORDER:
        kind, payload = _pin_edge(g, work, ca, cb, pinned_mask)
        if kind == "extreme":
            witness = finish_extreme_witness(g, payload, cfg)
            if witness is not None:
                return Extreme(witness)
            return Stuck("exchange failed and the sparse triple did not certify")
        if kind == "stuck":
            return Stuck(payload)
        (cu, iu), (cv, iv) = payload
        pinned[label] = payload
        pinned_mask[cu] |= 1 << iu
        pinned_mask[cv] |= 1 << iv
        # an exchange may have opened a direct extension; take it eagerly
        t = g.find_triangle(work.unc(0), work.unc(1), work.unc(2))
        if t is not None:
            work.replace([], [t])
            return _finish_improved(g, work)

    return _pinned_phase(g, work, pinned, cfg)


def _pinned_phase(g: TripartiteGraph, work: _Work, pinned: dict, cfg: Config):
    """The pinned phase: redefined A/B/C sets, their pairwise
    intersections, and the triangle hunt over (B0+C0, A1+C1, A2+B2).
    pinned maps e1, e2, f1, f3, g2, g3 to their edges."""
    e1, e2, f1, f3, g2, g3 = (pinned[k] for k in ("e1", "e2", "f1", "f3", "g2", "g3"))

    def sees(c: int, v: int, edge) -> bool:
        (cx, ix), (cy, iy) = edge
        return bool(g.nbr_mask(c, v, cx) >> ix & 1 and g.nbr_mask(c, v, cy) >> iy & 1)

    sets: dict[str, dict[int, Triangle]] = {k: {} for k in
                                            ("A1", "A2", "B0", "B2", "C0", "C1")}
    for t in work.tris:
        if sees(0, t.i0, g2):
            sets["A1"][t.i1] = t
        if sees(0, t.i0, g3):
            sets["A2"][t.i2] = t
        if sees(1, t.i1, f1):
            sets["B0"][t.i0] = t
        if sees(1, t.i1, f3):
            sets["B2"][t.i2] = t
        if sees(2, t.i2, e1):
            sets["C0"][t.i0] = t
        if sees(2, t.i2, e2):
            sets["C1"][t.i1] = t

    # pairwise intersections give an immediate +1
    for k1, k2, comp1, comp2 in (("B0", "C0", (1, f1), (2, e1)),
                                 ("A1", "C1", (0, g2), (2, e2)),
                                 ("A2", "B2", (0, g3), (1, f3))):
        common = set(sets[k1]) & set(sets[k2])
        for v in sorted(common):
            t = sets[k1][v]
            (s1, edge1), (s2, edge2) = comp1, comp2
            add1 = _tri_from_edge(edge1, s1, t[s1])
            add2 = _tri_from_edge(edge2, s2, t[s2])
            if g.triangle_exists(add1) and g.triangle_exists(add2):
                work.replace([t], [add1, add2])
                return _finish_improved(g, work)

    companions = {
        0: (("B0", 1, f1), ("C0", 2, e1)),
        1: (("A1", 0, g2), ("C1", 2, e2)),
        2: (("A2", 0, g3), ("B2", 1, f3)),
    }
    m0 = mask_of(set(sets["B0"]) | set(sets["C0"]))
    m1 = mask_of(set(sets["A1"]) | set(sets["C1"]))
    m2 = mask_of(set(sets["A2"]) | set(sets["B2"]))

    # the hunt: a triangle in the triple together with companions that pay
    # for the cover triangles it breaks
    for hunt in g.iter_triangles(m0, m1, m2):
        plan = _companion_plan(g, work, sets, companions, hunt)
        if plan is not None:
            removed, added = plan
            work.replace(removed, added)
            return _finish_improved(g, work)

    # no triangle in the triple: classify it as an approximate theta 3x2
    # structure and hand back the sparse same-column triple
    witness = _theta_triple_witness(g, (m0, m1, m2), cfg)
    if witness is not None:
        return Extreme(witness)
    return Stuck("pinned phase failed and no sparse triple certified")


def _finish_improved(g: TripartiteGraph, work: _Work):
    """End of a step whose exchanges grew the cover: Stuck when they replaced
    more than MAX_REPLACED triangles, else the verified Improved cover."""
    replaced = work.replaced_count()
    if replaced > MAX_REPLACED:
        return Stuck(f"improvement needs {replaced} replacements")
    new_cover = work.to_cover()
    if new_cover.size <= len(work.baseline):
        raise InternalError("augmentation step did not grow the cover")
    _check_cover(g, new_cover, "augmentation step")
    return Improved(new_cover, replaced)


def _tri_from_edge(edge, c: int, v: int) -> Triangle:
    """The triangle on a pinned edge and vertex v of the third class c."""
    parts = [None, None, None]
    (cx, ix), (cy, iy) = edge
    parts[cx], parts[cy], parts[c] = ix, iy, v
    return Triangle(*parts)


def _companion_plan(g, work, sets, companions, hunt: Triangle):
    """Companion triangles for one hunt triangle in the (B0+C0, A1+C1, A2+B2)
    triple; each removed triangle must be paid for by one companion, and
    everything must stay disjoint.  Returns (removed, added) or None."""
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

    # choose a subset of companions, at most one per hunt vertex, that is
    # vertex-disjoint from the hunt triangle and from each other, and uses
    # only uncovered vertices and those of removed triangles
    free = [work.unc(c) | mask_of(t[c] for t in removed) for c in range(3)]
    best = None
    for choice in itertools.product(*[opts + [None] for opts in options]):
        added = [hunt] + [t for t in choice if t is not None]
        if len(added) <= max(len(removed), len(best[1]) if best else 0):
            continue
        used = [mask_of(t[c] for t in added) for c in range(3)]
        if all(u.bit_count() == len(added) and not u & ~f for u, f in zip(used, free)):
            best = (removed, added)
    return best


def _trim_to_sparse(g: TripartiteGraph, masks: list[int], thr: int) -> list[int]:
    """Repeatedly expel the vertex most adjacent to the other sets until
    every remaining vertex sees fewer than thr vertices in each other set.

    Expelling the worst offender first matters: a few dense interlopers can
    otherwise push genuinely sparse vertices over the threshold."""
    cur = list(masks)
    while True:
        worst, worst_key = None, None
        for c in range(3):
            for v in iter_bits(cur[c]):
                degs = [(g.nbr_mask(c, v, cp) & cur[cp]).bit_count()
                        for cp in range(3) if cp != c]
                if max(degs) >= thr:
                    key = (sum(degs), c, v)
                    if worst_key is None or key > worst_key:
                        worst_key, worst = key, (c, v)
        if worst is None:
            return cur
        c, v = worst
        cur[c] &= ~(1 << v)


def anchored_sparse_triple(g: TripartiteGraph, w: int, masks, thr: int
                           ) -> Optional[list[int]]:
    """The sparse triple anchored at class-2 vertex w, inside masks.

    w's neighbours in classes 0 and 1 are trimmed until sparse to each
    other, joined by the class-2 vertices that see fewer than thr of each,
    and the three sets are trimmed again.  None when a set ends up empty.
    """
    m0, m1, m2 = masks
    a0, a1, _ = _trim_to_sparse(g, [g.nbr_mask(2, w, 0) & m0,
                                    g.nbr_mask(2, w, 1) & m1, 0], thr)
    if not a0 or not a1:
        return None
    a2 = 0
    for v in iter_bits(m2):
        if ((g.nbr_mask(2, v, 0) & a0).bit_count() < thr
                and (g.nbr_mask(2, v, 1) & a1).bit_count() < thr):
            a2 |= 1 << v
    triple = _trim_to_sparse(g, [a0, a1, a2], thr)
    return triple if all(triple) else None


def _theta_triple_witness(g: TripartiteGraph, masks, cfg: Config):
    """Extract a sparse same-column triple from the failed pinned phase, the
    anchor-based opening of the theta-structure argument."""
    thr = max(2, int(cfg.delta0 * max(1, g.n // 3)) + 1)
    for w in iter_bits(masks[2]):
        triple = anchored_sparse_triple(g, w, masks, thr)
        if triple is not None:
            witness = finish_extreme_witness(g, triple, cfg)
            if witness is not None:
                return witness
    return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class AugmentStepRecord:
    old_size: int
    new_size: int
    replaced: int


@dataclass(frozen=True)
class EndgameRecord:
    freed: int      # cover triangles freed in the last round (its k)
    calls: int      # exact_factor calls on sub-instances
    nodes: int      # their nodes, summed


@dataclass
class SolveOutcome:
    kind: str                     # cover | extreme | nofactor | indeterminate
    cover: Optional[TriangleCover] = None
    witness: Optional[ExtremeWitness] = None
    structure: Optional[object] = None
    source: str = ""
    reason: str = ""
    steps: list = field(default_factory=list)
    endgame: Optional[EndgameRecord] = None    # None: the endgame did not run

    def has_factor_decision(self) -> Optional[bool]:
        return {"cover": True, "nofactor": False}.get(self.kind)


def solve(g: TripartiteGraph, cfg: Optional[Config] = None,
          mode: str = "auto", budget: Optional[int] = None) -> SolveOutcome:
    """Full pipeline; outcome encodes the trichotomy.

    NoFactor is only ever returned with exact-oracle confirmation; above
    the oracle range an unresolved extreme case is reported as such.
    """
    cfg = cfg or Config()
    if mode not in ("auto", "exact", "constructive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return _exact_outcome(g, budget)

    n = g.n
    dmin = g.min_cross_degree()
    # dmin >= ceil(3N/4) and dmin >= ceil(2N/3), cross-multiplied
    if 4 * dmin >= 3 * n:
        return SolveOutcome("cover", cover=easy_cover(g, dmin), source="easy")
    # whether the whole-graph oracle decides what the layers leave open
    oracle = mode == "auto" and n <= cfg.exact_limit

    if n % 3:
        if 3 * dmin >= 2 * n:
            red = reduce_mod3(g)
            sub = solve(red.graph, cfg, mode, budget)
            if sub.kind == "cover":
                cover = TriangleCover(_lift(red.maps, sub.cover) + red.removed)
                return _verified(g, cover, "reduction", steps=sub.steps,
                                 endgame=sub.endgame)
            if sub.kind == "nofactor":
                # only the oracle says NoFactor, so the reduced graph is within
                # exact_limit and g within exact_limit + 2: the oracle decides g
                out = _exact_outcome(g, budget, "exact-fallback")
                out.steps = sub.steps
                return out
        return _fallback(g, oracle, budget, reason="n-not-divisible-by-3")

    steps: list[AugmentStepRecord] = []
    out = witness = endgame = None
    if cfg.meets_degree_floor(dmin, n):
        cover = greedy_partial_cover(g, cfg.seed)
        while cover.size <= n - 4:
            step = augment_once(g, cover, cfg)
            if not isinstance(step, Improved):
                if isinstance(step, Extreme):
                    witness = step.witness
                    out = _extreme_path(g, witness, cfg, oracle, budget)
                break
            steps.append(AugmentStepRecord(cover.size, step.cover.size, step.replaced))
            cover = step.cover
        if cover.size == n:
            out = _verified(g, cover, "constructive")
        elif witness is None and mode == "auto" and not oracle and cover.size >= n - 3:
            finished, endgame = _endgame(g, cover, cfg, budget)
            if finished is not None:
                out = _verified(g, finished, "endgame")
    if out is None:
        out = _fallback(g, oracle, budget, witness)
    out.steps, out.endgame = steps, endgame
    return out


def _verified(g: TripartiteGraph, cover: TriangleCover, source: str,
              **fields) -> SolveOutcome:
    """The cover outcome of source, after the soundness gate accepts cover."""
    _check_cover(g, cover, source, require_perfect=True)
    return SolveOutcome("cover", cover=cover, source=source, **fields)


def _lift(maps, cover: TriangleCover) -> list[Triangle]:
    """cover's triangles in the indices that maps, one list per class, give."""
    m0, m1, m2 = maps
    return [Triangle(m0[a], m1[b], m2[c]) for a, b, c in cover.triangles]


def _endgame(g: TripartiteGraph, cover: TriangleCover, cfg: Config,
             budget: Optional[int]) -> tuple[Optional[TriangleCover], EndgameRecord]:
    """Finish a cover that is d = N - size triangles short by exact repair.

    Each round frees the d uncovered vertices of every class plus the k
    cover triangles with the most edges into the uncovered sets (ties keep
    cover order), decides that sub-instance of d + k vertices per class with
    exact_factor, and on a factor splices it in with the kept triangles.
    k runs 3, 6, 12, ... while it is at most exact_limit - d, so a
    sub-instance is never larger than the whole graphs the oracle fallback
    is trusted with; as solve only calls it at N > exact_limit, some cover
    triangle is always kept.  Returns the perfect cover, which solve's gate
    verifies, or None when no round found one, with the record.  A None
    decides nothing.
    """
    n = g.n
    d = n - cover.size
    u0, u1, u2 = (cover.uncovered_mask(n, c) for c in range(3))
    r = g._rows
    r01, r02, r10 = r[(0, 1)], r[(0, 2)], r[(1, 0)]
    r12, r20, r21 = r[(1, 2)], r[(2, 0)], r[(2, 1)]
    tris = cover.triangles
    score = [(r01[a] & u1).bit_count() + (r02[a] & u2).bit_count()
             + (r10[b] & u0).bit_count() + (r12[b] & u2).bit_count()
             + (r20[c] & u0).bit_count() + (r21[c] & u1).bit_count()
             for a, b, c in tris]
    order = sorted(range(len(tris)), key=score.__getitem__, reverse=True)
    cap = cfg.exact_limit - d
    k, freed, calls, nodes = min(3, cap), 0, 0, 0
    while 0 < k <= cap:
        keep = [u0, u1, u2]
        for j in order[:k]:
            for c, i in enumerate(tris[j]):
                keep[c] |= 1 << i
        sub, maps = g.induce(keep)
        res = exact_factor(sub, budget=budget)
        calls += 1
        nodes += res.stats.nodes_expanded
        if res.status == COVER:
            finished = TriangleCover([tris[j] for j in order[k:]] + _lift(maps, res.cover))
            return finished, EndgameRecord(k, calls, nodes)
        freed = k
        k *= 2
    return None, EndgameRecord(freed, calls, nodes)


def _exact_outcome(g, budget, source="exact-oracle", witness=None, structure=None):
    res = exact_factor(g, budget=budget)
    if res.status == COVER:
        return SolveOutcome("cover", cover=res.cover, source=source,
                            witness=witness, structure=structure)
    if res.status == NO_FACTOR:
        return SolveOutcome("nofactor", source="exact-oracle",
                            witness=witness, structure=structure)
    return SolveOutcome("indeterminate", reason="budget")


def _fallback(g, oracle: bool, budget, witness=None, reason="stuck"):
    if oracle:
        return _exact_outcome(g, budget, "exact-fallback", witness)
    if witness is not None:
        return SolveOutcome("extreme", witness=witness, reason=reason)
    return SolveOutcome("indeterminate", reason=reason)


def _extreme_path(g, witness: ExtremeWitness, cfg: Config, oracle: bool,
                  budget: Optional[int]):
    """Classify the witness, discriminate gamma vs theta, and run the
    extreme-case cover.  Returns a SolveOutcome or None to fall back."""
    from . import extremal

    try:
        ep = extremal.classify_extreme_partition(g, witness, cfg.theta, cfg.delta0)
    except SizeBandViolatedError:
        return None
    sw = extremal.discriminate_gamma_vs_theta(g, ep, delta=cfg.delta0)
    if sw is None:
        return None
    try:
        result = extremal.extreme_cover(g, sw, cfg)
    except WitnessInvalidError:
        return None
    if result.kind == "cover":
        return _verified(g, result.cover, "extreme-cover", witness=witness, structure=sw)
    # exact gamma3 with odd scale: the one genuinely uncoverable family
    if oracle:
        return _exact_outcome(g, budget, witness=witness, structure=sw)
    return SolveOutcome("indeterminate", reason="gamma3-witness",
                        witness=witness, structure=sw)


# ---------------------------------------------------------------------------
# N not divisible by 3
# ---------------------------------------------------------------------------


@dataclass
class ReduceResult:
    graph: TripartiteGraph
    removed: list            # triangles of g, original indices
    maps: list               # per class: new index -> old index


def reduce_mod3(g: TripartiteGraph) -> ReduceResult:
    """Remove 1 (N=3t+1) or 2 (N=3t+2) disjoint triangles, leaving a balanced
    graph on 3t vertices with min cross-degree >= 2t.

    Selection rule: at each step take, among the triangles inside the kept
    vertices, the one whose removal keeps the minimum cross-degree of the
    kept graph largest; the first such triangle in (i0, i1, i2) order wins
    ties.

    Scoring: removing t = (v0, v1, v2) lowers the degree of a kept row
    (a, i) into class b by one when i is adjacent to t[b], and leaves it
    otherwise.  So per ordered class pair (a, b) only the two lowest degree
    levels of the kept rows matter, held as bitmasks (_levels).  The pair's
    part of the score is the value d of the first level left non-empty once
    t[a] is dropped, minus one if that level meets t[b]'s neighbours; the
    score is the minimum over the six pairs.  Each step costs one O(N) scan
    of the kept row degrees, then O(1) bitmask operations per triangle
    visited, where rescoring a triangle from its rows costs O(N).  The
    (0,1)/(1,0) part is shared by all triangles on an edge v0-v1 and skips
    their v2 loop when it cannot beat the best score, and the search stops
    once the best score meets the bound no removal can exceed.
    """
    n = g.n
    if n % 3 == 0:
        raise PreconditionDivisibilityError("N is divisible by 3")
    if 3 * g.min_cross_degree() < 2 * n:
        raise PreconditionDegreeError(
            f"reduction needs min cross-degree >= ceil(2N/3) = {-(-2 * n // 3)}")
    removed: list[Triangle] = []
    keep = [(1 << n) - 1] * 3
    for _ in range(n % 3):
        best = _best_triangle(g, keep)
        if best is None:
            raise NoTriangleExistsError("no disjoint triangle available")
        removed.append(best)
        for c, i in enumerate(best):
            keep[c] &= ~(1 << i)
    sub, maps = g.induce(keep)
    t = n // 3
    if sub.min_cross_degree() < 2 * t:
        raise InternalError("reduction lost too much degree")
    return ReduceResult(sub, removed, maps)


def _levels(g: TripartiteGraph, keep, a: int, b: int):
    """Lowest degree level of the kept class-a rows into keep[b] once one
    row is dropped.

    Returns (masks, values, bound).  For a kept class-a vertex x, masks[x]
    holds the lowest-degree kept rows other than x and values[x] their
    degree (an empty mask with value N if x is the only kept row).  bound
    is the largest values[x], the most this pair's minimum degree can be
    after any one removal.  keep[a] must be non-empty.
    """
    n = g.n
    rows = g._rows[(a, b)]
    kb = keep[b]
    d0 = d1 = n
    l0 = l1 = 0
    for i in iter_bits(keep[a]):
        d = (rows[i] & kb).bit_count()
        if d < d0:
            d0, l0, d1, l1 = d, 1 << i, d0, l0
        elif d == d0:
            l0 |= 1 << i
        elif d < d1:
            d1, l1 = d, 1 << i
        elif d == d1:
            l1 |= 1 << i
    masks = [l0] * n
    values = [d0] * n
    if l0 & (l0 - 1):
        for x in iter_bits(l0):
            masks[x] = l0 & ~(1 << x)
        return masks, values, d0
    # a lone lowest row: dropping it exposes the next level (d1 = N if none)
    x = l0.bit_length() - 1
    masks[x], values[x] = l1, d1
    return masks, values, d1


def _best_triangle(g: TripartiteGraph, keep) -> Optional[Triangle]:
    """reduce_mod3's choice among the triangles inside keep, or None."""
    r = g._rows
    m01, d01, b01 = _levels(g, keep, 0, 1)
    m02, d02, b02 = _levels(g, keep, 0, 2)
    m10, d10, b10 = _levels(g, keep, 1, 0)
    m12, d12, b12 = _levels(g, keep, 1, 2)
    m20, d20, b20 = _levels(g, keep, 2, 0)
    m21, d21, b21 = _levels(g, keep, 2, 1)
    bound = min(b01, b02, b10, b12, b20, b21)
    r01, r02, r10 = r[(0, 1)], r[(0, 2)], r[(1, 0)]
    r12, r20, r21 = r[(1, 2)], r[(2, 0)], r[(2, 1)]
    k1, k2 = keep[1], keep[2]
    best, best_score = None, -1
    for v0 in iter_bits(keep[0]):
        n1, n2 = r01[v0], r02[v0]
        l01, e01, l02, e02 = m01[v0], d01[v0], m02[v0], d02[v0]
        for v1 in iter_bits(n1 & k1):
            s01 = min(e01 - ((l01 & r10[v1]) != 0),
                      d10[v1] - ((m10[v1] & n1) != 0))
            if s01 <= best_score:
                continue
            n12 = r12[v1]
            l12, e12 = m12[v1], d12[v1]
            for v2 in iter_bits(n2 & n12 & k2):
                score = min(s01,
                            e02 - ((l02 & r20[v2]) != 0),
                            d20[v2] - ((m20[v2] & n2) != 0),
                            e12 - ((l12 & r21[v2]) != 0),
                            d21[v2] - ((m21[v2] & n12) != 0))
                if score > best_score:
                    best, best_score = Triangle(v0, v1, v2), score
                    if score == bound:
                        return best
                    if score == s01:
                        break  # no later v2 on this edge can score higher
    return best
