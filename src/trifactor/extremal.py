"""Approximate-structure classification and the extreme-case cover.

Model conventions (0-indexed): the three grid families live on clusters
(class, column).  Column 0 of the gamma family is the special one (every
cross edge must touch it or stay inside column 1 or 2).  A structure
witness is a total assignment of vertices to clusters plus the realized
maximum density over the model's non-edge cluster pairs, so a witness can
always be re-certified from the graph alone.

Recognition: classify_theta32 resizes cover's anchored sparse triple into
the two-column structure.  For gamma3 vs theta33, the degree refinement
classify_extreme_partition finds the column-0 sets A', and
discriminate_gamma_vs_theta splits the rest of each class into two halves
by majority adjacency (planted-partition recovery) and tells the models
apart by how the halves pair up across the three classes.

The extreme-case cover follows the labeled-split procedure: make every
cluster exactly t via red/green/blue moves (colored vertices always travel
with an edge or a label that keeps them completable), fix odd parity with
three transversal "parity triangles" that hit all nine clusters once, halve
each cluster at random into two labeled pieces, finish each label's triple
with the 3/4-threshold double matching, and verify the assembled cover.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import Config, as_fraction, ceil_frac, floor_frac
from .cover import ExtremeWitness, anchored_sparse_triple, match_triple_cover, resize_set
from .errors import (
    InternalError,
    ModelMismatchError,
    NotTriangleFreeError,
    OddSizeError,
    SizeBandViolatedError,
    SizeOutOfRangeError,
    WitnessInvalidError,
)
from .graph import Triangle, TriangleCover, TripartiteGraph, iter_bits, mask_of, verify_cover

GAMMA3 = "gamma3"
THETA33 = "theta33"
THETA32 = "theta32"

MODEL_COLS = {THETA32: 2, THETA33: 3, GAMMA3: 3}


class _GammaExactType:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "GAMMA_EXACT"


GAMMA_EXACT = _GammaExactType()


def model_sparse(model: str, ja: int, jb: int) -> bool:
    """Is the (col ja, col jb) cross-class pair a non-edge of the model?"""
    if model in (THETA32, THETA33):
        return ja == jb
    if model == GAMMA3:
        return (ja == 0 and jb == 0) or (ja != jb and ja != 0 and jb != 0)
    raise ModelMismatchError(model)


@dataclass
class StructureWitness:
    """Cluster assignment certifying approximate grid structure."""

    model: str
    t: int
    assignment: dict            # (class, index) -> (row, col); row == class
    eps: float                  # realized size slack
    max_nonedge_density: Fraction

    def cluster_masks(self) -> list[list[int]]:
        cols = MODEL_COLS[self.model]
        out = [[0] * cols for _ in range(3)]
        for (c, i), (_, j) in self.assignment.items():
            out[c][j] |= 1 << i
        return out

    def self_certify(self, g: TripartiteGraph) -> Fraction:
        """Recompute the max non-edge density from the assignment."""
        masks = self.cluster_masks()
        worst = Fraction(0)
        cols = MODEL_COLS[self.model]
        for ca in range(3):
            for cb in range(ca + 1, 3):
                for ja in range(cols):
                    for jb in range(cols):
                        if not model_sparse(self.model, ja, jb):
                            continue
                        if masks[ca][ja] and masks[cb][jb]:
                            d = g.density_masks(ca, masks[ca][ja], cb, masks[cb][jb])
                            worst = max(worst, d)
        return worst


def witness_from_assignment(g: TripartiteGraph, model: str, assignment: dict
                            ) -> StructureWitness:
    t = max(1, g.n // MODEL_COLS[model])
    sw = StructureWitness(model, t, dict(assignment), 0.0, Fraction(0))
    sizes = [m.bit_count() for row in sw.cluster_masks() for m in row]
    sw.eps = max(abs(s - t) / t for s in sizes)
    sw.max_nonedge_density = sw.self_certify(g)
    return sw


# ---------------------------------------------------------------------------
# triangle-free classification (theta 3x2)
# ---------------------------------------------------------------------------


THETA32_INNER = Fraction(1, 4)   # anchor threshold, as a fraction of t


def classify_theta32(h: TripartiteGraph, t: int, eps: float, delta: float
                     ) -> Optional[StructureWitness]:
    """Recover the two-columns-per-class structure of a near-extremal
    triangle-free graph.

    Anchored at a vertex w of class 2: the column-0 sets are the
    anchored_sparse_triple of w at threshold THETA32_INNER*t, resized
    (resize_set) into [(1-eps)t, (1+eps)t] with complements in the same
    band.  All six same-column densities of the result must certify below
    delta.  Raises NotTriangleFreeError when no anchor certifies and the
    graph does contain a triangle.
    """
    n = h.n
    lo_cls = 2 * (Fraction(1) - as_fraction(eps)) * t
    hi_cls = 2 * (Fraction(1) + as_fraction(eps)) * t
    if not lo_cls <= n <= hi_cls:
        raise SizeOutOfRangeError(f"class size {n} outside [{lo_cls}, {hi_cls}]")
    thr = max(1, ceil_frac(THETA32_INNER * t))
    full = (1 << n) - 1
    cap = as_fraction(delta)

    lo_t = (Fraction(1) - as_fraction(eps)) * t
    hi_t = (Fraction(1) + as_fraction(eps)) * t

    for w in range(n):
        a = anchored_sparse_triple(h, w, (full, full, full), thr)
        if a is None:
            continue

        ok = True
        for c in range(3):
            target = min(max(a[c].bit_count(), ceil_frac(max(lo_t, n - hi_t))),
                         floor_frac(min(hi_t, n - lo_t)))
            if target < 1 or target >= n:
                ok = False
                break
            a[c] = resize_set(h, c, a, target)
        if not ok:
            continue

        b = [full ^ a[c] for c in range(3)]
        dens = []
        good = True
        for side in (a, b):
            for ca in range(3):
                for cb in range(ca + 1, 3):
                    if not side[ca] or not side[cb]:
                        good = False
                        break
                    d = h.density_masks(ca, side[ca], cb, side[cb])
                    dens.append(d)
                    if d > cap:
                        good = False
                if not good:
                    break
            if not good:
                break
        if not good:
            continue

        assignment = {}
        for c in range(3):
            for i in iter_bits(a[c]):
                assignment[(c, i)] = (c, 0)
            for i in iter_bits(b[c]):
                assignment[(c, i)] = (c, 1)
        sizes = [m.bit_count() for c in range(3) for m in (a[c], b[c])]
        eps_real = max(abs(s - t) / t for s in sizes)
        return StructureWitness(THETA32, t, assignment, eps_real, max(dens))

    if h.find_triangle() is not None:
        raise NotTriangleFreeError("graph has triangles and no anchor certified")
    return None


# ---------------------------------------------------------------------------
# extreme partition (A'/B'/C')
# ---------------------------------------------------------------------------


@dataclass
class ExtremePartition:
    a_prime: tuple      # masks per class
    b_prime: tuple
    c_prime: tuple
    theta: float
    t: int


def classify_extreme_partition(g: TripartiteGraph, witness: ExtremeWitness,
                               theta: float, delta0: float = 0.05) -> ExtremePartition:
    """Degree-based refinement of an extreme witness.

    A'_i holds the vertices adjacent to at least (1+theta)t vertices of the
    complement side in both other classes, B'_i those adjacent to at least
    (1/2)(1+theta)t vertices of the witness side, C'_i the rest.  Size bands
    use Delta_1 = 4*delta0/(1-theta); a violation certifies the witness was
    not genuinely extreme.
    """
    n = g.n
    t = n // 3
    full = (1 << n) - 1
    a_masks = witness.masks()
    b_masks = [full ^ m for m in a_masks]
    th = as_fraction(theta)
    thr_a = (1 + th) * t
    thr_b = Fraction(1, 2) * (1 + th) * t

    a_prime, b_prime, c_prime = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    for c in range(3):
        others = [cp for cp in range(3) if cp != c]
        for v in range(n):
            if all((g.nbr_mask(c, v, cp) & b_masks[cp]).bit_count() >= thr_a
                   for cp in others):
                a_prime[c] |= 1 << v
            elif all((g.nbr_mask(c, v, cp) & a_masks[cp]).bit_count() >= thr_b
                     for cp in others):
                b_prime[c] |= 1 << v
            else:
                c_prime[c] |= 1 << v

    delta1 = 4 * as_fraction(delta0) / (1 - th)
    lo_a, hi_a = (1 - delta1) * t, (1 + delta1) * t
    lo_b, hi_b = (2 - delta1) * t, (2 + delta1) * t
    for c in range(3):
        sa, sb = a_prime[c].bit_count(), b_prime[c].bit_count()
        if not lo_a < sa < hi_a:
            raise SizeBandViolatedError(f"|A'_{c}| = {sa} outside ({lo_a},{hi_a})")
        if not lo_b < sb < hi_b:
            raise SizeBandViolatedError(f"|B'_{c}| = {sb} outside ({lo_b},{hi_b})")
        missing_a = (a_masks[c] & ~a_prime[c]).bit_count()
        missing_b = (b_masks[c] & ~b_prime[c]).bit_count()
        if missing_a > delta1 * t or missing_b > delta1 * t:
            raise SizeBandViolatedError(
                f"class {c}: witness sets stray from the degree partition")
    return ExtremePartition(tuple(a_prime), tuple(b_prime), tuple(c_prime),
                            theta, t)


# ---------------------------------------------------------------------------
# gamma3 vs theta33 discrimination
# ---------------------------------------------------------------------------


PARTNER_BAND = (Fraction(1, 4), Fraction(3, 4))   # sparse / dense partners


def discriminate_gamma_vs_theta(g: TripartiteGraph, ep: ExtremePartition,
                                delta: float = 0.05) -> Optional[StructureWitness]:
    """Decide whether the remainder blocks of the three class pairs coincide
    (gamma3) or cross (theta33); None is the inconclusive middle band.

    Outside A' each class splits into two halves, and each half is dense
    toward one half of every other class, its partner.  The halves are
    recovered by majority adjacency, as in planted-partition recovery
    (McSherry, FOCS 2001): the class-1 half starts as one class-0 remainder
    vertex's neighbourhood, then the class-0 half and its class-1 partner
    are each re-read as the vertices with most of their remainder edges
    into the other, until they stop changing; the class-2 partner of the
    class-0 half is read the same way.  The class-1 and class-2 partners
    are dense to each other (density >= PARTNER_BAND[1]) in gamma3, where
    all three are column 1, and sparse (<= PARTNER_BAND[0]) in theta33,
    where they share the column opposite the class-0 half.  The witness
    must certify below delta.
    """
    full = (1 << g.n) - 1
    rem = [full ^ ep.a_prime[c] for c in range(3)]
    if not rem[0]:
        return None

    def majority(c: int, cp: int, half: int) -> int:
        out = 0
        for i in iter_bits(rem[c]):
            row = g.nbr_mask(c, i, cp) & rem[cp]
            if 2 * (row & half).bit_count() > row.bit_count():
                out |= 1 << i
        return out

    seed = (rem[0] & -rem[0]).bit_length() - 1
    p1 = g.nbr_mask(0, seed, 1) & rem[1]
    for _ in range(8):  # blow-ups settle within two rounds
        h0 = majority(0, 1, p1)
        p1, prev = majority(1, 0, h0), p1
        if p1 == prev:
            break
    p2 = majority(2, 0, h0)
    halves = [h0, p1, p2]
    if not all(m and m != rem[c] for c, m in enumerate(halves)):
        return None
    d = g.density_masks(1, p1, 2, p2)
    lo, hi = PARTNER_BAND
    if d >= hi:
        model = GAMMA3
    elif d <= lo:
        model = THETA33
    else:
        return None

    # the class-0 half is column 1; its partners are column 1 in gamma3 and
    # column 2 in theta33
    assignment = {}
    for c in range(3):
        cols = [ep.a_prime[c], halves[c], rem[c] ^ halves[c]]
        if model == THETA33 and c:
            cols[1], cols[2] = cols[2], cols[1]
        for j, m in enumerate(cols):
            for i in iter_bits(m):
                assignment[(c, i)] = (c, j)
    sw = witness_from_assignment(g, model, assignment)
    if sw.max_nonedge_density > as_fraction(delta):
        return None
    return sw


# ---------------------------------------------------------------------------
# parity triangles
# ---------------------------------------------------------------------------


def find_parity_triangles(g: TripartiteGraph, sw: StructureWitness):
    """Three disjoint triangles hitting all nine clusters exactly once.

    For the gamma model they need a non-model edge (a cross column-1/2 edge
    with a column-0 common neighbor, or an edge inside the column-0 union);
    GAMMA_EXACT reports that no such edge exists, i.e. the graph restricted
    to the witness is exactly the gamma blow-up.  The theta model always has
    its three transversal triples.  None: non-exact but no triple found.
    """
    if sw.model == THETA32:
        raise ModelMismatchError("parity triangles need a gamma3 or theta33 witness")
    masks = sw.cluster_masks()
    return _find_parity(g, sw.model, masks, [(1 << g.n) - 1] * 3)


def _find_parity(g: TripartiteGraph, model: str, masks, allowed):
    av = [[masks[c][j] & allowed[c] for j in range(3)] for c in range(3)]

    def tri_in(slots, extra_used=None):
        used = extra_used or [0, 0, 0]
        per_class = [0, 0, 0]
        for (c, j) in slots:
            per_class[c] = av[c][j] & ~used[c]
        return g.find_triangle(*per_class)

    if model == THETA33:
        triples = ([(0, 0), (1, 1), (2, 2)], [(1, 0), (2, 1), (0, 2)],
                   [(2, 0), (0, 1), (1, 2)])
        out = []
        used = [0, 0, 0]
        for slots in triples:
            t = tri_in(slots, used)
            if t is None:
                return None
            out.append(t)
            for c, i in enumerate(t):
                used[c] |= 1 << i
        return out

    # gamma: first a column-1 x column-2 edge with a column-0 common neighbor
    for ca in range(3):
        for cb in range(3):
            if cb == ca:
                continue
            cc = 3 - ca - cb
            for u in iter_bits(av[ca][1]):
                row = g.nbr_mask(ca, u, cb) & av[cb][2]
                for v in iter_bits(row):
                    zs = g.nbr_mask(ca, u, cc) & g.nbr_mask(cb, v, cc) & av[cc][0]
                    for z in iter_bits(zs):
                        t1 = _tri_by_class({ca: u, cb: v, cc: z})
                        rest = _gamma_rest(g, av, t1, ca, cb, cc, crossed=True)
                        if rest is not None:
                            return [t1] + rest
    # fallback: an edge inside the column-0 union
    for ca in range(3):
        for cb in range(ca + 1, 3):
            cc = 3 - ca - cb
            for u in iter_bits(av[ca][0]):
                row = g.nbr_mask(ca, u, cb) & av[cb][0]
                for v in iter_bits(row):
                    for jz in (1, 2):
                        zs = g.nbr_mask(ca, u, cc) & g.nbr_mask(cb, v, cc) & av[cc][jz]
                        for z in iter_bits(zs):
                            t1 = _tri_by_class({ca: u, cb: v, cc: z})
                            rest = _gamma_rest(g, av, t1, ca, cb, cc,
                                               crossed=False, jz=jz)
                            if rest is not None:
                                return [t1] + rest

    if _gamma_is_exact(g, av):
        return GAMMA_EXACT
    return None


def _tri_by_class(by_class: dict) -> Triangle:
    return Triangle(by_class[0], by_class[1], by_class[2])


def _gamma_rest(g, av, t1, ca, cb, cc, crossed, jz=None):
    used = [0, 0, 0]
    for c, i in enumerate(t1):
        used[c] |= 1 << i

    def grab(slots):
        per_class = [0, 0, 0]
        for (c, j) in slots:
            per_class[c] = av[c][j] & ~used[c]
        t = g.find_triangle(*per_class)
        if t is not None:
            for c, i in enumerate(t):
                used[c] |= 1 << i
        return t

    if crossed:
        # t1 hit (ca,1),(cb,2),(cc,0)
        t2 = grab([(ca, 0), (cb, 1), (cc, 1)])
        if t2 is None:
            return None
        t3 = grab([(cb, 0), (ca, 2), (cc, 2)])
        if t3 is None:
            return None
        return [t2, t3]
    # t1 hit (ca,0),(cb,0),(cc,jz)
    jo = 3 - jz  # the other non-special column (1 <-> 2)
    t2 = grab([(cc, 0), (ca, jz), (cb, jz)])
    if t2 is None:
        return None
    t3 = grab([(ca, jo), (cb, jo), (cc, jo)])
    if t3 is None:
        return None
    return [t2, t3]


def _gamma_is_exact(g: TripartiteGraph, av) -> bool:
    """No edge inside any model non-edge pair of the cluster family."""
    for ca in range(3):
        for cb in range(ca + 1, 3):
            for ja in range(3):
                for jb in range(3):
                    if not model_sparse(GAMMA3, ja, jb):
                        continue
                    ma, mb = av[ca][ja], av[cb][jb]
                    if not ma or not mb:
                        continue
                    for i in iter_bits(ma):
                        if g.nbr_mask(ca, i, cb) & mb:
                            return False
    return True


# ---------------------------------------------------------------------------
# balanced random split
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    half_a: tuple
    half_b: tuple
    deviations: dict      # outside vertex -> |deg into half_a - deg into cluster / 2|

    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)


def balanced_random_split(g: TripartiteGraph, cluster, seed: int) -> SplitResult:
    members = [tuple(v) for v in cluster]
    classes = {c for c, _ in members}
    if len(classes) != 1:
        raise ValueError("cluster must lie inside one class")
    if len(members) % 2:
        raise OddSizeError(f"cluster size {len(members)} is odd")
    (cls,) = classes
    rng = random.Random(f"split:{seed}")
    picked = rng.sample(sorted(members), len(members) // 2)
    half_a = tuple(sorted(picked))
    half_b = tuple(sorted(set(members) - set(picked)))
    cl_mask = mask_of(i for _, i in members)
    a_mask = mask_of(i for _, i in half_a)
    deviations = {}
    for c in range(3):
        if c == cls:
            continue
        for v in range(g.n):
            row = g.nbr_mask(c, v, cls)
            d_cluster = (row & cl_mask).bit_count()
            d_half = (row & a_mask).bit_count()
            deviations[(c, v)] = abs(d_half - d_cluster / 2)
    return SplitResult(half_a, half_b, deviations)


# ---------------------------------------------------------------------------
# the extreme-case cover
# ---------------------------------------------------------------------------


@dataclass
class ExtremeCoverResult:
    kind: str                      # 'cover' | 'exact-gamma-odd'
    cover: Optional[TriangleCover] = None


def _labels(model: str) -> list:
    if model == GAMMA3:
        out = []
        for i in range(3):
            for j in (1, 2):
                out.append(("g", i, j))
        return out
    return [("t",) + p for p in itertools.permutations(range(3))]


def _label_slots(label) -> dict:
    """class -> column for one label's triple."""
    if label[0] == "g":
        _, i, j = label
        slots = {i: 0}
        for o in range(3):
            if o != i:
                slots[o] = j
        return slots
    _, p0, p1, p2 = label
    return {p0: 0, p1: 1, p2: 2}


def _cluster_labels(model: str, c: int, j: int) -> list:
    return [lab for lab in _labels(model) if _label_slots(lab)[c] == j]


class _Colored:
    __slots__ = ("color", "label", "partner")

    def __init__(self, color, label, partner=None):
        self.color = color
        self.label = label
        self.partner = partner


ETA = Fraction(1, 4)                 # atypicality threshold, as a fraction of t
EXCHANGE_CAP_FRAC = Fraction(1, 20)  # forced exchanges per cluster, likewise


def extreme_cover(g: TripartiteGraph, sw: StructureWitness, cfg: Config
                  ) -> ExtremeCoverResult:
    """Perfect cover of an approximately-gamma3/theta33 graph, or the
    exact-odd-gamma verdict.  Raises WitnessInvalidError whenever a step
    certifiably cannot be completed from this witness."""
    if sw.model not in (GAMMA3, THETA33):
        raise WitnessInvalidError(f"unsupported model {sw.model}")
    n = g.n
    if n % 3:
        raise WitnessInvalidError("class size must be divisible by 3")
    t = n // 3
    masks = sw.cluster_masks()
    full = (1 << n) - 1
    for c in range(3):
        if masks[c][0] | masks[c][1] | masks[c][2] != full:
            raise WitnessInvalidError("assignment does not cover every vertex")

    # a lone stray edge into a sparse partner cannot break any completion,
    # so the atypicality threshold never drops below 2
    eta_t = max(2, ceil_frac(ETA * t))
    colored: dict = {}

    def is_typical(c: int, i: int, j: int) -> bool:
        for cp in range(3):
            if cp == c:
                continue
            for jp in range(3):
                if model_sparse(sw.model, j, jp):
                    if (g.nbr_mask(c, i, cp) & masks[cp][jp]).bit_count() >= eta_t:
                        return False
        return True

    def col_of(c: int, i: int) -> int:
        for j in range(3):
            if masks[c][j] >> i & 1:
                return j
        raise InternalError(f"vertex ({c},{i}) lies in no cluster")

    # phase A: pull atypical vertices out and green-label them
    atypical = []
    for c in range(3):
        for j in range(3):
            for i in iter_bits(masks[c][j]):
                if not is_typical(c, i, j):
                    atypical.append((c, i, j))
    for c, i, j_orig in atypical:
        masks[c][j_orig] &= ~(1 << i)
    for c, i, j_orig in atypical:
        best = None
        dests = (1, 2) if sw.model == GAMMA3 else (0, 1, 2)
        for j in dests:
            for lab in _cluster_labels(sw.model, c, j):
                slots = _label_slots(lab)
                score = min((g.nbr_mask(c, i, cp) & masks[cp][slots[cp]]).bit_count()
                            for cp in range(3) if cp != c)
                key = (score, -masks[c][j].bit_count())
                if best is None or key > best[0]:
                    best = (key, j, lab)
        if best is None or best[0][0] == 0:
            raise WitnessInvalidError(f"atypical vertex ({c},{i}) cannot be labeled")
        _, j, lab = best
        masks[c][j] |= 1 << i
        colored[(c, i)] = _Colored("green", lab)

    # phase B: rebalance all clusters to exactly t
    def usable(c: int, m: int) -> int:
        for (cc, ii) in colored:
            if cc == c:
                m &= ~(1 << ii)
        return m

    if sw.model == GAMMA3:
        _rebalance_gamma_col0(g, masks, colored, t)
    _rebalance_cols(g, sw.model, masks, colored, t)
    for c in range(3):
        for j in range(3):
            if masks[c][j].bit_count() != t:
                raise InternalError(
                    f"rebalancing left cluster ({c},{j}) at size "
                    f"{masks[c][j].bit_count()}, not {t}")

    # parity
    parity: list[Triangle] = []
    if t % 2 == 1:
        allowed = [usable(c, full) for c in range(3)]
        res = _find_parity(g, sw.model, masks, allowed)
        if res is GAMMA_EXACT:
            if colored:
                raise WitnessInvalidError("colored vertices on an exact gamma graph")
            return ExtremeCoverResult("exact-gamma-odd")
        if res is None:
            raise WitnessInvalidError("no parity triangles available")
        parity = res
        for tri in parity:
            for c, i in enumerate(tri):
                masks[c][col_of(c, i)] &= ~(1 << i)
    t_star = t - (1 if t % 2 else 0)
    if t_star == 0:
        cover = TriangleCover(parity)
        if not verify_cover(g, cover, require_perfect=True).ok:
            raise WitnessInvalidError("parity triangles did not complete the cover")
        return ExtremeCoverResult("cover", cover)

    # halving into labeled pieces
    rng = random.Random(f"extreme-cover:{cfg.seed}")
    half = t_star // 2
    cap = max(1, floor_frac(EXCHANGE_CAP_FRAC * t))
    pieces: dict = {lab: {} for lab in _labels(sw.model)}
    for c in range(3):
        for j in range(3):
            lab_a, lab_b = _cluster_labels(sw.model, c, j)
            members = list(iter_bits(masks[c][j]))
            pre = {lab_a: [], lab_b: []}
            free = []
            for i in members:
                info = colored.get((c, i))
                if info is not None:
                    pre[info.label].append(i)
                else:
                    free.append(i)
            forced = len(pre[lab_a]) + len(pre[lab_b])
            if forced > cap:
                raise WitnessInvalidError(
                    f"cluster ({c},{j}) needs {forced} exchanges > cap {cap}")
            if len(pre[lab_a]) > half or len(pre[lab_b]) > half:
                raise WitnessInvalidError("colored vertices overflow a half")
            rng.shuffle(free)
            need_a = half - len(pre[lab_a])
            pre[lab_a].extend(free[:need_a])
            pre[lab_b].extend(free[need_a:])
            pieces[lab_a][c] = sorted(pre[lab_a])
            pieces[lab_b][c] = sorted(pre[lab_b])

    # per-label covering
    tris: list[Triangle] = list(parity)
    for lab in _labels(sw.model):
        tris.extend(_cover_label(g, lab, pieces[lab], colored))
    cover = TriangleCover(tris)
    if not verify_cover(g, cover, require_perfect=True).ok:
        raise WitnessInvalidError("assembled cover failed verification")
    return ExtremeCoverResult("cover", cover)


def _rebalance_gamma_col0(g, masks, colored, t):
    """Red edges shrink oversized column-0 sets, green moves feed deficits."""
    for a in range(3):
        while masks[a][0].bit_count() > t:
            moved = False
            for b in range(3):
                if b == a or moved:
                    continue
                for w in iter_bits(masks[b][0]):
                    if (b, w) in colored:
                        continue
                    cands = g.nbr_mask(b, w, a) & masks[a][0]
                    for u in iter_bits(cands):
                        if (a, u) in colored:
                            continue
                        j = 1 if masks[a][1].bit_count() <= masks[a][2].bit_count() else 2
                        lab = ("g", b, j)
                        masks[a][0] &= ~(1 << u)
                        masks[a][j] |= 1 << u
                        colored[(a, u)] = _Colored("red", lab, (b, w))
                        colored[(b, w)] = _Colored("red", lab, (a, u))
                        moved = True
                        break
                    if moved:
                        break
            if not moved:
                raise WitnessInvalidError("no red edge available for column-0 excess")
    for a in range(3):
        while masks[a][0].bit_count() < t:
            j = 1 if masks[a][1].bit_count() >= masks[a][2].bit_count() else 2
            moved = False
            for v in iter_bits(masks[a][j]):
                if (a, v) in colored:
                    continue
                lab = ("g", a, j)
                others = [o for o in range(3) if o != a]
                if all((g.nbr_mask(a, v, o) & masks[o][j]).bit_count() >= 1
                       for o in others):
                    masks[a][j] &= ~(1 << v)
                    masks[a][0] |= 1 << v
                    colored[(a, v)] = _Colored("green", lab)
                    moved = True
                    break
            if not moved:
                raise WitnessInvalidError("no green donor for column-0 deficit")


def _rebalance_cols(g, model, masks, colored, t):
    """Blue single moves with an anchor edge: one unit of imbalance at a
    time, each paid for by one edge that a later triangle will extend."""
    cols = (1, 2) if model == GAMMA3 else (0, 1, 2)
    guard = 0
    while True:
        guard += 1
        if guard > 9 * t + 9:
            raise WitnessInvalidError("rebalancing did not converge")
        over = None
        for a in range(3):
            for j in cols:
                if masks[a][j].bit_count() > t:
                    over = (a, j)
                    break
            if over:
                break
        if over is None:
            break
        a, j_over = over
        j_under = next(j for j in cols if masks[a][j].bit_count() < t)
        anchor_col = j_under if model == GAMMA3 else j_over
        moved = False
        for b in range(3):
            if b == a or moved:
                continue
            for w in iter_bits(masks[b][anchor_col]):
                if (b, w) in colored:
                    continue
                cands = g.nbr_mask(b, w, a) & masks[a][j_over]
                for u in iter_bits(cands):
                    if (a, u) in colored:
                        continue
                    if model == GAMMA3:
                        c = 3 - a - b
                        lab = ("g", c, j_under)
                    else:
                        perm = [None, None, None]
                        perm[j_under] = a
                        perm[anchor_col] = b
                        j3 = 3 - j_under - anchor_col
                        perm[j3] = 3 - a - b
                        lab = ("t",) + tuple(perm)
                    masks[a][j_over] &= ~(1 << u)
                    masks[a][j_under] |= 1 << u
                    colored[(a, u)] = _Colored("blue", lab, (b, w))
                    colored[(b, w)] = _Colored("blue", lab, (a, u))
                    moved = True
                    break
                if moved:
                    break
        if not moved:
            raise WitnessInvalidError("no blue anchor edge available")


def _cover_label(g: TripartiteGraph, lab, piece, colored) -> list[Triangle]:
    """Cover one label's triple: colored edges first, then solo colored
    vertices, then the 3/4-degree double matching on what remains."""
    slots = _label_slots(lab)
    avail = {c: set(piece[c]) for c in range(3)}
    out: list[Triangle] = []

    def take(by_class: dict) -> None:
        for c, i in by_class.items():
            avail[c].remove(i)
        out.append(_tri_by_class(by_class))

    items = []
    for c in range(3):
        for i in piece[c]:
            info = colored.get((c, i))
            if info is not None and info.label == lab:
                items.append((c, i, info))
    done = set()
    # paired colored vertices extend their edge by a third-class vertex
    for c, i, info in items:
        if (c, i) in done or info.partner is None:
            continue
        cp, ip = info.partner
        if ip not in avail[cp]:
            raise WitnessInvalidError("colored partner missing from its piece")
        cz = 3 - c - cp
        z_opts = [z for z in sorted(avail[cz])
                  if (cz, z) not in colored
                  and g.nbr_mask(c, i, cz) >> z & 1
                  and g.nbr_mask(cp, ip, cz) >> z & 1]
        if not z_opts:
            raise WitnessInvalidError("no completion for a colored edge")
        take({c: i, cp: ip, cz: z_opts[0]})
        done.add((c, i))
        done.add((cp, ip))
    # solo colored vertices need an edge among their neighbors
    for c, i, info in items:
        if (c, i) in done:
            continue
        free = [1 << i if o == c else
                mask_of(v for v in avail[o] if (o, v) not in colored)
                for o in range(3)]
        found = g.find_triangle(*free)
        if found is None:
            raise WitnessInvalidError("no completion for a green vertex")
        take(dict(enumerate(found)))
        done.add((c, i))

    sizes = {len(avail[c]) for c in range(3)}
    if len(sizes) != 1:
        raise WitnessInvalidError("label pieces went out of balance")
    s = sizes.pop()
    if s == 0:
        return out
    rem = [mask_of(avail[c]) for c in range(3)]
    need = -(-3 * s // 4)
    for c in range(3):
        for i in avail[c]:
            for cp in range(3):
                if cp == c:
                    continue
                if (g.nbr_mask(c, i, cp) & rem[cp]).bit_count() < need:
                    raise WitnessInvalidError(
                        f"piece degree below 3/4 threshold for ({c},{i})")
    sub = match_triple_cover(g, rem[0], rem[1], rem[2])
    if sub is None:
        raise WitnessInvalidError("double matching failed inside a label piece")
    out.extend(sub.triangles)
    return out

