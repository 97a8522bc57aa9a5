"""Exhaustive backtracking oracle for perfect triangle factors.

The decision problem is 3-dimensional matching restricted to a tripartite
graph, so the search assigns each class-0 vertex a (class-1, class-2)
neighbor pair via bitset intersections.

Every node holds, for every free vertex of every class, the number of free
triangles through it (its completions).  The root counts come from one
pass over the (0,1) edges and one over the (0,2) edges.  A child builds its
counts from its parent's lists instead of rescanning the graph: placing
(u0, u1, u2) only changes the counts of vertices adjacent to one of the
three, and each of those loses at most two popcounts' worth of triangles -
those through the first covered vertex it sees, then those through the
second but not the first (in the spirit of Knuth's dancing links, which
keeps Algorithm X's column sizes the same way).  Branching picks the first
free class-0 vertex with the fewest completions (fail-first); a node is
pruned as soon as any free vertex, in any class, has no completion left.

Two additional, decision-preserving reductions keep structured extremal
instances (the gamma/theta blow-up families) tractable:

* twin collapsing - vertices with identical adjacency rows are
  interchangeable, so only one representative per (twin, twin) completion
  pair is branched on;
* failure memoization keyed by per-twin-group covered counts - two states
  that agree on those counts are automorphic images of each other.  The
  key is a single int: each twin group owns a bit field of
  ``size.bit_length()`` bits that holds its covered count, so a child's key
  is its parent's plus one unit in the field of each of its triangle's
  three groups.

Both are disabled in counting mode, where every leaf must be visited.  The
twin groups, their sizes and the key units are set up together, in one
pass per class.

With twin pruning on and counting off, a quotient step runs before the
node search (the reduction is modular decomposition; McConnell & Spinrad,
SODA 1994).  Between two twin groups the edges are all present or all
absent, so a factor exists iff there are non-negative integers x_T, one per
quotient triangle T (a triangle of group representatives), with
sum_{T containing v} x_T = |v| for every group v.  The system is solved
exactly by integer Gauss-Jordan elimination: no rational solution means
NO_FACTOR; otherwise each value 0..bound of the free variable, if there is
one, is tried in turn (one node each), and the first point where every
pivot variable is a non-negative integer becomes a cover by handing out
group members.  No such point means NO_FACTOR.  The step declines, and the
node search decides, when

1. no twin group has two members (an O(1) check on the group counts);
2. there are more quotient triangles than groups - 1: every class's
   equations sum to sum_T x_T = N, so the rank is at most groups - 2 and
   at least two variables would stay free (enumeration stops there).
   The triangles of the group representatives are counted before
   anything else is built, and the group member lists are only built
   for a cover;
3. elimination leaves more than one free variable.

So the step tries at most N + 1 points, and odd gamma3(t) gets NO_FACTOR in
t + 1 nodes where the node search needs thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetExceededError, InternalError
from .graph import Triangle, TriangleCover, TripartiteGraph, verify_cover

DEFAULT_NODE_BUDGET = 10**8

COVER = "cover"
NO_FACTOR = "nofactor"
BUDGET = "budget"


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0


@dataclass
class ExactResult:
    status: str                      # COVER | NO_FACTOR | BUDGET
    cover: Optional[TriangleCover] = None
    count: Optional[int] = None
    stats: SearchStats = field(default_factory=SearchStats)


class _Budget(Exception):
    pass


def _drop(counts: list[int], verts: int, rows: list[int], via: int) -> None:
    """counts[x] -= |rows[x] & via| for every x in the bitmask verts."""
    while verts:
        low = verts & -verts
        verts ^= low
        x = low.bit_length() - 1
        counts[x] -= (rows[x] & via).bit_count()


class _Searcher:
    def __init__(self, g: TripartiteGraph, budget: int, count_mode: bool,
                 twin_pruning: bool):
        self.n = g.n
        self.budget = budget
        self.count_mode = count_mode
        self.twin_pruning = twin_pruning and not count_mode
        self.stats = SearchStats()
        r = g._rows
        self.r01, self.r02, self.r12 = r[(0, 1)], r[(0, 2)], r[(1, 2)]
        self.r10, self.r20, self.r21 = r[(1, 0)], r[(2, 0)], r[(2, 1)]
        # the count a covered class-0 vertex carries: above every real
        # count, so it never wins the branching choice.  Covered class-1/2
        # vertices keep their last count, which is at least 1.
        self.covered = g.n * g.n + 1
        self.count = 0
        self.solution: Optional[list[Triangle]] = None
        if self.twin_pruning:
            self.g = g
            self.groups, self.sizes, self.units = self._twin_setup()
            self.failed: set = set()
        else:
            self.groups = None

    def _twin_setup(self) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """Twin groups, their sizes and memo-key units, one class at a time.

        groups[c][i] = twin id of vertex i of class c (identical rows, ids
        in order of first appearance); sizes[c][gid] = number of vertices
        in group gid; units[c][i] = lowest bit of the memo-key field of i's
        group.  A group of size s gets s.bit_length() bits, enough for any
        covered count 0..s, so the key determines every group's covered
        count."""
        groups, sizes, units = [], [], []
        offset = 0
        for ra, rb in ((self.r01, self.r02), (self.r10, self.r12), (self.r20, self.r21)):
            ids: dict = {}
            gids = [ids.setdefault(k, len(ids)) for k in zip(ra, rb)]
            count = [0] * len(ids)
            for gid in gids:
                count[gid] += 1
            start = []
            for size in count:
                start.append(1 << offset)
                offset += size.bit_length()
            groups.append(gids)
            sizes.append(count)
            units.append([start[gid] for gid in gids])
        return groups, sizes, units

    def _quotient(self) -> bool:
        """The quotient step (see the module docstring); False when it
        declines.  Sets self.solution when a factor exists."""
        sizes = self.sizes
        counts = [len(per_class) for per_class in sizes]
        n_eqs = sum(counts)
        if n_eqs == 3 * self.n:
            return False
        # each group's representative is its first member
        masks = [sum(1 << gids.index(gid) for gid in range(k))
                 for gids, k in zip(self.groups, counts)]
        g0, g1, g2 = self.groups
        tris = []
        for t in self.g.iter_triangles(*masks):
            if len(tris) == n_eqs - 1:
                return False
            tris.append((g0[t.i0], g1[t.i1], g2[t.i2]))

        # Gauss-Jordan over the integers; each row is [coefficients..., rhs]
        # and keeps a positive pivot
        m = len(tris)
        eqs = [[0] * m + [size] for per_class in sizes for size in per_class]
        offsets = (0, counts[0], counts[0] + counts[1])
        for j, tri in enumerate(tris):
            for c in range(3):
                eqs[offsets[c] + tri[c]][j] = 1
        pivots = []
        for j in range(m):
            r = len(pivots)
            p = next((i for i in range(r, n_eqs) if eqs[i][j]), None)
            if p is None:
                continue
            prow = eqs[p] if eqs[p][j] > 0 else [-x for x in eqs[p]]
            eqs[p], eqs[r] = eqs[r], prow
            pv = prow[j]
            for i in range(n_eqs):
                f = eqs[i][j]
                if i != r and f:
                    row = [x * pv - y * f for x, y in zip(eqs[i], prow)]
                    d = math.gcd(*row)
                    eqs[i] = [x // d for x in row] if d > 1 else row
            pivots.append(j)
        if any(eqs[i][m] for i in range(len(pivots), n_eqs)):
            return True                  # no rational solution
        free = [j for j in range(m) if j not in pivots]
        if len(free) > 1:
            return False

        # pivot row k reads d_k x_j + a_k x_f = b_k; try each value of x_f
        bound = 0
        if free:
            f = free[0]
            bound = min(sizes[c][tris[f][c]] for c in range(3))
        terms = [(row[m], row[f] if free else 0, row[j]) for row, j in zip(eqs, pivots)]
        stats = self.stats
        for value in range(bound + 1):
            stats.nodes_expanded += 1
            if stats.nodes_expanded > self.budget:
                raise _Budget
            x = [0] * m
            if free:
                x[f] = value
            for (b, a, d), j in zip(terms, pivots):
                q, rem = divmod(b - a * value, d)
                if rem or q < 0:
                    break
                x[j] = q
            else:
                members = [[[] for _ in per_class] for per_class in sizes]
                for c in range(3):
                    for i, gid in enumerate(self.groups[c]):
                        members[c][gid].append(i)
                pools = [[iter(mem) for mem in per_class] for per_class in members]
                self.solution = [
                    Triangle(*(next(pools[c][tri[c]]) for c in range(3)))
                    for tri, k in zip(tris, x) for _ in range(k)]
                return True
        return True

    def _root_counts(self) -> tuple[list[int], list[int], list[int]]:
        """Completion counts of every vertex with all vertices free."""
        n, r12, r21 = self.n, self.r12, self.r21
        c0, c1, c2 = [0] * n, [0] * n, [0] * n
        for v0, (row01, row02) in enumerate(zip(self.r01, self.r02)):
            total = 0
            rest = row01
            while rest:
                low = rest & -rest
                rest ^= low
                v1 = low.bit_length() - 1
                k = (row02 & r12[v1]).bit_count()
                total += k
                c1[v1] += k
            c0[v0] = total
            rest = row02
            while rest:
                low = rest & -rest
                rest ^= low
                v2 = low.bit_length() - 1
                c2[v2] += (row01 & r21[v2]).bit_count()
        return c0, c1, c2

    def _child_counts(self, f0: int, f1: int, f2: int, c0: list[int],
                      c1: list[int], c2: list[int], u0: int, u1: int, u2: int):
        """Counts after placing (u0, u1, u2), from the parent's counts.

        f0, f1, f2 are the child's free masks.  A free vertex loses the
        triangles through the first covered vertex it is adjacent to (the
        other covered vertex of the third class still free in the popcount),
        then those through the second with the first excluded."""
        r01, r02, r12 = self.r01, self.r02, self.r12
        r10, r20, r21 = self.r10, self.r20, self.r21
        p1, p2 = f1 | (1 << u1), f2 | (1 << u2)
        c0, c1, c2 = c0[:], c1[:], c2[:]
        _drop(c0, r10[u1] & f0, r02, r12[u1] & p2)
        _drop(c0, r20[u2] & f0, r01, r21[u2] & f1)
        _drop(c1, r01[u0] & f1, r12, r02[u0] & p2)
        _drop(c1, r21[u2] & f1, r10, r20[u2] & f0)
        _drop(c2, r02[u0] & f2, r21, r01[u0] & p1)
        _drop(c2, r12[u1] & f2, r20, r10[u1] & f0)
        c0[u0] = self.covered
        return c0, c1, c2

    def run(self) -> None:
        if not (self.twin_pruning and self._quotient()):
            self._search()

    def _search(self) -> None:
        """The node search, from the root with every vertex free."""
        full = (1 << self.n) - 1
        self._dfs(full, full, full, *self._root_counts(), 0, [])

    def _dfs(self, f0: int, f1: int, f2: int, c0: list[int], c1: list[int],
             c2: list[int], key: int, acc: list[tuple[int, int, int]]) -> bool:
        """Search below the state whose free masks are f0, f1, f2.

        At the root, c0, c1, c2 are its completion counts and acc is empty.
        Below it they are the parent's counts, and acc[-1] is the triangle
        just placed; its changes are applied after the memo lookup.
        Returns True when a perfect factor was found (and not counting)."""
        if not f0:
            if self.count_mode:
                self.count += 1
                return False
            self.solution = [Triangle(*t) for t in acc]
            return True

        stats = self.stats
        stats.nodes_expanded += 1
        if stats.nodes_expanded > self.budget:
            raise _Budget
        depth = len(acc)
        if depth > stats.max_depth:
            stats.max_depth = depth

        twins = self.twin_pruning
        if twins and key in self.failed:
            return False
        if acc:
            c0, c1, c2 = self._child_counts(f0, f1, f2, c0, c1, c2, *acc[-1])
        if 0 in c0 or 0 in c1 or 0 in c2:
            if twins:
                self.failed.add(key)
            return False

        # fail-first: the first class-0 vertex with the fewest completions
        v0 = c0.index(min(c0))
        r12 = self.r12
        nf0 = f0 ^ (1 << v0)
        base2 = self.r02[v0] & f2
        opts1 = self.r01[v0] & f1
        if twins:
            g1, g2 = self.groups[1], self.groups[2]
            unit1, unit2 = self.units[1], self.units[2]
            key0 = key + self.units[0][v0]
            seen_pairs = set()
        while opts1:
            low1 = opts1 & -opts1
            opts1 ^= low1
            v1 = low1.bit_length() - 1
            opts2 = base2 & r12[v1]
            while opts2:
                low2 = opts2 & -opts2
                opts2 ^= low2
                v2 = low2.bit_length() - 1
                if twins:
                    pk = (g1[v1], g2[v2])
                    if pk in seen_pairs:
                        continue
                    seen_pairs.add(pk)
                    child_key = key0 + unit1[v1] + unit2[v2]
                else:
                    child_key = 0
                acc.append((v0, v1, v2))
                if self._dfs(nf0, f1 ^ low1, f2 ^ low2, c0, c1, c2, child_key, acc):
                    return True
                acc.pop()
        if twins:
            self.failed.add(key)
        return False


def exact_factor(g: TripartiteGraph, count_mode: bool = False,
                 budget: Optional[int] = None,
                 twin_pruning: bool = True) -> ExactResult:
    """Decide (or count) perfect triangle factors by exhaustive search.

    A COVER result always passes verify_cover; NO_FACTOR means the search
    space was exhausted.  Running out of the node budget is reported as the
    distinct BUDGET status, never as NO_FACTOR.
    """
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    s = _Searcher(g, budget, count_mode, twin_pruning)
    try:
        s.run()
    except _Budget:
        return ExactResult(BUDGET, stats=s.stats)
    if count_mode:
        status = COVER if s.count > 0 else NO_FACTOR
        return ExactResult(status, count=s.count, stats=s.stats)
    if s.solution is not None:
        cover = TriangleCover(s.solution)
        verdict = verify_cover(g, cover, require_perfect=True)
        if not verdict.ok:
            raise InternalError(f"oracle produced an invalid cover: {verdict.reason}")
        return ExactResult(COVER, cover=cover, stats=s.stats)
    return ExactResult(NO_FACTOR, stats=s.stats)


def has_factor(g: TripartiteGraph, budget: Optional[int] = None) -> bool:
    res = exact_factor(g, budget=budget)
    if res.status == BUDGET:
        raise BudgetExceededError(f"node budget exhausted after {res.stats.nodes_expanded}")
    return res.status == COVER
