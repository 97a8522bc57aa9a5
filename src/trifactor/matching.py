"""Bipartite maximum matching with Hall-violator certificates.

max_matching is a Hopcroft-Karp augmenting-path search, iterative so that
long augmenting paths cannot exhaust the recursion limit; the covering
layers run all their matchings through it.  When the matching is not
left-perfect, hall_violator extracts a set X with |N(X)| < |X| from
alternating reachability, which is the standard constructive counterpart of
the Konig-Hall condition.  detect_theta22 turns such a violator into the
two-halves-per-side structure that appears when a near-half-degree pair has
no perfect matching: both "parallel" half pairs must be sparse, and the
witness records those densities so it certifies itself.  It is a standalone
tool: a remainder pair of the extremal layer has balanced halves, hence a
perfect matching and no violator, so that layer recovers its halves by
majority adjacency instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .config import as_fraction
from .errors import (
    HasPerfectMatchingError,
    InternalError,
    MatchingIsPerfectError,
    PreconditionDegreeError,
)

INF = float("inf")


class BipartiteView:
    """A bipartite graph given by its two sides and a neighbor oracle."""

    def __init__(self, left: Sequence[Hashable], right: Sequence[Hashable],
                 neighbors: Callable[[Hashable], Iterable[Hashable]]):
        self.left = tuple(left)
        self.right = tuple(right)
        self._neighbors = neighbors

    def neighbors(self, u: Hashable) -> Iterable[Hashable]:
        return self._neighbors(u)


@dataclass(frozen=True)
class MatchingResult:
    pairs: tuple
    unmatched_left: tuple

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def left_perfect(self) -> bool:
        return not self.unmatched_left

    def partner_of_left(self) -> dict:
        return {u: v for u, v in self.pairs}

    def partner_of_right(self) -> dict:
        return {v: u for u, v in self.pairs}


def max_matching(bv: BipartiteView) -> MatchingResult:
    """Maximum-cardinality matching; deterministic given side orderings."""
    match_l: dict = {}
    match_r: dict = {}
    dist: dict = {}

    def bfs() -> bool:
        q = deque()
        for u in bv.left:
            if u not in match_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in bv.neighbors(u):
                w = match_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root) -> None:
        # depth-first search for an augmenting path on an explicit stack, so
        # a long layered path cannot exhaust the recursion limit: path[k] is
        # a left vertex and its neighbour iterator, via[k] the right vertex
        # that leads from path[k] to path[k + 1]
        path = [(root, iter(bv.neighbors(root)))]
        via = []
        while path:
            u, nbrs = path[-1]
            for v in nbrs:
                w = match_r.get(v)
                if w is None:
                    via.append(v)
                    for (x, _), y in zip(path, via):
                        match_l[x] = y
                        match_r[y] = x
                    return
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    path.append((w, iter(bv.neighbors(w))))
                    break
            else:
                dist[u] = INF
                path.pop()
                if via:
                    via.pop()

    while bfs():
        for u in bv.left:
            if u not in match_l:
                dfs(u)

    pairs = tuple((u, match_l[u]) for u in bv.left if u in match_l)
    unmatched = tuple(u for u in bv.left if u not in match_l)
    return MatchingResult(pairs, unmatched)


def hall_violator(bv: BipartiteView, m: MatchingResult) -> tuple:
    """A set X of left vertices with |N(X)| < |X|.

    X is the set of left vertices reachable from the unmatched ones by
    alternating paths; for a maximum non-left-perfect matching this always
    violates Hall's condition.
    """
    if m.left_perfect:
        raise MatchingIsPerfectError("matching saturates the left side")
    match_r = m.partner_of_right()
    match_l = m.partner_of_left()
    x = set(m.unmatched_left)
    seen_r = set()
    frontier = list(m.unmatched_left)
    while frontier:
        nxt = []
        for u in frontier:
            for v in bv.neighbors(u):
                if v in seen_r:
                    continue
                seen_r.add(v)
                w = match_r.get(v)
                # v must be matched (else the matching was not maximum)
                if w is not None and w not in x:
                    x.add(w)
                    nxt.append(w)
        frontier = nxt
    x_sorted = tuple(sorted(x))
    nx = neighborhood(bv, x_sorted)
    if len(nx) >= len(x_sorted):
        raise InternalError("maximum matching produced no deficiency")
    return x_sorted


def neighborhood(bv: BipartiteView, xs: Iterable) -> set:
    out = set()
    for u in xs:
        out.update(bv.neighbors(u))
    return out


def pair_density(bv: BipartiteView, xs: Sequence, ys: Sequence) -> Fraction:
    if not xs or not ys:
        return Fraction(0)
    yset = set(ys)
    e = sum(1 for u in xs for v in bv.neighbors(u) if v in yset)
    return Fraction(e, len(xs) * len(ys))


@dataclass(frozen=True)
class Theta22Witness:
    """Two halves per side with both parallel cross pairs sparse.

    Convention: half a of the left side is dense toward half a of the right
    side; the recorded densities are the two sparse (a,b)/(b,a) pairings.
    """

    left_a: tuple
    left_b: tuple
    right_a: tuple
    right_b: tuple
    d_ab: Fraction       # d(left_a, right_b)
    d_ba: Fraction       # d(left_b, right_a)
    eps: float
    delta: float


def detect_theta22(bv: BipartiteView, eps: float, delta: float) -> Optional[Theta22Witness]:
    """Extract the two-blocks structure behind a failed perfect matching.

    Preconditions: equal sides of size M, every degree >= (1/2 - eps) M, and
    no perfect matching.  The left halves come from the Hall violator, the
    right halves from its neighborhood padded/trimmed to within eps*M of
    M/2 (lowest-degree vertices move first).  Returns None when the halves
    do not certify both sparse densities <= delta.
    """
    m_size = len(bv.left)
    if len(bv.right) != m_size:
        raise ValueError("sides must have equal size")
    floor_deg = (as_fraction(Fraction(1, 2)) - as_fraction(eps)) * m_size
    deg_l = {u: len(list(bv.neighbors(u))) for u in bv.left}
    r_adj = {v: set() for v in bv.right}
    for u in bv.left:
        for v in bv.neighbors(u):
            r_adj[v].add(u)
    deg_r = {v: len(us) for v, us in r_adj.items()}
    for side in (deg_l, deg_r):
        for v, d in side.items():
            if d < floor_deg:
                raise PreconditionDegreeError(f"{v} has degree {d} < (1/2-eps)M")

    mr = max_matching(bv)
    if mr.size == m_size:
        raise HasPerfectMatchingError("pair has a perfect matching")

    x = hall_violator(bv, mr)
    seed_ra = neighborhood(bv, x)
    # majority refinement: a vertex whose edges concentrate inside the seed
    # block belongs to it even when alternating reachability skipped it
    # (an escape edge into the sparse pair hides it from the violator)
    la = [u for u in bv.left
          if 2 * sum(1 for v in bv.neighbors(u) if v in seed_ra) >= deg_l[u]]
    la_set = set(la)
    ra = [v for v in bv.right if 2 * len(r_adj[v] & la_set) >= deg_r[v]]

    half = Fraction(m_size, 2)
    slack = as_fraction(eps) * m_size
    lo = half - slack
    hi = half + slack

    def resize(primary: list, pool: list, deg: dict) -> list:
        """Trim/pad `primary` into [lo, hi], moving lowest-degree first."""
        primary = sorted(primary, key=lambda v: (deg[v], v))
        outside = sorted((v for v in pool if v not in set(primary)),
                         key=lambda v: (deg[v], v))
        while len(primary) > hi:
            primary.pop(0)
        while len(primary) < lo and outside:
            primary.append(outside.pop(0))
        return sorted(primary)

    la = resize(la, list(bv.left), deg_l)
    ra = resize(ra, list(bv.right), deg_r)
    if not (lo <= len(la) <= hi and lo <= len(ra) <= hi):
        return None
    lb = sorted(set(bv.left) - set(la))
    rb = sorted(set(bv.right) - set(ra))
    if not lb or not rb:
        return None

    d_ab = pair_density(bv, la, rb)
    d_ba = pair_density(bv, lb, ra)
    cap = as_fraction(delta)
    if d_ab > cap or d_ba > cap:
        return None
    return Theta22Witness(tuple(la), tuple(lb), tuple(ra), tuple(rb),
                          d_ab, d_ba, eps, delta)
