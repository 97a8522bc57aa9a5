"""Bipartite maximum matching.

max_matching is a Hopcroft-Karp augmenting-path search, iterative so that
long augmenting paths cannot exhaust the recursion limit; the covering
layers run all their matchings through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

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
