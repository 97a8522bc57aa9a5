"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the library's bitset machinery: plain
loops over index triples, recursive matching search, exhaustive subset
scans.  They are the ground truth the fast implementations are checked
against.
"""

import itertools

import pytest

from trifactor.graph import Triangle


def brute_triangles(g):
    """All class-transversal triangles via plain nested loops."""
    out = []
    for i0 in range(g.n):
        for i1 in range(g.n):
            if not g.has_edge((0, i0), (1, i1)):
                continue
            for i2 in range(g.n):
                if g.has_edge((0, i0), (2, i2)) and g.has_edge((1, i1), (2, i2)):
                    out.append(Triangle(i0, i1, i2))
    return out


def brute_has_factor(g):
    """Perfect-factor decision by enumerating disjoint triangle sets."""
    tris = brute_triangles(g)

    def extend(chosen, used0, used1, used2):
        if len(chosen) == g.n:
            return True
        # next uncovered class-0 vertex must be covered by some triangle
        v0 = min(set(range(g.n)) - used0)
        for t in tris:
            if t.i0 == v0 and t.i1 not in used1 and t.i2 not in used2:
                if extend(chosen + [t], used0 | {t.i0}, used1 | {t.i1},
                          used2 | {t.i2}):
                    return True
        return False

    return extend([], set(), set(), set())


def brute_count_factors(g):
    """Number of perfect factors via ordered pairs of bijections."""
    count = 0
    for p1 in itertools.permutations(range(g.n)):
        for p2 in itertools.permutations(range(g.n)):
            if all(g.has_edge((0, i), (1, p1[i]))
                   and g.has_edge((0, i), (2, p2[i]))
                   and g.has_edge((1, p1[i]), (2, p2[i]))
                   for i in range(g.n)):
                count += 1
    return count


def brute_max_matching_size(left, right, adj):
    """Maximum bipartite matching by exhaustive recursion."""
    right = list(right)

    def rec(i, used):
        if i == len(left):
            return 0
        best = rec(i + 1, used)
        for v in adj(left[i]):
            if v not in used:
                best = max(best, 1 + rec(i + 1, used | {v}))
        return best

    return rec(0, frozenset())


@pytest.fixture
def cfg():
    from trifactor.config import Config
    return Config()
