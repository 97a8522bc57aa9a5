"""Matching: Hopcroft-Karp vs brute force."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from trifactor.matching import BipartiteView, max_matching

from conftest import brute_max_matching_size


def view_from_dict(adj, right_size):
    left = sorted(adj)
    right = [("r", j) for j in range(right_size)]
    return BipartiteView(left, right, lambda u: [("r", j) for j in adj[u]])


def test_complete_kn_n_perfect():
    adj = {i: list(range(5)) for i in range(5)}
    mr = max_matching(view_from_dict(adj, 5))
    assert mr.size == 5 and mr.left_perfect


def test_long_augmenting_path_needs_no_recursion():
    # the first phase matches i -> i + 1 and leaves the last vertex free;
    # the second phase's only augmenting path then runs through all n
    # left vertices, deeper than the default recursion limit
    n = 2000
    bv = BipartiteView(range(n), range(n),
                       lambda i: [i + 1, i] if i < n - 1 else [i])
    mr = max_matching(bv)
    assert mr.size == n and mr.left_perfect
    assert mr.pairs == tuple((i, i) for i in range(n))


def test_star_matches_one():
    adj = {i: [0] for i in range(3)}
    mr = max_matching(view_from_dict(adj, 1))
    assert mr.size == 1
    assert len(mr.unmatched_left) == 2


def test_half_degree_has_perfect_matching():
    # both sides size 6, all degrees >= 3: Konig-Hall corollary
    rng = random.Random(4)
    for _ in range(20):
        adj = {}
        for i in range(6):
            adj[i] = rng.sample(range(6), rng.randint(3, 6))
        # ensure right degrees >= 3 by symmetrizing with a random matching
        rdeg = {j: sum(j in v for v in adj.values()) for j in range(6)}
        for j in range(6):
            while rdeg[j] < 3:
                i = rng.randrange(6)
                if j not in adj[i]:
                    adj[i].append(j)
                    rdeg[j] += 1
        mr = max_matching(view_from_dict(adj, 6))
        assert mr.left_perfect


bip = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25)


@settings(max_examples=80, deadline=None)
@given(bip)
def test_max_matching_equals_bruteforce(pairs):
    adj = {i: sorted({j for (x, j) in pairs if x == i}) for i in range(6)}
    bv = view_from_dict(adj, 6)
    mr = max_matching(bv)
    assert mr.size == brute_max_matching_size(bv.left, bv.right,
                                              lambda u: bv.neighbors(u))
    # matching invariants
    assert len(mr.pairs) + len(mr.unmatched_left) == len(bv.left)
    rs = [v for _, v in mr.pairs]
    assert len(set(rs)) == len(rs)


def test_max_matching_oracle_ten_by_ten():
    # fixed sparse 10+10 instances against the exhaustive oracle
    rng = random.Random(2024)
    for _ in range(5):
        adj = {i: sorted(rng.sample(range(10), rng.randint(0, 3)))
               for i in range(10)}
        bv = view_from_dict(adj, 10)
        mr = max_matching(bv)
        assert mr.size == brute_max_matching_size(bv.left, bv.right,
                                                  lambda u: bv.neighbors(u))
