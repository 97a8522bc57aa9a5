"""Matching: the bitmask matcher vs brute force, and the double matching."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifactor.cover import match_triple_cover
from trifactor.exact import COVER, exact_factor
from trifactor.families import gen_random_min_degree
from trifactor.graph import iter_bits, mask_of, verify_cover
from trifactor.matching import max_matching

from conftest import brute_max_matching_size


def rows_from_dict(adj):
    return [mask_of(adj[i]) for i in sorted(adj)]


def matching_size(rows, mate):
    """Size of mate after checking that it is a matching inside rows."""
    used = [j for j in mate if j >= 0]
    assert len(used) == len(set(used))
    assert all(j < 0 or rows[i] >> j & 1 for i, j in enumerate(mate))
    return len(used)


def brute_size(rows):
    return brute_max_matching_size(range(len(rows)), (),
                                   lambda i: list(iter_bits(rows[i])))


def test_complete_kn_n_perfect():
    rows = rows_from_dict({i: range(5) for i in range(5)})
    mate = max_matching(rows)
    assert matching_size(rows, mate) == 5 and -1 not in mate


def test_long_augmenting_path_needs_no_recursion():
    # left i sees right i + 1 and i; n is far above the recursion limit
    n = 2000
    rows = [mask_of([i + 1, i]) if i < n - 1 else 1 << i for i in range(n)]
    assert max_matching(rows) == list(range(n))


def test_augmenting_path_through_every_vertex():
    # the greedy seed matches i -> i for i < n - 1, so the last left vertex
    # augments along a path through all n left vertices
    n = 2000
    rows = [mask_of([i, i + 1]) for i in range(n - 1)] + [1]
    assert max_matching(rows) == list(range(1, n)) + [0]


def test_star_matches_one():
    rows = [1, 1, 1]
    mate = max_matching(rows)
    assert matching_size(rows, mate) == 1
    assert mate.count(-1) == 2


def test_empty_and_isolated_rows():
    assert max_matching([]) == []
    assert max_matching([0, 0b10, 0]) == [-1, 1, -1]


def test_half_degree_has_perfect_matching():
    # both sides size 6, all degrees >= 3: Konig-Hall corollary
    rng = random.Random(4)
    for _ in range(20):
        adj = {}
        for i in range(6):
            adj[i] = rng.sample(range(6), rng.randint(3, 6))
        # ensure right degrees >= 3 by adding edges at random
        rdeg = {j: sum(j in v for v in adj.values()) for j in range(6)}
        for j in range(6):
            while rdeg[j] < 3:
                i = rng.randrange(6)
                if j not in adj[i]:
                    adj[i].append(j)
                    rdeg[j] += 1
        assert -1 not in max_matching(rows_from_dict(adj))


bip = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25)


@settings(max_examples=80, deadline=None)
@given(bip)
def test_max_matching_equals_bruteforce(pairs):
    rows = rows_from_dict({i: {j for (x, j) in pairs if x == i} for i in range(6)})
    mate = max_matching(rows)
    assert len(mate) == 6
    assert matching_size(rows, mate) == brute_size(rows)


def test_max_matching_oracle_ten_by_ten():
    # fixed sparse 10+10 instances against the exhaustive oracle
    rng = random.Random(2024)
    for _ in range(5):
        rows = rows_from_dict({i: rng.sample(range(10), rng.randint(0, 3))
                               for i in range(10)})
        assert matching_size(rows, max_matching(rows)) == brute_size(rows)


@pytest.mark.parametrize("seed", range(12))
def test_match_triple_cover_on_scattered_masks(seed):
    # extreme_cover calls it on label pieces: three scattered index masks.
    # It returns a verified cover of the piece exactly when both of its
    # matchings are perfect, and never when the piece has no factor.
    rng = random.Random(seed)
    n = rng.choice((6, 7, 8))
    g = gen_random_min_degree(n, rng.choice((0.5, 0.6, 0.75, 0.9)), seed)
    s = rng.randint(1, 4)
    masks = [mask_of(rng.sample(range(n), s)) for _ in range(3)]
    l1 = list(iter_bits(masks[1]))
    rows12 = [g.nbr_mask(1, i, 2) & masks[2] for i in l1]
    mate12 = max_matching(rows12)
    perfect = brute_size(rows12) == s
    if perfect:
        rows0 = [g.nbr_mask(1, i, 0) & g.nbr_mask(2, j, 0) & masks[0]
                 for i, j in zip(l1, mate12)]
        perfect = brute_size(rows0) == s

    cover = match_triple_cover(g, *masks)
    assert (cover is not None) == perfect
    if cover is None:
        return
    assert exact_factor(g.induce(masks)[0]).status == COVER
    assert tuple(cover.covered) == tuple(masks)
    assert verify_cover(g, cover).ok
    assert [t.i0 for t in cover.triangles] == list(iter_bits(masks[0]))


def test_match_triple_cover_rejects_unequal_masks():
    g = gen_random_min_degree(6, 0.9, 0)
    with pytest.raises(ValueError):
        match_triple_cover(g, 0b11, 0b1, 0b1)
