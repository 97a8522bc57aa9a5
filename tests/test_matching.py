"""Matching: Hopcroft-Karp vs brute force, Hall violators, theta22 detection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifactor.errors import (
    HasPerfectMatchingError,
    InternalError,
    MatchingIsPerfectError,
    PreconditionDegreeError,
)
from trifactor.matching import (
    BipartiteView,
    MatchingResult,
    detect_theta22,
    hall_violator,
    max_matching,
    neighborhood,
    pair_density,
)

from conftest import brute_max_deficiency, brute_max_matching_size


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


@settings(max_examples=80, deadline=None)
@given(bip)
def test_hall_violator_and_konig_duality(pairs):
    adj = {i: sorted({j for (x, j) in pairs if x == i}) for i in range(6)}
    bv = view_from_dict(adj, 6)
    mr = max_matching(bv)
    if mr.left_perfect:
        with pytest.raises(MatchingIsPerfectError):
            hall_violator(bv, mr)
        return
    x = hall_violator(bv, mr)
    nx = neighborhood(bv, x)
    assert len(nx) < len(x)
    # Konig-Egervary: max matching = |L| - max deficiency
    deficiency = brute_max_deficiency(bv.left, lambda u: bv.neighbors(u))
    assert mr.size == len(bv.left) - deficiency
    # the returned violator achieves the maximum deficiency
    assert len(x) - len(nx) == deficiency


def test_hall_violator_two_left_one_right():
    adj = {0: [0], 1: [0]}
    bv = view_from_dict(adj, 1)
    mr = max_matching(bv)
    x = hall_violator(bv, mr)
    assert set(x) == {0, 1}
    assert len(neighborhood(bv, x)) == 1


def test_hall_violator_gate_rejects_non_maximum_matching():
    # from the empty matching of K_{2,2} the alternating search ends at a
    # set with no deficiency; the gate raises InternalError, not an assert
    bv = view_from_dict({0: [0, 1], 1: [0, 1]}, 2)
    with pytest.raises(InternalError, match="no deficiency"):
        hall_violator(bv, MatchingResult((), (0, 1)))


def test_hall_violator_isolated_vertex():
    adj = {0: [], 1: [0, 1]}
    bv = view_from_dict(adj, 2)
    mr = max_matching(bv)
    x = hall_violator(bv, mr)
    assert 0 in x


def blocks_graph(sa, sb, noise_pairs=()):
    """Two parallel complete blocks L1xR1 (|L1|=sa, |R1|=sb), complement
    sizes swapped, plus optional extra noise edges."""
    m = sa + sb
    adj = {i: [] for i in range(m)}
    for i in range(sa):
        adj[i] = list(range(sb))                 # L1 -> R1
    for i in range(sa, m):
        adj[i] = list(range(sb, m))              # L2 -> R2
    for u, v in noise_pairs:
        if v not in adj[u]:
            adj[u].append(v)
    return view_from_dict(adj, m)


def test_detect_theta22_exact_blocks():
    # |L1| = 4 complete to |R1| = 3: no perfect matching, both sparse pairs void
    bv = blocks_graph(4, 3)
    w = detect_theta22(bv, eps=0.25, delta=0.05)
    assert w is not None
    assert w.d_ab == 0 and w.d_ba == 0
    halves = (set(w.left_a), set(w.left_b))
    assert {frozenset(h) for h in halves} == {
        frozenset(range(4)), frozenset(range(4, 7))}


def test_detect_theta22_perturbed():
    # deficiency 2 blocks: |L1| = 5 complete to |R1| = 3, so one noise edge
    # into the sparse L1 x R2 pair cannot restore a perfect matching
    rng = random.Random(9)
    delta = 0.1
    noise = [(rng.randrange(5), 3 + rng.randrange(5))]
    bv = blocks_graph(5, 3, noise)
    mr = max_matching(bv)
    assert not mr.left_perfect
    w = detect_theta22(bv, eps=0.3, delta=2 * delta)
    assert w is not None
    assert max(w.d_ab, w.d_ba) <= 2 * delta


def test_detect_theta22_complete_raises():
    adj = {i: list(range(4)) for i in range(4)}
    with pytest.raises(HasPerfectMatchingError):
        detect_theta22(view_from_dict(adj, 4), 0.25, 0.05)


def test_detect_theta22_degree_precondition():
    adj = {0: [0], 1: [0], 2: [0], 3: [0]}
    with pytest.raises(PreconditionDegreeError):
        detect_theta22(view_from_dict(adj, 4), 0.1, 0.05)


def test_detect_theta22_self_certifies():
    # a dense sparse-pair must yield None: flood L1 x R2 of a deficiency-2
    # instance with edges toward a single right vertex so the deficiency
    # persists but the recorded density would exceed delta
    bv = blocks_graph(5, 3, noise_pairs=[(i, 3) for i in range(5)])
    mr = max_matching(bv)
    assert not mr.left_perfect
    w = detect_theta22(bv, eps=0.3, delta=0.05)
    assert w is None or max(w.d_ab, w.d_ba) <= 0.05


def test_pair_density():
    bv = blocks_graph(2, 2)
    assert pair_density(bv, [0, 1], [("r", 0), ("r", 1)]) == 1
    assert pair_density(bv, [0, 1], [("r", 2), ("r", 3)]) == 0


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
