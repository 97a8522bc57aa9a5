"""Exact oracle: fixtures, brute-force equivalence, search properties."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifactor.exact
from trifactor.errors import BudgetExceededError, InternalError
from trifactor.exact import BUDGET, COVER, NO_FACTOR, exact_factor, has_factor
from trifactor.families import (
    blow_up,
    complete_tripartite,
    gamma3,
    gen_random_min_degree,
    theta32,
    theta33,
)
from trifactor.graph import CoverVerdict, TripartiteGraph, build_graph, iter_bits, verify_cover
from trifactor.harness import _enumerate_bases

from conftest import brute_count_factors, brute_has_factor


def test_k333_count_is_36():
    g = complete_tripartite(3)
    res = exact_factor(g, count_mode=True)
    assert res.count == 36
    assert res.count == brute_count_factors(g)


def test_k222_count():
    g = complete_tripartite(2)
    res = exact_factor(g, count_mode=True)
    assert res.count == brute_count_factors(g) == 4


def test_gamma3_base_nofactor():
    assert exact_factor(gamma3(1)).status == NO_FACTOR


def test_gamma3_t2_cover_verified():
    res = exact_factor(gamma3(2))
    assert res.status == COVER
    assert verify_cover(gamma3(2), res.cover, require_perfect=True).ok


def test_theta33_cover_is_latin_transversal():
    res = exact_factor(theta33(1))
    assert res.status == COVER
    # with one vertex per column per class, the three triangles form a
    # Latin-square transversal family: each (class, column) used once
    used = {(c, t[c]) for t in res.cover.triangles for c in range(3)}
    assert len(used) == 9


def test_theta32_blowups_have_no_factor():
    for t in (1, 2, 3):
        assert not has_factor(theta32(t))


def test_k111_has_factor():
    assert has_factor(complete_tripartite(1))


def test_gamma3_parity_table():
    for t, expected in ((1, False), (2, True), (3, False), (4, True), (5, False)):
        assert has_factor(gamma3(t)) is expected, t


@pytest.mark.parametrize("seed", range(200))
def test_matches_naive_enumeration_small(seed):
    n = 2 + seed % 3  # class sizes 2..4
    frac = (seed % 5) / 5
    g = gen_random_min_degree(n, frac, seed)
    assert has_factor(g) == brute_has_factor(g)


def _reversed_graph(g: TripartiteGraph) -> TripartiteGraph:
    n = g.n
    edges = [((u.class_id, n - 1 - u.index), (v.class_id, n - 1 - v.index))
             for u, v in g.edges()]
    return build_graph(n, edges)


@pytest.mark.parametrize("seed", range(20))
def test_branch_order_invariance(seed):
    g = gen_random_min_degree(6, 0.55, seed)
    assert has_factor(g) == has_factor(_reversed_graph(g))


def test_twin_pruning_matches_plain_search():
    for t in (1, 2, 3):
        g = gamma3(t)
        fast = exact_factor(g, twin_pruning=True).status
        slow = exact_factor(g, twin_pruning=False).status
        assert fast == slow


def test_budget_exceeded_is_distinct():
    # a twin-free instance whose node search needs six nodes
    g = gen_random_min_degree(6, 0.7, 0)
    assert exact_factor(g).stats.nodes_expanded > 2
    res = exact_factor(g, budget=2)
    assert res.status == BUDGET
    assert res.cover is None
    with pytest.raises(BudgetExceededError):
        has_factor(g, budget=2)


def test_stats_populated():
    res = exact_factor(gamma3(2))
    assert res.stats.nodes_expanded > 0
    assert res.stats.max_depth <= gamma3(2).n


def test_invalid_cover_gate_raises_internal_error(monkeypatch):
    # the oracle's verify_cover gate is an explicit raise, so it also runs
    # under python -O
    monkeypatch.setattr(trifactor.exact, "verify_cover",
                        lambda *args, **kw: CoverVerdict(False, "rejected"))
    with pytest.raises(InternalError):
        exact_factor(gamma3(2))


def test_memo_key_is_injective_on_twin_group_counts():
    # theta33(2) has three twin groups of two per class; summing one unit
    # per covered vertex must give a different key for every assignment of
    # covered counts 0..2 to the nine groups
    s = trifactor.exact._Searcher(theta33(2), 1, False, True)
    units = [[s.units[c][s.groups[c].index(gid)] for gid in range(3)] for c in range(3)]
    flat = [u for per_class in units for u in per_class]
    keys = {sum(k * u for k, u in zip(counts, flat))
            for counts in itertools.product(range(3), repeat=9)}
    assert len(keys) == 3 ** 9


def reference_twin_setup(g):
    """Twin groups, sizes and memo-key units in two passes, as the oracle
    once built them: groups and sizes first, then the units from those."""
    r = g._rows
    keysets = (
        [(r[(0, 1)][i], r[(0, 2)][i]) for i in range(g.n)],
        [(r[(1, 0)][i], r[(1, 2)][i]) for i in range(g.n)],
        [(r[(2, 0)][i], r[(2, 1)][i]) for i in range(g.n)],
    )
    groups, sizes = [], []
    for keys in keysets:
        ids = {}
        gids = [ids.setdefault(k, len(ids)) for k in keys]
        count = [0] * len(ids)
        for gid in gids:
            count[gid] += 1
        groups.append(gids)
        sizes.append(count)
    units, offset = [], 0
    for gids, per_class in zip(groups, sizes):
        start = []
        for size in per_class:
            start.append(offset)
            offset += size.bit_length()
        units.append([1 << start[gid] for gid in gids])
    return groups, sizes, units


def twin_setup(g):
    s = trifactor.exact._Searcher(g, 1, False, True)
    return s.groups, s.sizes, s.units


@pytest.mark.parametrize("g", [gamma3(1), gamma3(5), theta33(2), theta32(3),
                               complete_tripartite(4), blow_up(gen_random_min_degree(4, 0.6, 2), 3),
                               gen_random_min_degree(12, 2 / 3, 5)])
def test_twin_setup_matches_reference(g):
    assert twin_setup(g) == reference_twin_setup(g)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(gen_random_min_degree, st.integers(1, 15), st.floats(0.3, 1.0),
              st.integers(0, 10**6)),
    st.builds(blow_up, st.builds(gen_random_min_degree, st.integers(1, 4),
                                 st.floats(0.3, 1.0), st.integers(0, 10**6)),
              st.integers(1, 4))))
def test_twin_setup_matches_reference_random(g):
    assert twin_setup(g) == reference_twin_setup(g)


# -- equivalence with the rescanning search ------------------------------------


class _ReferenceBudget(Exception):
    pass


class ReferenceSearcher:
    """The oracle before completion counts were kept incrementally: every
    node rescans the completions of every free class-0 vertex and, for the
    other two classes, looks for a free vertex with none.  The incremental
    search must visit the same nodes in the same order, except that it also
    fails a node whose class-0 dead end comes after a vertex with one
    completion, which this fail-first loop stops short of."""

    def __init__(self, g, budget, count_mode, twin_pruning):
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.budget = budget
        self.count_mode = count_mode
        self.twin_pruning = twin_pruning and not count_mode
        self.nodes_expanded = 0
        r = g._rows
        self.r01, self.r02, self.r12 = r[(0, 1)], r[(0, 2)], r[(1, 2)]
        self.r10, self.r20, self.r21 = r[(1, 0)], r[(2, 0)], r[(2, 1)]
        self.count = 0
        self.solution = None
        if self.twin_pruning:
            self.groups = self._twin_groups()
            self.failed = set()

    def _twin_groups(self):
        keysets = (
            [(self.r01[i], self.r02[i]) for i in range(self.n)],
            [(self.r10[i], self.r12[i]) for i in range(self.n)],
            [(self.r20[i], self.r21[i]) for i in range(self.n)],
        )
        out = []
        for keys in keysets:
            ids = {}
            out.append([ids.setdefault(k, len(ids)) for k in keys])
        return out

    def _state_key(self, cov0, cov1, cov2):
        counts = []
        for c, cov in ((0, cov0), (1, cov1), (2, cov2)):
            gids = self.groups[c]
            cnt = [0] * (max(gids) + 1)
            for i in iter_bits(cov):
                cnt[gids[i]] += 1
            counts.append(tuple(cnt))
        return tuple(counts)

    def _completions(self, v0, cov1, cov2):
        total = 0
        base2 = self.r02[v0] & ~cov2 & self.full
        if not base2:
            return 0
        for v1 in iter_bits(self.r01[v0] & ~cov1 & self.full):
            total += (base2 & self.r12[v1]).bit_count()
        return total

    def _stuck_elsewhere(self, cov0, cov1, cov2):
        free0 = ~cov0 & self.full
        free1 = ~cov1 & self.full
        free2 = ~cov2 & self.full
        for v1 in iter_bits(free1):
            row12 = self.r12[v1]
            for v0 in iter_bits(self.r10[v1] & free0):
                if self.r02[v0] & row12 & free2:
                    break
            else:
                return True
        for v2 in iter_bits(free2):
            row21 = self.r21[v2]
            for v0 in iter_bits(self.r20[v2] & free0):
                if self.r01[v0] & row21 & free1:
                    break
            else:
                return True
        return False

    def run(self):
        """Status as exact_factor reports it."""
        try:
            found = self._dfs(0, 0, 0, [])
        except _ReferenceBudget:
            return BUDGET
        if self.count_mode:
            return COVER if self.count else NO_FACTOR
        return COVER if found else NO_FACTOR

    def _dfs(self, cov0, cov1, cov2, acc):
        if cov0 == self.full:
            if self.count_mode:
                self.count += 1
                return False
            self.solution = list(acc)
            return True
        self.nodes_expanded += 1
        if self.nodes_expanded > self.budget:
            raise _ReferenceBudget
        if self.twin_pruning:
            key = self._state_key(cov0, cov1, cov2)
            if key in self.failed:
                return False
        best_v0, best_cnt = -1, None
        for v0 in iter_bits(~cov0 & self.full):
            cnt = self._completions(v0, cov1, cov2)
            if cnt == 0:
                if self.twin_pruning:
                    self.failed.add(key)
                return False
            if best_cnt is None or cnt < best_cnt:
                best_v0, best_cnt = v0, cnt
                if cnt == 1:
                    break
        if self._stuck_elsewhere(cov0, cov1, cov2):
            if self.twin_pruning:
                self.failed.add(key)
            return False
        v0 = best_v0
        seen_pairs = set() if self.twin_pruning else None
        base2 = self.r02[v0] & ~cov2 & self.full
        for v1 in iter_bits(self.r01[v0] & ~cov1 & self.full):
            opts2 = base2 & self.r12[v1]
            for v2 in iter_bits(opts2):
                if seen_pairs is not None:
                    pk = (self.groups[1][v1], self.groups[2][v2])
                    if pk in seen_pairs:
                        continue
                    seen_pairs.add(pk)
                acc.append((v0, v1, v2))
                if self._dfs(cov0 | 1 << v0, cov1 | 1 << v1, cov2 | 1 << v2, acc):
                    return True
                acc.pop()
        if self.twin_pruning:
            self.failed.add(key)
        return False


EQUIVALENCE_BUDGET = 20_000
COUNT_BUDGET = 2_000

oracle_instances = st.one_of(
    st.builds(gen_random_min_degree, st.integers(2, 21),
              st.floats(0.5, 0.9), st.integers(0, 10**6)),
    st.builds(gamma3, st.integers(1, 4)),
    st.builds(theta33, st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None)
@given(oracle_instances, st.booleans())
def test_incremental_search_matches_rescanning_reference(g, twins):
    ref = ReferenceSearcher(g, EQUIVALENCE_BUDGET, False, twins)
    ref_status = ref.run()
    # the node search alone: exact_factor may decide twin-heavy instances
    # over their twin groups first
    s = trifactor.exact._Searcher(g, EQUIVALENCE_BUDGET, False, twins)
    try:
        s._search()
        status = COVER if s.solution is not None else NO_FACTOR
    except trifactor.exact._Budget:
        status = BUDGET
    assert s.stats.nodes_expanded <= ref.nodes_expanded
    if ref_status != BUDGET:
        assert status == ref_status
        if ref_status == COVER:
            assert [tuple(t) for t in s.solution] == ref.solution
        res = exact_factor(g, budget=EQUIVALENCE_BUDGET, twin_pruning=twins)
        assert res.status == ref_status

    ref = ReferenceSearcher(g, COUNT_BUDGET, True, False)
    if ref.run() != BUDGET:
        res = exact_factor(g, count_mode=True, budget=COUNT_BUDGET)
        assert res.count == ref.count
        assert res.stats.nodes_expanded <= ref.nodes_expanded


def test_class0_dead_end_after_single_completion_fails_at_root():
    # class-0 vertex 0 has one completion, vertex 1 none (it is isolated),
    # vertex 2 two; every class-1/2 vertex has a completion.  The
    # rescanning loop stops at vertex 0's single completion and branches;
    # the incremental search sees vertex 1's zero and fails the root.
    edges = []
    for i0, i1, i2 in ((0, 0, 0), (2, 1, 1), (2, 2, 2)):
        edges += [((0, i0), (1, i1)), ((0, i0), (2, i2)), ((1, i1), (2, i2))]
    g = build_graph(3, edges)
    ref = ReferenceSearcher(g, EQUIVALENCE_BUDGET, False, True)
    assert ref.run() == NO_FACTOR and ref.nodes_expanded == 2
    res = exact_factor(g)
    assert res.status == NO_FACTOR
    assert res.stats.nodes_expanded == 1


# -- quotient step over twin groups --------------------------------------------


@pytest.fixture(scope="module")
def small_bases():
    return list(_enumerate_bases(1)) + list(_enumerate_bases(2))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_quotient_step_matches_node_search(small_bases, t):
    assert len(small_bases) == 148
    for base in small_bases:
        g = blow_up(base, t)
        fast = exact_factor(g)
        slow = exact_factor(g, twin_pruning=False)
        assert fast.status == slow.status
        for res in (fast, slow):
            if res.status == COVER:
                assert verify_cover(g, res.cover, require_perfect=True).ok


@pytest.mark.parametrize("t", [21, 51, 101])
def test_odd_gamma3_nofactor_in_t_plus_2_nodes(t):
    res = exact_factor(gamma3(t))
    assert res.status == NO_FACTOR
    assert res.stats.nodes_expanded <= t + 2


@pytest.mark.parametrize("g", [gamma3(100), theta33(101)], ids=["gamma3(100)", "theta33(101)"])
def test_quotient_step_covers_at_scale(g):
    res = exact_factor(g)
    assert res.status == COVER
    assert verify_cover(g, res.cover, require_perfect=True).ok


def test_quotient_step_theta32_nofactor_at_scale():
    assert exact_factor(theta32(50)).status == NO_FACTOR


def test_quotient_step_budget_is_never_nofactor():
    res = exact_factor(gamma3(101), budget=5)
    assert res.status == BUDGET
    assert res.stats.nodes_expanded == 6


def test_count_mode_skips_quotient_step():
    for t, count in ((1, 2), (2, 640)):
        assert exact_factor(theta33(t), count_mode=True).count == count
    assert brute_count_factors(theta33(1)) == 2


def _disjoint_union(g, h):
    edges = [((u.class_id, u.index), (v.class_id, v.index)) for u, v in g.edges()]
    edges += [((u.class_id, g.n + u.index), (v.class_id, g.n + v.index))
              for u, v in h.edges()]
    return build_graph(g.n + h.n, edges)


@pytest.mark.parametrize("g", [
    # no twin group has two members
    gen_random_min_degree(6, 0.7, 0),
    # 18 groups of two and far more than 17 quotient triangles
    blow_up(gen_random_min_degree(6, 0.7, 0), 2),
    # two gamma3 components: 16 quotient triangles on 18 groups, but each
    # component leaves one variable free
    _disjoint_union(gamma3(2), gamma3(1)),
], ids=["no twins", "triangles", "free variables"])
def test_quotient_step_declines(g):
    s = trifactor.exact._Searcher(g, 10**6, False, True)
    assert s._quotient() is False
    assert s.stats.nodes_expanded == 0
    assert exact_factor(g).status == exact_factor(g, twin_pruning=False).status
