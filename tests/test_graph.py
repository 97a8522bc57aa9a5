"""Graph core: construction, queries, cover verification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifactor.errors import (
    EmptySetError,
    IndexOutOfRangeError,
    SameClassError,
    SameClassQueryError,
    WithinClassEdgeError,
)
from trifactor.families import complete_tripartite, gamma3, theta32
from trifactor.graph import (
    Triangle,
    TriangleCover,
    build_graph,
    iter_bits,
    verify_cover,
)


def all_cross_pairs(n):
    return [((a, i), (b, j)) for a, b in ((0, 1), (0, 2), (1, 2))
            for i in range(n) for j in range(n)]


def test_build_empty():
    g = build_graph(2, [])
    assert g.min_cross_degree() == 0
    assert g.edges() == []


def test_build_k111():
    g = build_graph(1, all_cross_pairs(1))
    assert g.find_triangle() == Triangle(0, 0, 0)


def test_build_k222():
    g = build_graph(2, all_cross_pairs(2))
    assert len(g.edges()) == 12
    for c in range(3):
        for i in range(2):
            for other in range(3):
                if other != c:
                    assert g.cross_degree((c, i), other) == 2


def test_build_duplicates_collapse():
    e = ((0, 0), (1, 1))
    g = build_graph(2, [e, e, (e[1], e[0])])
    assert len(g.edges()) == 1


def test_build_rejects_within_class_edge():
    with pytest.raises(WithinClassEdgeError):
        build_graph(2, [((0, 0), (0, 1))])


def test_build_rejects_bad_index():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(2, [((0, 0), (1, 5))])


def test_cross_degree_same_class_query():
    g = complete_tripartite(2)
    with pytest.raises(SameClassQueryError):
        g.cross_degree((1, 0), 1)


def test_cross_degree_gamma3():
    # every vertex of the base gamma family sees exactly 2 per other class
    g = gamma3(1)
    for c in range(3):
        for i in range(3):
            for other in range(3):
                if other != c:
                    assert g.cross_degree((c, i), other) == 2


def test_density_complete_and_empty():
    g = complete_tripartite(3)
    a = [(0, i) for i in range(3)]
    b = [(1, i) for i in range(3)]
    assert g.density(a, b) == 1
    g0 = build_graph(3, [])
    assert g0.density(a, b) == 0


def test_density_theta32_rows():
    # one column per class is matched against the other column of another
    # class: 2x2 cells, both cross pairs present -> wait, same-column pairs
    # are void; cross-column pairs are complete.  Pick one of each.
    g = theta32(1)  # columns of size 1: class c = {col0, col1} = indices {0, 1}
    a = [(0, 0), (0, 1)]
    b = [(1, 0), (1, 1)]
    # 2 cross edges out of 4 cells
    assert g.density(a, b) == Fraction(1, 2)


def test_density_errors():
    g = complete_tripartite(2)
    with pytest.raises(EmptySetError):
        g.density([], [(1, 0)])
    with pytest.raises(SameClassError):
        g.density([(0, 0)], [(0, 1)])
    with pytest.raises(SameClassError):
        g.density([(0, 0), (1, 0)], [(2, 0)])


def test_density_is_exact_rational():
    g = gamma3(1)
    d = g.density([(0, 0), (0, 1), (0, 2)], [(1, 0), (1, 1), (1, 2)])
    assert d == Fraction(6, 9)


def test_verify_cover_accepts_k111():
    g = build_graph(1, all_cross_pairs(1))
    c = TriangleCover([Triangle(0, 0, 0)])
    assert verify_cover(g, c, require_perfect=True).ok


def test_verify_cover_rejects_duplicate():
    g = complete_tripartite(2)
    with pytest.raises(ValueError):
        TriangleCover([Triangle(0, 0, 0), Triangle(0, 1, 1)])
    # a cover that dodges the constructor check still fails verification
    bad = TriangleCover.__new__(TriangleCover)
    bad.triangles = (Triangle(0, 0, 0), Triangle(0, 1, 1))
    bad.covered = (0, 0, 0)
    verdict = verify_cover(g, bad)
    assert not verdict.ok and verdict.reason == "not-disjoint"


def test_verify_cover_rejects_missing_edge():
    g = build_graph(2, [((0, 0), (1, 0))])
    bad = TriangleCover([Triangle(0, 0, 0)])
    verdict = verify_cover(g, bad)
    assert not verdict.ok and verdict.reason == "missing-edge"
    assert verdict.offender == Triangle(0, 0, 0)


def test_verify_cover_gamma3_not_spanning():
    # columns 1 and 2 of the base gamma graph each induce a triangle, but
    # the column-0 vertices stay uncovered
    g = gamma3(1)
    c = TriangleCover([Triangle(1, 1, 1), Triangle(2, 2, 2)])
    assert verify_cover(g, c).ok
    verdict = verify_cover(g, c, require_perfect=True)
    assert not verdict.ok and verdict.reason == "not-spanning"


def raw_cover(tris):
    """A cover that dodges TriangleCover's disjointness and index checks."""
    c = TriangleCover.__new__(TriangleCover)
    c.triangles = tuple(Triangle(*t) for t in tris)
    c.covered = (0, 0, 0)
    return c


def test_verify_cover_rejects_index_out_of_range():
    g = complete_tripartite(2)
    for t in ((0, 0, 2), (0, -1, 0), (5, 0, 0)):
        verdict = verify_cover(g, raw_cover([(1, 1, 1), t]))
        assert (verdict.ok, verdict.reason, verdict.offender) == \
            (False, "index-out-of-range", t)


# each triangle breaks two rules; the first in per-vertex class order wins
@pytest.mark.parametrize("tris, reason, offender", [
    # class 0 repeats before class 1 leaves the range
    ([(0, 0, 0), (0, 5, 1)], "not-disjoint", (0, 5, 1)),
    # class 0 leaves the range before class 1 repeats
    ([(0, 0, 0), (5, 0, 1)], "index-out-of-range", (5, 0, 1)),
    # class 1 repeats before class 2 leaves the range
    ([(0, 0, 0), (1, 0, 7)], "not-disjoint", (1, 0, 7)),
    # class 2 repeats, and the triangle also misses its 1-2 edge
    ([(0, 0, 0), (1, 1, 0)], "not-disjoint", (1, 1, 0)),
    # out of range, where no edge could be looked up
    ([(0, 0, 7)], "index-out-of-range", (0, 0, 7)),
    # the first bad triangle is reported, not the worst
    ([(0, 1, 1), (0, 0, 0)], "missing-edge", (0, 1, 1)),
])
def test_verify_cover_first_violation(tris, reason, offender):
    # all edges except 1-2 between (1, 1) and (2, 0) or (2, 1)
    g = build_graph(2, [e for e in all_cross_pairs(2)
                        if e[0] != (1, 1) or e[1][0] != 2])
    verdict = verify_cover(g, raw_cover(tris), require_perfect=True)
    assert (verdict.ok, verdict.reason, verdict.offender) == (False, reason, offender)


def reference_verify(g, tris, require_perfect):
    """verify_cover's rules, one vertex and one edge query at a time."""
    seen = [set(), set(), set()]
    for t in tris:
        for c, i in enumerate(t):
            if not 0 <= i < g.n:
                return "index-out-of-range", t
            if i in seen[c]:
                return "not-disjoint", t
            seen[c].add(i)
        if not (g.has_edge((0, t[0]), (1, t[1])) and g.has_edge((0, t[0]), (2, t[2]))
                and g.has_edge((1, t[1]), (2, t[2]))):
            return "missing-edge", t
    if require_perfect and len(tris) != g.n:
        return "not-spanning", None
    return None, None


@st.composite
def graph_and_raw_triangles(draw):
    n = draw(st.integers(1, 5))
    # dense graphs and mostly in-range indices, so that each of the four
    # violations is often the first one
    missing = set(draw(st.lists(st.sampled_from(all_cross_pairs(n)), max_size=n)))
    edges = [e for e in all_cross_pairs(n) if e not in missing]
    index = st.sampled_from([-1, n] + list(range(n)) * 4)
    tris = draw(st.lists(st.tuples(index, index, index), max_size=n + 1))
    return n, edges, tris, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(graph_and_raw_triangles())
def test_verify_cover_matches_reference(case):
    n, edges, tris, perfect = case
    g = build_graph(n, edges)
    verdict = verify_cover(g, raw_cover(tris), require_perfect=perfect)
    reason, offender = reference_verify(g, [Triangle(*t) for t in tris], perfect)
    assert (verdict.ok, verdict.reason, verdict.offender) == (reason is None, reason, offender)


def reference_triangle_cover(tris):
    """TriangleCover's fields, built one vertex at a time."""
    tris = tuple(Triangle(*t) for t in tris)
    masks = [0, 0, 0]
    for t in tris:
        for c, i in enumerate(t):
            bit = 1 << i
            if masks[c] & bit:
                raise ValueError(f"triangles are not vertex-disjoint at class {c} index {i}")
            masks[c] |= bit
    return tris, tuple(masks)


def cover_fields_or_error(build, tris):
    try:
        return build(tris)
    except ValueError as exc:
        return "ValueError", str(exc)


def triangle_cover_fields(tris):
    c = TriangleCover(tris)
    return c.triangles, c.covered


# overlaps in one class, in several, after or before a negative index
@pytest.mark.parametrize("tris", [
    [],
    [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
    [(0, 0, 0), (0, 1, 1)],
    [(0, 1, 2), (1, 1, 0), (2, 2, 2)],
    [(2, 0, 1), (1, 2, 1), (2, 1, 0)],
    [(0, 0, 0), (1, 1, 1), (1, 1, 1)],
    [(0, 0, 0), (0, -1, 1)],
    [(0, -1, 0), (0, 0, 0)],
    [(3, 1, 4), (1, 5, 9), (2, 6, 5), (3, 5, 8)],
])
def test_triangle_cover_matches_reference(tris):
    assert cover_fields_or_error(triangle_cover_fields, tris) == \
        cover_fields_or_error(reference_triangle_cover, tris)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6)),
                max_size=6), st.booleans())
def test_triangle_cover_matches_reference_random(raw, wrap):
    tris = [Triangle(*t) for t in raw] if wrap else raw
    assert cover_fields_or_error(triangle_cover_fields, tris) == \
        cover_fields_or_error(reference_triangle_cover, tris)


def test_triangle_cover_keeps_triangle_inputs():
    tris = [Triangle(0, 1, 2), Triangle(1, 2, 0)]
    cover = TriangleCover(tris)
    assert all(a is b for a, b in zip(cover.triangles, tris))
    assert all(type(t) is Triangle for t in TriangleCover([(0, 1, 2), [1, 2, 0]]).triangles)


edge_lists = st.lists(
    st.tuples(st.sampled_from([(0, 1), (0, 2), (1, 2)]),
              st.integers(0, 4), st.integers(0, 4)),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_roundtrip_and_degree_sums(raw):
    edges = [((a, i), (b, j)) for (a, b), i, j in raw]
    g = build_graph(5, edges)
    # edge-listing round-trips to the same set
    g2 = build_graph(5, g.edges())
    assert g2 == g
    # degree sums equal pair edge counts
    for a, b in ((0, 1), (0, 2), (1, 2)):
        total = sum(g.cross_degree((a, i), b) for i in range(5))
        assert total == g.edge_count(a, b)
        assert total == sum(g.cross_degree((b, j), a) for j in range(5))


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(0, 4), st.integers(0, 4))
def test_density_symmetry(raw, k1, k2):
    edges = [((a, i), (b, j)) for (a, b), i, j in raw]
    g = build_graph(5, edges)
    a = [(0, i) for i in range(k1 + 1)]
    b = [(2, j) for j in range(k2 + 1)]
    assert g.density(a, b) == g.density(b, a)


def reference_induce(g, keep):
    """Induced rows copied bit by bit, with the new -> old index maps."""
    maps = [list(iter_bits(keep[c])) for c in range(3)]
    rows = {}
    for a in range(3):
        for b in range(3):
            if a != b:
                rows[(a, b)] = [
                    sum((g.nbr_mask(a, i, b) >> j & 1) << k for k, j in enumerate(maps[b]))
                    for i in maps[a]]
    return rows, maps


@st.composite
def graph_and_keep(draw):
    n = draw(st.integers(1, 20))
    pairs = all_cross_pairs(n)
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n * n))
    g = build_graph(n, chosen)
    size = draw(st.integers(0, n))

    def one_mask():
        kind = draw(st.sampled_from(["subset", "run"]))
        if kind == "run":
            start = draw(st.integers(0, n - size))
            return ((1 << size) - 1) << start
        picks = draw(st.permutations(range(n)))[:size]
        return sum(1 << i for i in picks)

    return g, [one_mask() for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(graph_and_keep())
def test_induce_matches_bitwise_reference(case):
    # size 0 gives the empty mask, size n the full one, "run" a single run
    g, keep = case
    sub, maps = g.induce(keep)
    rows, ref_maps = reference_induce(g, keep)
    assert maps == ref_maps
    assert sub.n == len(maps[0])
    for key, ref_rows in rows.items():
        assert [sub.nbr_mask(key[0], i, key[1]) for i in range(sub.n)] == ref_rows


def test_induce_rejects_unequal_sizes():
    with pytest.raises(ValueError):
        complete_tripartite(3).induce([0b111, 0b11, 0b11])


@st.composite
def graph_and_masks(draw):
    n = draw(st.integers(1, 9))
    chosen = draw(st.lists(st.sampled_from(all_cross_pairs(n)), max_size=3 * n * n))
    full = (1 << n) - 1
    masks = draw(st.tuples(*[st.one_of(st.none(), st.integers(0, full))
                             for _ in range(3)]))
    return build_graph(n, chosen), masks


@settings(max_examples=200, deadline=None)
@given(graph_and_masks())
def test_iter_triangles_matches_brute_force_order(case):
    # None stands for the whole class; the order is (i0, i1, i2) ascending
    g, masks = case
    inside = [range(g.n) if m is None else list(iter_bits(m)) for m in masks]
    expected = [Triangle(i0, i1, i2)
                for i0 in inside[0] for i1 in inside[1] for i2 in inside[2]
                if g.has_edge((0, i0), (1, i1)) and g.has_edge((0, i0), (2, i2))
                and g.has_edge((1, i1), (2, i2))]
    assert list(g.iter_triangles(*masks)) == expected
    assert g.find_triangle(*masks) == (expected[0] if expected else None)
