"""Cover pipeline: easy cover, greedy, augmentation, solve, reduction."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifactor.cover
from trifactor.config import Config, as_fraction
from trifactor.cover import (
    Extreme,
    Improved,
    augment_once,
    easy_cover,
    finish_extreme_witness,
    greedy_partial_cover,
    reduce_mod3,
    solve,
)
from trifactor.errors import (
    InternalError,
    PreconditionDegreeError,
    PreconditionDivisibilityError,
    PreconditionViolatedError,
)
from trifactor.exact import COVER, exact_factor
from trifactor.families import (
    approx_blow_up,
    complete_tripartite,
    gamma3,
    gen_gamma,
    gen_random_min_degree,
    gen_theta,
    theta32,
)
from trifactor.graph import (
    CoverVerdict,
    Triangle,
    TriangleCover,
    build_graph,
    iter_bits,
    verify_cover,
)


def all_cross_edges(n, skip=lambda a, b, i, j: False):
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for i in range(n):
            for j in range(n):
                if not skip(a, b, i, j):
                    out.append(((a, i), (b, j)))
    return out


def blocked_theta_pads(q, p):
    """Theta columns of size q (cross-column complete) plus p pad vertices
    per class, complete to the theta part, all other pairs void.  The only
    triangles use exactly one pad, so the maximum cover size is 3p."""
    n = 2 * q + p
    edges = []
    for a in range(3):
        for b in range(a + 1, 3):
            for i in range(q):
                for j in range(q):
                    edges.append(((a, i), (b, q + j)))
                    edges.append(((a, q + i), (b, j)))
            for i in range(p):
                for j in range(2 * q):
                    edges.append(((a, 2 * q + i), (b, j)))
                    edges.append(((a, j), (b, 2 * q + i)))
    return build_graph(n, edges)


# -- easy_cover --------------------------------------------------------------


def test_easy_cover_complete():
    g = complete_tripartite(4)
    c = easy_cover(g)
    assert c.size == 4
    assert verify_cover(g, c, require_perfect=True).ok


def test_easy_cover_k8_minus_matching():
    # remove a perfect matching between classes 1 and 2: min degree 7 >= 6
    g = build_graph(8, all_cross_edges(8, skip=lambda a, b, i, j:
                                       (a, b) == (1, 2) and i == j))
    assert g.min_cross_degree() == 7
    c = easy_cover(g)
    assert verify_cover(g, c, require_perfect=True).ok


def test_easy_cover_gate():
    # one vertex one edge short of ceil(3M/4)
    n = 8
    need = 6
    g = build_graph(n, all_cross_edges(n, skip=lambda a, b, i, j:
                                       (a, b) == (0, 1) and i == 0 and j >= need - 1))
    assert g.cross_degree((0, 0), 1) == need - 1
    with pytest.raises(PreconditionDegreeError):
        easy_cover(g)


def test_easy_cover_gate_raises_internal_error(monkeypatch):
    # a matcher that pairs i with i: on K_8 minus the 1-2 matching {i-i}
    # every triangle (i, i, i) misses its 1-2 edge, and the gate catches it
    g = build_graph(8, all_cross_edges(8, skip=lambda a, b, i, j:
                                       (a, b) == (1, 2) and i == j))
    monkeypatch.setattr(trifactor.cover, "max_matching",
                        lambda rows: list(range(len(rows))))
    with pytest.raises(InternalError, match="easy cover"):
        easy_cover(g)
    with pytest.raises(InternalError, match="easy cover"):
        solve(g)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("seed", range(5))
def test_easy_cover_random(n, seed):
    g = gen_random_min_degree(n, 0.75, seed)
    c = easy_cover(g)
    assert verify_cover(g, c, require_perfect=True).ok


# -- greedy ------------------------------------------------------------------


def test_greedy_triangle_free_empty():
    assert greedy_partial_cover(theta32(2), 0).size == 0


@pytest.mark.parametrize("n", range(2, 11))
def test_greedy_complete_perfect(n):
    g = complete_tripartite(n)
    c = greedy_partial_cover(g, seed=1)
    assert c.size == n
    assert verify_cover(g, c, require_perfect=True).ok


def test_greedy_deterministic_per_seed():
    g = gen_random_min_degree(9, 0.7, 4)
    assert greedy_partial_cover(g, 7).triangles == greedy_partial_cover(g, 7).triangles


def test_greedy_is_maximal():
    g = gen_random_min_degree(9, 0.6, 8)
    c = greedy_partial_cover(g, 3)
    masks = [c.uncovered_mask(g.n, cl) for cl in range(3)]
    assert g.find_triangle(*masks) is None


def reference_greedy(g, seed):
    """greedy_partial_cover through nbr_mask and iter_bits: the flat
    version must pick the same triangles in the same order."""
    n = g.n
    order = list(range(n))
    random.Random(f"greedy:{seed}").shuffle(order)
    full = (1 << n) - 1
    u1, u2 = full, full
    tris = []
    for v0 in order:
        row1 = g.nbr_mask(0, v0, 1) & u1
        if not row1:
            continue
        base2 = g.nbr_mask(0, v0, 2) & u2
        if not base2:
            continue
        for v1 in iter_bits(row1):
            opts = base2 & g.nbr_mask(1, v1, 2)
            if opts:
                v2 = (opts & -opts).bit_length() - 1
                tris.append(Triangle(v0, v1, v2))
                u1 &= ~(1 << v1)
                u2 &= ~(1 << v2)
                break
    return tris


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.3, 0.5, 2 / 3, 0.7, 0.9]),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_greedy_matches_reference(n, frac, gseed, seed):
    g = gen_random_min_degree(n, frac, gseed)
    assert list(greedy_partial_cover(g, seed).triangles) == reference_greedy(g, seed)


@pytest.mark.parametrize("g", [theta32(2), gamma3(3), complete_tripartite(7),
                               gen_random_min_degree(30, 2 / 3, 7)])
def test_greedy_matches_reference_fixed(g):
    for seed in range(4):
        cover = greedy_partial_cover(g, seed)
        assert list(cover.triangles) == reference_greedy(g, seed)
        assert cover.covered == TriangleCover(reference_greedy(g, seed)).covered


# -- augment_once ------------------------------------------------------------


def test_augment_direct_extension():
    g = complete_tripartite(6)
    cover = TriangleCover([Triangle(0, 0, 0), Triangle(1, 1, 1)])
    out = augment_once(g, cover, Config())
    assert isinstance(out, Improved)
    assert out.cover.size == 3
    assert out.replaced == 1


def test_augment_preconditions():
    g = complete_tripartite(4)
    cover = TriangleCover([Triangle(0, 0, 0)])
    with pytest.raises(PreconditionViolatedError):
        # only 3 uncovered per class
        augment_once(g, cover, Config())
    g = theta32(3)  # min degree t = half of the requirement
    with pytest.raises(PreconditionViolatedError):
        augment_once(g, TriangleCover([]), Config())


@pytest.mark.parametrize("eps", [0, 0.01, 0.02, 0.05, 0.08])
def test_degree_floor_matches_rational_reference(eps):
    cfg = Config(eps_prime=eps)
    for n in range(0, 40):
        floor = (Fraction(2, 3) - as_fraction(eps)) * n
        for dmin in range(0, n + 1):
            assert cfg.meets_degree_floor(dmin, n) == (dmin >= floor), (n, dmin)


def test_augment_loop_improves_until_extreme():
    """On the padded-columns graph the maximum cover leaves 6 uncovered per
    class, so augmentation must end in a certified extreme triple."""
    cfg = Config(eps_prime=0.08)
    g = blocked_theta_pads(6, 3)   # N = 15, max cover 9
    cover = greedy_partial_cover(g, 0)
    saw_extreme = False
    while cover.size < g.n - 3 and \
            min(cover.uncovered_mask(g.n, c).bit_count() for c in range(3)) >= 4:
        out = augment_once(g, cover, cfg)
        if isinstance(out, Improved):
            assert out.cover.size == cover.size + 1
            assert out.replaced <= 15
            cover = out.cover
            continue
        assert isinstance(out, Extreme)
        w = out.witness
        assert [len(s) for s in w.sets] == [5, 5, 5]
        assert all(d <= cfg.delta0_frac for d in w.densities)
        assert w.recheck(g) == w.densities
        saw_extreme = True
        break
    assert saw_extreme
    assert cover.size == 9  # the true maximum


def test_augment_improves_padded_instance_with_factor():
    """Balanced pads admit a perfect cover; every augmentation step must
    strictly improve within the 15-replacement budget (or legitimately
    certify an extreme triple, which the step's contract also allows)."""
    cfg = Config()
    g = blocked_theta_pads(4, 4)   # N = 12, perfect covers exist
    assert exact_factor(g).status == COVER
    cover = greedy_partial_cover(g, 1)
    while cover.size < g.n:
        if cover.size >= g.n - 3 or \
                min(cover.uncovered_mask(g.n, c).bit_count() for c in range(3)) < 4:
            res = exact_factor(g)
            cover = res.cover
            break
        out = augment_once(g, cover, cfg)
        if isinstance(out, Improved):
            assert out.cover.size > cover.size
            assert out.replaced <= 15
            cover = out.cover
        elif isinstance(out, Extreme):
            assert all(d <= cfg.delta0_frac for d in out.witness.densities)
            cover = exact_factor(g).cover
            break
        else:
            cover = exact_factor(g).cover
            break
    assert verify_cover(g, cover, require_perfect=True).ok


def _augment_pin_cases():
    """(graph, greedy seed, triangles cut from N) for the augment_once pin:
    truncated greedy covers on noisy blow-ups and random instances, whose
    steps are mostly direct extensions, and whole greedy covers on padded
    columns, whose steps go through pins, exchanges, the pinned phase and
    the sparse-triple witness."""
    for base in (gen_gamma(3), gen_theta(3, 3)):
        for t in range(5, 10):
            for noise in (0, 0.01, 0.02, 0.03):
                g = approx_blow_up(base, t, 0, noise, t).graph
                yield from ((g, 0, cut) for cut in (6, 9))
    for n in range(12, 25):
        g = gen_random_min_degree(n, 2 / 3, n)
        yield from ((g, 0, cut) for cut in (6, 9))
    for q, p in ((4, 4), (5, 3), (5, 4), (6, 3), (6, 4), (7, 4)):
        g = blocked_theta_pads(q, p)
        yield from ((g, seed, 0) for seed in range(3))


# sha256 of every step's kind, replaced count, triangles and witness sets,
# recorded before AugmentState was folded into augment_once's arguments
PINNED_AUGMENT = "6c29292db327752fb48c2db68c9a5390a5fdf6c22f8849540af1553708da9b6b"


def test_augment_once_outcomes_are_pinned():
    cfg = Config(eps_prime=0.08)
    rows, kinds = [], set()
    for g, seed, cut in _augment_pin_cases():
        cover = TriangleCover(greedy_partial_cover(g, seed).triangles[: g.n - cut])
        while cover.size <= g.n - 4:
            out = augment_once(g, cover, cfg)
            kinds.add(type(out).__name__)
            if isinstance(out, Improved):
                rows.append((out.replaced, [tuple(t) for t in out.cover.triangles]))
                cover = out.cover
                continue
            rows.append(out.witness.sets if isinstance(out, Extreme) else "stuck")
            break
    assert kinds == {"Improved", "Extreme", "Stuck"}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_AUGMENT


def test_finish_extreme_witness_certifies_or_rejects():
    cfg = Config()
    g = blocked_theta_pads(6, 3)
    # the three column-1 sets are pairwise void
    col1 = sum(1 << (6 + i) for i in range(6))
    w = finish_extreme_witness(g, (col1, col1, col1), cfg)
    assert w is not None
    assert all(d == 0 for d in w.densities)
    # a dense triple cannot certify
    g2 = complete_tripartite(6)
    full = (1 << 6) - 1
    assert finish_extreme_witness(g2, (full, full, full), cfg) is None


# -- solve -------------------------------------------------------------------


def test_solve_easy_path():
    out = solve(complete_tripartite(5))
    assert out.kind == "cover" and out.source == "easy"


def test_solve_gamma3_odd_is_oracle_confirmed_nofactor():
    out = solve(gamma3(3))
    assert out.kind == "nofactor"
    assert out.source == "exact-oracle"


def test_solve_never_contradicts_oracle_mini_sweep():
    cfg = Config()
    checked = 0
    for n in (6, 9, 12):
        for frac in (0.5, 2 / 3, 0.75, 0.9):
            for seed in range(4):
                g = gen_random_min_degree(n, frac, seed)
                out = solve(g, cfg.with_seed(seed))
                want = exact_factor(g).status == COVER
                assert out.has_factor_decision() == want, (n, frac, seed)
                if out.cover is not None:
                    assert verify_cover(g, out.cover, require_perfect=True).ok
                checked += 1
    assert checked == 48


def test_solve_steps_strictly_increase():
    cfg = Config()
    for seed in range(6):
        g = gen_random_min_degree(12, 2 / 3, seed)
        out = solve(g, cfg.with_seed(seed))
        for s in out.steps:
            assert s.new_size == s.old_size + 1
            assert s.replaced <= 15


def test_solve_constructive_mode_never_uses_oracle():
    g = gamma3(3)
    out = solve(g, Config(), mode="constructive")
    assert out.kind in ("extreme", "indeterminate")


def test_solve_exact_mode():
    out = solve(gamma3(2), Config(), mode="exact")
    assert out.kind == "cover" and out.source == "exact-oracle"


# -- reduce_mod3 -------------------------------------------------------------


def test_reduce_requires_nondivisible():
    with pytest.raises(PreconditionDivisibilityError):
        reduce_mod3(complete_tripartite(3))


def test_reduce_requires_degree():
    g = gen_random_min_degree(10, 0.3, 0)
    if g.min_cross_degree() >= 7:
        pytest.skip("random repair overshot the floor")
    with pytest.raises(PreconditionDegreeError):
        reduce_mod3(g)


def test_reduce_k4():
    g = complete_tripartite(4)
    red = reduce_mod3(g)
    assert len(red.removed) == 1
    assert red.graph.n == 3
    assert red.graph.min_cross_degree() >= 2
    out = solve(g)
    assert out.kind == "cover" and out.cover.size == 4


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("seed", range(5))
def test_reduce_end_to_end(n, seed):
    g = gen_random_min_degree(n, 0.7, seed)
    removed = n % 3
    red = reduce_mod3(g)
    assert len(red.removed) == removed
    assert red.graph.min_cross_degree() >= 2 * (n // 3)
    out = solve(g, Config().with_seed(seed))
    want = exact_factor(g).status == COVER
    assert out.has_factor_decision() == want
    if out.cover:
        assert verify_cover(g, out.cover, require_perfect=True).ok


def reference_reduction(g):
    """reduce_mod3's selection rule by brute force: score every triangle
    inside the kept vertices by rescanning every kept row's degree."""
    n = g.n
    keep = [(1 << n) - 1] * 3
    removed = []
    for _ in range(n % 3):
        best, best_score = None, None
        for t in g.iter_triangles():
            if not all(keep[c] >> t[c] & 1 for c in range(3)):
                continue
            masks = [keep[c] & ~(1 << t[c]) for c in range(3)]
            score = n
            for a in range(3):
                for b in range(3):
                    if a != b:
                        for i in iter_bits(masks[a]):
                            d = (g.nbr_mask(a, i, b) & masks[b]).bit_count()
                            score = min(score, d)
            if best_score is None or score > best_score:
                best, best_score = t, score
        removed.append(best)
        for c in range(3):
            keep[c] &= ~(1 << best[c])
    return removed


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20]),
       st.floats(2 / 3, 0.9), st.integers(0, 10**6))
def test_reduce_choice_matches_reference(n, frac, seed):
    g = gen_random_min_degree(n, frac, seed)
    assert reduce_mod3(g).removed == reference_reduction(g)


@st.composite
def thinned_complete(draw):
    """A complete tripartite graph with random edges deleted while both
    ends keep cross-degree >= ceil(2N/3): many distinct degree levels, so
    the scoring's level and tie-break cases all occur."""
    n = draw(st.sampled_from([4, 5, 7, 8, 10, 11, 13, 14]))
    need = -(-2 * n // 3)
    pairs = [((a, i), (b, j)) for a, b in ((0, 1), (0, 2), (1, 2))
             for i in range(n) for j in range(n)]
    order = draw(st.permutations(pairs))
    dropped = set(order[:draw(st.integers(0, len(pairs)))])
    degree = {}
    kept = []
    for (a, i), (b, j) in pairs:
        if (((a, i), (b, j)) in dropped and degree.get((a, i, b), n) > need
                and degree.get((b, j, a), n) > need):
            degree[(a, i, b)] = degree.get((a, i, b), n) - 1
            degree[(b, j, a)] = degree.get((b, j, a), n) - 1
        else:
            kept.append(((a, i), (b, j)))
    return build_graph(n, kept)


@settings(max_examples=150, deadline=None)
@given(thinned_complete())
def test_reduce_choice_matches_reference_on_thinned_complete(g):
    assert reduce_mod3(g).removed == reference_reduction(g)


@pytest.mark.parametrize("n", [1, 2])
def test_reduce_to_empty_graph(n):
    g = complete_tripartite(n)
    red = reduce_mod3(g)
    assert red.removed == reference_reduction(g) == [Triangle(i, i, i) for i in range(n)]
    assert red.graph.n == 0
    assert red.maps == [[], [], []]


def test_soundness_gate_raises_under_optimize(monkeypatch):
    # the lifted cover of a reduction passes through an explicit gate, not
    # an assert, so a rejected cover surfaces even under python -O
    g = gen_random_min_degree(17, 0.7, 0)
    assert solve(g, Config(seed=0)).source == "reduction"
    monkeypatch.setattr(trifactor.cover, "verify_cover",
                        lambda *args, **kw: CoverVerdict(False, "rejected"))
    with pytest.raises(InternalError):
        solve(g, Config(seed=0))


def test_reduction_covers_gamma3_plus_universal_vertices():
    """gamma3(3) plus one universal vertex per class (N = 10): reduce_mod3
    peels a triangle of the gamma3 part and keeps the universal vertices,
    so the reduced graph is not the odd gamma3 and has a factor, and the
    cover comes from the reduction path."""
    base = gamma3(3)
    n = base.n + 1
    edges = [((u.class_id, u.index), (v.class_id, v.index))
             for u, v in base.edges()]
    for a in range(3):
        for b in range(3):
            if a < b:
                for j in range(n):
                    edges.append(((a, base.n), (b, j)))
                    if j < base.n:
                        edges.append(((a, j), (b, base.n)))
    g = build_graph(n, edges)
    assert g.min_cross_degree() >= -(-2 * n // 3)
    assert all(base.n not in t for t in reduce_mod3(g).removed)
    out = solve(g)
    assert (out.kind, out.source) == ("cover", "reduction")
    assert verify_cover(g, out.cover, require_perfect=True).ok


def test_solve_budget_exhaustion_is_indeterminate():
    # constructive paths are skipped at this density, and the tiny budget
    # makes the oracle fallback indeterminate rather than wrong
    g = gen_random_min_degree(9, 0.5, 0)
    out = solve(g, Config(), budget=1)
    assert out.kind == "indeterminate"
    assert out.reason == "budget"


def test_solve_reports_extreme_above_oracle_range():
    # N = 18 > exact_limit: the padded-columns obstruction cannot be decided
    # exactly, so solve must surface the certified extreme witness itself
    cfg = Config(eps_prime=0.06, exact_limit=15)
    g = blocked_theta_pads(7, 4)  # N = 18, max cover 12
    out = solve(g, cfg)
    assert out.kind == "extreme"
    assert out.witness is not None
    assert all(d < cfg.delta0_frac for d in out.witness.densities)
    assert [len(s) for s in out.witness.sets] == [6, 6, 6]


def _spy_oracle(monkeypatch):
    budgets = []
    real = trifactor.cover.exact_factor

    def spy(g, budget=None, **kw):
        budgets.append((g.n, budget))
        return real(g, budget=budget, **kw)

    monkeypatch.setattr(trifactor.cover, "exact_factor", spy)
    return budgets


def test_solve_passes_budget_to_reduced_oracle(monkeypatch):
    # N = 16: greedy and augmentation leave the reduced N = 15 graph to the
    # oracle, which must get the caller's budget
    budgets = _spy_oracle(monkeypatch)
    out = solve(gen_random_min_degree(16, 2 / 3, 1), budget=10 ** 6)
    assert out.source == "reduction"
    assert budgets == [(15, 10 ** 6)]


def test_solve_passes_budget_and_mode_on_extreme_path(monkeypatch):
    # blocked_theta_pads(6, 3) reaches the extreme path; the extremal layer
    # is stubbed to report the exact odd gamma case, whose confirmation is
    # an oracle call
    import trifactor.extremal as extremal

    monkeypatch.setattr(extremal, "classify_extreme_partition", lambda *a, **kw: None)
    monkeypatch.setattr(extremal, "discriminate_gamma_vs_theta", lambda *a, **kw: "sw")
    monkeypatch.setattr(extremal, "extreme_cover",
                        lambda *a, **kw: extremal.ExtremeCoverResult("exact-gamma-odd"))
    budgets = _spy_oracle(monkeypatch)
    g = blocked_theta_pads(6, 3)
    out = solve(g, Config(eps_prime=0.08), budget=10 ** 6)
    assert (out.kind, out.structure) == ("nofactor", "sw")
    assert budgets == [(15, 10 ** 6)]
    budgets.clear()
    out = solve(g, Config(eps_prime=0.08), mode="constructive", budget=10 ** 6)
    assert (out.kind, out.reason) == ("indeterminate", "gamma3-witness")
    assert budgets == []


def test_extreme_path_passes_delta0_to_partition(monkeypatch):
    # Config.delta0 sets the A'/B' size bands, Delta_1 = 4*delta0/(1-theta)
    import trifactor.extremal as extremal

    seen = []
    real = extremal.classify_extreme_partition

    def spy(g, witness, *args, **kw):
        seen.append(args + tuple(kw.values()))
        return real(g, witness, *args, **kw)

    monkeypatch.setattr(extremal, "classify_extreme_partition", spy)
    solve(blocked_theta_pads(6, 3), Config(eps_prime=0.08, delta0=0.04))
    assert seen == [(0.8, 0.04)]


def padded_gamma3(t, k):
    """gamma3(t) shifted up by k, with k vertices per class at indices
    0..k-1 adjacent to every vertex of the other classes: reduce_mod3's
    index tie-break peels exactly those, leaving gamma3(t)."""
    base = gamma3(t)
    n = base.n + k
    edges = [((u.class_id, u.index + k), (v.class_id, v.index + k))
             for u, v in base.edges()]
    for a in range(3):
        for b in range(a + 1, 3):
            for i in range(k):
                for j in range(n):
                    edges.append(((a, i), (b, j)))
                    if j >= k:
                        edges.append(((a, j), (b, i)))
    return build_graph(n, edges)


@pytest.mark.parametrize("t", [3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_reduced_nofactor_sends_whole_graph_to_oracle(t, k, monkeypatch):
    # the reduced graph is the odd gamma3(t), which the oracle calls
    # NoFactor; the whole graph, within exact_limit + 2, goes to the oracle
    budgets = _spy_oracle(monkeypatch)
    g = padded_gamma3(t, k)
    assert g.min_cross_degree() >= -(-2 * g.n // 3)
    out = solve(g, Config(), budget=10 ** 6)
    assert (out.kind, out.source) == ("cover", "exact-fallback")
    assert verify_cover(g, out.cover, require_perfect=True).ok
    assert budgets == [(3 * t, 10 ** 6), (g.n, 10 ** 6)]


def test_reduced_odd_gamma3_above_exact_limit_stays_indeterminate(monkeypatch):
    # gamma3(7) is above the default exact_limit, so the reduced solve
    # ends stuck and neither it nor the whole graph reaches the oracle
    sizes = _spy_oracle(monkeypatch)
    g = padded_gamma3(7, 1)
    out = solve(g, Config())
    assert (out.kind, out.reason) == ("indeterminate", "n-not-divisible-by-3")
    assert all(m <= Config().exact_limit for m, _ in sizes)


# -- endgame -----------------------------------------------------------------


@pytest.mark.parametrize("n", [18, 21, 24, 27, 30])
@pytest.mark.parametrize("frac", [2 / 3, 0.7])
def test_endgame_oracle_equivalence_above_exact_limit(n, frac):
    # 15 < N <= 30: greedy and augmentation stop 1-3 triangles short on
    # most of these, and the endgame must finish every one
    finished = 0
    for seed in range(6):
        g = gen_random_min_degree(n, frac, seed)
        out = solve(g, Config(seed=seed))
        assert out.kind == "cover", (n, frac, seed, out.reason)
        assert verify_cover(g, out.cover, require_perfect=True).ok
        assert exact_factor(g).status == COVER
        if out.source == "endgame":
            finished += 1
            assert out.endgame.calls >= 1 and out.endgame.freed >= 3
        else:
            assert out.endgame is None
    assert finished >= 1


@pytest.mark.parametrize("t", [7, 9])
@pytest.mark.parametrize("limit", [15, 12])
def test_endgame_failure_on_odd_gamma3_is_never_nofactor(t, limit, monkeypatch):
    # odd gamma3(t) has no factor, but only the whole-graph oracle may say
    # so; k doubles from 3 while the sub-instance stays within exact_limit
    sizes = _spy_oracle(monkeypatch)
    cfg = Config(exact_limit=limit)
    out = solve(gamma3(t), cfg)
    assert out.kind == "indeterminate" and out.reason == "stuck"
    assert out.endgame is not None and out.endgame.calls == len(sizes) >= 1
    d = sizes[0][0] - 3          # uncovered vertices per class
    assert 1 <= d <= 3
    assert [m for m, _ in sizes] == [d + 3 * 2 ** j for j in range(len(sizes))]
    assert sizes[-1][0] <= limit < d + 6 * 2 ** (len(sizes) - 1)
    assert out.endgame.freed == sizes[-1][0] - d


def test_endgame_not_entered_in_constructive_mode(monkeypatch):
    g = gen_random_min_degree(18, 2 / 3, 1)
    assert solve(g, Config(seed=1)).source == "endgame"
    calls = _spy_oracle(monkeypatch)
    out = solve(g, Config(seed=1), mode="constructive")
    assert (out.kind, out.reason, out.endgame) == ("indeterminate", "stuck", None)
    assert calls == []


def test_endgame_not_entered_within_exact_limit():
    # at N <= exact_limit the whole-graph oracle decides, as before
    for seed in (0, 1, 2, 3, 5):
        out = solve(gen_random_min_degree(15, 2 / 3, seed), Config(seed=seed))
        assert (out.kind, out.source, out.endgame) == ("cover", "exact-fallback", None)
    g = gen_random_min_degree(18, 2 / 3, 1)
    out = solve(g, Config(seed=1, exact_limit=18))
    assert (out.kind, out.source, out.endgame) == ("cover", "exact-fallback", None)


def test_endgame_reached_through_reduction():
    g = gen_random_min_degree(19, 2 / 3, 0)
    out = solve(g, Config(seed=0))
    assert out.source == "reduction" and out.endgame is not None
    assert verify_cover(g, out.cover, require_perfect=True).ok


def _reference_keep(g, cover, k):
    """Uncovered vertices plus the k cover triangles with the most edges
    into them, ties in cover order, scored edge by edge."""
    n = g.n
    unc = [[i for i in range(n) if not cover.covered[c] >> i & 1] for c in range(3)]

    def score(t):
        return sum(g.has_edge((c, t[c]), (o, x))
                   for c in range(3) for o in range(3) if o != c for x in unc[o])

    ranked = sorted(cover.triangles, key=lambda t: -score(t))
    keep = [sum(1 << i for i in u) for u in unc]
    for t in ranked[:k]:
        for c in range(3):
            keep[c] |= 1 << t[c]
    return keep


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("drop", [1, 2, 3])
def test_endgame_frees_best_scored_triangles(seed, drop, monkeypatch):
    g = gen_random_min_degree(24, 2 / 3, seed)
    full = exact_factor(g).cover.triangles
    cover = TriangleCover(full[drop:])
    subs = []
    real = trifactor.cover.exact_factor

    def spy(sub, budget=None, **kw):
        subs.append(sub)
        return real(sub, budget=budget, **kw)

    monkeypatch.setattr(trifactor.cover, "exact_factor", spy)
    finished, record = trifactor.cover._endgame(g, cover, Config(), None)
    assert verify_cover(g, finished, require_perfect=True).ok
    assert (record.freed, record.calls) == (3, 1)
    assert subs == [g.induce(_reference_keep(g, cover, 3))[0]]


def test_endgame_lift_gate_raises_internal_error(monkeypatch):
    g = gen_random_min_degree(18, 2 / 3, 1)
    out = solve(g, Config(seed=1))
    assert out.source == "endgame" and out.steps == []
    monkeypatch.setattr(trifactor.cover, "verify_cover",
                        lambda *a, **kw: CoverVerdict(False, "missing-edge"))
    with pytest.raises(InternalError, match="endgame"):
        solve(g, Config(seed=1))


# -- outcome pin -----------------------------------------------------------------

# threshold instances (endgame and constructive covers), easy ones and
# N mod 3 != 0 ones, as (N, fraction, seed); each solved with Config(seed)
PIN_CASES = ([(n, f, s) for n in (18, 21, 24, 27, 30) for f in (2 / 3, 0.7) for s in (1, 2)]
             + [(36, 0.8, 4), (45, 0.75, 3), (60, 0.8, 1), (75, 0.9, 2)]
             + [(16, 2 / 3, 1), (17, 0.7, 2), (19, 2 / 3, 3), (20, 0.7, 4),
                (22, 2 / 3, 5), (22, 0.7, 6)])
# sha256 of the outcomes below, taken before solve's hot path was last
# refactored: a refactor that changes any kind, source, reason or cover
# triangle changes it
PINNED_OUTCOMES = "518fd59747c68eb29c6e5067a9c7ade6059a8ea73bb830e718a263c659ed76d7"


def test_solve_outcomes_are_pinned():
    rows = []
    for n, f, s in PIN_CASES:
        out = solve(gen_random_min_degree(n, f, s), Config(seed=s))
        tris = None if out.cover is None else [tuple(t) for t in out.cover.triangles]
        rows.append((out.kind, out.source, out.reason, tris))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_OUTCOMES

