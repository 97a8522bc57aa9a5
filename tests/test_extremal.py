"""Extremal structure: classification, discrimination, parity, extreme cover."""

import pytest

from trifactor.config import Config
from trifactor.cover import ExtremeWitness
from trifactor.errors import (
    InternalError,
    ModelMismatchError,
    NotTriangleFreeError,
    OddSizeError,
    SizeBandViolatedError,
    SizeOutOfRangeError,
    WitnessInvalidError,
)
from trifactor.exact import NO_FACTOR, exact_factor
from trifactor.extremal import (
    GAMMA_EXACT,
    balanced_random_split,
    classify_extreme_partition,
    classify_theta32,
    discriminate_gamma_vs_theta,
    extreme_cover,
    find_parity_triangles,
    witness_from_assignment,
)
from trifactor.families import (
    approx_blow_up,
    complete_tripartite,
    gamma3,
    gen_gamma,
    gen_theta,
    mutate_add_edge,
    theta32,
    theta33,
)
from trifactor.graph import build_graph, mask_of, verify_cover


def planted_assignment(model_gen, t):
    """Ground-truth assignment for an exact blow-up (cluster j = column j)."""
    base = model_gen()
    return {(c, j * t + r): (c, j) for c in range(3) for j in range(base.n) for r in range(t)}


def column_witness(g, t, col=0):
    """Extreme witness from one column triple of an exact blow-up."""
    idx = tuple(range(col * t, (col + 1) * t))
    sets = (idx, idx, idx)
    w = ExtremeWitness(sets, (None, None, None))
    dens = w.recheck(g)
    return ExtremeWitness(sets, dens)


# -- classify_theta32 ---------------------------------------------------------


def test_classify_theta32_exact():
    t = 5
    w = classify_theta32(theta32(t), t, eps=0.1, delta=0.05)
    assert w is not None
    assert w.model == "theta32"
    assert w.max_nonedge_density == 0
    assert w.eps == 0
    sizes = [m.bit_count() for row in w.cluster_masks() for m in row[:2]]
    assert sizes == [t] * 6


@pytest.mark.parametrize("t", range(1, 11))
def test_classify_theta32_blowups(t):
    w = classify_theta32(theta32(t), t, eps=0.1, delta=0.05)
    assert w is not None and w.max_nonedge_density == 0


def test_classify_theta32_recovers_planted_noisy():
    res = approx_blow_up(gen_theta(3, 2), 8, 0.05, 0.01, seed=0)
    w = classify_theta32(res.graph, 8, eps=0.2, delta=0.05)
    assert w is not None
    agree = _planted_agreement_theta32(w, res.assignment)
    assert agree >= 0.95


def _planted_agreement_theta32(w, planted):
    n = len(planted)
    best = 0
    for flip in (False, True):
        same = 0
        for (c, i), (_, j) in w.assignment.items():
            want = planted[(c, i)][1]
            got = 1 - j if flip else j
            if got == want:
                same += 1
        best = max(best, same / n)
    return best


def test_classify_theta32_k222_not_triangle_free():
    with pytest.raises(NotTriangleFreeError):
        classify_theta32(complete_tripartite(2), 1, eps=0.1, delta=0.05)


def test_classify_theta32_size_gate():
    with pytest.raises(SizeOutOfRangeError):
        classify_theta32(theta32(5), 2, eps=0.1, delta=0.05)


def test_witness_self_certifies():
    g = theta32(4)
    w = classify_theta32(g, 4, eps=0.1, delta=0.05)
    assert w.self_certify(g) == w.max_nonedge_density


# -- classify_extreme_partition ----------------------------------------------


def test_extreme_partition_gamma3_exact():
    t = 6
    g = gamma3(t)
    ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
    col0 = mask_of(range(t))
    assert ep.a_prime == (col0, col0, col0)
    assert ep.c_prime == (0, 0, 0)
    assert all(m.bit_count() == 2 * t for m in ep.b_prime)


def test_extreme_partition_theta33_exact():
    t = 6
    g = theta33(t)
    ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
    col0 = mask_of(range(t))
    assert ep.a_prime == (col0, col0, col0)
    assert ep.c_prime == (0, 0, 0)


def test_extreme_partition_rejects_dense_witness():
    g = complete_tripartite(6)
    idx = tuple(range(2))
    w = ExtremeWitness((idx, idx, idx), (None, None, None))
    w = ExtremeWitness(w.sets, w.recheck(g))  # densities ~ 1
    with pytest.raises(SizeBandViolatedError):
        classify_extreme_partition(g, w, theta=0.8)


# -- discriminate --------------------------------------------------------------


@pytest.mark.parametrize("t", [3, 4, 5])
def test_discriminate_exact_families(t):
    for maker, want in ((gamma3, "gamma3"), (theta33, "theta33")):
        g = maker(t)
        ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
        sw = discriminate_gamma_vs_theta(g, ep)
        assert sw is not None and sw.model == want, (t, want)
        # assignment must reproduce the planted columns up to relabeling
        assert sw.max_nonedge_density == 0


def _theta33_with_relabelled_half(t, moved):
    """theta33(t) where `moved` vertices of cluster (1, col1) take column-2
    behavior toward class 2 only; their class-0 edges keep column-1 behavior."""
    base = theta33(t)
    n = base.n
    edges = []
    movers = set(range(t, t + moved))  # inside class 1, column 1
    for u, v in base.edges():
        (ca, ia), (cb, ib) = u, v
        if ca == 1 and ia in movers and cb == 2:
            continue  # drop class-2 edges of the movers
        if cb == 1 and ib in movers and ca == 2:
            continue
        edges.append((u, v))
    # add column-2 behavior toward class 2: dense to col0 and col1 there
    for i in sorted(movers):
        for j in range(2 * t):
            edges.append(((1, i), (2, j)))
    return build_graph(n, edges)


def test_discriminate_inconclusive_on_hybrid():
    t = 6
    g = _theta33_with_relabelled_half(t, t // 2)
    ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
    assert discriminate_gamma_vs_theta(g, ep) is None


NOISY_MODELS = (("gamma3", lambda: gen_gamma(3)), ("theta33", lambda: gen_theta(3, 3)))


def _discriminate_noisy(base, t, noise, seed):
    """Blow-up with exact cluster sizes and noise on the model non-edges,
    discriminated from the column-0 witness."""
    res = approx_blow_up(base, t, 0.0, noise, seed)
    g = res.graph
    ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
    return res, discriminate_gamma_vs_theta(g, ep)


@pytest.mark.parametrize("noise", [0.01, 0.02])
@pytest.mark.parametrize("want,make_base", NOISY_MODELS, ids=["gamma3", "theta33"])
def test_discriminate_recovers_noisy_blowups(want, make_base, noise):
    t = 12
    planted = 0
    for seed in range(10):
        res, sw = _discriminate_noisy(make_base(), t, noise, seed)
        if sw is None:
            continue
        assert sw.model == want, seed
        # the nine recovered clusters are the nine planted ones, relabelled
        images = {}
        for v, cluster in sw.assignment.items():
            images.setdefault(cluster, set()).add(res.assignment[v])
        assert len(images) == 9, seed
        assert all(len(s) == 1 for s in images.values()), seed
        assert len(set.union(*images.values())) == 9, seed
        assert sw.max_nonedge_density <= 0.05
        planted += 1
    assert planted >= 9, planted


def test_discriminate_never_mislabels_noisy_blowups():
    # heavier noise may leave the verdict inconclusive, never wrong
    for t in (6, 8, 12):
        for noise in (0.0, 0.01, 0.02, 0.03, 0.04):
            for want, make_base in NOISY_MODELS:
                for seed in range(10):
                    _, sw = _discriminate_noisy(make_base(), t, noise, seed)
                    assert sw is None or sw.model == want, (t, noise, want, seed)


# -- parity triangles ------------------------------------------------------------


def test_parity_gamma3_exact():
    g = gamma3(3)
    sw = witness_from_assignment(g, "gamma3", planted_assignment(lambda: gen_gamma(3), 3))
    assert find_parity_triangles(g, sw) is GAMMA_EXACT


def test_parity_gamma3_plus_edge():
    g = gamma3(3)
    sw = witness_from_assignment(g, "gamma3", planted_assignment(lambda: gen_gamma(3), 3))
    g2 = mutate_add_edge(g, (0, 3), (1, 6))  # column 1 x column 2 edge
    tris = find_parity_triangles(g2, sw)
    assert isinstance(tris, list) and len(tris) == 3
    hit = set()
    for t in tris:
        assert g2.triangle_exists(t)
        for c, i in enumerate(t):
            hit.add((c, i // 3))
    assert len(hit) == 9  # one vertex in each cluster


def test_parity_theta33():
    g = theta33(3)
    sw = witness_from_assignment(g, "theta33", planted_assignment(lambda: gen_theta(3, 3), 3))
    tris = find_parity_triangles(g, sw)
    assert isinstance(tris, list) and len(tris) == 3
    hit = {(c, i // 3) for t in tris for c, i in enumerate(t)}
    assert len(hit) == 9


def test_parity_model_mismatch():
    g = theta32(2)
    sw = witness_from_assignment(g, "theta32", planted_assignment(lambda: gen_theta(3, 2), 2))
    with pytest.raises(ModelMismatchError):
        find_parity_triangles(g, sw)


# -- balanced random split --------------------------------------------------------


def test_split_full_adjacency_zero_deviation():
    g = complete_tripartite(4)
    res = balanced_random_split(g, [(0, i) for i in range(4)], seed=3)
    assert res.max_deviation() == 0


def test_split_zero_degree_zero_deviation():
    g = build_graph(4, [])
    res = balanced_random_split(g, [(0, i) for i in range(4)], seed=3)
    assert res.max_deviation() == 0


def test_split_odd_size_rejected():
    g = complete_tripartite(3)
    with pytest.raises(OddSizeError):
        balanced_random_split(g, [(0, 0), (0, 1), (0, 2)], seed=0)


def test_split_deterministic():
    g = gamma3(4)
    a = balanced_random_split(g, [(0, i) for i in range(4)], seed=9)
    b = balanced_random_split(g, [(0, i) for i in range(4)], seed=9)
    assert a.half_a == b.half_a


# -- extreme cover ------------------------------------------------------------------


def gamma_witness(t):
    g = gamma3(t)
    return g, witness_from_assignment(
        g, "gamma3", planted_assignment(lambda: gen_gamma(3), t))


def test_extreme_cover_gamma_even():
    for t in (2, 4):
        g, sw = gamma_witness(t)
        res = extreme_cover(g, sw, Config())
        assert res.kind == "cover"
        assert verify_cover(g, res.cover, require_perfect=True).ok


def test_extreme_cover_gamma_odd_exact():
    g, sw = gamma_witness(3)
    res = extreme_cover(g, sw, Config())
    assert res.kind == "exact-gamma-odd"
    assert exact_factor(g).status == NO_FACTOR


def test_extreme_cover_gamma_odd_plus_edge_covers():
    # one extra edge removes the obstruction; the parity triangles route
    # the procedure to a full cover
    g, sw = gamma_witness(3)
    g2 = mutate_add_edge(g, (0, 3), (1, 6))
    sw2 = witness_from_assignment(g2, "gamma3", sw.assignment)
    res = extreme_cover(g2, sw2, Config())
    assert res.kind == "cover"
    assert verify_cover(g2, res.cover, require_perfect=True).ok


def test_extreme_cover_theta33_exact_odd_and_even():
    for t in (3, 4):
        g = theta33(t)
        sw = witness_from_assignment(
            g, "theta33", planted_assignment(lambda: gen_theta(3, 3), t))
        res = extreme_cover(g, sw, Config())
        assert res.kind == "cover"
        assert verify_cover(g, res.cover, require_perfect=True).ok


@pytest.mark.parametrize("seed", range(3))
def test_extreme_cover_noisy_theta33(seed):
    res = approx_blow_up(gen_theta(3, 3), 8, 0.02, 0.01, seed=seed)
    g = res.graph
    asn = {clone: base for clone, base in res.assignment.items()}
    sw = witness_from_assignment(g, "theta33", asn)
    out = extreme_cover(g, sw, Config().with_seed(seed))
    assert out.kind == "cover"
    assert verify_cover(g, out.cover, require_perfect=True).ok


def test_extreme_cover_cluster_size_gate_raises_internal_error(monkeypatch):
    # cluster sizes 3..5 around t = 4 with rebalancing switched off: the
    # size check after it is a real check, so it also runs under python -O
    import trifactor.extremal

    res = approx_blow_up(gen_theta(3, 3), 4, 0.25, 0.0, seed=0)
    assert res.cluster_sizes[0] == [5, 4, 3]
    sw = witness_from_assignment(res.graph, "theta33", res.assignment)
    monkeypatch.setattr(trifactor.extremal, "_rebalance_cols", lambda *args: None)
    with pytest.raises(InternalError, match="rebalancing left cluster"):
        extreme_cover(res.graph, sw, Config())


def test_extreme_cover_rejects_bad_model():
    g = theta32(2)
    sw = witness_from_assignment(g, "theta32", planted_assignment(lambda: gen_theta(3, 2), 2))
    with pytest.raises(WitnessInvalidError):
        extreme_cover(g, sw, Config())
