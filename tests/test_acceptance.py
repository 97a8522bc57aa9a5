"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configured elsewhere.
"""

import time

from trifactor.config import Config
from trifactor.cover import easy_cover, solve
from trifactor.exact import COVER, NO_FACTOR, exact_factor
from trifactor.extremal import (
    balanced_random_split,
    classify_extreme_partition,
    classify_theta32,
    discriminate_gamma_vs_theta,
    extreme_cover,
    witness_from_assignment,
)
from trifactor.families import (
    approx_blow_up,
    gamma3,
    gen_gamma,
    gen_random_min_degree,
    gen_theta,
    mutate_add_edge,
    non_edges,
    theta32,
    theta33,
)
from trifactor.graph import verify_cover
from trifactor.harness import check_conjecture

from conftest import brute_triangles
from test_extremal import column_witness, planted_assignment


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gamma3_parity_table():
    """Exact oracle reproduces the odd/even gamma3 table within 60 s/case."""
    expected = {1: NO_FACTOR, 2: COVER, 3: NO_FACTOR, 4: COVER, 5: NO_FACTOR}
    worst = 0.0
    for t, want in expected.items():
        g = gamma3(t)
        t0 = time.perf_counter()
        res = exact_factor(g)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert dt < 60, f"gamma3({t}) took {dt:.1f}s"
        assert res.status == want, f"gamma3({t}) -> {res.status}"
        if res.status == COVER:
            assert verify_cover(g, res.cover, require_perfect=True).ok
    report(1, True, f"gamma3 parity table exact for t in 1..5 (max {worst:.2f}s)")


def test_criterion_02_edge_tightness():
    """Every single non-edge added to gamma3(3) restores a perfect factor."""
    g = gamma3(3)
    ne = non_edges(g)
    t0 = time.perf_counter()
    bad = [e for e in ne
           if exact_factor(mutate_add_edge(g, *e)).status != COVER]
    dt = time.perf_counter() - t0
    assert dt < 600, f"sweep took {dt:.1f}s"
    report(2, not bad,
           f"{len(ne) - len(bad)}/{len(ne)} non-edges restore a factor ({dt:.1f}s)")


def test_criterion_03_theta32_triangle_free():
    """Brute-force scan finds zero triangles in theta32 blow-ups, t <= 6."""
    counts = {t: len(brute_triangles(theta32(t))) for t in range(1, 7)}
    report(3, all(v == 0 for v in counts.values()),
           f"triangle counts {counts}")


def test_criterion_04_easy_cover_at_scale():
    """easy_cover succeeds on 100/100 seeds per size, under 1 s each."""
    sizes = (8, 12, 20, 40, 60)
    worst = 0.0
    for n in sizes:
        for seed in range(100):
            g = gen_random_min_degree(n, 0.75, seed)
            t0 = time.perf_counter()
            c = easy_cover(g)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert dt < 1.0, f"n={n} seed={seed} took {dt:.2f}s"
            assert verify_cover(g, c, require_perfect=True).ok, (n, seed)
    report(4, True, f"500/500 easy covers verified (worst {worst*1000:.0f} ms)")


# criterion 6 consumes the augmentation logs of criterion 5's runs
_step_log = []


def test_criterion_05_oracle_equivalence():
    """solve agrees with the exact oracle on 300 seeded desk instances."""
    cfg = Config()
    cases = 0
    disagreements = []
    _step_log.clear()
    for n in (6, 9, 12):
        for frac in (0.5, 2 / 3, 0.75, 0.9):
            for seed in range(25):
                g = gen_random_min_degree(n, frac, seed)
                out = solve(g, cfg.with_seed(seed))
                _step_log.extend(out.steps)
                want = exact_factor(g).status == COVER
                if out.has_factor_decision() != want:
                    disagreements.append((n, frac, seed, out.kind))
                elif out.cover is not None:
                    assert verify_cover(g, out.cover, require_perfect=True).ok
                cases += 1
    assert cases == 300
    report(5, not disagreements,
           f"300 instances, {len(disagreements)} disagreements")


def test_criterion_06_augmentation_contract():
    """Every improvement step replaced at most 15 triangles and grew the cover.

    Greedy initial covers on dense random instances are usually too close to
    perfect for the exchange machinery to fire inside criterion 5's solve runs,
    so the loop is additionally driven from truncated covers on the same
    instance family to give the per-step assertion substance.
    """
    from trifactor.cover import (
        Extreme, Improved, augment_once, greedy_partial_cover,
    )
    from trifactor.graph import TriangleCover

    cfg = Config()
    steps = list(_step_log)
    for seed in range(25):
        g = gen_random_min_degree(12, 2 / 3, seed)
        base = greedy_partial_cover(g, seed)
        cover = TriangleCover(base.triangles[: max(0, g.n - 6)])
        while cover.size < g.n - 3 and \
                min(cover.uncovered_mask(g.n, c).bit_count() for c in range(3)) >= 4:
            out = augment_once(g, cover, cfg)
            if isinstance(out, Improved):
                steps.append(_Step(cover.size, out.cover.size, out.replaced))
                cover = out.cover
                continue
            if isinstance(out, Extreme):
                assert all(d <= cfg.delta0_frac for d in out.witness.densities)
            break
    assert steps, "no augmentation steps were exercised"
    max_replaced = max(s.replaced for s in steps)
    monotone = all(s.new_size > s.old_size for s in steps)
    report(6, max_replaced <= 15 and monotone,
           f"{len(steps)} improvement steps, max |T\\T0| = {max_replaced}")


class _Step:
    def __init__(self, old_size, new_size, replaced):
        self.old_size = old_size
        self.new_size = new_size
        self.replaced = replaced


def test_criterion_07_structure_recovery():
    """Planted theta32 partitions recovered; gamma vs theta never mislabeled."""
    good = 0
    for seed in range(50):
        res = approx_blow_up(gen_theta(3, 2), 8, 0.05, 0.01, seed=seed)
        try:
            w = classify_theta32(res.graph, 8, eps=0.2, delta=0.05)
        except Exception:
            w = None
        if w is None:
            continue
        n_total = len(res.assignment)
        best = 0
        for flip in (False, True):
            same = sum(
                1 for (c, i), (_, j) in w.assignment.items()
                if (1 - j if flip else j) == res.assignment[(c, i)][1])
            best = max(best, same)
        if best / n_total >= 0.95:
            good += 1
    labels_ok = True
    for t in range(3, 9):
        for maker, want in ((gamma3, "gamma3"), (theta33, "theta33")):
            g = maker(t)
            ep = classify_extreme_partition(g, column_witness(g, t), theta=0.8)
            sw = discriminate_gamma_vs_theta(g, ep)
            if sw is None or sw.model != want:
                labels_ok = False
    report(7, good >= 48 and labels_ok,
           f"planted recovery {good}/50 seeds; discriminator exact for t in 3..8: {labels_ok}")


def test_criterion_08_extreme_cover():
    """Labeled-split cover on gamma blow-ups and noisy theta33 instances."""
    cfg = Config()
    ok = True
    for t in (2, 4):
        g = gamma3(t)
        sw = witness_from_assignment(
            g, "gamma3", planted_assignment(lambda: gen_gamma(3), t))
        res = extreme_cover(g, sw, cfg)
        ok &= res.kind == "cover" and verify_cover(g, res.cover, True).ok
    g3 = gamma3(3)
    sw3 = witness_from_assignment(
        g3, "gamma3", planted_assignment(lambda: gen_gamma(3), 3))
    ok &= extreme_cover(g3, sw3, cfg).kind == "exact-gamma-odd"
    noisy = 0
    for seed in range(25):
        res = approx_blow_up(gen_theta(3, 3), 8, 0.02, 0.01, seed=seed)
        sw = witness_from_assignment(res.graph, "theta33", res.assignment)
        try:
            out = extreme_cover(res.graph, sw, cfg.with_seed(seed))
        except Exception:
            continue
        if out.kind == "cover" and verify_cover(res.graph, out.cover, True).ok:
            noisy += 1
    report(8, ok and noisy == 25,
           f"gamma even covers + odd verdict: {ok}; noisy theta33 {noisy}/25")


def test_criterion_09_concentration():
    """Random half-splits of gamma3(20) columns: deviation <= 0.1 N on at
    least 99% of (seed x vertex) trials."""
    g = gamma3(20)
    bound = 0.1 * g.n
    trials = failures = 0
    for seed in range(200):
        c = seed % 3
        col = (seed // 3) % 3
        cluster = [(c, col * 20 + r) for r in range(20)]
        res = balanced_random_split(g, cluster, seed)
        for dev in res.deviations.values():
            trials += 1
            if dev > bound:
                failures += 1
    freq = 1 - failures / trials
    report(9, freq >= 0.99, f"deviation bound held on {freq:.4f} of {trials} trials")


def test_criterion_10_mod3_reduction():
    """End-to-end covers at N = 10 and N = 11, every decision oracle-agreed."""
    cfg = Config()
    covered = {10: 0, 11: 0}
    agreed = True
    for n in (10, 11):
        for seed in range(50):
            g = gen_random_min_degree(n, 0.7, seed)
            out = solve(g, cfg.with_seed(seed))
            want = exact_factor(g).status == COVER
            if out.has_factor_decision() != want:
                agreed = False
            if out.kind == "cover":
                assert verify_cover(g, out.cover, require_perfect=True).ok
                covered[n] += 1
    report(10, agreed and covered[10] == 50 and covered[11] == 50,
           f"covers {covered[10]}/50 at N=10, {covered[11]}/50 at N=11, oracle-agreed: {agreed}")


def test_criterion_11_conjecture_scan():
    """Exhaustive class-size <= 2 scan with t in {1,2}: no counterexample."""
    t0 = time.perf_counter()
    rep = check_conjecture(2, [1, 2])
    dt = time.perf_counter() - t0
    assert dt < 300, f"scan took {dt:.1f}s"
    report(11, not rep.counterexamples and rep.indeterminate_count == 0,
           f"{len(rep.rows)} rows, {len(rep.counterexamples)} counterexamples, "
           f"{rep.indeterminate_count} indeterminate ({dt:.1f}s)")
