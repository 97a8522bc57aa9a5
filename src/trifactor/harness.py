"""Experiment harness: threshold sweeps and the blow-up conjecture scanner.

Outputs are deterministic for a fixed seed base: rows are sorted, wall
times are excluded from the CSV unless explicitly requested, and every
nofactor row within oracle range carries an explicit reconfirmation flag.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from .config import Config
from .cover import solve
from .errors import ParameterError
from .exact import BUDGET, COVER, NO_FACTOR, exact_factor
from .families import blow_up, gen_random_min_degree
from .graph import TripartiteGraph, build_graph

CSV_HEADER = "# trifactor sweep v1\nn,fraction,seed,outcome,cover_size,oracle_confirmed"


@dataclass
class SweepSpec:
    n_values: list
    fractions: list
    trials: int
    seed_base: int = 0
    mode: str = "auto"

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if any(not 0 <= f <= 1 for f in self.fractions):
            raise ParameterError("fractions must lie in [0,1]")


@dataclass
class SweepRecord:
    n: int
    fraction: float
    seed: int
    outcome: str
    cover_size: int
    oracle_confirmed: bool
    wall_time: float = 0.0


def run_sweep(spec: SweepSpec, cfg: Optional[Config] = None,
              include_timing: bool = False) -> tuple[list[SweepRecord], str]:
    """Solve every (n, fraction, trial) cell; returns records plus CSV text."""
    cfg = cfg or Config()
    records = []
    for n in spec.n_values:
        for frac in spec.fractions:
            for trial in range(spec.trials):
                seed = spec.seed_base + trial
                g = gen_random_min_degree(n, frac, seed)
                t0 = time.perf_counter()
                out = solve(g, cfg.with_seed(seed), mode=spec.mode)
                dt = time.perf_counter() - t0
                confirmed = False
                if out.kind == "nofactor" and n <= cfg.exact_limit:
                    confirmed = exact_factor(g).status == NO_FACTOR
                records.append(SweepRecord(
                    n, frac, seed, out.kind,
                    out.cover.size if out.cover else 0, confirmed, dt))
    records.sort(key=lambda r: (r.n, r.fraction, r.seed))
    lines = [CSV_HEADER + (",wall_time" if include_timing else "")]
    for r in records:
        row = f"{r.n},{r.fraction},{r.seed},{r.outcome},{r.cover_size},{str(r.oracle_confirmed).lower()}"
        if include_timing:
            row += f",{r.wall_time:.6f}"
        lines.append(row)
    return records, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conjecture scan: G(t) and G(t+1) coverable => G coverable
# ---------------------------------------------------------------------------


@dataclass
class ConjectureRow:
    graph_id: int
    n: int
    t: int
    base_covered: Optional[bool]
    t_covered: Optional[bool]
    t1_covered: Optional[bool]

    @property
    def hypothesis_met(self) -> bool:
        return bool(self.t_covered and self.t1_covered)

    @property
    def indeterminate(self) -> bool:
        return None in (self.base_covered, self.t_covered, self.t1_covered)

    @property
    def counterexample(self) -> bool:
        return (not self.indeterminate and self.hypothesis_met
                and not self.base_covered)


@dataclass
class ConjectureReport:
    rows: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    bases: list = field(default_factory=list)     # canonical base graphs

    @property
    def indeterminate_count(self) -> int:
        return sum(1 for r in self.rows if r.indeterminate)


def _enumerate_bases(n: int, sample: int = 0, seed: int = 0):
    """Canonical balanced tripartite base graphs with class size n.

    Exhaustive for n <= 2 (all 2^(3 n^2) edge patterns, deduped under class
    permutations and within-class relabelings); seeded sampling otherwise.
    """
    import random

    cells = [(a, b, i, j) for (a, b) in ((0, 1), (0, 2), (1, 2))
             for i in range(n) for j in range(n)]
    total = 1 << len(cells)

    def graph_from_bits(bits: int) -> TripartiteGraph:
        edges = [((a, i), (b, j)) for k, (a, b, i, j) in enumerate(cells)
                 if bits >> k & 1]
        return build_graph(n, edges)

    perms_v = list(itertools.permutations(range(n)))
    perms_c = list(itertools.permutations(range(3)))

    def canon(g: TripartiteGraph):
        best = None
        edges = g.edges()
        for pc in perms_c:
            for pv in itertools.product(perms_v, repeat=3):
                key = []
                for u, v in edges:
                    a = (pc[u.class_id], pv[u.class_id][u.index])
                    b = (pc[v.class_id], pv[v.class_id][v.index])
                    key.append(tuple(sorted((a, b))))
                key = tuple(sorted(key))
                if best is None or key < best:
                    best = key
        return best

    seen = set()
    if sample and total > sample:
        rng = random.Random(f"conjecture:{seed}")
        candidates = (rng.randrange(total) for _ in range(sample))
    else:
        candidates = range(total)
    for bits in candidates:
        g = graph_from_bits(bits)
        key = canon(g)
        if key in seen:
            continue
        seen.add(key)
        yield g


def check_conjecture(max_base_n: int, t_values: list, budget: Optional[int] = None,
                     sample_for_3: int = 200, seed: int = 0) -> ConjectureReport:
    """Scan small base graphs for a violation of: G(t) and G(t+1) coverable
    implies G coverable.  Budget-exceeded cells are marked indeterminate and
    never counted as evidence either way."""
    report = ConjectureReport()
    gid = 0
    for n in range(1, max_base_n + 1):
        sample = 0 if n <= 2 else sample_for_3
        for base in _enumerate_bases(n, sample=sample, seed=seed):
            gid += 1
            report.bases.append(base)
            decisions = {}

            def decide(graph) -> Optional[bool]:
                res = exact_factor(graph, budget=budget)
                if res.status == BUDGET:
                    return None
                return res.status == COVER

            for t in t_values:
                for scale in (1, t, t + 1):
                    if scale not in decisions:
                        decisions[scale] = decide(blow_up(base, scale))
                row = ConjectureRow(gid, n, t, decisions[1], decisions[t],
                                    decisions[t + 1])
                report.rows.append(row)
                if row.counterexample:
                    # carry the three witness graphs so callers can re-verify
                    # (and write them out) independently of this run
                    from .io import serialize_graph
                    texts = {
                        "base": serialize_graph(base),
                        f"t{t}": serialize_graph(blow_up(base, t)),
                        f"t{t + 1}": serialize_graph(blow_up(base, t + 1)),
                    }
                    report.counterexamples.append((base, row, texts))
    return report


def render_conjecture_report(report: ConjectureReport) -> str:
    lines = ["graph_id,n,t,base,blowup_t,blowup_t1,hypothesis,counterexample"]
    for r in report.rows:
        def b(x):
            return "indet" if x is None else str(x).lower()
        lines.append(f"{r.graph_id},{r.n},{r.t},{b(r.base_covered)},"
                     f"{b(r.t_covered)},{b(r.t1_covered)},"
                     f"{str(r.hypothesis_met).lower()},{str(r.counterexample).lower()}")
    lines.append(f"# counterexamples: {len(report.counterexamples)}")
    lines.append(f"# indeterminate rows: {report.indeterminate_count}")
    return "\n".join(lines) + "\n"
