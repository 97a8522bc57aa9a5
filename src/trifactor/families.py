"""Generators for the extremal families and benchmark instances.

Every generator returns a TripartiteGraph.  The paper states the grid
families theta_{m x n} and gamma_k for any number of classes, but only
their 3-class members are balanced tripartite graphs, so only those are
built.  Columns are 0-indexed: column 0 of gamma_k plays the special role
(descriptions that start counting at 1 call it column 1).  A blow-up
replaces base vertex j of a class by a run of consecutive clones, in base
order.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from .config import ceil_frac, floor_frac
from .errors import NotANonEdgeError, ParameterError
from .graph import CLASS_PAIRS, ORDERED_PAIRS, TripartiteGraph, VertexRef, iter_bits, mask_of


def _grid(n: int, adjacent) -> TripartiteGraph:
    """The 3-class graph on n columns: (i, j) ~ (i', j') iff i != i' and
    adjacent(j, j'), a symmetric predicate."""
    rows = [mask_of(jp for jp in range(n) if adjacent(j, jp)) for j in range(n)]
    return TripartiteGraph(n, {key: list(rows) for key in ORDERED_PAIRS})


def gen_theta(m: int, n: int) -> TripartiteGraph:
    """Grid graph on m classes of n: h_{i,j} ~ h_{i',j'} iff i != i' and j != j'.

    Only m = 3 is built.  gen_theta(3, 2) is triangle-free; it is the
    extremal obstruction that the covering machinery has to recognize.
    """
    if m != 3:
        raise ParameterError("only the 3-class member is a tripartite graph")
    if n < 1:
        raise ParameterError("need n >= 1")
    return _grid(n, lambda j, jp: j != jp)


def gen_gamma(k: int) -> TripartiteGraph:
    """The gamma_k family on k classes of k vertices; only k = 3 is built.

    h_{i,j} ~ h_{i',j'} iff i != i' and either (j != j' and one of j,j' lies
    in the first k-2 columns) or (j = j' and j is one of the last two
    columns).  The blow-ups gamma3(t) admit a perfect K_3 factor exactly
    when t is even.
    """
    if k != 3:
        raise ParameterError("only the 3-class member is a tripartite graph")
    special = {k - 2, k - 1}  # last two columns, 0-indexed
    return _grid(k, lambda j, jp: (j != jp and (j not in special or jp not in special))
                 or (j == jp and j in special))


def _clone_rows(g: TripartiteGraph, sizes: list[list[int]]
                ) -> tuple[dict[tuple[int, int], list[int]], list[list[int]]]:
    """Rows of g with base vertex (c, j) replaced by sizes[c][j] clones and
    each edge by a complete bipartite block, plus each base vertex's first
    clone index.  A clone's row is the OR of its base neighbours' blocks."""
    starts = [[0, *accumulate(row[:-1])] for row in sizes]
    blocks = [[((1 << s) - 1) << o for s, o in zip(row, offs)]
              for row, offs in zip(sizes, starts)]
    rows = {}
    for a, b in ORDERED_PAIRS:
        blocks_b = blocks[b]
        out = []
        for base_row, s in zip(g._rows[(a, b)], sizes[a]):
            acc = 0
            for k in iter_bits(base_row):
                acc |= blocks_b[k]
            out.extend([acc] * s)
        rows[(a, b)] = out
    return rows, starts


def blow_up(g: TripartiteGraph, t: int) -> TripartiteGraph:
    """Replace each vertex by t clones and each edge by a complete t x t
    bipartite graph: base vertex j becomes clones j*t .. j*t+t-1."""
    if t < 1:
        raise ParameterError("t must be >= 1")
    rows, _ = _clone_rows(g, [[t] * g.n] * 3)
    return TripartiteGraph(g.n * t, rows)


@dataclass
class ApproxBlowUp:
    """A perturbed blow-up together with its planted ground truth."""

    graph: TripartiteGraph
    assignment: dict                   # clone vertex -> base vertex
    cluster_sizes: list[list[int]]
    realized_eps: float
    nonedge_densities: dict = field(default_factory=dict)

    @property
    def max_nonedge_density(self) -> Fraction:
        if not self.nonedge_densities:
            return Fraction(0)
        return max(self.nonedge_densities.values())


def approx_blow_up(g: TripartiteGraph, t: int, eps: float, delta_density: float,
                   seed: int) -> ApproxBlowUp:
    """(eps, delta)-approximate blow-up.

    Cluster sizes are drawn uniformly from the integers in
    [(1-eps)t, (1+eps)t], then adjusted so all class totals agree (the
    result is balanced).  Model edges become complete bipartite blocks;
    model non-edges get independent noise edges with probability
    delta_density, one draw per clone pair, class pairs in CLASS_PAIRS
    order and base vertices and clones ascending.  Realized per-pair
    densities are reported alongside so tests can assert against what
    actually happened, not the target.
    """
    if t < 1:
        raise ParameterError("t must be >= 1")
    if not (0 <= eps < 1 and 0 <= delta_density <= 1):
        raise ParameterError("bad noise parameters")
    rng = random.Random(f"approx-blow-up:{seed}")
    lo = max(1, ceil_frac(Fraction(str(1 - eps)) * t))
    hi = max(lo, floor_frac(Fraction(str(1 + eps)) * t))
    n = g.n
    sizes = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(3)]

    # equalize class totals on their median, clamped to what the sizes allow
    target = sorted(sum(row) for row in sizes)[1]
    target = min(max(target, n * lo), n * hi)
    for row in sizes:
        while sum(row) > target:
            j = rng.randrange(n)
            if row[j] > lo:
                row[j] -= 1
        while sum(row) < target:
            j = rng.randrange(n)
            if row[j] < hi:
                row[j] += 1

    rows, starts = _clone_rows(g, sizes)
    assignment = {(c, starts[c][j] + r): (c, j)
                  for c in range(3) for j in range(n) for r in range(sizes[c][j])}

    # noise on model non-edges
    draw = rng.random
    densities = {}
    for a, b in CLASS_PAIRS:
        base_ab, rows_ab, rows_ba = g._rows[(a, b)], rows[(a, b)], rows[(b, a)]
        for j in range(n):
            us = range(starts[a][j], starts[a][j] + sizes[a][j])
            for jp in range(n):
                if base_ab[j] >> jp & 1:
                    continue
                vs = range(starts[b][jp], starts[b][jp] + sizes[b][jp])
                added = 0
                for u in us:
                    for v in vs:
                        if draw() < delta_density:
                            rows_ab[u] |= 1 << v
                            rows_ba[v] |= 1 << u
                            added += 1
                densities[((a, j), (b, jp))] = Fraction(added, len(us) * len(vs))

    realized_eps = max(abs(s - t) / t for row in sizes for s in row)
    return ApproxBlowUp(TripartiteGraph(target, rows), assignment, sizes,
                        realized_eps, densities)


# -- convenience 3-class instances ------------------------------------------


def theta32(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_theta(3, 2), t)


def theta33(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_theta(3, 3), t)


def gamma3(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_gamma(3), t)


def complete_tripartite(n: int) -> TripartiteGraph:
    g = TripartiteGraph.empty(n)
    full = (1 << n) - 1
    for key in g._rows:
        g._rows[key] = [full] * n
    return g


def gen_random_min_degree(n: int, delta_frac: float, seed: int) -> TripartiteGraph:
    """Random instance satisfying min cross-degree >= ceil(delta_frac * n).

    Each cross pair starts as an Erdos-Renyi bipartite graph with edge
    probability delta_frac, then is greedily repaired: the most deficient
    vertex (lowest degree, ties by class then index) gets an edge to its
    lowest-degree non-neighbor (ties by index).  Deterministic for a given
    seed.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0 <= delta_frac <= 1:
        raise ParameterError("delta_frac must be in [0,1]")
    rng = random.Random(f"random-min-degree:{seed}")
    target = ceil_frac(Fraction(str(delta_frac)) * n)
    g = TripartiteGraph.empty(n)
    rows = g._rows
    full = (1 << n) - 1
    draw = rng.random
    for a, b in CLASS_PAIRS:
        # s[i*n + j] is "1" when (a, i)-(b, j) is an edge; row i is a slice
        # and column j a stride of s, reversed so that character k is bit k
        s = "".join(["1" if draw() < delta_frac else "0" for _ in range(n * n)])
        rows_ab, rows_ba = rows[(a, b)], rows[(b, a)]
        rows_ab[:] = [int(s[i * n:(i + 1) * n][::-1], 2) for i in range(n)]
        rows_ba[:] = [int(s[j::n][::-1], 2) for j in range(n)]
        deg = {a: [r.bit_count() for r in rows_ab], b: [r.bit_count() for r in rows_ba]}
        # one live (degree, class, index) entry per deficient vertex; an
        # entry whose degree is out of date was superseded when it grew
        heap = [(d, c, i) for c in (a, b) for i, d in enumerate(deg[c]) if d < target]
        heapq.heapify(heap)
        while heap:
            d, ca, i = heapq.heappop(heap)
            if d != deg[ca][i]:
                continue
            cb = b if ca == a else a
            j = min(iter_bits(full & ~rows[(ca, cb)][i]), key=deg[cb].__getitem__)
            rows[(ca, cb)][i] |= 1 << j
            rows[(cb, ca)][j] |= 1 << i
            for c, v in ((ca, i), (cb, j)):
                deg[c][v] += 1
                if deg[c][v] < target:
                    heapq.heappush(heap, (deg[c][v], c, v))
    return g


def mutate_add_edge(g: TripartiteGraph, u, v) -> TripartiteGraph:
    """Copy of g with the cross-class non-edge (u, v) added."""
    cu, iu = u
    cv, iv = v
    if cu == cv:
        raise NotANonEdgeError("endpoints lie in the same class")
    g._check_vertex(cu, iu)
    g._check_vertex(cv, iv)
    if g.has_edge(u, v):
        raise NotANonEdgeError(f"{u}-{v} is already an edge")
    rows = {key: list(masks) for key, masks in g._rows.items()}
    rows[(cu, cv)][iu] |= 1 << iv
    rows[(cv, cu)][iv] |= 1 << iu
    return TripartiteGraph(g.n, rows)


def non_edges(g: TripartiteGraph) -> list[tuple[VertexRef, VertexRef]]:
    out = []
    for a, b in CLASS_PAIRS:
        for i in range(g.n):
            row = g._rows[(a, b)][i]
            for j in range(g.n):
                if not row >> j & 1:
                    out.append((VertexRef(a, i), VertexRef(b, j)))
    return out
