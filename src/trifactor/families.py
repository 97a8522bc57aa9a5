"""Generators for the extremal families and benchmark instances.

Columns are 0-indexed internally: in the grid families below, column 0 of
gamma_k plays the special role (descriptions that start counting at 1
call it column 1).  Only the 3-class members downcast to TripartiteGraph; the
generators themselves emit a small abstract multi-class graph so the m x n /
k x k families can be stated in full generality.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from .config import ceil_frac, floor_frac
from .errors import IndexOutOfRangeError, NotANonEdgeError, WithinClassEdgeError
from .graph import TripartiteGraph, VertexRef, iter_bits


Vertex = tuple[int, int]  # (class_id, index within class)


@dataclass
class MultiClassGraph:
    """Abstract graph on k vertex classes; edges only run between classes."""

    sizes: list[int]
    edges: set[frozenset]

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if u[0] == v[0]:
            raise ValueError("within-class edge")
        self.edges.add(frozenset((u, v)))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return frozenset((u, v)) in self.edges

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    def to_tripartite(self) -> TripartiteGraph:
        """The same graph as a TripartiteGraph, each edge ORed into its rows."""
        if self.num_classes != 3 or len(set(self.sizes)) != 1:
            raise ValueError("not a balanced 3-class graph")
        n = self.sizes[0]
        if n <= 0:
            raise IndexOutOfRangeError("n_per_class must be positive")
        g = TripartiteGraph.empty(n)
        rows = g._rows
        for (cu, iu), (cv, iv) in self.edges:
            if not (0 <= iu < n and 0 <= iv < n and (cu, cv) in rows):
                if cu == cv:
                    raise WithinClassEdgeError(f"edge within class {cu}")
                raise IndexOutOfRangeError(f"edge {(cu, iu)}-{(cv, iv)} out of range")
            rows[(cu, cv)][iu] |= 1 << iv
            rows[(cv, cu)][iv] |= 1 << iu
        return g


def gen_theta(m: int, n: int) -> MultiClassGraph:
    """Grid graph on m classes of n: h_{i,j} ~ h_{i',j'} iff i != i' and j != j'.

    gen_theta(3, 2) is triangle-free; it is the extremal obstruction that the
    covering machinery has to recognize.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2, n >= 1")
    g = MultiClassGraph([n] * m, set())
    for i in range(m):
        for ip in range(i + 1, m):
            for j in range(n):
                for jp in range(n):
                    if j != jp:
                        g.add_edge((i, j), (ip, jp))
    return g


def gen_gamma(k: int) -> MultiClassGraph:
    """The gamma_k family on k classes of k vertices.

    h_{i,j} ~ h_{i',j'} iff i != i' and either (j != j' and one of j,j' lies
    in the first k-2 columns) or (j = j' and j is one of the last two
    columns).  For k = 3 the blow-ups gamma3(t) admit a perfect K_3 factor
    exactly when t is even.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    special = {k - 2, k - 1}  # last two columns, 0-indexed
    g = MultiClassGraph([k] * k, set())
    for i in range(k):
        for ip in range(i + 1, k):
            for j in range(k):
                for jp in range(k):
                    if j != jp and (j not in special or jp not in special):
                        g.add_edge((i, j), (ip, jp))
                    elif j == jp and j in special:
                        g.add_edge((i, j), (ip, jp))
    return g


def blow_up(g, t: int):
    """Replace each vertex by t clones and each edge by a complete t x t
    bipartite graph.  Accepts either graph kind and returns the same kind.

    Base vertex j becomes clones j*t .. j*t+t-1, so a TripartiteGraph is
    blown up row by row: a clone's row is the OR of one t-bit block per
    neighbour of its base vertex.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if isinstance(g, TripartiteGraph):
        block = (1 << t) - 1
        rows = {}
        for key, base_rows in g._rows.items():
            blown_rows = []
            for row in base_rows:
                acc = 0
                for k in iter_bits(row):
                    acc |= block << (k * t)
                blown_rows.extend([acc] * t)
            rows[key] = blown_rows
        return TripartiteGraph(g.n * t, rows)
    blown, _ = _blow_up_multi(g, [[t] * s for s in g.sizes])
    return blown


def _blow_up_multi(g: MultiClassGraph, cluster_sizes: list[list[int]]
                   ) -> tuple[MultiClassGraph, dict[Vertex, Vertex]]:
    """Blow up with per-vertex cluster sizes; returns (graph, clone -> base)."""
    offsets = []
    for c in range(g.num_classes):
        offs, acc = [], 0
        for s in cluster_sizes[c]:
            offs.append(acc)
            acc += s
        offsets.append((offs, acc))
    out = MultiClassGraph([offsets[c][1] for c in range(g.num_classes)], set())
    assignment: dict[Vertex, Vertex] = {}
    for c in range(g.num_classes):
        offs, _ = offsets[c]
        for j, s in enumerate(cluster_sizes[c]):
            for r in range(s):
                assignment[(c, offs[j] + r)] = (c, j)
    for e in g.edges:
        (cu, ju), (cv, jv) = sorted(e)
        ou, su = offsets[cu][0][ju], cluster_sizes[cu][ju]
        ov, sv = offsets[cv][0][jv], cluster_sizes[cv][jv]
        for a in range(su):
            for b in range(sv):
                out.add_edge((cu, ou + a), (cv, ov + b))
    return out, assignment


@dataclass
class ApproxBlowUp:
    """A perturbed blow-up together with its planted ground truth."""

    graph: object                      # TripartiteGraph for 3-class bases
    assignment: dict                   # clone vertex -> base vertex
    cluster_sizes: list[list[int]]
    realized_eps: float
    nonedge_densities: dict = field(default_factory=dict)

    @property
    def max_nonedge_density(self) -> Fraction:
        if not self.nonedge_densities:
            return Fraction(0)
        return max(self.nonedge_densities.values())


def approx_blow_up(g: MultiClassGraph, t: int, eps: float, delta_density: float,
                   seed: int) -> ApproxBlowUp:
    """(eps, delta)-approximate blow-up.

    Cluster sizes are drawn uniformly from the integers in
    [(1-eps)t, (1+eps)t]; when every class has the same number of base
    vertices the draw is adjusted so all class totals agree (the downstream
    graph type is balanced).  Model edges become complete bipartite blocks;
    model non-edges get independent noise edges with probability
    delta_density.  Realized per-pair densities are reported alongside so
    tests can assert against what actually happened, not the target.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (0 <= eps < 1 and 0 <= delta_density <= 1):
        raise ValueError("bad noise parameters")
    rng = random.Random(f"approx-blow-up:{seed}")
    lo = max(1, ceil_frac(Fraction(str(1 - eps)) * t))
    hi = max(lo, floor_frac(Fraction(str(1 + eps)) * t))
    sizes = [[rng.randint(lo, hi) for _ in range(s)] for s in g.sizes]

    if len(set(g.sizes)) == 1:
        # equalize class totals so the result is balanced
        totals = [sum(row) for row in sizes]
        target = sorted(totals)[len(totals) // 2]
        target = min(max(target, g.sizes[0] * lo), g.sizes[0] * hi)
        for c, row in enumerate(sizes):
            while sum(row) > target:
                j = rng.randrange(len(row))
                if row[j] > lo:
                    row[j] -= 1
            while sum(row) < target:
                j = rng.randrange(len(row))
                if row[j] < hi:
                    row[j] += 1

    blown, assignment = _blow_up_multi(g, sizes)

    # noise on model non-edges (cross-class only)
    members: dict[Vertex, list[Vertex]] = {}
    for clone, base in assignment.items():
        members.setdefault(base, []).append(clone)
    densities = {}
    k = g.num_classes
    for c in range(k):
        for cp in range(c + 1, k):
            for j in range(g.sizes[c]):
                for jp in range(g.sizes[cp]):
                    if g.has_edge((c, j), (cp, jp)):
                        continue
                    added = 0
                    us, vs = members[(c, j)], members[(cp, jp)]
                    for u in us:
                        for v in vs:
                            if rng.random() < delta_density:
                                blown.add_edge(u, v)
                                added += 1
                    densities[((c, j), (cp, jp))] = Fraction(added, len(us) * len(vs))

    realized_eps = max(abs(s - t) / t for row in sizes for s in row) if t else 0.0
    graph = blown.to_tripartite() if (k == 3 and len(set(blown.sizes)) == 1) else blown
    return ApproxBlowUp(graph, assignment, sizes, realized_eps, densities)


# -- convenience 3-class instances ------------------------------------------


def theta32(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_theta(3, 2).to_tripartite(), t)


def theta33(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_theta(3, 3).to_tripartite(), t)


def gamma3(t: int = 1) -> TripartiteGraph:
    return blow_up(gen_gamma(3).to_tripartite(), t)


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
    if not 0 <= delta_frac <= 1:
        raise ValueError("delta_frac must be in [0,1]")
    rng = random.Random(f"random-min-degree:{seed}")
    target = ceil_frac(Fraction(str(delta_frac)) * n)
    g = TripartiteGraph.empty(n)
    rows = g._rows
    full = (1 << n) - 1
    draw = rng.random
    for a, b in ((0, 1), (0, 2), (1, 2)):
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
    return g.with_extra_edge(u, v)


def non_edges(g: TripartiteGraph) -> list[tuple[VertexRef, VertexRef]]:
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for i in range(g.n):
            row = g._rows[(a, b)][i]
            for j in range(g.n):
                if not row >> j & 1:
                    out.append((VertexRef(a, i), VertexRef(b, j)))
    return out
