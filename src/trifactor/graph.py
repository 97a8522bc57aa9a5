"""Balanced tripartite graphs with bitset cross-class adjacency.

A graph has three vertex classes 0, 1, 2 of equal size N and edges only
between classes.  Adjacency is stored as one integer bitmask per (vertex,
other class), which makes the neighborhood intersections used by the exact
oracle and the cover solvers cheap (one AND per class pair).

Vertices are addressed as (class_id, index) pairs; a triangle is a triple
of indices, one per class in class order.  iter_triangles(m0, m1, m2) is
the one search for triangles inside three index masks; find_triangle is
its first hit.  Graphs are immutable after construction and can be
shared freely across threads; covers are plain values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    EmptySetError,
    IndexOutOfRangeError,
    SameClassError,
    SameClassQueryError,
    WithinClassEdgeError,
)

CLASS_PAIRS = ((0, 1), (0, 2), (1, 2))
ORDERED_PAIRS = tuple((a, b) for a in range(3) for b in range(3) if a != b)


class VertexRef(NamedTuple):
    class_id: int
    index: int


class Triangle(NamedTuple):
    """One vertex index per class, in class order 0,1,2."""

    i0: int
    i1: int
    i2: int

    @property
    def vertices(self) -> tuple[VertexRef, VertexRef, VertexRef]:
        return (VertexRef(0, self.i0), VertexRef(1, self.i1), VertexRef(2, self.i2))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class TripartiteGraph:
    """Immutable balanced tripartite graph on 3N vertices."""

    __slots__ = ("n", "_rows", "_full")

    def __init__(self, n: int, rows: dict[tuple[int, int], list[int]]):
        # Internal constructor; use build_graph for validated input.
        self.n = n
        self._rows = rows
        self._full = (1 << n) - 1

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "TripartiteGraph":
        rows = {key: [0] * n for key in ORDERED_PAIRS}
        return cls(n, rows)

    # -- queries -------------------------------------------------------------

    def nbr_mask(self, class_id: int, index: int, other_class: int) -> int:
        """Bitmask of neighbors of (class_id, index) inside other_class."""
        return self._rows[(class_id, other_class)][index]

    def has_edge(self, u, v) -> bool:
        cu, iu = u
        cv, iv = v
        if cu == cv:
            return False
        return bool(self._rows[(cu, cv)][iu] >> iv & 1)

    def cross_degree(self, v, other_class: int) -> int:
        cu, iu = v
        if cu == other_class:
            raise SameClassQueryError(f"vertex of class {cu} queried against its own class")
        self._check_vertex(cu, iu)
        if other_class not in (0, 1, 2):
            raise IndexOutOfRangeError(f"no class {other_class}")
        return (self._rows[(cu, other_class)][iu]).bit_count()

    def min_cross_degree(self) -> int:
        """delta*(g): minimum over all (vertex, other class) pairs."""
        best = self.n
        for masks in self._rows.values():
            for m in masks:
                if m.bit_count() < best:
                    best = m.bit_count()
        return best

    def density(self, a: Sequence, b: Sequence) -> Fraction:
        """d(A,B) = e(A,B)/|A||B| as an exact rational."""
        av = [VertexRef(*x) for x in a]
        bv = [VertexRef(*x) for x in b]
        if not av or not bv:
            raise EmptySetError("density needs nonempty sets")
        ca = {x.class_id for x in av}
        cb = {x.class_id for x in bv}
        if len(ca) != 1 or len(cb) != 1:
            raise SameClassError("each set must lie inside a single class")
        (ca,) = ca
        (cb,) = cb
        if ca == cb:
            raise SameClassError("sets must be in different classes")
        for x in av + bv:
            self._check_vertex(x.class_id, x.index)
        return self.density_masks(ca, mask_of(x.index for x in av),
                                  cb, mask_of(x.index for x in bv))

    def density_masks(self, ca: int, ma: int, cb: int, mb: int) -> Fraction:
        na, nb = ma.bit_count(), mb.bit_count()
        if na == 0 or nb == 0:
            raise EmptySetError("density needs nonempty sets")
        rows = self._rows[(ca, cb)]
        edges = sum((rows[i] & mb).bit_count() for i in iter_bits(ma))
        return Fraction(edges, na * nb)

    def edge_count(self, ca: int, cb: int) -> int:
        rows = self._rows[(ca, cb)]
        return sum(m.bit_count() for m in rows)

    def edges(self) -> list[tuple[VertexRef, VertexRef]]:
        """Canonical sorted edge list (classA < classB)."""
        out = []
        for a, b in CLASS_PAIRS:
            rows = self._rows[(a, b)]
            for i in range(self.n):
                for j in iter_bits(rows[i]):
                    out.append((VertexRef(a, i), VertexRef(b, j)))
        return out

    # -- triangles -----------------------------------------------------------

    def triangle_exists(self, t: Triangle) -> bool:
        return (self.has_edge((0, t.i0), (1, t.i1))
                and self.has_edge((0, t.i0), (2, t.i2))
                and self.has_edge((1, t.i1), (2, t.i2)))

    def find_triangle(self, m0: Optional[int] = None, m1: Optional[int] = None,
                      m2: Optional[int] = None) -> Optional[Triangle]:
        """First triangle of iter_triangles(m0, m1, m2), or None."""
        return next(self.iter_triangles(m0, m1, m2), None)

    def iter_triangles(self, m0: Optional[int] = None, m1: Optional[int] = None,
                       m2: Optional[int] = None) -> Iterator[Triangle]:
        """Triangles with vertices in the given index masks (None: the whole
        class), in (i0, i1, i2) order.  The one triangle-in-masks search."""
        full = self._full
        m0 = full if m0 is None else m0
        m1 = full if m1 is None else m1
        m2 = full if m2 is None else m2
        r01, r02, r12 = self._rows[(0, 1)], self._rows[(0, 2)], self._rows[(1, 2)]
        for v0 in iter_bits(m0):
            cand1 = r01[v0] & m1
            if not cand1:
                continue
            base2 = r02[v0] & m2
            if not base2:
                continue
            for v1 in iter_bits(cand1):
                for v2 in iter_bits(base2 & r12[v1]):
                    yield Triangle(v0, v1, v2)

    # -- derived graphs -------------------------------------------------------

    def induce(self, keep: Sequence[int]) -> tuple["TripartiteGraph", list[list[int]]]:
        """Induced subgraph on three equal-size index masks.

        Returns the new graph plus, per class, the list mapping new index ->
        old index.
        """
        maps = [list(iter_bits(keep[c])) for c in range(3)]
        sizes = {len(m) for m in maps}
        if len(sizes) != 1:
            raise ValueError("induced classes must have equal sizes")
        runs = [_runs(keep[c]) for c in range(3)]
        rows = {}
        for a, b in ORDERED_PAIRS:
            old, rb = self._rows[(a, b)], runs[b]
            new = []
            for old_i in maps[a]:
                row = old[old_i]
                acc = 0
                for lo, width_mask, off in rb:
                    acc |= (row >> lo & width_mask) << off
                new.append(acc)
            rows[(a, b)] = new
        return TripartiteGraph(len(maps[0]), rows), maps

    # -- misc ------------------------------------------------------------------

    def _check_vertex(self, class_id: int, index: int) -> None:
        if class_id not in (0, 1, 2):
            raise IndexOutOfRangeError(f"class {class_id} out of range")
        if not 0 <= index < self.n:
            raise IndexOutOfRangeError(f"index {index} out of [0,{self.n})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TripartiteGraph) and self.n == other.n
                and self._rows == other._rows)

    def __repr__(self) -> str:
        m = sum(self.edge_count(a, b) for a, b in CLASS_PAIRS)
        return f"TripartiteGraph(n={self.n}, edges={m})"


def _runs(mask: int) -> list[tuple[int, int, int]]:
    """Maximal runs of set bits of mask as (start, width mask, offset): a
    run's bits start at `start` in mask and at `offset` once the unset bits
    are squeezed out."""
    runs = []
    off = 0
    while mask:
        lo = (mask & -mask).bit_length() - 1
        tail = mask >> lo
        width = (~tail & (tail + 1)).bit_length() - 1
        width_mask = (1 << width) - 1
        runs.append((lo, width_mask, off))
        off += width
        mask ^= width_mask << lo
    return runs


def build_graph(n_per_class: int, edges: Iterable[tuple]) -> TripartiteGraph:
    """Build a graph from an edge list; duplicates collapse, symmetry implied."""
    if n_per_class <= 0:
        raise IndexOutOfRangeError("n_per_class must be positive")
    g = TripartiteGraph.empty(n_per_class)
    rows = g._rows
    for u, v in edges:
        cu, iu = u
        cv, iv = v
        if cu == cv:
            raise WithinClassEdgeError(f"edge within class {cu}: {u}-{v}")
        g._check_vertex(cu, iu)
        g._check_vertex(cv, iv)
        rows[(cu, cv)][iu] |= 1 << iv
        rows[(cv, cu)][iv] |= 1 << iu
    return g


# -- covers --------------------------------------------------------------------


class TriangleCover:
    """A set of vertex-disjoint class-transversal triangles (partial or perfect).

    Inputs that are already Triangles are kept as they are; other triples
    are wrapped.  The triangles are disjoint exactly when each class's
    covered mask has one bit per triangle, so that is the test; only when
    it fails (or an index is not a non-negative int) does the constructor
    walk the triangles in order, raising ValueError at the first repeated
    vertex.
    """

    __slots__ = ("triangles", "covered")

    def __init__(self, triangles: Iterable[Triangle]):
        tris = tuple(t if type(t) is Triangle else Triangle(*t) for t in triangles)
        m0 = m1 = m2 = 0
        try:
            for i0, i1, i2 in tris:
                m0 |= 1 << i0
                m1 |= 1 << i1
                m2 |= 1 << i2
            disjoint = m0.bit_count() == m1.bit_count() == m2.bit_count() == len(tris)
        except (TypeError, ValueError):
            disjoint = False
        self.triangles = tris
        self.covered = (m0, m1, m2) if disjoint else _walk_disjoint(tris)

    @property
    def size(self) -> int:
        return len(self.triangles)

    def uncovered_mask(self, n: int, class_id: int) -> int:
        return ((1 << n) - 1) ^ self.covered[class_id]

    def __repr__(self) -> str:
        return f"TriangleCover(size={self.size})"


def _walk_disjoint(tris: tuple) -> tuple[int, int, int]:
    """The covered masks of tris, built triangle by triangle; raises
    ValueError at the first vertex that an earlier triangle already holds."""
    masks = [0, 0, 0]
    for t in tris:
        for c, i in enumerate(t):
            bit = 1 << i
            if masks[c] & bit:
                raise ValueError(f"triangles are not vertex-disjoint at class {c} index {i}")
            masks[c] |= bit
    return tuple(masks)


@dataclass(frozen=True)
class CoverVerdict:
    ok: bool
    reason: Optional[str] = None
    offender: Optional[Triangle] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(g: TripartiteGraph, cover: TriangleCover,
                 require_perfect: bool = False) -> CoverVerdict:
    """Check a cover from scratch: class-transversal triangles, distinct
    vertices, all edges present, and (optionally) |triangles| = N.

    Rejection reports the first violated condition and offending triangle.
    """
    n = g.n
    r01, r02, r12 = g._rows[(0, 1)], g._rows[(0, 2)], g._rows[(1, 2)]
    seen0, seen1, seen2 = bytearray(n), bytearray(n), bytearray(n)
    # per vertex in class order: index range, then disjointness; then edges
    for t in cover.triangles:
        i0, i1, i2 = t
        if not 0 <= i0 < n:
            return CoverVerdict(False, "index-out-of-range", t)
        if seen0[i0]:
            return CoverVerdict(False, "not-disjoint", t)
        seen0[i0] = 1
        if not 0 <= i1 < n:
            return CoverVerdict(False, "index-out-of-range", t)
        if seen1[i1]:
            return CoverVerdict(False, "not-disjoint", t)
        seen1[i1] = 1
        if not 0 <= i2 < n:
            return CoverVerdict(False, "index-out-of-range", t)
        if seen2[i2]:
            return CoverVerdict(False, "not-disjoint", t)
        seen2[i2] = 1
        if not ((r01[i0] >> i1) & (r02[i0] >> i2) & (r12[i1] >> i2) & 1):
            return CoverVerdict(False, "missing-edge", t)
    if require_perfect and len(cover.triangles) != n:
        return CoverVerdict(False, "not-spanning", None)
    return CoverVerdict(True)
