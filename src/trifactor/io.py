"""Text formats: .tri3 graphs, JSON covers and witnesses.

.tri3: line 1 is `tri3 <N>`, then one line per edge
`e <classA> <idxA> <classB> <idxB>` with classA < classB, 0-indexed.
Every number is a run of ASCII digits.
Lines starting with `#` are comments; N may be at most MAX_N, as the graph
allocates its adjacency rows up front.  Serialization is canonical (sorted
edges), so parse . serialize is the identity on canonical files.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ParseError
from .graph import Triangle, TriangleCover, TripartiteGraph, build_graph

MAX_N = 100_000  # largest class size parse_graph accepts


def serialize_graph(g: TripartiteGraph) -> str:
    lines = [f"tri3 {g.n}"]
    for u, v in g.edges():
        lines.append(f"e {u.class_id} {u.index} {v.class_id} {v.index}")
    return "\n".join(lines) + "\n"


def _digits(token: str) -> Optional[int]:
    """The value of a run of ASCII digits; None for any other token, so a
    sign, an underscore or a non-ASCII digit is rejected, not read."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def parse_graph(text: str) -> TripartiteGraph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "tri3" or len(parts) != 2:
                raise ParseError(lineno, "expected header 'tri3 <N>'")
            n = _digits(parts[1])
            if n is None:
                raise ParseError(lineno, f"bad N {parts[1]!r}")
            if n <= 0:
                raise ParseError(lineno, "N must be positive")
            if n > MAX_N:
                raise ParseError(lineno, f"N {n} exceeds the limit {MAX_N}")
            continue
        if parts[0] != "e" or len(parts) != 5:
            raise ParseError(lineno, "expected 'e <classA> <idxA> <classB> <idxB>'")
        fields = [_digits(x) for x in parts[1:]]
        if None in fields:
            raise ParseError(lineno, "non-integer edge field")
        ca, ia, cb, ib = fields
        if not (0 <= ca < 3 and 0 <= cb < 3):
            raise ParseError(lineno, f"class out of range on line {line!r}")
        if ca >= cb:
            raise ParseError(lineno, "edges must have classA < classB")
        if not (0 <= ia < n and 0 <= ib < n):
            raise ParseError(lineno, "vertex index out of range")
        edges.append(((ca, ia), (cb, ib)))
    if n is None:
        raise ParseError(1, "missing header")
    return build_graph(n, edges)


def load_graph(path) -> TripartiteGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: TripartiteGraph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_graph(g))


def serialize_cover(cover: TriangleCover) -> str:
    return json.dumps([[t.i0, t.i1, t.i2] for t in cover.triangles]) + "\n"


def parse_cover(text: str, n: Optional[int] = None) -> TriangleCover:
    """Parse a JSON cover; with n given, an index >= n is a ParseError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}") from None
    if not isinstance(data, list):
        raise ParseError(1, "cover must be a JSON array")
    tris = []
    for k, item in enumerate(data):
        # bool is a subclass of int, but true/false are not indices
        if (not isinstance(item, list) or len(item) != 3
                or not all(type(x) is int for x in item)):
            raise ParseError(1, f"entry {k} is not an index triple")
        if min(item) < 0:
            raise ParseError(1, f"entry {k} has a negative index")
        if n is not None and max(item) >= n:
            raise ParseError(1, f"entry {k} has an index out of range for N={n}")
        tris.append(Triangle(*item))
    try:
        return TriangleCover(tris)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def load_cover(path, n: Optional[int] = None) -> TriangleCover:
    with open(path, "r", encoding="ascii") as fh:
        return parse_cover(fh.read(), n)


def save_cover(path, cover: TriangleCover) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_cover(cover))


def structure_witness_json(sw) -> str:
    entries = [[c, i, row, col] for (c, i), (row, col) in sorted(sw.assignment.items())]
    return json.dumps({
        "model": sw.model,
        "t": sw.t,
        "eps": sw.eps,
        "delta": float(sw.max_nonedge_density),
        "assignment": entries,
    }) + "\n"


def extreme_witness_json(w) -> str:
    return json.dumps({
        "sets": [list(s) for s in w.sets],
        "densities": [float(d) for d in w.densities],
    }) + "\n"
