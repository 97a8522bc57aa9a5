"""Bipartite maximum matching on bitmask rows.

max_matching is an augmenting-path matcher over bitsets: left vertex i is
rows[i], the mask of its right neighbours.  A greedy pass seeds the
matching (each left vertex takes its lowest free neighbour), then every
left vertex the seed left unmatched gets one breadth-first search for an
augmenting path.  One pass suffices: a root with no augmenting path never
gains one when other roots augment.  The search keeps a visited-right mask
and parent links instead of recursing, so long augmenting paths cannot
exhaust the recursion limit.  The covering layers run all their matchings
through it.
"""

from __future__ import annotations

from typing import Sequence


def max_matching(rows: Sequence[int]) -> list[int]:
    """Maximum-cardinality matching of the left vertices 0..len(rows)-1:
    the right partner of each, or -1 when unmatched.  Deterministic."""
    width = max((r.bit_length() for r in rows), default=0)
    mate = [-1] * len(rows)
    owner = [-1] * width
    free = (1 << width) - 1
    for u, row in enumerate(rows):
        m = row & free
        if m:
            low = m & -m
            free ^= low
            j = low.bit_length() - 1
            mate[u] = j
            owner[j] = u
    via = [0] * width      # via[j]: the left vertex the search reached j from
    for root, j in enumerate(mate):
        if j >= 0 or not rows[root] or not free:
            continue
        queue = [root]
        seen = 0
        for u in queue:
            m = rows[u] & ~seen
            if not m:
                continue
            seen |= m
            hit = m & free
            if hit:
                j = (hit & -hit).bit_length() - 1
                free ^= 1 << j
                while True:        # flip the path back to the root
                    prev = mate[u]
                    mate[u] = j
                    owner[j] = u
                    if u == root:
                        break
                    j = prev
                    u = via[j]
                break
            while m:
                low = m & -m
                j = low.bit_length() - 1
                via[j] = u
                queue.append(owner[j])
                m ^= low
    return mate
