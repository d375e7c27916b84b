"""Plane subdrawings: greedy maximal extension.

A plane subdrawing is a set of pairwise non-crossing edges.  In convex
drawings every maximal plane subdrawing is maximum with exactly the same
size, so a single greedy pass from any seed in any order hits the optimum
(the greedy takes the edges in all_edges order by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import subdrawing_certificate
from .drawing import all_edges, ask_rows, canon_edge
from .errors import SeedNotPlane
from .oracle import first_crossing


@dataclass(frozen=True)
class PlaneSubdrawing:
    host: object
    edges: frozenset
    maximal: bool = True

    def __len__(self):
        return len(self.edges)

    def certificate(self):
        claims = {"plane": True}
        if self.maximal:
            claims["maximal_plane"] = True
        return subdrawing_certificate(sorted(self.edges), claims)


def crossing_degree_order(d):
    """All edges sorted by how many other edges cross them, then lex.

    An opt-in greedy order, uncounted.  It reads the whole crossing set
    (Drawing.crossing_set): C(n, 2)^2 / 2 kernel entries, quartic in n.
    """
    deg = dict.fromkeys(all_edges(d.n), 0)
    for e, f in d.crossing_set():
        deg[e] += 1
        deg[f] += 1
    return tuple(sorted(deg, key=lambda e: (deg[e], e)))


def greedy_maximal_plane(d, seed=(), order=None):
    """Grow a maximal plane subdrawing from `seed` along `order`.

    The seed must itself be plane (SeedNotPlane otherwise).  Every edge of
    the drawing is offered once, in all_edges order unless `order` lists
    them all; an edge enters iff it crosses nothing already chosen, which
    makes the result maximal regardless of order.
    Each candidate asks one query per edge chosen before it.  The candidates
    go in drawing.ask_rows blocks: a block asks its candidates against the
    edges chosen before it, then each edge the block accepts is asked, in
    one row, against every later candidate of the block.
    """
    seed = tuple(canon_edge(*e) for e in seed)
    bad = first_crossing(d, seed) if seed else None
    if bad is not None:
        raise SeedNotPlane(f"seed edges {bad[0]} and {bad[1]} cross")
    if order is None:
        order = all_edges(d.n)
    else:
        order = tuple(canon_edge(*e) for e in order)
        if len(order) != len(set(order)) or set(order) != set(all_edges(d.n)):
            raise ValueError("order must cover every edge exactly once")
    chosen = list(dict.fromkeys(seed))
    have = set(chosen)
    cand = np.array([e for e in order if e not in have], dtype=np.int64).reshape(-1, 2)
    a, b = cand.T.copy()
    # Chosen edges, in order, as the first k entries of two label arrays.
    cs = np.zeros(len(chosen) + len(cand), dtype=np.int64)
    ds = np.zeros_like(cs)
    k = len(chosen)
    if k:
        cs[:k], ds[:k] = np.array(chosen).T

    def operands(i0, i1):
        return cs[:k], ds[:k]

    i = 0
    while i < len(cand):
        _i0, hits = next(ask_rows(d.cross_pairs, a[i:], b[i:], k, operands))
        free, span = ~hits.any(axis=1), len(hits)
        for j in range(i, i + span):
            if not free[j - i]:
                continue
            chosen.append((int(a[j]), int(b[j])))
            cs[k], ds[k] = a[j], b[j]
            k += 1
            if j + 1 < i + span:  # the block's later candidates, rejected ones too
                free[j + 1 - i:] &= ~d.cross_pairs(a[j], b[j], a[j + 1:i + span], b[j + 1:i + span])
        i += span
    return PlaneSubdrawing(d, frozenset(chosen))


def extend_cycle(d, cycle_cert, order=None):
    """Extend a plane cycle certificate's edges to a maximal plane subdrawing."""
    return greedy_maximal_plane(d, seed=cycle_cert.edges, order=order)
