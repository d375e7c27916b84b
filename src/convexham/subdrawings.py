"""Plane subdrawings: greedy maximal extension and face structure.

A plane subdrawing is a set of pairwise non-crossing edges.  In convex
drawings every maximal plane subdrawing is maximum with exactly the same
size, so a single greedy pass from any seed in any order hits the optimum
(the greedy takes the edges in all_edges order by default); max_plane_size
leans on that and therefore refuses non-convex input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import subdrawing_certificate
from .drawing import all_edges, ask_rows, canon_edge
from .convexity import require_convex
from .errors import EdgesCrossOrAdjacent, SeedNotPlane
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


def max_plane_size(d, order=None):
    """Size of every maximal plane subdrawing of a convex drawing.

    One greedy run answers this only because maximal implies maximum on
    convex input, so non-convex drawings are refused outright rather than
    given an order-dependent number (see convexity.require_convex).
    """
    require_convex(d)
    return len(greedy_maximal_plane(d, order=order))


def faces(d, edges):
    """Face boundary walks of a plane subdrawing, from the host rotations.

    Walks turn consistently (next half-edge = predecessor of the arrival in
    the rotation), so each face of the combinatorial embedding appears as
    one closed walk.  The Euler relation V - E + W = 2*C_e + C_0 (C_e
    components with edges, C_0 isolated vertices) is asserted as a sanity
    check on the embedding.  Raises VertexOutOfRange for a label outside
    1..n and EdgesCrossOrAdjacent naming the first pair of edges that cross.
    """
    edges = [canon_edge(*e) for e in edges]
    hit = first_crossing(d, edges)
    if hit is not None:
        raise EdgesCrossOrAdjacent(f"edges {hit[0]} and {hit[1]} cross")
    adj = {v: [] for v in range(1, d.n + 1)}
    for u, v in set(edges):
        adj[u].append(v)
        adj[v].append(u)
    pos = {}
    for v in range(1, d.n + 1):
        look = {w: i for i, w in enumerate(d.rotation_of(v))}
        adj[v].sort(key=lambda w: look[w])
        pos[v] = {w: i for i, w in enumerate(adj[v])}

    walks = []
    seen = set()
    for u, v in edges:
        for half in ((u, v), (v, u)):
            if half in seen:
                continue
            walk = []
            cur = half
            while cur not in seen:
                seen.add(cur)
                a, b = cur
                walk.append(a)
                nxt = adj[b][(pos[b][a] - 1) % len(adj[b])]
                cur = (b, nxt)
            walks.append(tuple(walk))

    parent = list(range(d.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in set(edges):
        parent[find(u)] = find(v)
    comps = {find(v) for v in range(1, d.n + 1)}
    iso = sum(1 for v in range(1, d.n + 1) if not adj[v])
    edged = len(comps) - iso
    assert d.n - len(set(edges)) + len(walks) == 2 * edged + iso
    return walks
