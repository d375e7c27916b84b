"""Plane subdrawings: greedy maximal extension and face structure.

A plane subdrawing is a set of pairwise non-crossing edges.  In convex
drawings every maximal plane subdrawing is maximum with exactly the same
size, so a single greedy pass from any seed in any order hits the optimum;
max_plane_size leans on that and therefore refuses non-convex input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, subdrawing_certificate
from .drawing import all_edges, canon_edge
from .errors import NotConvex, SeedNotPlane
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

    The default greedy order: least-crossed edges first keeps hull-like
    edges early.  Materialises the full crossing set; meant for moderate n.
    """
    deg = {e: 0 for e in all_edges(d.n)}
    for e, f in d.crossing_set():
        deg[e] += 1
        deg[f] += 1
    return tuple(sorted(deg, key=lambda e: (deg[e], e)))


def greedy_maximal_plane(d, seed=(), order=None):
    """Grow a maximal plane subdrawing from `seed` along `order`.

    The seed must itself be plane (SeedNotPlane otherwise).  Every edge of
    the drawing is offered once; an edge enters iff it crosses nothing
    already chosen, which makes the result maximal regardless of order.
    """
    seed = tuple(canon_edge(*e) for e in seed)
    bad = first_crossing(d, seed) if seed else None
    if bad is not None:
        raise SeedNotPlane(f"seed edges {bad[0]} and {bad[1]} cross")
    if order is None:
        order = crossing_degree_order(d)
    else:
        order = tuple(canon_edge(*e) for e in order)
        if set(order) != set(all_edges(d.n)):
            raise ValueError("order must cover every edge exactly once")
    chosen = list(dict.fromkeys(seed))
    have = set(chosen)
    # Chosen edges, in order, as the first k entries of two label arrays.
    cs = np.zeros(len(chosen) + len(order), dtype=np.int64)
    ds = np.zeros_like(cs)
    k = len(chosen)
    if k:
        cs[:k], ds[:k] = np.array(chosen).T
    for e in order:
        if e in have:
            continue
        a, b = e
        if k and d.cross_pairs(a, b, cs[:k], ds[:k]).any():
            continue
        chosen.append(e)
        have.add(e)
        cs[k], ds[k] = e
        k += 1
    return PlaneSubdrawing(d, frozenset(chosen))


def extend_cycle(d, cycle_cert, order=None):
    """Extend a plane cycle certificate's edges to a maximal plane subdrawing."""
    if isinstance(cycle_cert, Certificate):
        seed = cycle_cert.edges
    else:
        seed = tuple(cycle_cert)
    return greedy_maximal_plane(d, seed=seed, order=order)


def max_plane_size(d, order=None):
    """Size of every maximal plane subdrawing of a convex drawing.

    One greedy run answers this only because maximal implies maximum on
    convex input, so non-convex drawings are refused outright rather than
    given an order-dependent number.
    """
    from .convexity import is_convex_by_triangles

    if not is_convex_by_triangles(d):
        raise NotConvex("max_plane_size is only meaningful for convex drawings")
    return len(greedy_maximal_plane(d, order=order))


def faces(d, edges):
    """Face boundary walks of a plane subdrawing, from the host rotations.

    Walks turn consistently (next half-edge = predecessor of the arrival in
    the rotation), so each face of the combinatorial embedding appears as
    one closed walk.  The Euler relation V - E + W = 2*C_e + C_0 (C_e
    components with edges, C_0 isolated vertices) is asserted as a sanity
    check on the embedding.
    """
    edges = [canon_edge(*e) for e in edges]
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
