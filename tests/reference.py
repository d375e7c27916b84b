"""Exhaustive references that tests compare the library's constructions against.

Each one answers by enumeration or by first principles on small drawings:
all plane Hamiltonian cycles and paths, the maximum plane subdrawing, the
empty triangles, and the faces of a plane subdrawing.  None of them is part
of the library, which ships constructions and one certificate verifier.
"""

from itertools import combinations

import numpy as np

from convexham.drawing import _off_vertices, all_edges, canon_edge
from convexham.errors import EdgesCrossOrAdjacent, TooLarge, VertexOutOfRange
from convexham.oracle import first_crossing


def _require_small(n, cap):
    if n > cap:
        raise TooLarge(f"n={n} exceeds the exhaustive-search cap {cap} (pass cap= to raise it)")


def _plane_orders(crossers, n, starts, edge_ok, accept):
    """Every order of 1..n that starts in `starts` and forms a plane path.

    crossers maps each edge to the set of edges crossing it.  Each path edge
    must pass edge_ok(e) and cross no earlier path edge; an order is kept
    when accept(seq, edges) holds for the full sequence and its edges.
    """
    found = []
    seq, edges = [], []

    def extend():
        if len(seq) == n:
            if accept(seq, edges):
                found.append(tuple(seq))
            return
        last = seq[-1]
        for x in range(1, n + 1):
            if x in seq:
                continue
            e = (last, x) if last < x else (x, last)
            if not edge_ok(e) or not crossers[e].isdisjoint(edges):
                continue
            seq.append(x)
            edges.append(e)
            extend()
            edges.pop()
            seq.pop()

    for start in starts:
        seq.append(start)
        extend()
        seq.pop()
    return found


def brute_hamiltonian(d, mode="cycle", s=None, t=None, v_star=None, edge=None, cap=12):
    """Exhaustively enumerate plane Hamiltonian structures.

    mode="cycle": all plane Hamiltonian cycles, canonical form (starts at 1,
    second vertex smaller than last).
    mode="path": all plane Hamiltonian paths from s to t.
    mode="star_avoiding": plane Hamiltonian cycles none of whose edges cross
    an edge at v_star (cycle edges at v_star are exempt as always).
    mode="contains": all plane Hamiltonian paths (canonical: first < last)
    whose edge set contains `edge`.
    mode="paths_all": all plane Hamiltonian paths, canonical as above.

    Refuses n above `cap`.
    """
    n = d.n
    _require_small(n, cap)
    every = range(1, n + 1)
    edge_ok = lambda e: True  # noqa: E731
    if mode in ("cycle", "star_avoiding"):
        if mode == "star_avoiding":
            if v_star is None or not 1 <= v_star <= n:
                raise ValueError(f"v_star required in 1..{n}")
            star = {(v_star, w) if v_star < w else (w, v_star) for w in every if w != v_star}
            # Edges at v_star are exempt; any other edge must cross no star edge.
            edge_ok = lambda e: v_star in e or crossers[e].isdisjoint(star)  # noqa: E731

        def accept(seq, edges):
            # The closing edge (seq[-1], 1) is checked like any other.
            e = (1, seq[-1])
            return seq[1] < seq[-1] and edge_ok(e) and crossers[e].isdisjoint(edges)

        starts = (1,)
    elif mode == "path":
        if s is None or t is None or s == t:
            raise ValueError("mode='path' needs distinct s and t")
        if not (1 <= s <= n and 1 <= t <= n):
            raise VertexOutOfRange(f"endpoints out of range 1..{n}")
        starts = (s,)
        accept = lambda seq, edges: seq[-1] == t  # noqa: E731
    elif mode in ("contains", "paths_all"):
        want = canon_edge(*edge) if mode == "contains" else None
        starts = every

        def accept(seq, edges):
            return seq[0] < seq[-1] and (want is None or want in edges)

    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Crossings come from the materialised crossing set, which is small at n <= cap.
    crossers = {e: set() for e in all_edges(n)}
    for e, f in d.crossing_set():
        crossers[e].add(f)
        crossers[f].add(e)
    return sorted(_plane_orders(crossers, n, starts, edge_ok, accept))


def exact_max_plane(d, cap=8):
    """Maximum number of pairwise non-crossing edges, by branch and bound.

    The crossing graph on the C(n,2) edges is small for n <= 8; this is a
    plain maximum-independent-set search with a popcount bound.  Its edges
    come from the uncounted crossing set.
    """
    _require_small(d.n, cap)
    index = {e: i for i, e in enumerate(all_edges(d.n))}
    m = len(index)
    conflict = [0] * m
    for e, f in d.crossing_set():
        i, j = index[e], index[f]
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
    best = 0
    full = (1 << m) - 1

    def rec(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & ~conflict[v] & ~(1 << v), size + 1)
        rec(cand & ~(1 << v), size)

    rec(full, 0)
    return best


def count_empty_triangles(d):
    """Number of triangles with all remaining vertices on one side.

    A side is empty iff every off-triangle vertex w has even crossing
    parity with the smallest off-triangle vertex, ref.  The triangles of one
    smallest vertex share a block: one per triangle edge, its (T, 1) corner
    columns against the edges (w, ref), 3 * (n - 4) queries per triangle for
    n >= 4 and O(n^3) scratch per block.
    """
    n = d.n
    count = 0
    for a in range(1, n - 1):
        tris = np.array([(a, b, c) for b, c in combinations(range(a + 1, n + 1), 2)])
        off = _off_vertices(n, tris)
        ws, ref = off[:, 1:], off[:, :1]
        p, q, r = tris[:, 0:1], tris[:, 1:2], tris[:, 2:3]
        odd = (d.cross_pairs(p, q, ws, ref) ^ d.cross_pairs(q, r, ws, ref)
               ^ d.cross_pairs(p, r, ws, ref))
        count += int((~odd.any(axis=1)).sum())
    return count


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
