"""Independent verification: exhaustive search and direct re-checking.

Everything here answers questions by brute force or by first principles on
the crossing oracle alone.  This module must stay free of imports from the
construction modules so that certificate verification is independent of the
code being verified.

verify_certificate asks the drawing's rows (`cross_pairs`) per claim:

- plane: `first_crossing` over the certificate's edges, row i being edge i
  against edges i+1.., so C(|E|,2) entries on plane input.
- star_avoiding (hub v): one row per edge {a, b} not at v, over the
  star edges {w, v} for w in 1..n other than a, b and v.
- maximal_plane: the plane check, then one row per non-edge against all of
  E, stopping at the first row without a hit.  A maximal certificate costs
  C(|E|,2) + (C(n,2) - |E|) * |E| entries.
- empty_side: `cycle_sides`, i.e. the plane check of the k cycle edges, then
  one row per cycle edge over all C(n-k,2) off-cycle pairs.
- hamiltonian, contains, endpoints: no queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certificates import mark_verified
from .drawing import all_edges, canon_edge
from .errors import (
    CertificateError,
    CycleNotPlane,
    NoCoordinates,
    SideInconsistency,
    TooLarge,
    VertexOutOfRange,
)
from . import geometry

def _require_small(n, cap):
    if n > cap:
        raise TooLarge(f"n={n} exceeds the exhaustive-search cap {cap} (pass cap= to raise it)")


def _edge_array(d, edges):
    """The given edges as a canonical (m, 2) int64 array, every label in 1..n."""
    try:
        arr = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise VertexOutOfRange(f"edge labels out of range 1..{d.n}") from None
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        u = int(arr[loops.argmax(), 0])
        raise ValueError(f"degenerate edge ({u}, {u})")
    arr.sort(axis=1)
    out = (arr < 1) | (arr > d.n)
    if out.any():
        raise VertexOutOfRange(f"vertex {int(arr[out][0])} out of range 1..{d.n}")
    return arr


def first_crossing(d, edges):
    """First pair of the given edges that cross, or None.

    Row i asks edge i against edges i+1.. in the given order; the scan stops
    at the first row with a hit and returns that row's first hit.
    """
    arr = _edge_array(d, edges)
    cs, ds = arr.T.copy()
    rows = arr.tolist()
    for i in range(len(rows) - 1):
        a, b = rows[i]
        hits = d.cross_pairs(a, b, cs[i + 1 :], ds[i + 1 :])
        if hits.any():
            return (tuple(rows[i]), tuple(rows[i + 1 + int(hits.argmax())]))
    return None


def is_plane(d, edges):
    """True iff no two of the given edges cross."""
    return first_crossing(d, edges) is None


@dataclass(frozen=True)
class CycleSides:
    """Off-cycle vertices split by a plane cycle.

    Two vertices share a side iff the edge between them crosses the cycle an
    even number of times.  side_a holds the class of the smallest off-cycle
    vertex; an empty side is always side_b.
    """

    cycle: tuple
    side_a: frozenset
    side_b: frozenset


def cycle_sides(d, cycle):
    """Partition vertices off a plane cycle into its two sides.

    Raises CycleNotPlane if the cycle's own edges cross, SideInconsistency
    if the parity relation fails to be a well-defined 2-colouring (possible
    only for non-plane input; checked exhaustively here because this is the
    oracle).
    """
    cyc = tuple(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValueError(f"not a cycle: {cyc}")
    if any(v < 1 or v > d.n for v in cyc):
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}: {cyc}")
    cycle_edges = [canon_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    bad = first_crossing(d, cycle_edges)
    if bad is not None:
        raise CycleNotPlane(f"cycle edges {bad[0]} and {bad[1]} cross")
    on = np.zeros(d.n + 1, dtype=bool)
    on[[0, *cyc]] = True
    off = np.flatnonzero(~on)
    if len(off) == 0:
        return CycleSides(cyc, frozenset(), frozenset())
    # One row per cycle edge over every off-cycle pair, in row-major order;
    # a pair's parity is the XOR of its rows.
    iu, ju = np.triu_indices(len(off), 1)
    cs, ds = off[iu], off[ju]
    parity = np.zeros(len(iu), dtype=bool)
    for a, b in cycle_edges:
        parity ^= d.cross_pairs(a, b, cs, ds)
    # The pairs through the reference vertex off[0] come first and fix the
    # sides; the 2-colouring must then be consistent for every pair.
    side = np.concatenate(([False], parity[: len(off) - 1]))
    wrong = parity != (side[iu] ^ side[ju])
    if wrong.any():
        k = int(wrong.argmax())
        raise SideInconsistency(
            f"vertices {int(cs[k])},{int(ds[k])} disagree with sides of cycle {cyc}"
        )
    return CycleSides(cyc, frozenset(off[~side].tolist()), frozenset(off[side].tolist()))


def polygon_partition(d, cycle):
    """Geometric cross-check of cycle sides via exact point-in-polygon.

    Only for drawings carrying coordinates.  Returns (inside, outside) as
    frozensets of off-cycle vertices.
    """
    if d.points is None:
        raise NoCoordinates("drawing has no coordinates")
    cyc = tuple(cycle)
    poly = [d.points[v] for v in cyc]
    inside, outside = set(), set()
    for w in range(1, d.n + 1):
        if w in set(cyc):
            continue
        if geometry.polygon_side(poly, d.points[w]):
            inside.add(w)
        else:
            outside.add(w)
    return frozenset(inside), frozenset(outside)


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
    plain maximum-independent-set search with a popcount bound.
    """
    _require_small(d.n, cap)
    edges = all_edges(d.n)
    m = len(edges)
    conflict = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            e, f = edges[i], edges[j]
            if not set(e) & set(f) and d.crosses(e, f):
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

    A side is empty iff every off-triangle vertex has even crossing parity
    with the smallest off-triangle vertex, i.e. the parity class of the
    reference vertex absorbs everything.
    """
    n = d.n
    count = 0
    for tri in combinations(range(1, n + 1), 3):
        off = [v for v in range(1, n + 1) if v not in tri]
        if not off:
            count += 1
            continue
        a, b, c = tri
        tri_edges = ((a, b), (b, c), (a, c))
        ref = off[0]
        empty = True
        for w in off[1:]:
            par = sum(d.crosses((ref, w), te) for te in tri_edges) % 2
            if par:
                empty = False
                break
        if empty:
            count += 1
    return count


def _check_star_avoiding(d, cert, v_star):
    if v_star not in cert.vertices:
        return False
    every = np.arange(1, d.n + 1)
    every = every[every != v_star]
    for a, b in cert.edges:
        if a == v_star or b == v_star:
            continue
        if d.cross_pairs(a, b, every[(every != a) & (every != b)], v_star).any():
            return False
    return True


def _check_maximal_plane(d, cert):
    # have + {e} is plane iff have is plane and e crosses nothing in have.
    if not is_plane(d, cert.edges):
        return False
    have = set(cert.edges)
    cs, ds = _edge_array(d, cert.edges).T.copy()
    for a, b in all_edges(d.n):
        if (a, b) not in have and not d.cross_pairs(a, b, cs, ds).any():
            return False
    return True


def verify_certificate(d, cert):
    """Re-check every claim of a certificate against the drawing.

    Returns a verified copy; raises CertificateError naming the failed
    claims otherwise.  Unknown claim names fail loudly rather than pass
    silently.
    """
    failed = []
    if any(v < 1 or v > d.n for v in cert.vertices):
        raise CertificateError(f"vertices out of range 1..{d.n}", failed=("structure",))
    for name, value in cert.claims.items():
        if name == "plane":
            ok = (not value) or is_plane(d, cert.edges)
        elif name == "hamiltonian":
            ok = (not value) or set(cert.vertices) == set(range(1, d.n + 1))
        elif name == "star_avoiding":
            ok = _check_star_avoiding(d, cert, value)
        elif name == "empty_side":
            if not value:
                ok = True
            else:
                sides = cycle_sides(d, cert.vertices)
                ok = min(len(sides.side_a), len(sides.side_b)) == 0
        elif name == "contains":
            have = set(cert.edges)
            ok = all(canon_edge(*e) in have for e in value)
        elif name == "endpoints":
            s, t = value
            ok = cert.vertices[0] == s and cert.vertices[-1] == t
        elif name == "maximal_plane":
            ok = (not value) or _check_maximal_plane(d, cert)
        else:
            raise CertificateError(f"unknown claim {name!r}", failed=(name,))
        if not ok:
            failed.append(name)
    if failed:
        raise CertificateError(
            f"certificate claims failed: {', '.join(sorted(failed))}",
            failed=tuple(sorted(failed)),
        )
    return mark_verified(cert)
