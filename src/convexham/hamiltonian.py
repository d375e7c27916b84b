"""Plane Hamiltonian structures in convex drawings of complete graphs.

All constructions assume a convex drawing but never pre-check convexity:
the structural facts they rely on are asserted as they are used, and any
violation surfaces as NotConvexEvidence with concrete vertices.  Every
public routine returns a Certificate whose claims are re-verified by the
independent oracle (pass verify=False to skip on a timing-critical path
and verify later).

Every cycle comes from the star frame: the star-avoiding cycle, and from
it the plain Hamiltonian cycle, the empty k-cycles and the path through
an edge, each O(n^2) queries.  Paths between two given ends come from
the s-t solver, which also builds the pieces of the geometric path
through two edges.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .certificates import cycle_certificate, path_certificate
from .drawing import canon_edge, plane_hits, split_by_triangle
from .errors import (
    CertificateError,
    EdgesCrossOrAdjacent,
    KOutOfRange,
    NotConvexEvidence,
    SameVertex,
    VertexOutOfRange,
)
from .oracle import verify_certificate
from .starframe import _evidence, build_star_frame, probe_bad_edge, scan_bad_edges, witness_row


def _verified(d, cert, verify):
    if not verify:
        return cert
    try:
        return verify_certificate(d, cert)
    except CertificateError as exc:
        raise NotConvexEvidence(
            "certificate-verification",
            vertices=cert.vertices,
            detail=str(exc),
        ) from exc


# ---------------------------------------------------------------------------
# s-t Hamiltonian paths


def _split_sides(d, u, v, t, subset, wset):
    """Split subset minus {u, v, t} by the triangle into witness and non-witness sides.

    The witness side must be exactly the parity class holding the witnesses;
    anything else refutes convexity.
    """
    tri = tuple(sorted((u, v, t)))
    among = [x for x in subset if x not in (u, v, t)]
    same, other = split_by_triangle(d, tri, among)
    w0 = min(wset)
    vn = set(same) if w0 in same else set(other)
    vc = set(other) if w0 in same else set(same)
    if vn != set(wset):
        raise NotConvexEvidence(
            "witness-side",
            vertices=tuple(sorted(vn.symmetric_difference(wset))),
            detail=f"witnesses of bad edge {canon_edge(u, v)} are not exactly "
            f"one side of triangle {tri}",
        )
    return vn, vc


def _fan_path(order, s, hub):
    """s, then the rest of hub's (restricted) rotation `order` from s, then hub.

    Plane when no consecutive pair of `order` is bad: the edges are the
    consecutive pairs but the one that closes onto s, and one star edge.
    """
    i = order.index(s)
    return [*order[i:], *order[:i], hub]


def _fan_crossing(d, fan):
    """`oracle.first_crossing` of the path `fan`'s edges, whose labels a rotation checked."""
    ends = np.array([fan[:-1], fan[1:]], dtype=np.int64).T
    hit = next(plane_hits(d, ends), None)
    return None if hit is None else tuple(canon_edge(*fan[i:i + 2]) for i in hit)


def _refute_star_edge(d, piece, tri):
    """One row: the star edge {v, t0} closing a case-1 split's piece (tri = (u, v,
    t0)) against every edge of the piece but its last, which ends at v."""
    _u, v, t0 = tri
    hits = d.cross_pairs(v, t0, np.array(piece[:-2]), np.array(piece[1:-1]))
    if hits.any():
        j = hits.argmax()
        a, b = piece[j], piece[j + 1]
        raise NotConvexEvidence(
            "split-star-edge-crossing",
            vertices=(v, t0, a, b),
            detail=f"star edge {canon_edge(v, t0)} closing split triangle "
            f"{tuple(sorted(tri))} crosses path edge {canon_edge(a, b)}",
        )


def _solve_path(d, subset, s, t):
    """Plane Hamiltonian path from s to t inside subset (host labels).

    One stack, built in path order; recursion depth would otherwise reach
    n.  It holds subproblems (set, s, t) and the star edges that close
    case-1 splits, as (start in path, triangle).  A solved piece joins the
    path without its first vertex, on which the piece before it ended.

    A subproblem of four or more vertices splits by one rule on t's
    rotation restricted to it, of k vertices: a `probe_bad_edge` row (k
    queries), then on a hit at pair i that pair's `witness_row` (k - 2), on
    a miss the scan up to its first bad pair.  Without a bad pair the piece
    is the fan path; else the triangle of the pair and t splits the
    subproblem in two, the first half solved first, and a case-1 split's
    star edge is asked against its built piece (`_refute_star_edge`,
    k - 2).

    The root is the whole answer, so it settles a fan path by asking its
    k edges against each other (`_fan_crossing`, C(k, 2) queries), which
    proves it plane on any drawing, instead of scanning for bad pairs
    (k(k - 2)).  When t's probe misses, t's fan path is asked first and, if
    plane, returned; if it crosses and t's scan finds no bad pair, the
    crossing refutes convexity (`fan-path-crossing`).  When t has a bad
    pair and s's probe misses, s's fan path toward t, read backwards, is
    asked and, if plane, returned, with t's witness row never asked.  Any
    other root splits as above.  A subproblem keeps its scan: a plane piece
    need not avoid its sibling pieces.
    So a path from an interior point of a point set to a t whose probe
    hits costs (n-1) + (n-1) + C(n-1, 2) = (n-1)(n+2)/2 queries, and to an
    interior t (no bad pair) (n-1) + C(n-1, 2) = (n-1)n/2.
    """
    root = (set(subset), s, t)
    work = [root]
    path = [s]
    while work:
        item = work.pop()
        if len(item) == 2:
            # The star edge {v, t0} that closes a case-1 split onto t0.
            start, tri = item
            _refute_star_edge(d, path[start:], tri)
            path.append(tri[2])
            continue
        sub, s0, t0 = item
        if len(sub) <= 3:
            # At most one vertex between s0 and t0: the piece is forced.
            path += [*(x for x in sub if x != s0 and x != t0), t0]
            continue
        order = d.rotation_among(t0, sub)
        i, wpos = probe_bad_edge(d, order, t0), None
        if i is None:
            fan = _fan_path(order, s0, t0)
            hit = _fan_crossing(d, fan) if item is root else None
            if item is root and hit is None:
                path += fan[1:]
                continue
            i, wpos = next(scan_bad_edges(d, order, t0), (None, None))
            if i is None:
                if hit is not None:
                    e, f = hit
                    raise NotConvexEvidence(
                        "fan-path-crossing",
                        vertices=tuple(sorted({t0, *e, *f})),
                        detail=f"{t0} has no bad edge, but edges {e} and {f} "
                        "of its fan path cross",
                    )
                path += fan[1:]
                continue
        if item is root:
            back = d.rotation_among(s0, sub)
            if probe_bad_edge(d, back, s0) is None:
                fan = _fan_path(back, t0, s0)[::-1]
                if _fan_crossing(d, fan) is None:
                    path += fan[1:]
                    continue
        if wpos is None:
            wpos = witness_row(d, order, t0, i)
        u, v = order[i], order[(i + 1) % len(order)]
        vn, vc = _split_sides(d, u, v, t0, sub, {order[p] for p in wpos})
        if s0 in vc:
            # Case 1: P1 crosses the convex side to u, P2 sweeps the witness
            # side from u to v, then one star edge {v, t0}.
            work += [(len(path) - 1, (u, v, t0)), (vn | {u, v}, u, v), (vc | {u}, s0, u)]
        else:
            # Case 2: P1 sweeps the witness side from s0 to p, P2 crosses the
            # convex side from p to t0.  (q is the bad-edge endpoint P1
            # passes through.)
            p, q = (u, v) if s0 != u else (v, u)
            work += [(vc | {t0, p}, p, t0), (vn | {q, p}, s0, p)]
    return path


def st_hamiltonian_path(d, s, t, verify=True):
    """Plane Hamiltonian path from s to t (certificate with endpoints claim).

    t's fan path, or s's read backwards, when the oracle proves it plane;
    else solved toward t (see _solve_path).  From an interior vertex of a
    point set to a hull vertex whose probe hits, (n-1)(n+2)/2 queries; to
    another interior vertex, (n-1)n/2.

    With verify=False the path is unchecked.  A root fan path is returned
    only when plane, and every split refutes a star edge that crosses its
    own piece, but on non-convex input a split path can still cross itself
    elsewhere, where verification would raise NotConvexEvidence: 25
    certificates of construction_digest.py's pool.
    """
    if s == t:
        raise SameVertex(f"need distinct endpoints, got s=t={s}")
    if not (1 <= s <= d.n and 1 <= t <= d.n):
        raise VertexOutOfRange(f"endpoints out of range 1..{d.n}")
    seq = _solve_path(d, range(1, d.n + 1), s, t)
    cert = path_certificate(
        seq, {"plane": True, "hamiltonian": True, "endpoints": (s, t)}
    )
    return _verified(d, cert, verify)


# ---------------------------------------------------------------------------
# Star-avoiding and Hamiltonian cycles, empty k-cycles, prescribed-edge paths


def _assert_connector(d, frame, fu, fv):
    """A connector edge must cross no star edge; refutes convexity otherwise."""
    hu, hv = frame.to_host[fu], frame.to_host[fv]
    # Frame labels 1..n-1 in order, without fu and fv.
    others = np.delete(np.array(frame.to_host[1 : d.n]), (fu - 1, fv - 1))
    if d.cross_pairs(*canon_edge(hu, hv), others, frame.v_star).any():
        raise _evidence(
            "connector-star-crossing",
            [fu, fv],
            frame.to_host,
            "a connector edge crosses the star",
        )


def _star_frame_path(d, frame):
    """Frame-label path 1..n-1 visiting order for the star-avoiding cycle.

    m <= 1: the labels in order (the bad edge, if any, is the unused wrap
    pair).  m >= 2: alternate between the tail of the witness blocks and the
    vertices right of each bad edge, guided by the connector table.  The
    connectors are asserted non-star-crossing.  The frame makes the rest
    hold: connector targets descend, so each run of labels extends the
    visited interval at one end, and no run steps along a bad edge.
    """
    n = d.n
    if frame.m <= 1:
        return list(range(1, n))
    x = frame.bad[0][0]
    path = [x]
    r = x + 1
    while r < n - 1:
        xp = frame.l_table[r]
        rp = next((c for c in range(r + 1, n - 1) if frame.l_table[c] != xp), n - 1)
        path += range(x - 1, xp, -1)
        _assert_connector(d, frame, xp + 1, r)
        path += range(r, rp)
        _assert_connector(d, frame, rp - 1, xp)
        path.append(xp)
        x, r = xp, rp
    path += range(x - 1, 0, -1)
    # The wrap pair {n-1, 1} is good: the frame starts after the gap's left end.
    path.append(n - 1)
    return path


def star_avoiding_hamiltonian_cycle(d, v_star, verify=True):
    """Plane Hamiltonian cycle whose edges avoid the whole star of v_star.

    Quadratic in oracle queries: one scan for the bad edges, the connector
    table, plus per-connector assertion rows.
    """
    frame = build_star_frame(d, v_star)
    fpath = _star_frame_path(d, frame)
    seq = [v_star] + [frame.to_host[f] for f in fpath]
    cert = cycle_certificate(
        seq, {"plane": True, "hamiltonian": True, "star_avoiding": v_star}
    )
    return _verified(d, cert, verify)


def hamiltonian_cycle(d, verify=True):
    """Plane Hamiltonian cycle: the star-avoiding cycle at vertex n, ending at n.

    Plane with the whole star of n, so in particular plane; it costs the
    star frame's queries, (n-1)(n-3) when vertex n has no bad edge (the
    cycle is then n's rotation followed by n).
    """
    seq = star_avoiding_hamiltonian_cycle(d, d.n, verify=False).vertices
    cert = cycle_certificate(seq[1:] + seq[:1], {"plane": True, "hamiltonian": True})
    return _verified(d, cert, verify)


def empty_k_cycle(d, k, v_star, verify=True):
    """Plane k-cycle through v_star with one side free of vertices.

    The first k vertices of the star-avoiding cycle: v_star, then k-1 frame
    labels that form an integer interval, which keeps one side empty.
    """
    if not 3 <= k <= d.n:
        raise KOutOfRange(f"need 3 <= k <= {d.n}, got {k}")
    seq = star_avoiding_hamiltonian_cycle(d, v_star, verify=False).vertices[:k]
    claims = {"plane": True, "empty_side": True}
    if k == d.n:
        claims["hamiltonian"] = True
    cert = cycle_certificate(seq, claims)
    return _verified(d, cert, verify)


def path_containing_edge(d, e, verify=True):
    """Plane Hamiltonian path through a prescribed edge.

    Builds the star-avoiding cycle around the edge's lower endpoint; the
    cycle plus that vertex's full star is plane, so the cycle can be rewired
    through the edge.
    """
    u, v = canon_edge(*e)
    if not (1 <= u and v <= d.n):
        raise VertexOutOfRange(f"edge {e} out of range 1..{d.n}")
    cycle = star_avoiding_hamiltonian_cycle(d, u, verify=False).vertices
    xs = cycle[1:]
    i = xs.index(v)
    if i == 0:
        seq = list(cycle)
    elif i == len(xs) - 1:
        seq = list(xs) + [u]
    else:
        seq = list(reversed(xs[:i])) + [u] + list(xs[i:])
    cert = path_certificate(
        seq, {"plane": True, "hamiltonian": True, "contains": (canon_edge(u, v),)}
    )
    return _verified(d, cert, verify)


# ---------------------------------------------------------------------------
# Geometric: a path through two prescribed independent edges


def geometric_path_with_two_edges(points, e, e2, verify=True):
    """Plane Hamiltonian path on the given points containing both edges.

    The edges must be vertex-disjoint and non-crossing.  Extending them to
    lines splits the remaining points into three regions traversed in
    order: one ending at e, one carrying the leap from e to e2, one after
    e2.  Sub-paths come from the s-t solver on each region's host labels.
    """
    from .generators import geometric

    return _two_edge_path(geometric(points), e, e2, verify)


def _two_edge_path(d, e, e2, verify):
    """geometric_path_with_two_edges on a geometric drawing d, asking d's oracle."""
    u, v = canon_edge(*e)
    u2, v2 = canon_edge(*e2)
    if not (1 <= u and v <= d.n and 1 <= u2 and v2 <= d.n):
        raise VertexOutOfRange(f"edges {e}, {e2} out of range 1..{d.n}")
    if {u, v} & {u2, v2}:
        raise EdgesCrossOrAdjacent(f"edges {e} and {e2} share a vertex")
    if d.crosses((u, v), (u2, v2)):
        raise EdgesCrossOrAdjacent(f"edges {e} and {e2} cross")
    pts = d.points

    def straddles(a, b, c, c2):
        o1 = geometry.orientation(pts[c], pts[c2], pts[a])
        o2 = geometry.orientation(pts[c], pts[c2], pts[b])
        return o1 * o2 < 0

    # At most one segment can straddle the other's carrier line (they would
    # cross otherwise); arrange for e not to straddle line(e2).
    if straddles(u, v, u2, v2):
        u, v, u2, v2 = u2, v2, u, v
    assert not straddles(u, v, u2, v2)

    side_e = geometry.orientation(pts[u2], pts[v2], pts[u])
    others = [w for w in range(1, d.n + 1) if w not in (u, v, u2, v2)]
    r3, hside = [], []
    for w in others:
        (hside if geometry.orientation(pts[u2], pts[v2], pts[w]) == side_e else r3).append(w)
    side_u2 = geometry.orientation(pts[u], pts[v], pts[u2])
    r1, r2 = [], []
    for w in hside:
        (r2 if geometry.orientation(pts[u], pts[v], pts[w]) == side_u2 else r1).append(w)

    p1 = _solve_path(d, r1 + [u], min(r1), u) if r1 else [u]
    p2 = _solve_path(d, r2 + [v, u2], v, u2)
    p3 = _solve_path(d, r3 + [v2], v2, min(r3)) if r3 else [v2]
    seq = p1 + p2 + p3
    cert = path_certificate(
        seq,
        {
            "plane": True,
            "hamiltonian": True,
            "contains": (canon_edge(u, v), canon_edge(u2, v2)),
        },
    )
    return _verified(d, cert, verify)
