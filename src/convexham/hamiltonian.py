"""Plane Hamiltonian structures in convex drawings of complete graphs.

All constructions assume a convex drawing but never pre-check convexity:
the structural facts they rely on are asserted as they are used, and any
violation surfaces as NotConvexEvidence with concrete vertices.  Every
public routine returns a Certificate whose claims are re-verified by the
independent oracle (pass verify=False to skip on a timing-critical path
and verify later).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .certificates import cycle_certificate, path_certificate
from .drawing import canon_edge, induced_subdrawing, split_by_triangle
from .errors import (
    CertificateError,
    EdgesCrossOrAdjacent,
    DegeneratePointSet,
    KOutOfRange,
    NotConvexEvidence,
    SameVertex,
    VertexOutOfRange,
)
from .oracle import verify_certificate
from .starframe import _evidence, build_star_frame, scan_bad_edges


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
# s-t Hamiltonian paths and Hamiltonian cycles


def _pick_bad(order, bad):
    """Deterministic choice: most witnesses, ties broken by scan position.

    Returns the bad pair (u, v) and its witnesses as host labels.
    """
    i, wpos = max(bad, key=lambda item: (len(item[1]), -item[0]))
    return order[i], order[(i + 1) % len(order)], frozenset(order[p] for p in wpos)


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


def _solve_path(d, subset, s, t):
    """Plane Hamiltonian path from s to t inside subset (host labels).

    Iterative two-phase stack; recursion depth would otherwise reach n.
    """
    work = [("solve", tuple(sorted(subset)), s, t)]
    done = []
    while work:
        item = work.pop()
        if item[0] == "case1":
            p2 = done.pop()
            p1 = done.pop()
            done.append(p1 + p2[1:] + [item[1]])
            continue
        if item[0] == "case2":
            p2 = done.pop()
            p1 = done.pop()
            done.append(p1 + p2[1:])
            continue
        _, sub, s0, t0 = item
        k = len(sub)
        if k == 1:
            done.append([s0])
            continue
        if k == 2:
            done.append([s0, t0])
            continue
        if k == 3:
            mid = next(x for x in sub if x != s0 and x != t0)
            done.append([s0, mid, t0])
            continue
        inset = set(sub)
        order = tuple(x for x in d.rotation_of(t0) if x in inset)
        bad = scan_bad_edges(d, order, t0)
        if not bad:
            i = order.index(s0)
            done.append(list(order[i:] + order[:i]) + [t0])
            continue
        u, v, wset = _pick_bad(order, bad)
        vn, vc = _split_sides(d, u, v, t0, sub, wset)
        if s0 in vc:
            # P1 crosses the convex side to u, P2 sweeps the witness side
            # from u to v, then one star edge {v, t0}.
            work.append(("case1", t0))
            work.append(("solve", tuple(sorted(vn | {u, v})), u, v))
            work.append(("solve", tuple(sorted(vc | {u})), s0, u))
        else:
            p = u if s0 != u else v
            q = v if s0 != u else u
            # P1 sweeps the witness side from s0 to p, P2 crosses the convex
            # side from p to t0.  (q is the bad-edge endpoint P1 passes through.)
            work.append(("case2",))
            work.append(("solve", tuple(sorted(vc | {t0, p})), p, t0))
            work.append(("solve", tuple(sorted(vn | {q, p})), s0, p))
    assert len(done) == 1
    return done[0]


def st_hamiltonian_path(d, s, t, verify=True):
    """Plane Hamiltonian path from s to t (certificate with endpoints claim)."""
    if s == t:
        raise SameVertex(f"need distinct endpoints, got s=t={s}")
    if not (1 <= s <= d.n and 1 <= t <= d.n):
        raise VertexOutOfRange(f"endpoints out of range 1..{d.n}")
    seq = _solve_path(d, range(1, d.n + 1), s, t)
    cert = path_certificate(
        seq, {"plane": True, "hamiltonian": True, "endpoints": (s, t)}
    )
    return _verified(d, cert, verify)


def hamiltonian_cycle(d, verify=True):
    """Plane Hamiltonian cycle: an s-t path chosen so the closing edge is safe.

    With no bad edge around the highest-label vertex the rotation order
    itself closes up; otherwise the path runs from the chosen bad edge's
    second endpoint and closes with a star edge of t.
    """
    t = d.n
    order = d.rotation_of(t)
    bad = scan_bad_edges(d, order, t)
    if not bad:
        seq = list(order) + [t]
    else:
        _u, v, _w = _pick_bad(order, bad)
        seq = _solve_path(d, range(1, d.n + 1), v, t)
    cert = cycle_certificate(seq, {"plane": True, "hamiltonian": True})
    return _verified(d, cert, verify)


# ---------------------------------------------------------------------------
# Star-avoiding cycles, empty k-cycles, prescribed-edge paths


class _IntervalPath:
    """Frame-label path whose visited set must stay an integer interval."""

    def __init__(self, frame, start):
        self.frame = frame
        self.seq = [start]
        self.lo = self.hi = start

    def append(self, f):
        if f == self.lo - 1:
            self.lo = f
        elif f == self.hi + 1:
            self.hi = f
        else:
            raise _evidence(
                "path-interval",
                [f, self.lo, self.hi],
                self.frame.to_host,
                "visited labels stopped forming an integer interval",
            )
        self.seq.append(f)


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
    vertices right of each bad edge, guided by the connector table; all
    connectors are asserted non-star-crossing, consecutive-label edges are
    good by the scan, and the visited set stays an interval throughout.
    """
    n = d.n
    if frame.m <= 1:
        return list(range(1, n))
    bad_set = set(frame.bad)
    v1 = frame.bad[0][0]
    path = _IntervalPath(frame, v1)
    x, r = v1, v1 + 1
    while True:
        xp = frame.l_table[r]
        rp = n - 1
        for cand in range(r + 1, n - 1):
            if frame.l_table[cand] != xp:
                rp = cand
                break
        if not xp < x:
            raise _evidence(
                "connector-monotone", [xp, x], frame.to_host, "connector targets failed to descend"
            )
        for y in range(x - 1, xp, -1):
            assert (y, y + 1) not in bad_set
            path.append(y)
        _assert_connector(d, frame, xp + 1, r)
        path.append(r)
        for y in range(r + 1, rp):
            assert (y - 1, y) not in bad_set
            path.append(y)
        _assert_connector(d, frame, rp - 1, xp)
        path.append(xp)
        x, r = xp, rp
        if rp == n - 1:
            break
    for y in range(x - 1, 0, -1):
        assert (y, y + 1) not in bad_set
        path.append(y)
    # The wrap pair {n-1, 1} was validated good during frame construction.
    path.append(n - 1)
    if (path.lo, path.hi) != (1, n - 1):
        raise _evidence(
            "path-interval", [path.lo, path.hi], frame.to_host, "path failed to cover 1..n-1"
        )
    return path.seq


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


def empty_k_cycle(d, k, v_star, verify=True):
    """Plane k-cycle through v_star with one side free of vertices.

    Cuts the star-avoiding path after k-1 vertices; the visited labels form
    an integer interval, which is what keeps one side empty.
    """
    if not 3 <= k <= d.n:
        raise KOutOfRange(f"need 3 <= k <= {d.n}, got {k}")
    frame = build_star_frame(d, v_star)
    fpath = _star_frame_path(d, frame)[: k - 1]
    seq = [v_star] + [frame.to_host[f] for f in fpath]
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


def _sub_path(d, subset, s, t):
    """Plane s-t path inside subset, via an induced geometric subdrawing."""
    if len(subset) == 1:
        return [s]
    if len(subset) == 2:
        return [s, t]
    ind = induced_subdrawing(d, subset)
    seq = _solve_path(ind.drawing, range(1, ind.drawing.n + 1), ind.to_sub[s], ind.to_sub[t])
    return [ind.to_host[x] for x in seq]


def geometric_path_with_two_edges(points, e, e2, verify=True):
    """Plane Hamiltonian path on the given points containing both edges.

    The edges must be vertex-disjoint and non-crossing.  Extending them to
    lines splits the remaining points into three regions traversed in
    order: one ending at e, one carrying the leap from e to e2, one after
    e2.  Sub-paths come from the s-t construction on induced subdrawings.
    """
    from .generators import geometric

    d = geometric(points)
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
        o = geometry.orientation(pts[u2], pts[v2], pts[w])
        if o == 0:
            raise DegeneratePointSet(f"point {w} lies on the line through {u2},{v2}")
        (hside if o == side_e else r3).append(w)
    side_u2 = geometry.orientation(pts[u], pts[v], pts[u2])
    r1, r2 = [], []
    for w in hside:
        o = geometry.orientation(pts[u], pts[v], pts[w])
        if o == 0:
            raise DegeneratePointSet(f"point {w} lies on the line through {u},{v}")
        (r2 if o == side_u2 else r1).append(w)

    p1 = _sub_path(d, r1 + [u], min(r1), u) if r1 else [u]
    p2 = _sub_path(d, sorted({v, u2} | set(r2)), v, u2)
    p3 = _sub_path(d, r3 + [v2], v2, min(r3)) if r3 else [v2]
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
