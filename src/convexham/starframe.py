"""Star frame: bad edges, witnesses and the connector table around a hub vertex.

Fix a hub v_star and label the other vertices 1..n-1 along its rotation
(v_star itself becomes n).  The edge {v, v+1} (indices cyclic mod n-1) is
"bad" with witness w when it crosses the star edge {w, v_star}.  In a convex
drawing the bad edges and their witnesses occupy two disjoint cyclic blocks,
witnesses sit below their bad edge after a suitable cyclic relabeling, and
witness ranges of distinct bad edges nest.  This module computes the
labeling, validates that structure, and precomputes the connector table
l(r) used by the quadratic star-avoiding cycle construction.

Validation failures raise NotConvexEvidence naming the violated property:
the frame doubles as a cheap, lazy non-convexity refuter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import NotConvexEvidence, TooFewVertices, VertexOutOfRange


@dataclass(frozen=True)
class StarFrame:
    """Relabeled view of a drawing around a hub vertex.

    Frame labels 1..n-1 follow the rotation of v_star (after the cyclic
    shift described below); frame label n is v_star.  With m >= 2 bad edges
    the shift places the last bad edge at {n-2, n-1}, so bad edges are
    (v_1, v_1+1), ..., (v_m, n-1) with v_1 < ... < v_m = n-2, all witnesses
    satisfy w < v (sidedness) and witness ranges nest decreasingly
    (nestedness).  With m <= 1 the shift makes the bad edge (if any) the
    wrap pair {n-1, 1}, so labels 1..n-1 form a good path.
    """

    drawing: object
    v_star: int
    to_frame: tuple  # host label -> frame label ([0] unused)
    to_host: tuple  # frame label -> host label ([0] unused)
    bad: tuple  # ((v, v_next), ...) in frame labels; sorted by v when m >= 2
    witnesses: tuple  # frozensets of frame labels, aligned with bad
    blocks_left: tuple  # L_i between consecutive witness ranges (m >= 2)
    blocks_right: tuple  # R_i between consecutive bad edges (m >= 2)
    l_table: dict  # r -> l connector choices over union(blocks_right)

    @property
    def m(self):
        return len(self.bad)

    def host_edge(self, fu, fv):
        a, b = self.to_host[fu], self.to_host[fv]
        return (a, b) if a < b else (b, a)

    def bad_host(self):
        """Bad edges as host-label pairs (for reporting)."""
        return tuple(self.host_edge(*p) for p in self.bad)


def _evidence(which, frame_labels, to_host, detail):
    return NotConvexEvidence(
        which,
        vertices=tuple(sorted(to_host[f] for f in frame_labels)),
        detail=detail,
    )


def scan_bad_edges(d, order, hub):
    """Bad edges of a rotation: consecutive pairs that cross a star edge.

    `order` is the rotation of `hub`, possibly restricted to a subset.  The
    cyclically consecutive pair {order[i], order[i+1]} is bad with witness w
    when it crosses {w, hub}.  One row query per pair, over the other
    vertices of `order`.  Returns [(i, witnesses), ...] in scan order, with
    witnesses as a frozenset of positions in `order`.
    """
    k = len(order)
    if k < 3:
        return []
    twice = np.array(order * 2, dtype=np.int64)
    bad = []
    for i in range(k):
        # The other vertices, cyclically after the pair.
        hits = d.cross_pairs(order[i], order[(i + 1) % k], twice[i + 2:i + k], hub)
        if hits.any():
            bad.append((i, frozenset(((np.flatnonzero(hits) + i + 2) % k).tolist())))
    return bad


def _cyclic_shift(label, offset, k):
    return (label - 1 - offset) % k + 1


def _find_witness_gap(bad, to_host, k):
    """The cyclic gap between consecutive bad-edge endpoints holding all witnesses.

    Returns the gap's left endpoint (a bad-edge endpoint).  Convexity forces
    bad edges and witnesses into two disjoint cyclic blocks; if witnesses
    spill over several gaps that structure is refuted.
    """
    ends = sorted({x for (p, _w) in bad for x in p})
    all_w = sorted(set().union(*(w for _p, w in bad)))
    w0 = all_w[0]
    j = bisect.bisect_left(ends, w0) - 1
    if j < 0:
        j = len(ends) - 1
    left, right = ends[j], ends[(j + 1) % len(ends)]

    def in_gap(x):
        if left < right:
            return left < x < right
        return x > left or x < right

    stray = [w for w in all_w if not in_gap(w)]
    if stray:
        raise _evidence(
            "witness-two-block",
            stray + [left, right],
            to_host,
            "witnesses are not confined to one gap between bad-edge endpoints",
        )
    return left


def build_star_frame(d, v_star):
    """Label vertices around v_star, find bad edges, validate, build l_table.

    Assumes (but never pre-checks) a convex drawing; on structural failure
    raises NotConvexEvidence carrying host-label vertices.  Crossing-oracle
    usage is O(n^2) end to end.
    """
    n = d.n
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    if not 1 <= v_star <= n:
        raise VertexOutOfRange(f"v_star out of range 1..{n}")
    k = n - 1
    order = d.rotation_of(v_star)
    to_host = [0] + list(order) + [v_star]
    bad = [
        ((i + 1, (i + 1) % k + 1), frozenset(p + 1 for p in wpos))
        for i, wpos in scan_bad_edges(d, order, v_star)
    ]
    m = len(bad)

    if m == 0:
        offset = 0
    elif m == 1:
        # Shift the unique bad pair onto the wrap position (n-1, 1).
        offset = bad[0][0][1] - 1
    else:
        offset = _find_witness_gap(bad, to_host, k)

    if offset:
        new_to_host = [0] * (n + 1)
        for f in range(1, k + 1):
            new_to_host[_cyclic_shift(f, offset, k)] = to_host[f]
        new_to_host[n] = v_star
        bad = [
            (
                (_cyclic_shift(fu, offset, k), _cyclic_shift(fv, offset, k)),
                frozenset(_cyclic_shift(w, offset, k) for w in wset),
            )
            for (fu, fv), wset in bad
        ]
        to_host = new_to_host
    to_frame = [0] * (n + 1)
    for f in range(1, n + 1):
        to_frame[to_host[f]] = f

    blocks_left = ()
    blocks_right = ()
    l_table = {}
    if m >= 2:
        for (fu, fv), wset in bad:
            if fv != fu + 1:
                raise _evidence(
                    "witness-two-block",
                    [fu, fv],
                    to_host,
                    "a bad edge still spans the witness gap after relabeling",
                )
        bad.sort()
        if bad[-1][0][0] != n - 2:
            raise _evidence(
                "witness-two-block",
                list(bad[-1][0]),
                to_host,
                "the gap's boundary bad edge did not land on {n-2, n-1}",
            )
        for (v, _vn), wset in bad:
            if max(wset) >= v:
                raise _evidence(
                    "witness-sidedness",
                    [v, max(wset)],
                    to_host,
                    "a witness does not precede its bad edge",
                )
        for i in range(len(bad) - 1):
            if min(bad[i][1]) <= max(bad[i + 1][1]):
                raise _evidence(
                    "witness-nestedness",
                    [min(bad[i][1]), max(bad[i + 1][1])],
                    to_host,
                    "witness ranges of consecutive bad edges do not nest",
                )
        vs = [p[0] for p, _w in bad]
        wl = [min(w) for _p, w in bad]
        wr = [max(w) for _p, w in bad]
        blocks_left = tuple(tuple(range(wr[i + 1] + 1, wl[i])) for i in range(m - 1))
        blocks_right = tuple(tuple(range(vs[i] + 1, vs[i + 1] + 1)) for i in range(m - 1))
        l_table = _build_l_table(d, to_host, v_star, blocks_left, blocks_right, wr)

    return StarFrame(
        drawing=d,
        v_star=v_star,
        to_frame=tuple(to_frame),
        to_host=tuple(to_host),
        bad=tuple(p for p, _w in bad),
        witnesses=tuple(w for _p, w in bad),
        blocks_left=blocks_left,
        blocks_right=blocks_right,
        l_table=l_table,
    )


def _build_l_table(d, to_host, v_star, blocks_left, blocks_right, wr):
    """Connector table: l(r) = the highest l in the left block whose star edge
    is crossed by some {l', r} with l' < l, defaulting to the next witness
    range's maximum.

    Monotone two-pointer: l(r) never increases along a block, so each failed
    probe permanently retires one l and each success advances r; the total
    work stays quadratic.
    """
    l_table = {}
    for i, (left, right) in enumerate(zip(blocks_left, blocks_right)):
        default = wr[i + 1]
        left_host = np.array([to_host[x] for x in left], dtype=np.int64)
        li = len(left) - 1
        exhausted = False
        for r in right:
            if exhausted:
                l_table[r] = default
                continue
            while li >= 0:
                l = left[li]
                if li and d.cross_pairs(to_host[l], v_star, left_host[:li], to_host[r]).any():
                    l_table[r] = l
                    break
                li -= 1
            else:
                # No l works for this r; the same holds for every later r in
                # the block, so stop probing.
                exhausted = True
                l_table[r] = default
    return l_table
