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

from . import drawing
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


def _evidence(which, frame_labels, to_host, detail):
    return NotConvexEvidence(
        which,
        vertices=tuple(sorted({to_host[f] for f in frame_labels})),
        detail=detail,
    )


def scan_bad_edges(d, order, hub):
    """Bad edges of a rotation: consecutive pairs that cross a star edge.

    `order` is the rotation of `hub`, possibly restricted to a subset.  The
    cyclically consecutive pair {order[i], order[i+1]} is bad with witness w
    when it crosses {w, hub}.  Row i asks the pair against the other k - 2
    vertices of `order`, cyclically after the pair, so a full scan costs
    k * (k - 2) queries, asked through `drawing.star_hits` in the blocks of
    `drawing.ask_rows`: on points from the star kernel, which computes each
    orientation about the hub once for neighbouring pairs, on abstract
    drawings as gathers from the crossing table.  Yields (i, witnesses) in
    scan order, witnesses as a frozenset of positions in `order`; a caller
    that stops early asks no block past the one holding its last bad pair.
    """
    k = len(order)
    if k < 3:
        return
    for i0, hits in drawing.star_hits(d, order, hub, k):
        if not hits.any():
            continue
        for r in np.flatnonzero(hits.any(axis=1)).tolist():
            i = i0 + r
            yield i, frozenset(((np.flatnonzero(hits[r]) + i + 2) % k).tolist())


def probe_bad_edge(d, order, hub):
    """One row that can prove a bad edge of a rotation: the first pair it hits, or None.

    Pair i = {order[i], order[i+1]} is asked against the star edge of the
    vertex halfway round after it, {order[(i + 1 + k // 2) % k], hub}: k
    queries in one `cross_pairs` call.  A hit is a bad pair by definition,
    whose witnesses `witness_row` reads; a miss proves nothing, and a
    caller that must know reads `scan_bad_edges`.
    """
    k = len(order)
    twice = np.array(order * 2, dtype=np.int64)
    hits = d.cross_pairs(twice[:k], twice[1:k + 1], twice[1 + k // 2:1 + k // 2 + k], hub)
    return int(hits.argmax()) if hits.any() else None


def witness_row(d, order, hub, i):
    """Row i of `scan_bad_edges` (k - 2 queries): pair i's witnesses, as positions."""
    k = len(order)
    twice = np.array(order * 2, dtype=np.int64)
    hits = d.cross_pairs(twice[i], twice[i + 1], twice[i + 2:i + k], hub)
    return frozenset(((np.flatnonzero(hits) + i + 2) % k).tolist())


def _find_witness_gap(bad, order):
    """The cyclic gap between consecutive bad-edge endpoints holding all witnesses.

    `bad` is list(scan_bad_edges(d, order, hub)); positions index `order`.
    Returns the gap's left endpoint (a bad-edge endpoint's position).
    Convexity forces bad edges and witnesses into two disjoint cyclic
    blocks; if witnesses spill over several gaps that structure is refuted.
    """
    k = len(order)
    ends = sorted({x for i, _w in bad for x in (i, (i + 1) % k)})
    all_w = sorted(set().union(*(w for _i, w in bad)))
    # Below the first endpoint, j = -1 picks the gap that wraps around.
    j = bisect.bisect_left(ends, all_w[0]) - 1
    left, right = ends[j], ends[(j + 1) % len(ends)]

    def in_gap(x):
        return left < x < right if left < right else x > left or x < right

    stray = [w for w in all_w if not in_gap(w)]
    if stray:
        raise _evidence(
            "witness-two-block",
            stray + [left, right],
            order,
            "witnesses are not confined to one gap between bad-edge endpoints",
        )
    return left


def build_star_frame(d, v_star):
    """Label vertices around v_star, find bad edges, validate, build l_table.

    The frame is v_star's rotation rotated once: it starts right after the
    unique bad pair (m = 1) or after the left end of the witness gap
    (m >= 2), so bad edges and witnesses are relabeled in one pass.
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
    scanned = list(scan_bad_edges(d, order, v_star))
    m = len(scanned)
    if m == 0:
        shift = 0
    elif m == 1:
        # Shift the unique bad pair onto the wrap position (n-1, 1).
        shift = scanned[0][0] + 1
    else:
        shift = _find_witness_gap(scanned, order) + 1
    to_host = (0, *order[shift:], *order[:shift], v_star)

    def frame(p):
        return (p - shift) % k + 1

    bad = [((frame(i), frame(i + 1)), frozenset(map(frame, wpos))) for i, wpos in scanned]
    to_frame = [0] * (n + 1)
    for f in range(1, n + 1):
        to_frame[to_host[f]] = f

    blocks_left = ()
    blocks_right = ()
    l_table = {}
    if m >= 2:
        # Every witness lies inside the gap, which the shift puts at labels
        # 1, 2, ...: each bad edge is (v, v+1) with its witnesses below v,
        # and the last one is (n-2, n-1).
        bad.sort()
        for i in range(m - 1):
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
        v_star=v_star,
        to_frame=tuple(to_frame),
        to_host=to_host,
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
        for r in right:
            while li >= 0:
                l = left[li]
                if li and d.cross_pairs(to_host[l], v_star, left_host[:li], to_host[r]).any():
                    l_table[r] = l
                    break
                li -= 1
            else:
                # No l works for this r, nor for a later r, which asks nothing.
                l_table[r] = default
    return l_table
