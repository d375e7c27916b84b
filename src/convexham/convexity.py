"""Convexity tests for simple drawings.

A drawing is convex when every triangle has at least one convex side: a
side S is convex when no edge spanned by S (together with the triangle's
corners) crosses the triangle.  Equivalently, every induced 5-vertex
subdrawing must be one of the three crossing patterns realisable by points
(types I, II, III below).  Both routes are implemented; they must agree.

Both routes are one pass.  The triangle route takes the triangles in lex
order, in blocks that keep each row under _TRIANGLE_BLOCK_ENTRIES entries
and hold no more triangles than vertex 1 has; a block asks six 2-D rows,
its (T, 1) corner columns against off pairs and off vertices (the sides
and their convexity, see drawing._triangle_verdicts), so a convex drawing
costs C(n, 3) * (3 * C(n - 3, 2) + 3 * (n - 3)) queries.  A flagged
triangle's witnesses are read from its rows of that block.  The
5-set route asks three rows that read the crossing state of every 4-set
(which of its three matchings cross), 3 * C(n, 4) queries; each 5-set's
five states form a 15-bit code, and a 2**15-entry table built from four
seed drawings maps the code to its K5Class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import permutations
from math import comb

import numpy as np

from .drawing import _side_inconsistency, _triangle_verdicts, _triu_pairs
from .errors import NotConvex, NotK5, TooLarge
from .generators import convex_position, geometric, twisted

# The 5-set pass keeps O(C(n, 4)) scratch; past this many 4-sets (n > 101)
# it refuses rather than allocate gigabytes for hours of work.
_MAX_QUADS = 1 << 22

# Entries per row of one block of the triangle pass: a block holds up to
# this many off pairs over all its triangles, at least one triangle's.  At
# n = 60 a block keeps ~4 MB of scratch.
_TRIANGLE_BLOCK_ENTRIES = 1 << 16


class K5Class(Enum):
    I = "I"
    II = "II"
    III = "III"
    V = "V"
    # A 5-drawing that is neither realisable (I-III) nor the twisted form.
    IV_OR_V = "IV_or_V"

    @property
    def convex(self):
        return self in (K5Class.I, K5Class.II, K5Class.III)


_CLASSES = tuple(K5Class)


def _k5_code(pairs):
    """15-bit code of a crossing set on labels 1..5, as _k5_codes builds it.

    Bits 3i..3i+2 hold the state of the 4-set missing label i + 1: for its
    labels w0 < w1 < w2 < w3, bit j says whether w0 w(j+1) crosses the
    other two.  Every pair must be of independent edges.
    """
    code = 0
    for e, f in pairs:
        w = sorted((*e, *f))
        mate = sum(e) - w[0] if w[0] in e else sum(f) - w[0]
        missing = 15 - sum(w)  # labels 1..5 sum to 15
        code |= 1 << 3 * (missing - 1) + w.index(mate) - 1
    return code


@cache
def _k5_table():
    """uint8 table from 15-bit code to index in _CLASSES, and its non-convexity mask.

    Built once from four seed drawings: point sets of types I, II and III
    and twisted(5), type V.  Every relabelling of each seed gets its class;
    every other code is IV_OR_V.
    """
    seeds = {
        K5Class.I: convex_position(5),
        K5Class.II: geometric([(0, 0), (40, 0), (40, 40), (0, 40), (18, 21)]),
        K5Class.III: geometric([(0, 0), (60, 0), (0, 60), (14, 15), (22, 19)]),
        K5Class.V: twisted(5),
    }
    table = np.full(1 << 15, _CLASSES.index(K5Class.IV_OR_V), dtype=np.uint8)
    for cls, d in seeds.items():
        pairs = d.crossing_set()
        for perm in permutations(range(1, 6)):
            m = (0, *perm)
            code = _k5_code(((m[a], m[b]), (m[c], m[x])) for (a, b), (c, x) in pairs)
            table[code] = _CLASSES.index(cls)
    return table, ~np.array([c.convex for c in _CLASSES])[table]


def _subsets(n, k):
    """All k-subsets of range(n) as rows of an int16 array, in lex order."""
    rows = np.arange(n, dtype=np.int16)[:, None]
    for _ in range(k - 1):
        last = rows[:, -1].astype(np.int64)
        grow = n - 1 - last  # row r extends by last_r + 1, ..., n - 1
        keep = np.repeat(np.arange(len(rows)), grow)
        step = np.arange(len(keep)) - np.repeat(np.cumsum(grow) - grow, grow)
        rows = np.column_stack([rows[keep], (last[keep] + 1 + step).astype(np.int16)])
    return rows


def _k5_codes(d):
    """Codes of all 5-sets of d: (a, rest, codes) per smallest vertex, lex order.

    Labels are 0-based: the block's 5-sets are {a} with each row of rest.
    The three rows ask 3 * C(n, 4) queries, none adjacent; each 4-subset
    state is then found by its colex rank.
    """
    n = d.n
    if comb(n, 4) > _MAX_QUADS:
        raise TooLarge(f"n={n} has {comb(n, 4)} 4-sets; the 5-set pass stops at {_MAX_QUADS}")
    quads = _subsets(n, 4)
    p, q, r, s = quads.T + 1
    state = np.zeros(len(quads), dtype=np.uint16)
    for bit, row in enumerate((d.cross_pairs(p, q, r, s), d.cross_pairs(p, r, q, s),
                               d.cross_pairs(p, s, q, r))):
        state[row] |= 1 << bit
    b1, b2, b3, b4 = (np.array([comb(x, k) for x in range(n)], dtype=np.int32) for k in range(1, 5))
    w, x, y, z = quads.T
    by_colex = np.empty_like(state)
    by_colex[b1[w] + b2[x] + b3[y] + b4[z]] = state
    # Colex rank, less the added smallest vertex, of each quad without its i-th vertex.
    drop = (b2[x] + b3[y] + b4[z], b2[w] + b3[y] + b4[z],
            b2[w] + b3[x] + b4[z], b2[w] + b3[x] + b4[y])
    for a in range(n - 4):
        start = len(quads) - comb(n - a - 1, 4)  # the quads above a form a suffix
        codes = state[start:].copy()
        for i, rank in enumerate(drop, 1):
            codes |= by_colex[a + rank[start:]] << 3 * i
        yield a, quads[start:], codes


def classify_k5(d):
    """Classify a 5-vertex drawing as K5Class.

    Types I/II/III are the point-realisable patterns (5, 3, 1 crossings);
    type V is the twisted drawing's pattern.  d has a type when it is a
    relabelling of that type's seed drawing in _k5_table.  The remaining
    possibility is reported as IV_OR_V: with the four seed drawings
    excluded it can only be the fourth pattern, but the classifier never
    certifies that directly.  Costs 15 queries.
    """
    if d.n != 5:
        raise NotK5(f"expected a 5-vertex drawing, got n={d.n}")
    ((_, _, codes),) = _k5_codes(d)
    return _CLASSES[_k5_table()[0][codes[0]]]


@dataclass(frozen=True)
class NonConvexTriangle:
    """Witness that a triangle has no convex side."""

    triangle: tuple
    # For each side: the offending (edge, triangle_edge) crossing.
    violation_a: tuple
    violation_b: tuple


@dataclass(frozen=True)
class NonConvexK5:
    """Witness that a 5-subset induces a non-realisable subdrawing."""

    vertices: tuple
    k5_class: K5Class


def find_nonconvex_triangle(d):
    """First triangle (lex order) with no convex side, or None.

    One pass over the triangle blocks, C(n, 3) * (3 * C(n - 3, 2) +
    3 * (n - 3)) queries on convex input; it stops after the block holding
    the first triangle whose sides are inconsistent or both not convex,
    and asks nothing beyond its blocks.  Sides that are no 2-colouring
    raise SideInconsistency, as triangle_sides does.  Otherwise the witness
    records one crossing per side proving neither is convex, read from the
    flagged triangle's rows of its block (_side_witness).
    """
    for tris in _triangle_blocks(d.n):
        off, side, wrong, convex, rows = _triangle_verdicts(d, tris)
        flagged = wrong.any(axis=1) | ~convex.any(axis=1)
        if flagged.any():
            k = int(flagged.argmax())
            tri = tuple(tris[k].tolist())
            if wrong[k].any():
                raise _side_inconsistency(tri, off[k], wrong[k])
            rows = [row[k] for row in rows]
            return NonConvexTriangle(tri, _side_witness(tri, off[k], ~side[k], rows),
                                     _side_witness(tri, off[k], side[k], rows))
    return None


def _side_witness(tri, off, on_side, rows):
    """First (edge, triangle_edge) crossing of one side of tri, from its six rows.

    off holds the ascending off vertices, on_side marks the side's, and
    rows are the triangle's rows of _triangle_verdicts.  The order is a
    scan of the side's vertices w ascending: for each w, its pairs
    (w, w2 > w) against ab, bc and ac, then its corner edges (c, w),
    (a, w) and (b, w) against ab, bc and ac.  The side must not be convex.
    """
    a, b, c = tri
    edges, corners = ((a, b), (b, c), (a, c)), (c, a, b)
    iu, ju = _triu_pairs(len(off))
    pairs = np.stack(rows[:3], axis=1) & (on_side[iu] & on_side[ju])[:, None]
    ends = np.stack(rows[3:], axis=1) & on_side[:, None]
    # A vertex's pairs come before its corner edges, and triu order runs by w.
    p, e = divmod(int(pairs.argmax()), 3)
    i, f = divmod(int(ends.argmax()), 3)
    if pairs[p, e] and (not ends[i, f] or iu[p] <= i):
        return (int(off[iu[p]]), int(off[ju[p]])), edges[e]
    return tuple(sorted((corners[f], int(off[i])))), edges[f]


def _triangle_blocks(n):
    """All triangles of 1..n as (T, 3) int64 arrays, in lex order.

    The lex-ordered list is cut into blocks of _TRIANGLE_BLOCK_ENTRIES //
    C(n - 3, 2) triangles, at least one and at most vertex 1's C(n - 1, 2),
    so a block may span several smallest vertices but is never larger than
    the triangles of vertex 1.
    """
    size = max(1, min(_TRIANGLE_BLOCK_ENTRIES // max(1, comb(n - 3, 2)), comb(n - 1, 2)))
    tris = _subsets(n, 3)
    for i in range(0, len(tris), size):
        yield tris[i : i + size].astype(np.int64) + 1


def find_nonconvex_k5(d):
    """First 5-subset (lex order) inducing a non-realisable pattern, or None.

    One pass: 3 * C(n, 4) queries, then a table lookup per 5-set.
    """
    if d.n < 5:
        return None
    table, nonconvex = _k5_table()
    for a, rest, codes in _k5_codes(d):
        bad = nonconvex[codes]
        k = int(bad.argmax())
        if bad[k]:
            return NonConvexK5((a + 1, *(rest[k] + 1).tolist()), _CLASSES[table[codes[k]]])
    return None


def require_convex(d):
    """Refuse a drawing whose maximal plane size would depend on the order.

    Straight-line drawings are convex and pass at once, at any n.  Otherwise
    raises NotConvex naming the first non-realisable 5-set and its class;
    like find_nonconvex_k5, raises TooLarge past n = 101.
    """
    if d.points is not None:
        return
    bad = find_nonconvex_k5(d)
    if bad is not None:
        raise NotConvex(
            f"maximal plane size is order-dependent on non-convex input; "
            f"5-set {bad.vertices} is of class {bad.k5_class.name}"
        )
