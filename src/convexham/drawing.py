"""Core model: simple drawings of complete graphs given combinatorially.

A drawing of K_n is stored as one rotation per vertex (the cyclic,
counterclockwise order of the other n-1 vertices around it) plus a crossing
oracle answering whether two independent edges cross.  Two oracle backings
exist: an explicit set of crossing pairs, and a lazy geometric predicate
over integer coordinates that answers each query in O(1) without ever
materialising the O(n^4) crossing set.

A Drawing asks its oracle in exactly two ways: the checked scalar
`crosses(e, f)` and the row `cross_pairs(a, b, cs, ds)`.  Both count every
query they pass on into the drawing's own QueryCounter; `instrumented(d)`
returns a view of d with a fresh counter.

Drawings are value objects: after construction only their query counter
changes.
Vertices are labelled 1..n and edges are unordered pairs (u, v) with u < v.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import (
    AdjacentCrossing,
    InvalidRotation,
    K4Violation,
    NotAPermutation,
    SideInconsistency,
    TooFewVertices,
    VertexOutOfRange,
)


def canon_edge(u, v):
    """Normalise an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"degenerate edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def canon_pair(e, f):
    """Normalise an unordered pair of edges."""
    e = canon_edge(*e)
    f = canon_edge(*f)
    return (e, f) if e <= f else (f, e)


def adjacent(e, f):
    return e[0] in f or e[1] in f


@dataclass
class QueryCounter:
    """Mutable tally of crossing-oracle queries, for complexity instrumentation."""

    count: int = 0


class ExplicitCrossings:
    """Crossing oracle backed by an explicit set of crossing pairs."""

    def __init__(self, pairs):
        self.pairs = frozenset(pairs)

    def cross(self, a, b, c, d):
        return canon_pair((a, b), (c, d)) in self.pairs

    def cross_pairs(self, a, b, cs, ds):
        a, b = int(a), int(b)
        e = canon_edge(a, b)
        pairs = self.pairs
        out = []
        # Python ints: iterating numpy scalars would cost more than the lookups.
        for c, d in zip(np.asarray(cs).tolist(), np.asarray(ds).tolist()):
            if c == a or c == b or d == a or d == b:
                out.append(False)
            else:
                f = (c, d) if c < d else (d, c)
                out.append(((e, f) if e <= f else (f, e)) in pairs)
        return np.array(out, dtype=bool)


class GeometricCrossings:
    """Crossing oracle that evaluates exact segment-intersection predicates."""

    def __init__(self, pts):
        self.pts = pts  # 1-indexed tuple, entry 0 unused
        self.back = geometry.PointBack(pts)

    def cross(self, a, b, c, d):
        pts = self.pts
        return geometry.segments_cross(pts[a], pts[b], pts[c], pts[d])

    def cross_pairs(self, a, b, cs, ds):
        return self.back.cross_pairs(a, b, cs, ds)


class Drawing:
    """A simple drawing of K_n; construct via new_drawing() or the generators."""

    __slots__ = ("n", "points", "counter", "_oracle", "_rot", "_rot_cache")

    def __init__(self, n, oracle, rotations=None, points=None):
        self.n = n
        self._oracle = oracle
        self.points = points
        self.counter = QueryCounter()
        self._rot = rotations  # 0-dummy list of canonical tuples, or None
        self._rot_cache = {}

    def rotation_of(self, v):
        """Counterclockwise cyclic order of the other vertices around v.

        Returned as a tuple starting at the smallest label (canonical form).
        """
        if self._rot is not None:
            return self._rot[v]
        rot = self._rot_cache.get(v)
        if rot is None:
            order = geometry.ccw_order(
                self.points, v, [u for u in range(1, self.n + 1) if u != v]
            )
            rot = _canon_cycle(tuple(order))
            self._rot_cache[v] = rot
        return rot

    @property
    def rotations(self):
        """All rotations as a tuple indexed by vertex - 1."""
        return tuple(self.rotation_of(v) for v in range(1, self.n + 1))

    def crosses(self, e, f):
        """Do edges e and f cross?  Adjacent edges never cross and cost no query."""
        a, b = e
        c, d = f
        if a == b or c == d:
            canon_edge(a, b), canon_edge(c, d)  # raises ValueError
        n = self.n
        if not (0 < a <= n and 0 < b <= n and 0 < c <= n and 0 < d <= n):
            u = next(u for u in (*sorted(e), *sorted(f)) if not 0 < u <= n)
            raise VertexOutOfRange(f"vertex {u} out of range 1..{n}")
        if a == c or a == d or b == c or b == d:
            return False
        self.counter.count += 1
        return self._oracle.cross(a, b, c, d)

    def cross_pairs(self, a, b, cs, ds):
        """Vectorised: does {a, b} cross {cs[i], ds[i]}?  ds may be a scalar."""
        if np.ndim(ds) == 0:
            ds = np.full(len(cs), ds, dtype=np.int64)
        self.counter.count += len(cs)
        return self._oracle.cross_pairs(a, b, cs, ds)

    def crossing_set(self):
        """Materialise all crossing pairs, uncounted.  Quadratic in the edge count; small n only."""
        oracle = self._oracle
        if isinstance(oracle, ExplicitCrossings):
            return oracle.pairs
        edges = all_edges(self.n)
        out = set()
        for i, e in enumerate(edges):
            rest = edges[i + 1:]
            if not rest:
                break
            cs = np.array([f[0] for f in rest], dtype=np.int64)
            ds = np.array([f[1] for f in rest], dtype=np.int64)
            hits = oracle.cross_pairs(e[0], e[1], cs, ds)
            for j in np.nonzero(hits)[0]:
                out.add((e, rest[int(j)]))
        return frozenset(out)

    def __repr__(self):
        kind = "geometric" if self.points is not None else "explicit"
        return f"Drawing(n={self.n}, {kind})"


class Induced(NamedTuple):
    """An induced subdrawing with its relabelling maps."""

    drawing: Drawing
    to_sub: dict  # host label -> sub label
    to_host: dict  # sub label -> host label


def _canon_cycle(t):
    i = t.index(min(t))
    return t[i:] + t[:i]


def all_edges(n):
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]


def new_drawing(n, rotations, crossings):
    """Build and validate a drawing from rotations and an explicit crossing set.

    Validation covers rotation well-formedness, the no-adjacent-crossings
    rule, and the at-most-one-crossing-per-K4 axiom.  Full topological
    realisability of the crossing set is not decided here; side-consistency
    is checked lazily whenever triangle partitions are computed.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    if len(rotations) != n:
        raise InvalidRotation(f"expected {n} rotations, got {len(rotations)}")
    rot = [None]
    for i, r in enumerate(rotations):
        v = i + 1
        expected = [u for u in range(1, n + 1) if u != v]
        if sorted(r) != expected:
            raise InvalidRotation(
                f"rotation of vertex {v} is not a cyclic order of the others: {tuple(r)}"
            )
        rot.append(_canon_cycle(tuple(r)))
    pairs = set()
    for e, f in crossings:
        e = canon_edge(*e)
        f = canon_edge(*f)
        for u in (*e, *f):
            if not 1 <= u <= n:
                raise VertexOutOfRange(f"vertex {u} out of range 1..{n} in crossing pair")
        if adjacent(e, f):
            raise AdjacentCrossing(f"adjacent edges {e} and {f} listed as crossing")
        pairs.add((e, f) if e <= f else (f, e))
    quads = Counter(frozenset(e) | frozenset(f) for e, f in pairs)
    for quad, cnt in quads.items():
        if cnt > 1:
            raise K4Violation(
                f"vertices {tuple(sorted(quad))} span {cnt} crossings; at most one allowed"
            )
    return Drawing(n, ExplicitCrossings(pairs), rotations=rot)


def geometric_drawing(points_1indexed, skip_checks=False):
    """Internal: wrap validated 1-indexed integer points as a Drawing."""
    pts = points_1indexed
    if not skip_checks:
        geometry.assert_general_position(pts[1:])
    return Drawing(len(pts) - 1, GeometricCrossings(pts), points=pts)


def relabel(d, perm):
    """Rename vertices by a permutation given as {old: new} (or a 1-indexed sequence)."""
    n = d.n
    if not isinstance(perm, dict):
        perm = {i + 1: p for i, p in enumerate(perm)}
    if sorted(perm) != list(range(1, n + 1)) or sorted(perm.values()) != list(
        range(1, n + 1)
    ):
        raise NotAPermutation(f"not a permutation of 1..{n}")
    if d.points is not None:
        pts = [None] * (n + 1)
        for old in range(1, n + 1):
            pts[perm[old]] = d.points[old]
        return geometric_drawing(tuple(pts), skip_checks=True)
    rot = [None] * (n + 1)
    for old in range(1, n + 1):
        rot[perm[old]] = _canon_cycle(tuple(perm[u] for u in d.rotation_of(old)))
    pairs = {
        canon_pair(
            (perm[e[0]], perm[e[1]]), (perm[f[0]], perm[f[1]])
        )
        for e, f in d.crossing_set()
    }
    return Drawing(n, ExplicitCrossings(pairs), rotations=rot)


def induced_subdrawing(d, vertices):
    """Subdrawing induced by `vertices`, relabelled 1..k in sorted host order."""
    vs = sorted(set(vertices))
    if len(vs) < 3:
        raise TooFewVertices(f"induced subdrawing needs >= 3 vertices, got {len(vs)}")
    if vs[0] < 1 or vs[-1] > d.n:
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}")
    to_sub = {v: i + 1 for i, v in enumerate(vs)}
    to_host = {i + 1: v for i, v in enumerate(vs)}
    if d.points is not None:
        pts = tuple([None] + [d.points[v] for v in vs])
        return Induced(geometric_drawing(pts, skip_checks=True), to_sub, to_host)
    keep = set(vs)
    rot = [None]
    for v in vs:
        rot.append(
            _canon_cycle(tuple(to_sub[u] for u in d.rotation_of(v) if u in keep))
        )
    pairs = set()
    for e, f in d.crossing_set():
        if e[0] in keep and e[1] in keep and f[0] in keep and f[1] in keep:
            pairs.add(
                canon_pair(
                    (to_sub[e[0]], to_sub[e[1]]), (to_sub[f[0]], to_sub[f[1]])
                )
            )
    sub = Drawing(len(vs), ExplicitCrossings(pairs), rotations=rot)
    return Induced(sub, to_sub, to_host)


@dataclass(frozen=True)
class TrianglePartition:
    """Off-triangle vertices split by the two sides of a triangle.

    side_a holds the class containing the smallest off-triangle vertex; an
    empty side (if any) is always side_b.  convex_a/convex_b record whether
    every edge spanned by that side plus the triangle corners avoids the
    triangle boundary entirely.
    """

    triangle: tuple
    side_a: frozenset
    side_b: frozenset
    convex_a: bool
    convex_b: bool


def _edge_triangle_crossings(d, w, w2, tri_edges):
    e = (w, w2)
    t1, t2, t3 = tri_edges
    return d.crosses(e, t1) + d.crosses(e, t2) + d.crosses(e, t3)


def split_by_triangle(d, tri, among):
    """Partition `among` (disjoint from tri) into the two sides of triangle tri.

    Two vertices land on the same side iff the edge between them crosses the
    triangle boundary an even number of times.  Assignments are made against
    a reference vertex; use verify_sides() for the full pairwise consistency
    check.
    """
    a, b, c = tri
    tri_edges = (canon_edge(a, b), canon_edge(b, c), canon_edge(a, c))
    rest = sorted(among)
    if not rest:
        return [], []
    w0 = rest[0]
    same, other = [w0], []
    for w in rest[1:]:
        if _edge_triangle_crossings(d, w0, w, tri_edges) % 2 == 0:
            same.append(w)
        else:
            other.append(w)
    return same, other


def _verify_sides(d, tri, same, other):
    tri_edges = (canon_edge(tri[0], tri[1]), canon_edge(tri[1], tri[2]),
                 canon_edge(tri[0], tri[2]))
    groups = [(same, same, True), (other, other, True), (same, other, False)]
    for xs, ys, want_even in groups:
        for i, w in enumerate(xs):
            start = i + 1 if xs is ys else 0
            for w2 in ys[start:]:
                par = _edge_triangle_crossings(d, w, w2, tri_edges) % 2
                if (par == 0) != want_even:
                    raise SideInconsistency(
                        f"triangle {tri}: parity of ({w},{w2}) contradicts side assignment"
                    )


def side_convex(d, tri, side):
    """Is the side of `tri` holding `side` convex?  Returns (flag, witness).

    The side is convex iff no edge spanned by side vertices and triangle
    corners crosses any triangle edge.  witness is (edge, triangle_edge) for
    the first violation found, else None.
    """
    a, b, c = tri
    tri_edges = (canon_edge(a, b), canon_edge(b, c), canon_edge(a, c))
    opposite = {canon_edge(a, b): c, canon_edge(b, c): a, canon_edge(a, c): b}
    side = sorted(side)
    for i, w in enumerate(side):
        for w2 in side[i + 1:]:
            for te in tri_edges:
                if d.crosses((w, w2), te):
                    return False, (canon_edge(w, w2), te)
        # Corner-to-side edges share two triangle corners, so only the
        # opposite triangle edge can possibly be crossed.
        for te, corner in opposite.items():
            if d.crosses((corner, w), te):
                return False, (canon_edge(corner, w), te)
    return True, None


def triangle_sides(d, a, b, c):
    """Partition the off-triangle vertices by side and report side convexity."""
    tri = tuple(sorted((a, b, c)))
    if len(set(tri)) != 3:
        raise ValueError(f"triangle needs three distinct vertices, got {(a, b, c)}")
    if tri[0] < 1 or tri[2] > d.n:
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}")
    among = [v for v in range(1, d.n + 1) if v not in tri]
    same, other = split_by_triangle(d, tri, among)
    _verify_sides(d, tri, same, other)
    # `same` contains the smallest off-triangle vertex, so it is side_a; an
    # empty side can then only ever be side_b.
    side_a, side_b = frozenset(same), frozenset(other)
    conv_a, _ = side_convex(d, tri, side_a)
    conv_b, _ = side_convex(d, tri, side_b)
    return TrianglePartition(tri, side_a, side_b, conv_a, conv_b)


def instrumented(d):
    """A view of `d` with a fresh query counter.  Returns (drawing, counter).

    The view shares d's oracle and rotations, including the lazy rotation cache.
    """
    view = Drawing(d.n, d._oracle, rotations=d._rot, points=d.points)
    view._rot_cache = d._rot_cache
    return view, view.counter


def same_drawing(d1, d2):
    """Structural equality: same n, same rotations, same crossing pairs.

    Materialises crossing sets, so intended for small drawings (tests).
    """
    if d1.n != d2.n:
        return False
    if d1.rotations != d2.rotations:
        return False
    return d1.crossing_set() == d2.crossing_set()
