"""Exact geometric predicates on integer points.

All decisions reduce to signs of integer determinants, computed with
Python's arbitrary-precision integers.  The one row kernel,
`PointBack.cross_pairs`, which star blocks ask too, evaluates the same
determinants with numpy from exact coordinate differences, on
float64 mirrors of the coordinates up to 2^52, where monotone rounding
leaves a nonzero float determinant with the exact sign, and on mirrors of
the Python ints past it, where every sign is exact.  Only entries whose
signs leave the verdict open are recomputed with the scalar predicate, so
batched queries are bit-for-bit equivalent to the scalar ones.
The general-position check and the angular sort compare correctly rounded
float64 slopes, from float64 division up to 2^52 and from Python-int
division past it, and settle only equal slopes with integers (see
_line_keys).
"""

from __future__ import annotations

import math
from functools import cmp_to_key

import numpy as np

from .errors import DegeneratePointSet, VertexOutOfRange

# Coordinates up to this magnitude cast to float64 without rounding and
# their pairwise differences stay exact, which the float64 mirrors assume.
_FLOAT_SAFE = 2**52


def orientation(a, b, c):
    """Sign of cross(b - a, c - a): +1 counterclockwise, -1 clockwise, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def segments_cross(a, b, c, d):
    """True iff open segments ab and cd share exactly one interior point.

    Endpoints are assumed pairwise distinct.  Touching at a shared endpoint
    or collinear overlap do not count as a proper crossing.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    if o1 == o2 or o1 == 0 or o2 == 0:
        return False
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o3 != o4 and o3 != 0 and o4 != 0


def _direction_key(dx, dy):
    # Reduced direction with canonical sign, identifying collinear rays.
    g = math.gcd(abs(dx), abs(dy))
    dx //= g
    dy //= g
    if dy < 0 or (dy == 0 and dx < 0):
        dx, dy = -dx, -dy
    return dx, dy


# Entries per block of the general-position pass; bounds its scratch memory
# independently of n.
_GP_BLOCK_ENTRIES = 1 << 16


def _line_keys(dx, dy):
    """Float64 key -dx/dy (-inf for dy == 0) of direction vectors.

    The key of (dx, dy) equals that of (-dx, -dy), so it names the line
    through the origin.  dx and dy are float64 arrays of exact integers, or
    object arrays of Python ints, whose true division is correctly rounded
    too.  Either way the key is the correctly rounded value of the rational
    -dx/dy, and rounding is monotone: equal rationals give equal keys, and
    within one half plane (dy > 0, or dy < 0) the key ascends with the
    counterclockwise angle.  Distinct keys therefore prove distinct lines
    and strict angular order; only equal keys need an exact look.  A
    Python-int key past float64's range raises OverflowError.
    """
    keys = np.divide(-dx, dy, out=np.full(dx.shape, -np.inf, dx.dtype), where=dy != 0)
    return keys.astype(np.float64, copy=False)


def assert_general_position(points):
    """Raise DegeneratePointSet unless no two points coincide and no three are collinear.

    `points` is a sequence of (x, y) integer pairs.  Runs in O(n^2 log n):
    around each anchor the lines to the later points are sorted by a float
    key, and only anchors with two equal adjacent keys, or whose block
    raises OverflowError, are re-checked by hashing exact reduced
    directions.  Past 2^52 the differences are Python ints in object
    arrays.
    """
    n = len(points)
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DegeneratePointSet(f"points {seen[p]} and {i} coincide at {p}")
        seen[p] = i
    if n < 3:
        return
    big = max(max(abs(x), abs(y)) for x, y in points) > _FLOAT_SAFE
    xy = np.array(points, dtype=object if big else np.float64)
    rows = max(1, _GP_BLOCK_ENTRIES // n)
    for i0 in range(0, n - 2, rows):
        i1 = min(i0 + rows, n - 2)
        # Anchors i0..i1-1 against the points after i0; a collinear triple
        # i < j < k is caught at anchor i, so entries j <= i are masked
        # with NaN, which equals nothing.
        dx = xy[i0 + 1:, 0] - xy[i0:i1, 0, None]
        dy = xy[i0 + 1:, 1] - xy[i0:i1, 1, None]
        try:
            keys = _line_keys(dx, dy)
        except OverflowError:
            flagged = np.ones(i1 - i0, dtype=bool)
        else:
            keys[np.arange(keys.shape[1]) < np.arange(i1 - i0)[:, None]] = np.nan
            keys.sort(axis=1)
            flagged = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
        for i in np.nonzero(flagged)[0]:
            _assert_gp_row(points, i0 + int(i))


def _assert_gp_row(points, i):
    # Exact check of anchor i against the later points.
    xi, yi = points[i]
    dirs = {}
    for j in range(i + 1, len(points)):
        key = _direction_key(points[j][0] - xi, points[j][1] - yi)
        if key in dirs:
            raise DegeneratePointSet(
                f"points {i}, {dirs[key]}, {j} are collinear"
            )
        dirs[key] = j


def _half(dx, dy):
    # 0 for the open upper half plane plus the positive x-axis, 1 otherwise.
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def _ccw_cmp(s, t):
    # Exact angular comparator on (half, dx, dy) triples; strict for
    # directions in general position.
    if s[0] != t[0]:
        return -1 if s[0] < t[0] else 1
    c = s[1] * t[2] - s[2] * t[1]
    return -1 if c > 0 else 1


def ccw_order(back, anchor, candidates):
    """Labels in `candidates` sorted counterclockwise around point `anchor` of a PointBack.

    The order starts at the positive x-axis direction.  Points are assumed
    to be in general position, so the angular order is strict.  The float
    keys come from one gather of back's mirrors (float64, or Python ints
    past 2^52), whose differences are exact; equal keys, or a key past
    float64's range, take the exact comparator on back.pts.
    """
    labels = np.asarray(candidates, dtype=np.int64)
    xs, ys = back.xs, back.ys
    fx, fy = xs[labels] - xs[anchor], ys[labels] - ys[anchor]
    half = (fy < 0) | ((fy == 0) & (fx < 0))
    try:
        key = _line_keys(fx, fy)
    except OverflowError:
        pass  # a key past float64's range: the exact comparator decides
    else:
        order = np.lexsort((key, half))
        h = half[order]
        k = key[order]
        if not ((h[1:] == h[:-1]) & (k[1:] == k[:-1])).any():
            return labels[order].tolist()
    points = back.pts
    ax, ay = points[anchor]
    keyed = []
    for v in labels.tolist():
        dx, dy = points[v][0] - ax, points[v][1] - ay
        keyed.append((_half(dx, dy), dx, dy, v))
    keyed.sort(key=cmp_to_key(_ccw_cmp))
    return [t[3] for t in keyed]


def _windows(arrays, length, width):
    """Overlapping (length, width) views of contiguous 1-D arrays x, [δ, i] reading x[δ + i]."""
    return [np.ndarray((length, width), x.dtype, x, 0, (x.itemsize,) * 2) for x in arrays]


def _star_labels(order, hub, n):
    """`order` twice over as an int64 array, once it and `hub` are checked to be labels in 1..n.

    A label outside 1..n raises VertexOutOfRange; numpy would read a
    negative one as a label counted from the end.
    """
    labels = np.asarray(order, dtype=np.int64)
    if not (0 < hub <= n and 0 < labels.min() and labels.max() <= n):
        bad = labels[(labels < 1) | (labels > n)].tolist() if 0 < hub <= n else [hub]
        raise VertexOutOfRange(f"vertex {bad[0]} out of range 1..{n}")
    return np.concatenate((labels, labels))


def _walk(ends):
    """The labels v_0..v_m of a walk whose edge t is ends[t] = {v_t, v_{t+1}}, or None.

    ends is an (m, 2) label array, m >= 2.  It is a walk when each edge
    shares exactly one endpoint with the next, and each edge between two
    others meets them at its two ends (a star is no walk).
    """
    (a, b), (c, d) = ends[:-1].T, ends[1:].T
    in_a, in_b = (a == c) | (a == d), (b == c) | (b == d)
    joints = np.where(in_a, a, b)  # v_1..v_{m-1}
    if (in_a == in_b).any() or (joints[1:] == joints[:-1]).any():
        return None
    walk = np.empty(len(ends) + 1, dtype=ends.dtype)
    walk[1:-1] = joints
    walk[0] = ends[0, 0] + ends[0, 1] - joints[0]
    walk[-1] = ends[-1, 0] + ends[-1, 1] - joints[-1]
    return walk


class PointBack:
    """Numpy mirrors of a 1-indexed integer point table: exact rows, rotations, the fan lemma.

    `cross_pairs` evaluates the four orientation determinants of each entry
    from shared differences.  With u = c - a and w = d - a they
    are o1 = cross(b - a, u), o2 = cross(b - a, w), o3 = cross(u, w) =
    orient(c, d, a) and o4 = cross(u - (b - a), w - (b - a)) =
    orient(c, d, b).  With every coordinate a float-safe integer, each of
    these differences is an exact integer, so a determinant t1 - t2 is
    computed as fl(fl(t1) - fl(t2)) from its exact integer products t1 and
    t2.  Rounding is monotone: t1 > t2 gives fl(t1) >= fl(t2), and a float
    subtraction keeps the sign of its exact result.  A nonzero float
    determinant thus has the exact sign, and no error bound is needed.  It
    is also an integer, so the products o1 o2 and o3 o4 neither underflow
    nor overflow, and each is 0 only with a zero factor.  The segments
    cross iff both exact products are negative, and m = max(o1 o2, o3 o4)
    decides every entry but those with m == 0: m < 0 leaves all four
    determinants nonzero, with the exact signs of a crossing; m > 0 has a
    pair nonzero with one sign, so one segment lies strictly on one side
    of the other's line.  Entries with m == 0 (a shared endpoint, collinear
    points, or products rounded to a tie) are recomputed with integers.

    Past 2^52 the mirrors are object arrays of the Python ints, on which
    the same statements are exact: m < 0 is the crossing predicate, and
    m == 0 comes only with a zero determinant, where segments never cross.

    The fan lemma.  Let L = (x_1, ..., x_r) be a cyclic shift of the
    rotation of a hub h among L, or of its reverse, and P_x = x - h an
    exact difference.  A pair x_i x_{i+1} with o2_i =
    cross(P_{x_i}, P_{x_{i+1}}) of the order's sign (> 0 for the rotation,
    < 0 reversed) turns by under π, so it lies in the closed wedge from
    P_{x_i} to P_{x_{i+1}}.  These wedges are gaps of one angular sort, so
    no label of L lies strictly inside one and their interiors are
    disjoint.  A star edge {w, h}, w in L, meets a wedge only along w's
    ray, and two wedges meet only at h or along a shared ray; a segment
    meets its wedge's rays only at its endpoints, so the pair misses every
    star edge and every pair it shares no label with.  A float o2 != 0 has
    the exact sign, so `fan_blocks` applies the lemma without any row.  A
    fan walk, (h, L) or (L, h), closed or not, with every o2_i of the
    order's sign, is thus plane (`fan_walk`), and a block of star rows
    (`drawing.star_hits`) whose o2 all have that sign is all misses.
    """

    def __init__(self, pts):
        # pts: tuple with index 0 unused, entries (x, y) python ints
        self.pts = pts
        big = max(abs(c) for p in pts[1:] for c in p) > _FLOAT_SAFE
        dtype = object if big else np.float64
        self.xs = np.array([0] + [p[0] for p in pts[1:]], dtype=dtype)
        self.ys = np.array([0] + [p[1] for p in pts[1:]], dtype=dtype)
        self._rot_cache = {}  # hub -> rotation_of(hub)

    def cross_pairs(self, a, b, cs, ds):
        """Bool array: does segment (a, b) properly cross (c, d), entry by entry?

        The operands are those of `drawing.Drawing.cross_pairs`, and the
        answer has their broadcast shape.  Entries sharing an endpoint report
        False (adjacent edges never cross).
        """
        xs, ys = self.xs, self.ys
        ax, ay = xs[a], ys[a]
        bx, by = xs[b] - ax, ys[b] - ay  # b - a
        ux, uy = xs[cs] - ax, ys[cs] - ay  # u = c - a
        wx, wy = xs[ds] - ax, ys[ds] - ay  # w = d - a
        o1 = bx * uy
        o1 -= by * ux
        o2 = bx * wy
        o2 -= by * wx
        o3 = ux * wy
        o3 -= uy * wx
        # In place: b's shape fits in those of u and w (a label, an (R, 1)
        # column like a, or a 1-D row like cs), but d's may exceed c's (an
        # (R, 1) column c against (R, L) operands), so products with w
        # allocate.
        ux -= bx  # c - b
        uy -= by
        wx -= bx  # d - b
        wy -= by
        o4 = ux * wy
        o4 -= uy * wx
        o3 *= o4
        m = np.maximum(o3, o1 * o2, out=o3)
        res = m < 0
        # Entries with m == 0 go to _exact; a shared endpoint zeroes both
        # products, so adjacent entries are among them.
        idx = (m == 0).ravel().nonzero()[0]
        if idx.size:
            res.reshape(-1)[idx] = self._exact(a, b, cs, ds, idx, res.shape)
        return res

    def rotation_of(self, v):
        """The labels but v, counterclockwise around v from the smallest, sorted once per v."""
        rot = self._rot_cache.get(v)
        if rot is None:
            order = ccw_order(self, v, np.delete(np.arange(1, len(self.pts)), v - 1))
            i = order.index(1 if v != 1 else 2)
            rot = self._rot_cache[v] = (*order[i:], *order[:i])
        return rot

    def rotation_among(self, v, labels):
        """rotation_of(v) filtered to `labels`, sorting only them and its start label."""
        start = 1 if v != 1 else 2
        cand = [x for x in labels if x != v]
        extra = start not in labels
        if extra:
            cand.append(start)
        order = ccw_order(self, v, cand)
        i = order.index(start)
        return (*order[i + extra:], *order[:i])

    def fan_walk(self, ends):
        """Do the (m, 2) label array's edges form a fan walk (`_walk`), plane by the fan lemma?

        A closed walk drops its repeated last label; its first and its last are tried as hub.
        """
        if len(ends) < 2 or (walk := _walk(ends)) is None:
            return False
        m = len(walk) - 1
        labels = walk[:m] if walk[0] == walk[m] else walk
        return any(next(self.fan_blocks(hub, fan, [(0, len(fan) - 1)]))
                   for hub, fan in ((labels[0], labels[1:]), (labels[-1], labels[:-1])))

    def fan_blocks(self, hub, labels, bounds):
        """Yields, per (i0, i1) of `bounds`, whether the fan lemma settles pairs i0..i1-1.

        Pair i is labels[i], labels[(i + 1) % len(labels)], for the label
        array `labels` about `hub`.  A block is settled when its o2 all have
        one sign s and the labels are a cyclic shift of hub's rotation among
        them, s = 1, or of its reverse, s = -1.  That order is read once a
        block's o2 first agree: hub's cached rotation for every other label,
        else their angular sort, which is fastest on a nearly angular fan.
        """
        ring = np.append(labels, labels[0])
        px, py = self.xs[ring] - self.xs[hub], self.ys[ring] - self.ys[hub]
        o2 = px[:-1] * py[1:]
        o2 -= py[:-1] * px[1:]
        sign = ((o2 > 0).astype(np.int8) - (o2 < 0)).tolist()
        turn = None  # +1 for the rotation, -1 for its reverse, else 0
        for i0, i1 in bounds:
            s = sign[i0]
            agree = s != 0 and sign[i0:i1].count(s) == i1 - i0
            if agree and turn is None:
                got = labels.tolist()
                rot = self._rot_cache.get(hub) if len(got) == len(self.pts) - 2 else None
                if rot is None:
                    rot = tuple(ccw_order(self, hub, labels))
                turn = 0
                if rot[0] in got:  # not so for a cached rotation when labels repeat or hold hub
                    i = got.index(rot[0])
                    got = (*got[i:], *got[:i])
                    turn = 1 if got == rot else -int(got[1:] == rot[:0:-1])
            yield agree and s == turn

    def _exact(self, a, b, cs, ds, idx, shape):
        # Verdicts of the entries at flat positions idx of the operands
        # broadcast to shape.  An operand's axes align with the last axes of
        # the shape, and an axis of length 1 repeats (np.broadcast_to costs
        # ~3-6 us more per operand).  Entries sharing an endpoint are False
        # by one label comparison; only the others reach the integer predicate.
        at = np.unravel_index(idx, shape) if shape else ()
        got = [x[tuple(0 if size == 1 else i for size, i in zip(x.shape, at[len(at) - x.ndim:]))]
               for x in map(np.asarray, (a, b, cs, ds))]
        a, b, c, d = (x if x.ndim else np.full(len(idx), x) for x in got)
        res = np.zeros(len(idx), dtype=bool)
        open_ = np.flatnonzero((c != a) & (c != b) & (d != a) & (d != b))
        if open_.size:
            pts = self.pts
            entries = zip(*(x[open_].tolist() for x in (a, b, c, d)))
            res[open_] = [segments_cross(pts[a], pts[b], pts[c], pts[d])
                          for a, b, c, d in entries]
        return res

