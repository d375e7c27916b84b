"""Exact geometric predicates on integer points.

All decisions reduce to signs of integer determinants, computed with
Python's arbitrary-precision integers.  Vectorised code paths evaluate the
same determinants in float64 behind a forward-error filter and fall back to
exact integer arithmetic for entries too close to zero, so batched queries
are bit-for-bit equivalent to the scalar ones.  The general-position check
and the angular sort compare correctly rounded float64 slopes and settle
only equal slopes with integers (see _line_keys).
"""

from __future__ import annotations

import math
from functools import cmp_to_key

import numpy as np

from .errors import DegeneratePointSet

# Forward error bound factor for a 2x2 determinant of exactly-represented
# float64 integers (Shewchuk's orient2d constant is ~3.33e-16; rounded up).
_ERR = 4.0e-16

# Coordinates up to this magnitude cast to float64 without rounding and
# their pairwise differences stay exact, which the error filter assumes.
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
    """Float key -dx/dy (-inf for dy == 0) of float64 direction vectors.

    The key of (dx, dy) equals that of (-dx, -dy), so it names the line
    through the origin.  With dx, dy exact in float64 the key is the
    correctly rounded value of the rational -dx/dy, and rounding is
    monotone: equal rationals give equal keys, and within one half plane
    (dy > 0, or dy < 0) the key ascends with the counterclockwise angle.
    Distinct keys therefore prove distinct lines and strict angular order;
    only equal keys need an exact look.
    """
    return np.divide(-dx, dy, out=np.full(dx.shape, -np.inf), where=dy != 0)


def assert_general_position(points):
    """Raise DegeneratePointSet unless no two points coincide and no three are collinear.

    `points` is a sequence of (x, y) integer pairs.  Runs in O(n^2 log n):
    around each anchor the lines to the later points are sorted by a float
    key, and only anchors with two equal adjacent keys are re-checked by
    hashing exact reduced directions.
    """
    n = len(points)
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DegeneratePointSet(f"points {seen[p]} and {i} coincide at {p}")
        seen[p] = i
    if n < 3:
        return
    if max(max(abs(x), abs(y)) for x, y in points) > _FLOAT_SAFE:
        for i in range(n - 2):
            _assert_gp_row(points, i)
        return
    xy = np.array(points, dtype=np.float64)
    rows = max(1, _GP_BLOCK_ENTRIES // n)
    for i0 in range(0, n - 2, rows):
        i1 = min(i0 + rows, n - 2)
        # Anchors i0..i1-1 against the points after i0; a collinear triple
        # i < j < k is caught at anchor i, so entries j <= i are masked
        # with NaN, which equals nothing.
        dx = xy[i0 + 1:, 0] - xy[i0:i1, 0, None]
        dy = xy[i0 + 1:, 1] - xy[i0:i1, 1, None]
        keys = _line_keys(dx, dy)
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


def ccw_order(points, anchor, candidates):
    """Labels in `candidates` sorted counterclockwise around points[anchor].

    `points` maps labels to integer coordinates (any indexable).  The order
    starts at the positive x-axis direction.  Points are assumed to be in
    general position, so the angular order is strict.
    """
    ax, ay = points[anchor]
    cand = list(candidates)
    dxs = [points[v][0] - ax for v in cand]
    dys = [points[v][1] - ay for v in cand]
    if max(map(abs, dxs + dys), default=0) <= 2 * _FLOAT_SAFE:
        # Differences up to 2^53 convert to float64 exactly.
        fx = np.array(dxs, dtype=np.float64)
        fy = np.array(dys, dtype=np.float64)
        half = (fy < 0) | ((fy == 0) & (fx < 0))
        key = _line_keys(fx, fy)
        order = np.lexsort((key, half))
        h = half[order]
        k = key[order]
        if not ((h[1:] == h[:-1]) & (k[1:] == k[:-1])).any():
            return [cand[i] for i in order.tolist()]
    keyed = [(_half(dx, dy), dx, dy, v) for dx, dy, v in zip(dxs, dys, cand)]
    keyed.sort(key=cmp_to_key(_ccw_cmp))
    return [t[3] for t in keyed]


def strictly_convex_ccw(points_in_order):
    """True iff the points, in the given cyclic order, form a strictly convex CCW polygon."""
    n = len(points_in_order)
    if n < 3:
        return False
    for i in range(n):
        a = points_in_order[i]
        b = points_in_order[(i + 1) % n]
        c = points_in_order[(i + 2) % n]
        if orientation(a, b, c) <= 0:
            return False
    return True


def polygon_side(polygon, p):
    """Parity of crossings between an upward ray from p and the polygon boundary.

    Returns 1 if p is strictly inside the (simple) polygon, 0 if strictly
    outside.  p must not lie on the boundary; with the point set in general
    position this cannot happen for a polygon through other set points.
    """
    px, py = p
    inside = 0
    m = len(polygon)
    for i in range(m):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % m]
        if (ax <= px) == (bx <= px):
            continue
        # Edge straddles the vertical line x = px (half-open rule).  The
        # intersection is above p iff N / (bx - ax) > 0 with
        # N = -cross(b - a, p - a).
        num = -((bx - ax) * (py - ay) - (by - ay) * (px - ax))
        if (num > 0) == (bx > ax):
            inside ^= 1
    return inside


class PointBack:
    """Float64 mirrors of a 1-indexed integer point table, for filtered rows.

    Provides vectorised crossing tests whose results are exact: a forward
    error filter marks entries whose float determinant is too close to zero
    and those are recomputed with integer arithmetic.
    """

    def __init__(self, pts):
        # pts: tuple with index 0 unused, entries (x, y) python ints
        self.pts = pts
        max_abs = 0
        for p in pts[1:]:
            a = abs(p[0])
            b = abs(p[1])
            if a > max_abs:
                max_abs = a
            if b > max_abs:
                max_abs = b
        self.float_ok = max_abs <= _FLOAT_SAFE
        if self.float_ok:
            self.xs = np.array([0.0] + [float(p[0]) for p in pts[1:]])
            self.ys = np.array([0.0] + [float(p[1]) for p in pts[1:]])
        else:
            self.xs = self.ys = None

    def cross_pairs(self, a, b, cs, ds):
        """Bool array: does segment (a, b) properly cross segment (cs[i], ds[i])?

        Pairs sharing an endpoint report False (adjacent edges never cross).
        `cs` and `ds` are integer label arrays of equal length.
        """
        cs = np.asarray(cs, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        if not self.float_ok:
            pts = self.pts
            pa, pb = pts[a], pts[b]
            out = np.empty(len(cs), dtype=bool)
            for i in range(len(cs)):
                c = int(cs[i])
                d = int(ds[i])
                if c == a or c == b or d == a or d == b:
                    out[i] = False
                else:
                    out[i] = segments_cross(pa, pb, pts[c], pts[d])
            return out
        xs, ys = self.xs, self.ys
        ax, ay = xs[a], ys[a]
        bx, by = xs[b], ys[b]
        cx, cy = xs[cs], ys[cs]
        dx, dy = xs[ds], ys[ds]
        abx = bx - ax
        aby = by - ay
        t1 = abx * (cy - ay)
        t2 = aby * (cx - ax)
        o1 = t1 - t2
        e1 = _ERR * (np.abs(t1) + np.abs(t2))
        t3 = abx * (dy - ay)
        t4 = aby * (dx - ax)
        o2 = t3 - t4
        e2 = _ERR * (np.abs(t3) + np.abs(t4))
        cdx = dx - cx
        cdy = dy - cy
        t5 = cdx * (ay - cy)
        t6 = cdy * (ax - cx)
        o3 = t5 - t6
        e3 = _ERR * (np.abs(t5) + np.abs(t6))
        t7 = cdx * (by - cy)
        t8 = cdy * (bx - cx)
        o4 = t7 - t8
        e4 = _ERR * (np.abs(t7) + np.abs(t8))
        res = ((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0))
        unsure = (
            (np.abs(o1) <= e1)
            | (np.abs(o2) <= e2)
            | (np.abs(o3) <= e3)
            | (np.abs(o4) <= e4)
        )
        adj = (cs == a) | (cs == b) | (ds == a) | (ds == b)
        res &= ~adj
        unsure &= ~adj
        if unsure.any():
            pts = self.pts
            pa, pb = pts[a], pts[b]
            for i in np.nonzero(unsure)[0]:
                res[i] = segments_cross(pa, pb, pts[int(cs[i])], pts[int(ds[i])])
        return res
