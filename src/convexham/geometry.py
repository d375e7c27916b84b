"""Exact geometric predicates on integer points.

All decisions reduce to signs of integer determinants, computed with
Python's arbitrary-precision integers.  The row kernel (PointBack) evaluates
the same determinants with numpy from exact coordinate differences, on
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


class PointBack:
    """Numpy mirrors of a 1-indexed integer point table, for exact rows.

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

    `walk_rows` answers the plane check's offset rows (`drawing.offset_hits`)
    of a path or cycle listed in order.  Its edge i runs from S_i to E_i,
    with e_i = E_i - S_i, and entry (i, j) takes o1 = cross(e_i, S_j - S_i),
    o2 = cross(e_i, E_j - S_i), o3 = cross(S_j - S_i, e_j) and
    o4 = cross(S_j - E_i, e_j): the sides of S_j and E_j of edge i's line,
    and of S_i and E_i of edge j's, each pair with one sign convention, so
    o1 o2 and o3 o4 are the products above.  Along a walk E_i = S_{i+1}, so
    the row A_k[i] = cross(e_i, S_{i+k} - S_i) is o1 of offset k and o2 of
    offset k - 1, and B_k[i] = cross(S_{i+k} - S_i, e_{i+k}) is o3 of
    offset k at i and o4 of offset k + 1 at i - 1; the two entries per row
    where an open walk breaks E_{c-1} = S_0 take their own determinant.
    Each value is still one determinant of exact differences, computed as
    fl(fl(t1) - fl(t2)), so the argument above and the m rule hold
    unchanged on float64 and object mirrors alike: the walk rows answer
    each entry as `cross_pairs` does, though rounding may send other
    entries to `_exact`.  A fan walk, (h, L) or (L, h), closed or not, with
    L a fan about h (below), is plane: its rows are all misses, formed from
    no window.  A closed walk drops its repeated last label, and then h is
    tried as its first label and as its last: `hamiltonian_cycle` lists its
    hub second to last.

    A fan about a hub h is a label list L = (x_1, ..., x_r) that `angular`
    finds to be a cyclic shift of `ccw_order(self, h, L)` with every
    o2_i = cross(P_{x_i}, P_{x_{i+1}}) > 0, P_x = x - h an exact
    difference, or of the reversed sort with every o2_i < 0.  Each pair
    x_i x_{i+1} then turns by under π, so it lies in the closed wedge from
    P_{x_i} to P_{x_{i+1}}.  These wedges are gaps of one angular sort, so
    no label of L lies strictly inside one and their interiors are
    disjoint.  A star edge {w, h}, w in L, meets a wedge only along w's
    ray, and two wedges meet only at h or along a shared ray; a segment
    meets its wedge's rays only at its endpoints, so the pair misses every
    star edge and every pair it shares no label with.  A float o2 != 0 has
    the exact sign, so fans are found without any row.

    `star_rows` answers the rows of pairs {a, b} consecutive in an order
    against the star edges {w, h} of a hub h.  With P_x = x - h,
    orient(x, y, h) = cross(y - x, h - x) = cross(P_y - P_x, -P_x) =
    cross(P_x, P_y) as integers, and orient is invariant under cyclic
    shifts, so o2 = orient(a, b, h) = cross(P_a, P_b), o3 =
    orient(w, h, a) = cross(P_a, P_w) and o4 = orient(w, h, b) =
    cross(P_b, P_w).  G[i, δ] = cross(P_order[i], P_order[i+δ]) is thus o2
    of row i at δ = 1, o3 of row i at δ >= 2, and o4 of row i - 1.  A
    block of rows whose o2 all have the sign `angular` gives the order is
    a block of a fan's pairs, all misses, and costs no G row.  Any other
    block (the pair of a hub on the hull that turns by more than π, an o2
    rounded to 0, an order that is not angular) forms each G row once and
    q = o3 o4 for every
    entry; where q > 0, m = max(o1 o2, q) > 0 whatever o1 is, and only where
    q <= 0 is o1 = cross(b - a, w - a) formed, and m with it.  Each value is
    one determinant of exact differences (|P| <= 2^53), computed as
    fl(fl(t1) - fl(t2)), so the argument and the m rule above hold
    unchanged, though rounding may send other entries to `_exact`.
    """

    def __init__(self, pts):
        # pts: tuple with index 0 unused, entries (x, y) python ints
        self.pts = pts
        big = max(abs(c) for p in pts[1:] for c in p) > _FLOAT_SAFE
        dtype = object if big else np.float64
        self.xs = np.array([0] + [p[0] for p in pts[1:]], dtype=dtype)
        self.ys = np.array([0] + [p[1] for p in pts[1:]], dtype=dtype)

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

    def walk_rows(self, walk):
        """The offset rows of the plane check of the walk through the label array `walk`.

        Edge t is {walk[t], walk[t + 1]}, for t < m = len(walk) - 1: the m
        edges of `drawing.offset_hits`, in order.  Returns rows(k0, k1), the
        bool (k1 - k0, c) answer of `cross_pairs` to that function's offset
        rows k0..k1-1: row k pairs cycle edge i (walk edge s + i, s = 1 - m
        % 2, c = m - s) with cycle edge (i + k) mod c, row 0 edge 0 with
        each cycle edge.  A fan walk's rows are all misses: a closed walk
        drops its repeated last label, and then its first label and its last
        are tried as the hub.  Otherwise the coordinates are gathered once,
        and a block is computed from copied windows of them; only the labels
        of the entries that reach `_exact` are gathered.
        """
        m = len(walk) - 1
        s = 1 - m % 2
        c = m - s
        labels = walk[:m] if walk[0] == walk[m] else walk
        if self._fan(labels[0], labels[1:]) or self._fan(labels[-1], labels[:-1]):
            return lambda k0, k1: np.zeros((k1 - k0, c), dtype=bool)
        last = (c - 1) // 2
        # Cycle edge i runs from S_i to E_i = S_{i+1}, but for an open walk
        # E_{c-1} != S_0.  Row δ of a window holds S_{i+δ}, E_{i+δ} or
        # e_{i+δ} = E_{i+δ} - S_{i+δ} (or their labels), for i = 0..c.
        ends = walk[s:-1], walk[s + 1:]
        twice = np.concatenate([x for e in ends for x in (e, e, e[:1])]).reshape(2, -1)
        xs, ys = self.xs[twice], self.ys[twice]
        sx, sy = xs[0, :c], ys[0, :c]
        ex, ey = xs[1] - xs[0], ys[1] - ys[0]
        (wsx, wsy, wex, wey), (cw, dw) = (_windows(v, last + 2, c + 1)
                                          for v in ((xs[0], ys[0], ex, ey), twice))
        ex, ey = ex[:c], ey[:c]
        fix = None
        if walk[m] != walk[s] and last:
            # With E_{c-1} != S_0, o2 of row k at i = c - 1 - k and o4 of
            # row k at i = c - 1 (j = k - 1) would read S_0 for E_{c-1}.
            # Both are fix[i] = cross(e_i, E_{c-1} - S_i) = cross(S_i -
            # E_{c-1}, e_i).
            fix = ex * (ys[1, c - 1] - sy)
            fix -= ey * (xs[1, c - 1] - sx)

        def offsets(k0, k1, out):
            # max(o1 o2, o3 o4) of rows k0..k1-1, k0 >= 1, into out.  With
            # D_δ[i] = S_{i+δ} - S_i, A_δ[i] = cross(e_i, D_δ[i]) is o1 of
            # row δ and o2 of row δ - 1, and B_δ[i] = cross(D_δ[i], e_{i+δ})
            # is o3 of row δ at i and o4 of row δ + 1 at i - 1.
            r = k1 - k0
            dx, dy = wsx[k0 - 1:k1 + 1].copy(), wsy[k0 - 1:k1 + 1].copy()
            dx -= wsx[0]
            dy -= wsy[0]
            a = ex * dy[1:, :c]
            a -= ey * dx[1:, :c]
            b, fx = wey[k0 - 1:k1].copy(), wex[k0 - 1:k1].copy()
            b *= dx[:-1]
            fx *= dy[:-1]
            b -= fx
            p = a[:-1] * a[1:]
            q = b[1:, :c] * b[:-1, 1:]
            if fix is not None:
                at = slice(c - 1 - k0, c - 1 - k0 + r * (c - 1), c - 1)
                p.reshape(-1)[at] = a.reshape(-1)[at] * fix[c - 1 - k0:c - 1 - k1:-1]
                q[:, c - 1] = b[1:, c - 1] * fix[k0 - 1:k1 - 1]
            np.maximum(p, q, out=out)

        def row0(out):
            # Edge 0, from S = walk[0] to E = walk[1] = S_0, against every
            # cycle edge: o1, o2 of S_i - S and E_i - S, o3 of S_i - S, o4
            # of S_i - S_0.
            x0, y0 = self.xs[walk[0]], self.ys[walk[0]]
            e0x, e0y = sx[0] - x0, sy[0] - y0
            ux, uy = sx - x0, sy - y0
            vx, vy = xs[1, :c] - x0, ys[1, :c] - y0
            o12 = e0x * uy - e0y * ux
            o12 *= e0x * vy - e0y * vx
            o3 = ux * ey - uy * ex
            o3 *= (sx - sx[0]) * ey - (sy - sy[0]) * ex
            np.maximum(o12, o3, out=out)

        def rows(k0, k1):
            cs, ds = cw[k0:k1, :c], dw[k0:k1, :c]
            mx = np.empty((k1 - k0, c), sx.dtype)
            if k0:
                offsets(k0, k1, mx)
            else:
                row0(mx[0])
                if k1 > 1:
                    offsets(1, k1, mx[1:])
                cs, ds = cs.copy(), ds.copy()
                cs[0], ds[0] = walk[:2]
            res = mx < 0
            # Entries with mx == 0, among them every pair of neighbours, go
            # to _exact, as in cross_pairs.
            idx = (mx == 0).ravel().nonzero()[0]
            if idx.size:
                res.reshape(-1)[idx] = self._exact(*ends, cs, ds, idx, res.shape)
            return res

        return rows

    def star_rows(self, order, hub):
        """The rows of pairs consecutive in `order` against the star edges of `hub`.

        Returns rows(i0, i1), the bool (i1 - i0, k - 2) answer of
        `cross_pairs(order[i], order[i + 1], order[i + 2:i + k], hub)`, the
        window taken cyclically, for i = i0..i1-1, k = len(order) >= 3.
        The labels are checked once (`_star_labels`).  A block whose rows'
        o2 all have one sign is all misses if `angular` gives the order that
        sign, which the first such block decides; another block's G
        rows come from windows of differences gathered once, and o1 and the
        labels are gathered only at the entries that o3 o4 leaves open.
        """
        twice = _star_labels(order, hub, len(self.pts) - 1)
        k = len(twice) // 2
        xs, ys = self.xs[twice], self.ys[twice]
        px, py = xs - self.xs[hub], ys - self.ys[hub]
        ex, ey = xs[1:] - xs[:-1], ys[1:] - ys[:-1]  # b - a of row i
        # Row i of a window holds the k - 1 differences P after order[i].
        gx, gy = _windows((px[1:], py[1:]), k + 1, k - 1)
        last = [None, None]  # the last G row computed, and its row index
        # o2 of row i, G[i, 1], by the statements of orients.
        o2 = px[:k] * py[1:k + 1]
        o2 -= py[:k] * px[1:k + 1]
        sign = ((o2 > 0).astype(np.int8) - (o2 < 0)).tolist()
        turn = None  # self.angular(hub, order), sorted when first asked

        def orients(at, window):
            g = px[at] * gy[window]
            g -= py[at] * gx[window]
            return g

        def rows(i0, i1):
            nonlocal turn
            s = sign[i0]
            if s and sign[i0:i1].count(s) == i1 - i0:
                # Pairs of a fan miss every star edge.  The s-t solver's
                # orders have their hub on their hull, and most of their
                # blocks hold its long turn, so they seldom sort.
                if turn is None:
                    turn = self.angular(hub, twice[:k])
                if turn == s:
                    return np.zeros((i1 - i0, k - 2), dtype=bool)
            if i1 == i0 + 1:
                # A scan at k > 1,367 asks one row per call: G row i0 is
                # then the previous call's last.
                top = last[0] if last[1] == i0 else orients(i0, i0)
                bot = orients(i1, i1)
                q = top[1:] * bot[:-1]
            else:
                g = orients((slice(i0, i1 + 1), None), slice(i0, i1 + 1))
                q = (g[:-1, 1:] * g[1:, :-1]).ravel()
                bot = g[-1]
            last[:] = bot, i1
            res = np.zeros(q.size, dtype=bool)
            # q = o3 o4 > 0 makes m > 0 whatever o1 is: a miss.  Only the
            # other entries form o1, at row r = i - i0 and column j of the
            # block: a = order[i], b = order[i + 1], w = order[i + j + 2].
            idx = (q <= 0).nonzero()[0]
            if idx.size:
                r, j = np.divmod(idx, k - 2)
                i = r + i0
                w = i + j + 2
                o1 = ex[i] * (ys[w] - ys[i])
                o1 -= ey[i] * (xs[w] - xs[i])
                o1 *= o2[i]
                m = np.maximum(o1, q[idx], out=o1)
                res[idx] = m < 0
                # Entries with m == 0 go to _exact, as in cross_pairs.
                zero = (m == 0).nonzero()[0]
                if zero.size:
                    res[idx[zero]] = self._exact(twice[i], twice[i + 1], twice[w], hub, zero,
                                                 m.shape)
            return res.reshape(i1 - i0, k - 2)

        return rows

    def angular(self, hub, labels):
        """+1 if the label array is a cyclic shift of `ccw_order(self, hub, labels)`, -1 if
        one of its reverse, else 0."""
        ccw, got = ccw_order(self, hub, labels), labels.tolist()
        i = got.index(ccw[0])
        got = got[i:] + got[:i]
        return 1 if got == ccw else -int(got[1:] == ccw[:0:-1])

    def _fan(self, hub, labels):
        # Is the label array, read as a path, a fan about hub: every o2 of
        # one sign, which `angular` gives too?
        px, py = self.xs[labels] - self.xs[hub], self.ys[labels] - self.ys[hub]
        o2 = px[:-1] * py[1:]
        o2 -= py[:-1] * px[1:]
        turn = 1 if (o2 > 0).all() else -1 if (o2 < 0).all() else 0
        return turn != 0 and self.angular(hub, labels) == turn

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

