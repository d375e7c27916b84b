import math
from functools import cmp_to_key
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from convexham import generators, geometry
from convexham.errors import DegeneratePointSet
from convexham.geometry import (
    PointBack,
    assert_general_position,
    ccw_order,
    orientation,
    segments_cross,
)
from conftest import polygon_side, strictly_convex_ccw

coord = st.integers(-1000, 1000)
point = st.tuples(coord, coord)

# Coordinate magnitudes: small; 2^40..2^52, where the float64 keys of
# distinct lines can tie; beyond 2^52, where the general-position check and
# the angular sort take their keys from Python-int division and the row
# kernel runs on Python ints.
SCALES = [2**10, 2**40, 2**46, 2**52, 2**60]


def ref_ccw_order(points, anchor, candidates):
    """Exact reference: half plane first, then the cross-product comparator."""
    ax, ay = points[anchor]

    def key(v):
        dx, dy = points[v][0] - ax, points[v][1] - ay
        return (0 if dy > 0 or (dy == 0 and dx > 0) else 1), dx, dy

    def cmp(u, v):
        (hu, ux, uy), (hv, vx, vy) = key(u), key(v)
        if hu != hv:
            return hu - hv
        c = ux * vy - uy * vx
        return -1 if c > 0 else 1

    return sorted(candidates, key=cmp_to_key(cmp))


def brute_general_position(points):
    """O(n^3) reference: distinct points and no zero orientation."""
    return len(set(points)) == len(points) and all(
        orientation(a, b, c) != 0 for a, b, c in combinations(points, 3)
    )


def assert_verdict_matches_brute_force(pts):
    if brute_general_position(pts):
        assert_general_position(pts)
    else:
        with pytest.raises(DegeneratePointSet):
            assert_general_position(pts)


@st.composite
def scaled_points(draw, min_size, max_size):
    scale = draw(st.sampled_from(SCALES))
    c = st.integers(-scale, scale)
    return draw(st.lists(st.tuples(c, c), min_size=min_size, max_size=max_size, unique=True))


@st.composite
def near_parallel_pair(draw):
    """Two directions whose float keys -dx/dy collide though the rays differ.

    (m, m - 1) and (m + 1, m) have cross product 1; for m near 2^40..2^52
    their keys agree to within an ulp.  A random quarter turn and sign
    moves the pair into every half plane.
    """
    m = draw(st.integers(2**40, 2**51))
    pair = [(m, m - 1), (m + 1, m)]
    if draw(st.booleans()):
        pair = [(-y, x) for x, y in pair]
    if draw(st.booleans()):
        pair = [(-x, -y) for x, y in pair]
    return pair


def test_orientation_signs():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0


@given(point, point, point)
def test_orientation_antisymmetry(a, b, c):
    assert orientation(a, b, c) == -orientation(b, a, c) == orientation(b, c, a)


def test_segments_cross_basic():
    assert segments_cross((0, 0), (2, 2), (0, 2), (2, 0))
    # Shared endpoint: touching, not crossing.
    assert not segments_cross((0, 0), (2, 2), (0, 0), (2, 0))
    # Disjoint.
    assert not segments_cross((0, 0), (1, 0), (0, 5), (1, 5))
    # One endpoint on the other segment's line but outside it.
    assert not segments_cross((0, 0), (2, 2), (3, 3), (5, 0))


@given(point, point, point, point)
def test_segments_cross_symmetry(a, b, c, d):
    assert segments_cross(a, b, c, d) == segments_cross(c, d, a, b)
    assert segments_cross(a, b, c, d) == segments_cross(b, a, d, c)


def test_general_position_accepts():
    assert_general_position([(0, 0), (5, 1), (2, 7), (9, 4)])


def test_general_position_duplicate():
    with pytest.raises(DegeneratePointSet):
        assert_general_position([(0, 0), (1, 2), (0, 0)])


def test_general_position_collinear():
    with pytest.raises(DegeneratePointSet):
        assert_general_position([(0, 0), (1, 1), (3, 3), (5, 2)])


@given(scaled_points(3, 14), st.data())
def test_general_position_matches_brute_force(pts, data):
    if data.draw(st.booleans()):
        # Plant a collinear triple p, q, p + t (q - p).
        i, j = data.draw(st.tuples(st.integers(0, len(pts) - 1), st.integers(0, len(pts) - 1)))
        assume(i != j)
        t = data.draw(st.sampled_from([-2, -1, 2, 3]))
        (px, py), (qx, qy) = pts[i], pts[j]
        pts = pts + [(px + t * (qx - px), py + t * (qy - py))]
        pts = data.draw(st.permutations(pts))
    assert_verdict_matches_brute_force(pts)
    # Blocks of a few rows must give the verdict of one block.
    with mock.patch.object(geometry, "_GP_BLOCK_ENTRIES", 20):
        assert_verdict_matches_brute_force(pts)


@given(scaled_points(2, 8), near_parallel_pair(), st.integers(-2**40, 2**40), st.integers(0, 8))
def test_general_position_near_parallel_keys(pts, pair, shift, at):
    # An anchor whose float keys tie must be settled by the exact row.
    anchor = (shift, -shift)
    planted = [anchor] + [(anchor[0] + dx, anchor[1] + dy) for dx, dy in pair]
    pts = pts[:at] + planted + pts[at:]
    assert_verdict_matches_brute_force(pts)


def test_general_position_collinear_in_late_block():
    d = generators.random_geometric(400, 5)
    pts = list(d.points[1:])
    (px, py), (qx, qy) = pts[350], pts[390]
    assert_general_position(pts)
    with pytest.raises(DegeneratePointSet, match="points 350, "):
        assert_general_position(pts + [(2 * qx - px, 2 * qy - py)])


@given(scaled_points(2, 14), st.lists(near_parallel_pair(), max_size=3), st.data())
def test_ccw_order_matches_reference(pts, pairs, data):
    anchor = data.draw(st.sampled_from(pts))
    cands = [p for p in pts if p != anchor]
    for pair in pairs:
        cands += [(anchor[0] + dx, anchor[1] + dy) for dx, dy in pair]
    # Strict angular order needs distinct rays from the anchor.
    rays = set()
    for x, y in cands:
        dx, dy = x - anchor[0], y - anchor[1]
        g = math.gcd(dx, dy)
        rays.add((dx // g, dy // g))
    assume(len(rays) == len(cands))
    table = (None, anchor, *cands)
    labels = data.draw(st.permutations(range(2, len(table))))
    assert ccw_order(PointBack(table), 1, labels) == ref_ccw_order(table, 1, labels)


def test_ccw_order_float_key_tie():
    m = 2**51
    pts = (None, (0, 0), (m + 1, m), (-5, 3), (m, m - 1), (1, -7))
    keys = geometry._line_keys(np.array([float(m), m + 1.0]), np.array([m - 1.0, float(m)]))
    assert keys[0] == keys[1]
    assert ccw_order(PointBack(pts), 1, [2, 3, 4, 5]) == [4, 2, 3, 5]


def test_keys_past_2_52_come_from_integer_division():
    # Scaling by 2^40 keeps every quotient -dx/dy, so the correctly rounded
    # keys of the Python ints are those of the unscaled set: no equal keys,
    # and neither the exact row nor the exact comparator is asked.
    n = 60
    d = generators.random_geometric(n, 1)
    pts = [(x * 2**40, y * 2**40) for x, y in d.points[1:]]
    back = PointBack((None, *pts))
    assert back.xs.dtype == object
    with (mock.patch.object(geometry, "_assert_gp_row", wraps=geometry._assert_gp_row) as rows,
          mock.patch.object(geometry, "_ccw_cmp", wraps=geometry._ccw_cmp) as cmps):
        assert_general_position(pts)
        got = [ccw_order(back, a, [v for v in range(1, n + 1) if v != a]) for a in range(1, n + 1)]
    assert rows.call_count == cmps.call_count == 0
    assert got == [ref_ccw_order(back.pts, a, [v for v in range(1, n + 1) if v != a])
                   for a in range(1, n + 1)]


def test_keys_past_float_range_take_the_exact_code():
    # A quotient past 2^1024 has no float64 key: its block of anchors, or
    # its angular sort, goes to the exact code.
    big = 2**1100
    with pytest.raises(OverflowError):
        geometry._line_keys(np.array([big], dtype=object), np.array([1], dtype=object))
    pts = [(0, 0), (big, 1), (3, big + 5), (-7, -2), (5, 3), (-big, 9)]
    assert_verdict_matches_brute_force(pts)
    assert_verdict_matches_brute_force(pts + [(2 * big, 2)])
    table = (None, *pts)
    for a in range(1, len(table)):
        cands = [v for v in range(1, len(table)) if v != a]
        assert ccw_order(PointBack(table), a, cands) == ref_ccw_order(table, a, cands)


def test_ccw_order_compass():
    pts = (None, (0, 0), (10, 1), (1, 10), (-10, 2), (-1, -10))
    order = ccw_order(PointBack(pts), 1, [2, 3, 4, 5])
    # Starting vertex is unspecified; the cyclic order is fixed.
    i = order.index(2)
    assert order[i:] + order[:i] == [2, 3, 4, 5]


def test_strictly_convex_ccw():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert strictly_convex_ccw(square)
    assert not strictly_convex_ccw(square[::-1])  # clockwise
    assert not strictly_convex_ccw([(0, 0), (4, 0), (1, 1), (0, 4)])  # reflex


def test_polygon_side_triangle():
    tri = [(0, 0), (10, 0), (0, 10)]
    assert polygon_side(tri, (1, 1)) == 1
    assert polygon_side(tri, (9, 9)) == 0
    assert polygon_side(tri, (-1, 5)) == 0


@given(st.integers(0, 500))
def test_polygon_side_matches_orientation_on_triangles(seed):
    # For a ccw triangle, inside == all three orientations positive.
    d = generators.random_geometric(6, seed)
    pts = d.points
    a, b, c = pts[1], pts[2], pts[3]
    if orientation(a, b, c) < 0:
        a, b = b, a
    for w in (4, 5, 6):
        p = pts[w]
        expected = (
            orientation(a, b, p) > 0
            and orientation(b, c, p) > 0
            and orientation(c, a, p) > 0
        )
        assert polygon_side([a, b, c], p) == int(expected)


@given(st.integers(4, 12), st.integers(0, 300))
def test_pointback_rows_match_scalar_predicate(n, seed):
    d = generators.random_geometric(n, seed)
    back = PointBack(d.points)
    pts = d.points
    for a in range(1, n):
        b = a % n + 1
        if a == b:
            continue
        others = [(c, dd) for c in range(1, n + 1) for dd in range(c + 1, n + 1)]
        cs = np.array([c for c, _ in others])
        ds = np.array([dd for _, dd in others])
        rows = back.cross_pairs(min(a, b), max(a, b), cs, ds)
        for (c, dd), got in zip(others, rows):
            if c in (a, b) or dd in (a, b):
                assert not got
            else:
                assert got == segments_cross(pts[a], pts[b], pts[c], pts[dd])


def test_pointback_exact_fallback_huge_coords():
    # Beyond the float-safe window the mirrors hold the Python ints, and the
    # same row kernel runs on them exactly.
    big = 2**60
    pts = (None, (0, 0), (big, 1), (1, big), (big, big - 3))
    back = PointBack(pts)
    assert back.xs.dtype == object
    rows = back.cross_pairs(1, 4, np.array([2]), np.array([3]))
    assert rows[0] == segments_cross(pts[1], pts[4], pts[2], pts[3])


def _rows_reference(pts, entries):
    """Scalar answers per entry (a, b, c, d): shared endpoints never cross."""
    return [
        c not in (a, b) and d not in (a, b) and segments_cross(pts[a], pts[b], pts[c], pts[d])
        for a, b, c, d in entries
    ]


def _ask_rows(back, entries, scalar):
    """PointBack rows over `entries`, with the operands named in `scalar`
    (a subset of "abd") passed as one label taken from the first entry."""
    cols = [list(col) for col in zip(*entries)]
    for j, name in enumerate("abcd"):
        if name in scalar:
            cols[j] = [cols[j][0]] * len(entries)
    a, b, cs, ds = (
        int(col[0]) if name in scalar else np.array(col, dtype=np.int64)
        for name, col in zip("abcd", cols)
    )
    return back.cross_pairs(a, b, cs, ds).tolist(), list(zip(*cols))


OPERAND_FORMS = ["", "a", "b", "d", "ab", "ad", "bd", "abd"]


@given(st.integers(4, 9), st.sampled_from([1, 2**40, 2**60]), st.data())
def test_pointback_operand_forms_match_scalar_predicate(n, scale, data):
    # Labels repeat freely, so entries share endpoints, repeat a segment or
    # ask an edge against itself; on a 5x5 grid many triples are collinear.
    grid = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=n, max_size=n, unique=True))
    pts = (None, *((x * scale + 7, y * scale - 3) for x, y in grid))
    back = PointBack(pts)
    assert (back.xs.dtype == np.float64) == (scale < 2**52)
    label = st.integers(1, n)
    entries = data.draw(st.lists(st.tuples(label, label, label, label), min_size=1, max_size=30))
    for scalar in OPERAND_FORMS:
        got, asked = _ask_rows(back, entries, scalar)
        assert got == _rows_reference(pts, asked), scalar


# Operand shapes of a kernel call, per operand (a, b, cs, ds): a label, an
# (R, 1) column, an (L,) row or an (R, L) block.  The 1-D rows come first:
# labels against a row (the scan), then array a, b or ds; the 2-D blocks
# are an (R, 1) pair column against full operands, with ds a label, a
# column or a block, against one (L,) row (split_by_triangle), an (R, 1)
# column c against (R, L) d (the triangle corner rows), and a label pair
# against a block (cycle sides).
SHAPE_FORMS = [
    ("label", "label", "row", "label"),
    ("row", "label", "row", "label"),
    ("label", "row", "row", "label"),
    ("label", "label", "row", "row"),
    ("row", "row", "row", "row"),
    ("col", "col", "full", "full"),
    ("col", "col", "full", "label"),
    ("col", "col", "full", "col"),
    ("col", "col", "row", "label"),
    ("col", "col", "row", "row"),
    ("col", "col", "col", "full"),
    ("label", "label", "full", "full"),
]


def _operand(block, kind):
    """The part of an (R, L) label block that an operand of this kind reads."""
    return {"label": int(block[0, 0]), "col": block[:, :1], "row": block[0],
            "full": block}[kind]


def _beyond_float_safe(pts, shift):
    """pts (index 0 unused) times 2^60, moved by (shift, -shift): past 2^52,
    with every orientation sign kept."""
    return (None, *(((x << 60) + shift, (y << 60) - shift) for x, y in pts[1:]))


@st.composite
def kernel_point_sets(draw):
    """A random general-position set, the same moved past 2^52, where the
    kernel runs on integer mirrors, or nine near-collinear points (see
    _near_collinear) moved to coordinates just under 2^52, where the float
    products round and their differences can tie."""
    kind = draw(st.sampled_from(["random", "beyond 2^52", "near 2^52"]))
    if kind != "near 2^52":
        pts = generators.random_geometric(draw(st.integers(4, 12)), draw(st.integers(0, 300))).points
        return pts if kind == "random" else _beyond_float_safe(pts, draw(st.integers(-2**62, 2**62)))
    data = draw(st.data())
    near = _near_collinear(2**52, data)
    shift = 2**52 - max(max(p) for p in near) - draw(st.integers(0, 2**20))
    return (None, *((x + shift, y + shift) for x, y in near))


@given(kernel_point_sets(), st.integers(1, 4), st.integers(1, 6), st.data())
def test_pointback_shapes_match_scalar_predicate(pts, rows, cols, data):
    back = PointBack(pts)
    assert (back.xs.dtype == np.float64) == (max(abs(c) for p in pts[1:] for c in p) <= 2**52)
    label = st.integers(1, len(pts) - 1)
    blocks = [np.array(data.draw(st.lists(st.lists(label, min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)), dtype=np.int64)
              for _ in "abcd"]
    for form in SHAPE_FORMS:
        ops = [_operand(block, kind) for block, kind in zip(blocks, form)]
        got = back.cross_pairs(*ops)
        grid = np.broadcast_arrays(*map(np.asarray, ops))
        assert got.dtype == bool and got.shape == grid[0].shape, form
        entries = zip(*(g.ravel().tolist() for g in grid))
        assert got.ravel().tolist() == _rows_reference(pts, entries), form


@given(st.integers(5, 30), st.integers(0, 300), st.integers(1, 4), st.integers(1, 8),
       st.booleans(), st.booleans(), st.data())
def test_pointback_falls_back_only_on_shared_endpoints(n, seed, rows, cols, swap, big, data):
    # Below 2^25 every product is exact, and in general position no
    # determinant of three distinct points is 0: the float signs decide every
    # entry but those sharing an endpoint, which zero both products.  Moved
    # past 2^52 (`big`), the kernel runs on integer mirrors, where every sign
    # is exact, and falls back on the same entries.
    pts = generators.random_geometric(n, seed).points
    assert max(max(p) for p in pts[1:]) < 2**25
    if big:
        pts = _beyond_float_safe(pts, data.draw(st.integers(-2**62, 2**62)))
    # a and c come from the lower labels, b and d from the upper ones (c and
    # d swapped with `swap`), so every shape asks proper segments, and the
    # shared endpoints are a = c and b = d, or a = d and b = c.
    low, high = st.integers(1, n // 2), st.integers(n // 2 + 1, n)
    blocks = [np.array(data.draw(st.lists(st.lists(half, min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)), dtype=np.int64)
              for half in ((low, high, high, low) if swap else (low, high, low, high))]
    asked = []
    exact = PointBack._exact

    def spy(self, a, b, cs, ds, idx, shape):
        asked.append((shape, idx.tolist()))
        return exact(self, a, b, cs, ds, idx, shape)

    back = PointBack(pts)
    with mock.patch.object(PointBack, "_exact", spy):
        for form in SHAPE_FORMS:
            asked.clear()
            ops = [_operand(block, kind) for block, kind in zip(blocks, form)]
            back.cross_pairs(*ops)
            a, b, c, d = (g.ravel() for g in np.broadcast_arrays(*map(np.asarray, ops)))
            shared = np.flatnonzero((a == c) | (a == d) | (b == c) | (b == d)).tolist()
            assert asked == ([(np.broadcast_shapes(*map(np.shape, ops)), shared)]
                             if shared else []), form


def _near_collinear(scale, data):
    # Three points on each of three adjacent lattice lines of a long
    # primitive direction s, offset by -(u, v), 0 and (u, v) with
    # cross(s, (u, v)) = 1.  A point's determinant against two points of
    # another line is a small multiple of 1 while the float products are
    # near scale**2 / 64, and a segment from the first line to the last
    # crosses the middle one at a half-integer step, which only those tiny
    # determinants decide.
    sx = data.draw(st.integers(scale // 16, scale // 8))
    sy = data.draw(st.integers(1, scale // 8))
    g = math.gcd(sx, sy)
    sx, sy = sx // g, sy // g
    v = pow(sx, -1, sy)
    u = (sx * v - 1) // sy
    bx, by = data.draw(st.tuples(*[st.integers(-scale // 4, scale // 4)] * 2))
    return [(bx + k * u + j * sx, by + k * v + j * sy) for k in (-1, 0, 1) for j in range(3)]


def _all_rows_with_fallbacks(pts):
    """Every edge against every edge, asked row by row with array operands;
    also returns how often the kernel fell back to integers."""
    n = len(pts) - 1
    back = PointBack(pts)
    assert back.xs.dtype == np.float64
    edges = list(combinations(range(1, n + 1), 2))
    cs = np.array([c for c, _ in edges])
    ds = np.array([d for _, d in edges])
    with mock.patch.object(geometry, "segments_cross", wraps=segments_cross) as spy:
        for a, b in edges:
            got = back.cross_pairs(np.full(len(edges), a), np.full(len(edges), b), cs, ds)
            want = _rows_reference(pts, [(a, b, c, d) for c, d in edges])
            assert got.tolist() == want
    return spy.call_count


@given(st.sampled_from([2**40, 2**52]), st.data())
def test_pointback_near_collinear_points(scale, data):
    pts = (None, *_near_collinear(scale, data))
    assert _all_rows_with_fallbacks(pts) > 0


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=2, max_size=5,
                unique=True))
def test_pointback_tight_cluster_in_huge_span(cluster):
    # Two far points stretch the span to 2^53: determinants mixing them with
    # the cluster have products up to 2^104 that round, while those inside
    # the cluster stay small and exact.  A planted collinear triple makes
    # the kernel fall back to integers.
    planted = [(0, 0), (3, 1), (6, 2)]
    cluster = planted + [p for p in cluster if p not in planted]
    pts = (None, *cluster, (2**52, 2**52 - 1), (-(2**52), 5))
    assert _all_rows_with_fallbacks(pts) > 0
