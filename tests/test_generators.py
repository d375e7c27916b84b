import math
import random
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import generators
from convexham.drawing import all_edges, same_drawing
from convexham.errors import DegeneratePointSet, ExhaustedRejection, TooFewVertices, TooLarge
from conftest import adjacent, canon_pair, strictly_convex_ccw


def test_point_set_validation():
    with pytest.raises(ValueError):
        generators.point_set([(0.5, 1), (2, 3), (4, 5)])
    with pytest.raises(TooFewVertices):
        generators.point_set([(0, 0), (1, 1)])
    with pytest.raises(DegeneratePointSet):
        generators.point_set([(0, 0), (1, 1), (2, 2)])


def test_geometric_square():
    d = generators.geometric([(0, 0), (10, 0), (10, 10), (0, 10)])
    assert d.n == 4
    assert d.points[1] == (0, 0)
    assert d.crosses((1, 3), (2, 4))
    assert len(d.crossing_set()) == 1


@pytest.mark.parametrize("n", [*range(3, 13), 500, 2000])
def test_convex_position(n):
    d = generators.convex_position(n)
    assert d.n == n
    assert strictly_convex_ccw([d.points[v] for v in range(1, n + 1)])
    if n <= 12:  # the crossing set is quartic in n
        # In convex position every 4-subset contributes exactly one crossing.
        assert len(d.crossing_set()) == comb(n, 4)


def test_random_geometric_deterministic():
    a = generators.random_geometric(9, 11)
    b = generators.random_geometric(9, 11)
    assert a.points == b.points
    c = generators.random_geometric(9, 12)
    assert c.points != a.points


def test_random_geometric_resamples_a_degenerate_draw():
    # A degenerate first draw is dropped and the whole set drawn again from
    # the same stream; a degenerate draw every time ends in ExhaustedRejection.
    real = generators.geometric
    calls = []

    def once(pts):
        calls.append(pts)
        if len(calls) == 1:
            raise DegeneratePointSet("planted")
        return real(pts)

    with mock.patch.object(generators, "geometric", once):
        d = generators.random_geometric(9, 11)
    rng = random.Random(11)
    side = max(10**4, 8 * 9**3)
    draws = [[(rng.randrange(side + 1), rng.randrange(side + 1)) for _ in range(9)]
             for _ in range(2)]
    assert calls == draws
    assert d.points[1:] == tuple(draws[1])

    def always(pts):
        calls.append(pts)
        raise DegeneratePointSet("planted")

    calls.clear()
    with mock.patch.object(generators, "geometric", always):
        with pytest.raises(ExhaustedRejection,
                           match=r"^no general-position sample for n=9, seed=11 in 64 tries$"):
            generators.random_geometric(9, 11)
    assert len(calls) == 64


@given(st.integers(3, 30), st.integers(0, 1000))
def test_random_geometric_valid(n, seed):
    d = generators.random_geometric(n, seed)
    assert d.n == n and d.points is not None


@pytest.mark.parametrize("n", range(5, 8))
def test_twisted_crossing_rule(n):
    d = generators.twisted(n)
    got = d.crossing_set()
    want = {
        canon_pair((a, b), (c, dd))
        for a, b in all_edges(n)
        for c, dd in all_edges(n)
        if a < c and dd < b  # strict nesting
    }
    assert got == want
    assert len(got) == comb(n, 4)


def test_twisted_rotation_shape():
    d = generators.twisted(5)
    # Vertex i reads (n, ..., i+1, 1, ..., i-1); canonical form starts at
    # the smallest label.
    assert d.rotation_of(1) == (2, 5, 4, 3)
    rot3 = d.rotation_of(3)
    assert sorted(rot3) == [1, 2, 4, 5]
    i = rot3.index(5)
    assert rot3[i:] + rot3[:i] == (5, 4, 1, 2)


def spiral_polylines(n, steps=360):
    """Float polylines of the twisted drawing's log-spiral edges (for cross-checks).

    Edge {a, b} is the curve r(t) = r_a * (r_b / r_a)**t, angle 2*pi*t, for
    t in [0, 1], with r_i = 2**i.  Returns {edge: [(x, y), ...]}.
    """
    curves = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            pts = []
            for s in range(steps + 1):
                t = s / steps
                r = 2.0 ** (a + (b - a) * t)
                ang = 2 * math.pi * t
                pts.append((r * math.cos(ang), r * math.sin(ang)))
            curves[(a, b)] = pts
    return curves


def _polylines_cross(p, q):
    from convexham.geometry import orientation

    def seg_cross(a, b, c, d):
        o1, o2 = orientation(a, b, c), orientation(a, b, d)
        o3, o4 = orientation(c, d, a), orientation(c, d, b)
        return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)

    hits = 0
    for a, b in zip(p, p[1:]):
        for c, d in zip(q, q[1:]):
            if seg_cross(a, b, c, d):
                hits += 1
    return hits


@pytest.mark.parametrize("n", [5, 6])
def test_twisted_matches_spiral_realization(n):
    # Independent geometry check: trace the log-spiral curves as float
    # polylines and count proper intersections between independent edges.
    # Prime step count: crossings happen at parameters p/q with small q, so
    # none lands exactly on a polyline vertex where the strict segment test
    # would miss it.
    d = generators.twisted(n)
    curves = spiral_polylines(n, steps=241)
    for e, f in combinations(all_edges(n), 2):
        if adjacent(e, f):
            continue
        hits = _polylines_cross(curves[e], curves[f])
        assert hits == int(d.crosses(e, f)), (e, f, hits)


@pytest.mark.parametrize("n", range(4, 9))
def test_two_page_no_outer_is_convex_position(n):
    assert same_drawing(
        generators.two_page(n), generators.convex_position(n)
    )


def test_two_page_outer_edge_crosses_nothing():
    d = generators.two_page(6, {(1, 4)})
    assert all((1, 4) not in pair for pair in d.crossing_set())
    # Inside pairs still cross by interleaving.
    assert d.crosses((2, 5), (3, 6))


def test_two_page_two_outer_edges_interleave():
    # Outside edges interleave on the outside page exactly like chords.
    d = generators.two_page(7, {(1, 4), (2, 6)})
    assert d.crosses((1, 4), (2, 6))
    d2 = generators.two_page(7, {(1, 4), (5, 7)})
    assert not d2.crosses((1, 4), (5, 7))


def test_two_page_rejects_bad_edges():
    with pytest.raises(ValueError):
        generators.two_page(5, {(1, 7)})
    with pytest.raises(ValueError):
        generators.two_page(5, {(2, 2)})


@pytest.mark.parametrize("make", [generators.twisted, generators.two_page])
def test_abstract_families_refuse_large_n_before_building(make):
    # The crossing table stops at n = 181; the refusal comes before the
    # O(n^2) rotations are built.
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            make(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("make", [
    generators.convex_position,
    lambda n: generators.random_geometric(n, 0),
    generators.twisted,
    generators.two_page,
])
@pytest.mark.parametrize("n", [0, 2])
def test_generators_refuse_fewer_than_three_vertices(make, n):
    with pytest.raises(TooFewVertices, match=f"^need n >= 3, got {n}$"):
        make(n)
