from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import generators
from convexham.drawing import (
    adjacent,
    all_edges,
    canon_edge,
    canon_pair,
    induced_subdrawing,
    instrumented,
    new_drawing,
    relabel,
    same_drawing,
    triangle_sides,
)
from convexham.errors import (
    AdjacentCrossing,
    InvalidRotation,
    K4Violation,
    NotAPermutation,
    TooFewVertices,
    VertexOutOfRange,
)

seeds = st.integers(0, 400)


def test_canon_edge():
    assert canon_edge(3, 1) == (1, 3)
    assert canon_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        canon_edge(2, 2)


def test_canon_pair_and_adjacent():
    assert canon_pair((4, 2), (3, 1)) == ((1, 3), (2, 4))
    assert adjacent((1, 2), (2, 3))
    assert not adjacent((1, 2), (3, 4))


def test_new_drawing_validation_errors():
    rot3 = [(2, 3), (1, 3), (1, 2)]
    with pytest.raises(TooFewVertices):
        new_drawing(2, [(2,), (1,)], [])
    with pytest.raises(InvalidRotation):
        new_drawing(3, rot3[:2], [])
    with pytest.raises(InvalidRotation):
        new_drawing(3, [(2, 2), (1, 3), (1, 2)], [])
    with pytest.raises(AdjacentCrossing):
        new_drawing(4, _rot(4), [((1, 2), (2, 3))])
    with pytest.raises(K4Violation):
        new_drawing(
            4, _rot(4), [((1, 2), (3, 4)), ((1, 3), (2, 4))]
        )


def _rot(n):
    return [tuple(u for u in range(1, n + 1) if u != v) for v in range(1, n + 1)]


def test_crosses_range_check(conv6):
    with pytest.raises(ValueError):
        conv6.crosses((1, 7), (2, 3))


@given(st.integers(4, 9), seeds)
def test_crossing_symmetry_and_adjacency(n, seed):
    d = generators.random_geometric(n, seed)
    edges = all_edges(n)
    for e, f in zip(edges, edges[1:]):
        assert d.crosses(e, f) == d.crosses(f, e)
        if adjacent(e, f):
            assert not d.crosses(e, f)


@given(st.integers(4, 8), seeds)
def test_k4_axiom_geometric(n, seed):
    # Any four points span at most one crossing among their three pairings.
    d = generators.random_geometric(n, seed)
    for quad in combinations(range(1, n + 1), 4):
        a, b, c, dd = quad
        pairings = [((a, b), (c, dd)), ((a, c), (b, dd)), ((a, dd), (b, c))]
        assert sum(d.crosses(e, f) for e, f in pairings) <= 1


@given(st.integers(4, 8), seeds)
def test_explicit_equals_geometric_oracle(n, seed):
    # Materialising the crossing set loses nothing: both oracles agree on
    # every edge pair, and the rebuilt drawing is structurally identical.
    d = generators.random_geometric(n, seed)
    d2 = new_drawing(n, d.rotations, d.crossing_set())
    assert same_drawing(d, d2)
    edges = all_edges(n)
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            assert d.crosses(e, f) == d2.crosses(e, f)


def test_rotation_canonical_form(rand9):
    for v in range(1, 10):
        rot = rand9.rotation_of(v)
        assert rot[0] == min(rot)
        assert sorted(rot) == [u for u in range(1, 10) if u != v]


def test_relabel_roundtrip(rand8):
    perm = {1: 5, 2: 3, 3: 8, 4: 1, 5: 7, 6: 2, 7: 4, 8: 6}
    back = {v: k for k, v in perm.items()}
    assert same_drawing(relabel(relabel(rand8, perm), back), rand8)
    with pytest.raises(NotAPermutation):
        relabel(rand8, {v: 1 for v in range(1, 9)})


@given(st.integers(6, 9), seeds, st.randoms())
def test_induced_commutes_with_relabel(n, seed, rng):
    d = generators.random_geometric(n, seed)
    verts = sorted(rng.sample(range(1, n + 1), 5))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm = {i + 1: p for i, p in enumerate(perm)}

    ind_then_rel = induced_subdrawing(d, verts)
    image = sorted(perm[v] for v in verts)
    rel_then_ind = induced_subdrawing(relabel(d, perm), image)
    # Restricted permutation in the 1..5 labels of both induced drawings.
    restricted = {
        ind_then_rel.to_sub[v]: rel_then_ind.to_sub[perm[v]] for v in verts
    }
    assert same_drawing(
        relabel(ind_then_rel.drawing, restricted), rel_then_ind.drawing
    )


def test_induced_too_small(rand8):
    with pytest.raises(TooFewVertices):
        induced_subdrawing(rand8, [1, 2])


@given(st.integers(5, 9), seeds)
def test_triangle_sides_partition(n, seed):
    d = generators.random_geometric(n, seed)
    part = triangle_sides(d, 1, 2, 3)
    off = set(range(4, n + 1))
    assert part.side_a | part.side_b == off
    assert not part.side_a & part.side_b
    if part.side_b:
        assert min(part.side_a) < min(part.side_b)


def test_instrumented_counts(rand8):
    view, counter = instrumented(rand8)
    view.crosses((1, 2), (3, 4))
    assert counter.count == 1
    view.cross_pairs(1, 2, [3, 4, 5], 6)
    assert counter.count == 4
    # The underlying drawing still answers identically.
    assert view.crosses((1, 3), (2, 4)) == rand8.crosses((1, 3), (2, 4))


def test_instrumented_views_count_independently(rand8):
    v1, c1 = instrumented(rand8)
    v2, c2 = instrumented(rand8)
    v1.cross_pairs(1, 2, [3, 4], 5)
    v2.crosses((1, 2), (3, 4))
    v2.crosses((1, 3), (2, 4))
    assert (c1.count, c2.count) == (2, 2)
    # A view of a view starts from zero too.
    v3, c3 = instrumented(v1)
    v3.crosses((1, 2), (3, 4))
    assert (c1.count, c3.count) == (2, 1)


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(7, 1),
                                  lambda: generators.two_page(7, ((1, 4),))])
def test_crossing_set_is_uncounted(make):
    d = make()
    view, counter = instrumented(d)
    assert view.crossing_set() == d.crossing_set()
    assert counter.count == 0


def test_crosses_checks_and_counts(rand8):
    view, counter = instrumented(rand8)
    for e, f in (((2, 2), (3, 4)), ((1, 2), (5, 5))):
        with pytest.raises(ValueError, match="degenerate edge"):
            view.crosses(e, f)
    for e, f in (((1, 9), (2, 3)), ((0, 2), (3, 4)), ((1, 2), (3, 9))):
        with pytest.raises(VertexOutOfRange):
            view.crosses(e, f)
    assert not view.crosses((1, 2), (2, 3))
    assert not view.crosses((4, 1), (1, 3))
    assert counter.count == 0
    view.crosses((4, 1), (3, 2))
    assert counter.count == 1


def test_repr_mentions_backing(rand8):
    assert "geometric" in repr(rand8)
    assert "explicit" in repr(generators.twisted(5))


@pytest.mark.parametrize("make", [
    lambda: generators.two_page(8, ((1, 4),)),
    lambda: generators.random_geometric(8, 1),
    # Coordinates beyond 2**52 take the exact integer path of the row kernel.
    lambda: generators.geometric(
        [(x * 2**60 + 1, y * 2**60 + 3) for x, y in generators.random_geometric(8, 1).points[1:]]
    ),
])
def test_cross_pairs_broadcasts_numpy_scalar(make):
    d = make()
    cs = np.array([2, 3, 6, 8])
    want = [d.crosses((1, 5), (c, 7)) for c in cs.tolist()]
    for ds in (7, np.int64(7), np.int32(7), np.array(7)):
        view, counter = instrumented(d)
        assert view.cross_pairs(1, 5, cs, ds).tolist() == want
        assert counter.count == len(cs)
