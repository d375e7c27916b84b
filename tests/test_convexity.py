from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import generators
from convexham._k5_catalog import FORMS
from convexham.convexity import (
    K5Class,
    canonical_k5_form,
    classify_k5,
    find_nonconvex_k5,
    find_nonconvex_triangle,
    is_convex_by_k5,
    is_convex_by_triangles,
)
from convexham.drawing import Drawing, ExplicitCrossings, induced_subdrawing, relabel
from convexham.errors import NotK5


def _full_rot(n):
    return [tuple(u for u in range(1, n + 1) if u != v) for v in range(1, n + 1)]


def test_catalog_rederivation():
    """Recompute the frozen five-vertex catalog from scratch.

    All 5-subsets of one geometric K12 must land on the three point-set
    forms (with 5, 3 and 1 crossings); the twisted K5 supplies the fourth.
    Exactly the four frozen canonical forms may appear.
    """
    d = generators.random_geometric(12, 94)
    seen = {}
    for sub in combinations(range(1, 13), 5):
        d5 = induced_subdrawing(d, sub).drawing
        form = canonical_k5_form(d5.crossing_set())
        seen.setdefault(len(form), set()).add(form)
    assert set(seen) == {5, 3, 1}
    assert seen[5] == {FORMS["I"]}
    assert seen[3] == {FORMS["II"]}
    assert seen[1] == {FORMS["III"]}
    tw = canonical_k5_form(generators.twisted(5).crossing_set())
    assert tw == FORMS["V"]
    assert len(set(FORMS.values())) == 4


@given(st.randoms())
def test_canonical_form_is_relabeling_invariant(rng):
    d = generators.twisted(5)
    perm = list(range(1, 6))
    rng.shuffle(perm)
    d2 = relabel(d, {i + 1: p for i, p in enumerate(perm)})
    assert canonical_k5_form(d2.crossing_set()) == canonical_k5_form(d.crossing_set())


def test_classify_point_forms():
    assert classify_k5(generators.convex_position(5)) is K5Class.I
    # Four hull points plus one interior: 3 crossings.
    inner = generators.geometric([(0, 0), (40, 0), (40, 40), (0, 40), (18, 21)])
    assert classify_k5(inner) is K5Class.II
    # Three hull points plus two interior: 1 crossing.
    deep = generators.geometric([(0, 0), (60, 0), (0, 60), (14, 15), (22, 19)])
    assert classify_k5(deep) is K5Class.III


def test_classify_twisted_and_convex_flags():
    assert classify_k5(generators.twisted(5)) is K5Class.V
    assert K5Class.I.convex and K5Class.II.convex and K5Class.III.convex
    assert not K5Class.V.convex and not K5Class.IV_OR_V.convex


def test_classify_unrecognised_form():
    # Three crossings, all on edge {1,2}: passes the per-K4 validation but
    # matches no catalog form, so it lands in the non-realisable bucket.
    crossings = ExplicitCrossings(5, [((1, 2), (3, 4)), ((1, 2), (3, 5)), ((1, 2), (4, 5))])
    d = Drawing(5, crossings, rotations=[None, *_full_rot(5)])
    assert classify_k5(d) is K5Class.IV_OR_V
    assert not is_convex_by_k5(d)


def test_classify_wrong_size():
    with pytest.raises(NotK5):
        classify_k5(generators.convex_position(6))


@given(st.integers(5, 8), st.integers(0, 200))
def test_triangle_and_k5_checks_agree_geometric(n, seed):
    d = generators.random_geometric(n, seed)
    assert is_convex_by_triangles(d)
    assert is_convex_by_k5(d)


@pytest.mark.parametrize("n", range(5, 9))
def test_twisted_rejected_by_both(n):
    d = generators.twisted(n)
    assert not is_convex_by_triangles(d)
    assert not is_convex_by_k5(d)


def test_small_drawings_trivially_convex():
    # Below five vertices there is no 5-subset to check.
    assert is_convex_by_k5(generators.random_geometric(4, 0))
    assert is_convex_by_k5(generators.twisted(4))
    assert is_convex_by_triangles(generators.convex_position(3))


def test_nonconvex_triangle_witness_is_real():
    d = generators.twisted(6)
    bad = find_nonconvex_triangle(d)
    assert bad is not None
    for edge, tri_edge in (bad.violation_a, bad.violation_b):
        assert d.crosses(edge, tri_edge)
        assert set(tri_edge) <= set(bad.triangle)


def test_nonconvex_k5_witness(conv8):
    assert find_nonconvex_k5(conv8) is None
    bad = find_nonconvex_k5(generators.twisted(7))
    assert bad is not None
    assert not bad.k5_class.convex
    sub = induced_subdrawing(generators.twisted(7), bad.vertices).drawing
    assert classify_k5(sub) is bad.k5_class


def test_convex_drawings_have_no_witness(conv6):
    assert find_nonconvex_triangle(conv6) is None
