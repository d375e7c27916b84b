"""Crossings derived from rotations, against enumerated reference crossing sets."""

import json
import random
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import permuted_fan
from convexham import generators, io
from convexham.drawing import ExplicitCrossings, all_edges, new_drawing, relabel, same_drawing
from convexham.errors import CrossingsDisagree, DrawingError, InvalidRotation, TooLarge


def _two_page_reference(n, outer_edges):
    """Same-page chords cross iff their label intervals interleave."""
    outer = {(min(e), max(e)) for e in outer_edges}
    crossings = set()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(a + 1, b):
                for dd in range(b + 1, n + 1):
                    if ((a, b) in outer) == ((c, dd) in outer):
                        crossings.add(((a, b), (c, dd)))
    return crossings


def _twisted_reference(n):
    """Edges cross iff one label interval strictly contains the other."""
    crossings = set()
    for a in range(1, n + 1):
        for b in range(a + 3, n + 1):
            for c in range(a + 1, b):
                for dd in range(c + 1, b):
                    crossings.add(((a, b), (c, dd)))
    return crossings


def _first_odd_quad(rots):
    """Scalar reference of the parity rule: the first odd 4-set in lex order, or None.

    For a < b < c < d, bit s_v says whether v's rotation meets the other three
    in ascending cyclic order; a simple drawing's four bits have even parity.
    """
    place = [None] + [{u: i for i, u in enumerate(r)} for r in rots]

    def ascending(v, x, y, z):
        p, q, r = place[v][x], place[v][y], place[v][z]
        return (p < q) + (q < r) + (r < p) == 2

    for quad in combinations(range(1, len(rots) + 1), 4):
        if sum(ascending(v, *(u for u in quad if u != v)) for v in quad) % 2:
            return quad
    return None


def _rot(n):
    return [tuple(u for u in range(1, n + 1) if u != v) for v in range(1, n + 1)]


@given(st.integers(4, 9), st.integers(0, 400))
def test_rotations_give_the_geometric_crossings(n, seed):
    d = generators.random_geometric(n, seed)
    assert new_drawing(n, d.rotations).crossing_set() == d.crossing_set()


@given(st.integers(4, 12), st.data())
def test_two_page_matches_reference(n, data):
    outer = data.draw(st.sets(st.sampled_from(all_edges(n)), max_size=n))
    assert generators.two_page(n, outer).crossing_set() == _two_page_reference(n, outer)


@given(st.integers(4, 16), st.data())
def test_permuted_two_page_matches_reference(n, data):
    outer = data.draw(st.sets(st.sampled_from(all_edges(n)), max_size=2 * n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    moved = relabel(generators.two_page(n, outer), perm)
    want = {tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in p))
            for p in _two_page_reference(n, outer)}
    assert new_drawing(n, moved.rotations).crossing_set() == want


def test_fan_table_is_the_interleave_rule():
    """two_page(90, fan): same-page edges cross iff their label intervals interleave."""
    n = 90
    outer = [(1, j) for j in range(4, n - 1)]
    u, v = np.array(all_edges(n)).T
    page = (u == 1) & (4 <= v) & (v < n - 1)  # the outer edges
    first = (u[:, None] < u) & (u < v[:, None]) & (v[:, None] < v)  # u_i < u_j < v_i < v_j
    want = np.zeros((len(u) + 1,) * 2, dtype=bool)
    want[:-1, :-1] = (first | first.T) & (page[:, None] == page)
    assert np.array_equal(generators.two_page(n, outer)._oracle._table, want)


@pytest.mark.parametrize("n", [40, 90])
def test_relabelled_fan_rotations_give_the_remapped_table(n):
    """relabel remaps the parent's table and never re-derives it from rotations."""
    moved = permuted_fan(n, 1, random.Random(n))
    assert np.array_equal(new_drawing(n, moved.rotations)._oracle._table, moved._oracle._table)


@pytest.mark.parametrize("n", range(4, 13))
def test_twisted_matches_reference(n):
    assert generators.twisted(n).crossing_set() == _twisted_reference(n)


@given(st.integers(4, 12), st.data())
def test_cross_pairs_agrees_with_cross(n, data):
    outer = data.draw(st.sets(st.sampled_from(all_edges(n)), max_size=n))
    d = generators.two_page(n, outer)
    oracle = d._oracle
    labels = st.integers(1, n)
    a, b = data.draw(st.tuples(labels, labels).filter(lambda e: e[0] != e[1]))
    # Rows may repeat {a, b}, share an endpoint with it or touch the hub a.
    cs = np.array(data.draw(st.lists(labels, min_size=1, max_size=3 * n)))
    ds = np.array(data.draw(st.lists(labels, min_size=len(cs), max_size=len(cs))))
    keep = cs != ds
    cs, ds = cs[keep], ds[keep]
    want = [oracle.cross(a, b, c, x) for c, x in zip(cs, ds)]
    assert oracle.cross_pairs(a, b, cs, ds).tolist() == want
    assert oracle.cross_pairs(np.full_like(cs, a), b, cs, ds).tolist() == want
    assert oracle.cross_pairs(a, np.full_like(cs, b), cs, ds).tolist() == want
    hub = [oracle.cross(a, b, c, a) for c in cs]
    assert oracle.cross_pairs(a, b, cs, a).tolist() == hub == [False] * len(cs)
    for c, x in zip(cs.tolist(), ds.tolist()):
        assert d.crosses((a, b), (c, x)) == oracle.cross(a, b, c, x)
        if {a, b} & {c, x}:
            assert not oracle.cross(a, b, c, x)


def test_odd_signature_names_its_four_vertices():
    rots = _rot(5)
    rots[0] = rots[0][::-1]
    with pytest.raises(InvalidRotation, match=r"vertices \(1, 2, 3, 4\)"):
        new_drawing(5, rots)


@pytest.mark.parametrize("n", [12, 16, 20])
@pytest.mark.parametrize("spot", range(4))
def test_first_odd_four_set_is_named(n, spot):
    """Swapping neighbours x, y in v's rotation makes every {v, x, y, z} odd.

    v sits at position `spot` of the first of them, which always holds
    vertex 1: a cyclic order of four has an even number of ascending
    triples, so every 5-set holds an even number of odd 4-sets, and an odd
    4-set without vertex 1 makes one with it odd too.
    """
    rng = random.Random(4 * n + spot)
    outer = [e for e in all_edges(n) if rng.random() < 0.2]
    rots = [list(r) for r in generators.two_page(n, outer).rotations]
    swaps = [(v, i) for v in range(1, n + 1) for i in range(n - 2)
             if (v == 1) == (spot == 0)
             and (spot == 0 or sorted({v, *rots[v - 1][i:i + 2]}).index(v) == spot - 1)
             and 1 not in rots[v - 1][i:i + 2]]
    v, i = rng.choice(swaps)
    rots[v - 1][i:i + 2] = rots[v - 1][i + 1], rots[v - 1][i]
    want = _first_odd_quad(rots)
    assert want[0] == 1 and want[spot] == v
    with pytest.raises(InvalidRotation, match=re.escape(f"vertices {want} fit no simple")):
        new_drawing(n, rots)


def test_given_list_must_equal_the_derived_set():
    assert new_drawing(4, _rot(4), [((2, 4), (1, 3))]).crossing_set() == {((1, 3), (2, 4))}
    with pytest.raises(CrossingsDisagree, match=r"crossing \(1, 3\) x \(2, 4\) fixed"):
        new_drawing(4, _rot(4), [])
    with pytest.raises(DrawingError, match=r"listed crossing \(1, 2\) x \(3, 4\)"):
        new_drawing(4, _rot(4), [((1, 2), (3, 4))])


def test_table_limit_refuses_before_allocating():
    rots = [(*range(182, i, -1), *range(1, i)) for i in range(1, 183)]
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            new_drawing(182, rots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_abstract_json_is_rotations_only():
    d = generators.two_page(40, ((1, 4),))
    obj = io.drawing_to_json(d)
    assert set(obj) == {"n", "rotations"}
    assert len(io.dumps_drawing(d)) < 10_000


def test_twisted_evidence_lists_distinct_vertices():
    from convexham.errors import NotConvexEvidence
    from convexham.hamiltonian import star_avoiding_hamiltonian_cycle

    raised = 0
    for m in range(6, 10):
        d = generators.twisted(m)
        for hub in range(1, m + 1):
            try:
                star_avoiding_hamiltonian_cycle(d, hub)
            except NotConvexEvidence as exc:
                raised += 1
                assert len(set(exc.vertices)) == len(exc.vertices), exc
    assert raised > 0


def test_induced_and_relabelled_crossings_follow_the_parent():
    from convexham.drawing import induced_subdrawing, relabel

    d = generators.two_page(9, ((1, 4), (2, 7)))
    pairs = d.crossing_set()
    perm = [3, 9, 1, 5, 7, 2, 8, 4, 6]
    moved = {tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in p))
             for p in pairs}
    assert relabel(d, perm).crossing_set() == moved
    for vs in combinations(range(1, 10), 5):
        sub = induced_subdrawing(d, vs)
        want = {tuple(tuple(sub.to_sub[u] for u in e) for e in p)
                for p in pairs if set(p[0]) | set(p[1]) <= set(vs)}
        assert sub.drawing.crossing_set() == want


def _fan(n):
    return tuple((1, j) for j in range(4, n - 1))


@pytest.mark.parametrize("n", [12, 40, 90, 181])
def test_lazy_two_page_fan_equals_new_drawing(n):
    """two_page builds its table on first read, and it is new_drawing's table."""
    d = generators.two_page(n, _fan(n))
    assert "_table" not in vars(d._oracle)
    assert same_drawing(d, new_drawing(n, d.rotations))


@pytest.mark.parametrize("n", range(5, 11))
def test_lazy_twisted_equals_new_drawing(n):
    d = generators.twisted(n)
    assert "_table" not in vars(d._oracle)
    assert same_drawing(d, new_drawing(n, d.rotations))


def test_writing_generated_drawings_skips_the_four_set_pass(monkeypatch):
    def refuse(self):
        raise AssertionError("the 4-set pass ran")

    monkeypatch.setattr(ExplicitCrossings, "_mark_rotations", refuse)
    text = io.dumps_drawing(generators.two_page(181, _fan(181)))
    assert json.loads(text)["n"] == 181
    io.dumps_drawing(generators.twisted(10))
    with pytest.raises(AssertionError, match="4-set pass"):
        io.loads_drawing(text)  # new_drawing reads the table at once


class _Unread:
    """An outer-edge set that fails when read."""

    def __iter__(self):
        raise AssertionError("outer edges read")


@pytest.mark.parametrize("make", [generators.twisted, lambda n: generators.two_page(n, _Unread())])
def test_abstract_families_refuse_182_before_any_rotation(make):
    # 182 rotations of 181 labels take ~270 KB; the refusal allocates ~1 KB.
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            make(182)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 14
