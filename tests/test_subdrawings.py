import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import convexity, drawing, generators
from convexham.convexity import require_convex
from convexham.drawing import all_edges, canon_edge, instrumented, relabel
from convexham.errors import (
    EdgesCrossOrAdjacent,
    NotConvex,
    SeedNotPlane,
    TooLarge,
    VertexOutOfRange,
)
from convexham.hamiltonian import hamiltonian_cycle
from convexham.oracle import first_crossing, verify_certificate
from convexham.subdrawings import crossing_degree_order, extend_cycle, greedy_maximal_plane
from reference import exact_max_plane, faces


def _is_maximal_plane(d, edges):
    if first_crossing(d, sorted(edges)) is not None:
        return False
    for e in all_edges(d.n):
        if e in edges:
            continue
        if not any(d.crosses(e, f) for f in edges):
            return False
    return True


@given(st.integers(4, 10), st.integers(0, 200))
def test_greedy_is_plane_and_maximal(n, seed):
    d = generators.random_geometric(n, seed)
    sub = greedy_maximal_plane(d)
    assert _is_maximal_plane(d, sub.edges)


def test_greedy_keeps_seed(rand8):
    seed = [(1, 2), (3, 4)]
    if rand8.crosses((1, 2), (3, 4)):
        seed = [(1, 2)]
    sub = greedy_maximal_plane(rand8, seed=seed)
    assert {canon_edge(*e) for e in seed} <= sub.edges


def test_greedy_rejects_crossing_seed(rand8):
    crossing = next(iter(rand8.crossing_set()))
    with pytest.raises(SeedNotPlane):
        greedy_maximal_plane(rand8, seed=crossing)


def test_order_must_cover_all_edges(conv6):
    with pytest.raises(ValueError):
        greedy_maximal_plane(conv6, order=[(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="exactly once"):
        greedy_maximal_plane(conv6, order=[*all_edges(6), (2, 1)])


def _greedy_reference(d, seed=(), order=None):
    """The per-edge greedy: each candidate asks one row against every edge chosen before it."""
    chosen = list(dict.fromkeys(canon_edge(*e) for e in seed))
    assert not chosen or first_crossing(d, chosen) is None  # the seed check's queries
    order = all_edges(d.n) if order is None else [canon_edge(*e) for e in order]
    for e in order:
        if e in chosen:
            continue
        if chosen and d.cross_pairs(*e, *np.array(chosen).T).any():
            continue
        chosen.append(e)
    return frozenset(chosen)


def _greedy_pool():
    pool = [generators.two_page(n, tuple((1, j) for j in range(4, n - 1, 2))) for n in (12, 20, 33)]
    pool += [generators.twisted(n) for n in range(6, 10)]
    pool += [generators.random_geometric(n, n) for n in (30, 45, 60)]
    return pool


def _greedy_runs(d):
    """(seed, order) pairs: the default order, two seeded random orders and a plane seed."""
    runs = [((), None)]
    for i in range(2):
        order = all_edges(d.n)
        random.Random(i).shuffle(order)
        runs.append(((), order))
    runs.append((sorted(_greedy_reference(d, order=order))[: d.n // 2], order[::-1]))
    return runs


def _assert_greedy_matches_reference(d):
    for seed, order in _greedy_runs(d):
        view, counter = instrumented(d)
        got = greedy_maximal_plane(view, seed=seed, order=order).edges
        ref_view, ref_counter = instrumented(d)
        assert got == _greedy_reference(ref_view, seed, order)
        assert counter.count == ref_counter.count


@pytest.mark.parametrize("d", _greedy_pool(), ids=repr)
def test_greedy_matches_per_edge_reference(d):
    # Blocked rows ask every candidate exactly the edges chosen before it.
    _assert_greedy_matches_reference(d)


def test_greedy_default_order_is_lex():
    # No order offers the edges in all_edges order: the same edges from the
    # same counted queries as that order given explicitly.
    for d in _greedy_pool():
        view, counter = instrumented(d)
        got = greedy_maximal_plane(view).edges
        lex_view, lex_counter = instrumented(d)
        assert got == greedy_maximal_plane(lex_view, order=all_edges(d.n)).edges, d
        assert counter.count == lex_counter.count, d


def test_default_greedy_asks_no_uncounted_entries():
    # Every entry the backing's row kernel answers is a counted query, so the
    # default order reads no crossing degrees (C(n, 2)^2 kernel entries on a
    # point set).
    for d in (generators.random_geometric(40, 2), generators.twisted(9)):
        backing = type(d._oracle)
        kernel = backing.cross_pairs
        sizes = []

        def spy(self, a, b, cs, ds, kernel=kernel, sizes=sizes):
            sizes.append(np.broadcast(a, b, cs, ds).size)
            return kernel(self, a, b, cs, ds)

        view, counter = instrumented(d)
        with mock.patch.object(backing, "cross_pairs", spy):
            greedy_maximal_plane(view)
        assert counter.count > 0 and sum(sizes) == counter.count, d


def test_greedy_matches_reference_in_small_blocks():
    # 64-entry blocks: many blocks, and single-row calls once k > 21.
    with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", 64):
        for d in (generators.random_geometric(30, 30), generators.two_page(20, ((1, 8),))):
            _assert_greedy_matches_reference(d)


def test_crossing_degree_order_shape(conv8):
    order = crossing_degree_order(conv8)
    assert sorted(order) == list(all_edges(8))
    # hull edges cross nothing, so the 8 least-crossed come first
    assert set(order[:8]) == {(i, i + 1) for i in range(1, 8)} | {(1, 8)}


def _reference_degree_order(d):
    deg = {e: 0 for e in all_edges(d.n)}
    for e, f in d.crossing_set():
        deg[e] += 1
        deg[f] += 1
    return tuple(sorted(deg, key=lambda e: (deg[e], e)))


@given(st.integers(4, 12), st.randoms())
def test_crossing_degree_order_matches_crossing_set(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    for d in (relabel(generators.two_page(n, ((1, 4),)), perm), generators.twisted(n),
              generators.random_geometric(n, rng.randrange(1000))):
        view, counter = instrumented(d)
        assert crossing_degree_order(view) == _reference_degree_order(d)
        assert counter.count == 0


@pytest.mark.parametrize("n", range(3, 13))
def test_convex_position_size(n):
    d = generators.convex_position(n)
    require_convex(d)
    assert len(greedy_maximal_plane(d)) == 2 * n - 3


@given(st.integers(4, 8), st.integers(0, 100))
def test_size_matches_exhaustive(n, seed):
    d = generators.random_geometric(n, seed)
    require_convex(d)
    assert len(greedy_maximal_plane(d)) == exact_max_plane(d)


def test_size_is_order_invariant(conv8, rand9):
    for d in (conv8, rand9):
        require_convex(d)
        base = len(greedy_maximal_plane(d))
        edges = list(all_edges(d.n))
        for i in range(10):
            random.Random(i).shuffle(edges)
            assert len(greedy_maximal_plane(d, order=edges)) == base


def test_refuses_nonconvex():
    with pytest.raises(NotConvex):
        require_convex(generators.twisted(6))


def test_refusal_is_the_five_set_pass(monkeypatch):
    # The triangle method would take minutes at n = 40; the 5-set pass names
    # a non-realisable 5-set instead.
    def refuse(_d):
        raise AssertionError("triangle method called")

    monkeypatch.setattr(convexity, "find_nonconvex_triangle", refuse)
    with pytest.raises(NotConvex, match=r"5-set \(1, 2, 3, 4, 5\) is of class V"):
        require_convex(generators.twisted(40))


def test_refusal_stops_past_the_five_set_limit():
    with pytest.raises(TooLarge):
        require_convex(generators.two_page(102))


def test_point_sets_skip_the_refusal():
    # Straight-line drawings are convex, so no 5-set pass (and no limit).
    n = 102
    d = generators.random_geometric(n, 0)
    require_convex(d)
    assert len(greedy_maximal_plane(d)) >= 2 * n - 3


def test_two_page_instances_meet_lower_bound():
    for n, outer in ((6, ((1, 4),)), (8, ((1, 4), (4, 7), (7, 8)))):
        d = generators.two_page(n, outer)
        require_convex(d)
        assert len(greedy_maximal_plane(d)) >= 2 * n - 3


def test_extend_cycle_contains_cycle(rand9):
    cert = hamiltonian_cycle(rand9)
    sub = extend_cycle(rand9, cert)
    assert set(cert.edges) <= sub.edges
    assert _is_maximal_plane(rand9, sub.edges)
    require_convex(rand9)
    assert len(sub) == len(greedy_maximal_plane(rand9))


def test_subdrawing_certificate_verifies(rand8):
    cert = greedy_maximal_plane(rand8).certificate()
    verify_certificate(rand8, cert)


def test_faces_walk_lengths(conv6, rand9):
    for d in (conv6, rand9):
        edges = greedy_maximal_plane(d).edges
        walks = faces(d, edges)
        assert sum(len(w) for w in walks) == 2 * len(edges)


def test_faces_degenerate_edge_sets(conv6):
    # one edge: a single walk around both sides
    assert faces(conv6, [(1, 2)]) == [(1, 2)]
    # two disjoint edges: one walk each
    walks = faces(conv6, [(1, 2), (4, 5)])
    assert sorted(len(w) for w in walks) == [2, 2]
    # a triangle separates two walks of length 3
    walks = faces(conv6, [(1, 2), (2, 3), (1, 3)])
    assert sorted(len(w) for w in walks) == [3, 3]


def test_faces_refuses_bad_input():
    # A label outside 1..n and a non-plane edge set are domain errors, not
    # a bare KeyError or AssertionError.  The crossing named is the first
    # in offset order (conftest.offset_blocks): offset 3 among the edges
    # after (1, 2) pairs (2, 4) with (3, 5).
    d = generators.convex_position(5)
    with pytest.raises(VertexOutOfRange, match="vertex 9"):
        faces(d, [(1, 9)])
    with pytest.raises(EdgesCrossOrAdjacent, match=r"edges \(2, 4\) and \(3, 5\) cross"):
        faces(d, all_edges(5))


def test_large_faces_are_uncrossed_in_host():
    # Any face of a maximal plane subdrawing bounded by 4+ distinct
    # vertices must consist of edges nothing in the host crosses.
    pool = [generators.convex_position(n) for n in (5, 7, 9)]
    pool += [generators.random_geometric(n, s) for n in (7, 8, 9) for s in (0, 1, 2)]
    pool += [generators.two_page(8, ((1, 4), (4, 7), (7, 8)))]
    pool += [generators.two_page(12, ((4, 9), (4, 12), (7, 9), (9, 12)))]
    checked = 0
    for d in pool:
        for i in range(4):
            order = list(all_edges(d.n))
            random.Random(i).shuffle(order)
            sub = greedy_maximal_plane(d, order=order)
            for walk in faces(d, sub.edges):
                if len(walk) < 4 or len(set(walk)) != len(walk):
                    continue
                boundary = [
                    canon_edge(walk[i], walk[(i + 1) % len(walk)])
                    for i in range(len(walk))
                ]
                for e in boundary:
                    assert not any(d.crosses(e, f) for f in all_edges(d.n))
                checked += 1
    assert checked > 0
