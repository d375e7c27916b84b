import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adjacent,
    construction_pool,
    first_crossing_reference,
    is_interior,
    kernel_calls,
    random_k4_drawing,
    row_groups,
    star_blocks,
)
from reference import brute_hamiltonian
from test_starframe import _halfway_hit, _reference_frame
from convexham import drawing, generators, hamiltonian, starframe
from convexham.drawing import all_edges, canon_edge, instrumented
from convexham.errors import (
    EdgesCrossOrAdjacent,
    KOutOfRange,
    NotConvexEvidence,
    SameVertex,
)
from convexham.hamiltonian import (
    _solve_path,
    _split_sides,
    empty_k_cycle,
    geometric_path_with_two_edges,
    hamiltonian_cycle,
    path_containing_edge,
    st_hamiltonian_path,
    star_avoiding_hamiltonian_cycle,
)
from convexham.oracle import cycle_sides, is_plane, verify_certificate
from convexham.geometry import orientation
from convexham.starframe import scan_bad_edges, witness_row
from convexham.subdrawings import greedy_maximal_plane

MULTI_BAD = [
    (6, ((1, 4),)),
    (8, ((1, 4), (4, 7), (7, 8))),
    (12, ((4, 9), (4, 12), (7, 9), (9, 12))),
]


def _canon_cycle(seq):
    """Rotation/reflection-normal form matching the brute enumerator."""
    seq = list(seq)
    i = seq.index(1)
    seq = seq[i:] + seq[:i]
    if seq[1] > seq[-1]:
        seq = [seq[0]] + seq[1:][::-1]
    return tuple(seq)


@pytest.mark.parametrize("n", range(3, 11))
def test_hamiltonian_cycle_convex_position_is_hull(n):
    cert = hamiltonian_cycle(generators.convex_position(n))
    assert cert.vertices == tuple(range(1, n + 1))
    assert cert.oracle_verified
    assert cert.claims == {"plane": True, "hamiltonian": True}


@given(st.integers(4, 11), st.integers(0, 300))
def test_hamiltonian_cycle_random_geometric(n, seed):
    cert = hamiltonian_cycle(generators.random_geometric(n, seed))
    assert cert.oracle_verified
    assert sorted(cert.vertices) == list(range(1, n + 1))


def test_hamiltonian_cycle_two_page_instances():
    for n, outer in MULTI_BAD:
        cert = hamiltonian_cycle(generators.two_page(n, outer))
        assert cert.oracle_verified


def test_unverified_flag(rand8):
    assert not hamiltonian_cycle(rand8, verify=False).oracle_verified


@given(st.integers(4, 9), st.integers(0, 100))
def test_st_path_all_pairs(n, seed):
    d = generators.random_geometric(n, seed)
    for s, t in combinations(range(1, n + 1), 2):
        cert = st_hamiltonian_path(d, s, t)
        assert cert.vertices[0] == s and cert.vertices[-1] == t
        assert cert.oracle_verified


def test_st_path_matches_brute(conv6, rand8):
    for d in (conv6, rand8):
        for s, t in ((1, 2), (2, 5), (3, 4)):
            cert = st_hamiltonian_path(d, s, t)
            assert cert.vertices in brute_hamiltonian(d, mode="path", s=s, t=t)


def test_st_path_errors(conv6):
    with pytest.raises(SameVertex):
        st_hamiltonian_path(conv6, 3, 3)
    with pytest.raises(ValueError):
        st_hamiltonian_path(conv6, 0, 3)


def test_pentagon_frozen_outputs():
    d5 = generators.convex_position(5)
    assert star_avoiding_hamiltonian_cycle(d5, 5).vertices == (5, 1, 2, 3, 4)
    assert empty_k_cycle(d5, 3, 5).vertices == (5, 1, 2)
    assert st_hamiltonian_path(d5, 2, 5).vertices == (2, 1, 3, 4, 5)


@given(st.integers(4, 10), st.integers(0, 150))
def test_star_avoiding_every_hub(n, seed):
    d = generators.random_geometric(n, seed)
    for v_star in range(1, n + 1):
        cert = star_avoiding_hamiltonian_cycle(d, v_star)
        assert cert.oracle_verified
        assert cert.claims["star_avoiding"] == v_star


@pytest.mark.parametrize("n,outer", MULTI_BAD)
def test_star_avoiding_multi_bad_hubs(n, outer):
    # Frames with m >= 2 drive the zigzag construction; cross-check every
    # hub's cycle against the exhaustive enumeration.
    d = generators.two_page(n, outer)
    for v_star in range(1, n + 1):
        cert = star_avoiding_hamiltonian_cycle(d, v_star)
        assert cert.oracle_verified
        if n <= 10:
            sols = brute_hamiltonian(d, mode="star_avoiding", v_star=v_star)
            assert _canon_cycle(cert.vertices) in sols


def test_star_avoiding_build_queries():
    # Around a straight-line hub the bad-edge scan of its n - 1 neighbours,
    # (n - 1)(n - 3) queries, is the whole construction.
    for n in (30, 60):
        for seed in (0, 1):
            view, counter = instrumented(generators.random_geometric(n, seed))
            star_avoiding_hamiltonian_cycle(view, v_star=n, verify=False)
            assert counter.count == (n - 1) * (n - 3)


def test_empty_k_cycle_full_sweep(rand9):
    for k in range(3, 10):
        for v_star in range(1, 10):
            cert = empty_k_cycle(rand9, k, v_star)
            assert len(cert.vertices) == k
            assert v_star in cert.vertices
            assert cert.oracle_verified
            sides = cycle_sides(rand9, cert.vertices)
            assert min(len(sides.side_a), len(sides.side_b)) == 0


def test_empty_k_cycle_hamiltonian_at_full_length(conv6):
    cert = empty_k_cycle(conv6, 6, 2)
    assert cert.claims.get("hamiltonian") is True
    assert sorted(cert.vertices) == [1, 2, 3, 4, 5, 6]


def test_empty_k_cycle_range_errors(conv6):
    with pytest.raises(KOutOfRange):
        empty_k_cycle(conv6, 2, 1)
    with pytest.raises(KOutOfRange):
        empty_k_cycle(conv6, 7, 1)


@given(st.integers(5, 9), st.integers(0, 80))
def test_path_containing_edge_every_edge(n, seed):
    d = generators.random_geometric(n, seed)
    for e in all_edges(n):
        cert = path_containing_edge(d, e)
        assert canon_edge(*e) in cert.edges
        assert cert.oracle_verified


def test_path_containing_edge_matches_brute(conv6):
    for e in ((1, 4), (2, 5), (1, 2)):
        cert = path_containing_edge(conv6, e)
        sols = brute_hamiltonian(conv6, mode="contains", edge=e)
        seq = cert.vertices
        if seq[0] > seq[-1]:
            seq = seq[::-1]
        assert seq in sols


def _independent_noncrossing_pairs(d):
    edges = all_edges(d.n)
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not adjacent(e, f) and not d.crosses(e, f):
                yield e, f


@given(st.integers(5, 8), st.integers(0, 60))
def test_two_edge_path(n, seed):
    d = generators.random_geometric(n, seed)
    pts = [d.points[v] for v in range(1, n + 1)]
    pairs = list(_independent_noncrossing_pairs(d))[:12]
    for e, f in pairs:
        cert = geometric_path_with_two_edges(pts, e, f)
        assert {canon_edge(*e), canon_edge(*f)} <= set(cert.edges)
        assert cert.oracle_verified


def test_two_edge_path_rejects_bad_pairs(rand8):
    pts = [rand8.points[v] for v in range(1, 9)]
    crossing = next(
        (e, f)
        for e, f in combinations(all_edges(8), 2)
        if not adjacent(e, f) and rand8.crosses(e, f)
    )
    with pytest.raises(EdgesCrossOrAdjacent):
        geometric_path_with_two_edges(pts, *crossing)
    with pytest.raises(EdgesCrossOrAdjacent):
        geometric_path_with_two_edges(pts, (1, 2), (2, 3))


def test_twisted_pipeline_raises_evidence():
    d = generators.twisted(6)
    with pytest.raises(NotConvexEvidence):
        hamiltonian_cycle(d)
    with pytest.raises(NotConvexEvidence):
        st_hamiltonian_path(d, 1, 2)
    for hub in range(1, 7):
        with pytest.raises(NotConvexEvidence) as err:
            star_avoiding_hamiltonian_cycle(d, hub)
        assert err.value.which == "witness-two-block"


def test_non_simple_inputs_raise_side_and_nestedness_evidence():
    # A crossing set free of rotations (random_k4_drawing) reaches two
    # refutations that no run of scripts/construction_digest.py raises: the
    # witnesses of a split's bad edge are not one side of its triangle, and
    # the witness ranges of a hub's bad edges do not nest.  From 2 to 3,
    # 3's probe misses and its fan path from 2 is asked and plane, so it is
    # the answer; from 4 to 3 the root splits.
    d = random_k4_drawing(6, random.Random(0))
    cert = st_hamiltonian_path(d, 2, 3, verify=False)
    assert cert.vertices == _fan_path_of(d, 2, 3, range(1, 7))
    assert is_plane(d, cert.edges)
    with pytest.raises(NotConvexEvidence) as err:
        st_hamiltonian_path(d, 4, 3, verify=False)
    assert (err.value.which, err.value.vertices, err.value.detail) == (
        "witness-side", (1, 6),
        "witnesses of bad edge (4, 5) are not exactly one side of triangle (3, 4, 5)")
    d = random_k4_drawing(7, random.Random(1))
    with pytest.raises(NotConvexEvidence) as err:
        star_avoiding_hamiltonian_cycle(d, 7, verify=False)
    assert (err.value.which, err.value.vertices, err.value.detail) == (
        "witness-nestedness", (3,), "witness ranges of consecutive bad edges do not nest")


@pytest.mark.parametrize("s", [2, 3, 4, 6])
def test_crossing_root_fan_path_is_evidence(s):
    # Vertex 1 of this crossing set has no bad pair, but its fan path from s
    # crosses itself: the root names 1 and the two crossing edges instead of
    # returning that path.
    d = random_k4_drawing(6, random.Random(0))
    assert not list(scan_bad_edges(d, d.rotation_of(1), 1))
    with pytest.raises(NotConvexEvidence) as err:
        st_hamiltonian_path(d, s, 1, verify=False)
    assert err.value.which == "fan-path-crossing"
    fan = _fan_path_of(d, s, 1, range(1, 7))
    e, f = _first_path_crossing(d, fan)[0]
    assert err.value.vertices == tuple(sorted({1, *e, *f}))
    assert err.value.detail == f"1 has no bad edge, but edges {e} and {f} of its fan path cross"
    assert d.crosses(e, f)


def test_twisted_st_path_succeeds_or_explains():
    # Non-convex input gives no blanket failure promise: each pair either
    # yields a verified plane path or concrete evidence, never silence.
    d = generators.twisted(6)
    outcomes = {"ok": 0, "evidence": 0}
    for s, t in combinations(range(1, 7), 2):
        try:
            cert = st_hamiltonian_path(d, s, t)
        except NotConvexEvidence:
            outcomes["evidence"] += 1
        else:
            assert cert.oracle_verified
            assert is_plane(d, cert.edges)
            outcomes["ok"] += 1
    assert outcomes == {"ok": 12, "evidence": 3}


def test_split_star_edge_crossing_names_two_crossing_edges():
    # twisted(n) is not convex.  A case-1 split closes its piece with the
    # star edge {v, t0}; where that edge crosses an edge of the piece, the
    # unverified path is refuted instead of returned crossed.
    raised = []
    for n in range(5, 11):
        d = generators.twisted(n)
        for s, t in combinations(range(1, n + 1), 2):
            try:
                st_hamiltonian_path(d, s, t, verify=False)
            except NotConvexEvidence as exc:
                if exc.which == "split-star-edge-crossing":
                    raised.append((n, s, t, exc))
    assert len(raised) == 44
    for n, s, t, exc in raised:
        v, t0, a, b = exc.vertices
        assert generators.twisted(n).crosses((v, t0), (a, b))
        assert f"star edge {canon_edge(v, t0)} closing split triangle" in exc.detail
    n, s, t, exc = raised[0]
    assert (n, s, t, exc.vertices) == (6, 1, 3, (6, 3, 5, 4))


def test_twisted_never_yields_wrong_certificate():
    # Even unverified construction must fail en route, not hand back a
    # quietly crossed cycle.
    with pytest.raises(NotConvexEvidence):
        hamiltonian_cycle(generators.twisted(6), verify=True)


def test_plane_check_of_produced_cycles(rand9):
    cert = hamiltonian_cycle(rand9)
    assert is_plane(rand9, cert.edges)


# ---------------------------------------------------------------------------
# The cycle is the star-avoiding cycle at n; sub-paths solve on host labels.

POOL = st.tuples(
    st.sampled_from(["fan", "two-page", "geometric", "twisted"]),
    st.integers(4, 16),
    st.integers(0, 10**6),
)


def _reference_st_path(d, subset, s, t):
    """The s-t route toward t, split on the pair the solver's rule picks.

    The pair is the first whose halfway probe hits (`_halfway_hit`), else
    the first of a full scan; both are asked uncounted, and the witnesses
    come from the scan.  d is charged the rows the solver asks, on the
    rotation of t restricted to the subproblem, of k vertices: the k-entry
    probe, then the pair's witness row (k - 2) on a hit, or on a miss the
    scan through the block of its first bad pair, or all of it; and after
    a case-1 split, k - 2 for its star edge against its piece but the
    piece's last edge, each edge asked by a scalar query.
    """
    sub = tuple(sorted(subset))
    if len(sub) <= 3:
        return [s, *(x for x in sub if x not in (s, t)), t] if len(sub) > 1 else [s]
    order = _restricted(d, t, sub)
    k = len(order)
    free = instrumented(d)[0]
    bad = dict(scan_bad_edges(free, order, t))
    i = _halfway_hit(free, order, t)
    d.counter.count += k
    if i is not None:
        d.counter.count += k - 2
    elif bad:
        i = min(bad)
        d.counter.count += (k - 2) * _first_bad_block_end(d, order, t)
    else:
        d.counter.count += k * (k - 2)
        i = order.index(s)
        return [*order[i:], *order[:i], t]
    u, v = order[i], order[(i + 1) % k]
    vn, vc = _split_sides(d, u, v, t, sub, {order[p] for p in bad[i]})
    if s in vc:
        piece = _reference_st_path(d, vc | {u}, s, u) + _reference_st_path(d, vn | {u, v}, u, v)[1:]
        d.counter.count += k - 2
        for a, b in zip(piece, piece[1:-1]):
            if free.crosses((v, t), (a, b)):
                raise NotConvexEvidence(
                    "split-star-edge-crossing",
                    vertices=(v, t, a, b),
                    detail=f"star edge {canon_edge(v, t)} closing split triangle "
                    f"{tuple(sorted((u, v, t)))} crosses path edge {canon_edge(a, b)}",
                )
        return piece + [t]
    p, q = (u, v) if s != u else (v, u)
    p1 = _reference_st_path(d, vn | {q, p}, s, p)
    return p1 + _reference_st_path(d, vc | {t, p}, p, t)[1:]


def _restricted(d, v, subset):
    return tuple(x for x in d.rotation_of(v) if x in subset)


def _reversed_fan_path(d, s, t, subset):
    """s, then s's restricted rotation backwards from the vertex before t, then t."""
    back = _restricted(d, s, subset)
    i = back.index(t)
    return (s, *reversed(back[i:] + back[:i]))


def _vertices_or_evidence(build, d):
    try:
        return build(d)
    except NotConvexEvidence as exc:
        return ("evidence", exc.which, exc.vertices, exc.detail)


@given(POOL)
def test_cycle_matches_reference(spec):
    # The cycle is the star-avoiding cycle at vertex n, rotated to end at n.
    d = construction_pool(*spec)

    def reference(x):
        seq = _reference_star_cycle(x, x.n)
        return seq[1:] + seq[:1]

    runs = []
    for build in (lambda x: hamiltonian_cycle(x, verify=False).vertices, reference):
        view, counter = instrumented(d)
        runs.append((_vertices_or_evidence(build, view), counter.count))
    assert runs[0] == runs[1]


def test_cycle_on_a_hull_vertex_costs_one_scan():
    # Vertex 300 is a hull vertex with a bad edge in each of these sets; the
    # cycle still costs one scan of its rotation.
    for seed in (32, 54, 97, 101):
        d = generators.random_geometric(300, seed)
        assert list(scan_bad_edges(d, d.rotation_of(300), 300))
        view, counter = instrumented(d)
        cert = hamiltonian_cycle(view, verify=False)
        assert counter.count == 299 * 297 == 88_803
        assert verify_certificate(d, cert).oracle_verified


def _sub_path_reference(d, subset, s, t):
    """A two-edge path's sub-path as built before, on an induced subdrawing."""
    if len(subset) <= 2:
        return [s, t][: len(subset)]
    ind = drawing.induced_subdrawing(d, subset)
    seq = _solve_path(ind.drawing, range(1, ind.drawing.n + 1), ind.to_sub[s], ind.to_sub[t])
    return [ind.to_host[x] for x in seq]


@given(st.integers(5, 12), st.integers(0, 10**6))
def test_two_edge_path_matches_reference(n, seed):
    d = generators.random_geometric(n, seed)
    pts = [d.points[v] for v in range(1, n + 1)]
    pairs = list(_independent_noncrossing_pairs(d))
    for e, f in random.Random(seed).sample(pairs, min(8, len(pairs))):
        got = geometric_path_with_two_edges(pts, e, f, verify=False).vertices
        with mock.patch.object(hamiltonian, "_solve_path", _sub_path_reference):
            want = geometric_path_with_two_edges(pts, e, f, verify=False).vertices
        assert got == want


def test_two_edge_path_builds_no_subdrawing(monkeypatch, rand8):
    def refuse(*_args):
        raise AssertionError("induced_subdrawing called")

    monkeypatch.setattr(drawing, "induced_subdrawing", refuse)
    monkeypatch.setattr(hamiltonian, "induced_subdrawing", refuse, raising=False)
    pts = [rand8.points[v] for v in range(1, 9)]
    for e, f in list(_independent_noncrossing_pairs(rand8))[:12]:
        cert = geometric_path_with_two_edges(pts, e, f)
        assert cert.oracle_verified


# ---------------------------------------------------------------------------
# The root settles a fan path by asking its edges against each other:
# first t's, when t's probe misses; then, when t has a bad pair and s's
# probe misses, s's read backwards.  A plane one is the answer.


def _first_bad_block_end(d, order, hub):
    """End row of the scan block that holds hub's first bad pair.

    The bad pairs come from an independent full scan, one uncounted row per
    pair of `order` against the k - 2 vertices after it; the block is the
    row_groups group of k rows of k - 2 entries that holds the first.
    """
    k = len(order)
    twice = np.array(order * 2)
    first = next(i for i in range(k)
                 if d._oracle.cross_pairs(twice[i], twice[i + 1], twice[i + 2:i + k], hub).any())
    return next(i1 for i0, i1 in row_groups(k, k - 2, drawing.ROW_BLOCK_ENTRIES)
                if i0 <= first < i1)


def _first_path_crossing(d, seq):
    """Reference for the root's plane check of a path: (first crossing, entries).

    Scalar queries on d, uncounted, in the offset order of
    conftest.offset_blocks; the entries are those through the block that
    holds the first crossing, or all C(m, 2) of a plane path.
    """
    edges = [canon_edge(a, b) for a, b in zip(seq, seq[1:])]
    return first_crossing_reference(d, edges, drawing.OFFSET_BLOCK_ENTRIES)


def _fan_path_of(d, s, t, subset):
    """s, then t's restricted rotation from s, then t."""
    order = _restricted(d, t, subset)
    i = order.index(s)
    return (*order[i:], *order[:i], t)


# About one example in five ends on t's fan path and one in fifteen on
# s's.  A crossing fan path at a t without a bad pair is rare here; it is
# pinned on its own input (test_crossing_root_fan_path_is_evidence).
@settings(max_examples=150)
@given(POOL, st.data())
def test_st_path_matches_reference_unless_solved_by_a_root_fan(spec, data):
    d = construction_pool(*spec)
    subset = set(data.draw(st.lists(st.integers(1, d.n), min_size=2, unique=True)))
    s, t = data.draw(st.permutations(sorted(subset)))[:2]
    k = len(subset)

    def queries_and_result(build):
        view, counter = instrumented(d)
        got = _vertices_or_evidence(lambda x: tuple(build(x, subset, s, t)), view)
        return counter.count, got

    asked, got = queries_and_result(_solve_path)
    ref_asked, want = queries_and_result(_reference_st_path)
    if k <= 3:
        assert (got, asked) == (want, ref_asked)
        return
    order, back = _restricted(d, t, subset), _restricted(d, s, subset)
    # t's rows but its witness row, and the entries the root asks beyond
    # the reference's.
    t_rows, extra = k - 1, 0
    if _halfway_hit(d, order, t) is None:
        hit, cost = _first_path_crossing(d, _fan_path_of(d, s, t, subset))
        if hit is None:
            # t's probe row and its plane fan path, C(k-1, 2) entries.
            assert (got, asked) == (_fan_path_of(d, s, t, subset), t_rows + (k - 1) * (k - 2) // 2)
            assert is_plane(d, [canon_edge(a, b) for a, b in zip(got, got[1:])])
            return
        extra += cost
        if not list(scan_bad_edges(d, order, t)):
            # The reference's rows, and t's fan path through its first crossing.
            e, f = hit
            assert got == ("evidence", "fan-path-crossing", tuple(sorted({t, *e, *f})),
                           f"{t} has no bad edge, but edges {e} and {f} of its fan path cross")
            assert asked == ref_asked + extra
            return
        t_rows += cost + (k - 3) * _first_bad_block_end(d, order, t)
    extra += k - 1  # s's probe row
    if _halfway_hit(d, back, s) is None:
        hit, cost = _first_path_crossing(d, _reversed_fan_path(d, s, t, subset))
        if hit is None:
            # s's probe row and its plane fan path; t's witness row is never asked.
            assert got == _reversed_fan_path(d, s, t, subset)
            assert asked == t_rows + (k - 1) + (k - 1) * (k - 2) // 2
            assert is_plane(d, [canon_edge(a, b) for a, b in zip(got, got[1:])])
            return
        extra += cost
    assert (got, asked) == (want, ref_asked + extra)


@pytest.mark.parametrize("spec,subset,s,t", [
    (("geometric", 8, 386607), (1, 2, 4, 5, 6, 7, 8), 6, 1),
    (("fan", 11, 154515), (2, 4, 6, 9, 11), 11, 9),
    (("two-page", 14, 864652), (1, 2, 3, 5, 6, 9, 12, 13), 9, 13),
])
def test_root_whose_probe_misses_reads_t_to_its_first_bad_block(spec, subset, s, t):
    # t has a bad edge its probe misses, and its fan path crosses; s has no
    # bad edge.  The root asks t's probe, t's fan path through the block of
    # its first crossing, t's scan through the block of its first bad pair,
    # then s's probe and s's plane fan path: C(k-1, 2) entries.
    d = construction_pool(*spec)
    k = len(subset)
    order = _restricted(d, t, subset)
    assert list(scan_bad_edges(d, order, t)) and _halfway_hit(d, order, t) is None
    hit, t_fan = _first_path_crossing(d, _fan_path_of(d, s, t, subset))
    assert hit is not None
    view, counter = instrumented(d)
    got = _solve_path(view, subset, s, t)
    assert tuple(got) == _reversed_fan_path(d, s, t, subset)
    assert counter.count == ((k - 1) + t_fan + (k - 3) * _first_bad_block_end(d, order, t)
                             + (k - 1) + (k - 1) * (k - 2) // 2)


def _scan_calls(d, build):
    """build(view)'s result, its queries and the `cross_pairs` calls it made."""
    view, counter = instrumented(d)
    spy = mock.patch.object(
        drawing.Drawing, "cross_pairs", autospec=True, side_effect=drawing.Drawing.cross_pairs
    )
    with spy as calls:
        got = build(view)
    return got, counter.count, [call.args[1:] for call in calls.call_args_list]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_interior_source_asks_one_row_of_t(seed):
    # At n = 300 a scan spans 23 blocks of 13 rows.  From an interior s,
    # t's probe proves its bad edge: t is asked one row of n - 1 entries
    # and none of its scan, s its probe row, and s's fan path is asked
    # plane, (n - 1) + (n - 1) + C(n - 1, 2) = (n - 1)(n + 2)/2 queries in
    # all.  From a hull s, s's probe hits too, and then the path is the
    # reference solver's, which asks t's rows as the solver does, plus that
    # one row of s.
    d = generators.random_geometric(300, seed)
    n = d.n
    hull = [v for v in range(1, n + 1) if not is_interior(d, v)]
    s = next(v for v in range(1, n + 1) if is_interior(d, v))
    for t in hull[:3]:
        cert, asked, calls = _scan_calls(d, lambda x: st_hamiltonian_path(x, s, t, verify=False))
        t_rows = [cs for _a, _b, cs, ds in calls if np.ndim(ds) == 0 and ds == t]
        assert [len(cs) for cs in t_rows] == [n - 1]
        assert asked == (n - 1) * (n + 2) // 2 == 45_149
        assert cert.vertices == _reversed_fan_path(d, s, t, range(1, n + 1))
        assert verify_certificate(d, cert).oracle_verified
    s, t = hull[-1], hull[0]
    assert _halfway_hit(d, _restricted(d, s, range(1, n + 1)), s) is not None
    want, ref_asked, _calls = _scan_calls(d, lambda x: _reference_st_path(x, range(1, n + 1), s, t))
    cert, asked, _calls = _scan_calls(d, lambda x: st_hamiltonian_path(x, s, t, verify=False))
    assert (cert.vertices, asked) == (tuple(want), ref_asked + (n - 1))


# ---------------------------------------------------------------------------
# The star-avoiding walk against one that refutes every step.


def _reference_star_walk(d, frame):
    """The frame-label walk as built before: besides the connector rows, it
    checks that connector targets descend, that every step extends the
    visited interval, that no step runs along a bad edge and that the walk
    covers 1..n-1."""
    n = d.n
    if frame.m <= 1:
        return list(range(1, n))
    bad_set = set(frame.bad)
    v1 = frame.bad[0][0]
    seq, lo, hi = [v1], v1, v1

    def refute(which, labels, detail):
        return starframe._evidence(which, labels, frame.to_host, detail)

    def step(f):
        nonlocal lo, hi
        if f == lo - 1:
            lo = f
        elif f == hi + 1:
            hi = f
        else:
            raise refute("path-interval", [f, lo, hi],
                         "visited labels stopped forming an integer interval")
        seq.append(f)

    x, r = v1, v1 + 1
    while True:
        xp = frame.l_table[r]
        rp = n - 1
        for cand in range(r + 1, n - 1):
            if frame.l_table[cand] != xp:
                rp = cand
                break
        if not xp < x:
            raise refute("connector-monotone", [xp, x], "connector targets failed to descend")
        for y in range(x - 1, xp, -1):
            assert (y, y + 1) not in bad_set
            step(y)
        hamiltonian._assert_connector(d, frame, xp + 1, r)
        step(r)
        for y in range(r + 1, rp):
            assert (y - 1, y) not in bad_set
            step(y)
        hamiltonian._assert_connector(d, frame, rp - 1, xp)
        step(xp)
        x, r = xp, rp
        if rp == n - 1:
            break
    for y in range(x - 1, 0, -1):
        assert (y, y + 1) not in bad_set
        step(y)
    step(n - 1)
    if (lo, hi) != (1, n - 1):
        raise refute("path-interval", [lo, hi], "path failed to cover 1..n-1")
    return seq


def _reference_star_cycle(d, hub):
    frame = _reference_frame(d, hub)
    return (hub, *(frame.to_host[f] for f in _reference_star_walk(d, frame)))


def _star_runs(d):
    """Per hub: the cycle or evidence, and the queries asked, for both builds."""
    for hub in range(1, d.n + 1):
        runs = []
        for build in (
            lambda x: star_avoiding_hamiltonian_cycle(x, hub, verify=False).vertices,
            lambda x: _reference_star_cycle(x, hub),
        ):
            view, counter = instrumented(d)
            runs.append((_vertices_or_evidence(build, view), counter.count))
        yield runs


@given(POOL)
def test_star_cycle_matches_reference(spec):
    for got, want in _star_runs(construction_pool(*spec)):
        assert got == want


def test_star_cycle_reference_covers_every_route():
    # Walks with several bad edges and connector refutations both occur.
    seen = set()
    for spec in [("fan", 12, 1), ("two-page", 10, 7), ("two-page", 13, 17), ("twisted", 8, 0)]:
        for got, want in _star_runs(construction_pool(*spec)):
            assert got == want
            seen.add(got[0][1] if got[0][0] == "evidence" else "cycle")
    assert {"cycle", "witness-two-block", "connector-star-crossing"} <= seen


@pytest.mark.parametrize("n, seed", [(8, 1), (30, 2), (120, 3), (300, 4)])
def test_constructions_repeat_on_coordinates_past_2_52(n, seed):
    # Times 2^40 every coordinate is past 2^52, where the row kernel runs on
    # integer mirrors.  Scaling keeps every orientation sign, so each
    # construction repeats its certificate and its queries.
    d = generators.random_geometric(n, seed)
    big = generators.geometric([(x << 40, y << 40) for x, y in d.points[1:]])
    builds = [
        lambda v: star_avoiding_hamiltonian_cycle(v, 1, verify=False).vertices,
        lambda v: hamiltonian_cycle(v, verify=False).vertices,
        lambda v: st_hamiltonian_path(v, 2, n, verify=False).vertices,
    ]
    if n <= 30:  # n^3 queries at ~1.3 us each on integer mirrors
        builds.append(lambda v: greedy_maximal_plane(v, order=all_edges(n)).edges)
    for build in builds:
        runs = []
        for drawing_ in (d, big):
            view, counter = instrumented(drawing_)
            runs.append((build(view), counter.count))
        assert runs[0] == runs[1]



@pytest.fixture(scope="module")
def geo2000():
    return generators.random_geometric(2000, 1)


def _long_turn_rows(d, order, hub):
    """Rows i of `order` whose pair turns about hub by more than π, by integers."""
    pts, k = d.points, len(order)
    return [i for i in range(k) if orientation(pts[hub], pts[order[i]], pts[order[(i + 1) % k]]) < 0]


def test_fan_lemma_settles_star_hc_at_scale(geo2000):
    # On random_geometric(2000, 1), star-hc builds with the scan's k (k - 2)
    # = 3,992,003 queries, k = n - 1, and verifies with C(n, 2) + (n - 2)
    # (n - 3) = 5,989,006.  At an interior hub the fan lemma settles every
    # block, so neither asks a kernel call.  At a hull hub (the smallest
    # point) the one call is the scan's star block of the row holding the
    # hub's long turn, its bad pair, asked through cross_pairs; the
    # certificate leaves that pair out.
    d = geo2000
    n = d.n
    interior = next(v for v in range(1, n + 1) if is_interior(d, v))
    hull = min(range(1, n + 1), key=d.points.__getitem__)
    for hub in (interior, hull):
        view, counter = instrumented(d)
        with kernel_calls() as calls:
            cert = star_avoiding_hamiltonian_cycle(view, hub, verify=False)
            built = counter.count
            assert verify_certificate(view, cert).oracle_verified
        assert (built, counter.count - built) == (3_992_003, 5_989_006)
        order = d.rotation_of(hub)
        long_ = _long_turn_rows(d, order, hub)
        assert len(long_) == (hub == hull)
        assert star_blocks(calls, order, hub) == [(i, i + 1) for i in long_]
        assert len(calls) == len(long_)


def test_scan_that_stops_past_settled_blocks_counts_them_at_scale(geo2000):
    # At the hull hub, its rotation and its rotation among 300 labels,
    # shifted so that the long turn is row j = k // 2: `next` of the scan
    # yields j and its witnesses after one call, the block holding j, and
    # counts every entry through the end of that block (conftest.row_groups,
    # one row per block for the whole rotation, 13 among 300 labels), the
    # settled blocks before it included.
    d = geo2000
    n = d.n
    hub = min(range(1, n + 1), key=d.points.__getitem__)
    among = d.rotation_among(hub, random.Random(2000).sample(range(1, n + 1), 300))
    for rotation in (d.rotation_of(hub), among):
        k = len(rotation)
        (i,) = _long_turn_rows(d, rotation, hub)
        j = k // 2
        s = (i - j) % k
        order = rotation[s:] + rotation[:s]
        block = next(g for g in row_groups(k, k - 2, drawing.ROW_BLOCK_ENTRIES) if g[0] <= j < g[1])
        view, counter = instrumented(d)
        with kernel_calls() as calls:
            got = next(scan_bad_edges(view, order, hub))
        assert got == (j, witness_row(d, order, hub, j))
        assert counter.count == block[1] * (k - 2)
        assert star_blocks(calls, order, hub) == [block] and len(calls) == 1
        assert block[0] > 0 and (block[1] - block[0] == 1) == (k == n - 1)
