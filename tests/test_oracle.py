import ast
import hashlib
import random
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import drawing, generators, geometry, oracle
from convexham.certificates import (
    Certificate,
    cycle_certificate,
    path_certificate,
    subdrawing_certificate,
)
from convexham.drawing import Drawing, all_edges, canon_edge, instrumented
from convexham.errors import (
    CertificateError,
    CycleNotPlane,
    SideInconsistency,
    TooLarge,
    VertexOutOfRange,
)
from convexham.hamiltonian import (
    empty_k_cycle,
    hamiltonian_cycle,
    st_hamiltonian_path,
    star_avoiding_hamiltonian_cycle,
)
from convexham.oracle import cycle_sides, first_crossing, is_plane, verify_certificate
from convexham.subdrawings import greedy_maximal_plane
from conftest import (
    fan_hub,
    first_crossing_reference,
    is_interior,
    kernel_calls,
    lex_rotations,
    offset_blocks,
    pair_oracle,
    polygon_partition,
    random_k4_drawing,
    row_groups,
    star_g_rows,
    tied_long_turn_drawing,
)
from reference import brute_hamiltonian, count_empty_triangles, exact_max_plane


def _hull_edges(n):
    return [canon_edge(v, v % n + 1) for v in range(1, n + 1)]


def test_is_plane_examples(conv6):
    assert is_plane(conv6, _hull_edges(6))
    assert not is_plane(generators.convex_position(5), [(1, 3), (2, 4)])
    assert is_plane(conv6, [(2, 5)])
    assert first_crossing(conv6, [(1, 3), (2, 4), (1, 2)]) == ((1, 3), (2, 4))


def test_cycle_sides_examples():
    d5 = generators.convex_position(5)
    sides = cycle_sides(d5, (5, 1, 2))
    assert {sides.side_a, sides.side_b} == {frozenset({3, 4}), frozenset()}
    d6 = generators.convex_position(6)
    sides = cycle_sides(d6, (1, 2, 3))
    assert {sides.side_a, sides.side_b} == {frozenset({4, 5, 6}), frozenset()}
    # Hamiltonian cycle: both sides empty.
    sides = cycle_sides(d6, (1, 2, 3, 4, 5, 6))
    assert sides.side_a == sides.side_b == frozenset()


def test_cycle_sides_canonical_side_a(rand9):
    # side_a holds the smallest off-cycle vertex; an empty side is side_b.
    sides = cycle_sides(rand9, tuple(hc_vertices(rand9)[:4]))
    off = set(range(1, 10)) - set(sides.cycle)
    if sides.side_a:
        assert min(off) in sides.side_a


def hc_vertices(d):
    return list(hamiltonian_cycle(d, verify=False).vertices)


def test_cycle_sides_rejects_crossed_cycle():
    d = generators.convex_position(4)
    with pytest.raises(CycleNotPlane):
        cycle_sides(d, (1, 3, 2, 4))
    with pytest.raises(ValueError):
        cycle_sides(d, (1, 2))
    with pytest.raises(ValueError):
        cycle_sides(d, (1, 2, 2))


@given(st.integers(4, 9), st.integers(0, 150), st.randoms())
def test_cycle_sides_matches_polygon_test(n, seed, rng):
    # Combinatorial parity vs exact point-in-polygon: sample plane cycles.
    d = generators.random_geometric(n, seed)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    for k in range(3, n + 1):
        cyc = verts[:k]
        if not is_plane(d, [canon_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)]):
            continue
        sides = cycle_sides(d, cyc)
        inside, outside = polygon_partition(d, cyc)
        assert {sides.side_a, sides.side_b} == {inside, outside}


def test_brute_cycle_unique_on_convex_position():
    for n in range(4, 8):
        sols = brute_hamiltonian(generators.convex_position(n), mode="cycle")
        assert sols == [tuple(range(1, n + 1))]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_brute_path_count_convex_position(n):
    # Classic count: n * 2^(n-3) non-crossing Hamiltonian paths on a convex
    # n-gon (undirected, hence the canonical first < last form).
    sols = brute_hamiltonian(generators.convex_position(n), mode="paths_all")
    assert len(sols) == n * 2 ** (n - 3)
    assert all(s[0] < s[-1] for s in sols)


@given(st.integers(0, 60))
def test_brute_cycle_nonempty_random_geometric(seed):
    assert brute_hamiltonian(generators.random_geometric(8, seed), mode="cycle")


def test_brute_path_mode(conv6):
    for s, t in combinations(range(1, 7), 2):
        sols = brute_hamiltonian(conv6, mode="path", s=s, t=t)
        assert sols
        for sol in sols:
            assert sol[0] == s and sol[-1] == t and len(set(sol)) == 6
            edges = [canon_edge(sol[i], sol[i + 1]) for i in range(5)]
            assert is_plane(conv6, edges)


def test_brute_path_argument_errors(conv6):
    with pytest.raises(ValueError):
        brute_hamiltonian(conv6, mode="path", s=2, t=2)
    with pytest.raises(ValueError):
        brute_hamiltonian(conv6, mode="path", s=0, t=3)
    with pytest.raises(ValueError):
        brute_hamiltonian(conv6, mode="star_avoiding")
    with pytest.raises(ValueError):
        brute_hamiltonian(conv6, mode="nonsense")


def test_brute_star_avoiding(conv6):
    for v_star in range(1, 7):
        sols = brute_hamiltonian(conv6, mode="star_avoiding", v_star=v_star)
        assert sols
        for sol in sols:
            edges = [canon_edge(sol[i], sol[i + 1]) for i in range(5)] + [
                canon_edge(sol[-1], sol[0])
            ]
            assert is_plane(conv6, edges)
            for e in edges:
                if v_star in e:
                    continue
                for w in range(1, 7):
                    if w != v_star and w not in e:
                        assert not conv6.crosses(e, (v_star, w))


def test_brute_contains_filters_paths_all(conv6):
    edge = (2, 5)
    sols = brute_hamiltonian(conv6, mode="contains", edge=edge)
    universe = brute_hamiltonian(conv6, mode="paths_all")
    want = [
        s
        for s in universe
        if edge in {canon_edge(s[i], s[i + 1]) for i in range(5)}
    ]
    assert sols == want and sols


# sha256 of brute_hamiltonian's output for every mode over a fixed pool,
# computed with the three separate enumerators the shared one replaced.
BRUTE_POOL_SHA256 = "a5f7768f6d76ca52420e160e0c67e75542993c45764e85f70c767569fd9b6c25"


def test_brute_outputs_unchanged():
    pool = [generators.random_geometric(7, s) for s in range(4)]
    pool += [generators.convex_position(6), generators.two_page(7, ((1, 4),))]
    h = hashlib.sha256()
    for d in pool:
        n = d.n
        runs = [("cycle", {}), ("paths_all", {})]
        runs += [("path", {"s": s, "t": t}) for s, t in combinations(range(1, n + 1), 2)]
        runs += [("path", {"s": t, "t": s}) for s, t in ((1, 2), (3, 5))]
        runs += [("star_avoiding", {"v_star": v}) for v in range(1, n + 1)]
        runs += [("contains", {"edge": e}) for e in ((1, 2), (2, 5), (6, 3))]
        for mode, kw in runs:
            sols = brute_hamiltonian(d, mode=mode, **kw)
            h.update(repr((mode, sorted(kw.items()), sols)).encode())
    assert h.hexdigest() == BRUTE_POOL_SHA256


def test_brute_cap():
    d = generators.convex_position(6)
    with pytest.raises(TooLarge):
        brute_hamiltonian(d, mode="cycle", cap=5)
    assert brute_hamiltonian(d, mode="cycle", cap=6)


@pytest.mark.parametrize("n", range(3, 9))
def test_exact_max_plane_convex_position(n):
    assert exact_max_plane(generators.convex_position(n)) == 2 * n - 3


def test_exact_max_plane_cap():
    with pytest.raises(TooLarge):
        exact_max_plane(generators.convex_position(9))


@given(st.integers(0, 50))
def test_exact_matches_greedy_random(seed):
    d = generators.random_geometric(7, seed)
    assert exact_max_plane(d) == len(greedy_maximal_plane(d))


def test_count_empty_triangles_closed_forms():
    assert count_empty_triangles(generators.convex_position(5)) == comb(5, 3)
    assert count_empty_triangles(generators.convex_position(3)) == 1
    for seed in (0, 1, 2):
        assert count_empty_triangles(generators.random_geometric(10, seed)) >= 10


def test_verify_certificate_passes(rand8):
    cert = hamiltonian_cycle(rand8, verify=False)
    assert not cert.oracle_verified
    assert verify_certificate(rand8, cert).oracle_verified


def test_verify_certificate_catches_lies():
    d = generators.convex_position(5)
    crossed = cycle_certificate((1, 3, 5, 2, 4), {"plane": True, "hamiltonian": True})
    with pytest.raises(CertificateError) as err:
        verify_certificate(d, crossed)
    assert "plane" in err.value.failed

    not_ham = path_certificate((1, 2, 3), {"hamiltonian": True})
    with pytest.raises(CertificateError) as err:
        verify_certificate(d, not_ham)
    assert err.value.failed == ("hamiltonian",)

    wrong_ends = path_certificate((1, 2, 3, 4, 5), {"endpoints": (2, 5)})
    with pytest.raises(CertificateError):
        verify_certificate(d, wrong_ends)

    missing = path_certificate((1, 2, 3, 4, 5), {"contains": ((2, 4),)})
    with pytest.raises(CertificateError):
        verify_certificate(d, missing)

    not_maximal = subdrawing_certificate(
        [(1, 2), (2, 3)], {"maximal_plane": True}
    )
    with pytest.raises(CertificateError):
        verify_certificate(d, not_maximal)

    crossing_star = cycle_certificate(
        (1, 2, 4, 5), {"star_avoiding": 3}
    )
    with pytest.raises(CertificateError) as err:
        verify_certificate(d, crossing_star)
    assert err.value.failed == ("star_avoiding",)

    # In convex position every cycle has an empty side, so a false
    # empty_side claim needs an interior point: square plus centre, with
    # corner 3 outside triangle (1,2,4) and the centre 5 inside it.
    square = generators.geometric([(0, 0), (40, 0), (40, 40), (0, 40), (18, 21)])
    both_sides = cycle_certificate((1, 2, 4), {"empty_side": True})
    with pytest.raises(CertificateError) as err:
        verify_certificate(square, both_sides)
    assert err.value.failed == ("empty_side",)

    out_of_range = cycle_certificate((1, 2, 9), {})
    with pytest.raises(CertificateError):
        verify_certificate(d, out_of_range)

    unknown = cycle_certificate((1, 2, 3), {"sparkly": True})
    with pytest.raises(CertificateError):
        verify_certificate(d, unknown)


def _package_imports(name):
    """The package modules that module `name` imports relatively, at any depth of its body."""
    path = Path(drawing.__file__).with_name(f"{name}.py")
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else (a.name for a in node.names))
    return out


def test_verifier_is_independent_of_the_constructions():
    # The oracle re-checks certificates on the crossing oracle alone.
    assert _package_imports("oracle") == {"certificates", "drawing", "errors"}
    assert _package_imports("drawing") == {"geometry", "errors"}


@cache
def _row_drawing(kind, n, seed):
    if kind == "geometric":
        return generators.random_geometric(n, seed)
    return generators.two_page(n, ((1, 4),) if seed % 2 else ())


def _asked(rows, length, hit_row, block):
    """Entries a scan of rows of one length asks when it stops after the block holding hit_row.

    Blocks are those of conftest.row_groups; hit_row None asks every row.
    """
    for _i, j in row_groups(rows, length, block):
        if hit_row is not None and hit_row < j:
            return j * length
    return rows * length


# Block sizes that split rows into blocks of one row and of many rows,
# with a partial last block, plus the defaults.
BLOCKS = st.sampled_from([1, 4, 7, 20, 64, drawing.ROW_BLOCK_ENTRIES,
                          drawing.OFFSET_BLOCK_ENTRIES])


@given(st.sampled_from(["geometric", "two_page"]), st.integers(5, 9), st.integers(0, 5),
       BLOCKS, st.data())
def test_first_crossing_matches_scalar_reference(kind, n, seed, block, data):
    d = _row_drawing(kind, n, seed)
    labels = st.integers(1, n)
    # Reversed, adjacent and repeated edges are all allowed.
    edges = data.draw(st.lists(
        st.tuples(labels, labels).filter(lambda e: e[0] != e[1]), max_size=14
    ))
    # The first crossing in offset order, and C(m, 2) entries on plane
    # input, otherwise the offset rows through the end of its block.
    want, asked = first_crossing_reference(d, [canon_edge(*e) for e in edges], block)
    view, counter = instrumented(d)
    with mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block):
        assert first_crossing(view, edges) == want
        assert is_plane(d, edges) == (want is None)
    assert counter.count == asked


class _PlaneSpy:
    """An oracle that answers False and keeps the operands of every row call."""

    def __init__(self):
        self.calls = []

    def cross_pairs(self, a, b, cs, ds):
        self.calls.append((a, b, cs, ds))
        return np.zeros(np.broadcast_shapes(*map(np.shape, (a, b, cs, ds))), dtype=bool)


@given(st.integers(0, 40), st.sampled_from([1, 5, 19, 20, 39, 64, 300,
                                            drawing.OFFSET_BLOCK_ENTRIES]))
def test_plane_check_asks_every_pair_once(m, block):
    # Edge i is (2i + 1, 2i + 2), so a label names its edge.  Blocks of
    # fewer entries than a row, of one row, of several rows and of all.
    spy = _PlaneSpy()
    d = Drawing(2 * m, spy)
    with mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block):
        assert first_crossing(d, [(2 * i + 1, 2 * i + 2) for i in range(m)]) is None
    c = m - (m % 2 == 0)  # the odd cycle's length
    asked = []
    for a, b, cs, ds in spy.calls:
        # One (c,) edge row against a contiguous (R, c) block.
        assert a.shape == b.shape == (c,) and cs.shape == ds.shape and cs.shape[1:] == (c,)
        assert cs.flags.c_contiguous and ds.flags.c_contiguous
        assert np.array_equal(b, a + 1) and np.array_equal(ds, cs + 1)
        ends = np.broadcast_arrays(a, cs)
        asked.append([tuple(sorted(e)) for e in zip(*((x.ravel() // 2).tolist() for x in ends))])
    assert asked == offset_blocks(m, block)
    assert sorted(sum(asked, [])) == list(combinations(range(m), 2))
    assert d.counter.count == comb(m, 2)
    if 0 < comb(m, 2) <= block:
        assert len(spy.calls) == 1


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(128, 2),
                                  lambda: generators.two_page(128, ((1, 4),))])
def test_plane_check_within_one_block_is_one_call(make):
    # A 40-edge cycle (C(40, 2) = 780 entries) and a 127-edge path (8,001)
    # fit one block, so each is one row call, on the abstract drawing too,
    # unless it is a fan walk on points (`fan_hub`: `hamiltonian_cycle`'s
    # path, not the cycle in label order), which asks no call.  Each counts
    # its C(m, 2) queries.
    d = make()
    cyc = hamiltonian_cycle(d).vertices
    rows, blocks = (mock.patch.object(drawing.Drawing, name, autospec=True,
                                      side_effect=getattr(drawing.Drawing, name))
                    for name in ("cross_pairs", "cross_block"))
    for seq in ([*range(1, 41), 1], cyc):
        edges = list(zip(seq, seq[1:]))
        assert comb(len(edges), 2) <= drawing.OFFSET_BLOCK_ENTRIES
        view, counter = instrumented(d)
        with rows as row_calls, blocks as block_calls:
            first_crossing(view, edges)
        assert counter.count == comb(len(edges), 2)
        fan = d.points is not None and fan_hub(d, seq) is not None
        assert fan == (d.points is not None and seq is cyc)
        assert (row_calls.call_count, block_calls.call_count) == (1 - fan, 0)


@pytest.mark.parametrize("scale", [1, 2**40])
@given(st.integers(4, 24), st.integers(0, 300), st.randoms(use_true_random=False))
def test_plane_check_settles_shared_endpoints_in_numpy(scale, n, seed, rng):
    # On float64 mirrors and, x 2^40, on object mirrors of the Python ints,
    # the entries of a Hamiltonian cycle or path that share an endpoint
    # reach the kernel's fallback but never the scalar predicate, and the
    # answer is the scalar reference's.  A plane cycle asks every entry.
    # A fan walk (`fan_hub`; at n = 4 a random path may be one) is settled
    # with no row, so nothing reaches the fallback.
    pts = generators.random_geometric(n, seed).points
    d = generators.geometric([(x * scale, y * scale) for x, y in pts[1:]])
    assert (d._oracle.xs.dtype == object) == (scale > 1)
    order = rng.sample(range(1, n + 1), n)
    plane = hamiltonian_cycle(d).vertices
    walks = [[*order, order[0]], order, [*plane, plane[0]]]
    lists = [list(zip(seq, seq[1:])) for seq in walks]
    wants = [first_crossing_reference(d, [canon_edge(*e) for e in edges],
                                      drawing.OFFSET_BLOCK_ENTRIES)[0] for edges in lists]
    assert wants[2] is None

    scalar = geometry.segments_cross

    def predicate(p, q, r, s):
        assert len({p, q, r, s}) == 4, "a shared endpoint reached segments_cross"
        return scalar(p, q, r, s)

    exact = mock.patch.object(geometry.PointBack, "_exact", autospec=True,
                              side_effect=geometry.PointBack._exact)
    with mock.patch.object(geometry, "segments_cross", side_effect=predicate), exact as fallback:
        for seq, edges, want in zip(walks, lists, wants):
            fallback.reset_mock()
            assert first_crossing(d, edges) == want
            assert fallback.called == (fan_hub(d, seq) is None)


def _walks(d, rng):
    """Walks on d as vertex sequences, with whether they close: plane ones (a
    star-hc cycle, an s-t path, either cut to a path one edge shorter),
    crossing ones (random orders) and one that revisits labels, which is no
    walk where it steps back along the edge it came by."""
    n = d.n
    hub, s, t = rng.sample(range(1, n + 1), 3)
    cyc = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
    path = st_hamiltonian_path(d, s, t, verify=False).vertices
    order = rng.sample(range(1, n + 1), rng.randint(4, n))
    again = order + rng.sample(order, 3)
    again = [v for i, v in enumerate(again) if not i or v != again[i - 1]]
    return [(cyc, True), (cyc, False), (path, False), (path[:-1], False), (order, True),
            (order, False), (order[:-1], True), (again, False)]


@pytest.mark.parametrize("scale", [1, 2**40])
@given(st.integers(5, 24), st.integers(0, 300),
       st.sampled_from([1, 5, 40, drawing.OFFSET_BLOCK_ENTRIES]),
       st.randoms(use_true_random=False))
def test_walk_kernel_matches_the_offset_rows(scale, n, seed, block, rng):
    # On float64 mirrors and, x 2^40, on object mirrors: the hits of every
    # walk, in order, equal offset_hits over cross_pairs, and first_crossing
    # answers the scalar reference with its queries, for open and closed
    # walks of odd and even length.  A fan walk asks no call, counts every
    # entry and has no hit; every other edge list asks each block of
    # offset_hits through Drawing.cross_pairs, with the same entries.
    pts = generators.random_geometric(n, seed).points
    d = generators.geometric([(x * scale, y * scale) for x, y in pts[1:]])
    kinds = set()
    for seq, closed in _walks(d, rng):
        seq = [*seq, seq[0]] if closed else seq
        edges = [canon_edge(*e) for e in zip(seq, seq[1:])]
        ends = np.array(edges, dtype=np.int64)
        walk = drawing._walk(ends) is not None
        kinds.add((walk, closed, len(edges) % 2))
        asked, answered = [], []

        def ask(*args):
            asked.append(d._oracle.cross_pairs(*args))
            return asked[-1]

        def answer(name):
            entry = getattr(Drawing, name)

            def call(self, *args):
                answered.append((name, entry(self, *args)))
                return answered[-1][1]

            return mock.patch.object(Drawing, name, call)

        view, counter = instrumented(d)
        with mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block):
            want = list(drawing.offset_hits(ask, ends))
            with answer("cross_block"), answer("cross_pairs"):
                assert list(drawing.plane_hits(view, ends)) == want
            # Each block asked answers the same entries alike, of the same shape.
            fan = walk and fan_hub(d, seq) is not None
            assert not (fan and want)
            blocks = [] if fan else [x.tolist() for x in asked]
            assert [x.tolist() for _name, x in answered] == blocks
            assert {name for name, _x in answered} <= {"cross_pairs"}
            assert counter.count == sum(x.size for x in asked)
            first, queries = first_crossing_reference(d, edges, block)
            view, counter = instrumented(d)
            assert first_crossing(view, list(zip(seq, seq[1:]))) == first
            assert counter.count == queries
    assert {(True, closed, odd) for closed in (True, False) for odd in (0, 1)} <= kinds


def _rows_spy():
    return mock.patch.object(Drawing, "cross_pairs", autospec=True, side_effect=Drawing.cross_pairs)


def _fan_walk_check(d, seq, block):
    """first_crossing of the walk through seq, OFFSET_BLOCK_ENTRIES = block, against the
    scalar reference and its queries.  Returns whether the plane check asked
    `Drawing.cross_pairs`, as a walk that is no fan does."""
    edges = list(zip(seq, seq[1:]))
    want, asked = first_crossing_reference(d, [canon_edge(*e) for e in edges], block)
    view, counter = instrumented(d)
    with mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block), _rows_spy() as rows:
        assert first_crossing(view, edges) == want
    assert counter.count == asked
    return rows.called


def _fan_walks(hub, order):
    """(h, L, h), (h, L) and (L, h) for L = order, then for L = order reversed."""
    return [walk for fan in (list(order), list(order)[::-1])
            for walk in ([hub, *fan, hub], [hub, *fan], [*fan, hub])]


def _scaled(n, seed, scale):
    # random_geometric(n, seed), x 2^40 or x 2^60 (then shifted) on object mirrors.
    pts = generators.random_geometric(n, seed).points[1:]
    return generators.geometric([(x * scale + 1, y * scale - 3) for x, y in pts])


@given(st.sampled_from([1, 2**40, 2**60]), st.integers(3, 30), st.integers(0, 300),
       st.sampled_from([1, 5, 40, drawing.OFFSET_BLOCK_ENTRIES]),
       st.randoms(use_true_random=False))
def test_walk_kernel_settles_fan_walks(scale, n, seed, block, rng):
    # Cyclic shifts of a hub's rotation, whole or among a subset, walked
    # from the hub, to it or both, either way round, at a random hub and at
    # a hull hub (the smallest point): the plane check asks no cross_pairs
    # row exactly for the fan walks of `fan_hub`, and first_crossing answers the
    # scalar reference with its queries.  Started after the one pair that
    # turns by more than π, every walk is a fan; started elsewhere, that
    # pair is a walk edge, and the closed walk is no fan about the hub (it
    # may still be one about the last label of L, the other hub tried).
    d = _scaled(n, seed, scale)
    pts = d.points
    for hub in (rng.randint(1, n), min(range(1, n + 1), key=pts.__getitem__)):
        keep = set(rng.sample(range(1, n + 1), rng.randint(3, n)))
        for rotation in (d.rotation_of(hub), d.rotation_among(hub, keep)):
            k = len(rotation)
            if k < 2:
                continue
            long_ = [i for i in range(k) if geometry.orientation(
                pts[hub], pts[rotation[i]], pts[rotation[(i + 1) % k]]) < 0]
            assert len(long_) <= 1
            for s in {rng.randrange(k), *((i + 1) % k for i in long_)}:
                walks = _fan_walks(hub, rotation[s:] + rotation[:s])
                dense = [_fan_walk_check(d, seq, block) for seq in walks]
                assert dense == [fan_hub(d, seq) is None for seq in walks]
                if k > 2 and long_:
                    after = s == (long_[0] + 1) % k
                    assert not (after and any(dense))
                    assert (fan_hub(d, walks[0]) == fan_hub(d, walks[3]) == hub) == after
                elif k > 2:
                    assert not any(dense)


@given(st.sampled_from([1, 2**40, 2**60]), st.integers(5, 30), st.integers(0, 300),
       st.sampled_from([1, 40, drawing.OFFSET_BLOCK_ENTRIES]), st.randoms(use_true_random=False))
def test_walk_kernel_settles_star_hc_cycles_and_fan_paths(scale, n, seed, block, rng):
    # The star-hc cycle from its hub, `hamiltonian_cycle`'s cycle closed as
    # its certificate lists it (hub n second to last), and an s-t path to an
    # interior t, which is t's fan path ending at t, each also read
    # backwards: the plane check asks no cross_pairs row exactly for fan
    # walks, and first_crossing answers the scalar reference.  The paths are fans, and
    # so are the cycles at an interior hub: hc's is the star-hc cycle at n,
    # which at a hull n may hold n's long turn as an edge.
    d = _scaled(n, seed, scale)
    hub = rng.randint(1, n)
    cyc = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
    hc = hamiltonian_cycle(d, verify=False).vertices
    walks = [[*cyc, hub], [hub, *cyc[:0:-1], hub], [*hc, hc[0]], [*hc[-2::-1], n, hc[-2]]]
    if is_interior(d, hub):
        assert fan_hub(d, walks[0]) == fan_hub(d, walks[1]) == hub
    assert hc[-1] == n
    if is_interior(d, n):
        assert None not in (fan_hub(d, walks[2]), fan_hub(d, walks[3]))
    interior = [v for v in range(1, n + 1) if is_interior(d, v)]
    if interior:
        t = rng.choice(interior)
        path = list(st_hamiltonian_path(d, rng.choice([v for v in range(1, n + 1) if v != t]), t,
                                        verify=False).vertices)
        walks += [path, path[::-1]]
        assert fan_hub(d, path) is not None and fan_hub(d, path[::-1]) is not None
    for seq in walks:
        assert _fan_walk_check(d, seq, block) == (fan_hub(d, seq) is None)


def test_walk_kernel_finds_every_crossing_of_a_star_polygon():
    # Five points around the hub 1 at (1, 2), listed as a pentagram, walked
    # from the hub and back, or to it, or from it: every pair turns by less
    # than π, but the order winds twice, so no walk is a fan.  Each asks
    # Drawing.cross_pairs, and plane_hits reports every hit of its rows.
    d = generators.geometric([(1, 2), (1000, 7), (313, 951), (-809, 590), (-806, -586),
                              (305, -950)])
    assert d.rotation_of(1) == (2, 3, 4, 5, 6)
    counts = []
    for seq in _fan_walks(1, (2, 4, 6, 3, 5)):
        ends = np.array([canon_edge(*e) for e in zip(seq, seq[1:])], dtype=np.int64)
        want = list(drawing.offset_hits(d._oracle.cross_pairs, ends))
        with _rows_spy() as rows:
            assert list(drawing.plane_hits(d, ends)) == want
        assert rows.called and fan_hub(d, seq) is None
        counts.append(len(want))
    assert counts == [5, 4, 4, 5, 4, 4]


@pytest.mark.parametrize("block", [1, 5, 40, drawing.OFFSET_BLOCK_ENTRIES])
def test_walk_kernel_asks_a_long_turn_rounded_to_zero(block):
    # Around hub 1 the pair (2, 3) turns by just over π, but its o2 rounds
    # to 0 on float64 mirrors in [2^50, 2^52); every other pair turns by
    # less than π.  Walks along the rotation started after 3 hold (2, 3)
    # as an edge, so none is a fan: each asks Drawing.cross_pairs, and
    # those whose star edge at the far end from (2, 3) crosses it are found.
    d = tied_long_turn_drawing()
    hub, rotation = 1, d.rotation_of(1)
    i = rotation.index(2)
    assert rotation[i + 1] == 3
    xs, ys = d._oracle.xs, d._oracle.ys
    px, py = xs[[2, 3]] - xs[hub], ys[[2, 3]] - ys[hub]
    assert px[0] * py[1] - py[0] * px[1] == 0
    walks = _fan_walks(hub, rotation[i + 2:] + rotation[:i + 2])
    for seq in walks:
        assert fan_hub(d, seq) is None and _fan_walk_check(d, seq, block)
    crossed = [first_crossing(d, list(zip(seq, seq[1:]))) is not None for seq in walks]
    assert crossed == [True, True, False, True, False, True]


def test_plane_check_takes_the_walk_kernel_only_for_walks_on_points():
    # A star, a subdrawing's sorted edges and an abstract drawing's cycle
    # ask cross_pairs without asking the fan walk test; a cycle on points
    # asks it whether the cycle is a fan.
    geo, abstract = generators.random_geometric(12, 1), generators.two_page(12)
    star = [(1, v) for v in range(2, 13)]
    sub = sorted(greedy_maximal_plane(geo).edges)
    cyc = hamiltonian_cycle(abstract).vertices
    ring = list(zip(cyc, cyc[1:] + cyc[:1]))
    spy = mock.patch.object(geometry.PointBack, "fan_walk", autospec=True,
                            side_effect=geometry.PointBack.fan_walk)
    with spy as walks:
        for d, edges in ((geo, star), (geo, sub), (abstract, ring)):
            first_crossing(d, edges)
        assert not walks.called
        first_crossing(geo, ring)
        assert walks.call_count == 1


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8)])
def test_first_crossing_rejects_labels_out_of_range(make):
    # Given as a list, a tuple or an iterator (the s-t solver passes a zip).
    d = make()
    for edges in ([(0, 2), (1, 3)], [(-1, 2), (1, 3)], [(1, 9), (2, 3)],
                  [(1, 3), (2, 10**30)]):
        for given in (list, tuple, iter):
            with pytest.raises(VertexOutOfRange):
                first_crossing(d, given(edges))
            with pytest.raises(VertexOutOfRange):
                is_plane(d, given(edges))
        with pytest.raises(ValueError, match="degenerate edge"):
            first_crossing(d, given([(1, 3), (4, 4)]))
    with pytest.raises(VertexOutOfRange):
        greedy_maximal_plane(d, seed=[(1, 9)])
    assert first_crossing(d, iter([(1, 3), (2, 4)])) == first_crossing(d, [(1, 3), (2, 4)])


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8)])
def test_first_crossing_rejects_edges_of_other_than_two_labels(make):
    # Read as one flat label list, (1, 5, 3), (2, 6, 4) would be the edges
    # {1, 5}, {3, 2} and {6, 4}.  Each edge list whose label count is not
    # twice its edge count, as a list, a tuple or an iterator, raises
    # ValueError naming its first edge of other than two labels.
    d = make()
    for edges, bad in (([(1, 5, 3), (2, 6, 4)], r"\(1, 5, 3\)"),
                       ([(1, 2, 3), (4, 5)], r"\(1, 2, 3\)"),
                       ([(1, 3), (2,), (4, 5)], r"\(2,\)"), ([(1, 3), ()], r"\(\)")):
        for given in (list, tuple, iter):
            with pytest.raises(ValueError, match=f"edge {bad} does not have two labels"):
                first_crossing(d, given(edges))
            with pytest.raises(ValueError, match=f"edge {bad} does not have two labels"):
                is_plane(d, given(edges))
    assert first_crossing(d, zip((1, 2), (3, 4))) == first_crossing(d, [(1, 3), (2, 4)])


@pytest.mark.parametrize("n, seed", [(5, 24), (5, 32), (6, 24)])
def test_plane_check_of_a_hamiltonian_cycle_that_is_no_fan_asks_cross_pairs(n, seed):
    # The cases of `fan_hub` over random_geometric(n, seed), n = 5..30,
    # seed < 60, where hamiltonian_cycle's cycle is no fan: n is a hull
    # vertex whose turn past π is a cycle edge.  The certificate verifies
    # with its C(n, 2) queries, every one asked through Drawing.cross_pairs
    # in offset_hits' blocks, and no block is settled.
    d = generators.random_geometric(n, seed)
    cert = hamiltonian_cycle(d, verify=False)
    cyc = cert.vertices
    assert fan_hub(d, [*cyc, cyc[0]]) is None and not is_interior(d, n)
    ends = np.array([canon_edge(*e) for e in zip(cyc, cyc[1:] + cyc[:1])], dtype=np.int64)
    asked = []

    def ask(*args):
        asked.append(args)
        return d._oracle.cross_pairs(*args)

    list(drawing.offset_hits(ask, ends))
    view, counter = instrumented(d)
    with kernel_calls() as calls:
        assert verify_certificate(view, cert).oracle_verified
    assert counter.count == comb(n, 2)
    assert [name for name, _args, _hits in calls] == ["cross_pairs"] * len(asked)
    for (_name, args, hits), want in zip(calls, asked):
        assert not hits.any()
        assert all(np.array_equal(x, y) for x, y in zip(args, want))


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8)])
def test_star_check_rejects_edge_labels_past_int64(make):
    # A certificate built by hand whose edges disagree with its vertices:
    # a label past int64 raises VertexOutOfRange, not OverflowError.
    d = make()
    edges = ((1, 2), (2, 3), (3, 10**30), (4, 5), (5, 6), (6, 7), (7, 8), (1, 8))
    cert = Certificate("cycle", tuple(range(1, 9)), edges, {"star_avoiding": 1})
    with pytest.raises(VertexOutOfRange, match="out of range 1..8"):
        verify_certificate(d, cert)


def _pinned_certificates():
    """(drawing, hub, star-avoiding cycle, greedy maximal plane edges)."""
    out = []
    for d, hub in ((generators.random_geometric(30, 2), 7),
                   (generators.two_page(14, ((1, 4),)), 3)):
        cyc = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
        sub = sorted(greedy_maximal_plane(d, order=all_edges(d.n)).edges)
        out.append((d, hub, cyc, sub))
    return out


def _verify_count(d, cert):
    view, counter = instrumented(d)
    try:
        verify_certificate(view, cert)
        failed = ()
    except CertificateError as err:
        failed = err.failed
    return counter.count, failed


def test_verify_certificate_counts_per_claim():
    # plane, star_avoiding and hamiltonian were counted by the previous
    # verifier; maximal_plane is C(|E|,2) + (C(n,2) - |E|) * |E|.  An
    # empty k-cycle claiming plane and empty_side is checked for planarity
    # once: C(k,2) + C(n-k,2) * k, where the previous verifier asked C(k,2)
    # more (1785 and 189).
    pinned = [
        {"plane": 435, "star_avoiding": 756, "hamiltonian": 0, "maximal_plane": 31205,
         "empty_side": 1680},
        {"plane": 91, "star_avoiding": 132, "hamiltonian": 0, "maximal_plane": 2015,
         "empty_side": 168},
    ]
    for (d, hub, cyc, sub), want in zip(_pinned_certificates(), pinned):
        values = {"plane": True, "star_avoiding": hub, "hamiltonian": True}
        for claim, value in values.items():
            assert _verify_count(d, cycle_certificate(cyc, {claim: value})) == (want[claim], ())
        m = len(sub)
        assert want["maximal_plane"] == comb(m, 2) + (comb(d.n, 2) - m) * m
        cert = subdrawing_certificate(sub, {"maximal_plane": True})
        assert _verify_count(d, cert) == (want["maximal_plane"], ())
        k = d.n // 2
        assert want["empty_side"] == comb(k, 2) + comb(d.n - k, 2) * k
        cert = empty_k_cycle(d, k, hub, verify=False)
        assert cert.claims == {"plane": True, "empty_side": True}
        assert _verify_count(d, cert) == (want["empty_side"], ())


def test_broken_cycles_fail_the_empty_side_claim():
    # A cycle that is not plane, has inconsistent sides or is no cycle at
    # all fails empty_side as a claim; nothing else is raised.
    crossed = cycle_certificate((1, 3, 2, 4, 5, 6), {"plane": True, "empty_side": True})
    assert _verify_count(generators.convex_position(6), crossed)[1] == ("empty_side", "plane")
    d = Drawing(6, pair_oracle(6, [((1, 2), (4, 5))]), rotations=lex_rotations(6))
    inconsistent = cycle_certificate((1, 2, 3), {"empty_side": True})
    assert _verify_count(d, inconsistent)[1] == ("empty_side",)
    edge = path_certificate((1, 2), {"empty_side": True})
    assert _verify_count(d, edge)[1] == ("empty_side",)


def test_tampered_maximal_plane_certificates():
    # Failed tuples are the previous verifier's.  The plane and maximal_plane
    # claims share one plane check, which stops after the block holding the
    # added edge's crossing.  Its C(80, 2) and C(27, 2) entries fit one
    # block, so the check asks them all (row by row it stopped at 157 / 51).
    for (d, _, _, sub), add_count in zip(_pinned_certificates(), (3160, 351)):
        claims = {"plane": True, "maximal_plane": True}
        dropped = subdrawing_certificate(sub[1:], claims)
        assert _verify_count(d, dropped)[1] == ("maximal_plane",)
        extra = next(e for e in all_edges(d.n) if e not in sub)
        crossed = subdrawing_certificate(sub + [extra], claims)
        assert add_count == comb(len(sub) + 1, 2) <= drawing.OFFSET_BLOCK_ENTRIES
        assert _verify_count(d, crossed) == (add_count, ("maximal_plane", "plane"))


def _star_reference(d, cert, hub):
    """(first row crossing the star, rows) of the star_avoiding check, by scalars."""
    rows = [e for e in cert.edges if hub not in e]
    for r, e in enumerate(rows):
        if any(d.crosses(e, (w, hub)) for w in range(1, d.n + 1) if w not in (*e, hub)):
            return r, rows
    return None, rows


def _maximal_reference(d, edges):
    """(first non-edge crossing no edge, non-edges) of the maximal_plane check, by scalars."""
    have = set(edges)
    non = [e for e in all_edges(d.n) if e not in have]
    for r, e in enumerate(non):
        if not any(d.crosses(e, f) for f in edges):
            return r, non
    return None, non


@given(st.sampled_from(["geometric", "two_page"]), st.integers(5, 9), st.integers(0, 5),
       BLOCKS, st.randoms(use_true_random=False))
def test_star_avoiding_claims_in_blocks(kind, n, seed, block, rng):
    # The constructed cycle verifies; a shuffled one often crosses the star.
    d = _row_drawing(kind, n, seed)
    hub = rng.randint(1, n)
    built = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
    for cyc in (built, rng.sample(range(1, n + 1), rng.randint(3, n))):
        cert = cycle_certificate(cyc, {"star_avoiding": hub})
        if hub not in cyc:
            continue  # fails without a query
        hit_row, rows = _star_reference(d, cert, hub)
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block):
            count, failed = _verify_count(d, cert)
        assert failed == (() if hit_row is None else ("star_avoiding",))
        assert count == _asked(len(rows), n - 3, hit_row, block)
        if cyc is built:
            assert failed == () and count == (n - 3) * len(rows)


def _star_kernel_spies():
    return (mock.patch.object(oracle, name, wraps=getattr(oracle, name))
            for name in ("star_hits", "ask_rows"))


@pytest.mark.parametrize("kind", ["geometric", "two_page"])
@pytest.mark.parametrize("block", [1, 7, 64, drawing.ROW_BLOCK_ENTRIES])
def test_star_check_on_a_spanning_path_takes_the_star_kernel(kind, block):
    # On a star-hc cycle, on it reversed, and on a planted cycle through the
    # hub that crosses its star, the star kernel and, with _walk answering
    # None, the ask_rows rows give the same verdict with the same queries.
    n, hub = 14, 5
    d = _row_drawing(kind, n, 1)
    built = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
    others = [v for v in range(1, n + 1) if v != hub]
    planted = (hub, *random.Random(3).sample(others, n - 1))
    for seq, crossing in ((built, False), ((hub, *built[:0:-1]), False), (planted, True)):
        cert = cycle_certificate(seq, {"star_avoiding": hub})
        hit_row, rows = _star_reference(d, cert, hub)
        assert (hit_row is not None) == crossing
        want = (_asked(len(rows), n - 3, hit_row, block), ("star_avoiding",) if crossing else ())
        star, rows_path = _star_kernel_spies()
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block):
            with star as kernel, rows_path as asked:
                assert _verify_count(d, cert) == want
            assert (kernel.call_count, asked.call_count) == (1, 0)
            with mock.patch.object(oracle, "_walk", return_value=None):
                assert _verify_count(d, cert) == want


@pytest.mark.parametrize("block", [1, 7, 64, drawing.ROW_BLOCK_ENTRIES])
def test_star_check_of_a_rotation_started_at_the_wrong_place(block):
    # Around a hull hub every pair of its rotation turns by less than π
    # but one, (a, b).  The cycle through the hub and its rotation started
    # at b is star-avoiding, and the star kernel forms no G row for it.
    # Started anywhere else, the path holds the pair (a, b), which crosses
    # a star edge: the claim fails, with the queries of the scalar
    # reference, and only the block holding (a, b) forms G rows.
    n = 14
    d = _row_drawing("geometric", n, 1)
    pts = d.points
    hub = min(range(1, n + 1), key=pts.__getitem__)
    rotation, k = d.rotation_of(hub), n - 1
    (i,) = [i for i in range(k)
            if geometry.orientation(pts[hub], pts[rotation[i]], pts[rotation[(i + 1) % k]]) < 0]
    for s in range(k):
        cert = cycle_certificate((hub, *rotation[s:], *rotation[:s]), {"star_avoiding": hub})
        hit_row, rows = _star_reference(d, cert, hub)
        assert (hit_row is None) == (s == (i + 1) % k)
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), star_g_rows() as formed:
            count, failed = _verify_count(d, cert)
        assert failed == (() if hit_row is None else ("star_avoiding",))
        assert count == _asked(len(rows), n - 3, hit_row, block)
        if hit_row is None:
            assert formed == set()
        else:
            assert hit_row == (i - s) % k
            i0, i1 = next(g for g in row_groups(len(rows), n - 3, block) if g[0] <= hit_row < g[1])
            assert formed == set(range(i0, i1 + 1))


@pytest.mark.parametrize("block", [1, 7, 64, drawing.ROW_BLOCK_ENTRIES])
@pytest.mark.parametrize("scale", [1, 2**40])
def test_star_check_of_a_clockwise_star_hc_cycle_forms_no_g_row(scale, block):
    # The star-hc cycle read the other way round, (hub, *reversed path),
    # is a fan whose pairs all turn clockwise: it verifies with the
    # queries of the cycle as built, and neither check forms a G row.  At
    # a hull hub too, whose long turn is then the order's wrap pair.
    n = 60
    d = _scaled(n, 1, scale)
    for hub in (7, min(range(1, n + 1), key=d.points.__getitem__)):
        built = star_avoiding_hamiltonian_cycle(d, hub, verify=False)
        back = cycle_certificate((hub, *built.vertices[:0:-1]), built.claims)
        for cert in (built, back):
            with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), star_g_rows() as formed:
                count, failed = _verify_count(d, cert)
            assert failed == () and formed == set()
            assert count == comb(n, 2) + (n - 2) * (n - 3)


@pytest.mark.parametrize("kind", ["geometric", "two_page"])
def test_star_check_off_a_spanning_path_asks_rows(kind):
    # Shuffled edges, a path that misses a vertex, and a walk through every
    # other vertex that revisits one take the ask_rows rows, with the
    # verdict and the queries of the scalar reference.
    n, hub = 12, 5
    d = _row_drawing(kind, n, 1)
    built = star_avoiding_hamiltonian_cycle(d, hub, verify=False).vertices
    x = built[1:]
    edges = cycle_certificate(built, {}).edges
    revisit = (x[0], x[1], x[2], x[0], *x[3:])
    walk_edges = [(hub, x[0]), *zip(revisit, revisit[1:]), (x[-1], hub)]
    claims = {"star_avoiding": hub}
    certs = [
        Certificate("cycle", built, tuple(random.Random(4).sample(edges, len(edges))), claims),
        cycle_certificate(built[:-1], claims),
        Certificate("cycle", built, tuple(canon_edge(*e) for e in walk_edges), claims),
    ]
    assert drawing._walk(np.array(walk_edges[1:-1])).tolist() == list(revisit)
    for cert in certs:
        hit_row, rows = _star_reference(d, cert, hub)
        star, rows_path = _star_kernel_spies()
        with star as kernel, rows_path as asked:
            count, failed = _verify_count(d, cert)
        assert (kernel.call_count, asked.call_count) == (0, 1)
        assert failed == (() if hit_row is None else ("star_avoiding",))
        assert count == _asked(len(rows), n - 3, hit_row, drawing.ROW_BLOCK_ENTRIES)


@given(st.sampled_from(["geometric", "two_page"]), st.integers(5, 9), st.integers(0, 5),
       BLOCKS, st.randoms(use_true_random=False))
def test_maximal_plane_claims_in_blocks(kind, n, seed, block, rng):
    # A greedy maximal plane subdrawing verifies; dropping edges breaks
    # maximality, and an added non-edge crosses some edge, so the plane
    # check fails first.
    d = _row_drawing(kind, n, seed)
    order = all_edges(n)
    rng.shuffle(order)
    sub = sorted(greedy_maximal_plane(d, order=order).edges)
    dropped = rng.sample(sub, rng.randint(1, 3))
    extra = rng.choice([e for e in all_edges(n) if e not in sub])
    for edges in (sub, [e for e in sub if e not in dropped], sub + [extra]):
        cert = subdrawing_certificate(edges, {"maximal_plane": True})
        edges = cert.edges
        m = len(edges)
        crossing, plane_cost = first_crossing_reference(d, edges, block)
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), \
                mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block):
            count, failed = _verify_count(d, cert)
        if crossing is not None:
            assert failed == ("maximal_plane",)
            assert count == plane_cost
            continue
        empty_row, non = _maximal_reference(d, edges)
        assert failed == (() if empty_row is None else ("maximal_plane",))
        assert count == comb(m, 2) + _asked(len(non), m, empty_row, block)
        if edges == tuple(sub):
            assert failed == () and count == comb(m, 2) + (comb(n, 2) - m) * m


def _cycle_sides_reference(d, cyc):
    """The previous cycle_sides: scalar parities against a reference vertex,
    then every pair in row-major order."""
    k = len(cyc)
    cycle_edges = [canon_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    off = sorted(set(range(1, d.n + 1)) - set(cyc))

    def parity(w, w2):
        return sum(d.crosses((w, w2), e) for e in cycle_edges) % 2

    side = {w: parity(off[0], w) if w != off[0] else 0 for w in off}
    for i, w in enumerate(off):
        for w2 in off[i + 1:]:
            if parity(w, w2) != side[w] ^ side[w2]:
                return (w, w2)
    return (frozenset(w for w in off if not side[w]), frozenset(w for w in off if side[w]))


@given(st.integers(5, 8), st.randoms(use_true_random=False))
def test_cycle_sides_matches_reference_on_abstract_crossings(n, rng):
    # Both the sides and the first inconsistent pair get exercised.
    d = random_k4_drawing(n, rng)
    cyc = tuple(rng.sample(range(1, n + 1), rng.randint(3, n - 2)))
    k = len(cyc)
    if first_crossing(d, [(cyc[i], cyc[(i + 1) % k]) for i in range(k)]) is not None:
        return
    want = _cycle_sides_reference(d, cyc)
    view, counter = instrumented(d)
    if isinstance(want[0], int):
        with pytest.raises(SideInconsistency) as err:
            cycle_sides(view, cyc)
        assert str(err.value) == (
            f"vertices {want[0]},{want[1]} disagree with sides of cycle {cyc}"
        )
    else:
        sides = cycle_sides(view, cyc)
        assert (sides.side_a, sides.side_b) == want
        # One row per cycle edge over all off-cycle pairs, after the plane check.
        assert counter.count == comb(k, 2) + comb(n - k, 2) * k


def test_cycle_sides_inconsistency_message():
    d = Drawing(6, pair_oracle(6, [((1, 2), (4, 5))]), rotations=lex_rotations(6))
    with pytest.raises(SideInconsistency, match=r"vertices 5,6 disagree with sides of cycle \(1, 2, 3\)"):
        cycle_sides(d, (1, 2, 3))
