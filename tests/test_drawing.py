import random
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import drawing, generators, geometry, hamiltonian, oracle, starframe
from convexham.drawing import (
    all_edges,
    canon_edge,
    induced_subdrawing,
    instrumented,
    new_drawing,
    relabel,
    same_drawing,
    split_by_triangle,
    triangle_sides,
)
from convexham.errors import (
    CrossingsDisagree,
    InvalidRotation,
    NotAPermutation,
    SideInconsistency,
    TooFewVertices,
    VertexOutOfRange,
)
from conftest import (
    adjacent,
    canon_pair,
    construction_pool,
    kernel_calls,
    pair_oracle,
    random_k4_drawing,
    row_groups,
    settled_groups,
    side_convex,
    star_g_rows,
    star_windows,
    tied_long_turn_drawing,
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
    # An adjacent pair, and two crossings in one K4, are pairs the
    # rotations cannot fix; the comparison names the one they do not.
    with pytest.raises(CrossingsDisagree, match=r"listed crossing \(1, 2\) x \(2, 3\) is not"):
        new_drawing(4, _rot(4), [((1, 2), (2, 3))])
    with pytest.raises(CrossingsDisagree, match=r"listed crossing \(1, 2\) x \(3, 4\) is not"):
        new_drawing(4, _rot(4), [((1, 2), (3, 4)), ((1, 3), (2, 4))])


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


@given(st.integers(4, 8), st.randoms())
def test_same_drawing_matches_crossing_sets(n, rng):
    # Equal rotations, so only the crossing tables can tell these apart.
    d1, d2 = random_k4_drawing(n, rng), random_k4_drawing(n, rng)
    assert same_drawing(d1, d2) == (d1.crossing_set() == d2.crossing_set())
    # A relabelled drawing keeps its rotations and reads its crossings from
    # them, which a pair oracle's rotations do not fix.
    assert same_drawing(relabel(d1, list(range(1, n + 1))), new_drawing(n, d1.rotations))
    geo = generators.random_geometric(n, rng.randrange(1000))
    abstract = new_drawing(n, geo.rotations)
    assert same_drawing(abstract, geo)
    assert same_drawing(abstract, relabel(abstract, list(range(1, n + 1))))


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


def _parity(d, tri, w, w2):
    a, b, c = tri
    return sum(d.crosses((w, w2), e) for e in ((a, b), (b, c), (a, c))) % 2


def _split_reference(d, tri, among):
    """The previous split_by_triangle: three scalar queries per vertex against the smallest."""
    w0, *rest = sorted(among)
    odd = [w for w in rest if _parity(d, tri, w0, w)]
    return [w0] + [w for w in rest if w not in odd], odd


def _triangle_sides_reference(d, tri):
    """The previous triangle_sides: the split, then every pair's parity checked.

    Returns (side_a, side_b, convex_a, convex_b), or None where some pair
    contradicts the split.
    """
    off = [v for v in range(1, d.n + 1) if v not in tri]
    same, other = _split_reference(d, tri, off)
    for i, w in enumerate(off):
        for w2 in off[i + 1:]:
            if _parity(d, tri, w, w2) != ((w in other) != (w2 in other)):
                return None
    return (frozenset(same), frozenset(other),
            side_convex(d, tri, same)[0], side_convex(d, tri, other)[0])


def _assert_triangle_sides_match(d):
    for tri in combinations(range(1, d.n + 1), 3):
        want = _triangle_sides_reference(d, tri)
        view, counter = instrumented(d)
        if want is None:
            with pytest.raises(SideInconsistency, match="disagree with sides of cycle"):
                triangle_sides(view, *tri)
            continue
        part = triangle_sides(view, *tri)
        assert (part.side_a, part.side_b, part.convex_a, part.convex_b) == want
        # Three rows over the off-triangle pairs, three corner rows over the
        # off-triangle vertices.
        assert counter.count == 3 * comb(d.n - 3, 2) + 3 * (d.n - 3)


@given(st.integers(4, 9), seeds)
def test_triangle_sides_matches_reference_geometric(n, seed):
    _assert_triangle_sides_match(generators.random_geometric(n, seed))


@pytest.mark.parametrize("n,outer", [(6, ((1, 4),)), (8, ((1, 4), (4, 7), (7, 8))), (9, ())])
def test_triangle_sides_matches_reference_two_page(n, outer):
    _assert_triangle_sides_match(generators.two_page(n, outer))


@given(st.integers(5, 8), st.randoms(use_true_random=False))
def test_triangle_sides_matches_reference_abstract(n, rng):
    _assert_triangle_sides_match(random_k4_drawing(n, rng))


@given(st.integers(4, 9), seeds, st.randoms(use_true_random=False))
def test_split_by_triangle_matches_reference(n, seed, rng):
    d = random_k4_drawing(n, rng) if seed % 2 else generators.random_geometric(n, seed)
    tri = tuple(sorted(rng.sample(range(1, n + 1), 3)))
    rest = [v for v in range(1, n + 1) if v not in tri]
    among = rng.sample(rest, rng.randint(1, len(rest)))
    view, counter = instrumented(d)
    assert split_by_triangle(view, tri, among) == _split_reference(d, tri, among)
    assert counter.count == 3 * (len(among) - 1)


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
    # Geometric offset rows go in blocks of one or many rows, with a partial
    # last block; the set is the scalar one either way.
    d = make()
    edges = all_edges(d.n)
    want = {(e, f) for i, e in enumerate(edges) for f in edges[i + 1:] if d.crosses(e, f)}
    for block in (1, 5, 40, drawing.OFFSET_BLOCK_ENTRIES):
        view, counter = instrumented(d)
        with mock.patch.object(drawing, "OFFSET_BLOCK_ENTRIES", block):
            assert view.crossing_set() == d.crossing_set() == frozenset(want)
        assert counter.count == 0


@given(st.sampled_from([1, 4, 7, 20, 64, drawing.ROW_BLOCK_ENTRIES]), st.data())
def test_ask_rows_groups_rows_greedily(block, data):
    # Row lengths on both sides of a third of the block, and at it.
    edge = st.sampled_from([block // 3, block // 3 + 1, block])
    length = data.draw(st.one_of(st.integers(0, 30), st.integers(1300, 1500), edge))
    rows = data.draw(st.integers(0, 24))
    a, b = np.arange(rows) + 100, np.arange(rows) + 500
    calls = []

    def ask(*args):
        calls.append(args)
        return args[2] % 3 == 0

    def operands(i0, i1):
        # Row i's entries are the flat positions i L..(i + 1) L - 1, as
        # (R, L) operands in a call of R > 1 rows.
        flat = np.arange(i0 * length, i1 * length)
        return (flat.reshape(i1 - i0, length) if i1 > i0 + 1 else flat), -1

    groups = row_groups(rows, length, block)
    stop = data.draw(st.integers(0, len(groups)))
    with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block):
        asked = drawing.ask_rows(ask, a, b, length, operands)
        got = [next(asked) for _ in range(stop)]
        asked.close()
    # A caller that stops early asks no later block; each block's hits are
    # shaped (rows, length), whatever shape the call returned.
    assert [(i0, i0 + len(hits)) for i0, hits in got] == groups[:stop]
    assert len(calls) == stop
    for (i0, hits), (_i0, i1), (ca, cb, cs, ds) in zip(got, groups, calls):
        assert hits.shape == (i1 - i0, length)
        assert np.array_equal(hits, (cs % 3 == 0).reshape(i1 - i0, length)) and ds == -1
        if i1 == i0 + 1:
            assert np.ndim(ca) == np.ndim(cb) == 0
            assert (ca, cb) == (a[i0], b[i0])
        else:
            assert np.array_equal(ca, a[i0:i1, None]) and np.array_equal(cb, b[i0:i1, None])
    # The operands joined together are the row-major entries.
    joined = np.concatenate([np.arange(0)] + [cs.ravel() for _a, _b, cs, _d in calls])
    assert np.array_equal(joined, np.arange(groups[stop - 1][1] * length if stop else 0))


def _block_drawing(kind, n):
    if kind == "two-page":
        return generators.two_page(n, ((1, 4),))
    d = generators.random_geometric(n, n)
    if kind == "beyond 2^52":
        return generators.geometric([(x * 2**60 + 1, y * 2**60 - 3) for x, y in d.points[1:]])
    return d


@given(st.sampled_from(["geometric", "beyond 2^52", "two-page"]), st.integers(5, 9), st.data())
def test_row_blocks_match_flat_rows_and_scalars(kind, n, data):
    # An (R, 1) pair column against (R, L) operands, or against one label
    # d: each entry equals the flat 1-D row's and the scalar query's, and
    # the block counts R * L queries.  Pairs and operands share endpoints
    # freely, so PointBack's exact fallback reads broadcast operands at flat
    # positions inside a 2-D block; on float and on integer mirrors (beyond
    # 2^52) alike it answers exactly the entries sharing an endpoint.
    d = _block_drawing(kind, n)
    label = st.integers(1, n)
    edge = st.tuples(label, label).filter(lambda e: e[0] != e[1])
    r, width = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6))
    a, b = np.array(data.draw(st.lists(edge, min_size=r, max_size=r))).T[:, :, None]
    if data.draw(st.booleans()):
        ds = data.draw(label)
        cs = np.array(data.draw(st.lists(label.filter(lambda c: c != ds),
                                         min_size=r * width, max_size=r * width)), dtype=np.int64)
        cs = cs.reshape(r, width)
    else:
        ops = data.draw(st.lists(edge, min_size=r * width, max_size=r * width))
        cs, ds = np.array(ops, dtype=np.int64).reshape(r, width, 2).transpose(2, 0, 1)
    dd = np.broadcast_to(ds, (r, width))
    want = [[d.crosses((a[i, 0], b[i, 0]), (cs[i, j], dd[i, j])) for j in range(width)]
            for i in range(r)]
    view, counter = instrumented(d)
    exact = mock.patch.object(geometry.PointBack, "_exact", autospec=True,
                              side_effect=geometry.PointBack._exact)
    with exact as fallback:
        block = view.cross_pairs(a, b, cs, ds)
    assert block.shape == (r, width) and block.tolist() == want
    assert counter.count == r * width
    shared = any({a[i, 0], b[i, 0]} & {cs[i, j], dd[i, j]} for i in range(r) for j in range(width))
    assert fallback.called == (kind != "two-page" and shared)
    flat = view.cross_pairs(a.repeat(width), b.repeat(width), cs.ravel(), dd.ravel())
    assert flat.tolist() == block.ravel().tolist()
    assert counter.count == 2 * r * width


@pytest.mark.parametrize("kind", ["geometric", "beyond 2^52", "two-page"])
def test_list_operands_reach_the_exact_fallback(kind):
    # Label lists are operands too: an entry sharing an endpoint sends them
    # through PointBack's exact fallback, beyond 2^52 as below it.
    d = _block_drawing(kind, 7)
    view, counter = instrumented(d)
    got = view.cross_pairs(1, 2, [2, 4, 5], 6).tolist()
    assert got == [d.crosses((1, 2), (c, 6)) for c in (2, 4, 5)]
    got = view.cross_pairs([[1], [3]], [[2], [4]], [[2, 5], [3, 6]], 7).tolist()
    assert got == [[d.crosses((1, 2), (c, 7)) for c in (2, 5)],
                   [d.crosses((3, 4), (c, 7)) for c in (3, 6)]]
    assert counter.count == 7


def _spied_calls(block=drawing.ROW_BLOCK_ENTRIES):
    """Patches recording the `Drawing.cross_pairs` calls under a block size."""
    spy = mock.patch.object(drawing.Drawing, "cross_pairs", autospec=True,
                            side_effect=drawing.Drawing.cross_pairs)
    return mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), spy


def test_row_block_call_shapes():
    # A scan of k <= 65 vertices, k (k - 2) <= 4,096 entries, is one star
    # block of all k rows, counted as k (k - 2) queries: no call when the
    # fan lemma settles it (`settled_groups`), else one, the answer of a
    # (k, 1) pair column against (k, k - 2) operands.  Prefixes of a
    # rotation and shuffled orders.  A split is one call of a (3, 1) column
    # whatever the block size, also when its rows are longer than a third
    # of a block.
    d = generators.random_geometric(66, 1)
    rng = random.Random(66)
    asked = 0
    for k in (3, 40, 65):
        prefix = d.rotation_of(66)[:k]
        for order in (prefix, tuple(rng.sample(prefix, k))):
            view, counter = instrumented(d)
            with kernel_calls() as calls:
                list(starframe.scan_bad_edges(view, order, 66))
            assert counter.count == k * (k - 2)
            want = [] if settled_groups(d, order, 66, [(0, k)]) else [(0, k)]
            assert [(i0, i1) for _name, (_rows, i0, i1), _hits in calls] == want
            for name, (_rows, i0, i1), hits in calls:
                a, b, cs = star_windows(order, i0, i1)
                assert name == "cross_block"
                assert (a.shape, b.shape, cs.shape, hits.shape) == (
                    (k, 1), (k, 1), (k, k - 2), (k, k - 2))
                assert np.array_equal(hits, d._oracle.cross_pairs(a, b, cs, 66))
            asked += len(calls)
    assert asked >= 3
    for block in (drawing.ROW_BLOCK_ENTRIES, 12):
        patched, spy = _spied_calls(block)
        with patched, spy as calls:
            split_by_triangle(d, (1, 2, 3), range(4, 10))
        ((_d, a, b, cs, w0),) = [c.args for c in calls.call_args_list]
        assert a.tolist() == [[1], [2], [1]] and b.tolist() == [[2], [3], [3]]
        assert (cs.tolist(), w0) == ([5, 6, 7, 8, 9], 4)


def _star_pool(kind, n, seed):
    # Points as given, and x 2^40 or x 2^60 (then shifted), past 2^52, on
    # object mirrors; or an abstract drawing of the construction pool.
    scale = {"geometric": 1, "x2^40": 2**40, "x2^60": 2**60}.get(kind)
    if scale is None:
        return construction_pool(kind, n, seed)
    pts = generators.random_geometric(n, seed).points[1:]
    d = generators.geometric([(x * scale + 1, y * scale - 3) for x, y in pts])
    assert (d._oracle.xs.dtype == object) == (scale > 1)
    return d


@given(st.sampled_from(["geometric", "x2^40", "x2^60", "fan", "two-page", "twisted"]),
       st.integers(4, 14), st.integers(0, 300), st.sampled_from([1, 7, 64, 4096]),
       st.randoms(use_true_random=False))
def test_star_kernel_matches_cross_pairs(kind, n, seed, block, rng):
    # On whole rotations and on rotations restricted to a subset, as the s-t
    # solver asks them, and on shuffled orders: star_hits groups rows as
    # ask_rows does, asks every group but those the fan lemma settles
    # (`settled_groups`), all misses, and counts them all; every block asked
    # equals cross_pairs over the same window, array for array, and so does
    # every block of one star_rows' row function asked last to first, the
    # settled ones too.  An order whose blocks are asked leaves about k of
    # their entries to the point kernel's o1 if angular, a shuffled one
    # about half of them.
    d = _star_pool(kind, n, seed)
    hub = rng.randint(1, n)
    keep = set(rng.sample(range(1, n + 1), rng.randint(3, n))) | {hub}
    shuffled = [x for x in range(1, n + 1) if x != hub]
    rng.shuffle(shuffled)
    for order in (d.rotation_of(hub), tuple(x for x in d.rotation_of(hub) if x in keep),
                  shuffled):
        k = len(order)
        if k < 3:
            continue
        view, counter = instrumented(d)
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block):
            got = list(drawing.star_hits(view, order, hub, k))
        groups = row_groups(k, k - 2, block)
        settled = settled_groups(d, order, hub, groups)
        assert [(i0, i0 + len(hits)) for i0, hits in got] == [g for g in groups
                                                              if g not in settled]
        assert counter.count == k * (k - 2)
        rows, fans = d._oracle.star_rows(order, hub)
        assert [g for g, fan in zip(groups, fans(groups)) if fan] == settled
        backwards = [rows(i0, i1) for i0, i1 in reversed(groups)][::-1]
        answers = dict(got)
        for (i0, i1), again in zip(groups, backwards):
            want = d._oracle.cross_pairs(*star_windows(order, i0, i1), hub)
            assert want.shape == (i1 - i0, k - 2)
            # A settled group, asked by no call, holds no hit.
            assert i0 in answers or not want.any()
            for x in (answers.get(i0, want), again):
                assert x.dtype == bool and x.shape == want.shape
                assert np.array_equal(x, want)


def _float_tie_drawing():
    # Hub h = (2^50, 2^50) and, relative to it, a = (P, Q) and w = (2P + 1,
    # 2Q + 1) with P = 2^50, Q = P - 1: cross(a - h, w - h) = P - Q = 1, but
    # its products 2^101 - 2^50 and 2^101 - 2^50 - 1 round to one float64,
    # so the star kernel's o3 of a against the star edge {w, h} is 0.  b
    # lies across the line hw from a, so ab crosses the star edge: a
    # crossing with q = o3 o4 = 0, settled only by _exact.  Then four
    # points of [2^50, 2^52) in general position.
    p = 2**50
    h, a, w, b = (p, p), (2 * p, 2 * p - 1), (3 * p + 1, 3 * p - 1), (2 * p - 2**40, 2 * p + 2**40)
    rng = random.Random(5)
    more = [(rng.randrange(p, 4 * p), rng.randrange(p, 4 * p)) for _ in range(4)]
    d = generators.geometric([h, a, w, b, *more])
    assert d._oracle.xs.dtype == np.float64
    return d


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_star_kernel_settles_float_ties_exactly(block):
    # Near-collinear float64 mirrors: a candidate entry with m == 0 reaches
    # _exact from star_rows and gets the scalar verdict, and every block
    # still equals cross_pairs.  The tie sits at rows 0 and 3 of the orders.
    d = _float_tie_drawing()
    pts, hub = d.points, 1
    exact = geometry.PointBack._exact
    for order in ((2, 4, 3, 5, 6, 7, 8), (6, 7, 8, 2, 4, 3, 5)):
        k = len(order)
        spy = mock.patch.object(geometry.PointBack, "_exact", autospec=True, side_effect=exact)
        with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), spy as calls:
            got = list(drawing.star_hits(d, order, hub, k))
        asked = []
        for call in calls.call_args_list:
            _self, a, b, cs, ds, idx, shape = call.args
            verdicts = exact(d._oracle, a, b, cs, ds, idx, shape)
            at = np.unravel_index(idx, shape)
            labels = [np.broadcast_to(x, shape)[at].tolist() for x in (a, b, cs, ds)]
            for entry, crossed in zip(zip(*labels), verdicts.tolist()):
                assert crossed == geometry.segments_cross(*(pts[x] for x in entry))
                asked.append((entry, crossed))
        assert ((2, 4, 3, 1), True) in asked
        for (i0, i1), (_i0, hits) in zip(row_groups(k, k - 2, block), got):
            assert np.array_equal(hits, d._oracle.cross_pairs(*star_windows(order, i0, i1), hub))


def _long_turns(d, order, hub, turn=1):
    """Rows i of `order` whose pair turns about hub by more than π, counterclockwise
    (turn = 1) or clockwise (turn = -1): turn cross(P_a, P_b) < 0, exactly."""
    pts, k = d.points, len(order)
    hx, hy = pts[hub]
    p = [(pts[x][0] - hx, pts[x][1] - hy) for x in order]
    return [i for i in range(k)
            if turn * (p[i][0] * p[(i + 1) % k][1] - p[i][1] * p[(i + 1) % k][0]) < 0]


def _star_blocks_against_cross_pairs(d, order, hub, block):
    """Ask star_hits with ROW_BLOCK_ENTRIES = block, check that it asks every group
    but those `settled_groups` names, which hold no hit, that it counts them
    all, and that every block asked equals cross_pairs.  Returns (hit
    entries (row, column), G rows formed, groups asked)."""
    k = len(order)
    view, counter = instrumented(d)
    with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), star_g_rows() as formed:
        got = list(drawing.star_hits(view, order, hub, k))
    groups = row_groups(k, k - 2, block)
    settled = settled_groups(d, order, hub, groups)
    asked = [g for g in groups if g not in settled]
    assert [(i0, i0 + len(hits)) for i0, hits in got] == asked
    assert counter.count == k * (k - 2)
    hit = set()
    for (i0, i1), (_i0, hits) in zip(asked, got):
        assert np.array_equal(hits, d._oracle.cross_pairs(*star_windows(order, i0, i1), hub))
        hit.update((i0 + int(r), int(j)) for r, j in zip(*hits.nonzero()))
    for i0, i1 in settled:
        assert not d._oracle.cross_pairs(*star_windows(order, i0, i1), hub).any()
    return hit, formed, asked


@given(st.sampled_from(["geometric", "x2^40", "x2^60"]), st.integers(4, 40), st.integers(0, 300),
       st.sampled_from([1, 7, 64, 4096]), st.randoms(use_true_random=False))
def test_star_kernel_settles_the_short_turns_of_angular_orders(kind, n, seed, block, rng):
    # Cyclic shifts of a rotation, whole or restricted to a subset, at a
    # random hub and at a hull hub (the smallest point), and the same read
    # clockwise: only the block holding the one pair that turns by more
    # than π is asked and forms its G rows, and only that pair can hit.
    # The same rotation shuffled asks the blocks `settled_groups` leaves,
    # and forms the G rows of those alone.  Every block asked still equals
    # cross_pairs.
    d = _star_pool(kind, n, seed)
    for hub in (rng.randint(1, n), min(range(1, n + 1), key=d.points.__getitem__)):
        keep = set(rng.sample(range(1, n + 1), rng.randint(3, n)))
        for rotation in (d.rotation_of(hub), d.rotation_among(hub, keep)):
            k = len(rotation)
            if k < 3:
                continue
            s = rng.randrange(k)
            for order, turn in ((rotation[s:] + rotation[:s], 1),
                                (rotation[s::-1] + rotation[:s:-1], -1)):
                long_ = _long_turns(d, order, hub, turn)
                assert len(long_) <= 1
                hit, formed, asked = _star_blocks_against_cross_pairs(d, order, hub, block)
                assert {i for i, _j in hit} <= set(long_)
                assert asked == [(i0, i1) for i0, i1 in row_groups(k, k - 2, block)
                                 if any(i0 <= i < i1 for i in long_)]
                assert formed == set().union(*(range(i0, i1 + 1) for i0, i1 in asked))
            shuffled = tuple(rng.sample(rotation, k))
            _hit, formed, asked = _star_blocks_against_cross_pairs(d, shuffled, hub, block)
            assert formed == set().union(*(range(i0, i1 + 1) for i0, i1 in asked))


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_star_kernel_asks_a_long_turn_rounded_to_zero(block):
    # The hub's rotation is angular, but its long turn has o2 = 0 in
    # float64: that row takes the G rows and _exact, and reports its four
    # hits; the short turns are settled.
    d = tied_long_turn_drawing()
    hub, a, b = 1, 2, 3
    rotation = d.rotation_of(hub)
    i = rotation.index(a)
    assert rotation[(i + 1) % len(rotation)] == b and _long_turns(d, rotation, hub) == [i]
    xs, ys = d._oracle.xs, d._oracle.ys
    px, py = xs[[a, b]] - xs[hub], ys[[a, b]] - ys[hub]
    assert px[0] * py[1] - py[0] * px[1] == 0
    exact = geometry.PointBack._exact
    spy = mock.patch.object(geometry.PointBack, "_exact", autospec=True, side_effect=exact)
    for s in range(len(rotation)):
        order = rotation[s:] + rotation[:s]
        row = (i - s) % len(order)
        hit, formed, asked = _star_blocks_against_cross_pairs(d, order, hub, block)
        assert hit == {(row, j) for j in range(4)}
        dense = next((i0, i1) for i0, i1 in row_groups(len(order), len(order) - 2, block)
                     if i0 <= row < i1)
        assert asked == [dense] and formed == set(range(dense[0], dense[1] + 1))
        rows, _fans = d._oracle.star_rows(order, hub)
        with spy as calls:
            assert rows(row, row + 1).sum() == 4
        assert calls.call_count == 1 and calls.call_args.args[5].size == 4


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_star_kernel_asks_every_row_of_a_star_polygon(block):
    # Five points around a central hub, listed as a pentagram: each pair
    # turns by 144°, so every o2 > 0, but the order winds twice and is not
    # a rotation.  Every block forms its G rows, and each row's pair crosses
    # the star edge of the point its wedge holds: five hits.
    d = generators.geometric([(1, 2), (1000, 7), (313, 951), (-809, 590), (-806, -586),
                              (305, -950)])
    hub, order = 1, (2, 4, 6, 3, 5)
    assert _long_turns(d, order, hub) == [] and d.rotation_of(hub) == (2, 3, 4, 5, 6)
    hit, formed, _asked = _star_blocks_against_cross_pairs(d, order, hub, block)
    assert {i for i, _j in hit} == set(range(5)) and len(hit) == 5 and formed == set(range(6))


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8, ((1, 4),))])
def test_star_kernel_rejects_labels_out_of_range(make):
    # Labels are checked once, when the block function is made: a negative
    # one raises instead of reading vertex 8, and no query is counted.
    d = make()
    for order, hub in (([-1, 2, 3, 4], 8), ([1, 0, 3], 8), ([1, 2, 9], 8), ([1, 2, 3], -1),
                       ([1, 2, 3], 0), ([1, 2, 3], 9)):
        with pytest.raises(VertexOutOfRange, match="out of range 1..8"):
            d._oracle.star_rows(order, hub)
        view, counter = instrumented(d)
        with pytest.raises(VertexOutOfRange):
            list(starframe.scan_bad_edges(view, order, hub))
        assert counter.count == 0


@given(st.sampled_from(["fan", "two-page", "geometric", "twisted"]), st.integers(5, 14),
       st.integers(0, 50), st.randoms(use_true_random=False))
def test_rotation_among_is_the_filtered_rotation(kind, n, seed, rng):
    d = construction_pool(kind, n, seed)
    v = rng.randint(1, n)
    labels = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
    fresh = relabel(d, range(1, n + 1))  # no cached rotations
    assert fresh.rotation_among(v, labels) == tuple(x for x in d.rotation_of(v) if x in labels)


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8, ((1, 4),))])
def test_rotations_reject_hubs_out_of_range(make):
    # Hub 0 would read the unused origin slot, and -1 would read label 8's
    # rotation; 9 is past the end.  Each raises, on stored and computed
    # rotations alike.
    d = make()
    fresh = relabel(d, range(1, 9))  # no cached rotations
    for hub in (0, -1, 9):
        for e in (d, fresh):
            with pytest.raises(VertexOutOfRange, match=f"vertex {hub} out of range 1..8"):
                e.rotation_of(hub)
            for labels in ({1, 2, 3}, set(range(1, 9))):
                with pytest.raises(VertexOutOfRange, match=f"vertex {hub} out of range 1..8"):
                    e.rotation_among(hub, labels)



@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8, ((1, 4),))])
def test_rotation_among_rejects_labels_out_of_range(make):
    # Among points, label -1 would be sorted as vertex 8, 0 as the unused
    # origin slot, and 9 raised IndexError; the stored rotations dropped
    # all three, and seven labels but the hub read as every other vertex.
    # Each raises VertexOutOfRange naming it, on stored and computed
    # rotations alike, given as a list or a set.
    d = make()
    fresh = relabel(d, range(1, 9))  # no cached rotations
    for bad in (-1, 0, 9):
        for e in (d, fresh):
            for labels in ([2, bad, 3], {2, bad, 3}, [bad, 3, 4, 5, 6, 7, 8]):
                with pytest.raises(VertexOutOfRange, match=f"vertex {bad} out of range 1..8"):
                    e.rotation_among(1, labels)
    assert d.rotation_among(1, []) == ()

def _gather_2d(oracle, a, b, cs, ds):
    """The explicit oracle's row as a 2-D gather, the reference for its flat one."""
    return oracle._table[oracle._edge_id[a, b], oracle._edge_id[cs, ds]]


@given(st.integers(4, 12), st.randoms(use_true_random=False), st.data())
def test_explicit_flat_gather_matches_2d(n, rng, data):
    # Labels 0..n, with label 0 and u == v among them: both read the
    # sentinel, which crosses nothing.
    oracle = random_k4_drawing(n, rng)._oracle
    size = data.draw(st.integers(0, 30))
    labels = st.lists(st.integers(0, n), min_size=size, max_size=size).map(
        lambda x: np.array(x, dtype=np.int64))
    cs, ds = data.draw(labels), data.draw(labels)
    for a, b in ((data.draw(st.integers(0, n)), data.draw(st.integers(0, n))),
                 (data.draw(labels), data.draw(labels))):
        got = oracle.cross_pairs(a, b, cs, ds)
        assert got.dtype == bool
        assert got.tolist() == _gather_2d(oracle, a, b, cs, ds).tolist()
    zero = np.zeros(size, dtype=np.int64)
    assert not oracle.cross_pairs(zero, cs, cs, ds).any()
    assert not oracle.cross_pairs(cs, cs, cs, ds).any()


@pytest.mark.parametrize("bad", [5, 6, 30])
def test_explicit_gather_rejects_labels_above_n(bad):
    # K_4's id table is 5 x 5: a label above 4 raises rather than reading
    # another row of the flat crossing table.
    oracle = pair_oracle(4, [((1, 3), (2, 4))])
    cs = np.array([2, 2])
    for a, b, c, d in ((1, 3, np.array([2, bad]), 4), (1, bad, cs, 4), (bad, 3, cs, 4),
                       (1, 3, cs, np.array([4, bad]))):
        with pytest.raises(IndexError):
            oracle.cross_pairs(a, b, c, d)


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
    # Coordinates beyond 2**52 run the row kernel on integer mirrors.
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


_FIVE = generators.convex_position(5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: oracle.cycle_sides(_FIVE, (1, 2, 6)), VertexOutOfRange,
     "vertices out of range 1..5: (1, 2, 6)"),
    (lambda: triangle_sides(_FIVE, 1, 2, 6), VertexOutOfRange, "vertices out of range 1..5"),
    (lambda: triangle_sides(_FIVE, 1, 2, 2), ValueError,
     "triangle needs three distinct vertices, got (1, 2, 2)"),
    (lambda: induced_subdrawing(_FIVE, (0, 1, 2)), VertexOutOfRange,
     "vertices out of range 1..5"),
    (lambda: hamiltonian.path_containing_edge(_FIVE, (1, 6)), VertexOutOfRange,
     "edge (1, 6) out of range 1..5"),
    (lambda: hamiltonian._two_edge_path(_FIVE, (1, 2), (3, 6), False), VertexOutOfRange,
     "edges (1, 2), (3, 6) out of range 1..5"),
])
def test_out_of_range_vertices_are_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_same_drawing_tells_sizes_and_rotations_apart():
    twisted = generators.twisted(5)
    assert twisted.rotations != _FIVE.rotations
    assert not same_drawing(_FIVE, generators.convex_position(6))
    assert not same_drawing(_FIVE, twisted)
    assert same_drawing(_FIVE, generators.convex_position(5))
