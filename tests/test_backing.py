"""The backing surface, one contract at a time, on every backing.

`convexham.drawing`'s module docstring states the surface: `cross`,
`cross_pairs`, `rotation_of`, `rotation_among`, `fan_blocks` and
`fan_walk`.  Each test here is one contract, run on points (float64
mirrors, and x 2^40 and x 2^60 on object mirrors), on abstract drawings
(a two-page fan, a relabelled two-page drawing with outer chords,
twisted(6..9)) and on `conftest.SetBacking`, a backing that only the
tests define.  A new backing joins the suite by one more entry in
BACKINGS.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from convexham import drawing, generators, hamiltonian, oracle
from convexham.drawing import all_edges, instrumented
from convexham.errors import NotConvexEvidence
from conftest import adjacent, construction_pool, set_backed


def _points(n, seed, scale):
    pts = generators.random_geometric(n, seed).points[1:]
    if scale == 1:
        return generators.geometric(pts)
    return generators.geometric([(x * scale + 1, y * scale - 3) for x, y in pts])


# Each entry builds a fresh drawing (no rotation sorted yet) of its backing.
BACKINGS = {
    "float64": lambda: _points(12, 3, 1),
    "x2^40": lambda: _points(10, 5, 2**40),
    "x2^60": lambda: _points(9, 7, 2**60),
    "fan": lambda: generators.two_page(11),
    "two-page-chords": lambda: construction_pool("two-page", 10, 4),
    **{f"twisted{n}": (lambda n=n: generators.twisted(n)) for n in (6, 7, 8, 9)},
    "set-backed-points": lambda: set_backed(_points(8, 2, 1)),
    "set-backed-chords": lambda: set_backed(generators.two_page(8, ((1, 4), (3, 6)))),
}


@pytest.fixture(params=sorted(BACKINGS), scope="module")
def make(request):
    return BACKINGS[request.param]


def _labels(rng, n, shape):
    """Random labels of `shape`: a label for (), else an int64 array."""
    if shape == ():
        return rng.randint(1, n)
    return np.array([rng.randint(1, n) for _ in range(int(np.prod(shape)))],
                    dtype=np.int64).reshape(shape)


def _unlike(rng, n, other, shape):
    """Labels of `shape` unlike `other`, broadcast to `shape`, in every entry."""
    avoid = np.broadcast_to(other, shape).ravel().tolist()
    got = [rng.choice([u for u in range(1, n + 1) if u != x]) for x in avoid]
    return got[0] if shape == () else np.array(got, dtype=np.int64).reshape(shape)


def _edge_operands(rng, n, shapes):
    """Two operands of the given shapes, every broadcast entry an edge (two labels)."""
    first, second = shapes
    if len(first) > len(second):
        y, x = _edge_operands(rng, n, (second, first))
        return x, y
    x = _labels(rng, n, first)
    return x, _unlike(rng, n, x, np.broadcast_shapes(first, second))


def _scalar(d, a, b, cs, ds):
    """The backing's scalar `cross` of every entry of the broadcast operands."""
    ops = np.broadcast_arrays(a, b, cs, ds)
    return np.array([d._oracle.cross(*e) for e in zip(*(x.ravel().tolist() for x in ops))],
                    dtype=bool).reshape(ops[0].shape)


# The operand shapes Drawing.cross_pairs documents, for R rows of L entries:
# 1-D rows, `cs` a row and `a`, `b`, `ds` each a label or a row; then 2-D
# blocks, an (R, 1) pair column or one (L,) pair row against (R, L)
# operands or operands that broadcast to them, one (L,) row or one label.
R, L = 3, 5
SHAPES = [
    *((a, b, (L,), ds) for a in ((), (L,)) for b in ((), (L,)) for ds in ((), (L,))),
    ((R, 1), (R, 1), (R, L), (R, L)),
    ((R, 1), (R, 1), (R, L), (L,)),
    ((R, 1), (R, 1), (R, L), ()),
    ((R, 1), (R, 1), (L,), (R, L)),
    ((L,), (L,), (R, L), (R, L)),
    ((L,), (L,), (R, L), ()),
]


@pytest.mark.parametrize("shapes", SHAPES, ids=str)
def test_cross_pairs_equals_scalar_cross(make, shapes):
    # Every entry of a row or block equals the scalar query, the answer has
    # the operands' broadcast shape, and each entry counts one query.
    d = make()
    rng = random.Random(repr(shapes))
    for _trial in range(20):
        a, b = _edge_operands(rng, d.n, shapes[:2])
        cs, ds = _edge_operands(rng, d.n, shapes[2:])
        view, counter = instrumented(d)
        got = view.cross_pairs(a, b, cs, ds)
        assert got.dtype == bool and got.shape == np.broadcast_shapes(*shapes)
        assert np.array_equal(got, _scalar(d, a, b, cs, ds))
        assert counter.count == got.size


def test_shared_endpoints_answer_false_and_count(make):
    # A row whose entries share an endpoint with the pair answers False
    # there and counts every entry.  The scalar query is symmetric, and
    # adjacent edges never cross (the consecutive edges of all_edges).
    d = make()
    n, rng = d.n, random.Random(d.n)
    for a, b in rng.sample(all_edges(n), 8):
        cs = np.array([a, b, *rng.sample(range(1, n + 1), 4)], dtype=np.int64)
        ds = _unlike(rng, n, cs, cs.shape)
        view, counter = instrumented(d)
        got = view.cross_pairs(a, b, cs, ds)
        assert counter.count == len(cs)
        shared = [bool({a, b} & {c, x}) for c, x in zip(cs.tolist(), ds.tolist())]
        assert not got[shared].any() and shared[:2] == [True, True]
        assert np.array_equal(got, _scalar(d, a, b, cs, ds))
        block = view.cross_pairs(np.array([[a], [b]]), np.array([[b], [a]]), cs, ds)
        assert counter.count == 3 * len(cs) and np.array_equal(block, [got, got])
    edges = all_edges(n)
    for e, f in zip(edges, edges[1:]):
        assert d.crosses(e, f) == d.crosses(f, e)
        if adjacent(e, f):
            assert not d.crosses(e, f)


def test_rotation_among_is_the_filtered_rotation(make):
    # Asked of a drawing with no rotation sorted yet, and of one with all
    # of them: any label set, with or without v, as a set or a list, empty
    # or whole.  rotation_of is canonical: the others, from the smallest.
    d = make()
    n, rng = d.n, random.Random(d.n + 1)
    for v in range(1, n + 1):
        rot = d.rotation_of(v)
        assert sorted(rot) == [u for u in range(1, n + 1) if u != v] and rot[0] == min(rot)
        for labels in (set(rng.sample(range(1, n + 1), rng.randint(0, n))), set(range(1, n + 1)),
                       rng.sample(range(1, n + 1), rng.randint(0, n)), []):
            want = tuple(x for x in rot if x in labels)
            fresh = make()
            assert fresh.rotation_among(v, labels) == want
            assert fresh._oracle.rotation_among(v, labels) == want
            assert d.rotation_among(v, labels) == want


def _star_rows(d, hub, order):
    """Scalar star rows of `order` about hub: pair i against the star edges of
    the k - 2 labels after it, cyclically."""
    k = len(order)
    return np.array([[d._oracle.cross(order[i], order[(i + 1) % k], order[(i + j) % k], hub)
                      for j in range(2, k)] for i in range(k)], dtype=bool)


def _orders(d, hub, rng):
    """Cyclic shifts of hub's rotation, whole and among a subset, either way round,
    and the rotation shuffled."""
    rot = d.rotation_of(hub)
    keep = d.rotation_among(hub, set(rng.sample(rot, rng.randint(3, len(rot)))))
    for r in (rot, keep):
        s = rng.randrange(len(r))
        yield r[s:] + r[:s]
        yield (r[s:] + r[:s])[::-1]
    yield tuple(rng.sample(rot, len(rot)))


def test_settled_star_blocks_have_no_scalar_hit(make):
    # A block of star rows that fan_blocks settles holds no hit by scalar
    # queries, for blocks of one row, of a few and of all.  On points the
    # short turns of an angular order are settled.  Orders as long as a whole
    # rotation that lack its first label, and repeat another or hold the hub,
    # are asked too, with the hub's rotation already read.
    d = make()
    n, rng = d.n, random.Random(d.n + 2)
    settled = 0
    for hub in range(1, n + 1):
        rot = d.rotation_of(hub)
        for order in (*_orders(d, hub, rng), rot[1:] + rot[1:2], rot[1:] + (hub,)):
            k = len(order)
            rows = _star_rows(d, hub, order)
            for step in (1, 2, k):
                bounds = [(i0, min(i0 + step, k)) for i0 in range(0, k, step)]
                fans = list(d._oracle.fan_blocks(hub, np.array(order, dtype=np.int64), bounds))
                assert len(fans) == len(bounds)
                for (i0, i1), fan in zip(bounds, fans):
                    if fan:
                        settled += 1
                        assert not rows[i0:i1].any()
    assert (settled > 0) == (d.points is not None)


def _walks(hub, order):
    """(h, L, h), (h, L) and (L, h) for L = order."""
    return ([hub, *order, hub], [hub, *order], [*order, hub])


def test_accepted_fan_walks_are_plane(make):
    # An edge list fan_walk accepts has no crossing pair by scalar queries,
    # and its plane check counts C(m, 2) entries with no hit.
    d = make()
    n, rng = d.n, random.Random(d.n + 3)
    accepted = 0
    for hub in range(1, n + 1):
        for order in _orders(d, hub, rng):
            for seq in _walks(hub, list(order)):
                ends = np.array(list(zip(seq, seq[1:])), dtype=np.int64)
                if not d._oracle.fan_walk(ends):
                    continue
                accepted += 1
                edges = ends.tolist()
                assert not any(d._oracle.cross(*e, *f) for e, f in combinations(edges, 2))
                view, counter = instrumented(d)
                assert list(drawing.plane_hits(view, ends)) == []
                assert counter.count == len(edges) * (len(edges) - 1) // 2
    assert (accepted > 0) == (d.points is not None)


def test_row_functions_answer_the_scalar_queries(make):
    # drawing.py's row functions ask the surface alone: star_hits yields the
    # scalar star rows of every block it asks, and plane_hits the crossing
    # pairs of an edge list, each counted once.
    d = make()
    n, rng = d.n, random.Random(d.n + 4)
    hub = rng.randint(1, n)
    for order in _orders(d, hub, rng):
        k = len(order)
        rows = _star_rows(d, hub, order)
        view, counter = instrumented(d)
        for i0, hits in drawing.star_hits(view, order, hub, k):
            assert np.array_equal(hits, rows[i0:i0 + len(hits)])
        assert counter.count == k * (k - 2)
    edges = rng.sample(all_edges(n), 9)
    ends = np.array(edges, dtype=np.int64)
    want = [(i, j) for i, j in combinations(range(len(edges)), 2)
            if d._oracle.cross(*edges[i], *edges[j])]
    view, counter = instrumented(d)
    assert sorted(drawing.plane_hits(view, ends)) == want
    assert counter.count == len(edges) * (len(edges) - 1) // 2


def test_a_test_only_backing_runs_the_constructions():
    # The same certificates, evidence and queries over SetBacking as over the
    # backing it copies: a star-avoiding cycle and an s-t path, with their
    # verification, on the two-page fan; on twisted(6) the star-avoiding
    # cycle is refused with evidence and the s-t path verifies.
    for d, convex in ((generators.two_page(9), True), (generators.twisted(6), False)):
        copy = set_backed(d)
        for build in (lambda e: hamiltonian.star_avoiding_hamiltonian_cycle(e, 3, verify=False),
                      lambda e: hamiltonian.st_hamiltonian_path(e, 2, 5, verify=False)):
            got = []
            for e in (d, copy):
                view, counter = instrumented(e)
                try:
                    cert = build(view)
                    oracle.verify_certificate(view, cert)
                    got.append((cert.vertices, counter.count))
                except NotConvexEvidence as exc:
                    got.append((exc.which, exc.vertices, str(exc), counter.count))
            assert got[0] == got[1]
            assert not convex or len(got[0][0]) == d.n
