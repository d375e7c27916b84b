import hashlib
import random
from functools import cache
from itertools import combinations, permutations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pair_oracle, random_k4_drawing, random_two_page, side_convex
from convexham import convexity, generators
from convexham.convexity import (
    K5Class,
    NonConvexK5,
    NonConvexTriangle,
    _k5_code,
    _k5_table,
    _triangle_blocks,
    classify_k5,
    find_nonconvex_k5,
    find_nonconvex_triangle,
)
from convexham.drawing import (
    Drawing,
    induced_subdrawing,
    instrumented,
    relabel,
)
from convexham.errors import NotK5, SideInconsistency, TooLarge


def canonical_k5_form(crossing_pairs):
    """Relabel-invariant fingerprint of a 5-vertex crossing set, the reference classifier.

    Minimum over all 120 vertex relabelings of the sorted pair-of-edges
    tuple.
    """
    pairs = [tuple(sorted(map(tuple, map(sorted, p)))) for p in crossing_pairs]
    best = None
    for perm in permutations(range(1, 6)):
        m = (None,) + perm
        key = tuple(sorted(
            tuple(sorted((tuple(sorted((m[e[0]], m[e[1]]))), tuple(sorted((m[f[0]], m[f[1]]))))))
            for e, f in pairs
        ))
        if best is None or key < best:
            best = key
    return best


@cache
def _seed_forms():
    """Canonical form of each named class's seed drawing: three point sets and twisted(5)."""
    seeds = {
        K5Class.I: generators.convex_position(5),
        K5Class.II: generators.geometric([(0, 0), (40, 0), (40, 40), (0, 40), (18, 21)]),
        K5Class.III: generators.geometric([(0, 0), (60, 0), (0, 60), (14, 15), (22, 19)]),
        K5Class.V: generators.twisted(5),
    }
    return {cls: canonical_k5_form(d.crossing_set()) for cls, d in seeds.items()}


def test_catalog_rederivation():
    """Recompute the five-vertex forms from scratch and match them to the seeds.

    All 5-subsets of one geometric K12 must land on the three point-set
    forms (with 5, 3 and 1 crossings), which are the forms of the seeds of
    types I, II and III; the twisted K5 supplies the fourth.
    """
    d = generators.random_geometric(12, 94)
    seen = {}
    for sub in combinations(range(1, 13), 5):
        d5 = induced_subdrawing(d, sub).drawing
        form = canonical_k5_form(d5.crossing_set())
        seen.setdefault(len(form), set()).add(form)
    forms = _seed_forms()
    assert set(seen) == {5, 3, 1}
    assert seen[5] == {forms[K5Class.I]}
    assert seen[3] == {forms[K5Class.II]}
    assert seen[1] == {forms[K5Class.III]}
    tw = canonical_k5_form(generators.twisted(5).crossing_set())
    assert tw == forms[K5Class.V]
    assert len(set(forms.values())) == 4


def test_k5_table_digest():
    """The table's bytes, pinned: 12 / 60 / 15 / 60 codes of types I / II / III / V."""
    table, nonconvex = _k5_table()
    digest = "c968471a60a3963a41c322385e13bba6a2402a435ce1ca0078e7e9c7df1253e3"
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest
    assert np.bincount(table).tolist() == [12, 60, 15, 60, 32621]
    assert nonconvex.sum() == 60 + 32621


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
    # matches no seed's form, so it lands in the non-realisable bucket.
    crossings = pair_oracle(5, [((1, 2), (3, 4)), ((1, 2), (3, 5)), ((1, 2), (4, 5))])
    d = Drawing(5, crossings)
    assert classify_k5(d) is K5Class.IV_OR_V
    assert find_nonconvex_k5(d) is not None


def test_classify_wrong_size():
    with pytest.raises(NotK5):
        classify_k5(generators.convex_position(6))


@given(st.integers(5, 8), st.integers(0, 200))
def test_triangle_and_k5_checks_agree_geometric(n, seed):
    d = generators.random_geometric(n, seed)
    assert find_nonconvex_triangle(d) is None
    assert find_nonconvex_k5(d) is None


@pytest.mark.parametrize("n", range(5, 9))
def test_twisted_rejected_by_both(n):
    d = generators.twisted(n)
    assert find_nonconvex_triangle(d) is not None
    assert find_nonconvex_k5(d) is not None


def test_small_drawings_trivially_convex():
    # Below five vertices there is no 5-subset to check.
    assert find_nonconvex_k5(generators.random_geometric(4, 0)) is None
    assert find_nonconvex_k5(generators.twisted(4)) is None
    assert find_nonconvex_triangle(generators.convex_position(3)) is None


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


# The per-5-set classifier the table lookup replaced, kept as the reference.
def _reference_class(crossing_pairs):
    form = canonical_k5_form(crossing_pairs)
    for cls, known in _seed_forms().items():
        if form == known:
            return cls
    return K5Class.IV_OR_V


def _sub_crossings(d, sub):
    """Crossing pairs among the vertices `sub` (sorted), renamed 1..5 in order.

    Asked edge pair by edge pair of d, so a pair oracle (random_k4_drawing),
    whose rotations fix none of its crossings, keeps its own.
    """
    to_sub = {v: i for i, v in enumerate(sub, 1)}
    edges = list(combinations(sub, 2))
    return {
        (tuple(map(to_sub.get, e)), tuple(map(to_sub.get, f)))
        for e, f in combinations(edges, 2) if d.crosses(e, f)
    }


def _reference_find_nonconvex_k5(d):
    for sub in combinations(range(1, d.n + 1), 5):
        cls = _reference_class(_sub_crossings(d, sub))
        if not cls.convex:
            return NonConvexK5(sub, cls)
    return None


def _code_pairs(code):
    """The crossing pairs on labels 1..5 that a 15-bit code stands for."""
    pairs = []
    for i in range(5):
        w = [v for v in range(1, 6) if v != i + 1]
        for j in range(3):
            if code >> 3 * i + j & 1:
                mate = w[j + 1]
                rest = tuple(v for v in w[1:] if v != mate)
                pairs.append(((w[0], mate), rest))
    return pairs


def _fan(n, step):
    return generators.two_page(n, tuple((1, j) for j in range(4, n - 1, step)))


# Random two-page drawings are the kind whose nonconvex sides are often
# first violated by a pair off the triangle, not by a corner edge.
_KINDS = st.sampled_from(["twisted", "fan", "geometric", "k4", "two-page"])


def _drawing_of_kind(n, kind, rng):
    """A random_k4_drawing or random_two_page, or a twisted, fan or
    geometric drawing randomly relabelled."""
    if kind == "k4":
        return random_k4_drawing(n, rng)
    if kind == "two-page":
        return random_two_page(n, rng)
    d = {
        "twisted": lambda: generators.twisted(n),
        "fan": lambda: _fan(n, rng.choice((1, 2, 3))),
        "geometric": lambda: generators.random_geometric(n, rng.randrange(1000)),
    }[kind]()
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(d, perm)


@given(st.integers(5, 9), _KINDS, st.randoms())
def test_find_nonconvex_k5_matches_reference(n, kind, rng):
    d = _drawing_of_kind(n, kind, rng)
    assert find_nonconvex_k5(d) == _reference_find_nonconvex_k5(d)


def test_table_matches_canonical_forms_on_catalog_codes():
    table, nonconvex = _k5_table()
    forms = _seed_forms().values()
    codes = set()
    for form in forms:
        for perm in permutations(range(1, 6)):
            m = (0, *perm)
            codes.add(_k5_code([((m[a], m[b]), (m[c], m[x])) for (a, b), (c, x) in form]))
    assert len(codes) <= 480
    for code in codes:
        assert canonical_k5_form(_code_pairs(code)) in forms
        cls = _reference_class(_code_pairs(code))
        assert list(K5Class)[table[code]] is cls
        assert nonconvex[code] == (not cls.convex)
    # Only the seeds' codes are convex or type V.
    assert sum(table != list(K5Class).index(K5Class.IV_OR_V)) == len(codes)


@given(st.integers(0, (1 << 15) - 1))
def test_table_matches_canonical_forms_on_random_codes(code):
    assert _k5_code(_code_pairs(code)) == code
    assert list(K5Class)[_k5_table()[0][code]] is _reference_class(_code_pairs(code))


@pytest.mark.parametrize("n", [5, 6, 9, 12])
def test_k5_pass_asks_three_queries_per_4_set(n):
    rng = random.Random(n)
    for d in (_fan(n, 2), generators.random_geometric(n, 1), random_k4_drawing(n, rng)):
        view, counter = instrumented(d)
        find_nonconvex_k5(view)
        assert counter.count == 3 * comb(n, 4)
    view, counter = instrumented(generators.twisted(5))
    assert classify_k5(view) is K5Class.V
    assert counter.count == 15


def test_k5_pass_refuses_past_its_scratch_bound():
    with pytest.raises(TooLarge):
        find_nonconvex_k5(generators.convex_position(102))


@pytest.mark.parametrize("n, step", [(16, 3), (24, 3), (24, 2)])
def test_fans_convex_by_both_checks_at_scale(n, step):
    d = relabel(_fan(n, step), list(range(n, 0, -1)))
    assert find_nonconvex_k5(d) is None
    assert find_nonconvex_triangle(d) is None


def test_twisted_witness_at_scale():
    d = generators.twisted(40)
    bad = find_nonconvex_k5(d)
    assert bad is not None and not bad.k5_class.convex
    assert classify_k5(induced_subdrawing(d, bad.vertices).drawing) is bad.k5_class


# The per-triangle loop the blocked triangle pass replaced, on scalar
# queries, kept as the reference: sides by parity against the smallest off
# vertex, the first pair (row-major) contradicting them raises, then
# side_convex on both sides.
def _parity(d, tri, w, w2):
    a, b, c = tri
    return sum(d.crosses((w, w2), e) for e in ((a, b), (b, c), (a, c))) % 2


def _reference_find_nonconvex_triangle(d):
    for tri in combinations(range(1, d.n + 1), 3):
        off = [v for v in range(1, d.n + 1) if v not in tri]
        other = {w for w in off[1:] if _parity(d, tri, off[0], w)}
        for w, w2 in combinations(off, 2):
            if _parity(d, tri, w, w2) != ((w in other) != (w2 in other)):
                raise SideInconsistency(f"vertices {w},{w2} disagree with sides of cycle {tri}")
        ok_a, wa = side_convex(d, tri, [w for w in off if w not in other])
        ok_b, wb = side_convex(d, tri, other)
        if not (ok_a or ok_b):
            return NonConvexTriangle(tri, wa, wb)
    return None


def _outcome(find, d):
    try:
        return find(d)
    except SideInconsistency as exc:
        return str(exc)


@given(st.integers(3, 9), _KINDS, st.randoms())
def test_find_nonconvex_triangle_matches_reference(n, kind, rng):
    d = _drawing_of_kind(n, kind, rng)
    want = _outcome(_reference_find_nonconvex_triangle, d)
    assert _outcome(find_nonconvex_triangle, d) == want


@pytest.mark.parametrize("n, seed", [(6, 4), (6, 5), (7, 10), (7, 12)])
def test_find_nonconvex_triangle_names_pair_witnesses(n, seed):
    # Drawings whose first violation on one side is a pair (w, w2) off the
    # triangle crossing a triangle edge, not a corner edge.
    d = random_two_page(n, random.Random(seed))
    got = find_nonconvex_triangle(d)
    assert got == _reference_find_nonconvex_triangle(d)
    assert any(not set(edge) & set(got.triangle) for edge, _tri_edge in
               (got.violation_a, got.violation_b))


@pytest.mark.parametrize("n", [16, 24])
def test_find_nonconvex_triangle_matches_reference_on_fans(n):
    d = relabel(_fan(n, 3), list(range(n, 0, -1)))
    assert find_nonconvex_triangle(d) is _reference_find_nonconvex_triangle(d) is None


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
def test_triangle_pass_query_count_on_convex_input(n):
    # Every triangle: three rows over its off pairs, three corner rows.
    want = comb(n, 3) * (3 * comb(n - 3, 2) + 3 * (n - 3))
    for d in (generators.random_geometric(n, n), relabel(_fan(n, 2), list(range(n, 0, -1)))):
        view, counter = instrumented(d)
        assert find_nonconvex_triangle(view) is None
        assert counter.count == want


def _spied_triangle_pass(d):
    """find_nonconvex_triangle on a counted view of d: (result, queries, row calls).

    A scalar query fails the call.
    """
    view, counter = instrumented(d)
    spy = mock.patch.object(Drawing, "cross_pairs", autospec=True,
                            side_effect=Drawing.cross_pairs)
    scalar = mock.patch.object(Drawing, "crosses", side_effect=AssertionError("scalar query"))
    with scalar, spy as calls:
        bad = find_nonconvex_triangle(view)
    return bad, counter.count, [c.args[1:] for c in calls.call_args_list]


def _assert_block_calls(n, blocks, calls):
    # Six calls per block: the (T, 1) corner columns of ab, bc and ac against
    # (T, C(n - 3, 2)) off pairs, then against (T, n - 3) off vertices.
    assert len(calls) == 6 * len(blocks)
    for k, tris in enumerate(blocks):
        t = len(tris)
        for j, (a, b, cs, ds) in enumerate(calls[6 * k : 6 * k + 6]):
            x, y = ((0, 1), (1, 2), (0, 2))[j % 3]
            assert a.tolist() == tris[:, x : x + 1].tolist()
            assert b.tolist() == tris[:, y : y + 1].tolist()
            width = comb(n - 3, 2) if j < 3 else n - 3
            assert np.broadcast_shapes(np.shape(cs), np.shape(ds)) == (t, width)


@pytest.mark.parametrize("n, want", [(6, 180), (7, 450), (8, 945), (9, 1764)])
def test_triangle_pass_names_its_witness_from_its_blocks(n, want):
    # The pass stops after the block holding the flagged triangle, and its
    # witnesses come from that block's rows: T (3 C(n - 3, 2) + 3 (n - 3))
    # queries per block asked, and no scalar query.
    bad, queries, calls = _spied_triangle_pass(generators.twisted(n))
    blocks = []
    for tris in _triangle_blocks(n):
        blocks.append(tris)
        if list(bad.triangle) in tris.tolist():
            break
    assert queries == sum(map(len, blocks)) * (3 * comb(n - 3, 2) + 3 * (n - 3)) == want
    _assert_block_calls(n, blocks, calls)


def test_triangle_pass_cost_on_the_n60_fan():
    bad, queries, calls = _spied_triangle_pass(_fan(60, 3))
    assert bad is None and queries == 169_696_980
    _assert_block_calls(60, list(_triangle_blocks(60)), calls)


@pytest.mark.parametrize("n", [*range(3, 21), 60])
def test_triangle_blocks_cut_the_lex_list(n):
    # Blocks of at most ENTRIES // C(n - 3, 2) triangles (at least one),
    # never more than vertex 1's C(n - 1, 2).
    blocks = list(_triangle_blocks(n))
    assert np.concatenate(blocks).tolist() == [list(t) for t in combinations(range(1, n + 1), 3)]
    fit = convexity._TRIANGLE_BLOCK_ENTRIES // max(1, comb(n - 3, 2))
    cap = max(1, min(fit, comb(n - 1, 2)))
    assert all(len(b) <= cap for b in blocks)
    assert all(len(b) == cap for b in blocks[:-1])
    if fit >= comb(n - 1, 2):
        assert blocks[0].tolist() == [[1, b, c] for b, c in combinations(range(2, n + 1), 2)]
