import bisect
import random
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import drawing, generators, starframe
from convexham.drawing import canon_edge, instrumented
from convexham.errors import NotConvexEvidence, TooFewVertices
from convexham.starframe import build_star_frame, probe_bad_edge, scan_bad_edges, witness_row

from conftest import (
    construction_pool,
    is_interior,
    kernel_calls,
    row_groups,
    settled_groups,
    star_blocks,
    star_reference,
)

# Convex two-page drawings whose frames have several bad edges; the plain
# geometric generators never produce m >= 2 (a straight-line star leaves at
# most one angular gap wide enough).
MULTI_BAD = [
    (6, ((1, 4),)),
    (7, ((2, 5),)),
    (8, ((1, 4), (4, 7), (7, 8))),
    (9, ((1, 6), (2, 4), (7, 9))),
    (10, ((2, 4), (2, 10), (4, 8))),
    (12, ((4, 9), (4, 12), (7, 9), (9, 12))),
]


def _host_edge(frame, fu, fv):
    return canon_edge(frame.to_host[fu], frame.to_host[fv])


def _bad_host(frame):
    """Bad edges as host-label pairs."""
    return tuple(_host_edge(frame, *p) for p in frame.bad)


def _frames(d):
    return [build_star_frame(d, h) for h in range(1, d.n + 1)]


def test_worked_example_pentagon_hub5():
    frame = build_star_frame(generators.convex_position(5), 5)
    assert frame.m == 1
    assert _bad_host(frame) == ((1, 4),)
    # With one bad edge the relabeling parks it on the wrap pair.
    assert frame.bad == ((4, 1),)
    assert [sorted(frame.to_host[w] for w in ws) for ws in frame.witnesses] == [[2, 3]]


@pytest.mark.parametrize("n", range(4, 10))
def test_convex_position_every_hub_one_bad_edge(n):
    # Around hub h the only bad edge joins its hull neighbours, and every
    # other vertex witnesses it.
    d = generators.convex_position(n)
    for h in range(1, n + 1):
        frame = build_star_frame(d, h)
        assert frame.m == 1
        lo, hi = sorted(((h - 2) % n + 1, h % n + 1))
        assert _bad_host(frame) == ((lo, hi),)
        wit_hosts = {frame.to_host[w] for w in frame.witnesses[0]}
        assert wit_hosts == set(range(1, n + 1)) - {h, lo, hi}


def test_triangle_has_no_bad_edges():
    frame = build_star_frame(generators.convex_position(3), 2)
    assert frame.m == 0 and frame.l_table == {}


def test_multi_bad_instances_build():
    ms = []
    for n, outer in MULTI_BAD:
        d = generators.two_page(n, outer)
        ms.append(max(f.m for f in _frames(d)))
    assert min(ms) >= 2
    assert max(ms) >= 3  # the crafted K8 drives a three-bad-edge hub


def test_deep_frame_frozen_values():
    d = generators.two_page(12, {(4, 9), (4, 12), (7, 9), (9, 12)})
    frame = build_star_frame(d, 12)
    assert frame.m == 2
    assert frame.bad == ((8, 9), (10, 11))
    assert frame.witnesses == (frozenset({7}), frozenset({1, 2}))
    assert frame.blocks_left == ((3, 4, 5, 6),)
    assert frame.blocks_right == ((9, 10),)
    # One entry found by probing, one falling back to the default.
    assert frame.l_table == {9: 6, 10: 2}


def _brute_l_table(d, frame):
    """Reference connector table, straight from the definition."""
    v_star = frame.to_host[d.n]
    got = {}
    for i, (left, right) in enumerate(zip(frame.blocks_left, frame.blocks_right)):
        default = max(frame.witnesses[i + 1])
        for r in right:
            best = default
            for l in left:
                below = [x for x in left if x < l]
                if any(
                    d.crosses(
                        (frame.to_host[x], frame.to_host[r]),
                        (frame.to_host[l], v_star),
                    )
                    for x in below
                ):
                    best = max(best, l)
            got[r] = best
    return got


@pytest.mark.parametrize("n,outer", MULTI_BAD)
def test_l_table_matches_bruteforce(n, outer):
    d = generators.two_page(n, outer)
    checked = 0
    for frame in _frames(d):
        if frame.m < 2:
            continue
        assert frame.l_table == _brute_l_table(d, frame)
        checked += 1
    assert checked


@pytest.mark.parametrize("n,outer", MULTI_BAD)
def test_frame_structure_invariants(n, outer):
    d = generators.two_page(n, outer)
    for frame in _frames(d):
        k = n - 1
        # Bijection between host and frame labels, hub pinned at n.
        assert sorted(frame.to_host[1:]) == list(range(1, n + 1))
        assert all(frame.to_frame[frame.to_host[f]] == f for f in range(1, n + 1))
        assert frame.to_host[n] == frame.v_star
        # Relabeling is a rotation of the hub's rotation order.
        rot = d.rotation_of(frame.v_star)
        ring = tuple(frame.to_host[1 : n])
        i = rot.index(ring[0])
        assert rot[i:] + rot[:i] == ring
        if frame.m >= 2:
            vs = [p[0] for p in frame.bad]
            assert all(fv == fu + 1 for fu, fv in frame.bad)
            assert vs == sorted(vs) and vs[-1] == n - 2
            for (v, _vn), ws in zip(frame.bad, frame.witnesses):
                assert max(ws) < v  # sidedness
            for ws, ws_next in zip(frame.witnesses, frame.witnesses[1:]):
                assert min(ws) > max(ws_next)  # nestedness
            # Connector values stay in or below their left block and never
            # increase along a right block (the two-pointer's contract).
            for left, right, ws_next in zip(
                frame.blocks_left, frame.blocks_right, frame.witnesses[1:]
            ):
                lo = max(ws_next)
                prev = None
                for r in right:
                    val = frame.l_table[r]
                    assert val == lo or val in left
                    if prev is not None:
                        assert val <= prev
                    prev = val


@given(st.integers(4, 10), st.integers(0, 300))
def test_geometric_frames_have_at_most_one_bad_edge(n, seed):
    # Straight-line drawings: the hub's consecutive-pair edges can cross a
    # star edge only across one angular gap wider than a half-turn.
    d = generators.random_geometric(n, seed)
    for frame in _frames(d):
        assert frame.m <= 1


@pytest.mark.parametrize("hub", range(1, 7))
def test_twisted_frames_refuted(hub):
    with pytest.raises(NotConvexEvidence) as err:
        build_star_frame(generators.twisted(6), hub)
    assert err.value.which == "witness-two-block"
    assert err.value.vertices


def test_frame_argument_errors(conv6):
    with pytest.raises(ValueError):
        build_star_frame(conv6, 0)
    with pytest.raises(TooFewVertices):
        build_star_frame(_tiny(), 1)


def _tiny():
    # Bypass generator minimums via a direct Drawing: not possible through
    # the public constructors, so reuse n=3 and drop to the error path by
    # asking for a frame of a 2-vertex slice instead.
    class Stub:
        n = 2

    return Stub()


def test_quadratic_query_budget():
    d = generators.random_geometric(60, 5)
    view, counter = instrumented(d)
    build_star_frame(view, 60)
    assert counter.count <= 2 * 60 * 60


def _bad_by_scalars(d, order, hub):
    """Reference scan: bad pairs of `order` with host-label witnesses, one scalar query each."""
    k = len(order)
    out = {}
    for i in range(k):
        u, v = order[i], order[(i + 1) % k]
        ws = frozenset(w for w in order if w not in (u, v) and d.crosses((u, v), (w, hub)))
        if ws:
            out[canon_edge(u, v)] = ws
    return out


def _scanned(d, order, hub):
    k = len(order)
    return {
        canon_edge(order[i], order[(i + 1) % k]): frozenset(order[p] for p in wpos)
        for i, wpos in scan_bad_edges(d, order, hub)
    }


@pytest.mark.parametrize("n,outer", MULTI_BAD)
def test_scan_bad_edges_matches_frame(n, outer):
    # The scan shared by the frame and the s-t path recursion finds the
    # frame's bad edges and witnesses, and agrees with scalar queries.
    d = generators.two_page(n, outer)
    multi = 0
    for hub in range(1, n + 1):
        frame = build_star_frame(d, hub)
        scanned = _scanned(d, d.rotation_of(hub), hub)
        assert scanned == _bad_by_scalars(d, d.rotation_of(hub), hub)
        assert sorted(scanned) == sorted(_bad_host(frame))
        for pair, ws in zip(frame.bad, frame.witnesses):
            assert scanned[_host_edge(frame, *pair)] == frozenset(frame.to_host[f] for f in ws)
        multi += frame.m >= 2
    assert multi


@given(st.integers(4, 12), st.integers(0, 200), st.randoms())
def test_scan_bad_edges_on_subsets(n, seed, rng):
    # The s-t path recursion scans rotations restricted to a subset.
    d = generators.random_geometric(n, seed)
    hub = rng.randint(1, n)
    keep = set(rng.sample(range(1, n + 1), rng.randint(3, n))) | {hub}
    order = tuple(x for x in d.rotation_of(hub) if x in keep)
    assert _scanned(d, order, hub) == _bad_by_scalars(d, order, hub)


def _blocked_scan(d, order, hub, block):
    """_scanned with ROW_BLOCK_ENTRIES = block; the scan counts k * (k - 2) queries.

    Its kernel calls are the groups of conftest.row_groups over k rows of
    k - 2 entries but those the fan lemma settles (`settled_groups`), which
    hold no scalar hit.  Each is one `Drawing.cross_pairs` call of a star
    block of rows i0..i1-1, and one call of the backing's: a one-row block
    passes its pair as labels and its window as a 1-D row, a longer one an
    (R, 1) pair column and its windows as (R, k - 2) (`star_blocks`).  Its
    answer is that of the scalar queries.  The entries of the blocks asked
    and of the settled ones sum to the scan's queries.
    """
    view, counter = instrumented(d)
    k = len(order)
    gather = mock.patch.object(type(d._oracle), "cross_pairs", autospec=True,
                               side_effect=type(d._oracle).cross_pairs)
    with mock.patch.object(drawing, "ROW_BLOCK_ENTRIES", block), kernel_calls() as calls, \
            gather as gathers:
        scanned = _scanned(view, order, hub)
        groups = row_groups(k, k - 2, block) if k >= 3 else []
    settled = settled_groups(d, order, hub, groups)
    groups = [g for g in groups if g not in settled]
    assert counter.count == k * (k - 2)
    assert star_blocks(calls, order, hub) == groups
    assert len(calls) == gathers.call_count == len(groups)
    assert sum(hits.size for _name, _args, hits in calls) + sum(
        (i1 - i0) * (k - 2) for i0, i1 in settled) == counter.count
    for i0, i1 in settled:
        assert not star_reference(d, order, hub, i0, i1).any()
    for (i0, i1), (_name, _args, hits) in zip(groups, calls):
        assert hits.shape == ((k - 2,) if i1 == i0 + 1 else (i1 - i0, k - 2))
        assert np.array_equal(hits.reshape(i1 - i0, k - 2), star_reference(d, order, hub, i0, i1))
    return scanned


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocked_scan_matches_scalars(block):
    # Blocks of one row, of a few rows with a partial last block, and of
    # whole small scans, on multi-bad two-page drawings and on coordinates
    # beyond 2^52, where the row kernel runs on integer mirrors: rotations,
    # whose short turns the fan lemma settles on points, and the same
    # rotations shuffled.
    big = [(x * 2**60 + 1, y * 2**60 - 3) for x, y in generators.random_geometric(9, 4).points[1:]]
    drawings = [generators.two_page(n, outer) for n, outer in MULTI_BAD]
    rng = random.Random(block)
    for d in drawings + [generators.geometric(big)]:
        for hub in range(1, d.n + 1):
            rotation = d.rotation_of(hub)
            for order in (rotation, tuple(rng.sample(rotation, len(rotation)))):
                assert _blocked_scan(d, order, hub, block) == _bad_by_scalars(d, order, hub)


@given(st.integers(4, 12), st.integers(0, 200), st.randoms(), st.sampled_from([1, 7, 64]))
def test_blocked_scan_on_subsets(n, seed, rng, block):
    # Rotations restricted to a subset, as the s-t solver scans them, and
    # the same shuffled.
    d = generators.random_geometric(n, seed)
    hub = rng.randint(1, n)
    keep = set(rng.sample(range(1, n + 1), rng.randint(3, n))) | {hub}
    among = tuple(x for x in d.rotation_of(hub) if x in keep)
    for order in (among, tuple(rng.sample(among, len(among)))):
        assert _blocked_scan(d, order, hub, block) == _bad_by_scalars(d, order, hub)


def _halfway_hit(d, order, hub):
    """Reference probe: the first pair i of `order` that crosses the star edge
    of order[(i + 1 + k // 2) % k], or None.  One scalar query per pair."""
    k = len(order)
    hits = (i for i in range(k)
            if d.crosses((order[i], order[(i + 1) % k]), (order[(i + 1 + k // 2) % k], hub)))
    return next(hits, None) if k >= 3 else None


def _one_call(d, ask):
    """ask(view)'s result, its queries and the args of its one `cross_pairs` call."""
    view, counter = instrumented(d)
    spy = mock.patch.object(
        drawing.Drawing, "cross_pairs", autospec=True, side_effect=drawing.Drawing.cross_pairs,
    )
    with spy as calls:
        got = ask(view)
    [call] = calls.call_args_list
    return got, counter.count, call.args[1:]


@given(
    st.sampled_from(["fan", "two-page", "geometric", "twisted"]),
    st.integers(4, 14),
    st.integers(0, 10**6),
    st.randoms(),
)
def test_probe_is_one_row_that_proves_a_bad_edge(kind, n, seed, rng):
    # On whole and restricted rotations: one `cross_pairs` call of k
    # entries, each pair against the star edge of the vertex halfway round,
    # and the first pair that hits, which the scan finds bad.
    d = construction_pool(kind, n, seed)
    for hub in range(1, n + 1):
        keep = set(rng.sample(range(1, n + 1), rng.randint(4, n))) | {hub}
        for order in (d.rotation_of(hub), tuple(x for x in d.rotation_of(hub) if x in keep)):
            k = len(order)
            hit, asked, (a, b, cs, ds) = _one_call(d, lambda v: probe_bad_edge(v, order, hub))
            assert hit == _halfway_hit(d, order, hub)
            assert asked == k
            assert list(a) == list(order)
            assert list(b) == [order[(i + 1) % k] for i in range(k)]
            assert list(cs) == [order[(i + 1 + k // 2) % k] for i in range(k)]
            assert ds == hub
            if hit is not None:
                assert hit in dict(scan_bad_edges(d, order, hub))


@given(
    st.sampled_from(["fan", "two-page", "geometric", "twisted"]),
    st.integers(4, 14),
    st.integers(0, 10**6),
    st.randoms(),
)
def test_witness_row_is_row_i_of_the_scan(kind, n, seed, rng):
    # One `cross_pairs` call of k - 2 entries: pair i against the vertices
    # after it, with the witnesses the scan gives pair i (none if it is good).
    d = construction_pool(kind, n, seed)
    for hub in rng.sample(range(1, n + 1), 3):
        keep = set(rng.sample(range(1, n + 1), rng.randint(4, n))) | {hub}
        order = tuple(x for x in d.rotation_of(hub) if x in keep)
        k = len(order)
        bad = dict(scan_bad_edges(d, order, hub))
        for i in range(k):
            got, asked, (a, b, cs, ds) = _one_call(d, lambda v: witness_row(v, order, hub, i))
            assert got == bad.get(i, frozenset())
            assert asked == k - 2
            assert (a, b, ds) == (order[i], order[(i + 1) % k], hub)
            assert list(cs) == [order[(i + j) % k] for j in range(2, k)]


@pytest.mark.parametrize("n,seed", [(40, 1), (120, 2), (300, 3)])
def test_probe_misses_at_interior_points(n, seed):
    # An interior point of a point set has no bad edge, so its probe cannot
    # hit; a hull vertex has one, which its probe mostly finds.
    d = generators.random_geometric(n, seed)
    hits = {v: probe_bad_edge(d, d.rotation_of(v), v) is not None for v in range(1, n + 1)}
    assert not any(hits[v] for v in hits if is_interior(d, v))
    assert any(hits[v] for v in hits if not is_interior(d, v))


# ---------------------------------------------------------------------------
# Reference: the frame as built by labelling the rotation 1..n-1 first, then
# shifting every label and remapping bad edges and witnesses one by one.


def _cyclic_shift(label, offset, k):
    return (label - 1 - offset) % k + 1


def _reference_witness_gap(bad, to_host, k):
    ends = sorted({x for (p, _w) in bad for x in p})
    all_w = sorted(set().union(*(w for _p, w in bad)))
    j = bisect.bisect_left(ends, all_w[0]) - 1
    if j < 0:
        j = len(ends) - 1
    left, right = ends[j], ends[(j + 1) % len(ends)]

    def in_gap(x):
        return left < x < right if left < right else x > left or x < right

    stray = [w for w in all_w if not in_gap(w)]
    if stray:
        raise starframe._evidence(
            "witness-two-block",
            stray + [left, right],
            to_host,
            "witnesses are not confined to one gap between bad-edge endpoints",
        )
    return left


def _reference_frame(d, v_star):
    n = d.n
    k = n - 1
    order = d.rotation_of(v_star)
    to_host = [0] + list(order) + [v_star]
    bad = [
        ((i + 1, (i + 1) % k + 1), frozenset(p + 1 for p in wpos))
        for i, wpos in scan_bad_edges(d, order, v_star)
    ]
    m = len(bad)
    if m == 0:
        offset = 0
    elif m == 1:
        offset = bad[0][0][1] - 1
    else:
        offset = _reference_witness_gap(bad, to_host, k)
    if offset:
        new_to_host = [0] * (n + 1)
        for f in range(1, k + 1):
            new_to_host[_cyclic_shift(f, offset, k)] = to_host[f]
        new_to_host[n] = v_star
        bad = [
            (
                (_cyclic_shift(fu, offset, k), _cyclic_shift(fv, offset, k)),
                frozenset(_cyclic_shift(w, offset, k) for w in wset),
            )
            for (fu, fv), wset in bad
        ]
        to_host = new_to_host
    to_frame = [0] * (n + 1)
    for f in range(1, n + 1):
        to_frame[to_host[f]] = f

    def refute(labels, detail, which="witness-two-block"):
        return starframe._evidence(which, labels, to_host, detail)

    blocks_left = blocks_right = ()
    l_table = {}
    if m >= 2:
        for (fu, fv), _w in bad:
            if fv != fu + 1:
                raise refute([fu, fv], "a bad edge still spans the witness gap after relabeling")
        bad.sort()
        if bad[-1][0][0] != n - 2:
            raise refute(list(bad[-1][0]), "the gap's boundary bad edge did not land on {n-2, n-1}")
        for (v, _vn), wset in bad:
            if max(wset) >= v:
                raise refute([v, max(wset)], "a witness does not precede its bad edge",
                             "witness-sidedness")
        for i in range(m - 1):
            if min(bad[i][1]) <= max(bad[i + 1][1]):
                raise refute([min(bad[i][1]), max(bad[i + 1][1])],
                             "witness ranges of consecutive bad edges do not nest",
                             "witness-nestedness")
        vs = [p[0] for p, _w in bad]
        wl = [min(w) for _p, w in bad]
        wr = [max(w) for _p, w in bad]
        blocks_left = tuple(tuple(range(wr[i + 1] + 1, wl[i])) for i in range(m - 1))
        blocks_right = tuple(tuple(range(vs[i] + 1, vs[i + 1] + 1)) for i in range(m - 1))
        l_table = starframe._build_l_table(d, to_host, v_star, blocks_left, blocks_right, wr)
    return starframe.StarFrame(
        v_star=v_star,
        to_frame=tuple(to_frame),
        to_host=tuple(to_host),
        bad=tuple(p for p, _w in bad),
        witnesses=tuple(w for _p, w in bad),
        blocks_left=blocks_left,
        blocks_right=blocks_right,
        l_table=l_table,
    )


def _frame_or_evidence(build, d, hub):
    try:
        frame = build(d, hub)
    except NotConvexEvidence as exc:
        return ("evidence", exc.which, exc.vertices, exc.detail)
    return {f.name: getattr(frame, f.name) for f in fields(frame)}


@given(
    st.sampled_from(["fan", "two-page", "geometric", "twisted"]),
    st.integers(4, 14),
    st.integers(0, 10**6),
)
def test_frame_matches_reference(kind, n, seed):
    # Every field, or the evidence on non-convex input, equals the frame
    # built by shifting and remapping labels.
    d = construction_pool(kind, n, seed)
    for hub in range(1, n + 1):
        got = _frame_or_evidence(build_star_frame, d, hub)
        assert got == _frame_or_evidence(_reference_frame, d, hub)


def test_frame_reference_covers_every_route():
    # Frames with m = 0, 1 and >= 2 bad edges, and refutations, all occur.
    ms, refuted = set(), set()
    for kind, n, seed in [
        ("fan", 12, 1), ("fan", 16, 2), ("two-page", 10, 7), ("geometric", 9, 3), ("twisted", 9, 0)
    ]:
        d = construction_pool(kind, n, seed)
        for hub in range(1, n + 1):
            got = _frame_or_evidence(build_star_frame, d, hub)
            assert got == _frame_or_evidence(_reference_frame, d, hub)
            if isinstance(got, tuple):
                refuted.add(got[1])
            else:
                ms.add(min(len(got["bad"]), 2))
    assert ms == {0, 1, 2}
    assert "witness-two-block" in refuted
