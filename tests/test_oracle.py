import hashlib
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import generators
from convexham.certificates import (
    cycle_certificate,
    path_certificate,
    subdrawing_certificate,
)
from convexham.drawing import all_edges, canon_edge, instrumented, new_drawing
from convexham.errors import (
    CertificateError,
    CycleNotPlane,
    SideInconsistency,
    TooLarge,
    VertexOutOfRange,
)
from convexham.hamiltonian import star_avoiding_hamiltonian_cycle
from convexham.oracle import (
    brute_hamiltonian,
    count_empty_triangles,
    cycle_sides,
    exact_max_plane,
    first_crossing,
    is_plane,
    polygon_partition,
    verify_certificate,
)
from convexham.subdrawings import greedy_maximal_plane


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
    from convexham.hamiltonian import hamiltonian_cycle

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
    from convexham.hamiltonian import hamiltonian_cycle

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


@cache
def _row_drawing(kind, n, seed):
    if kind == "geometric":
        return generators.random_geometric(n, seed)
    return generators.two_page(n, ((1, 4),) if seed % 2 else ())


@given(st.sampled_from(["geometric", "two_page"]), st.integers(5, 9), st.integers(0, 5), st.data())
def test_first_crossing_matches_scalar_reference(kind, n, seed, data):
    d = _row_drawing(kind, n, seed)
    labels = st.integers(1, n)
    # Reversed, adjacent and repeated edges are all allowed.
    edges = data.draw(st.lists(
        st.tuples(labels, labels).filter(lambda e: e[0] != e[1]), max_size=14
    ))
    canon = [canon_edge(*e) for e in edges]
    want, hit_row = None, None
    for i, e in enumerate(canon):
        j = next((j for j in range(i + 1, len(canon)) if d.crosses(e, canon[j])), None)
        if j is not None:
            want, hit_row = (e, canon[j]), i
            break
    view, counter = instrumented(d)
    assert first_crossing(view, edges) == want
    m = len(edges)
    rows = range(m - 1) if hit_row is None else range(hit_row + 1)
    assert counter.count == sum(m - 1 - i for i in rows)
    assert is_plane(d, edges) == (want is None)


@pytest.mark.parametrize("make", [lambda: generators.random_geometric(8, 1),
                                  lambda: generators.two_page(8)])
def test_first_crossing_rejects_labels_out_of_range(make):
    d = make()
    for edges in ([(0, 2), (1, 3)], [(-1, 2), (1, 3)], [(1, 9), (2, 3)],
                  [(1, 3), (2, 10**30)]):
        with pytest.raises(VertexOutOfRange):
            first_crossing(d, edges)
        with pytest.raises(VertexOutOfRange):
            is_plane(d, edges)
    with pytest.raises(ValueError, match="degenerate edge"):
        first_crossing(d, [(1, 3), (4, 4)])
    with pytest.raises(VertexOutOfRange):
        greedy_maximal_plane(d, seed=[(1, 9)])


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
    # verifier; maximal_plane is C(|E|,2) + (C(n,2) - |E|) * |E|.
    pinned = [
        {"plane": 435, "star_avoiding": 756, "hamiltonian": 0, "maximal_plane": 31205},
        {"plane": 91, "star_avoiding": 132, "hamiltonian": 0, "maximal_plane": 2015},
    ]
    for (d, hub, cyc, sub), want in zip(_pinned_certificates(), pinned):
        values = {"plane": True, "star_avoiding": hub, "hamiltonian": True}
        for claim, value in values.items():
            assert _verify_count(d, cycle_certificate(cyc, {claim: value})) == (want[claim], ())
        m = len(sub)
        assert want["maximal_plane"] == comb(m, 2) + (comb(d.n, 2) - m) * m
        cert = subdrawing_certificate(sub, {"maximal_plane": True})
        assert _verify_count(d, cert) == (want["maximal_plane"], ())


def test_tampered_maximal_plane_certificates():
    # Failed tuples and the crossing case's count are the previous verifier's.
    for (d, _, _, sub), add_count in zip(_pinned_certificates(), (314, 102)):
        claims = {"plane": True, "maximal_plane": True}
        dropped = subdrawing_certificate(sub[1:], claims)
        assert _verify_count(d, dropped)[1] == ("maximal_plane",)
        extra = next(e for e in all_edges(d.n) if e not in sub)
        crossed = subdrawing_certificate(sub + [extra], claims)
        assert _verify_count(d, crossed) == (add_count, ("maximal_plane", "plane"))


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
    # Arbitrary crossing sets obeying the K4 axiom: most are not realisable,
    # so both the sides and the first inconsistent pair get exercised.
    crossings = []
    for quad in combinations(range(1, n + 1), 4):
        if rng.random() < 0.3:
            a, b, c, x = quad
            crossings.append(rng.choice((((a, b), (c, x)), ((a, c), (b, x)), ((a, x), (b, c)))))
    rots = [[u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)]
    d = new_drawing(n, rots, crossings)
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
    rots = [[u for u in range(1, 7) if u != v] for v in range(1, 7)]
    d = new_drawing(6, rots, [((1, 2), (4, 5))])
    with pytest.raises(SideInconsistency, match=r"vertices 5,6 disagree with sides of cycle \(1, 2, 3\)"):
        cycle_sides(d, (1, 2, 3))
