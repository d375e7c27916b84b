import hashlib
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
from convexham.drawing import all_edges, canon_edge
from convexham.errors import (
    CertificateError,
    CycleNotPlane,
    TooLarge,
)
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
