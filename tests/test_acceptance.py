"""Full-breadth acceptance sweep.

Each test exercises one headline guarantee of the library across the whole
instance pool and records a single PASS/FAIL line that the terminal summary
reprints.  Instance counts and tolerances are pinned on purpose; loosening
them is a behaviour change, not a refactor.  Expect the module to take a
few minutes: the brute-force cross-checks are run at full fidelity.
"""

import hashlib
import json
import random
import time
from itertools import combinations
from math import comb, log2

import pytest

from conftest import adjacent, is_interior, polygon_partition, record_criterion
from reference import brute_hamiltonian, count_empty_triangles, exact_max_plane

from convexham import generators
from convexham.convexity import find_nonconvex_k5, find_nonconvex_triangle
from convexham.drawing import all_edges, canon_edge, instrumented
from convexham.errors import NotConvexEvidence
from convexham.hamiltonian import (
    empty_k_cycle,
    geometric_path_with_two_edges,
    hamiltonian_cycle,
    path_containing_edge,
    st_hamiltonian_path,
    star_avoiding_hamiltonian_cycle,
)
from convexham.oracle import cycle_sides, verify_certificate
from convexham.starframe import build_star_frame
from convexham.subdrawings import extend_cycle, greedy_maximal_plane

RANDOM_SIZES = range(4, 13)
SEEDS_PER_SIZE = 34
TWO_PAGE_CONVEX = [(6, ((1, 4),)), (8, ((1, 4), (4, 7), (7, 8)))]


@pytest.fixture(scope="session")
def pool():
    drawings = [
        generators.random_geometric(n, s)
        for n in RANDOM_SIZES
        for s in range(SEEDS_PER_SIZE)
    ]
    drawings += [generators.convex_position(n) for n in range(3, 13)]
    return drawings


# sha256 of [[points, rotations], ...] over the pool as computed by the
# atan2-presort ccw_order this pool was first pinned with.
POOL_ROTATIONS_SHA256 = "3a325d1581ca8969c69117751de8fc357246bfe7dbe0cea00c4d95cfd91d4e7a"


def test_pool_rotations_unchanged(pool):
    blob = json.dumps([[d.points[1:], d.rotations] for d in pool])
    assert hashlib.sha256(blob.encode()).hexdigest() == POOL_ROTATIONS_SHA256


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _canon_cycle(seq):
    seq = list(seq)
    i = seq.index(1)
    seq = seq[i:] + seq[:i]
    if seq[1] > seq[-1]:
        seq = [seq[0]] + seq[1:][::-1]
    return tuple(seq)


def test_c01_hamiltonian_cycle_everywhere(pool):
    t0 = time.perf_counter()
    failures = []
    for d in pool:
        try:
            cert = hamiltonian_cycle(d)
            if not cert.oracle_verified:
                failures.append(f"n={d.n} unverified")
        except Exception as exc:
            failures.append(f"n={d.n}: {exc!r}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    record_criterion(
        f"C01 plane hamiltonian cycle, {len(pool)} drawings: {_verdict(ok)} "
        f"({len(failures)} failures, {dt:.1f}s < 60s)"
    )
    assert ok, failures[:3]


def test_c02_st_paths_all_pairs(pool):
    calls = 0
    failures = []
    for d in pool:
        for s, t in combinations(range(1, d.n + 1), 2):
            calls += 1
            try:
                cert = st_hamiltonian_path(d, s, t)
                if not (
                    cert.oracle_verified
                    and cert.vertices[0] == s
                    and cert.vertices[-1] == t
                ):
                    failures.append(f"n={d.n} ({s},{t}) bad certificate")
            except Exception as exc:
                failures.append(f"n={d.n} ({s},{t}): {exc!r}")
    ok = not failures
    record_criterion(
        f"C02 plane hamiltonian s-t path, {calls} endpoint pairs: "
        f"{_verdict(ok)} ({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c03_star_avoiding_every_hub(pool):
    calls = 0
    brute_checked = 0
    failures = []
    for d in pool:
        for hub in range(1, d.n + 1):
            calls += 1
            try:
                cert = star_avoiding_hamiltonian_cycle(d, hub)
                if not cert.oracle_verified:
                    failures.append(f"n={d.n} hub={hub} unverified")
                    continue
                if d.n <= 10:
                    sols = brute_hamiltonian(d, mode="star_avoiding", v_star=hub)
                    brute_checked += 1
                    if not sols or _canon_cycle(cert.vertices) not in sols:
                        failures.append(f"n={d.n} hub={hub} not among brute solutions")
            except Exception as exc:
                failures.append(f"n={d.n} hub={hub}: {exc!r}")
    ok = not failures
    record_criterion(
        f"C03 star-avoiding hamiltonian cycle, {calls} hub choices "
        f"({brute_checked} brute-checked at n<=10): {_verdict(ok)} "
        f"({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c04_quadratic_query_growth():
    sizes = (250, 500, 1000, 2000)
    queries = {}
    wall = {}
    for n in sizes:
        d = generators.random_geometric(n, 0)
        view, counter = instrumented(d)
        t0 = time.perf_counter()
        star_avoiding_hamiltonian_cycle(view, v_star=n, verify=False)
        wall[n] = time.perf_counter() - t0
        queries[n] = counter.count
    slopes = [log2(queries[b] / queries[a]) for a, b in zip(sizes, sizes[1:])]
    ok = max(slopes) <= 2.15 and wall[2000] < 10.0
    record_criterion(
        f"C04 quadratic oracle-query growth n=250..2000: {_verdict(ok)} "
        f"(max slope {max(slopes):.3f} <= 2.15, n=2000 wall {wall[2000]:.2f}s < 10s, "
        f"q(2000)={queries[2000]})"
    )
    assert ok, (slopes, wall)


FAN_SIZES = (45, 90, 181)


@pytest.fixture(scope="module")
def fan_family():
    """The two-page fans two_page(n, ((1, 4), (1, 7), ...)) at FAN_SIZES."""
    return {
        n: generators.two_page(n, tuple((1, j) for j in range(4, n - 1, 3))) for n in FAN_SIZES
    }


def test_c04_fan_family_at_hub_1(fan_family):
    # Convex drawings that no point set realises, with about n/3 bad edges
    # at hub 1: the connector-table path of the star frame at scale.
    sizes = FAN_SIZES
    failures = []
    queries = {}
    bad = {}
    for n in sizes:
        d = fan_family[n]
        bad[n] = build_star_frame(d, 1).m
        if bad[n] < n / 3 - 1:
            failures.append(f"n={n} has {bad[n]} bad edges at hub 1, < n/3 - 1")
        view, counter = instrumented(d)
        cert = star_avoiding_hamiltonian_cycle(view, v_star=1, verify=False)
        queries[n] = counter.count
        if not verify_certificate(d, cert).oracle_verified:
            failures.append(f"n={n} certificate not verified")
        if n <= 101 and find_nonconvex_k5(d) is not None:
            failures.append(f"n={n} has a non-convex 5-set")
    slopes = [log2(queries[b] / queries[a]) / log2(b / a) for a, b in zip(sizes, sizes[1:])]
    ok = not failures and max(slopes) <= 2.15
    record_criterion(
        f"C04c star-hc at hub 1 of the two-page fan n=45..181: {_verdict(ok)} "
        f"(max slope {max(slopes):.3f} <= 2.15, m={'/'.join(map(str, bad.values()))} "
        f">= n/3 - 1 bad edges, verified, convex by 5-sets at n <= 90)"
    )
    assert ok, (failures, slopes)


# hamiltonian_cycle on the fans: vertex n has one bad edge, so star-hc at
# hub n is one scan of its rotation, (n-1)(n-3) queries.
FAN_CYCLE_QUERIES = {45: 1_848, 90: 7_743, 181: 32_040}


def test_c04_fan_family_cycle_at_hub_n(fan_family):
    # The plane Hamiltonian cycle is the star-avoiding cycle at vertex n, so
    # it keeps the frame's quadratic bound where vertex n has a bad edge.
    sizes = FAN_SIZES
    failures = []
    queries = {}
    for n in sizes:
        d = fan_family[n]
        view, counter = instrumented(d)
        cert = hamiltonian_cycle(view, verify=False)
        queries[n] = counter.count
        view, counter = instrumented(d)
        star = star_avoiding_hamiltonian_cycle(view, v_star=n, verify=False).vertices
        if queries[n] != FAN_CYCLE_QUERIES[n] or counter.count != queries[n]:
            failures.append(f"n={n} asked {queries[n]}, star-hc {counter.count}, "
                            f"pinned {FAN_CYCLE_QUERIES[n]}")
        if cert.vertices != star[1:] + star[:1]:
            failures.append(f"n={n} cycle is not star-hc at hub n ending at n")
        if not verify_certificate(d, cert).oracle_verified:
            failures.append(f"n={n} certificate not verified")
    slopes = [log2(queries[b] / queries[a]) / log2(b / a) for a, b in zip(sizes, sizes[1:])]
    ok = not failures and max(slopes) <= 2.15
    record_criterion(
        f"C04e hc on the two-page fan n=45..181: {_verdict(ok)} "
        f"(max slope {max(slopes):.3f} <= 2.15, pinned queries, = star-hc at hub n, verified)"
    )
    assert ok, (failures, slopes)


def test_c04_interior_source_to_hull_target():
    # Only hull vertices have a bad edge.  t's probe row proves t's bad
    # edge, s's probe row misses, and s's fan path toward t, read backwards,
    # is asked edge against edge and is plane: it is the path, in
    # (n-1) + (n-1) + C(n-1, 2) = (n-1)(n+2)/2 queries.
    sizes = (250, 500, 1000, 2000, 4000)
    failures = []
    queries = {}
    wall = {}
    for n in sizes:
        d = generators.random_geometric(n, 0)
        t = min(range(1, n + 1), key=lambda v: d.points[v])
        s = next(v for v in range(1, n + 1) if is_interior(d, v))
        view, counter = instrumented(d)
        t0 = time.perf_counter()
        cert = st_hamiltonian_path(view, s, t, verify=False)
        wall[n] = time.perf_counter() - t0
        queries[n] = counter.count
        if counter.count != (n - 1) * (n + 2) // 2:
            failures.append(f"n={n} asked {counter.count} != (n-1)(n+2)/2")
        ends = (cert.vertices[0], cert.vertices[-1])
        if not (ends == (s, t) and verify_certificate(d, cert).oracle_verified):
            failures.append(f"n={n} ({s},{t}) bad certificate")
    slope = log2(queries[4000] / queries[2000])
    ok = not failures and wall[4000] < 10.0
    record_criterion(
        f"C04b interior source to leftmost hull vertex n=250..4000: {_verdict(ok)} "
        f"((n-1)(n+2)/2 queries at every n; slope 2000->4000 {slope:.3f}, "
        f"n=4000 wall {wall[4000]:.2f}s < 10s, verified)"
    )
    assert ok, (failures, wall)


def test_c04_interior_to_interior_st_paths():
    # Neither end has a bad edge.  t's probe row misses, and t's fan path
    # from s is asked edge against edge and is plane: it is the path, in
    # (n-1) + C(n-1, 2) = (n-1)n/2 queries.
    sizes = (250, 500, 1000, 2000)
    failures = []
    for n in sizes:
        d = generators.random_geometric(n, 0)
        s, t = [v for v in range(1, n + 1) if is_interior(d, v)][:2]
        view, counter = instrumented(d)
        cert = st_hamiltonian_path(view, s, t, verify=False)
        if counter.count != (n - 1) * n // 2:
            failures.append(f"n={n} asked {counter.count} != (n-1)n/2")
        ends = (cert.vertices[0], cert.vertices[-1])
        if not (ends == (s, t) and verify_certificate(d, cert).oracle_verified):
            failures.append(f"n={n} ({s},{t}) bad certificate")
    ok = not failures
    record_criterion(
        f"C04g interior to interior s-t paths n=250..2000: {_verdict(ok)} "
        f"((n-1)n/2 queries at every n, verified)"
    )
    assert ok, failures


# Queries of the s-t path between the extreme points of random_geometric(n,
# seed) in (x, y) order, both on the hull: the recursion toward t at scale.
# Every subproblem splits on its probe's first hit or its scan's first bad
# pair, so each input asks at most n^2, and n = 4000 at most 1.5 n^2.
HULL_TO_HULL_QUERIES = {
    (250, 1): 22_331,
    (250, 2): 45_707,
    (500, 1): 118_366,
    (500, 2): 78_044,
    (1000, 1): 313_736,
    (1000, 2): 476_374,
    (2000, 1): 2_037_155,
    (4000, 1): 14_846_580,
}


def test_c04_hull_to_hull_st_paths_pinned():
    failures = []
    for (n, seed), want in HULL_TO_HULL_QUERIES.items():
        d = generators.random_geometric(n, seed)
        s = max(range(1, n + 1), key=lambda v: d.points[v])
        t = min(range(1, n + 1), key=lambda v: d.points[v])
        view, counter = instrumented(d)
        cert = st_hamiltonian_path(view, s, t, verify=False)
        if counter.count != want:
            failures.append(f"n={n} seed={seed} asked {counter.count} != {want}")
        if counter.count > (1.5 if n == 4000 else 1) * n * n:
            failures.append(f"n={n} seed={seed} asked {counter.count / n**2:.2f} n^2")
        ends = (cert.vertices[0], cert.vertices[-1])
        if not (ends == (s, t) and verify_certificate(d, cert).oracle_verified):
            failures.append(f"n={n} seed={seed} ({s},{t}) bad certificate")
    ok = not failures
    record_criterion(
        f"C04d hull-to-hull s-t paths n=250..4000: {_verdict(ok)} "
        f"(pinned queries on {len(HULL_TO_HULL_QUERIES)} drawings, <= n^2 below n=4000, "
        f"<= 1.5 n^2 at 4000, verified)"
    )
    assert ok, failures


# Summed queries of the s-t paths between 60 pairs from random.Random(7) on
# each fan: most splits have one bad pair, found by the probe's row.
FAN_ST_QUERIES = {45: 162_041, 90: 689_494, 181: 2_900_237}


def test_c04_fan_family_st_paths(fan_family):
    # Convex drawings with ~n/3 bad edges at hub 1: the s-t solver splits
    # ~n times, and each split asks rows of its subproblem, not its scan.
    sizes = FAN_SIZES
    failures = []
    queries = {}
    for n in sizes:
        d = fan_family[n]
        rng = random.Random(7)
        view, counter = instrumented(d)
        for _ in range(60):
            s, t = rng.sample(range(1, n + 1), 2)
            cert = st_hamiltonian_path(view, s, t, verify=False)
            ends = (cert.vertices[0], cert.vertices[-1])
            if not (ends == (s, t) and verify_certificate(d, cert).oracle_verified):
                failures.append(f"n={n} ({s},{t}) bad certificate")
        queries[n] = counter.count
        if queries[n] != FAN_ST_QUERIES[n]:
            failures.append(f"n={n} asked {queries[n]} != {FAN_ST_QUERIES[n]}")
    slopes = [log2(queries[b] / queries[a]) / log2(b / a) for a, b in zip(sizes, sizes[1:])]
    ok = not failures and max(slopes) <= 2.15
    record_criterion(
        f"C04f s-t paths on the two-page fan n=45..181: {_verdict(ok)} "
        f"(60 pairs each, max slope {max(slopes):.3f} <= 2.15, pinned queries, verified)"
    )
    assert ok, (failures, slopes)


def _random_plane_seed(d, rng):
    edges = list(all_edges(d.n))
    rng.shuffle(edges)
    seed = []
    for e in edges:
        if len(seed) == 4:
            break
        if not any(d.crosses(e, f) for f in seed):
            seed.append(e)
    return seed


def test_c05_maximal_equals_maximum():
    import random

    instances = [generators.convex_position(n) for n in range(3, 11)]
    instances += [generators.two_page(n, outer) for n, outer in TWO_PAGE_CONVEX]
    instances += [
        generators.random_geometric(n, s) for n in range(4, 11) for s in range(13)
    ][: 100 - len(instances)]
    assert len(instances) == 100
    failures = []
    for idx, d in enumerate(instances):
        rng = random.Random(idx)
        sizes = set()
        for _ in range(20):
            order = list(all_edges(d.n))
            rng.shuffle(order)
            sizes.add(len(greedy_maximal_plane(d, order=order)))
        for _ in range(5):
            seed = _random_plane_seed(d, rng)
            sizes.add(len(greedy_maximal_plane(d, seed=seed)))
        if len(sizes) != 1:
            failures.append(f"n={d.n} idx={idx} sizes {sorted(sizes)}")
            continue
        if d.n <= 8 and sizes != {exact_max_plane(d)}:
            failures.append(f"n={d.n} idx={idx} greedy {sizes} != exhaustive")
    ok = not failures
    record_criterion(
        f"C05 maximal=maximum, 100 convex instances x25 runs: {_verdict(ok)} "
        f"({len(failures)} discrepancies)"
    )
    assert ok, failures[:3]


def test_c06_two_n_minus_three_bounds(pool):
    failures = []
    for d in pool:
        if len(greedy_maximal_plane(d)) < 2 * d.n - 3:
            failures.append(f"n={d.n} greedy below 2n-3")
        cyc = hamiltonian_cycle(d, verify=False)
        ext = extend_cycle(d, cyc)
        if not set(cyc.edges) <= ext.edges or len(ext) < 2 * d.n - 3:
            failures.append(f"n={d.n} extend_cycle bound")
    for n in range(3, 13):
        if len(greedy_maximal_plane(generators.convex_position(n))) != 2 * n - 3:
            failures.append(f"convex n={n} not exactly 2n-3")
    ok = not failures
    record_criterion(
        f"C06 maximal plane subdrawings >= 2n-3 (convex position exactly), "
        f"{len(pool)} drawings: {_verdict(ok)} ({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c07_empty_k_cycles(pool):
    calls = 0
    failures = []
    for d in pool:
        for k in range(3, d.n + 1):
            for hub in range(1, d.n + 1):
                calls += 1
                try:
                    cert = empty_k_cycle(d, k, hub)
                    if not (
                        cert.oracle_verified
                        and len(cert.vertices) == k
                        and hub in cert.vertices
                    ):
                        failures.append(f"n={d.n} k={k} hub={hub} bad certificate")
                except Exception as exc:
                    failures.append(f"n={d.n} k={k} hub={hub}: {exc!r}")
    ok = not failures
    record_criterion(
        f"C07 empty k-cycles, {calls} (k, hub) choices: {_verdict(ok)} "
        f"({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c08_path_through_prescribed_edge():
    instances = [
        generators.random_geometric(n, s) for n in range(5, 10) for s in range(6)
    ]
    assert len(instances) == 30
    calls = 0
    failures = []
    for d in instances:
        for e in all_edges(d.n):
            calls += 1
            try:
                cert = path_containing_edge(d, e)
                if not (cert.oracle_verified and canon_edge(*e) in cert.edges):
                    failures.append(f"n={d.n} edge={e} bad certificate")
            except Exception as exc:
                failures.append(f"n={d.n} edge={e}: {exc!r}")
    ok = not failures
    record_criterion(
        f"C08 hamiltonian path through a prescribed edge, {calls} edges over "
        f"30 instances: {_verdict(ok)} ({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c09_path_through_two_prescribed_edges():
    mix = [(5, 8), (6, 8), (7, 6), (8, 4), (9, 4)]
    point_sets = []
    for n, reps in mix:
        for s in range(reps):
            d = generators.random_geometric(n, 100 + s)
            point_sets.append((d, [d.points[v] for v in range(1, n + 1)]))
    assert len(point_sets) == 30
    calls = 0
    failures = []
    for d, pts in point_sets:
        edges = list(all_edges(d.n))
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                if adjacent(e, f) or d.crosses(e, f):
                    continue
                calls += 1
                try:
                    cert = geometric_path_with_two_edges(pts, e, f)
                    if not (
                        cert.oracle_verified
                        and {canon_edge(*e), canon_edge(*f)} <= set(cert.edges)
                    ):
                        failures.append(f"n={d.n} {e},{f} bad certificate")
                except Exception as exc:
                    failures.append(f"n={d.n} {e},{f}: {exc!r}")
    ok = not failures
    record_criterion(
        f"C09 geometric path through two prescribed edges, {calls} pairs over "
        f"30 point sets: {_verdict(ok)} ({len(failures)} failures)"
    )
    assert ok, failures[:3]


def test_c10_convexity_checks_agree(pool):
    instances = [d for d in pool if d.n <= 8]
    instances += [generators.two_page(n, outer) for n, outer in TWO_PAGE_CONVEX]
    disagreements = [
        d.n
        for d in instances
        if (find_nonconvex_triangle(d) is None) != (find_nonconvex_k5(d) is None)
    ]
    twisted_accepted = [
        n
        for n in range(5, 9)
        if find_nonconvex_triangle(generators.twisted(n)) is None
        or find_nonconvex_k5(generators.twisted(n)) is None
    ]
    ok = not disagreements and not twisted_accepted
    record_criterion(
        f"C10 triangle and 5-tuple convexity checks agree, {len(instances)} "
        f"instances + twisted 5..8 rejected: {_verdict(ok)} "
        f"({len(disagreements)} disagreements, {len(twisted_accepted)} "
        f"twisted accepted)"
    )
    assert ok, (disagreements, twisted_accepted)


def test_c11_side_oracle_consistency(pool):
    cycles = 0
    mismatches = []
    for d in pool:
        if d.n > 10 or d.points is None:
            continue
        hubs = {1, d.n // 2, d.n}
        for k in range(3, d.n + 1):
            for hub in hubs:
                seq = empty_k_cycle(d, k, hub, verify=False).vertices
                cycles += 1
                sides = cycle_sides(d, seq)
                inside, outside = polygon_partition(d, seq)
                if {sides.side_a, sides.side_b} != {inside, outside}:
                    mismatches.append(f"n={d.n} cycle={seq}")
    count_fail = []
    for n in range(3, 13):
        if count_empty_triangles(generators.convex_position(n)) != comb(n, 3):
            count_fail.append(f"convex n={n}")
    # The >= n lower bound needs n >= 4: a 3-vertex drawing has exactly one
    # triangle, so the bound is unsatisfiable there and the exact
    # C(n,3) check above already pins that case.
    for d in pool:
        if d.n >= 4 and count_empty_triangles(d) < d.n:
            count_fail.append(f"pool n={d.n} fewer than n empty triangles")
    ok = cycles >= 1000 and not mismatches and not count_fail
    record_criterion(
        f"C11 side oracle vs exact geometry on {cycles} plane cycles, empty "
        f"triangle counts (>= n bound at n >= 4): {_verdict(ok)} "
        f"({len(mismatches)} side mismatches, {len(count_fail)} count failures)"
    )
    assert ok, (cycles, mismatches[:3], count_fail[:3])


def _paths_with_both(paths, e, f):
    e, f = canon_edge(*e), canon_edge(*f)
    hits = []
    for seq in paths:
        edges = {canon_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)}
        if e in edges and f in edges:
            hits.append(seq)
    return hits


def test_c12_negative_controls():
    d = generators.twisted(6)
    evidence = 0
    wrong = []
    try:
        hamiltonian_cycle(d)
        wrong.append("hamiltonian_cycle returned on twisted(6)")
    except NotConvexEvidence:
        evidence += 1
    for hub in range(1, 7):
        try:
            star_avoiding_hamiltonian_cycle(d, hub)
            wrong.append(f"star-avoiding hub={hub} returned on twisted(6)")
        except NotConvexEvidence:
            evidence += 1
    st_ok = 0
    for s, t in combinations(range(1, 7), 2):
        try:
            cert = st_hamiltonian_path(d, s, t)
            # success is acceptable only when genuinely verified plane
            if cert.oracle_verified:
                st_ok += 1
            else:
                wrong.append(f"st ({s},{t}) unverified on twisted(6)")
        except NotConvexEvidence:
            evidence += 1

    found = None
    budget = 10_000
    for seed in range(budget):
        inst = generators.random_geometric(6, seed)
        paths = brute_hamiltonian(inst, mode="paths_all")
        done = False
        for v in range(1, 7):
            others = [w for w in range(1, 7) if w != v]
            for a, b in combinations(others, 2):
                e, f = canon_edge(v, a), canon_edge(v, b)
                if not _paths_with_both(paths, e, f):
                    found = (seed, e, f)
                    done = True
                    break
            if done:
                break
        if found:
            break
    ok = not wrong and evidence >= 8 and found is not None
    detail = (
        f"blocked adjacent pair {found[1]},{found[2]} at seed {found[0]}"
        if found
        else f"no blocked adjacent pair in {budget} instances (documented as "
        f"not reproduced)"
    )
    record_criterion(
        f"C12 negative controls: twisted(6) yields evidence not certificates "
        f"({evidence} raises, {st_ok} honest st successes); {detail}: "
        f"{_verdict(ok)}"
    )
    assert not wrong, wrong
    assert evidence >= 8
    # a missing witness downgrades to documentation rather than failure
    if found is None:
        pytest.skip("adjacent-pair impossibility not found within budget")
