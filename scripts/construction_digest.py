#!/usr/bin/env python3
"""Digest of every construction's output and query count over a fixed pool.

Runs the star-avoiding cycle, the Hamiltonian cycle, s-t paths, paths
through an edge and geometric two-edge paths (all unverified) on:
random two-page drawings with arbitrary outer-edge sets (n = 5..16,
relabelled), two-page fans at n = 20, 40, 61 and 181, twisted(5..10),
random geometric drawings (n = 5..30) and hull-to-hull s-t paths at
n = 300 and 1000.  Each run is one JSON line: its name, the certificate's
vertices or the evidence (which, vertices, detail) or error, and the
oracle queries it asked.  Two source trees that print the same digest do
the same work in the same order.  One more digest per task (star, cycle,
st, edge, two, hull) shows which constructions a change moved.  Every
certificate is then verified on a fresh counted view; the `sha256 verify`
digest covers its name, "verified" or the failed claims, and the queries
verification asked, so it shows whether a change moved the verifier's
work, and on which verdicts; the line also counts the failing
certificates per task and failed claim.  The `sha256 outcomes` digest
covers every run's name and outcome without its queries, so a change
that moves queries on purpose shows that its outputs stay.  The `sha256 tables`
digest covers np.packbits of the crossing table of every abstract drawing
exercised (the two-page pool, the fans and twisted), so it shows whether
a change moved the crossings that rotations fix.

The `sha256 plane` line digests greedy_maximal_plane's edges and queries on
every drawing exercised, in the default order (all_edges, lex) and in one
random order seeded by the drawing's name.  The `sha256 convexity` line digests the
witnesses (or errors) of find_nonconvex_triangle and find_nonconvex_k5
and the queries of each on every drawing exercised with n <= 40, and
also digests the witnesses alone; outside the digests it sums the queries
of the triangle runs and of the k5 runs, so a change that moves them on
purpose shows by how much.  Neither line draws from the shared random
stream, so they move no other line.  --out writes their JSON lines too.

The `sha256 probe` line digests s-t paths between interior and hull
vertices of random_geometric(300 and 1000, seeds 1-3), where one scan
spans several row blocks, so it sees where a scan stops.  These runs stay
out of every other digest; the line also digests their vertices alone and
sums their queries per direction.

The `calls` line counts the kernel calls of each task family, a
`Drawing.cross_pairs` call or a `Drawing.cross_block` call being one
each; the latter is a star block of the bad-edge scan or the
star_avoiding check.  What the fan lemma settles on points, a star block
of a fan's pairs or a fan walk's whole plane check, is counted as
queries but is no call.  The families are the constructions (star,
cycle, st, edge, two, hull, probe), their verification (verify) and the
plane and convexity runs.  The line stays outside every digest, so a
change that packs or unpacks rows into kernel calls shows there alone.

The last line reruns the geometric pool and its verification on copies
with every coordinate times 2^40, past 2^52, and prints `big same`, or
how many runs moved their vertices, outcome or queries.  It stays outside
every digest and after the `calls` line, so it moves no other line.

The committed DIGEST.txt is this script's stdout.  --check FILE compares
the lines printed with FILE's, prints each moved line, old and new, to
stderr, and exits 1 if any line moved.  A change that moves a count on
purpose commits the new DIGEST.txt with it.

    python scripts/construction_digest.py [--src DIR] [--out FILE] [--check FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from itertools import combinations, zip_longest
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                help="directory holding the convexham package (default: this checkout's)")
ap.add_argument("--out", help="also write the JSON lines here")
ap.add_argument("--check", help="exit 1 unless the lines printed equal this file's")
args = ap.parse_args()
sys.path.insert(0, args.src)

import numpy as np  # noqa: E402

from convexham import generators  # noqa: E402
from convexham.convexity import find_nonconvex_k5, find_nonconvex_triangle  # noqa: E402
from convexham.drawing import Drawing, all_edges, instrumented, relabel  # noqa: E402
from convexham.errors import CertificateError, NotConvexEvidence  # noqa: E402
from convexham.geometry import orientation  # noqa: E402
from convexham.hamiltonian import (  # noqa: E402
    _two_edge_path,
    hamiltonian_cycle,
    path_containing_edge,
    st_hamiltonian_path,
    star_avoiding_hamiltonian_cycle,
)
from convexham.oracle import verify_certificate  # noqa: E402
from convexham.subdrawings import greedy_maximal_plane  # noqa: E402


calls = Counter()  # task family -> kernel calls
family = "other"  # the family whose calls are being counted


def _counted(ask):
    def counted(self, *args):
        calls[family] += 1
        return ask(self, *args)

    return counted


# A tree given by --src may predate the block entry, or name it cross_walk.
for _name in ("cross_pairs", "cross_block", "cross_walk"):
    if _name in vars(Drawing):
        setattr(Drawing, _name, _counted(vars(Drawing)[_name]))


def relabelled_two_page(n, outer, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(generators.two_page(n, outer), perm)


replay = None  # while a list, run() appends (d, task, build, args, result) to it


def run(task, d, build, *args):
    """(outcome, queries, check): check is checked(d, cert) when a certificate was built."""
    result = _outcome(task, d, build, *args)
    if replay is not None:
        replay.append((d, task, build, args, result))
    return result


def _outcome(task, d, build, *args):
    global family
    family = task
    view, counter = instrumented(d)
    try:
        cert = build(view, *args, verify=False)
    except NotConvexEvidence as exc:
        return ["evidence", exc.which, list(exc.vertices), exc.detail], counter.count, None
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        return ["error", type(exc).__name__, str(exc)], counter.count, None
    return list(cert.vertices), counter.count, checked(d, cert)


def counted(task, d, ask):
    """[outcome, queries] of ask on a fresh view of d; an error is an outcome."""
    global family
    family = task
    view, counter = instrumented(d)
    try:
        res = ask(view)
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        res = ["error", type(exc).__name__, str(exc)]
    return [res, counter.count]


def checked(d, cert):
    """["verified" or the failed claims, queries] of verifying cert on a fresh view."""
    global family
    family = "verify"
    view, counter = instrumented(d)
    try:
        verify_certificate(view, cert)
        verdict = "verified"
    except CertificateError as exc:
        verdict = list(exc.failed)
    return [verdict, counter.count]


TASKS = ("star", "cycle", "st", "edge", "two", "hull")
lines = []
tasks = []
verify_lines = []
failed = Counter()  # "task claim" -> failing certificates
plane_lines = []
convexity_lines = []
tables = hashlib.sha256()
table_names = []


def emit(task, name, res, queries, check):
    tasks.append(task)
    lines.append(json.dumps([name, res, queries]))
    if check is not None:
        verify_lines.append(json.dumps([name, *check]))
        if check[0] != "verified":
            failed.update(f"{task} {claim}" for claim in check[0])


def exercise(name, d, rng, pairs, hubs=None):
    n = d.n
    if d.points is None:
        tables.update(np.packbits(d._oracle._table).tobytes())
        table_names.append(name)
    order = all_edges(n)
    random.Random(name).shuffle(order)
    for kind, how in (("default", None), ("random", order)):
        plane_lines.append(json.dumps([name, kind, *counted(
            "plane", d, lambda v: sorted(greedy_maximal_plane(v, order=how).edges))]))
    if n <= 40:
        convexity_lines.append(json.dumps([
            name, *counted("convexity", d, lambda v: repr(find_nonconvex_triangle(v))),
            *counted("convexity", d, lambda v: repr(find_nonconvex_k5(v)))]))
    for hub in hubs if hubs is not None else range(1, n + 1):
        emit("star", f"{name} star {hub}", *run("star", d, star_avoiding_hamiltonian_cycle, hub))
    emit("cycle", f"{name} cycle", *run("cycle", d, hamiltonian_cycle))
    for _ in range(pairs):
        s, t = rng.sample(range(1, n + 1), 2)
        emit("st", f"{name} st {s} {t}", *run("st", d, st_hamiltonian_path, s, t))
    for _ in range(pairs // 4):
        e = tuple(rng.sample(range(1, n + 1), 2))
        emit("edge", f"{name} edge {e}", *run("edge", d, path_containing_edge, e))


rng = random.Random(2024)
for i in range(240):
    n = 5 + i % 12
    p = rng.random()
    outer = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    exercise(f"two-page {i} n={n}", relabelled_two_page(n, outer, rng), rng, 16)
for n in (20, 40, 61, 181):
    for step in (1, 3):
        d = relabelled_two_page(n, tuple((1, j) for j in range(4, n - 1, step)), rng)
        hubs = None if n <= 61 else rng.sample(range(1, n + 1), 12)
        exercise(f"fan n={n} step={step}", d, rng, 8 if n <= 61 else 3, hubs)
for n in range(5, 11):
    exercise(f"twisted n={n}", generators.twisted(n), rng, 30)
replay = []
for i in range(60):
    n = 5 + i % 26
    d = generators.random_geometric(n, i)
    exercise(f"geometric {i} n={n}", d, rng, 12)
    for _ in range(6):
        a, b, c, x = rng.sample(range(1, n + 1), 4)
        name = f"geometric {i} two {(a, b)} {(c, x)}"
        emit("two", name, *run("two", d, _two_edge_path, (a, b), (c, x)))
geometric_runs, replay = replay, None
for n in (300, 1000):
    for seed in (1, 2, 3):
        d = generators.random_geometric(n, seed)
        s = max(range(1, n + 1), key=lambda v: d.points[v])
        t = min(range(1, n + 1), key=lambda v: d.points[v])
        emit("hull", f"hull n={n} seed={seed}", *run("hull", d, st_hamiltonian_path, s, t))


def interior(d, v):
    """No angular gap around v reaches pi: v is no hull vertex, so it has no bad edge."""
    pts, order = d.points, d.rotation_of(v)
    return all(
        orientation(pts[v], pts[a], pts[b]) > 0 for a, b in zip(order, order[1:] + order[:1])
    )


probe_rng = random.Random(2025)
probe_lines = []
probe_queries = Counter()
for n in (300, 1000):
    for seed in (1, 2, 3):
        d = generators.random_geometric(n, seed)
        lo = min(range(1, n + 1), key=lambda v: d.points[v])
        hi = max(range(1, n + 1), key=lambda v: d.points[v])
        inner = [v for v in probe_rng.sample(range(1, n + 1), 8) if interior(d, v)][:2]
        for way, s, t in [*(("interior->hull", v, lo) for v in inner),
                          *(("hull->interior", hi, v) for v in inner)]:
            res, queries, _check = run("probe", d, st_hamiltonian_path, s, t)
            probe_lines.append(json.dumps([f"probe {way} n={n} seed={seed} {s} {t}", res, queries]))
            probe_queries[way] += queries

printed = []


def say(line):
    print(line)
    printed.append(line)


text = "".join(line + "\n" for line in lines)
probe_text = "".join(line + "\n" for line in probe_lines)
if args.out:
    Path(args.out).write_text(text + probe_text + "".join(
        line + "\n" for line in plane_lines + convexity_lines))
kinds = Counter()
for line in lines:
    res = json.loads(line)[1]
    kinds[res[1] if res and res[0] in ("evidence", "error") else "certificate"] += 1
say(f"{len(lines)} runs: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
say(f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")
# Names and outcomes of every run, the probe's too, without their queries:
# a change that moves queries on purpose shows here that its outputs stay.
outcomes = "".join(json.dumps(json.loads(line)[:2]) + "\n" for line in lines + probe_lines)
say(f"sha256 outcomes {hashlib.sha256(outcomes.encode()).hexdigest()} "
    f"({len(lines) + len(probe_lines)} runs)")
for task in TASKS:
    mine = [line + "\n" for line, t in zip(lines, tasks) if t == task]
    digest = hashlib.sha256("".join(mine).encode()).hexdigest()
    say(f"sha256 {task} {digest} ({len(mine)} runs)")
failing = sum(json.loads(line)[1] != "verified" for line in verify_lines)
digest = hashlib.sha256("".join(line + "\n" for line in verify_lines).encode()).hexdigest()
say(f"sha256 verify {digest} ({len(verify_lines)} certificates, {failing} failing"
    + "".join(f", {k} {v}" for k, v in sorted(failed.items())) + ")")
say(f"sha256 tables {tables.hexdigest()} ({len(table_names)} abstract drawings)")
digest = hashlib.sha256("".join(line + "\n" for line in plane_lines).encode()).hexdigest()
say(f"sha256 plane {digest} ({len(plane_lines)} runs)")
# The witnesses digest leaves the queries out.
digest = hashlib.sha256("".join(line + "\n" for line in convexity_lines).encode()).hexdigest()
witnesses = "".join(json.dumps(json.loads(line)[1::2]) + "\n" for line in convexity_lines)
tri_queries, k5_queries = (sum(json.loads(line)[i] for line in convexity_lines) for i in (2, 4))
say(f"sha256 convexity {digest} ({len(convexity_lines)} runs, witnesses "
    f"{hashlib.sha256(witnesses.encode()).hexdigest()[:16]}, queries triangles {tri_queries}, "
    f"k5 {k5_queries})")
# The probe digest covers its runs' names, outcomes and queries; the
# vertices digest leaves the queries out.
digest = hashlib.sha256(probe_text.encode()).hexdigest()
vertices = "".join(json.dumps(json.loads(line)[:2]) + "\n" for line in probe_lines)
say(f"sha256 probe {digest} ({len(probe_lines)} runs, vertices "
    f"{hashlib.sha256(vertices.encode()).hexdigest()[:16]}, queries "
    + ", ".join(f"{way} {q}" for way, q in sorted(probe_queries.items())) + ")")
say("calls " + ", ".join(f"{k} {v}" for k, v in sorted(calls.items())))
# The geometric pool again on copies with every coordinate times 2^40, past
# 2^52: scaling keeps every orientation sign, so each run and its
# verification must repeat their vertices, outcome and queries.
big = {}
differ = 0
for d, task, build, run_args, result in geometric_runs:
    if id(d) not in big:
        big[id(d)] = generators.geometric([(x << 40, y << 40) for x, y in d.points[1:]])
    differ += run(task, big[id(d)], build, *run_args) != result
say("big same" if not differ else f"big {differ} of {len(geometric_runs)} runs differ")
if args.check:
    want = Path(args.check).read_text().splitlines()
    moved = 0
    for i, (old, new) in enumerate(zip_longest(want, printed, fillvalue="(none)"), 1):
        if old != new:
            moved += 1
            print(f"moved line {i}:\n  old: {old}\n  new: {new}", file=sys.stderr)
    print(f"check {args.check}: " + (f"{moved} lines moved" if moved else
                                     f"all {len(want)} lines same"), file=sys.stderr)
    sys.exit(1 if moved else 0)
