import os
import random
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from convexham import generators, geometry
from convexham.drawing import Drawing, ExplicitCrossings, canon_edge, relabel
from convexham.errors import NoCoordinates
from convexham.geometry import orientation

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

# One line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES = []


def record_criterion(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env():
    """The environment for a child interpreter that imports this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def adjacent(e, f):
    """True iff edges e and f share an endpoint."""
    return e[0] in f or e[1] in f


def canon_pair(e, f):
    """Normalise an unordered pair of edges."""
    e = canon_edge(*e)
    f = canon_edge(*f)
    return (e, f) if e <= f else (f, e)


def side_convex(d, tri, side):
    """Is the side of `tri` holding `side` convex?  Returns (flag, witness).

    The side is convex iff no edge spanned by side vertices and triangle
    corners crosses any triangle edge.  witness is (edge, triangle_edge) for
    the first violation found, else None.  Scalar queries that stop at the
    first crossing: the reference for the side verdicts of
    drawing._triangle_verdicts and the witnesses of find_nonconvex_triangle.
    """
    a, b, c = tri
    tri_edges = (canon_edge(a, b), canon_edge(b, c), canon_edge(a, c))
    opposite = {canon_edge(a, b): c, canon_edge(b, c): a, canon_edge(a, c): b}
    side = sorted(side)
    for i, w in enumerate(side):
        for w2 in side[i + 1:]:
            for te in tri_edges:
                if d.crosses((w, w2), te):
                    return False, (canon_edge(w, w2), te)
        # Corner-to-side edges share two triangle corners, so only the
        # opposite triangle edge can possibly be crossed.
        for te, corner in opposite.items():
            if d.crosses((corner, w), te):
                return False, (canon_edge(corner, w), te)
    return True, None


def strictly_convex_ccw(points_in_order):
    """True iff the points, in the given cyclic order, form a strictly convex CCW polygon."""
    n = len(points_in_order)
    if n < 3:
        return False
    for i in range(n):
        a = points_in_order[i]
        b = points_in_order[(i + 1) % n]
        c = points_in_order[(i + 2) % n]
        if orientation(a, b, c) <= 0:
            return False
    return True


def row_groups(rows, length, block):
    """Reference for drawing.ask_rows' grouping of rows of one length: (i0, i1) per call.

    Rows are packed greedily into calls of at most `block` entries, a row
    counting as at least one entry, and a row longer than block // 3 is
    asked alone.
    """
    size = max(length, 1)
    groups, i = [], 0
    while i < rows:
        j, total = i + 1, size
        while size <= block // 3 and j < rows and total + size <= block:
            total += size
            j += 1
        groups.append((i, j))
        i = j
    return groups


@contextmanager
def kernel_calls():
    """Record the counted kernel calls: (name, args, answer) per call, in order.

    Both counted entries are spied, `Drawing.cross_pairs` (args a, b, cs,
    ds) and `Drawing.cross_block` (args rows, i0, i1), a walk or star block.
    """
    calls = []

    def spied(name):
        entry = getattr(Drawing, name)

        def call(self, *args):
            calls.append((name, args, entry(self, *args)))
            return calls[-1][2]

        return call

    with mock.patch.object(Drawing, "cross_pairs", spied("cross_pairs")), \
            mock.patch.object(Drawing, "cross_block", spied("cross_block")):
        yield calls


def star_windows(order, i0, i1):
    """The operands of rows i0..i1-1 of a star block of `order`: the (R, 1) pair
    columns and the (R, k - 2) windows of the labels after each pair, cyclically."""
    k = len(order)
    us = [[order[i % k]] for i in range(i0, i1)]
    vs = [[order[(i + 1) % k]] for i in range(i0, i1)]
    windows = [[order[(i + j) % k] for j in range(2, k)] for i in range(i0, i1)]
    return (np.array(x, dtype=np.int64).reshape(i1 - i0, -1) for x in (us, vs, windows))


@contextmanager
def star_g_rows():
    """Collect, in the yielded set, the G rows that point star kernels form.

    `PointBack.star_rows` forms G row i, cross(P_order[i], P_order[i+δ]),
    from row i of its two coordinate windows; this patches
    `geometry._windows` so that every read of such a window adds its rows
    to the yielded set.  A block settled without G reads none.  Only for
    point sets: the abstract backing reads its label windows the same way.
    """
    read = set()

    class Reads(np.ndarray):
        def __getitem__(self, key):
            read.update(range(key.start, key.stop) if isinstance(key, slice) else (key,))
            return np.asarray(super().__getitem__(key))

    make = geometry._windows
    with mock.patch.object(geometry, "_windows",
                           lambda *args: [w.view(Reads) for w in make(*args)]):
        yield read


def offset_blocks(m, block):
    """Reference for the plane check's kernel calls on m edges (drawing.offset_hits).

    One list per call of the edge index pairs (i, j), i < j, that it asks,
    in offset order.  The edges after the first, for even m, or all of
    them, for odd m, form a cycle of odd length c.  For even m edge 0 is
    first asked against every other edge; then row k pairs cycle edge i
    with cycle edge (i + k) mod c, for i = 0..c-1, k = 1..(c - 1) / 2.
    Consecutive rows share a call, block // c of them (at least one).
    """
    if m < 2:
        return []
    s = 1 - m % 2
    c = m - s
    rows = [[(0, j) for j in range(1, m)]] if s else []
    for k in range(1, (c - 1) // 2 + 1):
        rows.append([tuple(sorted((s + i, s + (i + k) % c))) for i in range(c)])
    per = max(1, block // c)
    return [sum(rows[r:r + per], []) for r in range(0, len(rows), per)]


def first_crossing_reference(d, edges, block):
    """(first crossing pair, entries asked) of the plane check of canonical `edges`.

    Scalar queries on d in the order of offset_blocks; the entries are
    those through the block holding the first crossing, or all C(m, 2).
    """
    asked = 0
    for pairs in offset_blocks(len(edges), block):
        asked += len(pairs)
        for i, j in pairs:
            if d.crosses(edges[i], edges[j]):
                return (edges[i], edges[j]), asked
    return None, asked


def tied_long_turn_drawing():
    """Float64 mirrors on which a hull hub's long turn has o2 rounded to 0."""
    # Hub h = (2p - 2, 2p - 2), p = 2^50, and relative to it a = (-p, 1 - p)
    # and b = (2p + 1, 2p - 1): cross(P_a, P_b) = -1, so the pair (a, b)
    # turns by just over π and h is a hull vertex, but the products
    # -2p^2 + p and -2p^2 + p + 1 round to one float64, so o2 = 0.  Four
    # points near P = (-1, 1) 2^44 lie across ab from h: their star edges
    # cross ab, and every other pair turns by less than π.
    p = 2**50
    h = (2 * p - 2, 2 * p - 2)
    rng = random.Random(7)
    ws = [(h[0] - 2**44 - rng.randrange(2**42), h[1] + 2**44 + rng.randrange(2**42))
          for _ in range(4)]
    d = generators.geometric([h, (h[0] - p, h[1] + 1 - p), (h[0] + 2 * p + 1, h[1] + 2 * p - 1), *ws])
    assert d._oracle.xs.dtype == np.float64
    return d


def fan_hub(d, walk):
    """The hub h of a fan walk on points, by integers, or None.

    walk is a vertex sequence, closed when its ends are equal, and a closed
    walk drops its repeated last label.  A fan walk is then (h, L) or
    (L, h), h its first label or its last, with L's labels distinct and
    other than h, every consecutive pair (x, y) of L turning one way,
    orientation(h, x, y) = s, and L a cyclic shift of h's rotation among L
    read counterclockwise, s = 1, or else clockwise, s = -1 (two labels are
    both, and take s = 1).  The reference for `PointBack.walk_rows`.
    """
    walk = list(walk)
    if walk[0] == walk[-1]:
        walk.pop()
    pts = d.points
    for h, fan in ((walk[0], walk[1:]), (walk[-1], walk[:-1])):
        turns = {orientation(pts[h], pts[x], pts[y]) for x, y in zip(fan, fan[1:])}
        if h in fan or len(set(fan)) < len(fan) or len(turns) != 1 or 0 in turns:
            continue
        rot = list(d.rotation_among(h, set(fan)))
        shifts = [rot[i:] + rot[:i] for i in range(len(rot))]
        if turns == {1 if fan in shifts else -1 if fan[::-1] in shifts else 0}:
            return h
    return None


def is_interior(d, v):
    """No angular gap around v reaches pi: v is not a hull vertex."""
    pts, order = d.points, d.rotation_of(v)
    return all(
        orientation(pts[v], pts[a], pts[b]) > 0 for a, b in zip(order, order[1:] + order[:1])
    )


def polygon_side(polygon, p):
    """Parity of crossings between an upward ray from p and the polygon boundary.

    Returns 1 if p is strictly inside the (simple) polygon, 0 if strictly
    outside.  p must not lie on the boundary; with the point set in general
    position this cannot happen for a polygon through other set points.
    """
    px, py = p
    inside = 0
    m = len(polygon)
    for i in range(m):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % m]
        if (ax <= px) == (bx <= px):
            continue
        # Edge straddles the vertical line x = px (half-open rule).  The
        # intersection is above p iff N / (bx - ax) > 0 with
        # N = -cross(b - a, p - a).
        num = -((bx - ax) * (py - ay) - (by - ay) * (px - ax))
        if (num > 0) == (bx > ax):
            inside ^= 1
    return inside


def polygon_partition(d, cycle):
    """Geometric cross-check of cycle sides via exact point-in-polygon.

    Only for drawings carrying coordinates.  Returns (inside, outside) as
    frozensets of off-cycle vertices.
    """
    if d.points is None:
        raise NoCoordinates("drawing has no coordinates")
    cyc = tuple(cycle)
    poly = [d.points[v] for v in cyc]
    on_cycle = set(cyc)
    inside, outside = set(), set()
    for w in range(1, d.n + 1):
        if w in on_cycle:
            continue
        if polygon_side(poly, d.points[w]):
            inside.add(w)
        else:
            outside.add(w)
    return frozenset(inside), frozenset(outside)


def lex_rotations(n):
    """0-dummy rotations listing the other vertices in label order."""
    return [None] + [tuple(u for u in range(1, n + 1) if u != v) for v in range(1, n + 1)]


def pair_oracle(n, pairs):
    """An explicit oracle on 1..n whose table holds exactly the crossing pairs given.

    pairs is a sequence of ((a, b), (c, d)), or of (a, b, c, d); no pair is
    checked, so the crossing set need not be one any rotations fix.  Its
    rotations are lex_rotations(n), and they fix nothing here.
    """
    oracle = ExplicitCrossings(lex_rotations(n))
    m = n * (n - 1) // 2
    table = np.zeros((m + 1, m + 1), dtype=bool)
    rows = np.asarray(pairs, dtype=np.int64).reshape(-1, 4)
    i = oracle._edge_id[rows[:, 0], rows[:, 1]]
    j = oracle._edge_id[rows[:, 2], rows[:, 3]]
    table[i, j] = table[j, i] = True
    oracle._table = table
    return oracle


def random_k4_drawing(n, rng):
    """Drawing with an arbitrary crossing set obeying the K4 axiom.

    Each 4-set gets one of its three crossing pairs with probability 0.3;
    most such sets are not realisable, so parity relations that are no
    2-colouring occur as well as consistent ones.
    """
    crossings = []
    for quad in combinations(range(1, n + 1), 4):
        if rng.random() < 0.3:
            a, b, c, x = quad
            crossings.append(rng.choice((((a, b), (c, x)), ((a, c), (b, x)), ((a, x), (b, c)))))
    # Built directly: rotations fix a realisable crossing set, this one is free.
    return Drawing(n, pair_oracle(n, crossings), rotations=lex_rotations(n))


def permuted_fan(n, step, rng):
    """two_page(n) with a fan of outer chords from vertex 1, randomly relabelled.

    The chords (1, j), j = 4, 4 + step, ... < n - 1, give hubs with several
    bad edges; the relabelling moves them off the low labels.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(generators.two_page(n, tuple((1, j) for j in range(4, n - 1, step))), perm)


def random_two_page(n, rng):
    """two_page(n) with a random set of outer edges, randomly relabelled.

    Each edge goes outside with one probability drawn per drawing, so the
    pool runs from nearly convex position to dense chord sets, most of them
    not convex, with many bad edges at a hub.
    """
    p = rng.random()
    outer = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(generators.two_page(n, outer), perm)


def construction_pool(kind, n, seed):
    """A drawing for the equivalence tests: fan, random two-page, random
    geometric or twisted.  Only fans and geometric drawings are convex."""
    if kind == "fan":
        return permuted_fan(n, 1 + seed % 4, random.Random(seed))
    if kind == "two-page":
        return random_two_page(n, random.Random(seed))
    if kind == "geometric":
        return generators.random_geometric(n, seed)
    return generators.twisted(n)


@pytest.fixture(scope="session")
def conv6():
    return generators.convex_position(6)


@pytest.fixture(scope="session")
def conv8():
    return generators.convex_position(8)


@pytest.fixture(scope="session")
def rand8():
    return generators.random_geometric(8, 3)


@pytest.fixture(scope="session")
def rand9():
    return generators.random_geometric(9, 7)
