"""Core model: simple drawings of complete graphs given combinatorially.

A drawing of K_n is stored as one rotation per vertex (the cyclic,
counterclockwise order of the other n-1 vertices around it) plus a crossing
oracle answering whether two independent edges cross.  Two oracle backings
exist: the crossings an abstract drawing's rotations fix, read off once into
a dense table when first asked (n <= 181), and a lazy geometric predicate
over integer coordinates that answers each query in O(1) without ever
materialising the O(n^4) crossing set.

A Drawing asks its oracle through the checked scalar `crosses(e, f)`, the
row `cross_pairs(a, b, cs, ds)`, whose docstring states what a row's
operands may be, and `cross_block`, a block of a backing's star kernel
(pairs consecutive in an order against a hub's star edges).  All count
every query they pass on into the drawing's own QueryCounter;
`instrumented(d)` returns a view of d with a fresh counter.  Kernel calls
are few and large, since a call costs far more than an entry: `ask_rows`
packs rows of one length into calls of up to ROW_BLOCK_ENTRIES entries,
and `star_hits` asks the star kernel's rows in the same blocks; the plane
check's `offset_hits` asks the pairs of an edge list by cyclic offsets,
each call one edge row against a block of up to OFFSET_BLOCK_ENTRIES
entries.  On points the fan lemma (`geometry.PointBack`) settles what it
can with no call: `plane_hits` counts the whole plane check of a fan walk,
and `star_hits` counts each star block of a fan's pairs.  These are the
only two places that count entries no backing is asked.

Drawings are value objects: after construction only their query counter
changes.
Vertices are labelled 1..n and edges are unordered pairs (u, v) with u < v.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import (
    CrossingsDisagree,
    InvalidRotation,
    NotAPermutation,
    SideInconsistency,
    TooFewVertices,
    TooLarge,
    VertexOutOfRange,
)


def canon_edge(u, v):
    """Normalise an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"degenerate edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass
class QueryCounter:
    """Mutable tally of crossing-oracle queries, for complexity instrumentation."""

    count: int = 0


def _require_table(n):
    """Raise TooLarge when K_n's crossing table would exceed 2**28 bytes (n > 181)."""
    m = n * (n - 1) // 2
    if (m + 1) ** 2 > 1 << 28:
        raise TooLarge(f"n={n} needs a {(m + 1) ** 2}-byte crossing table, over 2**28")


class ExplicitCrossings:
    """Crossing oracle of an abstract drawing, read from a dense crossing table.

    Every query is one gather from two dense tables: `_edge_id[u, v]`
    numbers the edges of K_n in all_edges order (label 0 and u == v give
    the sentinel id C(n, 2)), and `_table[i, j]` says whether edges i and j
    cross.  Shared endpoints and the sentinel read False; a label above n
    raises IndexError.  The table is built from the rotations rot[1..n]
    (0-dummy list) on its first read, so a drawing that is only written out
    or relabelled never pays the 4-set pass.
    """

    def __init__(self, rot):
        n = len(rot) - 1
        _require_table(n)
        m = n * (n - 1) // 2
        ids = np.full((n + 1, n + 1), m, dtype=np.int32)
        # A boolean mask fills in row-major order, which is all_edges order.
        ids[1:, 1:][np.less.outer(np.arange(n), np.arange(n))] = np.arange(m)
        self._edge_id = np.minimum(ids, ids.T)
        self._rot = rot

    @functools.cached_property
    def _table(self):
        return self._mark_rotations()

    def _mark_rotations(self):
        """The crossing table fixed by the rotations rot[1..n], built on first read.

        For a 4-set a < b < c < d, bit s_v says whether v's rotation meets the
        other three in ascending cyclic order.  The bits of a simple drawing have
        even parity (else InvalidRotation names the first odd 4-set in lex order),
        and their pattern names the crossing: s_a = s_b = s_c = s_d, ac x bd;
        s_a = s_b != s_c, ad x bc; s_a = s_d != s_b, ab x cd; s_a = s_c != s_b, none.
        Each bit is an xor of three position comparisons.  The comparisons and
        crossing spots of a triple (b, c, d) alone are built once, for all triples
        in lex order (O(n^3) scratch: 19 bytes per triple; n <= 181 lets uint16
        index the (n+1)^2 grid).  Each a reads the suffix with b > a by three 1-D
        takes from grids of a's row and column: bits x = s_a ^ s_b, y = s_b ^ s_c,
        z = s_a ^ s_d of a byte.  Its crossings go into its edges' rows, then mirrored.
        """
        rot = self._rot
        n, w = len(rot) - 1, len(rot)
        stride = n * (n - 1) // 2 + 1
        table = np.zeros((stride, stride), dtype=bool)
        pos = np.zeros((w, w), dtype=np.int16)  # pos[v, u]: u's place around v
        pos[np.arange(1, w)[:, None], np.array(rot[1:])] = np.arange(n - 1)
        lt = np.less.outer(range(w), range(w))
        lt[0] = False
        b, c, d = np.unravel_index(np.flatnonzero(lt[:, :, None] & lt), (w, w, w))
        fbc, fbd, fcd = ((u * w + v).astype(np.uint16) for u, v in ((b, c), (b, d), (c, d)))
        inb, inc = pos.take(fbc) < pos.take(fbd), pos.T.take(fbc) < pos.take(fcd)
        const = (inb + 2 * (inb ^ inc) + 4 * (pos.T.take(fbd) < pos.T.take(fcd))).astype(np.uint8)
        # Flat table indices of ac x bd, ad x bc and ab x cd, less lo - a - 1 rows.
        spots = [(x * stride + self._edge_id.take(f)).astype(np.int32)
                 for x, f in ((c, fbd), (d, fbc), (b, fcd))]
        del b, c, d, inb, inc  # intp scratch, freed before the table fills
        flat, start, hi = table.reshape(-1), 0, 0
        for a in range(1, n - 2):
            start += (n - a) * (n - a - 1) // 2  # past the triples with b = a
            lo, hi = hi, hi + n - a  # a's edges have ids lo..hi-1
            m = np.less.outer(pos[a], pos[a]).view(np.uint8)  # m[u, v]: u before v around a
            u = (pos[:, a, None] < pos).view(np.uint8)  # u[v, x]: a before x around v
            mu = m ^ u  # bits 0, 1, 2 of the grids at bc, bd and cd xor to x, y, z
            q_bd = mu | u << 1 | (m ^ u.T) << 2
            s = (mu | (u ^ u.T) << 1 | m << 2).take(fbc[start:]) ^ const[start:]
            s ^= q_bd.take(fbd[start:])
            s ^= (q_bd ^ u).take(fcd[start:])
            if (odd := (s + 2) & 4).any():  # bit 2 of s + 2 is y ^ z
                k = start + int(np.argmax(odd))
                quad = (a, *divmod(int(fbc[k]), w), int(fcd[k]) % w)
                raise InvalidRotation(f"rotations of vertices {quad} fit no simple drawing")
            s &= 3  # x = y = 0: ac x bd; y alone: ad x bc; x alone: ab x cd
            for code, spot in zip((0, 2, 1), spots):
                flat[spot[start:][s == code] + np.intp((lo - a - 1) * stride)] = True
            table[hi:-1, lo:hi] = table[lo:hi, hi:-1].T
        return table

    def cross(self, a, b, c, d):
        return bool(self._table[self._edge_id[a, b], self._edge_id[c, d]])

    def cross_pairs(self, a, b, cs, ds):
        # The crossing table is read with one `take` on its flat index,
        # about half the cost per entry of 2-D fancy indexing; the index
        # comes from edge ids, never from labels, so nothing aliases.  The
        # edge ids stay a 2-D gather, which checks every label: checking
        # labels for a flat id gather cost as much as it saved.  Operands
        # broadcast as in Drawing.cross_pairs.
        ids, table = self._edge_id, self._table
        return table.take(ids[a, b] * len(table) + ids[cs, ds])

    def star_rows(self, order, hub):
        """`PointBack.star_rows` as `ask_rows`' `cross_pairs` gathers over the same
        windows, with no block settled."""
        twice = geometry._star_labels(order, hub, len(self._rot) - 1)
        k = len(twice) // 2
        (others,) = geometry._windows((twice[2:],), k, k - 2)
        rows = _row_asker(self.cross_pairs, twice[:k], twice[1:], k - 2,
                          lambda i0, i1: (others[i0] if i1 == i0 + 1 else others[i0:i1], hub))
        return rows, lambda bounds: [False] * len(bounds)


class GeometricCrossings(geometry.PointBack):
    """Crossing oracle over integer points: exact scalar predicate, PointBack rows."""

    def cross(self, a, b, c, d):
        pts = self.pts
        return geometry.segments_cross(pts[a], pts[b], pts[c], pts[d])


class Drawing:
    """A simple drawing of K_n; construct via new_drawing() or the generators."""

    __slots__ = ("n", "points", "counter", "_oracle", "_rot", "_rot_cache")

    def __init__(self, n, oracle, rotations=None, points=None):
        self.n = n
        self._oracle = oracle
        self.points = points
        self.counter = QueryCounter()
        self._rot = rotations  # 0-dummy list of canonical tuples, or None
        self._rot_cache = {}

    def rotation_of(self, v):
        """Counterclockwise cyclic order of the other vertices around v.

        Returned as a tuple starting at the smallest label (canonical form).
        Raises VertexOutOfRange for v outside 1..n.
        """
        if not 0 < v <= self.n:
            raise VertexOutOfRange(f"vertex {v} out of range 1..{self.n}")
        if self._rot is not None:
            return self._rot[v]
        rot = self._rot_cache.get(v)
        if rot is None:
            others = np.arange(1, self.n)
            others[v - 1:] += 1
            order = geometry.ccw_order(self._oracle, v, others)
            rot = _canon_cycle(tuple(order))
            self._rot_cache[v] = rot
        return rot

    def rotation_among(self, v, labels):
        """v's rotation restricted to the set `labels` (v itself is ignored).

        The same tuple as filtering rotation_of(v): it starts at the first
        label met going round from the smallest other vertex, where
        rotation_of(v) starts.  A point set sorts only the given labels
        around v, plus that start label, which is then dropped if it is not
        one of them.  Given every other vertex, it is rotation_of(v).
        Raises VertexOutOfRange for v or a label outside 1..n.
        """
        bad = [u for u in (v, min(labels, default=1), max(labels, default=1))
               if not 0 < u <= self.n]
        if bad:
            raise VertexOutOfRange(f"vertex {bad[0]} out of range 1..{self.n}")
        if len(labels) - (v in labels) == self.n - 1:
            return self.rotation_of(v)
        if self._rot is not None:
            return tuple(x for x in self._rot[v] if x in labels)
        start = 1 if v != 1 else 2
        cand = [x for x in labels if x != v]
        extra = start not in labels
        if extra:
            cand.append(start)
        order = geometry.ccw_order(self._oracle, v, cand)
        i = order.index(start)
        return (*order[i + extra:], *order[:i])

    @property
    def rotations(self):
        """All rotations as a tuple indexed by vertex - 1."""
        return tuple(self.rotation_of(v) for v in range(1, self.n + 1))

    def crosses(self, e, f):
        """Do edges e and f cross?  Adjacent edges never cross and cost no query."""
        a, b = e
        c, d = f
        if a == b or c == d:
            canon_edge(a, b), canon_edge(c, d)  # raises ValueError
        n = self.n
        if not (0 < a <= n and 0 < b <= n and 0 < c <= n and 0 < d <= n):
            u = next(u for u in (*sorted(e), *sorted(f)) if not 0 < u <= n)
            raise VertexOutOfRange(f"vertex {u} out of range 1..{n}")
        if a == c or a == d or b == c or b == d:
            return False
        self.counter.count += 1
        return self._oracle.cross(a, b, c, d)

    def cross_pairs(self, a, b, cs, ds):
        """Vectorised: does {a, b} cross {c, d}, entry by entry?  One query per entry.

        The operands are labels or label arrays that broadcast together, and
        each entry of their broadcast shape, the answer's, asks {a, b}
        against {c, d}.  A 1-D row has `cs` a label array and `a`, `b` and
        `ds` each a label, which stands for every entry, or a label array
        of len(cs); a 2-D block is an (R, 1) pair column, or one (L,) pair
        row, against (R, L) operands, or operands that broadcast to them,
        such as one (L,) row or one label.  Both backings' `cross_pairs`
        take these operands.  Entries sharing an endpoint answer False and
        still count.
        """
        hits = self._oracle.cross_pairs(a, b, cs, ds)
        self.counter.count += hits.size
        return hits

    def cross_block(self, rows, i0, i1):
        """Rows i0..i1-1 of a backing's block function, one query per entry.

        rows is the row function of `star_rows(order, hub)`, whose rows are
        pairs consecutive in order against the hub's star edges.
        """
        hits = rows(i0, i1)
        self.counter.count += hits.size
        return hits

    def crossing_set(self):
        """Materialise all crossing pairs, uncounted.  Quadratic in the edge count; small n only."""
        edges = all_edges(self.n)
        hits = offset_hits(self._oracle.cross_pairs, np.array(edges, dtype=np.int64))
        return frozenset((edges[i], edges[j]) for i, j in hits)

    def __repr__(self):
        kind = "geometric" if self.points is not None else "explicit"
        return f"Drawing(n={self.n}, {kind})"


# Entries per kernel call when short rows are asked together.  On
# geometric drawings one call costs ~12 us however short, plus ~7 ns per
# entry of a 1-D row (a 2K-entry row ~25 us, 2 vCPUs).  Verifying an
# n = 300 path took 1.9x / 1.3x as long with 1K / 2K blocks as with 4K
# ones, about the same with 8K and 1.7x with 16K, whose float64
# temporaries reach 128 KB, a size malloc serves by mmap.  8K here would
# move where early-stopping scans stop, and so their query counts.
ROW_BLOCK_ENTRIES = 1 << 12

# Entries per kernel call of the plane check's offset rows (`offset_hits`),
# whose pair operand is one edge row broadcast over the block.  8K entries
# keep the float64 temporaries at 64 KB, under malloc's mmap threshold.
# On point sets the plane check of a 299-edge path took 0.95 ms with 8K
# calls against 1.16 ms with 4K and 1.44 ms as row-major suffix rows in 4K
# calls, and of a 2,000-edge cycle 43 against 55 and 59 ms (in process,
# alternating, best of 5, 2 vCPUs).
OFFSET_BLOCK_ENTRIES = 2 * ROW_BLOCK_ENTRIES


def ask_rows(ask, a, b, length, operands):
    """Ask one row of `length` entries per pair {a[i], b[i]} (label arrays), in few kernel calls.

    operands(i0, i1) gives the (cs, ds) of rows i0..i1-1, grouped as
    `_row_bounds` says.  Yields (i0, hits) per call, hits shaped
    (R, length); a caller that stops early asks no later block.
    """
    block = _row_asker(ask, a, b, length, operands)
    for i0, i1 in _row_bounds(len(a), length):
        yield i0, block(i0, i1)


def _row_asker(ask, a, b, length, operands):
    """block(i0, i1): ask's answer to rows i0..i1-1 of `ask_rows`, shaped (R, length).

    A one-row call passes its pair as labels, and its operands broadcast to
    `length` entries; a call of R > 1 rows passes an (R, 1) pair column,
    and its operands broadcast to (R, length).
    """
    def block(i0, i1):
        cs, ds = operands(i0, i1)
        if i1 == i0 + 1:
            hits = ask(a[i0], b[i0], cs, ds)
        else:
            hits = ask(a[i0:i1, None], b[i0:i1, None], cs, ds)
        return hits.reshape(i1 - i0, length)

    return block


def _row_bounds(rows, length):
    """The rows (i0, i1) of each kernel call over `rows` rows of `length` entries.

    A call holds ROW_BLOCK_ENTRIES // length consecutive rows (a row of no
    entries counting as one), the last call fewer, or one row when that
    quotient is below three, since a block of two long rows built from
    arrays is slower than two label rows.  Its callers are generators, so
    the constant is read when the first call is asked.  The grouping never
    changes which entries are asked, or their order.
    """
    per = ROW_BLOCK_ENTRIES // max(length, 1)
    if per < 3:
        per = 1
    return [(i0, min(i0 + per, rows)) for i0 in range(0, rows, per)]


def star_hits(d, order, hub, rows):
    """(i0, hits) per call of rows 0..rows-1 of the backing's `star_rows(order, hub)`.

    Row i asks the pair {order[i], order[i + 1]} against the star edges
    {w, hub} of the k - 2 labels after it in `order`, cyclically, k =
    len(order) >= 3.  Rows are grouped as in `ask_rows`.  A block the
    backing settles (the fan lemma, on points) is all misses: it is neither
    asked nor yielded, and its R (k - 2) entries are counted in order,
    before the next block asked or when the rows run out, so a caller that
    stops early counts every entry up to the end of the block it stopped
    at.  Every other block is one `d.cross_block` call, hits shaped
    (R, k - 2).  The labels are checked before any block is asked.
    """
    k = len(order)
    block, fans = d._oracle.star_rows(order, hub)
    bounds = _row_bounds(rows, k - 2)
    settled = 0  # entries of settled blocks not yet counted
    for (i0, i1), fan in zip(bounds, fans(bounds)):
        if fan:
            settled += (i1 - i0) * (k - 2)
            continue
        d.counter.count += settled
        settled = 0
        yield i0, d.cross_block(block, i0, i1)
    d.counter.count += settled


def offset_hits(ask, ends):
    """Index pairs (i, j), i < j, of the crossing edges of an (m, 2) label array, in offset order.

    The edges after the first, for even m, or all of them, for odd m, form
    a cycle of odd length c.  Row k asks its edge i against its edge
    (i + k) mod c for every i, k = 1..(c - 1) / 2, after row 0 of edge 0
    against the c others for even m: C(m, 2) entries, each pair once.  A
    call asks OFFSET_BLOCK_ENTRIES // c consecutive rows (at least one) as
    the cycle's (c,) edge row broadcast over a contiguous (R, c) block, so
    C(m, 2) entries that fit one block are one call.  Hits come row by
    row, and by i within a row; a caller that stops early asks no block
    past the one holding its last pair.  A path or a cycle listed in order
    shares endpoints only between neighbours, all in rows 0 and 1.
    """
    m = len(ends)
    if m < 2:
        return
    s = 1 - m % 2  # 1: edge 0 has row 0
    c = m - s
    a, b = ends[s:].T.copy()
    last = (c - 1) // 2
    # Row k of a window is the doubled cycle of a (or b) from place k on.
    # Each call copies its rows, since numpy gathers from overlapping
    # windows at about twice the cost of a copy; row 0 becomes edge 0's.
    twice = np.concatenate((a, a, b, b))
    windows = geometry._windows((twice[:2 * c], twice[2 * c:]), last + 1, c)
    per = max(1, OFFSET_BLOCK_ENTRIES // c)
    for k0 in range(1 - s, last + 1, per):
        cs, ds = (w[k0:k0 + per].copy() for w in windows)
        if k0 == 0:
            cs[0], ds[0] = ends[0]
        hits = ask(a, b, cs, ds)
        # A 2-D nonzero costs ~18 us on a (4, 1999) block; any() far less.
        if hits.any():
            k, i = np.nonzero(hits)
            k += k0
            j = np.where(k > 0, (i + k) % c + s, 0)
            i += s
            yield from zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())


def _walk(ends):
    """The labels v_0..v_m of a walk whose edge t is ends[t] = {v_t, v_{t+1}}, or None.

    ends is an (m, 2) label array, m >= 2.  It is a walk when each edge
    shares exactly one endpoint with the next, and each edge between two
    others meets them at its two ends (a star is no walk).
    """
    (a, b), (c, d) = ends[:-1].T, ends[1:].T
    in_a, in_b = (a == c) | (a == d), (b == c) | (b == d)
    joints = np.where(in_a, a, b)  # v_1..v_{m-1}
    if (in_a == in_b).any() or (joints[1:] == joints[:-1]).any():
        return None
    walk = np.empty(len(ends) + 1, dtype=ends.dtype)
    walk[1:-1] = joints
    walk[0] = ends[0, 0] + ends[0, 1] - joints[0]
    walk[-1] = ends[-1, 0] + ends[-1, 1] - joints[-1]
    return walk


def plane_hits(d, ends):
    """offset_hits(d.cross_pairs, ends), unless the fan lemma settles it.

    On a drawing with points whose m edges form a path or a cycle in order
    (`_walk`) that is a fan walk (`PointBack.fan_walk`), the check is plane:
    its C(m, 2) entries are counted, none is asked, and there is no hit.
    Any other edge list, and every abstract drawing, asks `d.cross_pairs`.
    """
    walk = _walk(ends) if d.points is not None and len(ends) > 1 else None
    if walk is None or not d._oracle.fan_walk(walk):
        return offset_hits(d.cross_pairs, ends)
    d.counter.count += len(ends) * (len(ends) - 1) // 2
    return iter(())


class Induced(NamedTuple):
    """An induced subdrawing with its relabelling maps."""

    drawing: Drawing
    to_sub: dict  # host label -> sub label
    to_host: dict  # sub label -> host label


def _canon_cycle(t):
    i = t.index(min(t))
    return t[i:] + t[:i]


def all_edges(n):
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]


def new_drawing(n, rotations, crossings=None):
    """Build and validate a drawing from its rotations.

    The rotations fix which edges cross.  The crossing table is read off at
    once, in one pass that builds the per-triple data once and lets each
    smallest vertex read its suffix of triples (ExplicitCrossings._mark_rotations),
    so rotations that fit no simple drawing raise InvalidRotation here;
    subsystems beyond 4-sets are not checked for realisability.  A given
    crossing list must equal the derived set, which holds only independent
    pairs with labels in 1..n and at most one pair per K4; a list that
    differs raises CrossingsDisagree naming the smallest differing pair.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    _require_table(n)
    if len(rotations) != n:
        raise InvalidRotation(f"expected {n} rotations, got {len(rotations)}")
    for v, r in enumerate(rotations, 1):
        expected = [u for u in range(1, n + 1) if u != v]
        if sorted(r) != expected:
            raise InvalidRotation(
                f"rotation of vertex {v} is not a cyclic order of the others: {tuple(r)}"
            )
    d = rotation_drawing(rotations)
    d._oracle._table  # the 4-set pass, which checks every 4-set
    if crossings is not None:
        given = {tuple(sorted((canon_edge(*e), canon_edge(*f)))) for e, f in crossings}
        fixed = d.crossing_set()
        if given != fixed:
            e, f = min(given ^ fixed)
            raise CrossingsDisagree(
                f"listed crossing {e} x {f} is not fixed by the rotations" if (e, f) in given
                else f"crossing {e} x {f} fixed by the rotations is not listed"
            )
    return d


def rotation_drawing(rotations):
    """Internal: wrap the rotations of vertices 1..n, simple by construction, as a Drawing.

    Nothing is checked, and the crossing table is built on its first read.
    """
    rot = [None, *(_canon_cycle(tuple(r)) for r in rotations)]
    return Drawing(len(rotations), ExplicitCrossings(rot), rotations=rot)


def geometric_drawing(pts):
    """Internal: wrap validated 1-indexed integer points (pts[0] unused) as a Drawing."""
    return Drawing(len(pts) - 1, GeometricCrossings(pts), points=pts)


def relabel(d, perm):
    """Rename vertices by a permutation given as {old: new} (or a 1-indexed sequence)."""
    n = d.n
    if not isinstance(perm, dict):
        perm = {i + 1: p for i, p in enumerate(perm)}
    labels = list(range(1, n + 1))
    if sorted(perm) != labels or sorted(perm.values()) != labels:
        raise NotAPermutation(f"not a permutation of 1..{n}")
    return _renamed(d, [0, *sorted(perm, key=perm.get)])


def _renamed(d, to_old):
    """d on the vertices to_old[1:], with vertex to_old[x] renamed x."""
    if d.points is not None:
        return geometric_drawing((None, *(d.points[v] for v in to_old[1:])))
    to_new = {v: x for x, v in enumerate(to_old) if x}
    rot = [[to_new[u] for u in d.rotation_of(v) if u in to_new] for v in to_old[1:]]
    return rotation_drawing(rot)


def induced_subdrawing(d, vertices):
    """Subdrawing induced by `vertices`, relabelled 1..k in sorted host order."""
    vs = sorted(set(vertices))
    if len(vs) < 3:
        raise TooFewVertices(f"induced subdrawing needs >= 3 vertices, got {len(vs)}")
    if vs[0] < 1 or vs[-1] > d.n:
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}")
    to_sub = {v: i + 1 for i, v in enumerate(vs)}
    to_host = {i + 1: v for i, v in enumerate(vs)}
    return Induced(_renamed(d, [0, *vs]), to_sub, to_host)


@dataclass(frozen=True)
class TrianglePartition:
    """Off-triangle vertices split by the two sides of a triangle.

    side_a holds the class containing the smallest off-triangle vertex; an
    empty side (if any) is always side_b.  convex_a/convex_b record whether
    every edge spanned by that side plus the triangle corners avoids the
    triangle boundary entirely.
    """

    triangle: tuple
    side_a: frozenset
    side_b: frozenset
    convex_a: bool
    convex_b: bool


def split_by_triangle(d, tri, among):
    """Partition `among` (non-empty, disjoint from tri) into the two sides of triangle tri.

    Two vertices land on the same side iff the edge between them crosses the
    triangle boundary an even number of times.  Every vertex is placed
    against the smallest one, w0: one row per triangle edge over the edges
    (w0, w), 3 * (len(among) - 1) queries in all, asked as one call of a
    (3, 1) triangle-edge column.  triangle_sides checks the parity of
    every pair.
    """
    rest = sorted(among)
    a, b, c = tri
    w0, ws = rest[0], np.array(rest[1:], dtype=np.int64)
    hits = d.cross_pairs(np.array([[a], [b], [a]]), np.array([[b], [c], [c]]), ws, w0)
    odd = np.bitwise_xor.reduce(hits)
    return [w0, *ws[~odd].tolist()], ws[odd].tolist()


def _off_vertices(n, cycles):
    """The labels of 1..n off each row of the (T, k) array cycles: (T, n - k), ascending."""
    t, k = cycles.shape
    keep = np.ones((t, n + 1), dtype=bool)
    keep[:, 0] = False
    keep[np.arange(t)[:, None], cycles] = False
    return np.nonzero(keep)[1].reshape(t, n - k)


@functools.lru_cache(maxsize=4)
def _triu_pairs(m):
    """np.triu_indices(m, 1), read-only and built once per m for all blocks of a pass."""
    iu, ju = np.triu_indices(m, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _parity_sides(d, edges, off):
    """Sides of the off vertices of T plane cycles at once: (side, wrong, rows).

    off is a (T, m) array whose row t holds the off-cycle vertices of cycle
    t in ascending order.  edges holds one (a, b) operand pair per cycle
    edge: labels, or (T, 1) columns with one pair per cycle.  Each cycle
    edge asks one (T, C(m, 2)) block over the off pairs of every cycle, in
    np.triu_indices(m, 1) order per cycle: len(edges) * T * C(m, 2)
    queries; rows holds their answers.  A pair's parity is the XOR of its
    rows.  side[t, i] says off[t, i] is not on the side of off[t, 0];
    wrong[t, p] says pair p of cycle t contradicts those sides.
    """
    m = off.shape[1]
    iu, ju = _triu_pairs(m)
    cs, ds = off.take(iu, axis=1), off.take(ju, axis=1)
    rows = [d.cross_pairs(a, b, cs, ds) for a, b in edges]
    parity = functools.reduce(np.bitwise_xor, rows)
    # The pairs through the reference vertex off[:, 0] come first and fix
    # the sides; the 2-colouring must then be consistent for every pair.
    side = np.zeros(off.shape, dtype=bool)
    side[:, 1:] = parity[:, : m - 1]
    return side, parity != (side.take(iu, axis=1) ^ side.take(ju, axis=1)), rows


def _side_inconsistency(cyc, off, wrong):
    """The SideInconsistency naming the first wrong pair of off, in row-major order."""
    iu, ju = _triu_pairs(len(off))
    k = int(wrong.argmax())
    return SideInconsistency(
        f"vertices {int(off[iu[k]])},{int(off[ju[k]])} disagree with sides of cycle {cyc}"
    )


def _triangle_verdicts(d, tris):
    """Sides and side convexity of a (T, 3) array of ascending triangles.

    Returns (off, side, wrong, convex, rows): off (T, n - 3) holds each
    triangle's off vertices in ascending order, side and wrong are as in
    _parity_sides, and convex (T, 2) says whether side a (the class of
    off[t, 0]) and side b are convex: no edge spanned by the side and the
    corners crosses the triangle.  Each of the six rows is one block of
    the (T, 1) corner columns of a triangle edge, in the order ab, bc, ac:
    three (T, C(n - 3, 2)) blocks over the off pairs, in
    np.triu_indices(n - 3, 1) order per triangle, then three (T, n - 3)
    blocks over the edges (c, w), (a, w) and (b, w) from the opposite
    corner to each off vertex w.  Every triangle costs
    3 * C(n - 3, 2) + 3 * (n - 3) queries.
    """
    off = _off_vertices(d.n, tris)
    a, b, c = tris[:, 0:1], tris[:, 1:2], tris[:, 2:3]
    side, wrong, (ab, bc, ac) = _parity_sides(d, ((a, b), (b, c), (a, c)), off)
    # A side is violated by a pair inside it that crosses the triangle: on
    # consistent sides, one of even parity that crosses some edge.  Or by a
    # corner edge to one of its vertices crossing the opposite triangle edge.
    inside = (ab | bc | ac) & ~(ab ^ bc ^ ac)
    on_b = side.take(_triu_pairs(off.shape[1])[0], axis=1)
    corner_rows = [d.cross_pairs(a, b, c, off), d.cross_pairs(b, c, a, off),
                   d.cross_pairs(a, c, b, off)]
    corner = functools.reduce(np.bitwise_or, corner_rows)
    convex = np.stack([
        ~((inside & ~on_b).any(axis=1) | (corner & ~side).any(axis=1)),
        ~((inside & on_b).any(axis=1) | (corner & side).any(axis=1)),
    ], axis=1)
    return off, side, wrong, convex, (ab, bc, ac, *corner_rows)


def triangle_sides(d, a, b, c):
    """Partition the off-triangle vertices by side and report side convexity.

    A triangle is a plane 3-cycle, so its sides are those of
    oracle.cycle_sides, with the same convention and the same
    SideInconsistency when the parity relation is no 2-colouring.  The
    one-triangle case of _triangle_verdicts: 3 * C(n - 3, 2) + 3 * (n - 3)
    queries.
    """
    tri = tuple(sorted((a, b, c)))
    if len(set(tri)) != 3:
        raise ValueError(f"triangle needs three distinct vertices, got {(a, b, c)}")
    if tri[0] < 1 or tri[2] > d.n:
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}")
    (off,), (side,), (wrong,), ((conv_a, conv_b),), _rows = _triangle_verdicts(d, np.array([tri]))
    if wrong.any():
        raise _side_inconsistency(tri, off, wrong)
    return TrianglePartition(tri, frozenset(off[~side].tolist()), frozenset(off[side].tolist()),
                             bool(conv_a), bool(conv_b))


def instrumented(d):
    """A view of `d` with a fresh query counter.  Returns (drawing, counter).

    The view shares d's oracle and rotations, including the lazy rotation cache.
    """
    view = Drawing(d.n, d._oracle, rotations=d._rot, points=d.points)
    view._rot_cache = d._rot_cache
    return view, view.counter


def same_drawing(d1, d2):
    """Structural equality: same n, same rotations, same crossing pairs.

    Two abstract drawings compare their crossing tables; otherwise the
    crossing sets are materialised, so small drawings only.
    """
    if d1.n != d2.n:
        return False
    if d1.rotations != d2.rotations:
        return False
    o1, o2 = d1._oracle, d2._oracle
    if isinstance(o1, ExplicitCrossings) and isinstance(o2, ExplicitCrossings):
        return np.array_equal(o1._table, o2._table)
    return d1.crossing_set() == d2.crossing_set()
