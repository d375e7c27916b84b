"""Independent verification: direct re-checking of certificates.

Everything here answers questions by first principles on the crossing
oracle alone.  This module must stay free of imports from the construction
modules so that certificate verification is independent of the code being
verified.

verify_certificate asks the drawing's rows (`cross_pairs`, or `cross_block` for
a block of a backing's star kernel) per claim.  On a point set, what the
fan lemma (`geometry.PointBack`) settles is counted and never asked:

- plane: `first_crossing` over the certificate's edges, every pair once
  by cyclic offsets (`drawing.plane_hits`), C(|E|,2) entries on plane input.
  A fan walk on a point set (a hub, then an angular order about it, as
  the star-avoiding cycle and the s-t fan path are) is plane, and its
  entries are counted with no call; every other edge list asks them
  through `cross_pairs`.
- star_avoiding (hub v): one row per edge {a, b} not at v, over the
  star edges {w, v} for w in 1..n other than a, b and v.  When those
  edges form, in order, a path through every vertex but v, its rows are
  the star kernel's (`drawing.star_hits`), each row's w in path order,
  and on points a block of a fan's pairs is counted with no call; any
  other edge list asks them through `cross_pairs`, w ascending.
- maximal_plane: the plane check, then one row per non-edge against all of
  E, failing at the first row without a hit.  A maximal certificate costs
  C(|E|,2) + (C(n,2) - |E|) * |E| entries, claiming plane as well or not.
- empty_side: the sides of `cycle_sides`, i.e. the plane check of the k
  cycle edges, then one row per cycle edge over all C(n-k,2) off-cycle
  pairs.  A cycle that is not plane or has inconsistent sides fails the
  claim.
- hamiltonian, contains, endpoints: no queries.

The plane check of one edge sequence runs once per call, however many of
these claims ask it.  Its offset rows go to the drawing as one edge row
against blocks of up to `drawing.OFFSET_BLOCK_ENTRIES` entries, and the
star_avoiding and maximal_plane rows, all of one length, in the 2-D
blocks of `drawing.ask_rows`, so entries and their order are as listed.
A check stops after the block that decides it: a certificate that
verifies counts exactly the entries above, and a failing one counts every
entry up to the end of the block holding the first crossing (plane,
star_avoiding) or the first row without one (maximal_plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .certificates import _seq_edges, mark_verified
from .drawing import (
    _off_vertices,
    _parity_sides,
    _side_inconsistency,
    _walk,
    all_edges,
    ask_rows,
    canon_edge,
    plane_hits,
    star_hits,
)
from .errors import (
    CertificateError,
    CycleNotPlane,
    SideInconsistency,
    VertexOutOfRange,
)


def _label_pairs(d, edges):
    """The label pairs of the given edges as an (m, 2) int64 array.

    A label past int64 raises VertexOutOfRange.  A label count other than
    twice the edge count raises ValueError naming an edge of other than two
    labels: read as one flat list, (1, 5, 3), (2, 6, 4) would be the edges
    {1, 5}, {3, 2} and {6, 4}.
    """
    edges = edges if isinstance(edges, (list, tuple)) else tuple(edges)
    try:
        flat = np.fromiter(chain.from_iterable(edges), np.int64)
    except OverflowError:
        raise VertexOutOfRange(f"edge labels out of range 1..{d.n}") from None
    if flat.size != 2 * len(edges):
        bad = next(e for e in edges if len(e) != 2)
        raise ValueError(f"edge {tuple(bad)} does not have two labels")
    return flat.reshape(-1, 2)


def _edge_array(d, edges):
    """The given edges as a canonical (m, 2) int64 array, every label in 1..n."""
    arr = _label_pairs(d, edges)
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        u = int(arr[loops.argmax(), 0])
        raise ValueError(f"degenerate edge ({u}, {u})")
    arr.sort(axis=1)
    out = (arr < 1) | (arr > d.n)
    if out.any():
        raise VertexOutOfRange(f"vertex {int(arr[out][0])} out of range 1..{d.n}")
    return arr


def first_crossing(d, edges):
    """First pair of the given edges that cross, or None.

    The pairs are asked by cyclic offsets (`drawing.plane_hits`: counted
    and settled as misses when the drawing has points and the edges form
    a fan walk, else `drawing.offset_hits` over `cross_pairs`), C(m, 2)
    entries for m edges, and the first hit in that order is returned as
    (earlier edge, later edge) in the given order.  The check stops after
    the block holding that hit, so a crossing costs the entries up to the
    end of its block.
    """
    arr = _edge_array(d, edges)
    hit = next(plane_hits(d, arr), None)
    return None if hit is None else tuple(tuple(arr[i].tolist()) for i in hit)


def is_plane(d, edges):
    """True iff no two of the given edges cross."""
    return first_crossing(d, edges) is None


@dataclass(frozen=True)
class CycleSides:
    """Off-cycle vertices split by a plane cycle.

    Two vertices share a side iff the edge between them crosses the cycle an
    even number of times.  side_a holds the class of the smallest off-cycle
    vertex; an empty side is always side_b.
    """

    cycle: tuple
    side_a: frozenset
    side_b: frozenset


def cycle_sides(d, cycle):
    """Partition vertices off a plane cycle into its two sides.

    Raises CycleNotPlane if the cycle's own edges cross, SideInconsistency
    if the parity relation fails to be a well-defined 2-colouring (possible
    only for non-plane input; checked exhaustively here because this is the
    oracle).
    """
    cyc = tuple(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValueError(f"not a cycle: {cyc}")
    if any(v < 1 or v > d.n for v in cyc):
        raise VertexOutOfRange(f"vertices out of range 1..{d.n}: {cyc}")
    cycle_edges = _seq_edges(cyc, close=True)
    bad = first_crossing(d, cycle_edges)
    if bad is not None:
        raise CycleNotPlane(f"cycle edges {bad[0]} and {bad[1]} cross")
    return _plane_cycle_sides(d, cyc, cycle_edges)


def _plane_cycle_sides(d, cyc, cycle_edges):
    # cycle_sides after its plane check.
    off = _off_vertices(d.n, np.array([cyc]))
    if off.size == 0:  # a Hamiltonian cycle asks no rows
        return CycleSides(cyc, frozenset(), frozenset())
    (side,), (wrong,), _rows = _parity_sides(d, cycle_edges, off)
    off = off[0]
    if wrong.any():
        raise _side_inconsistency(cyc, off, wrong)
    return CycleSides(cyc, frozenset(off[~side].tolist()), frozenset(off[side].tolist()))


def _check_star_avoiding(d, cert, v_star):
    # Certificate edges are distinct non-loops, so each row holds n - 3 entries.
    if v_star not in cert.vertices:
        return False
    every = np.arange(1, d.n + 1)
    every = every[every != v_star]
    rows = [e for e in cert.edges if v_star not in e]
    ends = _label_pairs(d, rows)
    # Edges that form, in order, a path through every vertex but v_star are
    # the star kernel's rows 0..n-3 of that path; the kernel's windows then
    # hold every other vertex once, in path order.
    walk = _walk(ends) if len(rows) > 1 else None
    if walk is not None and np.array_equal(np.sort(walk), every):
        blocks = star_hits(d, walk, v_star, len(rows))
    else:
        a, b = ends.T

        def operands(i0, i1):
            if i1 == i0 + 1:
                # every is sorted, so label u sits at u - 1 - (u > v_star), and
                # a canonical edge's ends come in that order.
                i, j = (u - 1 - (u > v_star) for u in rows[i0])
                return np.concatenate((every[:i], every[i + 1:j], every[j + 1:])), v_star
            keep = (every != a[i0:i1, None]) & (every != b[i0:i1, None])
            return every[None].repeat(i1 - i0, axis=0)[keep].reshape(i1 - i0, -1), v_star

        blocks = ask_rows(d.cross_pairs, a, b, d.n - 3, operands)
    return not any(hits.any() for _i0, hits in blocks)


def _check_maximal_plane(d, cert, plane):
    # have + {e} is plane iff have is plane and e crosses nothing in have.
    if not plane(tuple(cert.edges)):
        return False
    have = set(cert.edges)
    cs, ds = _edge_array(d, cert.edges).T.copy()
    a, b = np.array([e for e in all_edges(d.n) if e not in have], dtype=np.int64).reshape(-1, 2).T
    rows = ask_rows(d.cross_pairs, a, b, len(cs), lambda i0, i1: (cs, ds))
    return all(hits.any(axis=1).all() for _i0, hits in rows)


def _check_empty_side(d, cyc, plane):
    # A sequence that is no plane cycle, or whose sides are inconsistent,
    # has no empty side.
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    edges = _seq_edges(cyc, close=True)
    if not plane(edges):
        return False
    try:
        sides = _plane_cycle_sides(d, cyc, edges)
    except SideInconsistency:
        return False
    return min(len(sides.side_a), len(sides.side_b)) == 0


def verify_certificate(d, cert):
    """Re-check every claim of a certificate against the drawing.

    Returns a verified copy; raises CertificateError naming the failed
    claims otherwise.  Unknown claim names fail loudly rather than pass
    silently.
    """
    failed = []
    if cert.vertices and (min(cert.vertices) < 1 or max(cert.vertices) > d.n):
        raise CertificateError(f"vertices out of range 1..{d.n}", failed=("structure",))
    # A cycle certificate's edges are its cycle edges in cycle order, so the
    # plane, maximal_plane and empty_side claims share one plane check; edge
    # sequences are compared, not hashed, as a tuple's hash is not cached.
    checked = []  # (edges, plane) per edge sequence

    def plane(edges):
        ok = next((ok for seen, ok in checked if seen == edges), None)
        if ok is None:
            checked.append((edges, ok := is_plane(d, edges)))
        return ok

    for name, value in cert.claims.items():
        if name == "plane":
            ok = (not value) or plane(tuple(cert.edges))
        elif name == "hamiltonian":
            ok = (not value) or set(cert.vertices) == set(range(1, d.n + 1))
        elif name == "star_avoiding":
            ok = _check_star_avoiding(d, cert, value)
        elif name == "empty_side":
            ok = (not value) or _check_empty_side(d, cert.vertices, plane)
        elif name == "contains":
            have = set(cert.edges)
            ok = all(canon_edge(*e) in have for e in value)
        elif name == "endpoints":
            s, t = value
            ok = cert.vertices[0] == s and cert.vertices[-1] == t
        elif name == "maximal_plane":
            ok = (not value) or _check_maximal_plane(d, cert, plane)
        else:
            raise CertificateError(f"unknown claim {name!r}", failed=(name,))
        if not ok:
            failed.append(name)
    if failed:
        raise CertificateError(
            f"certificate claims failed: {', '.join(sorted(failed))}",
            failed=tuple(sorted(failed)),
        )
    return mark_verified(cert)
