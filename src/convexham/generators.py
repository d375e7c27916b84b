"""Drawing generators: geometric point sets and the twisted and two-page families.

Geometric drawings use exact integer predicates throughout, so every
generated drawing is simple by construction.  The abstract families, twisted
and two-page, are given by their rotations, which fix their crossings.  The
twisted family is the standard non-convex counterexample stock: its crossing
rule is interval containment, realised by the log-spiral construction (every
edge winds once around a centre; see tests for a polyline cross-validation).
"""

from __future__ import annotations

import math
import random

from . import geometry
from .drawing import _require_table, geometric_drawing, rotation_drawing
from .errors import DegeneratePointSet, ExhaustedRejection, TooFewVertices, VertexOutOfRange

# Retry budget for rejection sampling in random_geometric.
_MAX_TRIES = 64


def point_set(points):
    """Validate a point sequence: integer coords, >= 3 points, general position."""
    pts = []
    for p in points:
        x, y = p
        if not isinstance(x, int) or not isinstance(y, int):
            raise ValueError(f"coordinates must be integers, got {p!r}")
        pts.append((x, y))
    if len(pts) < 3:
        raise TooFewVertices(f"need >= 3 points, got {len(pts)}")
    geometry.assert_general_position(pts)
    return tuple(pts)


def geometric(points):
    """Drawing of K_n with vertices at the given points and straight edges.

    Vertex i+1 sits at points[i].  Rotations are the counterclockwise
    angular orders; crossings are answered lazily by exact segment tests.
    """
    return geometric_drawing((None, *point_set(points)))


def convex_position(n):
    """Drawing of n points in strictly convex position (rounded circle).

    Labels follow the hull counterclockwise.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    # One radius s suffices.  With t = 2 pi / n, the turn at each vertex of
    # the exact polygon is 2 s^2 (1 - cos t) sin t.  Rounding moves a point
    # by at most sqrt(2) / 2 and so shifts a turn by at most 2 sqrt(2) L + 2,
    # L = 2 s sin(t / 2) the side.  At s = max(64, 2 n^2) the turn is over
    # 21 times that shift for every n >= 3, so the rounded polygon stays
    # strictly convex: distinct points in general position.
    radius = max(64, 2 * n * n)
    pts = []
    for k in range(n):
        ang = 2 * math.pi * k / n
        pts.append((round(radius * math.cos(ang)), round(radius * math.sin(ang))))
    return geometric(pts)


def random_geometric(n, seed):
    """Uniform integer points in a box scaled so degeneracies are rare.

    Uses the stdlib Mersenne Twister (`random.Random(seed)`); resamples the
    whole set on a degenerate draw and raises ExhaustedRejection after a
    fixed retry budget.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    side = max(10**4, 8 * n**3)
    for _ in range(_MAX_TRIES):
        pts = [(rng.randrange(side + 1), rng.randrange(side + 1)) for _ in range(n)]
        try:
            return geometric(pts)
        except DegeneratePointSet:
            continue
    raise ExhaustedRejection(
        f"no general-position sample for n={n}, seed={seed} in {_MAX_TRIES} tries"
    )


def twisted(n):
    """The twisted drawing of K_n: edges cross iff one label interval strictly contains the other.

    Vertices sit on a ray ordered by label; every edge spirals once around
    the ray's origin, so log-radius profiles are linear in the winding angle
    and two edges meet exactly when their label intervals nest.  The
    rotation of vertex i reads (n, n-1, ..., i+1, 1, 2, ..., i-1).  Simple
    by construction, so the rotations are not checked and the crossing
    table is built only when first read.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    _require_table(n)
    return rotation_drawing([(*range(n, i, -1), *range(1, i)) for i in range(1, n + 1)])


def two_page(n, outer_edges=()):
    """Book drawing: vertices on a circle, each edge inside or outside the disk.

    Every page assignment yields a realizable simple drawing (two chord
    systems glued along the circle): same-page edges cross iff their label
    intervals interleave, different pages never cross.  Rotations follow
    from the two-disk picture: at v the inside neighbours sweep v+1..v-1,
    then the outside neighbours sweep back v-1..v+1.

    With no outer edges this is combinatorially convex_position(n).  With a
    few long outer chords it produces convex drawings that are not
    stretchable to points, including hubs with several bad edges; that is
    the stock this family exists to supply.  Simple by construction, so
    the rotations are not checked and the crossing table is built only
    when first read: writing the drawing out never pays the O(n^4) pass.
    """
    if n < 3:
        raise TooFewVertices(f"need n >= 3, got {n}")
    _require_table(n)
    outer = set()
    for e in outer_edges:
        u, w = e
        if u == w:
            raise ValueError(f"bad edge {e!r}")
        if not (1 <= u <= n and 1 <= w <= n):
            raise VertexOutOfRange(f"outer edge {e!r} has a vertex out of range 1..{n}")
        outer |= {(u, w), (w, u)}
    rotations = []
    for v in range(1, n + 1):
        cyc = [(v + k - 1) % n + 1 for k in range(1, n)]
        rotations.append([w for w in cyc if (v, w) not in outer]
                         + [w for w in reversed(cyc) if (v, w) in outer])
    return rotation_drawing(rotations)

