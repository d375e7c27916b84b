"""Convexity tests for simple drawings.

A drawing is convex when every triangle has at least one convex side: a
side S is convex when no edge spanned by S (together with the triangle's
corners) crosses the triangle.  Equivalently, every induced 5-vertex
subdrawing must be one of the three crossing patterns realisable by points
(types I, II, III below).  Both routes are implemented; they must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .drawing import induced_subdrawing, side_convex, triangle_sides
from .errors import NotK5


class K5Class(Enum):
    I = "I"
    II = "II"
    III = "III"
    V = "V"
    # A 5-drawing that is neither realisable (I-III) nor the twisted form.
    IV_OR_V = "IV_or_V"

    @property
    def convex(self):
        return self in (K5Class.I, K5Class.II, K5Class.III)


def canonical_k5_form(crossing_pairs):
    """Relabel-invariant fingerprint of a 5-vertex crossing set.

    Minimum over all 120 vertex relabelings of the sorted pair-of-edges
    tuple.  Cheap enough (<=120 * 5 pairs) to call in bulk.
    """
    pairs = [tuple(sorted(map(tuple, map(sorted, p)))) for p in crossing_pairs]
    best = None
    for perm in permutations(range(1, 6)):
        m = (None,) + perm
        relabeled = sorted(
            tuple(
                sorted(
                    (
                        tuple(sorted((m[e[0]], m[e[1]]))),
                        tuple(sorted((m[f[0]], m[f[1]]))),
                    )
                )
            )
            for e, f in pairs
        )
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def classify_k5(d):
    """Classify a 5-vertex drawing as K5Class.

    Types I/II/III are the point-realisable patterns (5, 3, 1 crossings);
    type V is the twisted drawing's pattern.  The remaining possibility is
    reported as IV_OR_V: with the four named forms excluded it can only be
    the fourth pattern, but the classifier never certifies that directly.
    """
    if d.n != 5:
        raise NotK5(f"expected a 5-vertex drawing, got n={d.n}")
    from ._k5_catalog import FORMS

    form = canonical_k5_form(d.crossing_set())
    for tag, known in FORMS.items():
        if form == known:
            return K5Class[tag]
    return K5Class.IV_OR_V


@dataclass(frozen=True)
class NonConvexTriangle:
    """Witness that a triangle has no convex side."""

    triangle: tuple
    # For each side: the offending (edge, triangle_edge) crossing.
    violation_a: tuple
    violation_b: tuple


@dataclass(frozen=True)
class NonConvexK5:
    """Witness that a 5-subset induces a non-realisable subdrawing."""

    vertices: tuple
    k5_class: K5Class


def find_nonconvex_triangle(d):
    """First triangle (lex order) with no convex side, or None.

    The witness records one crossing per side proving neither is convex.
    """
    for tri in combinations(range(1, d.n + 1), 3):
        part = triangle_sides(d, *tri)
        if not (part.convex_a or part.convex_b):
            _, wa = side_convex(d, part.triangle, part.side_a)
            _, wb = side_convex(d, part.triangle, part.side_b)
            return NonConvexTriangle(part.triangle, wa, wb)
    return None


def is_convex_by_triangles(d):
    """True iff every triangle has a convex side."""
    return find_nonconvex_triangle(d) is None


def is_convex_by_k5(d):
    """True iff every induced 5-vertex subdrawing is point-realisable.

    Agrees with is_convex_by_triangles on every simple drawing; for n < 5
    there is nothing to check and every drawing is convex.
    """
    return find_nonconvex_k5(d) is None


def find_nonconvex_k5(d):
    """First 5-subset (lex order) inducing a non-realisable pattern, or None."""
    if d.n < 5:
        return None
    for sub in combinations(range(1, d.n + 1), 5):
        d5 = induced_subdrawing(d, sub).drawing
        cls = classify_k5(d5)
        if not cls.convex:
            return NonConvexK5(vertices=sub, k5_class=cls)
    return None
