"""JSON serialisation of drawings and certificates.

The drawing format is a bit-exact contract:

    {"n": int,
     "points": [[x, y], ...],               # integers; present for geometric drawings
     "rotations": [[int, ...], ...],        # rotations[i] = ccw order around vertex i+1;
                                            # omitted when "points" is present
     "crossings": [[[u, v], [x, y]], ...]}  # written only with "points" and n <= 12

Writers emit canonical form: each rotation starts at its smallest label,
edges are (min, max), crossing pairs are sorted lexicographically, keys are
sorted and the encoding is compact.  Identical drawings therefore serialise
to identical bytes.  A geometric drawing is written as its points (plus the
crossing list while n <= 12); an abstract one as its rotations, which fix
its crossings.

Readers treat "points", or else "rotations", as authoritative and accept
the derivable fields as redundant input, always checked: a stored field
that differs from the one the authoritative field fixes is a FormatError.
Next to points: rotations at every n (one ccw_order per vertex, on the
oracle's float64 mirrors), and
crossings only while n <= 12, where the check is exhaustive; a crossing
list next to more points is a FormatError.  Next to rotations: stored
crossings at every n, which must equal the set the rotations fix.
"""

from __future__ import annotations

import json

from .drawing import canon_edge, new_drawing
from .errors import CrossingsDisagree, FormatError
from .generators import geometric

_DRAWING_KEYS = {"n", "rotations", "crossings", "points"}
_CERT_KEYS = {"kind", "vertices", "edges", "claims", "oracle_verified"}

# The writer's crossing list next to points, and the reader's exhaustive
# check of it, stop here.
_CROSSING_CHECK_MAX_N = 12


def drawing_to_json(d):
    """Canonical JSON-ready dict for a drawing.

    Geometric drawings carry their points and no rotations; the crossing
    list is redundant then and only written while small enough to double as
    a cross-check.
    """
    obj = {"n": d.n}
    if d.points is None:
        obj["rotations"] = [list(d.rotation_of(v)) for v in range(1, d.n + 1)]
        return obj
    obj["points"] = [list(d.points[v]) for v in range(1, d.n + 1)]
    if d.n <= _CROSSING_CHECK_MAX_N:
        obj["crossings"] = [[list(e), list(f)] for e, f in sorted(d.crossing_set())]
    return obj


def dumps_drawing(d):
    return json.dumps(drawing_to_json(d), separators=(",", ":"), sort_keys=True)


def _require(cond, message):
    if not cond:
        raise FormatError(message)


def _is_int(x):
    # JSON true/false arrive as Python bools, which are ints.
    return isinstance(x, int) and not isinstance(x, bool)


def _all_ints(xs):
    # _is_int of every entry, decided once per distinct type.
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, xs)))


def _int_pair(x, what):
    # Called per point and per edge: build the message only on failure.
    if not (isinstance(x, (list, tuple)) and len(x) == 2 and _is_int(x[0]) and _is_int(x[1])):
        raise FormatError(f"{what} must be a pair of integers, got {x!r}")
    return (x[0], x[1])


def drawing_from_json(obj):
    """Parse and validate a drawing dict (as produced by drawing_to_json)."""
    _require(isinstance(obj, dict), f"drawing JSON must be an object, got {type(obj).__name__}")
    extra = set(obj) - _DRAWING_KEYS
    _require(not extra, f"unknown drawing keys: {sorted(extra)}")
    n = obj.get("n")
    _require(_is_int(n), "field 'n' must be an integer")
    rotations = obj.get("rotations")
    if rotations is not None:
        _require(isinstance(rotations, list), "field 'rotations' must be a list")
        _require(
            all(isinstance(r, list) and _all_ints(r) for r in rotations),
            "each rotation must be a list of integers",
        )

    points = obj.get("points")
    if points is not None:
        _require(isinstance(points, list), "field 'points' must be a list")
        _require(len(points) == n, f"expected {n} points, got {len(points)}")
        d = geometric([_int_pair(p, "point") for p in points])
        if rotations is not None:
            _require(len(rotations) == n, f"expected {n} rotations, got {len(rotations)}")
            for v in range(1, n + 1):
                stored = tuple(rotations[v - 1])
                derived = d.rotation_of(v)
                if stored != derived:
                    raise FormatError(
                        f"stored rotation of vertex {v} disagrees with the points: "
                        f"{stored} vs {derived}"
                    )
        crossings = obj.get("crossings")
        if crossings is not None:
            _require(
                n <= _CROSSING_CHECK_MAX_N,
                f"stored crossings next to points are accepted only while n <= "
                f"{_CROSSING_CHECK_MAX_N}, got n = {n}",
            )
            stored = _crossing_pairs(crossings)
            derived = d.crossing_set()
            if stored != derived:
                raise FormatError(
                    "stored crossings disagree with the points "
                    f"(e.g. {sorted(stored ^ derived)[:3]})"
                )
        return d

    _require(rotations is not None, "abstract drawings need a 'rotations' field")
    _require(len(rotations) == n, f"expected {n} rotations, got {len(rotations)}")
    crossings = obj.get("crossings")
    stored = None if crossings is None else _crossing_pairs(crossings)
    try:
        return new_drawing(n, [tuple(r) for r in rotations], stored)
    except CrossingsDisagree as exc:
        raise FormatError(f"stored crossings disagree with the rotations: {exc}") from None


def _crossing_pairs(crossings):
    _require(isinstance(crossings, list), "field 'crossings' must be a list")
    pairs = set()
    for item in crossings:
        if not (isinstance(item, list) and len(item) == 2):
            raise FormatError(f"each crossing must be a pair of edges, got {item!r}")
        e = _edge(item[0])
        f = _edge(item[1])
        pairs.add((e, f) if e <= f else (f, e))
    return frozenset(pairs)


def _edge(x):
    u, v = _int_pair(x, "edge")
    if u == v:
        raise FormatError(f"edge {x!r} joins a vertex to itself")
    return canon_edge(u, v)


def loads_drawing(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return drawing_from_json(obj)


def _jsonify(value):
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(v) for v in value)
    return value


def _tupleify(value):
    if isinstance(value, list):
        return tuple(_tupleify(v) for v in value)
    return value


def certificate_to_json(cert):
    return {
        "kind": cert.kind,
        "vertices": list(cert.vertices),
        "edges": [list(e) for e in cert.edges],
        "claims": {k: _jsonify(v) for k, v in cert.claims.items()},
        "oracle_verified": cert.oracle_verified,
    }


def dumps_certificate(cert):
    return json.dumps(certificate_to_json(cert), separators=(",", ":"), sort_keys=True)


def certificate_from_json(obj):
    """Parse a certificate dict; the stored edges must match the vertex sequence."""
    _require(isinstance(obj, dict), "certificate JSON must be an object")
    extra = set(obj) - _CERT_KEYS
    _require(not extra, f"unknown certificate keys: {sorted(extra)}")
    kind = obj.get("kind")
    _require(kind in ("cycle", "path", "subdrawing"), f"unknown certificate kind {kind!r}")
    vertices = obj.get("vertices")
    _require(
        isinstance(vertices, list) and _all_ints(vertices),
        "field 'vertices' must be a list of integers",
    )
    edges = obj.get("edges")
    _require(isinstance(edges, list), "field 'edges' must be a list")
    edges = tuple(_edge(e) for e in edges)
    claims = obj.get("claims", {})
    _require(isinstance(claims, dict), "field 'claims' must be an object")
    for name, value in claims.items():
        _check_claim_shape(name, value)
    verified = obj.get("oracle_verified", False)
    _require(isinstance(verified, bool), "field 'oracle_verified' must be a boolean")

    from .certificates import cycle_certificate, path_certificate, subdrawing_certificate

    claims = {k: _tupleify(v) for k, v in claims.items()}
    try:
        if kind == "cycle":
            cert = cycle_certificate(vertices, claims, verified)
        elif kind == "path":
            cert = path_certificate(vertices, claims, verified)
        else:
            cert = subdrawing_certificate(edges, claims, verified)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if kind == "subdrawing":
        if tuple(vertices) != cert.vertices:
            raise FormatError(
                f"stored vertices {vertices} disagree with the edge set's {list(cert.vertices)}"
            )
    elif set(edges) != set(cert.edges):
        raise FormatError("stored edges disagree with the vertex sequence")
    elif len(edges) > len(cert.edges):
        raise FormatError("stored edges list an edge more than once")
    return cert


_BOOL_CLAIMS = {"plane", "hamiltonian", "empty_side", "maximal_plane"}


def _check_claim_shape(name, value):
    # Shapes verify_certificate relies on; unknown names are left to it.
    if name in _BOOL_CLAIMS:
        _require(isinstance(value, bool), f"claim {name!r} must be a boolean, got {value!r}")
    elif name == "star_avoiding":
        _require(_is_int(value), f"claim 'star_avoiding' must be a vertex, got {value!r}")
    elif name == "endpoints":
        _int_pair(value, "claim 'endpoints'")
    elif name == "contains":
        _require(isinstance(value, list), f"claim 'contains' must be a list of edges, got {value!r}")
        for e in value:
            _edge(e)


def loads_certificate(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return certificate_from_json(obj)
