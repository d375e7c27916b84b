import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convexham import generators, io
from convexham.certificates import (
    cycle_certificate,
    mark_verified,
    path_certificate,
    subdrawing_certificate,
)
from convexham.drawing import same_drawing
from convexham.errors import FormatError
from convexham.hamiltonian import hamiltonian_cycle, st_hamiltonian_path
from convexham.oracle import verify_certificate
from convexham.subdrawings import greedy_maximal_plane


def test_cycle_certificate_edges():
    c = cycle_certificate((2, 4, 1, 3), {"plane": True})
    assert c.edges == ((2, 4), (1, 4), (1, 3), (2, 3))
    assert c.kind == "cycle" and not c.oracle_verified
    assert mark_verified(c).oracle_verified


def test_certificate_validation():
    with pytest.raises(ValueError):
        cycle_certificate((1, 2), {})
    with pytest.raises(ValueError):
        cycle_certificate((1, 2, 2), {})
    with pytest.raises(ValueError):
        path_certificate((3,), {})
    with pytest.raises(ValueError):
        subdrawing_certificate([(1, 2), (2, 1)], {})


def test_subdrawing_certificate_canonical():
    c = subdrawing_certificate([(3, 1), (2, 4)], {"plane": True})
    assert c.edges == ((1, 3), (2, 4))
    assert c.vertices == (1, 2, 3, 4)


@given(st.integers(4, 12), st.integers(0, 300))
def test_drawing_roundtrip_geometric(n, seed):
    d = generators.random_geometric(n, seed)
    text = io.dumps_drawing(d)
    d2 = io.loads_drawing(text)
    assert same_drawing(d, d2)
    assert io.dumps_drawing(d2) == text


@pytest.mark.parametrize("n", [5, 6, 7])
def test_drawing_roundtrip_abstract(n):
    d = generators.twisted(n)
    text = io.dumps_drawing(d)
    d2 = io.loads_drawing(text)
    assert same_drawing(d, d2)
    assert io.dumps_drawing(d2) == text


def test_writer_redundant_crossings_small_only():
    small = io.drawing_to_json(generators.random_geometric(8, 0))
    assert "crossings" in small and "points" in small
    big = io.drawing_to_json(generators.random_geometric(13, 0))
    assert "crossings" not in big


def test_point_drawings_written_without_rotations():
    for d in (generators.random_geometric(8, 0), generators.random_geometric(13, 0)):
        assert "rotations" not in io.drawing_to_json(d)
    assert "rotations" in io.drawing_to_json(generators.twisted(5))


def test_reader_rejects_rotation_tamper(rand8):
    # Rotations are optional next to points but still checked when present.
    obj = io.drawing_to_json(rand8)
    obj["rotations"] = [list(r) for r in rand8.rotations]
    assert same_drawing(io.drawing_from_json(obj), rand8)
    obj["rotations"][2] = obj["rotations"][2][::-1]
    with pytest.raises(FormatError):
        io.drawing_from_json(obj)


# Written by the earlier format, which stored every rotation next to the points.
OLD_FORMAT = Path(__file__).parent / "data" / "rand8_with_rotations.json"


def test_reader_accepts_stored_rotations(rand8):
    text = OLD_FORMAT.read_text()
    d = io.loads_drawing(text)
    assert same_drawing(d, rand8)
    obj = json.loads(text)
    assert obj["rotations"] == [list(r) for r in rand8.rotations]
    assert io.dumps_drawing(d) == io.dumps_drawing(rand8)
    obj["rotations"][4] = obj["rotations"][4][:1] + obj["rotations"][4][1:][::-1]
    with pytest.raises(FormatError, match="rotation of vertex 5"):
        io.drawing_from_json(obj)


def test_reader_rejects_crossing_tamper(rand8):
    obj = io.drawing_to_json(rand8)
    obj["crossings"] = obj["crossings"][:-1]
    with pytest.raises(FormatError):
        io.drawing_from_json(obj)


def test_reader_checks_stored_rotations_at_every_n():
    d = generators.random_geometric(65, 0)
    obj = io.drawing_to_json(d)
    obj["rotations"] = [list(r) for r in d.rotations]
    assert io.dumps_drawing(io.drawing_from_json(obj)) == io.dumps_drawing(d)
    rot = obj["rotations"][64]
    rot[1], rot[2] = rot[2], rot[1]
    with pytest.raises(FormatError, match="rotation of vertex 65"):
        io.drawing_from_json(obj)


def test_reader_refuses_crossings_next_to_more_than_12_points():
    # The writer stops listing crossings there and the reader cannot afford
    # the exhaustive check, so a list, complete or not, is refused.
    d = generators.random_geometric(20, 1)
    pairs = [[list(e), list(f)] for e, f in sorted(d.crossing_set())]
    obj = io.drawing_to_json(d)
    for crossings in (pairs, pairs[:-1]):
        with pytest.raises(FormatError, match="only while n <= 12"):
            io.drawing_from_json(dict(obj, crossings=crossings))


def test_reader_rejects_malformed():
    with pytest.raises(FormatError):
        io.loads_drawing("{not json")
    with pytest.raises(FormatError):
        io.loads_drawing(json.dumps({"n": 4, "rotations": []}))
    with pytest.raises(FormatError):
        io.loads_drawing(json.dumps({"n": 4, "rotations": [], "bogus": 1}))
    with pytest.raises(FormatError):
        io.loads_drawing(json.dumps({"n": 4, "crossings": []}))
    with pytest.raises(FormatError):
        io.loads_drawing(json.dumps({"n": 3, "points": [[0, 0], [1, 0], [0, 1]],
                                     "rotations": [[2, 3]]}))
    rot4 = [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]
    for crossing in ([[1, 1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(FormatError):
            io.loads_drawing(json.dumps({"n": 4, "rotations": rot4, "crossings": [crossing]}))
    with pytest.raises(FormatError, match=r"listed crossing \(1, 2\) x \(3, 9\) is not"):
        io.loads_drawing(json.dumps({"n": 4, "rotations": rot4, "crossings": [[[1, 2], [3, 9]]]}))
    with pytest.raises(FormatError):
        io.loads_drawing(
            json.dumps({"n": 3, "rotations": [[2, 3], [1, 3], [1, 2]],
                        "points": [[0, 0], [1, 0]]})
        )


@pytest.mark.parametrize("obj,message", [
    ({"n": 3, "points": [[0, 0], [1, 0], [0]]}, "point must be a pair of integers, got [0]"),
    ({"n": 3, "points": [[0, 0], [1, 0], [0, True]]},
     "point must be a pair of integers, got [0, True]"),
    ({"n": 4, "rotations": [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
      "crossings": [[[1, 2], [3]]]}, "edge must be a pair of integers, got [3]"),
    ({"n": 4, "rotations": [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
      "crossings": [[[1, 2]]]}, "each crossing must be a pair of edges, got [[1, 2]]"),
    ({"n": 4, "rotations": [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
      "crossings": ["x"]}, "each crossing must be a pair of edges, got 'x'"),
])
def test_reader_messages(obj, message):
    with pytest.raises(FormatError) as info:
        io.drawing_from_json(obj)
    assert str(info.value) == message


def test_certificate_claim_message(rand8):
    obj = io.certificate_to_json(st_hamiltonian_path(rand8, 2, 7))
    obj["claims"]["endpoints"] = 5
    with pytest.raises(FormatError) as info:
        io.certificate_from_json(obj)
    assert str(info.value) == "claim 'endpoints' must be a pair of integers, got 5"


def test_certificate_roundtrip_preserves_claim_shapes(rand8):
    p = st_hamiltonian_path(rand8, 2, 7)
    p2 = io.loads_certificate(io.dumps_certificate(p))
    assert p2 == p
    assert p2.claims["endpoints"] == (2, 7)
    # The restored certificate still verifies.
    assert verify_certificate(rand8, p2).oracle_verified


def test_certificate_roundtrip_all_kinds(rand8):
    for cert in (
        hamiltonian_cycle(rand8),
        greedy_maximal_plane(rand8).certificate(),
    ):
        text = io.dumps_certificate(cert)
        assert io.loads_certificate(text) == cert


def test_certificate_reader_rejects_inconsistency():
    c = hamiltonian_cycle(generators.convex_position(6))
    obj = io.certificate_to_json(c)
    obj["edges"] = obj["edges"][:-1]
    with pytest.raises(FormatError):
        io.certificate_from_json(obj)
    obj = io.certificate_to_json(c)
    obj["kind"] = "mystery"
    with pytest.raises(FormatError):
        io.certificate_from_json(obj)
    obj = io.certificate_to_json(greedy_maximal_plane(generators.convex_position(6)).certificate())
    obj["vertices"] = obj["vertices"][:-1]
    with pytest.raises(FormatError):
        io.certificate_from_json(obj)


@pytest.mark.parametrize("claims", [
    {"endpoints": 5},
    {"endpoints": [1, "x"]},
    {"plane": "yes"},
    {"star_avoiding": [3]},
    {"contains": 5},
    {"contains": [[2, 2]]},
])
def test_certificate_reader_rejects_claim_shapes(rand8, claims):
    obj = io.certificate_to_json(st_hamiltonian_path(rand8, 2, 7))
    obj["claims"].update(claims)
    with pytest.raises(FormatError):
        io.certificate_from_json(obj)


def test_reader_rejects_boolean_labels(rand8):
    # JSON true/false are Python ints; as labels they would reach the oracle as 1/0.
    with pytest.raises(FormatError) as info:
        io.drawing_from_json({"n": 3, "rotations": [[2, 3], [1, 3], [True, 2]]})
    assert str(info.value) == "each rotation must be a list of integers"
    obj = io.certificate_to_json(st_hamiltonian_path(rand8, 2, 7))
    obj["vertices"][0] = True
    with pytest.raises(FormatError) as info:
        io.certificate_from_json(obj)
    assert str(info.value) == "field 'vertices' must be a list of integers"


@pytest.mark.parametrize("kind", ["cycle", "path"])
def test_certificate_reader_rejects_repeated_edges(rand8, kind):
    cert = hamiltonian_cycle(rand8) if kind == "cycle" else st_hamiltonian_path(rand8, 2, 7)
    obj = io.certificate_to_json(cert)
    obj["edges"] = obj["edges"] * 2
    with pytest.raises(FormatError) as info:
        io.certificate_from_json(obj)
    assert str(info.value) == "stored edges list an edge more than once"
    obj["edges"] = obj["edges"][: len(cert.edges)]
    assert io.certificate_from_json(obj) == cert


def test_certificate_reader_rejects_self_loop_edge():
    obj = io.certificate_to_json(greedy_maximal_plane(generators.convex_position(6)).certificate())
    obj["edges"][0] = [3, 3]
    with pytest.raises(FormatError):
        io.certificate_from_json(obj)


def test_dumps_deterministic(rand9):
    assert io.dumps_drawing(rand9) == io.dumps_drawing(
        generators.random_geometric(9, 7)
    )


# Written by the earlier format, which stored every crossing next to the rotations.
OLD_ABSTRACT = Path(__file__).parent / "data" / "two_page8_with_crossings.json"


def test_reader_checks_stored_crossings_against_rotations():
    d = generators.two_page(8, ((1, 4), (4, 7), (7, 8)))
    obj = json.loads(OLD_ABSTRACT.read_text())
    assert same_drawing(io.drawing_from_json(obj), d)
    assert io.dumps_drawing(io.drawing_from_json(obj)) == io.dumps_drawing(d)
    dropped = dict(obj, crossings=obj["crossings"][1:])
    with pytest.raises(FormatError, match="disagree with the rotations"):
        io.drawing_from_json(dropped)
    # A 4-set without a crossing takes an extra one without breaking the K4 rule.
    quad = next(q for q in combinations(range(1, 9), 4)
                if not any(set(e) | set(f) == set(q) for e, f in d.crossing_set()))
    a, b, c, x = quad
    added = dict(obj, crossings=obj["crossings"] + [[[a, b], [c, x]]])
    with pytest.raises(FormatError, match="disagree with the rotations"):
        io.drawing_from_json(added)


def test_certificate_constructor_errors_become_format_errors():
    obj = io.certificate_to_json(path_certificate((1, 2, 3), {"plane": True}))
    obj["vertices"] = [1, 2, 1]
    with pytest.raises(FormatError) as exc:
        io.certificate_from_json(obj)
    assert str(exc.value) == "repeated vertex in path (1, 2, 1)"
    assert exc.value.__cause__ is None and exc.value.__suppress_context__


def test_loads_certificate_rejects_invalid_json():
    with pytest.raises(FormatError, match="^invalid JSON: Expecting property name"):
        io.loads_certificate("{")
