import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from conftest import permuted_fan
from convexham import cli, convexity, generators, io
from convexham.cli import main
from convexham.drawing import instrumented
from convexham.hamiltonian import _two_edge_path, geometric_path_with_two_edges


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err):
    return json.loads(err.strip().splitlines()[-1])


def test_gen_is_byte_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "random", "--n", "9", "--seed", "3")
    _, out2, _ = run(capsys, "gen", "random", "--n", "9", "--seed", "3")
    assert code == 0
    assert out1 == out2


def test_gen_convex_position_pentagon(capsys):
    code, out, _ = run(capsys, "gen", "convex-position", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5
    assert len(obj["crossings"]) == 5
    assert "points" in obj


def test_gen_random_requires_seed(capsys):
    code, _, err = run(capsys, "gen", "random", "--n", "6")
    assert code == 2
    assert "seed" in err


def test_pipeline_gen_find_verify(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "11")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, cert, _ = run(capsys, "find", "hc", "--in", str(dfile))
    assert code == 0
    cfile = tmp_path / "c.json"
    cfile.write_text(cert)
    code, out, _ = run(capsys, "verify", "--in", str(dfile), "--cert", str(cfile))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_module_entry_point_pipeline(tmp_path):
    # `python -m convexham` as three processes with files between them.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def convexham(*argv):
        proc = subprocess.run([sys.executable, "-m", "convexham", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    dfile, cfile = tmp_path / "d.json", tmp_path / "c.json"
    dfile.write_text(convexham("gen", "convex-position", "--n", "6"))
    cfile.write_text(convexham("find", "hc", "--in", str(dfile)))
    out = convexham("verify", "--in", str(dfile), "--cert", str(cfile))
    assert json.loads(out)["verified"] is True


def test_find_on_twisted_reports_evidence(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "find", "hc", "--in", str(dfile))
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "NotConvexEvidence"
    assert obj["which"]
    assert isinstance(obj["vertices"], list)


def test_check_convex_both_methods(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "7")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    for method in ("triangles", "k5"):
        code, out, _ = run(capsys, "check-convex", "--in", str(dfile), "--method", method)
        assert code == 0
        obj = json.loads(out)
        assert obj["convex"] is True and obj["witness"] is None


def test_check_convex_twisted_witness(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "5")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "check-convex", "--in", str(dfile), "--method", "k5")
    assert code == 0
    obj = json.loads(out)
    assert obj["convex"] is False
    assert obj["witness"]["class"] == "V"


@pytest.mark.parametrize("gen, expected", [
    (("twisted", "--n", "7"),
     '{"convex":false,"method":"k5","witness":{"class":"V","vertices":[1,2,3,4,5]}}'),
    (("two-page", "--n", "9", "--outer", "1,4"), '{"convex":true,"method":"k5","witness":null}'),
    (("two-page", "--n", "9", "--outer", "1,5;2,6"),
     '{"convex":false,"method":"k5","witness":{"class":"IV_OR_V","vertices":[1,2,3,5,6]}}'),
    (("random", "--n", "9", "--seed", "4"), '{"convex":true,"method":"k5","witness":null}'),
])
def test_check_convex_k5_stdout(capsys, tmp_path, gen, expected):
    # Stdout as printed by the per-5-set classifier the table lookup replaced.
    _, drawing, _ = run(capsys, "gen", *gen)
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, err = run(capsys, "check-convex", "--in", str(dfile), "--method", "k5")
    assert code == 0
    assert out.strip() == expected
    n = int(gen[2])
    assert manifest_of(err)["oracle_queries"] == 3 * n * (n - 1) * (n - 2) * (n - 3) // 24


_TWISTED_TRIANGLE_WITNESS = (
    '{"convex":false,"method":"triangles","witness":{"triangle":[1,3,4],'
    '"violation_a":[[2,3],[1,4]],"violation_b":[[1,5],[3,4]]}}'
)


@pytest.mark.parametrize("drawing, expected", [
    *((("twisted", "--n", str(n)), _TWISTED_TRIANGLE_WITNESS) for n in range(6, 10)),
    (("two-page", "--n", "12", "--outer", "1,4"),
     '{"convex":true,"method":"triangles","witness":null}'),
    (("random", "--n", "9", "--seed", "4"), '{"convex":true,"method":"triangles","witness":null}'),
    ("fan", '{"convex":true,"method":"triangles","witness":null}'),
], ids=["twisted6", "twisted7", "twisted8", "twisted9", "two-page12", "random9", "fan12"])
def test_check_convex_triangles_stdout(capsys, tmp_path, drawing, expected):
    # Stdout as printed by the per-triangle loop the blocked pass replaced.
    if drawing == "fan":
        text = io.dumps_drawing(permuted_fan(12, 2, random.Random(4)))
    else:
        text = run(capsys, "gen", *drawing)[1]
    dfile = tmp_path / "d.json"
    dfile.write_text(text)
    code, out, err = run(capsys, "check-convex", "--in", str(dfile), "--method", "triangles")
    assert code == 0
    assert out.strip() == expected
    n = json.loads(text)["n"]
    if json.loads(out)["convex"]:
        # Every triangle: three rows over the off pairs, three corner rows.
        assert manifest_of(err)["oracle_queries"] == comb(n, 3) * (
            3 * comb(n - 3, 2) + 3 * (n - 3))


@pytest.mark.parametrize("gen, method, queries", [
    (("random", "--n", "80", "--seed", "1"), "geometric", 0),
    (("two-page", "--n", "9", "--outer", "1,4"), "triangles", comb(9, 3) * (3 * comb(6, 2) + 3 * 6)),
    (("twisted", "--n", "6"), "triangles", None),
], ids=["random80", "two-page9", "twisted6"])
def test_check_convex_default_method(capsys, tmp_path, gen, method, queries):
    # With no --method, a drawing with points is convex by definition and
    # asks nothing, at any n; an abstract drawing takes the triangle pass,
    # with the stdout of --method triangles.
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", *gen)[1])
    code, out, err = run(capsys, "check-convex", "--in", str(dfile))
    assert code == 0
    assert json.loads(out)["method"] == method
    if queries is not None:
        assert json.loads(out) == {"convex": True, "method": method, "witness": None}
        assert manifest_of(err)["oracle_queries"] == queries
    if method == "triangles":
        assert run(capsys, "check-convex", "--in", str(dfile), "--method", method)[1] == out


def test_manifest_shape(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "random", "--n", "7", "--seed", "2")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    _, _, err = run(capsys, "find", "star-hc", "--in", str(dfile), "--star", "3")
    m = manifest_of(err)
    assert set(m) == {
        "command",
        "input_hash",
        "seeds",
        "versions",
        "timing_ms",
        "oracle_queries",
    }
    assert m["command"][0] == "find"
    assert len(m["input_hash"]) == 64
    assert m["oracle_queries"] > 0
    assert "convexham" in m["versions"]


def test_usage_error_missing_endpoint(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, err = run(capsys, "find", "st-path", "--in", str(dfile), "--s", "1")
    assert code == 2 and out == ""
    usage, manifest = err.strip().splitlines()
    assert usage == "usage error: st-path needs --s and --t"
    m = json.loads(manifest)
    assert m["command"][:2] == ["find", "st-path"]
    assert len(m["input_hash"]) == 64
    assert m["oracle_queries"] == 0


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_max_plane_trials(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "8")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "max-plane", "--in", str(dfile), "--trials", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 13
    assert obj["trial_sizes"] == [13] * 5
    assert len(obj["edges"]) == 13


def test_max_plane_negative_trials_is_usage_error(capsys, tmp_path):
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", "convex-position", "--n", "6")[1])
    with pytest.raises(SystemExit) as exc:
        main(["max-plane", "--in", str(dfile), "--trials", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials" in captured.err


def test_max_plane_refuses_twisted(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "max-plane", "--in", str(dfile))
    assert code == 1
    assert json.loads(out)["error"] == "NotConvex"


def test_max_plane_refuses_by_five_sets(capsys, tmp_path, monkeypatch):
    def refuse(_d):
        raise AssertionError("triangle method called")

    monkeypatch.setattr(convexity, "find_nonconvex_triangle", refuse)
    monkeypatch.setattr(cli, "find_nonconvex_triangle", refuse)
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "40")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "max-plane", "--in", str(dfile))
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "NotConvex"
    assert "5-set (1, 2, 3, 4, 5) is of class V" in obj["message"]


def test_max_plane_certificates_from_find_and_seed_cycle(capsys, tmp_path):
    # find max-plane, with and without --seed-cycle, and max-plane
    # --seed-cycle each emit a verifiable maximal plane certificate; a
    # seeded one contains every edge of find hc's cycle.
    n = 9
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", "random", "--n", str(n), "--seed", "6")[1])
    _, hc, _ = run(capsys, "find", "hc", "--in", str(dfile))
    cycle = {tuple(e) for e in json.loads(hc)["edges"]}
    certs = {
        "find": json.loads(run(capsys, "find", "max-plane", "--in", str(dfile))[1]),
        "find seeded": json.loads(
            run(capsys, "find", "max-plane", "--seed-cycle", "--in", str(dfile))[1]),
        "max-plane seeded": json.loads(
            run(capsys, "max-plane", "--seed-cycle", "--in", str(dfile))[1])["certificate"],
    }
    for name, cert in certs.items():
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify", "--in", str(dfile), "--cert", str(cfile))
        assert code == 0 and json.loads(out)["verified"], name
        assert cert["claims"] == {"plane": True, "maximal_plane": True}, name
        assert len(cert["edges"]) >= 2 * n - 3, name
        if "seeded" in name:
            assert cycle <= {tuple(e) for e in cert["edges"]}, name


def test_render_outputs_svg(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "random", "--n", "6", "--seed", "5")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "render", "--in", str(dfile))
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<circle") == 6


def test_render_abstract_drawing_fails(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "5")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, _ = run(capsys, "render", "--in", str(dfile))
    assert code == 1
    assert json.loads(out)["error"] == "NoCoordinates"


def test_verify_rejects_lying_certificate(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    _, cert, _ = run(capsys, "find", "st-path", "--in", str(dfile), "--s", "1", "--t", "4")
    obj = json.loads(cert)
    obj["claims"]["endpoints"] = [2, 5]
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--in", str(dfile), "--cert", str(cfile))
    assert code == 1
    res = json.loads(out)
    assert res["error"] == "CertificateError"
    assert res["failed"] == ["endpoints"]


def test_verify_fails_empty_side_of_crossing_cycle(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    cert = {"kind": "cycle", "vertices": [1, 3, 2, 4, 5, 6],
            "edges": [[1, 3], [2, 3], [2, 4], [4, 5], [5, 6], [1, 6]],
            "claims": {"plane": True, "empty_side": True}}
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", "--in", str(dfile), "--cert", str(cfile))
    assert code == 1
    res = json.loads(out)
    assert res["error"] == "CertificateError"
    assert res["failed"] == ["empty_side", "plane"]


def test_find_reads_stdin(capsys, monkeypatch):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "6")
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(drawing))
    code, out, _ = run(capsys, "find", "empty-cycle", "--k", "3", "--star", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "cycle"
    assert len(obj["vertices"]) == 3


def test_highlight_certificate_from_stdin(capsys, monkeypatch, tmp_path):
    _, drawing, _ = run(capsys, "gen", "random", "--n", "7", "--seed", "0")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    _, cert, _ = run(capsys, "find", "hc", "--in", str(dfile))
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(cert))
    code, out, _ = run(capsys, "render", "--in", str(dfile), "--highlight", "-")
    assert code == 0
    assert out.count('class="edge hl"') == 7


def _assert_domain_error(code, out, err, name):
    assert code == 1
    assert json.loads(out)["error"] == name
    assert manifest_of(err)["command"]


def test_self_loop_crossing_is_format_error(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "twisted", "--n", "5")
    obj = json.loads(drawing)
    obj["crossings"] = [[[1, 1], [2, 3]]]
    dfile = tmp_path / "d.json"
    dfile.write_text(json.dumps(obj))
    _assert_domain_error(*run(capsys, "find", "hc", "--in", str(dfile)), "FormatError")


@pytest.mark.parametrize("crossings", [
    [[[1, 2], [2, 3]]],  # adjacent edges
    [[[1, 2], [3, 4]], [[1, 3], [2, 4]]],  # two crossings in one K4
    [[[1, 2], [3, 9]]],  # a label out of range
], ids=["adjacent", "k4", "out-of-range"])
def test_crossing_list_the_rotations_cannot_fix_is_format_error(capsys, tmp_path, crossings):
    _, drawing, _ = run(capsys, "gen", "two-page", "--n", "6", "--outer", "1,4")
    obj = json.loads(drawing)
    obj["crossings"] = crossings
    dfile = tmp_path / "d.json"
    dfile.write_text(json.dumps(obj))
    _assert_domain_error(*run(capsys, "find", "hc", "--in", str(dfile)), "FormatError")


def test_boolean_rotation_label_is_format_error(capsys, tmp_path):
    dfile = tmp_path / "d.json"
    dfile.write_text('{"n": 3, "rotations": [[2, 3], [1, 3], [true, 2]]}')
    _assert_domain_error(*run(capsys, "find", "hc", "--in", str(dfile)), "FormatError")


def test_star_out_of_range_is_domain_error(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "1")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    code, out, err = run(capsys, "find", "star-hc", "--in", str(dfile), "--star", "99")
    _assert_domain_error(code, out, err, "VertexOutOfRange")


def test_malformed_claim_is_format_error(capsys, tmp_path):
    _, drawing, _ = run(capsys, "gen", "convex-position", "--n", "6")
    dfile = tmp_path / "d.json"
    dfile.write_text(drawing)
    _, cert, _ = run(capsys, "find", "st-path", "--in", str(dfile), "--s", "1", "--t", "4")
    obj = json.loads(cert)
    obj["claims"]["endpoints"] = 5
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--in", str(dfile), "--cert", str(cfile))
    _assert_domain_error(code, out, err, "FormatError")


def test_gen_two_page_outer_edge_out_of_range_is_domain_error(capsys):
    _assert_domain_error(*run(capsys, "gen", "two-page", "--n", "5", "--outer", "1,7"),
                         "VertexOutOfRange")


def _assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("usage error: edge joins a vertex to itself")


def test_gen_two_page_self_loop_outer_edge_is_usage_error(capsys):
    _assert_usage_error(*run(capsys, "gen", "two-page", "--n", "5", "--outer", "2,2"))


def test_find_edge_path_self_loop_is_usage_error(capsys, tmp_path):
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", "convex-position", "--n", "6")[1])
    _assert_usage_error(*run(capsys, "find", "edge-path", "--in", str(dfile), "--edge", "2,2"))


def test_find_two_edge_path_self_loop_is_usage_error(capsys, tmp_path):
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", "random", "--n", "7", "--seed", "0")[1])
    _assert_usage_error(*run(capsys, "find", "two-edge-path", "--in", str(dfile),
                             "--edges", "1,1;2,3"))


def test_gen_twisted_past_table_limit_is_domain_error(capsys):
    _assert_domain_error(*run(capsys, "gen", "twisted", "--n", "2000"), "TooLarge")


@pytest.mark.parametrize("n, seed", [(8, 1), (11, 4)])
def test_find_two_edge_path_counts_its_queries(capsys, tmp_path, n, seed):
    d = generators.random_geometric(n, seed)
    raw = io.dumps_drawing(d)
    dfile = tmp_path / "d.json"
    dfile.write_text(raw)
    e, f = (1, 2), next((a, b) for a in range(3, n) for b in range(a + 1, n + 1)
                        if not d.crosses((1, 2), (a, b)))
    code, out, err = run(capsys, "find", "two-edge-path", "--in", str(dfile),
                         "--edges", f"{e[0]},{e[1]};{f[0]},{f[1]}")
    assert code == 0
    pts = [d.points[v] for v in range(1, n + 1)]
    assert out == io.dumps_certificate(geometric_path_with_two_edges(pts, e, f)) + "\n"
    view, counter = instrumented(io.loads_drawing(raw))
    _two_edge_path(view, e, f, True)
    assert manifest_of(err)["oracle_queries"] == counter.count > 0


@pytest.mark.parametrize("kind, argv, code, message", [
    ("convex-position", ["find", "edge-path", "--edge", "1,2,3"], 2,
     "expected an edge like 'u,v', got '1,2,3'"),
    ("convex-position", ["find", "edge-path", "--edge", "a,b"], 2,
     "edge endpoints must be integers, got 'a,b'"),
    ("convex-position", ["find", "star-hc"], 2, "star-hc needs --star"),
    ("convex-position", ["find", "empty-cycle", "--star", "1"], 2,
     "empty-cycle needs --k and --star"),
    ("convex-position", ["find", "edge-path"], 2, "edge-path needs --edge u,v"),
    ("convex-position", ["find", "two-edge-path"], 2, "two-edge-path needs --edges u,v;x,y"),
    ("convex-position", ["find", "two-edge-path", "--edges", "1,2;3,4;5,6"], 2,
     "expected exactly two edges, got 3"),
    ("convex-position", ["verify"], 2,
     "verify needs --cert FILE (drawing comes from --in or stdin)"),
    ("two-page", ["find", "two-edge-path", "--edges", "1,2;3,4"], 1,
     "two-edge-path needs a drawing with coordinates"),
])
def test_command_errors_exit_with_their_kind(capsys, tmp_path, kind, argv, code, message):
    # A usage error exits 2 with nothing on stdout; a domain error exits 1
    # with its error JSON on stdout.  Either way the manifest ends stderr.
    dfile = tmp_path / "d.json"
    dfile.write_text(run(capsys, "gen", kind, "--n", "6")[1])
    got, out, err = run(capsys, *argv, "--in", str(dfile))
    assert got == code
    if code == 2:
        assert out == "" and err.startswith(f"usage error: {message}\n")
    else:
        assert json.loads(out) == {"error": "NoCoordinates", "message": message}
    assert manifest_of(err)["command"] == [*argv, "--in", str(dfile)]
