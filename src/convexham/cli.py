"""Command-line surface: generate, check, construct, verify, render.

Drawings and certificates travel as JSON on stdin/stdout so commands compose
into shell pipelines; files only enter via explicit flags.  Every run that
gets past argument parsing writes a manifest (command, input hash, seeds,
versions, timing, oracle query count) to stderr, after the usage line of a
usage error, keeping stdout byte-reproducible for equal inputs.

Exit codes: 0 ok, 1 domain error (structured JSON on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import time

from . import __version__, io
from .drawing import instrumented
from .errors import (
    CertificateError,
    DrawingError,
    NoCoordinates,
    NotConvexEvidence,
)

# The modules a command runs beyond those every command uses, imported
# above; keyed by command, or by "find TASK" where a task needs more than
# `find`'s own.  main loads them before it starts the clock of timing_ms.
_RUNS = {
    "gen": ("generators",),
    "check-convex": ("convexity",),
    "find": ("hamiltonian",),
    "find max-plane": ("hamiltonian", "subdrawings"),
    "max-plane": ("convexity", "hamiltonian", "subdrawings"),
    "verify": ("oracle",),
    "render": ("render",),
}


class UsageError(Exception):
    pass


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _parse_edge(text):
    parts = text.replace("-", ",").split(",")
    if len(parts) != 2:
        raise UsageError(f"expected an edge like 'u,v', got {text!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"edge endpoints must be integers, got {text!r}") from None
    if u == v:
        raise UsageError(f"edge joins a vertex to itself: {text!r}")
    return (u, v)


def _count(text):
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_edges(text):
    return tuple(_parse_edge(part) for part in text.split(";") if part)


def _read_input(args):
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _load_drawing(args, manifest):
    raw = _read_input(args)
    manifest["input_hash"] = hashlib.sha256(raw.encode()).hexdigest()
    view, counter = instrumented(io.loads_drawing(raw))
    manifest["_counter"] = counter
    return view


def _load_certificate(path):
    if path == "-":
        return io.loads_certificate(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return io.loads_certificate(fh.read())


# ---------------------------------------------------------------- commands


def cmd_gen(args, manifest):
    from . import generators

    if args.kind == "convex-position":
        d = generators.convex_position(args.n)
    elif args.kind == "twisted":
        d = generators.twisted(args.n)
    elif args.kind == "random":
        if args.seed is None:
            raise UsageError("gen random needs --seed")
        manifest["seeds"] = [args.seed]
        d = generators.random_geometric(args.n, args.seed)
    else:
        outer = _parse_edges(args.outer) if args.outer else ()
        d = generators.two_page(args.n, outer)
    return io.dumps_drawing(d)


def cmd_check_convex(args, manifest):
    from .convexity import find_nonconvex_k5, find_nonconvex_triangle

    d = _load_drawing(args, manifest)
    method = args.method
    if method is None:
        # A straight-line drawing is convex by definition: no query.
        method = "geometric" if d.points is not None else "triangles"
    bad = witness = None
    if method == "triangles":
        bad = find_nonconvex_triangle(d)
        if bad is not None:
            witness = {
                "triangle": list(bad.triangle),
                "violation_a": io._jsonify(bad.violation_a),
                "violation_b": io._jsonify(bad.violation_b),
            }
    elif method == "k5":
        bad = find_nonconvex_k5(d)
        if bad is not None:
            witness = {"vertices": list(bad.vertices), "class": bad.k5_class.name}
    return _dumps({"convex": bad is None, "method": method, "witness": witness})


def cmd_find(args, manifest):
    from .hamiltonian import (
        _two_edge_path,
        empty_k_cycle,
        hamiltonian_cycle,
        path_containing_edge,
        st_hamiltonian_path,
        star_avoiding_hamiltonian_cycle,
    )
    from .oracle import verify_certificate

    d = _load_drawing(args, manifest)
    verify = not args.no_verify
    task = args.task
    if task == "hc":
        cert = hamiltonian_cycle(d, verify=verify)
    elif task == "st-path":
        if args.s is None or args.t is None:
            raise UsageError("st-path needs --s and --t")
        cert = st_hamiltonian_path(d, args.s, args.t, verify=verify)
    elif task == "star-hc":
        if args.star is None:
            raise UsageError("star-hc needs --star")
        cert = star_avoiding_hamiltonian_cycle(d, args.star, verify=verify)
    elif task == "empty-cycle":
        if args.k is None or args.star is None:
            raise UsageError("empty-cycle needs --k and --star")
        cert = empty_k_cycle(d, args.k, args.star, verify=verify)
    elif task == "edge-path":
        if args.edge is None:
            raise UsageError("edge-path needs --edge u,v")
        cert = path_containing_edge(d, _parse_edge(args.edge), verify=verify)
    elif task == "two-edge-path":
        if args.edges is None:
            raise UsageError("two-edge-path needs --edges u,v;x,y")
        e, e2 = _require_two(_parse_edges(args.edges))
        if d.points is None:
            raise NoCoordinates("two-edge-path needs a drawing with coordinates")
        cert = _two_edge_path(d, e, e2, verify)
    else:  # max-plane as a find task: certificate only, pipeable into verify
        cert = _max_plane_sub(d, args).certificate()
        if verify:
            cert = verify_certificate(d, cert)
    return io.dumps_certificate(cert)


def _require_two(edges):
    if len(edges) != 2:
        raise UsageError(f"expected exactly two edges, got {len(edges)}")
    return edges


def _max_plane_sub(d, args):
    from .hamiltonian import hamiltonian_cycle
    from .subdrawings import extend_cycle, greedy_maximal_plane

    if getattr(args, "seed_cycle", False):
        return extend_cycle(d, hamiltonian_cycle(d, verify=False))
    return greedy_maximal_plane(d)


def cmd_max_plane(args, manifest):
    import random

    from .convexity import require_convex
    from .drawing import all_edges
    from .oracle import verify_certificate
    from .subdrawings import greedy_maximal_plane

    d = _load_drawing(args, manifest)
    require_convex(d)
    sub = _max_plane_sub(d, args)
    out = {
        "size": len(sub),
        "edges": [list(e) for e in sorted(sub.edges)],
        "certificate": io.certificate_to_json(verify_certificate(d, sub.certificate())),
    }
    if args.trials:
        sizes = []
        for i in range(args.trials):
            order = all_edges(d.n)
            random.Random(i).shuffle(order)
            sizes.append(len(greedy_maximal_plane(d, order=order)))
        out["trial_sizes"] = sizes
        assert len(set(sizes)) == 1 and sizes[0] == out["size"], sizes
    return _dumps(out)


def cmd_verify(args, manifest):
    from .oracle import verify_certificate

    d = _load_drawing(args, manifest)
    if args.certfile:
        cert = _load_certificate(args.certfile)
    else:
        raise UsageError("verify needs --cert FILE (drawing comes from --in or stdin)")
    cert = verify_certificate(d, cert)
    claims = {k: io._jsonify(v) for k, v in cert.claims.items()}
    return _dumps({"verified": True, "kind": cert.kind, "claims": claims})


def cmd_render(args, manifest):
    from .render import render_svg

    d = _load_drawing(args, manifest)
    highlight = _load_certificate(args.highlight) if args.highlight else None
    return render_svg(d, highlight=highlight)


# ---------------------------------------------------------------- wiring


def _error_json(exc):
    obj = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NotConvexEvidence):
        obj["which"] = exc.which
        obj["vertices"] = list(exc.vertices)
        obj["detail"] = exc.detail
    if isinstance(exc, CertificateError):
        obj["failed"] = list(exc.failed)
    return obj


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexham",
        description="Plane Hamiltonian structures in convex drawings of complete graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a drawing as JSON on stdout")
    p.add_argument("kind", choices=["convex-position", "twisted", "random", "two-page"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, help="for kind=random")
    p.add_argument("--outer", help="for kind=two-page: edges routed outside, 'u,v;x,y'")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-convex", help="convexity verdict with witness")
    p.add_argument("--in", dest="infile", help="drawing JSON file (default stdin)")
    p.add_argument("--method", choices=["triangles", "k5"],
                   help="default: triangles, or no pass (method geometric) on a drawing "
                   "with points, which is convex by definition")
    p.set_defaults(func=cmd_check_convex)

    p = sub.add_parser("find", help="construct a certificate")
    p.add_argument(
        "task",
        choices=[
            "hc", "st-path", "star-hc", "empty-cycle",
            "edge-path", "two-edge-path", "max-plane",
        ],
    )
    p.add_argument("--in", dest="infile", help="drawing JSON file (default stdin)")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--star", type=int, help="star vertex")
    p.add_argument("--k", type=int, help="cycle length for empty-cycle")
    p.add_argument("--edge", help="edge 'u,v' for edge-path")
    p.add_argument("--edges", help="two edges 'u,v;x,y' for two-edge-path")
    p.add_argument("--seed-cycle", action="store_true", dest="seed_cycle",
                   help="for max-plane: extend a Hamiltonian cycle")
    p.add_argument("--no-verify", action="store_true",
                   help="skip oracle verification (timing runs)")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("max-plane", help="maximal plane subdrawing (convex input only)")
    p.add_argument("--in", dest="infile", help="drawing JSON file (default stdin)")
    p.add_argument("--seed-cycle", action="store_true", dest="seed_cycle")
    p.add_argument("--trials", type=_count, default=0,
                   help="re-run with k random greedy orders; sizes must agree")
    p.set_defaults(func=cmd_max_plane)

    p = sub.add_parser("verify", help="re-check a certificate against a drawing")
    p.add_argument("--in", dest="infile", help="drawing JSON file (default stdin)")
    p.add_argument("--cert", dest="certfile", help="certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="SVG of a geometric drawing")
    p.add_argument("--in", dest="infile", help="drawing JSON file (default stdin)")
    p.add_argument("--highlight", help="certificate JSON file to highlight")
    p.set_defaults(func=cmd_render)

    return parser


def _versions():
    import numpy

    return {
        "convexham": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for mod in _RUNS.get(f"{args.cmd} {getattr(args, 'task', '')}", _RUNS[args.cmd]):
        importlib.import_module(f"{__package__}.{mod}")
    manifest = {
        "command": list(argv) if argv is not None else sys.argv[1:],
        "input_hash": None,
        "seeds": [],
        "versions": _versions(),
    }
    t0 = time.perf_counter()
    payload = None
    try:
        payload = args.func(args, manifest)
        code = 0
    except UsageError as exc:
        # No stdout; the usage line comes first on stderr, then the manifest.
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except DrawingError as exc:
        payload = _dumps(_error_json(exc))
        code = 1
    manifest["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    counter = manifest.pop("_counter", None)
    manifest["oracle_queries"] = None if counter is None else counter.count
    if payload is not None:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    print(_dumps(manifest), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
