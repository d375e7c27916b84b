"""The four benchmark workloads.

A workload has a `setup(seed)` that builds the untimed inputs from the seed
alone, and a `run_round(state, i, ctx)` that performs the round's timed
operations, records their samples in `ctx` and checks every output.  The
library only ever sees the generated inputs.

Every timed library operation starts from a fresh Drawing: `instrumented`
shares the rotation cache of the drawing it wraps, so reusing one drawing
would time rotations an earlier operation already computed.  Geometric
drawings are renewed by an identity `relabel` (which skips the
general-position check); explicit drawings store their rotations as data
and have no cache to warm.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import convexham
from convexham import io as chio
from convexham.drawing import relabel, same_drawing
from convexham.errors import NotConvexEvidence

clock = time.perf_counter

GEO_N = 2000
HULL_N = 300
HULL_SETS = 24
CLI_N = 1000
ABSTRACT_N = 40
CHECK_N = 18
K5_N = 12
OUTER = ((1, 4),)
# At n = 5 hamiltonian_cycle legitimately returns a verified cycle of the
# twisted drawing; from n = 6 on every construction must refuse it.
TWISTED_NS = (6, 7, 8, 9)


def child_env(root):
    """Environment for a child interpreter that imports the checkout's sources."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cert_json(cert):
    # Same bytes as io.dumps_certificate, without passing through the traced
    # io layer: the digest is the benchmark's work, not the program's.
    return json.dumps(chio.certificate_to_json(cert), separators=(",", ":"), sort_keys=True)


def timed_certificate(ctx, key, drawing, build, claims_ok):
    """Build (verify=False) then verify one certificate on a counted view."""
    view, counter = convexham.instrumented(drawing)
    t0 = clock()
    cert = build(view)
    t1 = clock()
    build_q = counter.count
    verified = convexham.verify_certificate(view, cert)
    t2 = clock()
    verify_q = counter.count - build_q
    ctx.sample("build_s", t1 - t0)
    ctx.sample("verify_s", t2 - t1)
    ctx.sample("cert_s", t2 - t0)
    ctx.sample("build_queries", build_q)
    ctx.sample("verify_queries", verify_q)
    ctx.output(key, build_q, verify_q, cert_json(verified))
    return verified.oracle_verified and claims_ok(verified)


def hamiltonian_over(cert, n):
    return sorted(cert.vertices) == list(range(1, n + 1)) and cert.claims.get("hamiltonian") is True


def fresh_geometric(d):
    return relabel(d, list(range(1, d.n + 1)))


def convex_hull(points):
    """Labels of the hull vertices of a 1-indexed point tuple (monotone chain)."""
    pts = sorted((p, i) for i, p in enumerate(points[1:], 1))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p, i in seq:
            while len(out) >= 2 and turn(out[-2][0], out[-1][0], p) <= 0:
                out.pop()
            out.append((p, i))
        return out[:-1]

    return [i for _p, i in chain(pts) + chain(reversed(pts))]


# ---------------------------------------------------------------- geo-star-hc


class GeoStarHC:
    name = "geo-star-hc"
    round_names = ("round_s",)

    def setup(self, seed):
        d = convexham.random_geometric(GEO_N, seed)
        rng = random.Random(seed)
        return {"d": d, "hubs": [rng.randint(1, GEO_N) for _ in range(256)]}

    def run_round(self, st, i, ctx):
        hub = st["hubs"][i % len(st["hubs"])]
        fresh = fresh_geometric(st["d"])

        def op():
            return timed_certificate(
                ctx, f"hub={hub}", fresh,
                lambda v: convexham.star_avoiding_hamiltonian_cycle(v, hub, verify=False),
                lambda c: c.kind == "cycle" and c.claims.get("star_avoiding") == hub
                and c.claims.get("plane") is True and hamiltonian_over(c, GEO_N),
            )

        ctx.op(f"star-hc hub={hub}", op)


# ---------------------------------------------------------------- hull-st-path


class HullSTPath:
    name = "hull-st-path"
    round_names = ("round_s",)

    def setup(self, seed):
        # Query counts vary far more between point sets than between
        # endpoint pairs on one set, so rounds rotate over several sets.
        rng = random.Random(seed)
        sets = []
        for _ in range(HULL_SETS):
            d = convexham.random_geometric(HULL_N, rng.randrange(2**31))
            sets.append((d, convex_hull(d.points)))
        rounds = []
        for i in range(256):
            d, hull = sets[i % HULL_SETS]
            t = rng.choice(hull)
            s = rng.randint(1, HULL_N - 1)
            rounds.append((d, s if s < t else s + 1, t))
        return {"rounds": rounds}

    def run_round(self, st, i, ctx):
        d, s, t = st["rounds"][i % len(st["rounds"])]
        fresh = fresh_geometric(d)

        def op():
            return timed_certificate(
                ctx, f"set={i % HULL_SETS},s={s},t={t}", fresh,
                lambda v: convexham.st_hamiltonian_path(v, s, t, verify=False),
                lambda c: c.kind == "path" and c.vertices[0] == s and c.vertices[-1] == t
                and tuple(c.claims.get("endpoints", ())) == (s, t)
                and c.claims.get("plane") is True and hamiltonian_over(c, HULL_N),
            )

        ctx.op(f"st-path set={i % HULL_SETS} s={s} t={t}", op)


# ---------------------------------------------------------------- cli-pipeline


class CLIPipeline:
    """`gen random | find hc | verify` as three processes run one after another."""

    name = "cli-pipeline"
    round_names = ("round_s", "pipeline_s")

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)

    def setup(self, seed):
        rng = random.Random(seed)
        return {"seeds": [rng.randrange(2**31) for _ in range(256)]}

    def _run(self, ctx, args, out_path, tag):
        """One CLI command; returns (exit code, manifest dict, wall seconds)."""
        trace_path = os.path.join(self.workdir, f"trace-{tag}.json")
        if ctx.tracer is not None:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "traced_cli.py"),
                   trace_path, repr(time.time()), *args]
        else:
            cmd = [sys.executable, "-m", "convexham", *args]
        with open(out_path, "wb") as out:
            t0 = clock()
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, cwd=self.root,
                                  env=self.env, check=False)
            wall = clock() - t0
            t_reaped = time.time()
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        try:
            manifest = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            manifest = {}
        if proc.returncode != 0:
            ctx.note(f"{args[0]} exited {proc.returncode}: {lines[-3:]}")
        if ctx.tracer is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(trace_path)
            startup = child["t_main_start"] - child["t_spawn"]
            exit_s = t_reaped - child["t_main_end"]
            ctx.tracer.add_span("process.startup", startup)
            ctx.tracer.add_span("process.exit", exit_s)
            ctx.tracer.merge(child["stats"], child["counts"], child["main_s"])
            ctx.child_spans.extend(child["spans"])
        return proc.returncode, manifest, wall

    def run_round(self, st, i, ctx):
        gseed = st["seeds"][i % len(st["seeds"])]
        d_path = os.path.join(self.workdir, "drawing.json")
        c_path = os.path.join(self.workdir, "cert.json")
        v_path = os.path.join(self.workdir, "verify.json")

        def op():
            # A checkpoint after each command scales its time by the machine
            # speed measured right around it.
            code_g, _m, gen_s = self._run(ctx, ["gen", "random", "--n", str(CLI_N),
                                                "--seed", str(gseed)], d_path, "gen")
            ctx.sample("gen_s", gen_s)
            ctx.checkpoint()
            code_f, m_find, find_s = self._run(ctx, ["find", "hc", "--in", d_path], c_path, "find")
            ctx.sample("find_s", find_s)
            ctx.sample("cert_s", find_s)
            ctx.checkpoint()
            code_v, m_ver, verify_s = self._run(ctx, ["verify", "--in", d_path,
                                                      "--cert", c_path], v_path, "verify")
            ctx.sample("verify_s", verify_s)
            if (code_g, code_f, code_v) != (0, 0, 0):
                return False
            with open(c_path, encoding="utf-8") as fh:
                cert_text = fh.read().strip()
            with open(v_path, encoding="utf-8") as fh:
                verdict = json.loads(fh.read())
            cert = json.loads(cert_text)
            find_q = m_find["oracle_queries"]
            verify_q = m_ver["oracle_queries"]
            ctx.sample("json_mb", os.path.getsize(d_path) / 1e6)
            # `find` verifies on the same counted view that `verify` re-counts.
            ctx.sample("build_queries", find_q - verify_q)
            ctx.sample("verify_queries", verify_q)
            ctx.output(f"gen-seed={gseed}", find_q - verify_q, verify_q, cert_text)
            return (verdict.get("verified") is True and cert.get("kind") == "cycle"
                    and cert.get("oracle_verified") is True
                    and sorted(cert.get("vertices", [])) == list(range(1, CLI_N + 1))
                    and cert.get("claims") == {"hamiltonian": True, "plane": True})

        ctx.op(f"pipeline gen-seed={gseed}", op)


# ---------------------------------------------------------------- abstract-two-page


class AbstractTwoPage:
    name = "abstract-two-page"
    round_names = ("round_s",)

    def setup(self, seed):
        rng = random.Random(seed)

        def permuted(d):
            perm = list(range(1, d.n + 1))
            rng.shuffle(perm)
            return relabel(d, perm)

        base = convexham.two_page(ABSTRACT_N, OUTER)
        d = permuted(base)
        return {
            "gen_text": convexham.dumps_drawing(base),
            "d": d,
            "text": convexham.dumps_drawing(d),
            "check": permuted(convexham.two_page(CHECK_N, OUTER)),
            "k5": permuted(convexham.two_page(K5_N, OUTER)),
            "twisted": {n: convexham.twisted(n) for n in TWISTED_NS},
        }

    def run_round(self, st, i, ctx):
        n = ABSTRACT_N
        loaded = {}

        def gen():
            t0 = clock()
            text = convexham.dumps_drawing(convexham.two_page(n, OUTER))
            ctx.sample("gen_s", clock() - t0)
            return text == st["gen_text"]

        def load():
            t0 = clock()
            loaded["d"] = convexham.loads_drawing(st["text"])
            ctx.sample("load_s", clock() - t0)
            return same_drawing(loaded["d"], st["d"])

        # Checkpoints split the round into segments of a second or less (the
        # star-hc certificates into five), so each segment's times are scaled
        # by the machine speed measured right around it.
        ctx.op("gen two-page", gen)
        ctx.checkpoint()
        ctx.op("load two-page", load)
        ctx.checkpoint()
        d = loaded.get("d", st["d"])
        for hub in range(1, n + 1):
            ctx.op(f"star-hc hub={hub}", lambda hub=hub: timed_certificate(
                ctx, f"star-hc hub={hub}", d,
                lambda v: convexham.star_avoiding_hamiltonian_cycle(v, hub, verify=False),
                lambda c: c.kind == "cycle" and c.claims.get("star_avoiding") == hub
                and c.claims.get("plane") is True and hamiltonian_over(c, n),
            ))
            if hub % 8 == 0:
                ctx.checkpoint()
        ctx.op("hc", lambda: timed_certificate(
            ctx, "hc", d,
            lambda v: convexham.hamiltonian_cycle(v, verify=False),
            lambda c: c.kind == "cycle" and c.claims.get("plane") is True and hamiltonian_over(c, n),
        ))
        ctx.checkpoint()
        ctx.op("max-plane", lambda: timed_certificate(
            ctx, "max-plane", d,
            lambda v: convexham.greedy_maximal_plane(v).certificate(),
            lambda c: c.claims.get("maximal_plane") is True and len(c.edges) >= 2 * n - 3,
        ))

        def check():
            view, _counter = convexham.instrumented(st["check"])
            t0 = clock()
            witness = convexham.find_nonconvex_triangle(view)
            ctx.sample("check_s", clock() - t0)
            return witness is None

        def cross_check():
            t0 = clock()
            by_triangles = convexham.find_nonconvex_triangle(st["k5"])
            by_k5 = convexham.find_nonconvex_k5(st["k5"])
            ctx.sample("check_k5_s", clock() - t0)
            return by_triangles is None and by_k5 is None

        ctx.checkpoint()
        ctx.op(f"convexity n={CHECK_N}", check)
        ctx.checkpoint()
        ctx.op(f"convexity cross-check n={K5_N}", cross_check)
        ctx.checkpoint()
        for m, tw in st["twisted"].items():
            refusals = [lambda hub=hub: convexham.star_avoiding_hamiltonian_cycle(tw, hub)
                        for hub in range(1, m + 1)]
            refusals.append(lambda: convexham.hamiltonian_cycle(tw))
            for k, build in enumerate(refusals):
                ctx.op(f"twisted({m}) refusal {k}", lambda build=build: refuses(build))
            ctx.op(f"twisted({m}) witness", lambda tw=tw: (
                convexham.find_nonconvex_k5(tw) is not None
                and convexham.find_nonconvex_triangle(tw) is not None))


def refuses(build):
    """A negative control succeeds only when the construction raises evidence."""
    try:
        build()
    except NotConvexEvidence:
        return True
    return False


def make(name, root, workdir):
    if name == "cli-pipeline":
        return CLIPipeline(root, workdir)
    return {"geo-star-hc": GeoStarHC, "hull-st-path": HullSTPath,
            "abstract-two-page": AbstractTwoPage}[name]()


NAMES = ("geo-star-hc", "hull-st-path", "cli-pipeline", "abstract-two-page")
