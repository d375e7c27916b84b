#!/usr/bin/env python3
"""convexham benchmark: time to a verified certificate, and oracle queries.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own `src/convexham`, imported
from source.  Load is a closed loop with one client: a single process and
thread (plus, in cli-pipeline, one CLI child at a time) runs rounds back to
back until S seconds have passed.  Every output is checked; a failed check
or an exception counts as a failed operation.

--trace 0 prints the end-to-end metrics; --trace 1 pairs every round with
an untraced run of the same round and prints the per-layer metrics from the
traced one, plus the tracing overhead.  The last stdout line is the JSON
result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SETUP_REPS = 3
clock = time.perf_counter

# Sample series whose median over the run's operations is a gated
# end-to-end metric (`<series>.p50`); each exists on every workload.
END_TO_END = ("round_s", "cert_s", "verify_s", "build_queries", "verify_queries")

# Every sample series the report prints, with its unit.
SERIES_UNITS = {
    "round_s": "s", "cert_s": "s", "build_s": "s", "verify_s": "s",
    "build_queries": "queries", "verify_queries": "queries",
    "gen_s": "s", "load_s": "s", "find_s": "s", "pipeline_s": "s",
    "check_s": "s", "check_k5_s": "s", "json_mb": "MB",
}


class RunContext:
    """Samples, correctness tally and outputs of one run.

    With `scaled`, times are scaled to the reference machine speed by the
    kernel timings that bracket the segment they were taken in; workloads
    end a segment with `checkpoint()`, the run loop after every round.
    """

    def __init__(self, scaled):
        self.scaled = scaled
        self.kernels = [speed.kernel_seconds()] if scaled else []
        self.kernel_s = 0.0  # time spent in the kernel, taken out of round walls
        self.tracer = None
        self.pending = defaultdict(list)  # samples of the segment in progress
        self.samples = defaultdict(list)  # times scaled to the reference speed
        self.raw = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.outputs = {}  # input key -> (build queries, verify queries, cert digest)
        self.repeat_defects = []
        self.digest = hashlib.sha256()
        self.certs = 0
        self.child_spans = []

    def sample(self, name, value):
        # Samples of traced rounds would mix tracing overhead into the
        # end-to-end figures, so only untraced rounds are kept.
        if self.tracer is None:
            self.pending[name].append(value)

    def checkpoint(self):
        """Keep the samples taken since the last checkpoint, times scaled."""
        scale = 1.0
        if self.scaled:
            t0 = clock()
            self.kernels.append(speed.kernel_seconds())
            self.kernel_s += clock() - t0
            scale = speed.scale(self.kernels[-2:])
        for name, values in self.pending.items():
            factor = scale if SERIES_UNITS[name] == "s" else 1.0
            self.samples[name].extend(v * factor for v in values)
            self.raw[name].extend(values)
        self.pending.clear()

    def add_round(self, names, wall, first_kernel):
        """Record one round's wall time, scaled by every kernel timing around it."""
        scale = speed.scale(self.kernels[first_kernel:]) if self.scaled else 1.0
        for name in names:
            self.samples[name].append(wall * scale)
            self.raw[name].append(wall)

    def note(self, message):
        if len(self.failures) < 20:
            self.failures.append(message)

    def op(self, what, fn):
        """Run one checked operation; exceptions count as failures."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # boundary: a failed operation must not end the run
            self.failed += 1
            self.note(f"{what}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failed += 1
            self.note(f"{what}: check failed")

    def output(self, key, build_q, verify_q, cert_text):
        cert_digest = hashlib.sha256(cert_text.encode()).hexdigest()
        self.digest.update(cert_text.encode())
        self.certs += 1
        record = [build_q, verify_q, cert_digest]
        prev = self.outputs.get(key)
        if prev is not None and prev[:2] != record[:2]:
            self.repeat_defects.append((key, prev[:2], record[:2]))
        self.outputs[key] = record


def percentile(values, p):
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
    return ordered[int(k)]


def describe(name, values, unit, raw):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    line = f"  {name + '.p50':<24} {statistics.median(values):>14.6g} {unit:<8} n={n}"
    if unit == "s":
        line += f"  raw p50={statistics.median(raw):.6g}"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return line + f"  p{p:g}={percentile(values, p):.6g}"
    return line + "  (no percentile has 10 samples beyond it)"


def import_seconds(statement, env):
    """Median scaled wall time of a fresh interpreter that only imports the package."""
    before = speed.kernel_seconds()
    times = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", statement], env=env, cwd=ROOT, check=True)
        times.append(clock() - t0)
    return statistics.median(times) * speed.scale([before, speed.kernel_seconds()])


def compare_counts(workload, seed, outputs):
    """Exact-count check against earlier runs of this seed and the seed-commit baseline."""
    lines = []
    OUT.joinpath("counts").mkdir(parents=True, exist_ok=True)
    path = OUT / "counts" / f"{workload}-seed{seed}.json"
    prev = json.loads(path.read_text()) if path.exists() else {}
    shared = [k for k in outputs if k in prev]
    count_diff = [k for k in shared if prev[k][:2] != outputs[k][:2]]
    digest_diff = [k for k in shared if prev[k][2] != outputs[k][2]]
    lines.append(f"exact counts vs earlier runs of seed {seed}: {len(shared)} inputs compared, "
                 f"{len(count_diff)} differ")
    for k in count_diff[:5]:
        lines.append(f"  BENCHMARK DEFECT: {k}: queries {prev[k][:2]} before, {outputs[k][:2]} now")
    if digest_diff:
        lines.append(f"  certificate JSON changed for {len(digest_diff)} inputs (reported only)")
    prev.update(outputs)
    path.write_text(json.dumps(prev, sort_keys=True))

    baseline_path = HERE / "baseline_counts.json"
    baseline = json.loads(baseline_path.read_text()).get(workload, {}).get(str(seed), {})
    same = [k for k in outputs if k in baseline and baseline[k] == outputs[k][:2]]
    other = [k for k in outputs if k in baseline and baseline[k] != outputs[k][:2]]
    if baseline:
        lines.append(f"counts vs seed-commit baseline: {len(same)} equal, {len(other)} differ")
    for k in other[:5]:
        lines.append(f"  {k}: seed commit {baseline[k]}, now {outputs[k][:2]}")
    return lines


def layer_metrics(tracer, setup_tracer, pairs):
    """Per-layer metrics from a traced run, each per traced round unless a ratio."""
    from tracing import CALLS, INCL_Q, INCL_S, SELF_Q, SELF_S

    st = tracer.stats
    cnt = tracer.counts
    ops = st["op"][CALLS]

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return per_op(st[name][CALLS])

    def secs(name):
        return per_op(st[name][INCL_S])

    def module_sum(prefix, slot):
        return per_op(sum(v[slot] for k, v in st.items() if k.startswith(prefix)))

    rows = {
        "geometry.ccw_order.calls": (calls("geometry.ccw_order"), "count"),
        "geometry.ccw_order.s": (secs("geometry.ccw_order"), "s"),
        "geometry.assert_general_position.s": (secs("geometry.assert_general_position"), "s"),
        "geometry.cross_pairs.calls": (calls("geometry.cross_pairs"), "count"),
        "geometry.cross_pairs.entries": (per_op(cnt["geometry.cross_pairs.entries"]), "queries"),
        "geometry.cross_pairs.s": (secs("geometry.cross_pairs"), "s"),
        "geometry.exact_fallback_ratio": (ratio(cnt["geometry.exact_fallbacks"],
                                                cnt["geometry.cross_pairs.entries"]), "ratio"),
        "geometry.segments_cross.calls": (calls("geometry.segments_cross"), "count"),
        "geometry.segments_cross.s": (secs("geometry.segments_cross"), "s"),
        "drawing.oracle.scalar_queries": (calls("drawing.explicit_cross")
                                          + calls("drawing.geometric_cross"), "queries"),
        "drawing.oracle.row_queries": (per_op(cnt["drawing.explicit_cross_pairs.entries"]), "queries"),
        "drawing.oracle.mean_row_len": (ratio(cnt["drawing.explicit_cross_pairs.entries"],
                                              st["drawing.explicit_cross_pairs"][CALLS]), "queries"),
        "drawing.explicit_cross_pairs.s": (secs("drawing.explicit_cross_pairs"), "s"),
        "drawing.split_by_triangle.calls": (calls("drawing.split_by_triangle"), "count"),
        "drawing.split_by_triangle.s": (secs("drawing.split_by_triangle"), "s"),
        "drawing.rotation_of.calls": (calls("drawing.rotation_of"), "count"),
        "drawing.rotation_cache_hit_ratio": (ratio(cnt["rotation_hits"], cnt["rotation_lookups"]),
                                             "ratio"),
        "drawing.new_drawing.s": (secs("drawing.new_drawing"), "s"),
        "drawing.triangle_sides.calls": (calls("drawing.triangle_sides"), "count"),
        "drawing.induced_subdrawing.calls": (calls("drawing.induced_subdrawing"), "count"),
        "drawing.induced_subdrawing.s": (secs("drawing.induced_subdrawing"), "s"),
        "io.loads_drawing.s": (secs("io.loads_drawing"), "s"),
        "io.dumps_drawing.s": (secs("io.dumps_drawing"), "s"),
        "io.dumps_drawing.bytes": (per_op(cnt["io.dumps_drawing.bytes"]), "bytes"),
        "io.dumps_certificate.s": (secs("io.dumps_certificate"), "s"),
        "io.loads_certificate.s": (secs("io.loads_certificate"), "s"),
        "starframe.build_star_frame.s": (secs("starframe.build_star_frame"), "s"),
        "starframe.build_star_frame.queries": (per_op(st["starframe.build_star_frame"][INCL_Q]),
                                               "queries"),
        "starframe.bad_edges": (per_op(cnt["starframe.bad_edges"]), "count"),
        "starframe.l_table_entries": (per_op(cnt["starframe.l_table_entries"]), "count"),
        "hamiltonian.self_s": (module_sum("hamiltonian.", SELF_S), "s"),
        "hamiltonian.queries": (module_sum("hamiltonian.", SELF_Q), "queries"),
        "oracle.verify_certificate.s": (secs("oracle.verify_certificate"), "s"),
        "oracle.verify_certificate.queries": (per_op(st["oracle.verify_certificate"][INCL_Q]),
                                              "queries"),
        "oracle.is_plane.calls": (calls("oracle.is_plane"), "count"),
        "oracle.is_plane.s": (secs("oracle.is_plane"), "s"),
        "convexity.find_nonconvex_triangle.s": (secs("convexity.find_nonconvex_triangle"), "s"),
        "convexity.find_nonconvex_triangle.queries": (
            per_op(st["convexity.find_nonconvex_triangle"][INCL_Q]), "queries"),
        "convexity.find_nonconvex_k5.s": (secs("convexity.find_nonconvex_k5"), "s"),
        "convexity.classify_k5.calls": (calls("convexity.classify_k5"), "count"),
        "subdrawings.greedy_maximal_plane.s": (secs("subdrawings.greedy_maximal_plane"), "s"),
        "subdrawings.greedy_maximal_plane.queries": (
            per_op(st["subdrawings.greedy_maximal_plane"][INCL_Q]), "queries"),
        "subdrawings.crossing_degree_order.s": (secs("subdrawings.crossing_degree_order"), "s"),
        "generators.random_geometric.s": (secs("generators.random_geometric"), "s"),
        "generators.two_page.s": (secs("generators.two_page"), "s"),
        "generators.twisted.s": (secs("generators.twisted"), "s"),
        "cli.main.s": (secs("cli.main"), "s"),
        "cli.self_s": (per_op(st["cli.main"][SELF_S]), "s"),
        "process.startup_s": (secs("process.startup"), "s"),
        "process.exit_s": (secs("process.exit"), "s"),
        "setup.generators.s": (sum(v[INCL_S] for k, v in setup_tracer.stats.items()
                                   if k.startswith("generators.")), "s"),
        "setup.geometry.assert_general_position.s": (
            setup_tracer.stats["geometry.assert_general_position"][INCL_S], "s"),
        "trace.ops": (ops, "count"),
        "trace.coverage": (1.0 - ratio(st["op"][SELF_S], st["op"][INCL_S]), "ratio"),
        "trace.overhead_s": (statistics.median(t - u for t, u in pairs), "s"),
        "trace.overhead_ratio": (statistics.median((t - u) / u for t, u in pairs), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}


def layer_table(tracer):
    """Report lines: every traced layer's calls, time, self time and queries per round."""
    from tracing import CALLS, INCL_S, SELF_Q, SELF_S

    st = tracer.stats
    ops = st["op"][CALLS]
    wall = st["op"][INCL_S]
    lines = [f"layers (per traced round; share = self time / round wall time, {ops} rounds):",
             f"  {'layer':<44} {'calls':>10} {'incl_s':>10} {'self_s':>10} {'share':>7} "
             f"{'self_queries':>13}"]
    named = sorted(((k, v) for k, v in st.items() if v[CALLS]), key=lambda kv: -kv[1][SELF_S])
    for name, v in named:
        label = "(benchmark, outside every layer)" if name == "op" else name
        lines.append(f"  {label:<44} {v[CALLS] / ops:>10.1f} {v[INCL_S] / ops:>10.4f} "
                     f"{v[SELF_S] / ops:>10.4f} {v[SELF_S] / wall:>7.1%} {v[SELF_Q] / ops:>13.0f}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "convexham" / "__init__.py").is_file():
        print(f"perfbench: no convexham sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import convexham

    if Path(convexham.__file__).resolve().parent != ROOT / "src" / "convexham":
        print(f"perfbench: imported convexham from {convexham.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return run(args, workloads.make(args.workload, str(ROOT), str(workdir)), tracing,
                   workloads.child_env(str(ROOT)))
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()


def run(args, wl, tracing, env):
    trace = bool(args.trace)
    in_process = wl.name != "cli-pipeline"

    import_s = import_seconds("import convexham" if in_process else "import convexham.cli", env)
    setup_tracer = tracing.Tracer()
    setup_times = []
    kernels = [speed.kernel_seconds()]
    for rep in range(SETUP_REPS):
        traced = trace and in_process and rep == SETUP_REPS - 1
        undo = tracing.install(setup_tracer) if traced else []
        try:
            t0 = clock()
            state = wl.setup(args.seed)
            elapsed = clock() - t0
        finally:
            tracing.uninstall(undo)
        kernels.append(speed.kernel_seconds())
        setup_times.append(elapsed * speed.scale(kernels[-2:]))
    setup_s = import_s + statistics.median(setup_times)

    # Traced runs report raw per-layer times, so they skip the kernel.
    ctx = RunContext(scaled=not trace)
    tracer = tracing.Tracer()
    pairs = []  # (traced, untraced) wall time of the same round
    deadline = clock() + args.seconds
    i = 0
    while i == 0 or clock() < deadline:
        if not trace:
            first_kernel = len(ctx.kernels) - 1
            spent = ctx.kernel_s
            t0 = clock()
            wl.run_round(state, i, ctx)
            ctx.checkpoint()
            wall = clock() - t0 - (ctx.kernel_s - spent)
            ctx.add_round(wl.round_names, wall, first_kernel)
        else:
            walls = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    ctx.tracer = tracer
                    undo = tracing.install(tracer) if in_process else []
                    t0 = tracer.begin_op(i)
                    try:
                        wl.run_round(state, i, ctx)
                    finally:
                        walls[True] = tracer.end_op(t0)
                        tracing.uninstall(undo)
                        ctx.tracer = None
                else:
                    t0 = clock()
                    wl.run_round(state, i, ctx)
                    walls[False] = clock() - t0
            pairs.append((walls[True], walls[False]))
            ctx.checkpoint()
        i += 1

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    out = sys.stdout
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"rounds {i}  (closed loop, 1 client)", file=out)
    kernels += ctx.kernels
    print(f"machine speed: reference kernel median {statistics.median(kernels) * 1e3:.4g} ms "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms, n={len(kernels)}); "
          + ("times are raw in a traced run" if trace else
             "every time below is scaled to the reference speed, raw medians beside"), file=out)
    print(f"  {'setup_s':<28} {setup_s:>14.6g} s        n={SETUP_REPS} "
          f"(fresh-interpreter import {import_s:.4g} s + median input set-up)", file=out)
    for name, unit in SERIES_UNITS.items():
        if ctx.samples.get(name):
            print(describe(name, ctx.samples[name], unit, ctx.raw[name]), file=out)
    print(f"  {'peak_rss_mb':<28} {peak_rss_mb:>14.6g} MB", file=out)
    print(f"  {'fail_ratio':<28} {ctx.failed / max(ctx.attempted, 1):>14.6g} ratio    "
          f"({ctx.failed} of {ctx.attempted} operations)", file=out)
    print(f"certificate digest: sha256 {ctx.digest.hexdigest()} over {ctx.certs} certificates",
          file=out)
    for line in compare_counts(wl.name, args.seed, ctx.outputs):
        print(line, file=out)
    for key, before, now in ctx.repeat_defects[:5]:
        print(f"  BENCHMARK DEFECT: {key}: queries {before} then {now} in this run", file=out)
    for msg in ctx.failures:
        print(f"FAILED {msg}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, setup_tracer, pairs)
        for line in layer_table(tracer):
            print(line, file=out)
        # Span times are perf_counter seconds of the process that recorded
        # them: the benchmark's, or for child_spans each CLI child's own.
        spans = {"workload": wl.name, "seed": args.seed,
                 "fields": ["name", "start", "end", "parent", "op"],
                 "spans": tracer.spans, "child_spans": ctx.child_spans,
                 "dropped": tracer.dropped}
        span_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        span_path.write_text(json.dumps(spans))
        print(f"spans: {len(tracer.spans) + len(ctx.child_spans)} written to "
              f"{span_path.relative_to(ROOT)}; tracing overhead "
              f"{metrics['trace.overhead_s']['value']:.4g} s per round "
              f"({metrics['trace.overhead_ratio']['value']:.1%})", file=out)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for series in END_TO_END:
            if ctx.samples[series]:
                metrics[series + ".p50"] = {"value": statistics.median(ctx.samples[series]),
                                            "unit": SERIES_UNITS[series]}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
