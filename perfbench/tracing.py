"""Benchmark-owned tracing of convexham's layers.

`install(tracer)` replaces each traced public function with a wrapper at
every place the package can reach it: the defining module and every
`convexham.*` module that imported it by name (and the class, for methods).
`uninstall()` puts the originals back.  Nothing under `src/` is edited.

Each wrapper call is one span: name, start, end, parent span and operation
id.  Spans of coarse functions are kept in memory and written out at the
end; spans of the hot oracle primitives are only aggregated.  Every span
also takes the delta of the current `convexham.instrumented` counter, so a
layer's queries are the ones issued while it was on top of the stack.
Self time (and self queries) is a span's own minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# Per-name aggregate slots.
CALLS, INCL_S, SELF_S, INCL_Q, SELF_Q = range(5)

# Spans kept per run; further spans are still aggregated, only not stored.
MAX_SPANS = 200_000


class Tracer:
    """Span stack, per-layer aggregates and extra counters for one phase."""

    def __init__(self):
        self.counter = None  # QueryCounter of the operation being traced
        self.op = None
        self.stack = []  # frames: [child_s, child_q, span_id, name]
        self.spans = []  # [name, start, end, parent_id, op]
        self.dropped = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.counts = defaultdict(int)

    def queries(self):
        c = self.counter
        return 0 if c is None else c.count

    def begin_op(self, op):
        """Open the root span of one timed operation."""
        self.op = op
        self.counter = None
        self.stack.append([0.0, 0, None, "op"])
        return clock()

    def end_op(self, t0):
        """Close the root span; its self time is the time no layer covers."""
        dur = clock() - t0
        frame = self.stack.pop()
        st = self.stats["op"]
        st[CALLS] += 1
        st[INCL_S] += dur
        st[SELF_S] += dur - frame[0]
        self.op = None
        return dur

    def add_span(self, name, dur):
        """Account a span measured elsewhere (e.g. around a child process)."""
        st = self.stats[name]
        st[CALLS] += 1
        st[INCL_S] += dur
        st[SELF_S] += dur
        if self.stack:
            self.stack[-1][0] += dur

    def merge(self, stats, counts, covered_s):
        """Add aggregates written by a traced child process.

        covered_s is the part of the current operation those spans cover.
        """
        for name, vals in stats.items():
            st = self.stats[name]
            for k, v in enumerate(vals):
                st[k] += v
        for name, v in counts.items():
            self.counts[name] += v
        if self.stack:
            self.stack[-1][0] += covered_s

    def wrap(self, name, fn, keep_spans, before=None, after=None):
        stack = self.stack
        spans = self.spans
        st = self.stats[name]
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            parent = stack[-1] if stack else None
            sid = parent[2] if parent is not None else None
            own = None
            if keep_spans:
                if len(spans) < MAX_SPANS:
                    spans.append([name, 0.0, 0.0, sid, tracer.op])
                    own = sid = len(spans) - 1
                else:
                    tracer.dropped += 1
            frame = [0.0, 0, sid, name]
            stack.append(frame)
            q0 = tracer.queries()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                dq = tracer.queries() - q0
                st[CALLS] += 1
                st[INCL_S] += dur
                st[INCL_Q] += dq
                st[SELF_S] += dur - frame[0]
                st[SELF_Q] += dq - frame[1]
                if parent is not None:
                    parent[0] += dur
                    parent[1] += dq
                if own is not None:
                    rec = spans[own]
                    rec[1] = t0
                    rec[2] = t1
            if after is not None:
                after(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)


# ---------------------------------------------------------------- hooks


def _count_rotation_lookup(tracer, args):
    d, v = args[0], args[1]
    if d._rot is None:
        tracer.counts["rotation_lookups"] += 1
        if v in d._rot_cache:
            tracer.counts["rotation_hits"] += 1


def _count_row(key):
    def before(tracer, args):
        tracer.counts[key] += len(args[3])

    return before


def _count_fallback(tracer, args):
    stack = tracer.stack
    if stack and stack[-1][3] == "geometry.cross_pairs":
        tracer.counts["geometry.exact_fallbacks"] += 1


def _frame_sizes(tracer, args, frame):
    tracer.counts["starframe.bad_edges"] += frame.m
    tracer.counts["starframe.l_table_entries"] += len(frame.l_table)


def _json_bytes(tracer, args, text):
    tracer.counts["io.dumps_drawing.bytes"] += len(text)


def _adopt_counter(tracer, args, result):
    tracer.counter = result[1]


# (layer name, module, attribute path, keep spans, before hook, after hook)
TARGETS = [
    ("geometry.assert_general_position", "geometry", "assert_general_position", True, None, None),
    ("geometry.ccw_order", "geometry", "ccw_order", True, None, None),
    ("geometry.segments_cross", "geometry", "segments_cross", False, _count_fallback, None),
    ("geometry.cross_pairs", "geometry", "PointBack.cross_pairs", False,
     _count_row("geometry.cross_pairs.entries"), None),
    ("drawing.explicit_cross", "drawing", "ExplicitCrossings.cross", False, None, None),
    ("drawing.geometric_cross", "drawing", "GeometricCrossings.cross", False, None, None),
    ("drawing.explicit_cross_pairs", "drawing", "ExplicitCrossings.cross_pairs", False,
     _count_row("drawing.explicit_cross_pairs.entries"), None),
    ("drawing.rotation_of", "drawing", "Drawing.rotation_of", False, _count_rotation_lookup, None),
    ("drawing.instrumented", "drawing", "instrumented", False, None, _adopt_counter),
    ("drawing.new_drawing", "drawing", "new_drawing", True, None, None),
    ("drawing.split_by_triangle", "drawing", "split_by_triangle", True, None, None),
    ("drawing.triangle_sides", "drawing", "triangle_sides", True, None, None),
    ("drawing.induced_subdrawing", "drawing", "induced_subdrawing", True, None, None),
    ("io.loads_drawing", "io", "loads_drawing", True, None, None),
    ("io.dumps_drawing", "io", "dumps_drawing", True, None, _json_bytes),
    ("io.loads_certificate", "io", "loads_certificate", True, None, None),
    ("io.dumps_certificate", "io", "dumps_certificate", True, None, None),
    ("starframe.build_star_frame", "starframe", "build_star_frame", True, None, _frame_sizes),
    ("hamiltonian.star_avoiding_hamiltonian_cycle", "hamiltonian",
     "star_avoiding_hamiltonian_cycle", True, None, None),
    ("hamiltonian.st_hamiltonian_path", "hamiltonian", "st_hamiltonian_path", True, None, None),
    ("hamiltonian.hamiltonian_cycle", "hamiltonian", "hamiltonian_cycle", True, None, None),
    ("oracle.verify_certificate", "oracle", "verify_certificate", True, None, None),
    ("oracle.is_plane", "oracle", "is_plane", True, None, None),
    ("convexity.find_nonconvex_triangle", "convexity", "find_nonconvex_triangle", True, None, None),
    ("convexity.find_nonconvex_k5", "convexity", "find_nonconvex_k5", True, None, None),
    ("convexity.classify_k5", "convexity", "classify_k5", True, None, None),
    ("subdrawings.greedy_maximal_plane", "subdrawings", "greedy_maximal_plane", True, None, None),
    ("subdrawings.crossing_degree_order", "subdrawings", "crossing_degree_order", True, None, None),
    ("generators.random_geometric", "generators", "random_geometric", True, None, None),
    ("generators.two_page", "generators", "two_page", True, None, None),
    ("generators.twisted", "generators", "twisted", True, None, None),
    ("cli.main", "cli", "main", True, None, None),
]


def install(tracer):
    """Wrap every target at all of its import sites; returns an undo list."""
    undo = []
    owners = {mod: importlib.import_module("convexham." + mod) for _n, mod, *_r in TARGETS}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "convexham" or name.startswith("convexham."))]
    for name, mod, path, keep, before, after in TARGETS:
        owner = owners[mod]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig, keep, before, after))
            continue
        orig = getattr(owner, path)
        wrapper = tracer.wrap(name, orig, keep, before, after)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
