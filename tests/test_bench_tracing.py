"""The benchmark tracer must still find every layer it wraps.

perfbench/tracing.py names functions and methods of the package by string;
a rename in src/ would otherwise surface only in a traced benchmark run.
"""

import importlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
from conftest import permuted_fan  # noqa: E402


def _target(mod, path):
    owner = importlib.import_module("convexham." + mod)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, path)


def test_tracer_targets_resolve_and_unwrap():
    originals = {name: _target(mod, path) for name, mod, path, *_r in tracing.TARGETS}
    undo = tracing.install(tracing.Tracer())
    try:
        for name, mod, path, *_r in tracing.TARGETS:
            wrapped = _target(mod, path)
            assert wrapped is not originals[name], name
            assert wrapped.__wrapped__ is originals[name], name
    finally:
        tracing.uninstall(undo)
    for name, mod, path, *_r in tracing.TARGETS:
        assert _target(mod, path) is originals[name], name


def test_traced_row_entries_equal_library_queries():
    # The tracer counts len(cs) entries per row kernel call and the library
    # counts the size of the answer: they agree while every operand of a
    # row, blocked bad-edge scans, triangle splits and triangle blocks
    # included, stays 1-D.
    # A scalar query is one call of the backing's `cross`.
    from convexham import generators, instrumented, verify_certificate
    from convexham.convexity import find_nonconvex_triangle
    from convexham.hamiltonian import (
        hamiltonian_cycle,
        st_hamiltonian_path,
        star_avoiding_hamiltonian_cycle,
    )

    geo = generators.random_geometric(60, 3)
    hull = min(range(1, 61), key=lambda v: geo.points[v])  # smallest x
    s = 1 if hull != 1 else 2
    geo_rows = ("geometry.cross_pairs.entries", "drawing.geometric_cross")
    explicit_rows = ("drawing.explicit_cross_pairs.entries", "drawing.explicit_cross")
    runs = [
        (geo, geo_rows,
         lambda d: verify_certificate(d, star_avoiding_hamiltonian_cycle(d, 5, verify=False))),
        (geo, geo_rows, lambda d: st_hamiltonian_path(d, s, hull, verify=False)),
        (generators.two_page(10, ((1, 4),)), explicit_rows, find_nonconvex_triangle),
        # The triangle pass asks its rows in blocks of triangles.
        (permuted_fan(16, 3, random.Random(1)), explicit_rows, find_nonconvex_triangle),
        # The s-t solver's root scans vertex n's rotation for the cycle.
        (permuted_fan(20, 3, random.Random(2)), explicit_rows,
         lambda d: hamiltonian_cycle(d, verify=False)),
    ]
    for d, (entries, scalar), run in runs:
        view, counter = instrumented(d)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            run(view)
        finally:
            tracing.uninstall(undo)
        assert tracer.counts[entries] > 0
        assert tracer.counts[entries] + tracer.stats[scalar][tracing.CALLS] == counter.count
