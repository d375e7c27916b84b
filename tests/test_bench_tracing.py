"""The benchmark tracer must still find every layer it wraps.

perfbench/tracing.py names functions and methods of the package by string;
a rename in src/ would otherwise surface only in a traced benchmark run.
"""

import importlib
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
from conftest import permuted_fan  # noqa: E402


def _target(mod, path):
    owner = importlib.import_module("convexham." + mod)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, path)


def test_package_names_follow_the_tracer_and_its_undo():
    # The package looks each name up in its home module on every access and
    # stores none, so it gives the wrapper while the tracer is installed and
    # the original once it is undone.
    import convexham
    from convexham import oracle

    orig = oracle.verify_certificate
    undo = tracing.install(tracing.Tracer())
    try:
        assert convexham.verify_certificate is oracle.verify_certificate is not orig
    finally:
        tracing.uninstall(undo)
    assert convexham.verify_certificate is oracle.verify_certificate is orig


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


def _traced_runs():
    """Trace five runs; yields (tracer, entries, scalar, counter, sizes).

    entries and scalar name the tracer's row entry count and its scalar
    query layer for the run's backing; sizes holds the entries of every
    row kernel call, settled fan walk block and star block the backing
    answered.
    """
    from convexham import generators, geometry, instrumented, verify_certificate
    from convexham.certificates import cycle_certificate
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

    def star_hc(d):
        # Listed from the hub, the cycle's other edges form one path, whose
        # star check asks star blocks; listed from another vertex they form
        # two, whose star check asks cross_pairs rows.
        cert = star_avoiding_hamiltonian_cycle(d, 5, verify=False)
        verify_certificate(d, cert)
        turned = cert.vertices[30:] + cert.vertices[:30]
        verify_certificate(d, cycle_certificate(turned, cert.claims))

    runs = [
        (geo, geo_rows, star_hc),
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
        backing = type(d._oracle)
        traced = backing.cross_pairs
        sizes = []

        def spy(self, a, b, cs, ds, traced=traced, sizes=sizes):
            sizes.append(np.broadcast(a, b, cs, ds).size)
            return traced(self, a, b, cs, ds)

        def walk_spy(self, walk, fan_walk=geometry.PointBack.fan_walk, sizes=sizes):
            # A fan walk's plane check counts its C(m, 2) entries with no
            # call; any other walk's asks them through cross_pairs (spy).
            fan, m = fan_walk(self, walk), len(walk) - 1
            if fan:
                sizes.append(m * (m - 1) // 2)
            return fan

        def star_spy(self, order, hub, star_rows=geometry.PointBack.star_rows, sizes=sizes):
            # A star block of rows i0..i1-1 holds R (k - 2) entries, asked
            # or settled.
            (rows, fans), k = star_rows(self, order, hub), len(order)

            def asked(i0, i1):
                sizes.append((i1 - i0) * (k - 2))
                return rows(i0, i1)

            def settled(bounds):
                for (i0, i1), fan in zip(bounds, fans(bounds)):
                    if fan:
                        sizes.append((i1 - i0) * (k - 2))
                    yield fan

            return asked, settled

        walks = mock.patch.object(geometry.PointBack, "fan_walk", walk_spy)
        stars = mock.patch.object(geometry.PointBack, "star_rows", star_spy)
        try:
            with mock.patch.object(backing, "cross_pairs", spy), walks, stars:
                run(view)
        finally:
            tracing.uninstall(undo)
        yield tracer, entries, scalar, counter, sizes


def test_traced_row_entries_equal_library_queries():
    # Every query the library counts passes through a backing call: a row
    # kernel call answers the broadcast size of its operands, a 1-D row as
    # in the triangle passes or a 2-D block of an (R, 1) pair column
    # against (R, L) operands as in the scans and the star check on an
    # abstract drawing, a star block on points (the scans, the star check)
    # its R rows of k - 2, asked or settled by the fan lemma, a fan walk's
    # plane check on points (the star-hc verification, the s-t root's fan
    # path) its C(m, 2) settled entries, and a scalar query is one call of
    # the backing's `cross`.  The next test holds the tracer's own entry count to the
    # library's.
    for tracer, entries, scalar, counter, sizes in _traced_runs():
        assert tracer.counts[entries] > 0
        assert sum(sizes) + tracer.stats[scalar][tracing.CALLS] == counter.count


@pytest.mark.xfail(strict=True, reason="perfbench/tracing.py _count_row counts len(cs) entries "
                   "per row kernel call, R for an (R, L) block; counting the broadcast "
                   "size of args[1:5] mends it")
def test_traced_row_entries_count_every_entry_of_a_block():
    # The tracer counts the entries of a row kernel call and the library
    # counts the size of the answer: they agree only once the tracer counts
    # the broadcast size of a 2-D block.  When it does, this test passes,
    # strict xfail fails the suite, and the marker comes off.
    for tracer, entries, scalar, counter, _sizes in _traced_runs():
        assert tracer.counts[entries] > 0
        assert tracer.counts[entries] + tracer.stats[scalar][tracing.CALLS] == counter.count
