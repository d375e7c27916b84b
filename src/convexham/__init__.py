"""convexham: plane Hamiltonian structures in convex drawings of complete graphs.

A drawing of K_n is a rotation system plus a crossing oracle.  Convex
drawings (every triangle has a convex side) admit plane Hamiltonian cycles,
s-t paths, cycles avoiding a vertex's star, empty cycles of every length,
and maximal-equals-maximum plane subdrawings; this package constructs all of
these with certificates and re-checks them against an independent
brute-force oracle.

Importing the package loads none of its modules: each exported name loads
its home module on first use (PEP 562), so a caller pays only for the
modules it runs.  A name is looked up in its home module on every access
and never stored here, so a patch of the home module's attribute (as by a
tracer) is seen, and so is its undoing.
"""

import importlib
import sys

__version__ = "0.1.0"

# Home module of each exported name.
_EXPORTS = {
    "certificates": "Certificate",
    "convexity": "K5Class classify_k5 find_nonconvex_k5 find_nonconvex_triangle "
                 "is_convex_by_k5 is_convex_by_triangles",
    "drawing": "Drawing induced_subdrawing instrumented new_drawing relabel triangle_sides",
    "generators": "convex_position geometric random_geometric twisted two_page",
    "hamiltonian": "empty_k_cycle geometric_path_with_two_edges hamiltonian_cycle "
                   "path_containing_edge st_hamiltonian_path star_avoiding_hamiltonian_cycle",
    "io": "dumps_certificate dumps_drawing loads_certificate loads_drawing",
    "oracle": "brute_hamiltonian count_empty_triangles cycle_sides exact_max_plane is_plane "
              "verify_certificate",
    "render": "render_svg",
    "starframe": "StarFrame build_star_frame",
    "subdrawings": "extend_cycle faces greedy_maximal_plane max_plane_size",
}
_HOME = {name: f"{__name__}.{mod}" for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__():
    return sorted({*globals(), *__all__})
