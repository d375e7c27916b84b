"""The package's public surface: 35 names, each loaded from its home module on first use."""

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import convexham
from conftest import child_env


def test_every_exported_name_is_its_home_modules_attribute():
    assert len(convexham.__all__) == 35 and "__version__" in convexham.__all__
    for name in convexham.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(convexham._HOME[name])
        obj = getattr(convexham, name)
        assert obj is getattr(home, name) and obj.__module__ == home.__name__, name
        ns = {}
        exec(f"from convexham import {name} as got", ns)
        assert ns["got"] is obj, name


def test_dir_lists_every_exported_name():
    assert set(convexham.__all__) <= set(dir(convexham))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        convexham.no_such_name


def test_import_loads_no_module_and_no_numpy():
    code = ("import json, sys, convexham\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('convexham.') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# Names the package exported once, with the module that defined them.  The
# exhaustive references now live in the tests (tests/reference.py), and the
# one-line wrappers are gone: their callers call the code behind them.
_REMOVED = {
    "brute_hamiltonian": "oracle",
    "count_empty_triangles": "oracle",
    "exact_max_plane": "oracle",
    "faces": "subdrawings",
    "max_plane_size": "subdrawings",
    "is_convex_by_k5": "convexity",
    "is_convex_by_triangles": "convexity",
}


@pytest.mark.parametrize("name, home", sorted(_REMOVED.items()))
def test_removed_names_are_gone(name, home):
    assert name not in convexham.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(convexham, name)
    assert not hasattr(importlib.import_module(f"convexham.{home}"), name)


@pytest.mark.parametrize("home, owner, name", [("geometry", "PointBack", "star_rows"),
                                               ("drawing", "ExplicitCrossings", "star_rows"),
                                               ("drawing", "GeometricCrossings", "star_rows"),
                                               ("drawing", "Drawing", "cross_block")])
def test_removed_star_kernel_methods_are_gone(home, owner, name):
    # Star blocks are `Drawing.cross_pairs` calls on both backings
    # (`drawing.star_hits`); no backing keeps a kernel of its own for them.
    assert not hasattr(getattr(importlib.import_module(f"convexham.{home}"), owner), name)


def _references(tree):
    """Names that code in tree refers to: Name ids, Attribute attrs and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_private_helper_is_used_in_src():
    # A top-level _helper that nothing in the package refers to, apart from
    # its own body, is dead code.  Docstrings and comments do not count.
    trees = [ast.parse(p.read_text()) for p in Path(convexham.__file__).parent.glob("*.py")]
    used = Counter(name for tree in trees for name in _references(tree))
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(helpers) > 50
    dead = [h.name for h in helpers
            if used[h.name] == sum(name == h.name for name in _references(h))]
    assert dead == []


def test_no_row_function_of_drawing_branches_on_the_backing():
    # drawing.py asks every backing through one surface: a function that
    # asks rows or the fan lemma (names cross_pairs, fan_blocks or
    # fan_walk) neither reads `.points` nor calls isinstance on a backing
    # class, any class of drawing or geometry that answers fan_walk.
    from convexham import drawing, geometry

    backings = {c.__name__ for mod in (drawing, geometry) for c in vars(mod).values()
                if isinstance(c, type) and hasattr(c, "fan_walk")}
    assert backings == {"ExplicitCrossings", "GeometricCrossings", "PointBack"}
    tree = ast.parse(Path(drawing.__file__).read_text())
    asking, branching = [], []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        attrs = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
        if not attrs & {"cross_pairs", "fan_blocks", "fan_walk"}:
            continue
        asking.append(func.name)
        kinds = {name for call in ast.walk(func) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                 for arg in call.args[1:] for name in _references(arg)}
        if "points" in attrs or kinds & backings:
            branching.append(func.name)
    assert {"star_hits", "plane_hits", "cross_pairs", "crossing_set"} <= set(asking)
    assert branching == []
