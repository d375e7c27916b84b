"""The benchmark tracer must still find every layer it wraps.

perfbench/tracing.py names functions and methods of the package by string;
a rename in src/ would otherwise surface only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


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
