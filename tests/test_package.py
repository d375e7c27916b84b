"""The package's public surface: 42 names, each loaded from its home module on first use."""

import importlib
import json
import subprocess
import sys

import pytest

import convexham
from conftest import child_env


def test_every_exported_name_is_its_home_modules_attribute():
    assert len(convexham.__all__) == 42 and "__version__" in convexham.__all__
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
