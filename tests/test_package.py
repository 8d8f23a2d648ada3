"""The package's re-exports: complete, and loaded only when first used."""

from __future__ import annotations

import importlib
import subprocess
import sys
import types

import pytest

import certigraph

from conftest import SRC


def test_import_loads_no_submodule():
    code = "import sys, certigraph; print(*sorted(m for m in sys.modules if 'certigraph' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout.split()) == (0, ["certigraph"]), proc.stderr


def test_table_and_all_name_the_same_exports():
    assert len(set(certigraph.__all__)) == len(certigraph.__all__)
    assert set(certigraph._EXPORTS) == set(certigraph.__all__)


def test_every_export_is_its_home_modules_object():
    for name in certigraph.__all__:
        home = importlib.import_module(f"certigraph.{certigraph._EXPORTS[name]}")
        value = getattr(certigraph, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name  # defined there, not re-exported


def test_star_import_binds_all_exports():
    namespace: dict[str, object] = {}
    exec("from certigraph import *", namespace)
    assert set(certigraph.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        certigraph.no_such_name
    assert not hasattr(certigraph, "blossom_solver")
