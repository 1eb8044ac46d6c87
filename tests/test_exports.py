"""Every exported name resolves, so a deleted name cannot linger in an
``__all__`` list."""

import importlib
import pkgutil

import pytest

import polymin

MODULES = ["polymin"] + [f"polymin.{m.name}" for m in pkgutil.iter_modules(polymin.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
