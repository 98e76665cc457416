"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import mdrank

MODULES = ["mdrank", *(f"mdrank.{m.name}" for m in pkgutil.iter_modules(mdrank.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    """A stale ``__all__`` entry would make ``from <module> import *`` raise."""
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
