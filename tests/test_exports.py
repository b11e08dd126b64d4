"""Every name a curvflow module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import curvflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(curvflow.__path__))


def test_package_lists_every_module():
    assert sorted(curvflow.__all__) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"curvflow.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, f"curvflow.{name}.__all__ names missing attributes: {missing}"
