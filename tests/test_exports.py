"""Every name a curvflow module exports in ``__all__`` exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_neither_scipy_nor_multiprocessing():
    # the radii come from curvflow's own simplex and the Gauss rule and the
    # Legendre tables from numpy; a process pool is imported only for --jobs
    source_root = str(Path(curvflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = (
        "import sys, curvflow.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
