"""Every name a curvflow module exports in ``__all__`` exists, and every
top-level function and class is used by the package itself."""

import ast
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


def test_every_top_level_function_and_class_is_used_by_the_package():
    # code that only tests reach is deleted, not kept "just in case": each
    # top-level def or class (dunders aside) must be read by some source code
    # outside its own body, by name or as an attribute; neither an __all__
    # entry (a string) nor an import counts
    package = Path(curvflow.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    refs = [
        (id(ref), ref.id if isinstance(ref, ast.Name) else ref.attr)
        for tree in trees.values()
        for ref in ast.walk(tree)
        if isinstance(ref, (ast.Name, ast.Attribute))
    ]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for file, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and key not in own for key, name in refs):
                unused.append(f"{file}: {node.name}")
    assert not unused, f"defined but never used by curvflow: {unused}"
