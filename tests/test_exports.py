"""Every exported name resolves, so a removal that leaves a stale export
fails here rather than in a user's ``import *``."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drag_forge

MODULES = sorted(m.name for m in pkgutil.iter_modules(drag_forge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"drag_forge.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    exec(f"from drag_forge.{name} import *", {})


def test_package_imports_resolve():
    tree = ast.parse(Path(drag_forge.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"drag_forge.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(drag_forge, alias.asname or alias.name)
