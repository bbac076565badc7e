"""Every exported name resolves, so a removal that leaves a stale export
fails here rather than in a user's ``import *``; so does every name the
benchmark's tracer wraps, imports or reads."""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def test_benchmark_trace_hooks_resolve():
    # Tracer.install looks each (module, attribute) up with getattr, so a
    # renamed function would crash every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.HOOKS if not
               hasattr(importlib.import_module(f"drag_forge.{mod}"), attr)]
    assert missing == []


def _benchmark_imports() -> list[tuple[str, str]]:
    # (module, name) of every `from drag_forge... import name` in perfbench
    root = Path(__file__).resolve().parents[1] / "perfbench"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.partition(".")[0] == "drag_forge"):
                found += [(node.module, a.name) for a in node.names]
    return found


def _resolves(module: str, name: str) -> bool:
    # an attribute of the module, or a submodule of the package
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_benchmark_imports_and_pins_resolve():
    # the benchmark imports these names and reads these attributes and
    # keywords; a removal that breaks one would crash a benchmark run
    from drag_forge.optimizer import OptimizeResult, OptimizeTask
    from drag_forge.propagator import converge
    from drag_forge.pulses import ControlSet
    imports = _benchmark_imports()
    assert ("drag_forge.optimizer", "OptimizeTask") in imports
    assert [f"{m}.{n}" for m, n in imports if not _resolves(m, n)] == []
    for attr in ("omega_x", "omega_y", "delta"):
        assert callable(getattr(ControlSet, attr, None)), attr
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (OptimizeTask, OptimizeResult)}
    assert {"x0", "max_evals", "prop_tol", "seed"} <= fields[OptimizeTask]
    assert {"x", "gate_error", "n_evals", "converged"} <= fields[OptimizeResult]
    assert list(inspect.signature(converge).parameters) == [
        "system", "controls", "t_g", "tol"]


def test_pin_resolution_check_refuses_missing_names():
    assert _resolves("drag_forge", "cli") and _resolves("drag_forge", "Ansatz")
    assert not _resolves("drag_forge", "no_such_name")
    assert not _resolves("drag_forge.model", "no_such_name")


SOURCES = sorted(Path(drag_forge.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    # names a module binds by import but never reads, not counting
    # __future__ features and the names it exports in __all__
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # no linter runs on the package, so a removal that leaves an import
    # dangling fails here
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_a_dangling_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport os.path\n"
                     "from .model import Topology, generators\n"
                     "__all__ = ['np']\ngenerators(os)\n")
    assert _unused_imports(tree) == ["Topology"]


def _dead_private_names(trees) -> list[str]:
    # module-level _names that no module reads: by name, as an attribute
    # or through an import
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return sorted(n for n in defined - read
                  if n.startswith("_") and not n.startswith("__"))


def test_no_dead_private_names():
    # a private helper is read by its own module or through another's
    # import; one left behind by a fold fails here
    assert _dead_private_names(ast.parse(p.read_text()) for p in SOURCES) == []


def test_dead_private_name_check_sees_a_dangling_name():
    trees = [ast.parse("_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
                       "def _f():\n    return _A\n"
                       "class _Gone:\n    pass\n_f()\n"),
             ast.parse("from .x import _B\nimport m\nm._C\n")]
    assert _dead_private_names(trees) == ["_Gone"]
