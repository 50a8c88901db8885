"""Each module's ``__all__`` lists exactly the public functions and classes
the module defines (and may add public constants); the benchmark's tracer
names only methods the package still has."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import bubblelab

MODULES = [m.name for m in pkgutil.iter_modules(bubblelab.__path__)
           if hasattr(importlib.import_module(f"bubblelab.{m.name}"), "__all__")]


def _is_definition(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_is_exact(name):
    mod = importlib.import_module(f"bubblelab.{name}")
    defined = {n for n, obj in vars(mod).items()
               if not n.startswith("_") and _is_definition(obj)
               and obj.__module__ == mod.__name__}
    listed = set(mod.__all__)
    assert len(listed) == len(mod.__all__), "duplicate names"
    assert listed <= set(vars(mod)), sorted(listed - set(vars(mod)))
    assert {n for n in listed if _is_definition(getattr(mod, n))} == defined


def test_traced_quotient_methods_exist():
    # perfbench/tracer.py times the quotient layer by the names in its
    # _QUOTIENTS; read them with ast, without importing the tracer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    quotients = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "_QUOTIENTS")
    methods = [name.split(".") for name in quotients if name.count(".") == 2]
    assert methods
    for layer, cls, method in methods:
        owner = getattr(importlib.import_module(f"bubblelab.{layer}"), cls)
        assert inspect.isfunction(getattr(owner, method, None)), f"{layer}.{cls}.{method}"
    # the module-level names (energy.escobar_quotient, ...) are skipped: the
    # package dropped those wrappers, and the tracer still lists them


def test_traced_matrix_key_binds_the_engine_parameters():
    # perfbench/tracer.py binds halfspace_moment_matrix's positional
    # arguments by the names in _matrix_key; its first three must be the
    # engine's parameters, or traced runs count repeats under a wrong key
    from bubblelab.energy import halfspace_moment_matrix
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    key = next(node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "_matrix_key")
    names = next(ast.literal_eval(node.value) for node in ast.walk(key)
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "names")
    params = list(inspect.signature(halfspace_moment_matrix).parameters)
    assert list(names[:3]) == params[:3] == ["profile", "R", "spec"]


# private names one module imports from another, each a reviewed decision
_PRIVATE_IMPORTS = {"_admissible_gn", "_SCALE_MOMENTS", "_table_entry", "_memoized",
                    "_hermite_spline"}


def test_private_imports_are_listed():
    # every ``from .x import _name``, at top level or inside a function
    src = Path(bubblelab.__file__).parent
    found = {(path.name, alias.name) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")}
    assert sorted(f for f in found if f[1] not in _PRIVATE_IMPORTS) == []
    assert {name for _, name in found} == _PRIVATE_IMPORTS, "stale allowlist entry"
