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
