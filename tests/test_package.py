"""Each module's ``__all__`` lists exactly the public functions and classes
the module defines (and may add public constants)."""
import importlib
import inspect
import pkgutil

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
