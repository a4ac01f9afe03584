"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import loopsv

MODULES = [info.name for info in pkgutil.iter_modules(loopsv.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"loopsv.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_are_the_module_lists():
    # every name a module declares public is exported by the package, and nothing else is
    declared = set()
    for name in MODULES:
        declared |= set(getattr(importlib.import_module(f"loopsv.{name}"), "__all__", ()))
    exported = {n for n in dir(loopsv) if not n.startswith("_")} - set(MODULES)
    assert sorted(exported - declared) == [] and sorted(declared - exported) == []
