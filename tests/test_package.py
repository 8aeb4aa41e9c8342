"""Package surface: every name a module exports in __all__ resolves."""
import importlib
import pkgutil

import pytest

import gmblasso

MODULES = ["gmblasso"] + [f"gmblasso.{info.name}"
                          for info in pkgutil.iter_modules(gmblasso.__path__)
                          if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
