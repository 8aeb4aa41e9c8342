"""Package surface: every name a module exports in __all__ resolves, and every
name the benchmark's span tracer wraps exists in the form it wraps."""
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import gmblasso

MODULES = ["gmblasso"] + [f"gmblasso.{info.name}"
                          for info in pkgutil.iter_modules(gmblasso.__path__)
                          if info.name != "__main__"]


def _load_tracer():
    """perfbench/tracer.py, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("layer, module, attr", TRACER.FUNCTIONS,
                         ids=[layer for layer, *_ in TRACER.FUNCTIONS])
def test_traced_functions_resolve(layer, module, attr):
    fn = getattr(importlib.import_module(module), attr, None)
    assert inspect.isfunction(fn), f"{layer}: {module}.{attr} is not a function"


@pytest.mark.parametrize("layer, module, cls_name, attr", TRACER.CLASS_MEMBERS,
                         ids=[layer for layer, *_ in TRACER.CLASS_MEMBERS])
def test_traced_class_members_resolve(layer, module, cls_name, attr):
    # the tracer wraps a staticmethod's __func__, a property's fget, or the
    # plain function found in the class __dict__
    cls = getattr(importlib.import_module(module), cls_name)
    member = cls.__dict__.get(attr)
    if isinstance(member, staticmethod):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    assert inspect.isfunction(member), \
        f"{layer}: {cls_name}.{attr} is not a staticmethod, property or function"
