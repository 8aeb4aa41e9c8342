"""Package surface: every name a module exports in __all__ resolves, every
name the benchmark's span tracer wraps exists in the form it wraps, and no
command loads scipy or, without a parallel sweep, the process pool."""
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gmblasso
import gmblasso.cli  # noqa: F401  (perfbench's workloads parse configs through it)

MODULES = ["gmblasso"] + [f"gmblasso.{info.name}"
                          for info in pkgutil.iter_modules(gmblasso.__path__)
                          if info.name != "__main__"]


def _load_perfbench(name):
    """perfbench/<name>.py, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_perfbench("tracer")
WORKER = _load_perfbench("worker")


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


@pytest.mark.parametrize("name", sorted(WORKER.WORKLOADS))
def test_workload_reaches_its_traced_layers(name, tmp_path):
    # the benchmark's traced run fails a workload whose expected layer records
    # no call; one operation of pool entry 0 must already reach every one
    workload = WORKER.WORKLOADS[name]
    workload.prepare(gmblasso, str(tmp_path))
    kwargs = {"threads": 1, "replications": 1} if workload.kind == "sweep" else {}
    with TRACER.Tracer() as tracer:
        workload.run(0, **kwargs)
    totals = TRACER.summarize(tracer.spans)
    assert [layer for layer in workload.expected if totals[layer]["calls"] == 0] == []


SCENARIO = """\
kernel.d = 1
kernel.tau = 1.0
scenario.weights = 0.5, 0.5
scenario.t = -13, 13
scenario.u = 1, 1
scenario.box.t_lo = -20
scenario.box.t_hi = 20
scenario.box.u_min = 1.0
scenario.box.u_max = 1.0
solver.iterations = 50
experiment.n = 200
experiment.n_grid = 200
experiment.replications = 1
"""

# Runs in a fresh interpreter (this one has loaded scipy through the tests'
# oracles): prints each command's exit code, and the loaded modules of scipy
# and of the process pool after the imports and after each command.  `rates`
# runs one replication, so it starts no pool.
IMPORT_PROBE = """\
import json, sys
import gmblasso, gmblasso.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing")
                  or m == "concurrent.futures" or m.startswith("concurrent.futures."))

cfg, out = sys.argv[1:]
steps = {name: [name, "--config", cfg, "--out", out + "/" + name]
         for name in ("solve", "certify", "rates")}
steps["kernel-check"] = ["kernel-check", "--samples", "30"]
codes, after = {}, {"import": loaded()}
for name, argv in steps.items():
    codes[name] = gmblasso.cli.main(argv)
    after[name] = loaded()
print(json.dumps([codes, after]))
"""


def test_no_command_loads_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCENARIO)
    src = str(Path(gmblasso.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(cfg),
                           str(tmp_path)], env=env, text=True,
                          stdout=subprocess.PIPE, check=True)
    codes, after = json.loads(proc.stdout.strip().splitlines()[-1])
    commands = ("solve", "certify", "rates", "kernel-check")
    assert codes == {name: 0 for name in commands}
    assert after == {name: [] for name in ("import",) + commands}
