"""Self-checks of the benchmark: tracer, output checks and launcher.

    python3 -m pytest perfbench -q        (about two minutes)
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

import pytest

import tracer as tr
import worker

RUN = os.path.join(worker.HERE, "run.py")


@pytest.fixture(scope="module")
def gm():
    return worker.load_gmblasso()


def _declared(section):
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [spec["name"] for spec in json.load(fh)[section]]


def test_self_time_subtracts_children_per_thread():
    tracer = tr.Tracer()
    inner = tracer.wrap("kernel.kernel_values", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("solver.objective_gradient", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)

    by_id = {span[0]: span for span in tracer.spans}
    for _id, parent, name, _start, _end, thread, _run in tracer.spans:
        if name == "kernel.kernel_values":
            assert by_id[parent][2] == "solver.objective_gradient"
            assert by_id[parent][5] == thread      # parent from the same thread
    totals = tr.summarize(tracer.spans)
    outer_t, inner_t = totals["solver.objective_gradient"], totals["kernel.kernel_values"]
    assert (outer_t["calls"], inner_t["calls"]) == (2, 4)
    assert inner_t["self_s"] == pytest.approx(inner_t["s"])
    assert outer_t["self_s"] == pytest.approx(outer_t["s"] - inner_t["s"])
    assert 0.015 < outer_t["self_s"] < outer_t["s"]


def test_install_wraps_every_binding_and_uninstall_restores(gm):
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for _name, mod, attr in tr.FUNCTIONS}
    witness = gm.kernel.data_witness
    with tr.Tracer():
        # the solver imported data_witness by name; that binding is the one used
        assert gm.solver.data_witness is not witness
        assert gm.solver.data_witness.__wrapped__ is witness
        assert gm.kernel.data_witness is gm.solver.data_witness
        assert gm.experiments.cpgd_solve is gm.solver.cpgd_solve
        assert gm.cli.initial_measure.__wrapped__ is originals[
            ("gmblasso.solver", "initial_measure")]
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    assert gm.solver.data_witness is witness
    assert isinstance(gm.solver.ObjectiveContext.__dict__["fidelity_constant"], property)


def test_per_layer_metrics_match_benchmark_json():
    for workload in worker.WORKLOADS.values():
        names = set(worker.layer_metrics(tr.summarize([]), defaultdict(float),
                                         workload, []))
        names |= {"experiments.thread_speedup", "trace.overhead_frac"}
        assert sorted(names) == sorted(_declared("per_layer"))


@pytest.mark.parametrize("factor, should_pass", [(1.0 + 1e-14, True), (1.0 + 1e-6, False)])
def test_reference_check_is_a_tolerance(gm, tmp_path, factor, should_pass):
    """A witness off by rounding passes the output check; one off by 1e-6 fails."""
    workload = worker.WORKLOADS["sweep_small_n"]
    workload.prepare(gm, str(tmp_path))
    with open(worker.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    exact = gm.solver.data_witness

    def perturbed(*args, **kwargs):
        out = exact(*args, **kwargs)
        if isinstance(out, tuple):
            return out[0] * factor, out[1] * factor
        return out * factor

    gm.solver.data_witness = perturbed
    try:
        _, report = workload.run(0)
    finally:
        gm.solver.data_witness = exact
    failures = [m for m in workload.check(0, report, reference) if m is not None]
    assert (not failures) == should_pass, failures[:3]


def _run(args, cwd, timeout=180):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_traced_run_reaches_every_layer(name):
    """Every layer the workload should exercise records calls, and traced,
    untraced and single-thread outputs agree (the run counts any mismatch)."""
    proc = _run([RUN, "--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "1"], worker.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == _declared("per_layer")
    for layer in worker.WORKLOADS[name].expected:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "certify_d2", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
