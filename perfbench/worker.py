"""One benchmark workload in one fresh process; prints one JSON line.

run.py starts this file with the BLAS thread pools pinned to 1:

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \
        --mode setup|measure|trace --t0 MONOTONIC --workdir DIR

* ``setup``   imports gmblasso from ``src/``, builds the inputs and reports
  the time since ``--t0`` (the launcher's clock just before it started us).
* ``measure`` does the same set-up, then runs whole passes over the pool
  untraced for about T seconds, checks every output against
  ``reference.json`` and reports the per-operation times.
* ``trace``   runs the first batch untraced, then passes under the tracer for
  about T seconds, then the first batch untraced again and (sweeps) on one
  thread, and reports the per-layer metrics.

Inputs come from a fixed pool per workload: ``--seed`` picks the order in
which pool entries run, and ``reference.json`` (written by
``make_reference.py``) holds the expected outputs of every entry.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Outputs are compared by tolerance, not bytes, so that a rewrite that keeps
# the arithmetic exact up to rounding passes.  MASS_TOL bounds per-region mass
# errors and far mass; ATOM_TOL bounds fitted weights and coordinates.  Scaling
# the data witness by 1 + e moves mass errors by about 0.25 e (sweep_small_n)
# and fitted atoms by about 0.7 e (solve_trace), so they admit e up to about
# 4e-8 and 1.4e-7: rounding-level changes pass, a witness off by 1e-6 fails.
MASS_TOL = 1e-8
ATOM_TOL = 1e-7

# The acceptance gates' separated scenario and tuned solver.  The sweeps
# parse this text too, so every workload but certify_d2 shares one definition.
SEPARATED_CONFIG = """\
kernel.d = 1
kernel.tau = 1.0
scenario.weights = 0.5, 0.5
scenario.t = -13, 13
scenario.u = 1, 1
scenario.box.t_lo = -20
scenario.box.t_hi = 20
scenario.box.u_min = 1.0
scenario.box.u_max = 1.0
solver.iterations = 1000
solver.step_w = 4.0
solver.step_x = 8.0
solver.merge_radius = 0.605
solver.merge_period = 10
experiment.kappa_rule = agnostic
"""

# certify_d2 anchors before jitter: well separated in d = 2, with u = 1
CERTIFY_MEANS = ((-27.0, 0.0), (0.0, 20.0), (27.0, 0.0))


def load_gmblasso():
    """Import gmblasso from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gmblasso", "__init__.py")):
        raise SystemExit(f"benchmark: no gmblasso sources under {src}")
    sys.path.insert(0, src)
    import gmblasso
    import gmblasso.cli  # noqa: F401  (the tracer wraps cli.main)

    found = os.path.realpath(os.path.dirname(gmblasso.__file__))
    if found != os.path.realpath(os.path.join(src, "gmblasso")):
        raise SystemExit(f"benchmark: imported gmblasso from {found}, not {src}")
    return gmblasso


def pool_order(seed: int, pool_size: int) -> list:
    """Pool indices in the order a run with this seed visits them."""
    return random.Random(seed).sample(range(pool_size), pool_size)


def _within(a, b, tol) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Sweep:
    """Public ``rate_sweep`` on the separated scenario with the tuned solver.

    One batch is one rate_sweep call; one operation is one replication.
    Pool entry k is the sweep's master seed k.
    """

    kind = "sweep"
    threads = 2

    def __init__(self, name, n_grid, replications, pool_size, expected):
        self.name = name
        self.n_grid = n_grid
        self.replications = replications
        self.pool_size = pool_size
        self.expected = expected

    def prepare(self, gm, workdir):
        self.gm = gm
        run = gm.cli.build_run_config(gm.cli.parse_config_text(SEPARATED_CONFIG))
        self.scenario, self.solver = run.mixture, run.solver

    def run(self, key, threads=None, replications=None):
        start = time.perf_counter()
        report = self.gm.experiments.rate_sweep(
            self.scenario, self.n_grid, replications or self.replications,
            "agnostic", "fixed", key, threads=threads or self.threads,
            solver=self.solver)
        return time.perf_counter() - start, report

    @staticmethod
    def op_times(report):
        return [row.runtime for row in report.rows]

    @staticmethod
    def fingerprint(report):
        return [repr(dataclasses.replace(row, runtime=0.0)) for row in report.rows]

    @staticmethod
    def summary(report):
        """Reference entry: [n, rep, atoms, exactly_one_each, far_mass, mass_errors]."""
        return [[row.n, row.replication, row.atoms, int(row.exactly_one_each),
                 row.far_mass, list(row.mass_errors)] for row in report.rows]

    def check(self, key, report, reference):
        """One failure message (or None) per replication."""
        expected = {(e[0], e[1]): e for e in reference[self.name][str(key)]}
        out = []
        for row, got in zip(report.rows, self.summary(report)):
            ref = expected.get((row.n, row.replication))
            if not row.ok:
                out.append(f"n={row.n} rep={row.replication}: {row.error}")
            elif ref is None:
                out.append(f"n={row.n} rep={row.replication}: no reference")
            elif got[2:4] != ref[2:4]:
                out.append(f"n={row.n} rep={row.replication}: atoms/exactly_one_each "
                           f"{got[2:4]} != reference {ref[2:4]}")
            elif not (_within(got[4], ref[4], MASS_TOL) and len(got[5]) == len(ref[5])
                      and all(_within(a, b, MASS_TOL) for a, b in zip(got[5], ref[5]))):
                out.append(f"n={row.n} rep={row.replication}: mass errors "
                           f"{got[4:]} != reference {ref[4:]}")
            else:
                out.append(None)
        return out

    def rerun_check(self, key, report):
        """Rerun replication 0 of a batch; rows must repeat, runtime excluded."""
        _, again = self.run(key, replications=1)
        first = [fp for row, fp in zip(report.rows, self.fingerprint(report))
                 if row.replication == 0]
        return [None if a == b else f"rerun of master seed {key} differs: {a} != {b}"
                for a, b in zip(first, self.fingerprint(again))]

    @staticmethod
    def extras(reports):
        vals = [row.mass_error_by_radius[0] for r in reports for row in r.rows if row.ok]
        return {"mass_error_mean": statistics.fmean(vals) if vals else math.nan}


class Cli:
    """One ``gmblasso`` subcommand run in-process through ``gmblasso.cli.main``.

    One batch is one call, and one operation.
    """

    kind = "cli"

    def __init__(self, name, command, pool_size, expected):
        self.name = name
        self.command = command
        self.pool_size = pool_size
        self.expected = expected
        self.calls = 0

    def prepare(self, gm, workdir):
        self.gm = gm
        self.workdir = workdir
        self.configs = {}
        for key in range(self.pool_size):
            path = os.path.join(workdir, f"{self.name}-{key}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.config_text(key))
            self.configs[key] = path

    def config_text(self, key):
        if self.command == "solve":
            return SEPARATED_CONFIG + "experiment.n = 30000\n"
        # certify: three anchors, each mean moved by up to 1 in every
        # coordinate, so that separation holds for every pool entry
        rng = random.Random(key)
        rows = "; ".join(f"{a + rng.uniform(-1, 1)!r} {b + rng.uniform(-1, 1)!r}"
                         for a, b in CERTIFY_MEANS)
        return ("kernel.d = 2\nkernel.tau = 1.0\n"
                "scenario.weights = 0.25, 0.5, 0.25\n"
                f"scenario.t = {rows}\n"
                "scenario.u = 1 1; 1 1; 1 1\n"
                "scenario.box.t_lo = -35\nscenario.box.t_hi = 35\n"
                "scenario.box.u_min = 1.0\nscenario.box.u_max = 1.0\n")

    def run(self, key, threads=None):
        self.calls += 1
        out = os.path.join(self.workdir, f"out-{self.calls}")
        argv = [self.command, "--config", self.configs[key], "--out", out]
        if self.command == "solve":
            argv += ["--seed", str(key)]
        start = time.perf_counter()
        rc = self.gm.cli.main(argv)
        wall = time.perf_counter() - start
        files = {}
        if os.path.isdir(out):
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    files[fname] = fh.read()
            shutil.rmtree(out)
        return wall, {"rc": rc, "files": files, "wall": wall}

    @staticmethod
    def op_times(result):
        return [result["wall"]]

    @staticmethod
    def fingerprint(result):
        return [result["rc"], result["files"]]

    @staticmethod
    def _csv(result, fname):
        text = result["files"].get(fname, b"").decode("utf-8")
        return list(csv.DictReader(text.splitlines()))

    @staticmethod
    def _meta(result, fname):
        raw = result["files"].get(fname + ".meta.json")
        return json.loads(raw) if raw else {}

    def summary(self, result):
        """Reference entry: fitted atoms sorted by location, or points evaluated."""
        if self.command == "solve":
            atoms = [[float(r["weight"]), float(r["t_0"]), float(r["u_0"])]
                     for r in self._csv(result, "solve_measure.csv")]
            return sorted(atoms, key=lambda a: (a[1], a[2]))
        return self._meta(result, "certify_clauses.csv").get("points_evaluated")

    def check(self, key, result, reference):
        ref = reference[self.name][str(key)]
        if result["rc"] != 0:
            return [f"{self.command} {key}: exit code {result['rc']}"]
        got = self.summary(result)
        if self.command == "solve":
            if self._meta(result, "solve_measure.csv").get("acceptance") is not True:
                return [f"solve {key}: acceptance is not true"]
            if len(got) != len(ref) or not all(
                    _within(a, b, ATOM_TOL) for ga, ra in zip(got, ref)
                    for a, b in zip(ga, ra)):
                return [f"solve {key}: atoms {got} != reference {ref}"]
            return [None]
        failed = [r["clause"] for r in self._csv(result, "certify_clauses.csv")
                  if r["passed"] != "true"]
        if failed:
            return [f"certify {key}: clauses failed: {failed}"]
        if got != ref:
            return [f"certify {key}: points_evaluated {got} != reference {ref}"]
        return [None]

    def rerun_check(self, key, result):
        return []

    @staticmethod
    def extras(results):
        return {"bytes_written": sum(len(b) for r in results for b in r["files"].values())}


_SWEEP_LAYERS = (
    "experiments.rate_sweep", "experiments.sample", "experiments.region_mass_errors",
    "experiments.sparsity_check", "experiments.prediction_error",
    "solver.initial_measure", "solver.cpgd_solve", "solver.objective_gradient",
    "solver.prune_merge", "kernel.data_witness", "kernel.kernel_values",
    "kernel.grad1_batch", "kernel.semi_distance_pairs", "measures.from_arrays",
    "measures.locations_array", "measures.weight_function",
    "geometry.region_index_batch", "geometry.metric_diag_batch",
)

# Layer functions each workload must reach; a zero count means a wrapper sits
# on a binding the workload never calls through.
WORKLOADS = {
    "sweep_large_n": Sweep("sweep_large_n", (100_000,), 2, 3, _SWEEP_LAYERS),
    "sweep_small_n": Sweep("sweep_small_n", (1000, 3000), 10, 10, _SWEEP_LAYERS),
    "solve_trace": Cli("solve_trace", "solve", 2, (
        "cli.main", "experiments.sample", "solver.initial_measure",
        "solver.cpgd_solve", "solver.objective_gradient", "solver.prune_merge",
        "solver.fidelity_constant", "solver.acceptance_check",
        "kernel.data_witness", "kernel.lambda_pair", "kernel.kernel_values",
        "kernel.grad1_batch", "kernel.semi_distance_pairs",
        "measures.from_arrays", "measures.locations_array",
        "measures.weight_function", "geometry.metric_diag_batch")),
    "certify_d2": Cli("certify_d2", "certify", 8, (
        "cli.main", "certificates.build_upsilon", "certificates.solve_certificates",
        "certificates.verify_nondegeneracy", "geometry.region_index_batch",
        "geometry.fr_distance_pairs", "geometry.geodesic_spec",
        "kernel.kernel_values", "kernel.grad1_batch", "kernel.semi_distance_pairs",
        "measures.locations_array")),
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def run_batches(workload, order, seconds, on_batch=None):
    """Run whole passes over the pool, in `order`, for about `seconds`.

    Per-dataset cost differs by up to 2x (convergence varies), so every run
    times whole passes over the same pool and only timing noise differs
    between seeds.  Another pass starts only while at least half of one
    still fits, so a run ends near `seconds`; there is always one pass.
    """
    batches = []
    start = time.perf_counter()
    passes = 0
    while True:
        for key in order:
            wall, result = workload.run(key)
            batches.append((key, wall, result))
            if on_batch is not None:
                on_batch(len(batches))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 > seconds:
            return batches, elapsed


def check_batches(workload, batches, reference):
    messages = []
    for key, _wall, result in batches:
        messages += workload.check(key, result, reference)
    return messages


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, order, seconds, reference):
    batches, elapsed = run_batches(workload, order, seconds)
    times = [t for _key, _wall, result in batches for t in workload.op_times(result)]
    messages = check_batches(workload, batches, reference)
    messages += workload.rerun_check(batches[0][0], batches[0][2])
    failures = [m for m in messages if m is not None]
    return {
        "op_times": times,
        "measured_s": elapsed,
        "ops_per_s": len(times) / elapsed,
        "attempted": len(messages),
        "failed": len(failures),
        "failures": failures[:10],
        "extras": workload.extras([b[2] for b in batches]),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(workload, order, seconds, reference, spans_path):
    import tracer as tr

    key0 = order[0]
    _, untraced = workload.run(key0)   # also warms lazy imports and caches
    tracer = tr.Tracer()
    totals = tr.summarize([])
    first_spans = []

    def fold(batch_no):
        spans = tracer.drain()
        tr.summarize(spans, totals)
        if batch_no == 1:
            first_spans.extend(spans)
        tracer.run_id = batch_no + 1

    tracer.run_id = 1
    with tracer:
        batches, _elapsed = run_batches(workload, order, seconds, on_batch=fold)
    tr.write_spans(first_spans, spans_path)

    # both timings of key0 below are warm runs, unlike the first one above
    untraced_wall, _ = workload.run(key0)
    messages = check_batches(workload, batches, reference)
    same = workload.fingerprint(untraced) == workload.fingerprint(batches[0][2])
    messages.append(None if same else "traced and untraced outputs differ")
    speedup = 0.0
    if workload.kind == "sweep":
        one_wall, one = workload.run(key0, threads=1)
        speedup = one_wall / untraced_wall
        same = workload.fingerprint(one) == workload.fingerprint(untraced)
        messages.append(None if same else "threads=1 outputs differ from threads=2")
    for name in workload.expected:
        if totals[name]["calls"] == 0:
            messages.append(f"layer {name} recorded no calls")

    layers = layer_metrics(totals, tracer.counters, workload, batches)
    layers["experiments.thread_speedup"] = [speedup, "ratio"]
    layers["trace.overhead_frac"] = [batches[0][1] / untraced_wall - 1.0, "ratio"]
    failures = [m for m in messages if m is not None]
    return {"per_layer": layers, "attempted": len(messages), "failed": len(failures),
            "failures": failures[:10]}


def layer_metrics(totals, counters, workload, batches) -> dict:
    out = {}
    for name, entry in totals.items():
        out[f"{name}.calls"] = [entry["calls"], "count"]
        out[f"{name}.s"] = [entry["s"], "s"]
        out[f"{name}.self_s"] = [entry["self_s"], "s"]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    witness = totals["kernel.data_witness"]
    pairs = counters["kernel.data_witness.pair_evals"]
    out["kernel.data_witness.pair_evals"] = [pairs, "count"]
    out["kernel.data_witness.ns_per_pair"] = [per(witness["s"] * 1e9, pairs), "ns"]
    out["kernel.data_witness.max_temp_mb"] = [
        counters["kernel.data_witness.max_temp_mb"], "MB"]
    out["kernel.lambda_pair.pair_evals"] = [counters["kernel.lambda_pair.pair_evals"],
                                            "count"]
    iterations = counters["solver.iterations"]
    out["solver.iterations"] = [iterations, "count"]
    out["solver.converged_frac"] = [
        per(counters["solver.converged"], totals["solver.cpgd_solve"]["calls"]), "ratio"]
    out["solver.witness_calls_per_iter"] = [per(witness["calls"], iterations),
                                            "calls/iter"]
    points = counters["certificates.points_evaluated"]
    out["certificates.points_evaluated"] = [points, "count"]
    out["certificates.ns_per_point"] = [
        per(totals["certificates.verify_nondegeneracy"]["s"] * 1e9, points), "ns"]
    out["experiments.metrics.s"] = [sum(
        totals[f"experiments.{f}"]["s"]
        for f in ("region_mass_errors", "sparsity_check", "prediction_error")), "s"]
    out["experiments.replications_ok"] = [counters["experiments.replications_ok"],
                                          "count"]
    written = workload.extras([b[2] for b in batches]).get("bytes_written", 0)
    out["cli.bytes_written"] = [written, "B"]
    out["trace.spans"] = [sum(e["calls"] for e in totals.values()), "count"]
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    gm = load_gmblasso()
    workload = WORKLOADS[args.workload]
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    workload.prepare(gm, args.workdir)
    order = pool_order(args.seed, workload.pool_size)
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode == "measure":
        result.update(measure(workload, order, args.seconds, reference))
    elif args.mode == "trace":
        spans_path = os.path.join(os.path.dirname(args.workdir),
                                  f"spans-{args.workload}.tsv")
        result.update(trace(workload, order, args.seconds, reference, spans_path))
    if args.mode != "setup":
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
