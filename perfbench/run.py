"""gmblasso benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; gmblasso is imported from its ``src/``.
Workloads are listed in BENCHMARK.json and described in perfbench/README.md.

``--trace 0`` starts SETUP_PROBES fresh processes that only import gmblasso
and build the inputs, then one that also runs the workload untraced for about
T seconds.  It prints the end-to-end metrics.  ``--trace 1`` starts one
process that runs the workload under the span tracer and prints the
per-layer metrics.  Each process runs with the BLAS thread pools pinned to 1.

The output is a table, an ``env`` line and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
non-zero, with no JSON line, when the workload cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Set-up is timed in this many extra processes besides the measuring one.
SETUP_PROBES = 2
# Every run must end within 180 s; worker processes are killed after this.
DEADLINE_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, workdir: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile_report(times):
    """(p50, p90 or None, samples beyond p90): p90 only with >= 10 beyond it."""
    p50 = statistics.median(times)
    if len(times) < 2:
        return p50, None, 0
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(t > p90 for t in times)
    return p50, (p90 if beyond >= 10 else None), beyond


def end_to_end(args, workdir, deadline):
    probes = [spawn(args, "setup", workdir, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = spawn(args, "measure", workdir, deadline)
    setups = probes + [res["setup_s"]]
    times = res["op_times"]
    p50, p90, beyond = percentile_report(times)
    metrics = {
        "setup_s": [statistics.median(setups), "s"],
        "op_s_p50": [p50, "s"],
        "ops_per_s": [res["ops_per_s"], "1/s"],
        "peak_rss_mb": [res["peak_rss_mb"], "MB"],
    }
    # the same numbers under the names users of each workload know them by
    error_rate = res["failed"] / res["attempted"]
    table = [("setup_s", statistics.median(setups), "s",
              f"median of {len(setups)} fresh processes")]
    if args.workload.startswith("sweep"):
        table += [
            ("sweep_reps_per_s", res["ops_per_s"], "1/s",
             f"{len(times)} replications in {res['measured_s']:.2f} s"),
            ("rep_s_p50", p50, "s", f"{len(times)} samples"),
            ("rep_s_p90", p90, "s", f"{beyond} samples beyond it"),
            ("mass_error_mean", res["extras"]["mass_error_mean"], "", ""),
        ]
    else:
        name = "solve_s" if args.workload == "solve_trace" else "certify_s"
        table += [(name, p50, "s", f"median of {len(times)} calls"),
                  ("calls_per_s", res["ops_per_s"], "1/s", "")]
    table += [("peak_rss_mb", res["peak_rss_mb"], "MB", "measuring process"),
              ("error_rate", error_rate, "",
               f"{res['failed']} failed of {res['attempted']}")]
    return metrics, table, res


def traced(args, workdir, deadline):
    res = spawn(args, "trace", workdir, deadline)
    layers = res["per_layer"]
    # where the time went: shares of all self time.  rate_sweep's self time
    # is its calling thread waiting for the pool, so it is left out.
    selfs = sorted(((value, name[:-len(".self_s")]) for name, (value, _unit)
                    in layers.items() if name.endswith(".self_s")
                    and name != "experiments.rate_sweep.self_s"), reverse=True)
    total = sum(value for value, _name in selfs) or 1.0
    table = [(f"{name} self share", value / total, "", f"{value:.4g} s self")
             for value, name in selfs[:5]]
    table += [(f"{name} share with children", layers[f"{name}.s"][0] / total, "",
               f"{layers[f'{name}.s'][0]:.4g} s") for name in (
        "kernel.data_witness", "solver.fidelity_constant",
        "certificates.verify_nondegeneracy")]
    table += [(name, *layers[name], "") for name in (
        "solver.witness_calls_per_iter", "experiments.thread_speedup",
        "trace.overhead_frac")]
    table.append(("error_rate", res["failed"] / res["attempted"], "",
                  f"{res['failed']} failed of {res['attempted']}"))
    return layers, table, res


def declared(section: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gmblasso benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gmblasso", "__init__.py")):
        print(f"benchmark: no gmblasso sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, table, res = traced(args, workdir, deadline)
            section = "per_layer"
        else:
            metrics, table, res = end_to_end(args, workdir, deadline)
            section = "end_to_end"
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {}
    for spec in declared(section):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != declared {spec['unit']}")
        result[spec["name"]] = {"value": value, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, value, unit, note in table:
        shown = "not reported" if value is None else f"{value:.6g} {unit}".rstrip()
        print(f"  {name:<48} {shown:<22} {note}")
    for message in res["failures"]:
        print(f"  FAILED: {message}")
    print("env " + json.dumps({**res["env"], "seed": args.seed}, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
