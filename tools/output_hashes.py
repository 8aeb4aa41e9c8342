"""Print fingerprints of this checkout's outputs, to check a change for byte
identity.

    python3 tools/output_hashes.py > hashes.txt

Run from anywhere; it imports gmblasso from the `src/` of the checkout it
lives in.  It prints

* one sha256 per output file (meta sidecars included) and the exit code of
  `gmblasso certify` on each of the 8 `certify_d2` pool configs and of
  `gmblasso solve` on each of the 2 `solve_trace` pool configs, run exactly
  as perfbench runs them: configs and arguments come from
  `perfbench/worker.py`, which is only read;
* beside each certify's hashes, one verdict line per row of
  `certify_clauses.csv` (clause, points, violations, passed), its worst
  margin as float hex on a line of its own, and the run's points_evaluated,
  so that a diff tells a changed verdict from a last-bit move of a margin;
* every field of the clause reports of acceptance gate 5 (d = 1, s = 2 and
  s = 3, the default GridSpec), worst margins and worst points as float hex,
  and its points_evaluated;
* every `RateRow` but its runtime of `rate_sweep` on each pool entry of
  `sweep_large_n` and `sweep_small_n`, run as perfbench runs them (on 2
  worker processes), one line per row with every float as float hex.

To compare two commits, run it in a checkout of each and `diff` the outputs,
for example after `git clone -q . DIR && git -C DIR checkout -q HEAD~1`.
It takes about 10 s on a 2-core host.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_worker():
    path = os.path.join(ROOT, "perfbench", "worker.py")
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def cli_hashes(worker, gm, name: str, workdir: str):
    workload = worker.WORKLOADS[name]
    workload.prepare(gm, workdir)
    for key in range(workload.pool_size):
        with contextlib.redirect_stdout(io.StringIO()):
            _, result = workload.run(key)
        print(f"{name} {key} rc {result['rc']}")
        for fname, data in result["files"].items():
            print(f"{name} {key} {fname} {hashlib.sha256(data).hexdigest()}")
        if "certify_clauses.csv" in result["files"]:
            clause_verdicts(f"{name} {key}", result["files"])


def clause_verdicts(prefix: str, files: dict):
    """The verdict columns of certify_clauses.csv, one line per clause, and
    each worst margin as float hex on a line of its own."""
    text = files["certify_clauses.csv"].decode("utf-8")
    for row in csv.DictReader(io.StringIO(text)):
        print(f"{prefix} clause {row['clause']} points={row['points']} "
              f"violations={row['violations']} passed={row['passed']}")
        print(f"{prefix} clause {row['clause']} "
              f"worst_margin={float(row['worst_margin']).hex()}")
    meta = json.loads(files["certify_clauses.csv.meta.json"])
    print(f"{prefix} points_evaluated={meta.get('points_evaluated')}")


def hex_value(value) -> str:
    """A float as float hex, a tuple element by element, anything else by repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + ",".join(hex_value(v) for v in value) + ")"
    return repr(value)


def sweep_rows(worker, gm, name: str, workdir: str):
    """Every field but runtime of every row of each pool entry's sweep."""
    workload = worker.WORKLOADS[name]
    workload.prepare(gm, workdir)
    for key in range(workload.pool_size):
        _, report = workload.run(key)
        for row in report.rows:
            fields = " ".join(f"{f.name}={hex_value(getattr(row, f.name))}"
                              for f in dataclasses.fields(row) if f.name != "runtime")
            print(f"{name} {key} {fields}")


def gate5_reports(gm):
    """The clause reports of test_criterion_05_certificates."""
    from gmblasso import (DiscreteMeasure, DomainBox, GridSpec, KernelContext,
                          build_upsilon, lpc_constants, solve_certificates,
                          verify_nondegeneracy)
    import numpy as np

    for s, anchors_t, half_width in ((2, (-13.0, 13.0), 20.0),
                                     (3, (-27.0, 0.0, 27.0), 35.0)):
        box = DomainBox((-half_width,), (half_width,), 1.0, 1.0)
        ctx = KernelContext(1, 1.0, box)
        locs = np.array([[t, 1.0] for t in anchors_t])
        mu0 = DiscreteMeasure.from_arrays(np.full(s, 1.0 / s), locs)
        certs = solve_certificates(build_upsilon(mu0.coords, ctx))
        report = verify_nondegeneracy(certs, lpc_constants(1, s, 1.0, box), GridSpec())
        for c in report.clauses:
            point = ("None" if c.worst_point is None else
                     f"{c.worst_point.dtype}{list(c.worst_point.shape)}:"
                     + ",".join(float(v).hex() for v in c.worst_point))
            print(f"gate5 s={s} {c.name} n_points={c.n_points} "
                  f"worst_margin={c.worst_margin.hex()} worst_point={point} "
                  f"violations={c.violations} passed={c.passed}")
        print(f"gate5 s={s} all_clauses_pass={report.all_clauses_pass} "
              f"points_evaluated={report.points_evaluated}")


def main() -> int:
    worker = load_worker()
    gm = worker.load_gmblasso()
    with tempfile.TemporaryDirectory() as workdir:
        cli_hashes(worker, gm, "certify_d2", workdir)
        cli_hashes(worker, gm, "solve_trace", workdir)
        sweep_rows(worker, gm, "sweep_large_n", workdir)
        sweep_rows(worker, gm, "sweep_small_n", workdir)
    gate5_reports(gm)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
