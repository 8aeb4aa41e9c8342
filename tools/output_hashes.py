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
* the same fields of `verify_nondegeneracy` in d = 1 and d = 2 with
  u_min < u_max at reduced GridSpecs (see `u_range_reports`), where the
  grids have u axes longer than 1, which no pool config has, and with
  anchors at opposite corners of the box, whose near grids the box cuts;
* for each anchor of those cases and of the 8 `certify_d2` pool configs, the
  sha256 of its geodesic ray rows as `_ray_blocks` yields them, before the
  box filter (see `ray_hashes`);
* every `RateRow` but its runtime of `rate_sweep` on each pool entry of
  `sweep_large_n` and `sweep_small_n`, run as perfbench runs them (on 2
  worker processes), one line per row with every float as float hex;
* the weights, the coordinates and every trace row's objective, as float
  hex, of four `cpgd_solve` runs that together reach every branch of the
  solver's moves (see `solver_runs`), which the perfbench pools do not: the
  pools never reach the final prune or the final merge;
* every (name, max_error, tolerance) that the kernel-check suite yields at
  300 samples and seed 0, errors and tolerances as float hex.  It reaches
  `grad2_batch` (through the hess2 check), `moment_table` in d = 3, and the
  table and pair-sum paths of the data constant C;
* the sha256 of the value bytes of a value-only call and of the value and
  gradient bytes of a value-and-gradient call of a table `data_witness` on
  the separated scenario at n = 1e5, at 8 targets and at 2000 targets, more
  than one target chunk of the table's evaluation (see `table_witness`).

To compare two commits, run it in a checkout of each and `diff` the outputs,
for example after `git clone -q . DIR && git -C DIR checkout -q HEAD~1`.
When the older commit's copy of this tool prints fewer cases, copy this one
over it first (`cp tools/output_hashes.py DIR/tools/`): it calls the public
API, perfbench's worker and three certificate helpers whose signatures have
not changed (`_near_bounding_axes`, `_ray_targets`, `_ray_blocks`), so it
runs in older checkouts too.
It takes about 6 s on a 2-core host.
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


def ray_hashes(gm, prefix: str, anchors, ctx, r: float, spec):
    """Per anchor, the sha256 of its ray rows: the blocks of _ray_blocks
    concatenated, before verify_nondegeneracy's box filter."""
    import numpy as np

    certificates = gm.certificates
    ys = np.linspace(0.0, 1.0, spec.points_per_ray + 1)[1:]
    for j, a in enumerate(anchors):
        nt, nu = certificates._near_bounding_axes(a, r, ctx, spec)
        targets = certificates._ray_targets(nt, nu, spec.rays_per_region)
        rows = np.concatenate([np.empty((0, 2 * ctx.d))]
                              + list(certificates._ray_blocks(a, targets, ys, ctx)))
        print(f"{prefix} rays anchor={j} rows={len(rows)} "
              f"sha256={hashlib.sha256(rows.tobytes()).hexdigest()}")


def certify_rays(worker, gm):
    """ray_hashes of each certify_d2 pool config, at the default GridSpec."""
    workload = worker.WORKLOADS["certify_d2"]
    for key in range(workload.pool_size):
        run = gm.cli.build_run_config(gm.cli.parse_config_text(workload.config_text(key)))
        ctx = gm.KernelContext(run.d, run.tau, run.box)
        consts = gm.lpc_constants(run.d, run.mixture.measure.s, run.tau, run.box)
        ray_hashes(gm, f"certify_d2 {key}", run.mixture.measure.coords, ctx,
                   consts.r, gm.GridSpec())


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
        consts = lpc_constants(1, s, 1.0, box)
        report = verify_nondegeneracy(certs, consts, GridSpec())
        print_report(f"gate5 s={s}", report)
        ray_hashes(gm, f"gate5 s={s}", locs, ctx, consts.r, GridSpec())


def print_report(prefix: str, report):
    """Every field of a NondegeneracyReport, floats as float hex."""
    for c in report.clauses:
        point = ("None" if c.worst_point is None else
                 f"{c.worst_point.dtype}{list(c.worst_point.shape)}:"
                 + ",".join(float(v).hex() for v in c.worst_point))
        print(f"{prefix} {c.name} n_points={c.n_points} "
              f"worst_margin={c.worst_margin.hex()} worst_point={point} "
              f"violations={c.violations} passed={c.passed}")
    print(f"{prefix} all_clauses_pass={report.all_clauses_pass} "
          f"points_evaluated={report.points_evaluated}")


def u_range_reports(gm):
    """The clause reports of verify_nondegeneracy with u_min < u_max, where
    the grids have u axes longer than 1: two anchors in d = 1 and three in
    d = 2, then two at opposite corners of the box in d = 1 and in d = 2,
    whose near grids the box cuts in t and in u, all at reduced GridSpecs
    (d = 2 at the default one is a 4e8-point global grid)."""
    import numpy as np

    box1 = gm.DomainBox((-20.0,), (20.0,), 0.5, 2.0)
    box2 = gm.DomainBox((-30.0, -30.0), (30.0, 30.0), 0.7, 1.5)
    spec1 = gm.GridSpec(near_t_points=200, near_u_points=100, global_t_points=200,
                        global_u_points=50, lowdisc_points=20_000)
    spec2 = gm.GridSpec(near_t_points=40, near_u_points=10, global_t_points=20,
                        global_u_points=10, lowdisc_points=20_000)
    cases = (
        ("u_range d=1", box1, 0.5, [[-11.0, 0.8], [12.5, 1.4]], spec1),
        ("u_range d=2", box2, 0.7,
         [[-20.0, 0.0, 0.8, 1.2], [0.0, 18.0, 1.3, 0.9], [20.0, 0.0, 1.0, 1.0]], spec2),
        ("corners d=1", box1, 0.5, [[-20.0, 0.5], [20.0, 2.0]], spec1),
        ("corners d=2", box2, 0.7,
         [[-30.0, -30.0, 0.7, 0.7], [30.0, 30.0, 1.5, 1.5]], spec2),
    )
    for name, box, tau, anchors, spec in cases:
        ctx = gm.KernelContext(box.d, tau, box)
        anchors = np.array(anchors)
        certs = gm.solve_certificates(gm.build_upsilon(anchors, ctx))
        consts = gm.lpc_constants(box.d, len(anchors), tau, box)
        print_report(name, gm.verify_nondegeneracy(certs, consts, spec))
        ray_hashes(gm, name, anchors, ctx, consts.r, spec)


def solver_runs(gm):
    """Four cpgd_solve runs, each named by the branches it reaches:

    * `converge`: the setup of test_converges_flag_and_final_prune (60
      samples, kappa 0.05).  The periodic prune and merge is kept and
      rejected, the merge alone is kept, and the final prune removes an atom
      and raises J.
    * `small_gap`: 80 samples at +-1, 25 iterations, no pruning, merge radius
      1.5 every 3 iterations.  The periodic prune and merge is kept and
      rejected, the merge alone is rejected, and the final merge is kept.
    * `final_merge`: the setup of test_final_merge_never_raises_objective
      (merge radius 3 between components at -2 and +2).  The final merge is
      rejected.
    * `gate6`: acceptance gate 6's replication 6 at n = 1e5 (master seed 7,
      tuned solver, kappa rule agnostic, prune at kappa/2).  The periodic
      prune and merge is kept and rejected, and after 1000 iterations the
      final prune removes an atom and raises J.
    """
    import numpy as np
    from dataclasses import replace

    def ctx_of(lo, hi, u_min, u_max, tau):
        return gm.KernelContext(1, tau, gm.DomainBox((lo,), (hi,), u_min, u_max))

    def mixture(ctx, ts):
        return gm.GroundTruthMixture(gm.DiscreteMeasure.from_arrays(
            np.full(len(ts), 1.0 / len(ts)), np.array([[t, 1.0] for t in ts])), ctx)

    def runs():
        ctx = ctx_of(-5.0, 5.0, 0.5, 2.0, 0.4)
        X = np.random.default_rng(50).normal(0.0, 1.2, size=60)
        yield "converge", gm.ObjectiveContext(X, 0.05, ctx), gm.SolverConfig(
            iterations=2000, step_w=2.0, step_x=4.0, prune_threshold=0.025,
            merge_period=10, tolerance=1e-9), np.random.default_rng(0)

        rng = np.random.default_rng(31)
        X = rng.normal(rng.choice([-1.0, 1.0], size=80), 1.0)
        yield "small_gap", gm.ObjectiveContext(X, 0.05, ctx), gm.SolverConfig(
            max_particles=4, iterations=25, merge_radius=1.5, merge_period=3,
            prune_threshold=0.0), np.random.default_rng(31)

        ctx = ctx_of(-10.0, 10.0, 1.0, 1.0, 1.0)
        X = gm.sample(mixture(ctx, (-2.0, 2.0)), 5000, 0)
        kappa = gm.recommended_parameters(5000, 1, ctx.tau, ctx.box).kappa_agnostic
        yield "final_merge", gm.ObjectiveContext(X, kappa, ctx), gm.SolverConfig(
            merge_radius=3.0, merge_period=0), np.random.default_rng(0)

        ctx = ctx_of(-20.0, 20.0, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(np.random.SeedSequence((7, 4, 6)))
        X = gm.sample(mixture(ctx, (-13.0, 13.0)), 100_000, rng)
        kappa = gm.recommended_parameters(100_000, 1, ctx.tau, ctx.box,
                                          s_hint=2).kappa_agnostic
        cfg = gm.SolverConfig(iterations=1000, step_w=4.0, step_x=8.0,
                              merge_radius=0.605, merge_period=10)
        yield "gate6", gm.ObjectiveContext(X, kappa, ctx), \
            replace(cfg, prune_threshold=kappa / 2), rng

    for name, octx, cfg, rng in runs():
        res = gm.cpgd_solve(gm.initial_measure(octx, cfg, rng), octx, cfg)
        print(f"solver {name} iterations_run={res.iterations_run} "
              f"converged={res.converged} stalled={res.stalled} "
              f"aborted={res.aborted} atoms={res.measure.s}")
        print(f"solver {name} weights=" + hex_value(tuple(res.measure.weights.tolist())))
        for j, row in enumerate(res.measure.coords.tolist()):
            print(f"solver {name} coords {j}=" + hex_value(tuple(row)))
        for row in res.trace:
            print(f"solver {name} trace {row.iteration} objective={row.objective.hex()}")


def kernel_check_values(gm):
    """Every value of the kernel-check suite at 300 samples and seed 0."""
    import gmblasso.cli

    for name, err, tol in gmblasso.cli._kernel_check_suite(300, 0):
        print(f"kernel-check {name}: {float(err).hex()} {float(tol).hex()}")


def table_witness(gm):
    """Hashes of table witness calls on the separated scenario (weights 0.5
    at t = -13 and 13, u = 1, box [-20, 20] x [1, 1], tau = 1) at n = 1e5,
    drawn with seed 1, at 8 and at 2000 uniform targets in the box; the
    table serves widths down to sqrt(2 (u_min^2 + tau^2)), as a solve's."""
    import math

    import numpy as np

    ctx = gm.KernelContext(1, 1.0, gm.DomainBox((-20.0,), (20.0,), 1.0, 1.0))
    mixture = gm.GroundTruthMixture(gm.DiscreteMeasure.from_arrays(
        np.full(2, 0.5), np.array([[-13.0, 1.0], [13.0, 1.0]])), ctx)
    X = gm.sample(mixture, 100_000, 1)
    table = gm.kernel.moment_table(X, math.sqrt(2 * (1.0**2 + ctx.tau**2)))
    rng = np.random.default_rng(2)
    for m in (8, 2000):
        P = np.column_stack([rng.uniform(-20.0, 20.0, m), np.ones(m)])
        only = gm.data_witness(P, X, ctx, table=table)
        val, grad = gm.data_witness(P, X, ctx, with_gradient=True, table=table)
        print(f"table_witness m={m} cells={table.cells} "
              f"value_only={hashlib.sha256(only.tobytes()).hexdigest()} "
              f"value={hashlib.sha256(val.tobytes()).hexdigest()} "
              f"gradient={hashlib.sha256(grad.tobytes()).hexdigest()}")


def main() -> int:
    worker = load_worker()
    gm = worker.load_gmblasso()
    with tempfile.TemporaryDirectory() as workdir:
        cli_hashes(worker, gm, "certify_d2", workdir)
        certify_rays(worker, gm)
        cli_hashes(worker, gm, "solve_trace", workdir)
        sweep_rows(worker, gm, "sweep_large_n", workdir)
        sweep_rows(worker, gm, "sweep_small_n", workdir)
    gate5_reports(gm)
    u_range_reports(gm)
    solver_runs(gm)
    kernel_check_values(gm)
    table_witness(gm)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
