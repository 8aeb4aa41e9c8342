"""Config-driven command line: certify / solve / rates / kernel-check.

Configuration grammar (UTF-8, line oriented):

    # comment
    section.key = value

Values are scalars, comma-separated lists, or (for per-atom coordinates in
d > 1) semicolon-separated rows of whitespace-separated numbers; a single
row needs no semicolon. Parse and validation problems are reported as
``config:LINE:COL: message`` and exit with status 2; failed checks exit 1;
success exits 0.

All CSV output uses shortest round-trip float formatting and ``\n``
terminators so identical configurations reproduce byte-identical files
regardless of platform or worker count. Every output file gets a
``<name>.meta.json`` sidecar carrying the fully resolved configuration.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certificates import (
    GridSpec,
    SingularSystemError,
    build_upsilon,
    lpc_constants,
    separation_check,
    solve_certificates,
    verify_nondegeneracy,
)
from .experiments import AggregateRow, GroundTruthMixture, rate_sweep, sample
from .geometry import geodesic_spec, metric_diag_batch, near_radius
from .kernel import (
    KernelContext,
    _christoffel_coeffs,
    data_witness,
    grad12_batch,
    grad1_batch,
    grad2_batch,
    hess2_batch,
    kernel_values,
    lambda_sum,
    moment_table,
    semi_distance_pairs,
)
from .measures import DiscreteMeasure, DomainBox
from .solver import (
    ObjectiveContext,
    SolverConfig,
    SolverConfigError,
    acceptance_check,
    cpgd_solve,
    initial_measure,
    recommended_parameters,
    resolve_tau,
)

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "build_run_config", "main"]


class ConfigError(Exception):
    """Configuration syntax or validation problem, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def render(self) -> str:
        if self.line:
            return f"config:{self.line}:{self.col}: {self}"
        return f"config error: {self}"


def parse_config_text(text: str) -> dict:
    """Parse `section.key = value` lines into {key: (raw_value, line, col)}."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", lineno,
                              len(line.rstrip()) + 1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        key_col = len(key_part) - len(key_part.lstrip()) + 1
        if not key or "." not in key or any(ch.isspace() for ch in key):
            raise ConfigError(f"malformed key {key!r}", lineno, key_col)
        value = value_part.strip()
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, value_col)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno, key_col)
        entries[key] = (value, lineno, value_col)
    return entries


def _tokens(s: str):
    toks = [tok for tok in s.replace(",", " ").split() if tok]
    if not toks:
        raise ValueError("empty list")
    return toks


def _to_int(s: str) -> int:
    return int(s, 10)


def _to_nonnegative(s: str) -> int:
    k = _to_int(s)
    if k < 0:
        raise ValueError(f"must be a nonnegative integer, got {k}")
    return k


def _to_dimension(s: str) -> int:
    d = _to_int(s)
    if d < 1:
        raise ValueError(f"must be at least 1, got {d}")
    return d


def _to_positive(s: str) -> float:
    x = float(s)
    if not 0 < x < math.inf:
        raise ValueError(f"must be positive and finite, got {x}")
    return x


def _to_float_list(s: str):
    return [float(tok) for tok in _tokens(s)]


def _to_weights(s: str):
    """Finite nonnegative weights that sum to 1 to within 1e-12, as
    GroundTruthMixture requires."""
    weights = _to_float_list(s)
    if not all(math.isfinite(w) for w in weights):
        raise ValueError("entries must be finite")
    if min(weights) < 0:
        raise ValueError("entries must be nonnegative")
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"entries must sum to 1, got {total!r}")
    return weights


def _to_bounds(s: str, d: int):
    """d box bounds, or one for every coordinate."""
    bounds = _to_float_list(s)
    if len(bounds) not in (1, d):
        raise ValueError(f"needs {'1 entry' if d == 1 else f'1 or {d} entries'}, "
                         f"got {len(bounds)}")
    return bounds * (d // len(bounds))


def _to_sizes(s: str):
    """Distinct sample sizes of at least 2: the sweep groups its rows by n."""
    sizes = [_to_int(tok) for tok in _tokens(s)]
    if any(n < 2 for n in sizes):
        raise ValueError("entries must be at least 2")
    for i, n in enumerate(sizes):
        if n in sizes[:i]:
            raise ValueError(f"repeats the sample size {n}")
    return sizes


def _to_radii(s: str, d: int):
    """Effective radii in (0, near_radius(d)]."""
    radii = _to_float_list(s)
    if not all(0 < r <= near_radius(d) for r in radii):
        raise ValueError(f"entries must lie in (0, {near_radius(d)}]")
    return radii


def _to_matrix(s: str, d: int):
    """Rows of d coordinates: ';'-separated rows, one value per row in d = 1,
    or a single row of d values without ';'."""
    if ";" in s:
        rows = [r for r in s.split(";") if r.strip()]
    else:
        rows = _tokens(s) if d == 1 else [s]
    out = []
    for row in rows:
        vals = _to_float_list(row)
        if len(vals) != d:
            raise ValueError(f"row {row.strip()!r} has {len(vals)} values, expected {d}"
                             + ("" if ";" in s else "; separate rows with ';'"))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("entries must be finite")
        out.append(vals)
    return out


def _to_scales(s: str, d: int):
    """_to_matrix rows of positive standard deviations."""
    rows = _to_matrix(s, d)
    if not all(v > 0 for row in rows for v in row):
        raise ValueError("entries must be positive")
    return rows


def _choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return s
    return parse


_REQUIRED = object()
_SOLVER_PARSERS = {"int": _to_int, "float": float, "Optional[float]": float}

# Every config key, in the order it is read: key -> (parser, default).  The
# parsed values are the resolved configuration recorded in each sidecar.
# The parsers in _BY_DIMENSION are called with the kernel.d read before them;
# the solver defaults are SolverConfig's own.
_KEYS = {
    "kernel.d": (_to_dimension, 1),
    "kernel.tau": (_to_positive, None),
    "kernel.tau_rule": (_choice("fixed", "prediction"), "fixed"),
    "scenario.weights": (_to_weights, _REQUIRED),
    "scenario.t": (_to_matrix, _REQUIRED),
    "scenario.u": (_to_scales, _REQUIRED),
    "scenario.box.t_lo": (_to_bounds, _REQUIRED),
    "scenario.box.t_hi": (_to_bounds, _REQUIRED),
    "scenario.box.u_min": (float, _REQUIRED),
    "scenario.box.u_max": (float, _REQUIRED),
    **{f"solver.{f.name}": (_SOLVER_PARSERS[f.type], f.default)
       for f in dataclasses.fields(SolverConfig)},
    "experiment.n": (_to_int, None),
    "experiment.n_grid": (_to_sizes, []),
    "experiment.replications": (_to_nonnegative, 1),
    "experiment.kappa_rule": (_choice("agnostic", "s_dependent", "small_reg"),
                              "agnostic"),
    "experiment.kappa": (_to_positive, None),
    "experiment.r_e": (_to_radii, None),
    "data.file": (str, None),
    "output.dir": (str, "."),
    "seed.master": (_to_nonnegative, 0),
}
_BY_DIMENSION = (_to_bounds, _to_matrix, _to_radii, _to_scales)


def _value(entries: dict, key: str, parse, default):
    """The parsed value of `key`, or its default; errors carry the position."""
    if key not in entries:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw, line, col = entries[key]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}", line, col) from None


@dataclass
class RunConfig:
    """Validated run inputs; every referenced module precondition is checked
    when this object is built, before any work starts."""

    d: int
    tau: Optional[float]
    tau_rule: str
    box: DomainBox
    mixture: GroundTruthMixture
    solver: SolverConfig
    n: Optional[int]
    n_grid: tuple
    replications: int
    kappa_rule: str
    kappa_override: Optional[float]
    effective_radii: Optional[tuple]
    data_file: Optional[str]
    out_dir: str
    seed: int
    resolved: dict = field(default_factory=dict)


def build_run_config(entries: dict) -> RunConfig:
    v = {}
    for key, (parse, default) in _KEYS.items():
        if parse in _BY_DIMENSION:
            parse = functools.partial(parse, d=v["kernel.d"])
        v[key] = _value(entries, key, parse, default)
    d, tau, radii = v["kernel.d"], v["kernel.tau"], v["experiment.r_e"]
    if tau is None and v["kernel.tau_rule"] == "fixed":
        raise ConfigError("kernel.tau is required when kernel.tau_rule = fixed")
    unknown = [key for key in entries if key not in _KEYS]
    if unknown:
        key = min(unknown, key=lambda k: entries[k][1])
        raise ConfigError(f"unknown key {key!r}", entries[key][1], 1)

    try:
        box = DomainBox(v["scenario.box.t_lo"], v["scenario.box.t_hi"],
                        v["scenario.box.u_min"], v["scenario.box.u_max"])
        if tau is not None and tau > box.u_min:
            raise ConfigError(f"kernel.tau: {tau!r} exceeds scenario.box.u_min = "
                              f"{box.u_min!r}", *entries["kernel.tau"][1:])
        weights, t_rows, u_rows = v["scenario.weights"], v["scenario.t"], v["scenario.u"]
        if len(t_rows) != len(weights) or len(u_rows) != len(weights):
            raise ValueError("scenario.t / scenario.u row counts must match "
                             "scenario.weights")
        locs = np.concatenate([np.asarray(t_rows, float),
                               np.asarray(u_rows, float)], axis=1)
        ctx = KernelContext(d, tau if tau is not None else box.u_min, box)
        mixture = GroundTruthMixture(
            DiscreteMeasure.from_arrays(np.asarray(weights, float), locs), ctx)
        solver_cfg = SolverConfig(**{key[len("solver."):]: val for key, val in v.items()
                                     if key.startswith("solver.")})
    except SolverConfigError as exc:
        # defaults are in range, so the offending value came from the config
        key = f"solver.{exc.field}"
        raise ConfigError(f"{key}: {exc}", *entries[key][1:]) from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(d=d, tau=tau, tau_rule=v["kernel.tau_rule"], box=box,
                     mixture=mixture, solver=solver_cfg, n=v["experiment.n"],
                     n_grid=tuple(v["experiment.n_grid"]),
                     replications=v["experiment.replications"],
                     kappa_rule=v["experiment.kappa_rule"],
                     kappa_override=v["experiment.kappa"],
                     effective_radii=tuple(radii) if radii is not None else None,
                     data_file=v["data.file"], out_dir=v["output.dir"],
                     seed=v["seed.master"],
                     resolved=v)


def _load_run_config(args) -> RunConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    entries = parse_config_text(text)
    if args.seed is not None:
        entries["seed.master"] = (str(args.seed), 0, 0)
    run = build_run_config(entries)
    if args.out is not None:
        run.out_dir = args.out
    return run


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:   # an existing file, or a path below one
        raise ConfigError(f"cannot create output directory: {exc}") from None


# --------------------------------------------------------------------------
# deterministic CSV / sidecar emission
# --------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header, rows, resolved: dict, extra: Optional[dict] = None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    meta = {"config": resolved}
    if extra:
        meta.update(extra)
    with open(path + ".meta.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _columns(cls, items):
    """Header and rows of a dataclass's fields, in declaration order."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, [[getattr(item, name) for name in names] for item in items]


def _point_repr(point) -> str:
    if point is None:
        return ""
    return " ".join(repr(float(v)) for v in point)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_certify(args) -> int:
    run = _load_run_config(args)
    if run.tau is None:
        raise ConfigError("kernel.tau is required for certify")
    _make_out_dir(run.out_dir)
    ctx = KernelContext(run.d, run.tau, run.box)
    mu0 = run.mixture.measure
    consts = lpc_constants(run.d, mu0.s, run.tau, run.box)
    sep = separation_check(mu0, ctx, consts)

    solutions_rows = []
    clause_rows = [(
        "separation", mu0.s * (mu0.s - 1) // 2,
        (consts.delta_tau - sep.min_semidistance) if consts.delta_tau is not None
        else -math.inf,
        "", 0 if sep.satisfied else 1, sep.satisfied,
    )]
    all_pass = sep.satisfied
    try:
        system = build_upsilon(mu0.coords, ctx)
        certs = solve_certificates(system)
        for row, (p_norm, residual) in enumerate(zip(certs.p_norm, certs.residual)):
            bound_sq = 2.0 * mu0.s if row == 0 else 2.0
            solutions_rows.append(("global" if row == 0 else "local",
                                   row - 1 if row else "", p_norm, residual,
                                   bound_sq, p_norm**2 <= bound_sq + 1e-12))
        report = verify_nondegeneracy(certs, consts, GridSpec())
        for cl in report.clauses:
            clause_rows.append((cl.name, cl.n_points, cl.worst_margin,
                                _point_repr(cl.worst_point), cl.violations,
                                cl.passed))
        all_pass = sep.satisfied and report.all_clauses_pass
        extra = {"separation_satisfied": sep.satisfied,
                 "all_clauses_pass": report.all_clauses_pass,
                 "points_evaluated": report.points_evaluated}
    except SingularSystemError as exc:
        clause_rows.append(("certificate-system", 0, math.inf, "", 1, False))
        all_pass = False
        extra = {"separation_satisfied": sep.satisfied,
                 "all_clauses_pass": False,
                 "error": f"singular certificate system ({exc})"}

    _write_csv(os.path.join(run.out_dir, "certify_clauses.csv"),
               ("clause", "points", "worst_margin", "worst_point", "violations",
                "passed"), clause_rows, run.resolved, extra)
    _write_csv(os.path.join(run.out_dir, "certify_solutions.csv"),
               ("kind", "index", "p_norm", "residual", "p_norm_sq_bound",
                "within_bound"), solutions_rows, run.resolved, extra)
    return 0 if all_pass else 1


def _cmd_solve(args) -> int:
    run = _load_run_config(args)
    _make_out_dir(run.out_dir)
    rng = np.random.default_rng(np.random.SeedSequence((run.seed, 0, 0)))

    if run.data_file is not None:
        if run.n is not None:
            raise ConfigError("give either experiment.n or data.file, not both")
        if not os.path.isfile(run.data_file):
            raise ConfigError(f"data file not found: {run.data_file}")
        try:
            # an empty file is diagnosed below; numpy's warning would come first
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                X = np.loadtxt(run.data_file, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"cannot parse data file: {exc}") from None
        n = len(X)
    else:
        if run.n is None:
            raise ConfigError("experiment.n is required when no data.file is given")
        X, n = None, run.n
    # before the column check: an empty or comment-only file loads as shape
    # (0, 1), whatever d is
    if n < 2:
        raise ConfigError("need at least 2 observations")
    if X is not None:
        if X.shape[1] != run.d:
            raise ConfigError(f"data file has {X.shape[1]} columns, expected {run.d}")
        if not np.all(np.isfinite(X)):
            raise ConfigError("data file holds a non-finite value")

    try:
        tau = resolve_tau(run.tau_rule, run.tau, run.box, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ctx = KernelContext(run.d, tau, run.box)
    if X is None:
        X = sample(run.mixture, n, rng)
    if run.kappa_override is not None:
        kappa = run.kappa_override
    else:
        rec = recommended_parameters(n, run.d, tau, run.box, s_hint=run.mixture.s)
        kappa = rec.kappa(run.kappa_rule)

    octx = ObjectiveContext(X, kappa, ctx)
    result = cpgd_solve(initial_measure(octx, run.solver, rng), octx, run.solver)
    accepted = acceptance_check(result.measure, run.mixture.omega_measure(tau), octx)

    d = run.d
    mu = result.measure
    measure_rows = [
        (i, float(w)) + tuple(float(v) for v in row)
        for i, (w, row) in enumerate(zip(mu.weights, mu.coords))
    ]
    header = ("atom", "weight") + tuple(f"t_{k}" for k in range(d)) + \
        tuple(f"u_{k}" for k in range(d))
    extra = {"n": n, "tau": tau, "kappa": kappa, "converged": result.converged,
             "stalled": result.stalled, "aborted": result.aborted,
             "abort_reason": result.abort_reason,
             "iterations_run": result.iterations_run, "acceptance": accepted}
    _write_csv(os.path.join(run.out_dir, "solve_measure.csv"), header,
               measure_rows, run.resolved, extra)
    # the trace holds the C-free core J - C/2; the file adds C/2 back
    half_c = 0.5 * octx.fidelity_constant
    trace_rows = [(row.iteration, row.objective + half_c,
                   row.objective - octx.kappa * row.tv + half_c, row.tv,
                   row.step_w, row.step_x, row.atoms) for row in result.trace]
    _write_csv(os.path.join(run.out_dir, "solve_trace.csv"),
               ("iteration", "objective", "fidelity", "tv", "step_w", "step_x",
                "atoms"), trace_rows, run.resolved, extra)
    return 0 if accepted and not result.aborted else 1


def _cmd_rates(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    run = _load_run_config(args)
    if not run.n_grid:
        raise ConfigError("experiment.n_grid must list at least one sample size")
    _make_out_dir(run.out_dir)

    report = rate_sweep(run.mixture, run.n_grid, run.replications, run.kappa_rule,
                        run.tau_rule, run.seed, threads=args.threads,
                        solver=run.solver, effective_radii=run.effective_radii)

    # every row, failed or not, has one mass error per radius
    radius_cols = tuple(f"mass_error_r{i}"
                        for i in range(1, len(report.effective_radii)))
    rows = []
    for row in report.rows:   # runtime deliberately not written: not reproducible
        first, *others = row.mass_error_by_radius
        rows.append((row.n, row.replication, row.kappa, row.tau, row.ok,
                     row.error or "", first, row.far_mass, *others,
                     row.tv_error, row.prediction_error,
                     row.atoms, row.exactly_one_each, row.converged))
    _write_csv(os.path.join(run.out_dir, "rates_replications.csv"),
               ("n", "replication", "kappa", "tau", "ok", "error", "mass_error",
                "far_mass", *radius_cols, "tv_error", "prediction_error", "atoms",
                "exactly_one_each", "converged"),
               rows, run.resolved,
               {"effective_radii": list(report.effective_radii)})

    header, agg_rows = _columns(AggregateRow, report.aggregates)
    slope_keys = ("mass_error", "prediction_error")
    slopes = [report.slopes.get(k, math.nan) for k in slope_keys]
    _write_csv(os.path.join(run.out_dir, "rates_aggregates.csv"),
               header + [f"slope_{k}" for k in slope_keys],
               [row + slopes for row in agg_rows], run.resolved,
               {"slopes": {k: repr(v) for k, v in sorted(report.slopes.items())}})
    return 0


# --------------------------------------------------------------------------
# kernel-check: randomized invariant suite
# --------------------------------------------------------------------------

def _fd_error(analytic, f, x, h=1e-5):
    """Max relative error of `analytic` against central differences of f."""
    worst = 0.0
    for b in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[..., b] += h
        xm[..., b] -= h
        fd = (f(xp) - f(xm)) / (2 * h)
        scale = np.maximum(np.abs(analytic[..., b]), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic[..., b] - fd) / scale)))
    return worst


def _kernel_check_suite(samples: int, seed: int):
    """Yields (name, max_error, tolerance, passed) for each invariant."""
    rng = np.random.default_rng(seed)
    for d in (1, 2, 3):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        m = max(2, samples // 3)
        lo, hi = box.lower(), box.upper()
        X = rng.uniform(lo, hi, size=(m, 2 * d))
        Y = rng.uniform(lo, hi, size=(m, 2 * d))

        err = float(np.max(np.abs(kernel_values(X, X, ctx) - 1.0)))
        yield f"d={d} normalization K(x,x)=1", err, 1e-12

        err = float(np.max(np.abs(kernel_values(X, Y, ctx) -
                                  kernel_values(Y, X, ctx))))
        yield f"d={d} symmetry", err, 1e-12

        kv = kernel_values(X, Y, ctx)
        err = float(np.max(np.abs(semi_distance_pairs(X, Y, ctx) -
                                  np.sqrt(np.maximum(-2 * np.log(kv), 0.0)))))
        yield f"d={d} semi-distance identity", err, 1e-10

        sub = slice(0, min(m, 64))
        Xs, Ys = X[sub], Y[sub]
        err = _fd_error(grad1_batch(Xs, Ys, ctx),
                        lambda Z: kernel_values(Z, Ys, ctx), Xs)
        yield f"d={d} grad1 vs finite differences", err, 1e-6

        err = _fd_error(grad12_batch(Xs, Ys, ctx),
                        lambda Z: grad1_batch(Xs, Z, ctx), Ys)
        yield f"d={d} grad12 vs finite differences", err, 1e-6

        err = _fd_error(hess2_batch(Xs, Ys, ctx),
                        lambda Z: grad2_batch(Xs, Z, ctx), Ys)
        yield f"d={d} hess2 vs finite differences", err, 1e-6

        M = grad12_batch(Xs, Xs, ctx)
        g = metric_diag_batch(Xs, ctx.tau)
        err = float(np.max(np.abs(M - g[..., None, :] * np.eye(2 * d))))
        yield f"d={d} metric = grad12 at coincidence", err, 1e-10

        err = _christoffel_fd_error(Xs, ctx)
        yield f"d={d} christoffel vs metric derivatives", err, 1e-6

        ends = geodesic_spec(X[:200], Y[:200], ctx).point(np.array([0.0, 1.0]))
        err = float(np.max(np.abs(ends - np.stack([X[:200], Y[:200]], axis=1))))
        yield f"d={d} geodesic endpoints", err, 1e-10

        W = rng.normal(size=(min(m, 32), d))
        vec = data_witness(Xs, W, ctx)
        loop = np.array([data_witness(x[None], W, ctx)[0] for x in Xs])
        err = float(np.max(np.abs(vec - loop)))
        yield f"d={d} witness vectorization", err, 1e-12

        # errors relative to the largest direct value or gradient entry
        table = moment_table(W, math.sqrt(2 * (box.u_min**2 + ctx.tau**2)))
        val, grad = data_witness(Xs, W, ctx, with_gradient=True)
        t_val, t_grad = data_witness(Xs, W, ctx, with_gradient=True, table=table)
        err = max(float(np.max(np.abs(t_val - val)) / np.max(np.abs(val))),
                  float(np.max(np.abs(t_grad - grad)) / np.max(np.abs(grad))))
        yield f"d={d} witness table vs direct sum", err, 1e-12

        pairs = lambda_sum(W, ctx)
        table = moment_table(W, math.sqrt(2.0) * ctx.tau)
        err = abs(lambda_sum(W, ctx, table) - pairs) / pairs
        yield f"d={d} C table vs pair sum", err, 1e-13


def _christoffel_fd_error(X, ctx) -> float:
    """Checks the closed-form connection coefficients against centered
    differences of the metric: Gamma^t_{tu} = g_t'/(2 g_t),
    Gamma^u_{tt} = -g_t'/(2 g_u), Gamma^u_{uu} = g_u'/(2 g_u)."""
    d = X.shape[-1] // 2
    u = X[..., d:]
    h = 1e-6
    gt, gu_tt, gu_uu = _christoffel_coeffs(X, ctx.tau)

    def metric(uu):
        Z = X.copy()
        Z[..., d:] = uu
        return metric_diag_batch(Z, ctx.tau)

    dg = (metric(u + h) - metric(u - h)) / (2 * h)
    g = metric_diag_batch(X, ctx.tau)
    ref_t = dg[..., :d] / (2 * g[..., :d])
    ref_u_tt = -dg[..., :d] / (2 * g[..., d:])
    ref_u_uu = dg[..., d:] / (2 * g[..., d:])
    err = max(
        float(np.max(np.abs(gt - ref_t) / np.maximum(np.abs(ref_t), 1.0))),
        float(np.max(np.abs(gu_tt - ref_u_tt) / np.maximum(np.abs(ref_u_tt), 1.0))),
        float(np.max(np.abs(gu_uu - ref_u_uu) / np.maximum(np.abs(ref_u_uu), 1.0))),
    )
    return err


def _cmd_kernel_check(args) -> int:
    if args.samples <= 0:
        raise ConfigError(f"--samples must be a positive integer, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    failures = 0
    for name, err, tol in _kernel_check_suite(args.samples, args.seed):
        ok = err < tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max error {err:.3e} "
              f"(tolerance {tol:.0e})")
    total_suites = "all checks passed" if failures == 0 else \
        f"{failures} check(s) failed"
    print(f"kernel-check: {total_suites}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gmblasso",
        description="Sparse Gaussian-mixture estimation via reparametrized "
                    "total-variation regularization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("certify", _cmd_certify), ("solve", _cmd_solve),
                     ("rates", _cmd_rates)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to run config")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "rates":
            sp.add_argument("--threads", type=int, default=1,
                            help="worker processes; the calling process is one "
                                 "of them")
        sp.set_defaults(fn=fn)
    kc = sub.add_parser("kernel-check")
    kc.add_argument("--samples", type=int, default=3000,
                    help="random pairs per dimension")
    kc.add_argument("--seed", type=int, default=0)
    kc.set_defaults(fn=_cmd_kernel_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(exc.render(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
