"""Ground-truth mixtures, recovery metrics, and Monte-Carlo rate sweeps.

Estimation quality is measured by how the fitted measure distributes mass
over the near regions N_j(r_e) = {x : d(x, x_j0) <= r_e} of the true atoms:
per-region absolute mass errors, the mass landing outside every region, the
signed total-variation error, and the squared L2 distance between the fitted
and true mixture densities (all Gaussian integrals in closed form).

Rate sweeps repeat sample -> solve -> metrics over a grid of sample sizes,
with per-replication RNG streams spawned from (master_seed, n_index, rep) so
results are reproducible and independent of execution order and of how many
worker processes run them.
Slopes of log(mean error) vs log(n) are fitted by least squares on the means,
since the theory bounds expectations.
"""
from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .kernel import KernelContext, _gauss
from .geometry import near_radius, region_index_batch
from .measures import DiscreteMeasure, reparametrize, tv_norm
from .solver import (
    ObjectiveContext,
    SolverConfig,
    cpgd_solve,
    initial_measure,
    recommended_parameters,
    resolve_tau,
)

__all__ = [
    "GroundTruthMixture",
    "RegionMassReport",
    "SparsityReport",
    "RateRow",
    "AggregateRow",
    "ExperimentReport",
    "sample",
    "region_mass_errors",
    "renormalized_mass_errors",
    "prediction_error",
    "sparsity_check",
    "rate_sweep",
    "aggregate_rows",
    "fit_slopes",
]


@dataclass(frozen=True)
class GroundTruthMixture:
    """True mixture: amplitude-parametrized measure with unit total mass."""

    measure: DiscreteMeasure
    ctx: KernelContext

    def __post_init__(self):
        if self.measure.s < 1:
            raise ValueError("ground truth needs at least one component")
        if self.measure.d != self.ctx.d:
            raise ValueError("mixture dimension disagrees with context")
        if abs(float(np.sum(self.measure.weights)) - 1.0) > 1e-12:
            raise ValueError("component weights must sum to 1")
        for row in self.measure.coords:
            if not self.ctx.box.contains(row):
                raise ValueError(f"component {row.tolist()} outside the domain box")

    @property
    def s(self) -> int:
        return self.measure.s

    @property
    def d(self) -> int:
        return self.measure.d

    def omega_measure(self, tau: Optional[float] = None) -> DiscreteMeasure:
        """The reparametrized target mu_omega = W * mu0 at smoothing scale tau."""
        return reparametrize(self.measure, tau if tau is not None else self.ctx.tau,
                             "to_omega")


# samples per chunk of the index and Gaussian draws in `sample`
_SAMPLE_CHUNK = 2**16


def sample(mixture: GroundTruthMixture, n: int, seed) -> np.ndarray:
    """Draw n iid observations: component index from the weights, then a
    coordinatewise Gaussian draw. Returns an (n, d) array.

    The indices, then the normals, are drawn a chunk of _SAMPLE_CHUNK
    samples at a time, which takes the same numbers from the stream as one
    draw of all n; the indices are kept in the narrowest unsigned type, so
    little but the output grows with n."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    locs = mixture.measure.locations_array()
    d = mixture.d
    idx = np.empty(n, dtype=np.min_scalar_type(mixture.s - 1))
    for i in range(0, n, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, n - i)
        idx[i:i + size] = rng.choice(mixture.s, size=size, p=mixture.measure.weights)
    out = np.empty((n, d))
    for i in range(0, n, _SAMPLE_CHUNK):
        rows = locs[idx[i:i + _SAMPLE_CHUNK]]
        out[i:i + _SAMPLE_CHUNK] = rng.normal(rows[:, :d], rows[:, d:])
    return out


@dataclass(frozen=True)
class RegionMassReport:
    per_region: np.ndarray
    far_mass: float

    @property
    def total(self) -> float:
        return float(np.sum(self.per_region)) + self.far_mass


def region_mass_errors(mu_hat_omega: DiscreteMeasure, mu0_omega: DiscreteMeasure,
                       r_e: float, ctx: KernelContext) -> RegionMassReport:
    """Per-region |omega_j0 - mu_hat(N_j(r_e))| plus the mass outside all regions."""
    r_max = near_radius(ctx.d)
    if not (0.0 < r_e <= r_max):
        raise ValueError(f"effective radius must lie in (0, {r_max}], got {r_e}")
    anchors = mu0_omega.locations_array()
    region = region_index_batch(mu_hat_omega.locations_array(), anchors, r_e, ctx)
    w = mu_hat_omega.weights
    per = np.array([
        abs(mu0_omega.weights[j] - float(np.sum(w[region == j])))
        for j in range(mu0_omega.s)
    ])
    return RegionMassReport(per, float(np.sum(w[region == -1])))


def renormalized_mass_errors(mu_hat_omega: DiscreteMeasure, mu0: DiscreteMeasure,
                             r_e: float, ctx: KernelContext) -> np.ndarray:
    """Per-region |a_j0 - (mu_hat_omega / W)(N_j(r_e))| on the amplitude scale."""
    amp = reparametrize(mu_hat_omega, ctx.tau, "from_omega")
    return region_mass_errors(amp, mu0, r_e, ctx).per_region


def _l2_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L2(R^d) inner products of the Gaussian densities at parameter rows x, y."""
    d = x.shape[-1] // 2
    dt = x[..., None, :d] - y[..., None, :, :d]
    return _gauss(dt, x[..., None, d:] ** 2 + y[..., None, :, d:] ** 2)


def prediction_error(mu_hat_omega: DiscreteMeasure, mu0: DiscreteMeasure,
                     ctx: KernelContext) -> float:
    """Squared L2 distance between the fitted and true mixture densities."""
    amp = reparametrize(mu_hat_omega, ctx.tau, "from_omega")
    coef = np.concatenate([amp.weights, -mu0.weights])
    if len(coef) == 0:
        return 0.0
    d = (mu0 if mu0.s else amp).d
    pts = np.concatenate([
        amp.locations_array().reshape(amp.s, 2 * d),
        mu0.locations_array().reshape(mu0.s, 2 * d),
    ])
    P = _l2_cross(pts, pts)
    # fsum over the rank-1 products keeps the perfect-recovery case at ~1e-16
    val = math.fsum((coef[:, None] * coef[None, :] * P).ravel())
    return max(val, 0.0)


@dataclass(frozen=True)
class SparsityReport:
    atoms_per_region: tuple
    far_atoms: int
    exactly_one_each: bool


def sparsity_check(mu_hat_omega: DiscreteMeasure, mu0: DiscreteMeasure,
                   r: float, ctx: KernelContext) -> SparsityReport:
    """Counts recovered atoms per near region; exact recovery means one atom in
    every region and none in the far region."""
    region = region_index_batch(mu_hat_omega.coords, mu0.coords, r, ctx)
    counts = tuple(int(np.sum(region == j)) for j in range(mu0.s))
    far = int(np.sum(region == -1))
    return SparsityReport(counts, far, all(c == 1 for c in counts) and far == 0)


@dataclass(frozen=True)
class RateRow:
    n: int
    replication: int
    kappa: float
    tau: float
    ok: bool
    error: Optional[str]
    mass_errors: tuple            # per true atom at the primary radius
    far_mass: float
    mass_error_by_radius: tuple   # totals, one per requested radius
    tv_error: float
    prediction_error: float
    atoms: int
    exactly_one_each: bool
    converged: bool
    runtime: float                # wall-clock seconds; excluded from CSV output


@dataclass(frozen=True)
class AggregateRow:
    n: int
    replications_ok: int
    mean_mass_error: float
    se_mass_error: float
    mean_prediction_error: float
    se_prediction_error: float
    mean_tv_error: float
    se_tv_error: float
    sparsity_rate: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    aggregates: tuple
    slopes: dict
    n_grid: tuple
    replications: int
    effective_radii: tuple


def _mean_se(vals: np.ndarray):
    if len(vals) == 0:
        return math.nan, math.nan
    m = float(np.mean(vals))
    if len(vals) < 2:
        return m, math.nan
    return m, float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def aggregate_rows(rows: Sequence[RateRow]) -> tuple:
    """Per-n means and standard errors over the successful replications."""
    out = []
    for n in sorted({row.n for row in rows}):
        ok = [row for row in rows if row.n == n and row.ok]
        mass = np.array([r.mass_error_by_radius[0] for r in ok])
        pred = np.array([r.prediction_error for r in ok])
        tv = np.array([r.tv_error for r in ok])
        mm, ms = _mean_se(mass)
        pm, ps = _mean_se(pred)
        tm, ts = _mean_se(tv)
        rate = float(np.mean([r.exactly_one_each for r in ok])) if ok else math.nan
        out.append(AggregateRow(n, len(ok), mm, ms, pm, ps, tm, ts, rate))
    return tuple(out)


def fit_slopes(aggregates: Sequence[AggregateRow]) -> dict:
    """Least-squares slopes of log(mean error) against log(n)."""
    slopes = {}
    for key, attr in (("mass_error", "mean_mass_error"),
                      ("prediction_error", "mean_prediction_error")):
        pts = [(a.n, getattr(a, attr)) for a in aggregates
               if math.isfinite(getattr(a, attr)) and getattr(a, attr) > 0]
        if len(pts) >= 2:
            ns, means = zip(*pts)
            slopes[key] = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
        else:
            slopes[key] = math.nan
    return slopes


def _one_replication(scenario: GroundTruthMixture, n: int, n_index: int, rep: int,
                     kappa_rule: str, tau_rule: str, master_seed: int,
                     solver_cfg: SolverConfig, radii: tuple) -> RateRow:
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, n_index, rep)))
    try:
        X = sample(scenario, n, rng)
        tau = resolve_tau(tau_rule, scenario.ctx.tau, scenario.ctx.box, n)
        ctx = KernelContext(scenario.d, tau, scenario.ctx.box)
        rec = recommended_parameters(n, scenario.d, tau, ctx.box, s_hint=scenario.s)
        kappa = rec.kappa(kappa_rule)
        octx = ObjectiveContext(X, kappa, ctx)
        if solver_cfg.prune_threshold is None:
            # atoms below the regularization scale are noise; pruning at
            # kappa/2 keeps the sweep from dragging dust atoms for thousands
            # of iterations while never touching region-scale mass
            solver_cfg = replace(solver_cfg, prune_threshold=kappa / 2)
        result = cpgd_solve(initial_measure(octx, solver_cfg, rng), octx, solver_cfg)
        if result.aborted:
            raise RuntimeError(result.abort_reason or "solver aborted")
        mu_hat = result.measure
        mu0_omega = scenario.omega_measure(tau)
        primary = region_mass_errors(mu_hat, mu0_omega, radii[0], ctx)
        by_radius = (primary.total,) + tuple(
            region_mass_errors(mu_hat, mu0_omega, r_e, ctx).total
            for r_e in radii[1:]
        )
        sparsity = sparsity_check(mu_hat, scenario.measure, near_radius(ctx.d), ctx)
        return RateRow(
            n=n, replication=rep, kappa=kappa, tau=tau, ok=True, error=None,
            mass_errors=tuple(primary.per_region), far_mass=primary.far_mass,
            mass_error_by_radius=by_radius,
            tv_error=tv_norm(mu_hat) - tv_norm(mu0_omega),
            prediction_error=prediction_error(mu_hat, scenario.measure, ctx),
            atoms=mu_hat.s, exactly_one_each=sparsity.exactly_one_each,
            converged=result.converged, runtime=time.perf_counter() - start,
        )
    except Exception as exc:  # failures are recorded, never fatal to the sweep
        return RateRow(
            n=n, replication=rep, kappa=math.nan, tau=math.nan, ok=False,
            error=f"{type(exc).__name__}: {exc}", mass_errors=(),
            far_mass=math.nan, mass_error_by_radius=(math.nan,) * len(radii),
            tv_error=math.nan, prediction_error=math.nan, atoms=0,
            exactly_one_each=False, converged=False,
            runtime=time.perf_counter() - start,
        )


def _fork_context():
    """The fork start method, or None where forking is unavailable or unsafe.

    A fork copies only the calling thread, so a lock another thread holds at
    that moment stays held in the child forever; fork only while this is the
    process's sole thread.  Spawn would re-import numpy and the package in
    every worker, about 0.3 s each.
    """
    if threading.active_count() > 1:
        return None
    import multiprocessing   # here, not at the top: see _process_pool

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _process_pool(max_workers: int, mp_context):
    """A process pool of max_workers processes started from mp_context.

    The pool's modules (logging, subprocess, socket, queue among them) are
    imported only when a sweep runs in parallel, not by every import of the
    package and every command."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, mp_context=mp_context)


def rate_sweep(scenario: GroundTruthMixture, n_grid: Sequence[int],
               replications: int, kappa_rule: str, tau_rule: str, seed: int,
               threads: int = 1, solver: Optional[SolverConfig] = None,
               effective_radii: Optional[Sequence[float]] = None) -> ExperimentReport:
    """Monte-Carlo sweep over sample sizes; see the module docstring for the
    seeding and aggregation rules.

    `threads` is the number of worker processes, the calling process being one
    of them: with w = min(threads, jobs, cpu_count) workers, the caller runs
    every job k with k % w == 0 itself and w - 1 forked processes run the
    rest.  w = 1 (or no fork) runs every job in the caller and starts no
    process.  Rows are the same for every w, runtime excepted.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n_grid = tuple(int(n) for n in n_grid)
    if len(set(n_grid)) < len(n_grid):
        raise ValueError(f"n_grid repeats a sample size: {n_grid}")
    radii = tuple(effective_radii) if effective_radii else (near_radius(scenario.d),)
    solver_cfg = solver if solver is not None else SolverConfig()
    args = [(scenario, n, i, rep, kappa_rule, tau_rule, seed, solver_cfg, radii)
            for i, n in enumerate(n_grid) for rep in range(replications)]

    workers = min(threads, len(args), os.cpu_count() or 1)
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        rows = tuple(_one_replication(*a) for a in args)
    else:
        with _process_pool(workers - 1, ctx) as pool:
            futures = {k: pool.submit(_one_replication, *a)
                       for k, a in enumerate(args) if k % workers}
            own = {k: _one_replication(*a)
                   for k, a in enumerate(args) if k % workers == 0}
            rows = tuple(futures[k].result() if k % workers else own[k]
                         for k in range(len(args)))  # ordered reduce

    aggregates = aggregate_rows(rows)
    return ExperimentReport(
        rows=rows, aggregates=aggregates, slopes=fit_slopes(aggregates),
        n_grid=n_grid, replications=replications, effective_radii=radii,
    )
