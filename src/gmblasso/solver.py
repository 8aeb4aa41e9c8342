"""Closed-form objective over sparse measures and conic particle descent.

In the omega parametrization the objective is pure kernel algebra,

    J(mu_w) = 1/2 [ C + sum_jl w_j w_l K(x_j, x_l) - 2 sum_j w_j witness(x_j) ]
              + kappa * sum_j w_j,

with the data constant C = (1/n^2) sum_ii' lambda(X_i - X_i').  C does not
influence the optimization, so the iteration tracks the C-free core value and
the constant is computed lazily only when a full objective value is actually
requested.  The witness comes from a Hermite moment table of the samples when
its work per target is below the direct sum's (kernel.choose_table).  C comes
from a second table's sum over pairs of cells, whose work, cells^2 p^(d+1),
does not grow with n, when that undercuts the n^2 pair sum
(kernel.choose_pair_table).

The solver performs multiplicative (conic) weight updates w <- w e^{-eta_w g}
and metric-preconditioned position updates x <- clip(x - eta_x g_x^{-1} grad),
with joint backtracking, so accepted moves never increase the objective; the
final prune is the one move not judged (cpgd_solve).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _from_halfplane, _halfplane, metric_diag_batch, near_radius
from .kernel import (
    KernelContext,
    MomentTable,
    _sample_matrix,
    choose_pair_table,
    choose_table,
    data_witness,
    grad1_batch,
    kernel_values,
    lambda_sum,
    semi_distance_pairs,
)
from .measures import DiscreteMeasure, weight_function

__all__ = [
    "ObjectiveContext",
    "SolverConfig",
    "SolverConfigError",
    "TraceRow",
    "SolverResult",
    "RecommendedParameters",
    "objective",
    "objective_gradient",
    "initial_measure",
    "cpgd_solve",
    "prune_merge",
    "acceptance_check",
    "recommended_parameters",
    "resolve_tau",
]


class ObjectiveContext:
    """Samples, regularization strength, kernel context, the moment table of
    the data terms (None: direct sums) and the cached data constant."""

    def __init__(self, samples: np.ndarray, kappa: float, ctx: KernelContext):
        X = _sample_matrix(samples)
        if X.shape[0] < 1:
            raise ValueError("need at least one sample")
        if X.shape[1] != ctx.d:
            raise ValueError("sample dimension disagrees with kernel context")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite sample")
        if not (kappa > 0 and math.isfinite(kappa)):
            raise ValueError("kappa must be positive and finite")
        self.samples = X
        self.kappa = float(kappa)
        self.ctx = ctx
        # the witness is evaluated at u >= u_min, so at widths
        # sqrt(2 (u^2 + tau^2)) >= sqrt(2 (u_min^2 + tau^2))
        self.table: Optional[MomentTable] = choose_table(
            X, math.sqrt(2 * (ctx.box.u_min**2 + ctx.tau**2)))
        self._fidelity_constant: Optional[float] = None

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def fidelity_constant(self) -> float:
        """C = (1/n^2) sum_{i,i'} lambda(X_i - X_i'), computed once per dataset."""
        if self._fidelity_constant is None:
            X = self.samples
            table = choose_pair_table(X, math.sqrt(2.0) * self.ctx.tau)
            self._fidelity_constant = lambda_sum(X, self.ctx, table) / self.n**2
        return self._fidelity_constant


def objective_gradient(w: np.ndarray, pts: np.ndarray, octx: ObjectiveContext):
    """J - C/2 of the atoms with weights w (s,) at rows pts (s, 2d), and its
    analytic gradients (dJ/dw_j, dJ/dx_j), shapes (s,) and (s, 2d), from one
    pass of each kernel term."""
    if len(w) == 0:
        return 0.0, np.zeros(0), np.zeros_like(pts, dtype=float)
    K = kernel_values(pts[:, None, :], pts[None, :, :], octx.ctx)
    G1 = grad1_batch(pts[:, None, :], pts[None, :, :], octx.ctx)   # (s, s, 2d)
    wit, wit_grad = data_witness(pts, octx.samples, octx.ctx, with_gradient=True,
                                 table=octx.table)
    J = 0.5 * float(w @ K @ w) - float(w @ wit) + octx.kappa * float(np.sum(w))
    grad_w = K @ w - wit + octx.kappa
    grad_x = w[:, None] * (np.einsum("l,jld->jd", w, G1) - wit_grad)
    return J, grad_w, grad_x


def objective(mu_omega: DiscreteMeasure, octx: ObjectiveContext) -> float:
    """Full objective value J(mu_omega)."""
    J = objective_gradient(mu_omega.weights, mu_omega.coords, octx)[0]
    return J + 0.5 * octx.fidelity_constant


# the objective builds (s, s, 2d) kernel arrays over the s <= max_particles
# atoms; at this bound one evaluation peaks near 0.1 GB in d = 1, 0.25 GB in d = 3
_MAX_PARTICLES = 1024


class SolverConfigError(ValueError):
    """A SolverConfig value out of range; `field` names the setting."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SolverConfig:
    """Particle-descent settings; None values resolve to scale-aware defaults.

    merge_radius defaults to 0.05 * near_radius(d); prune_threshold to
    1e-6 * tv_norm of the current iterate.
    """

    max_particles: int = 8
    iterations: int = 400
    step_w: float = 0.5
    step_x: float = 2.0
    merge_radius: Optional[float] = None
    prune_threshold: Optional[float] = None
    merge_period: int = 25
    tolerance: float = 1e-11
    patience: int = 20
    max_backtracks: int = 30

    def __post_init__(self):
        if not 1 <= self.max_particles <= _MAX_PARTICLES:
            raise SolverConfigError("max_particles",
                                    f"need 1 <= max_particles <= {_MAX_PARTICLES}, "
                                    f"got {self.max_particles}")
        if self.iterations < 1:
            raise SolverConfigError("iterations", "need iterations >= 1")
        if self.patience < 1:
            raise SolverConfigError("patience", "need patience >= 1")
        if self.max_backtracks < 0:
            raise SolverConfigError("max_backtracks", "need max_backtracks >= 0")
        if self.merge_period < 0:
            raise SolverConfigError("merge_period", "need merge_period >= 0")
        for name in ("step_w", "step_x"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise SolverConfigError(name, "step sizes must be positive and finite")
        for name in ("tolerance", "merge_radius", "prune_threshold"):
            value = getattr(self, name)
            if value is not None and not (value >= 0 and math.isfinite(value)):
                raise SolverConfigError(name, f"{name} must be nonnegative and finite")


def _resolved_merge_radius(cfg: SolverConfig, d: int) -> float:
    if cfg.merge_radius is not None:
        return cfg.merge_radius
    return 0.05 * near_radius(d)


@dataclass(frozen=True)
class TraceRow:
    """One iteration; objective is the C-free core J - C/2."""

    iteration: int
    objective: float
    tv: float
    step_w: float
    step_x: float
    atoms: int


@dataclass(frozen=True)
class SolverResult:
    """converged and stalled both mean the patience window ran out; stalled
    says some iteration in that window failed every backtrack."""

    measure: DiscreteMeasure
    trace: tuple[TraceRow, ...]
    converged: bool
    stalled: bool
    aborted: bool
    abort_reason: Optional[str]
    iterations_run: int


def initial_measure(octx: ObjectiveContext, cfg: SolverConfig,
                    rng: np.random.Generator) -> DiscreteMeasure:
    """Data-driven start: means from a random sample subset, u at the
    geometric mid-scale, uniform weights at amplitude 1/K.

    The subset is chosen by farthest-first traversal of a random pool so
    the K starting atoms cover every sample cluster the pool touches.  A
    plain uniform draw misses an entire mode with probability ~ (1-p)^K,
    and particles cannot cross the exponentially flat gap between
    well-separated modes afterwards.
    """
    X = octx.samples
    box = octx.ctx.box
    K = cfg.max_particles
    pool_size = min(X.shape[0], max(8 * K, 64))
    pool_idx = rng.choice(X.shape[0], size=pool_size, replace=False)
    t_pool = np.clip(X[pool_idx], box.t_lo, box.t_hi)
    u_pool = np.full((pool_size, octx.ctx.d), math.sqrt(box.u_min * box.u_max))
    pool = np.concatenate([t_pool, u_pool], axis=1)
    if K >= pool_size:
        extra = rng.choice(pool_size, size=K - pool_size, replace=True)
        pts = np.concatenate([pool, pool[extra]], axis=0)
    else:
        chosen = [0]
        best = semi_distance_pairs(pool, np.broadcast_to(pool[0], pool.shape), octx.ctx)
        for _ in range(K - 1):
            nxt = int(np.argmax(best))
            chosen.append(nxt)
            dist = semi_distance_pairs(pool, np.broadcast_to(pool[nxt], pool.shape), octx.ctx)
            best = np.minimum(best, dist)
        pts = pool[np.array(chosen)]
    w = weight_function(pts, octx.ctx.tau) / K
    return DiscreteMeasure.from_arrays(np.atleast_1d(w), pts)


def _halfplane_merge(pts: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    """Weight-weighted midpoint in half-plane coordinates (t, sqrt(u^2+tau^2/2))."""
    share = w / w.sum() if w.sum() > 0 else np.full(len(w), 1.0 / len(w))
    t, h = _halfplane(pts, tau)
    return _from_halfplane(share @ t, share @ h, tau)


def _prune(w: np.ndarray, pts: np.ndarray, cfg: SolverConfig):
    """Atoms at or above the prune threshold."""
    thr = cfg.prune_threshold if cfg.prune_threshold is not None \
        else 1e-6 * float(np.sum(w))
    keep = w >= thr
    return w[keep], pts[keep]


def _merge(w: np.ndarray, pts: np.ndarray, cfg: SolverConfig, ctx: KernelContext):
    """Merge the closest pair while it lies within the merge radius."""
    radius = _resolved_merge_radius(cfg, ctx.d)
    while len(w) >= 2:
        iu, ju = np.triu_indices(len(w), k=1)
        dist = semi_distance_pairs(pts[iu], pts[ju], ctx)
        k = int(np.argmin(dist))
        if dist[k] > radius:
            break
        i, j = int(iu[k]), int(ju[k])
        merged = _halfplane_merge(pts[[i, j]], w[[i, j]], ctx.tau)
        keep = np.ones(len(w), dtype=bool)
        keep[[i, j]] = False
        pts = np.concatenate([pts[keep], merged[None, :]])
        w = np.concatenate([w[keep], [w[i] + w[j]]])
    return w, pts


def prune_merge(w: np.ndarray, pts: np.ndarray, cfg: SolverConfig,
                ctx: KernelContext):
    """Drop dust atoms, then merge pairs closer than the merge radius; the
    atoms are weights (s,) at rows (s, 2d), returned as (w, pts)."""
    return _merge(*_prune(w, pts, cfg), cfg, ctx)


_Point = namedtuple("_Point", "w pts J gw gx")   # w (s,), pts (s, 2d), J - C/2, dJ/dw, dJ/dx


def _move(cur: _Point, w, pts, octx: ObjectiveContext):
    """The acceptance rule of cpgd_solve: (the point kept, the candidate's J)."""
    J, gw, gx = objective_gradient(w, pts, octx)
    if math.isfinite(J) and J <= cur.J:
        return _Point(w, pts, J, gw, gx), J
    return cur, J


def _fewer_atoms(cur: _Point, moves, cfg, octx: ObjectiveContext):
    """cur after the first candidate move(w, pts, cfg, ctx) of `moves` that is
    kept; one with as many atoms as cur is cur itself and ends the list."""
    for move in moves:
        w, pts = move(cur.w, cur.pts, cfg, octx.ctx)
        if len(w) == len(cur.w):
            break
        new, _ = _move(cur, w, pts, octx)
        if new is not cur:
            return new
    return cur


def cpgd_solve(init: DiscreteMeasure, octx: ObjectiveContext,
               cfg: SolverConfig) -> SolverResult:
    """Conic particle gradient descent from an explicit initial measure.

    Every move is judged by `_move`, which keeps it if its J is finite and not
    above the current J, but the final prune: that is unconditional, and may
    raise J, until the weights are re-solved on the support it keeps."""
    if init.s == 0:
        raise ValueError("empty initial measure: conic descent cannot create mass")
    box = octx.ctx.box
    pts = init.locations_array()
    if not box.contains(pts, atol=1e-9):
        raise ValueError("initial atom outside the domain box")

    cur = _Point(init.weights, pts, *objective_gradient(init.weights, pts, octx))
    if not math.isfinite(cur.J):
        return SolverResult(init, (), False, False, True,
                            "non-finite objective at initialization", 0)

    trace: list[TraceRow] = []
    eta_w, eta_x = cfg.step_w, cfg.step_x
    lo, hi = box.lower(), box.upper()
    still, last_failed = 0, -cfg.patience
    converged = stalled = aborted = merge_step = False
    reason = None

    for it in range(1, cfg.iterations + 1):
        if not (np.all(np.isfinite(cur.gw)) and np.all(np.isfinite(cur.gx))):
            aborted, reason = True, f"non-finite gradient at iteration {it}"
            break
        ginv = 1.0 / metric_diag_batch(cur.pts, octx.ctx.tau)
        drop = 0.0
        for _ in range(cfg.max_backtracks + 1):
            new, J_try = _move(cur, cur.w * np.exp(np.clip(-eta_w * cur.gw, -60.0, 60.0)),
                               np.clip(cur.pts - eta_x * ginv * cur.gx, lo, hi), octx)
            if not math.isfinite(J_try):
                aborted, reason = True, f"non-finite objective at iteration {it}"
                break
            if new is not cur:
                drop, cur = cur.J - J_try, new
                eta_w, eta_x = min(2 * eta_w, cfg.step_w), min(2 * eta_x, cfg.step_x)
                break
            eta_w, eta_x = eta_w / 2, eta_x / 2
        else:
            last_failed = it
        if aborted:
            break

        merge_step = cfg.merge_period > 0 and it % cfg.merge_period == 0
        if merge_step:
            # a prune that drops nothing makes prune_merge the merge alone
            pruned = len(_prune(cur.w, cur.pts, cfg)[0]) < len(cur.w)
            cur = _fewer_atoms(cur, (prune_merge, _merge) if pruned else (prune_merge,),
                               cfg, octx)
        trace.append(TraceRow(it, cur.J, float(cur.w.sum()), eta_w, eta_x, len(cur.w)))

        still = still + 1 if drop <= cfg.tolerance * max(1.0, abs(cur.J)) else 0
        if still >= cfg.patience:
            stalled = last_failed > it - cfg.patience
            converged = not stalled
            break

    w, pts = _prune(cur.w, cur.pts, cfg)   # the final prune, the one move not judged
    final = cur if len(w) == len(cur.w) else \
        _Point(w, pts, *objective_gradient(w, pts, octx))
    # if the prune dropped nothing, the last merge step judged this merge (an
    # abort after it does not move the point)
    if final is not cur or not merge_step:
        cur = _fewer_atoms(final, (_merge,), cfg, octx)
    return SolverResult(DiscreteMeasure.from_arrays(cur.w, cur.pts), tuple(trace),
                        converged, stalled, aborted, reason, it)


def acceptance_check(mu_hat: DiscreteMeasure, mu0_omega: DiscreteMeasure,
                     octx: ObjectiveContext) -> bool:
    """Approximate-solution test: J(mu_hat) <= J(mu0_omega) + 1e-12 |J(mu0_omega)|."""
    ref = objective(mu0_omega, octx)
    return objective(mu_hat, octx) <= ref + 1e-12 * abs(ref)


@dataclass(frozen=True)
class RecommendedParameters:
    rho_n: float
    kappa_agnostic: float
    kappa_s_dependent: Optional[float]
    kappa_small_reg: float
    tau_prediction: float

    def kappa(self, rule: str) -> Optional[float]:
        """The regularization strength named by a kappa rule."""
        table = {"agnostic": self.kappa_agnostic,
                 "s_dependent": self.kappa_s_dependent,
                 "small_reg": self.kappa_small_reg}
        if rule not in table:
            raise ValueError(f"unknown kappa rule {rule!r}")
        return table[rule]


def _tau_prediction(n: int, box) -> float:
    return math.sqrt(2.0) * box.u_min / math.sqrt(math.log(n))


def recommended_parameters(n: int, d: int, tau: float, box,
                           s_hint: Optional[int] = None) -> RecommendedParameters:
    """Noise scale rho_n and the regularization/smoothing recommendations."""
    if n < 2:
        raise ValueError("parameter recommendations need n >= 2")
    rho = math.sqrt(4.0 / ((2 * math.pi) ** (d / 2) * tau**d * n))
    kappa_s = rho / math.sqrt(2 * s_hint) if s_hint else None
    return RecommendedParameters(
        rho_n=rho,
        kappa_agnostic=rho / math.sqrt(2.0),
        kappa_s_dependent=kappa_s,
        kappa_small_reg=rho**2,
        tau_prediction=_tau_prediction(n, box),
    )


def resolve_tau(tau_rule: str, tau: Optional[float], box, n: int) -> float:
    """Smoothing scale of a run with n samples: the given tau for "fixed",
    sqrt(2) u_min / sqrt(ln n) for "prediction".  The prediction rule must
    not exceed u_min (it does for n <= 7)."""
    if tau_rule == "fixed":
        return tau
    if tau_rule != "prediction":
        raise ValueError(f"unknown tau rule {tau_rule!r}")
    tau = _tau_prediction(n, box)
    if tau > box.u_min:
        raise ValueError(f"tau_rule = prediction gives tau = {tau:.4g} > "
                         f"u_min = {box.u_min:.4g} at n = {n}")
    return tau
