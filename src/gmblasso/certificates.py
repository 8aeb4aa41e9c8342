"""Dual-certificate construction, LPC constants, and non-degeneracy checks.

A certificate is eta(x) = sum_j alpha_j K(x_j0, x) + sum_j beta_j^T grad1
K(x_j0, x) with coefficients chosen so that eta interpolates prescribed
values (1 at every anchor for the global certificate, the j-th indicator for
local ones) with vanishing gradients.  The constraints form the symmetric
linear system Upsilon [alpha; beta] = rhs whose blocks are kernel values,
first derivatives, and mixed second derivatives at anchor pairs; Upsilon is
positive definite once the anchors are separated enough.

Verification samples the domain (tensor grids, a low-discrepancy set, and
geodesic rays inside each near region) and reports the worst margin of every
non-degeneracy clause: |eta| <= 1 - eps_0 on the far region, and quadratic
pinning eta <= 1 - eps_2 * dist_g(x, x_j0)^2 inside near regions (with the
analogous four-clause set for local certificates).  Violations are report
content, never exceptions; anchors outside the box are an error.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    _fr_total,
    fr_distance_coord,
    fr_distance_pairs,
    geodesic_spec,
    metric_diag_batch,
    near_radius,
    region_index_batch,
)
from .kernel import (
    KernelContext,
    _abc,
    _log_terms,
    _partial,
    _semi_terms,
    grad1_batch,
    grad1_rhess2_batch,
    grad2_batch,
    grad12_batch,
    kernel_grad1_batch,
    kernel_values,
    rhess2_batch,
)
from .measures import DiscreteMeasure, min_pairwise_semidistance

__all__ = [
    "CertificateSystem",
    "CertificateSet",
    "LpcConstants",
    "GridSpec",
    "SeparationReport",
    "ClauseReport",
    "NondegeneracyReport",
    "SingularSystemError",
    "build_upsilon",
    "solve_certificates",
    "certificate_values",
    "certificate_gradients",
    "lpc_constants",
    "separation_check",
    "verify_nondegeneracy",
    "operator_norms_batch",
]

_COND_LIMIT = 1e12
_RESIDUAL_TOL = 1e-9
# a sample violates a clause only beyond this margin, which absorbs
# kernel-evaluation roundoff next to the anchors
_VIOLATION_TOL = 1e-10
_EVAL_BLOCK = 4096    # sample points per block in verify_nondegeneracy


class SingularSystemError(RuntimeError):
    """Certificate system is singular or too ill-conditioned to solve."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(f"{message} (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class CertificateSystem:
    upsilon: np.ndarray
    anchors: np.ndarray         # (s, 2d)
    ctx: KernelContext

    @property
    def s(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class CertificateSet:
    """Row 0 is the global certificate, row 1 + j the local one of anchor j."""

    system: CertificateSystem
    alpha: np.ndarray           # (s+1, s)
    beta: np.ndarray            # (s+1, s, 2d)
    p_norm: np.ndarray          # (s+1,) sqrt(rhs^T coef) = RKHS norm of the witness
    residual: np.ndarray        # (s+1,) max-norm residual of the linear solve


def build_upsilon(anchors, ctx: KernelContext) -> CertificateSystem:
    """Assemble the interpolation system at anchor coordinates (s, 2d)."""
    pts = np.array(anchors, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one anchor")
    pts = np.atleast_2d(pts)
    s, dim2 = pts.shape
    if dim2 != 2 * ctx.d:
        raise ValueError("anchor dimension disagrees with kernel context")
    iu, ju = np.triu_indices(s, k=1)
    same = np.flatnonzero(np.all(pts[iu] == pts[ju], axis=1))
    if len(same):
        i, j = iu[same[0]], ju[same[0]]
        raise SingularSystemError(
            f"anchors {i} and {j} coincide; system is singular", math.inf)

    K = kernel_values(pts[:, None, :], pts[None, :, :], ctx)        # (s, s)
    G1 = grad1_batch(pts[:, None, :], pts[None, :, :], ctx)         # G1[j,i] = d1 K(x_j, x_i)
    M12 = grad12_batch(pts[:, None, :], pts[None, :, :], ctx)       # (s, s, 2d, 2d)

    # block (i, j) is [[K_ij, G1[j,i]^T], [G1[i,j], M12[j,i]^T]]
    m = 1 + dim2
    U = np.empty((s, m, s, m))
    U[:, 0, :, 0] = K
    U[:, 0, :, 1:] = G1.transpose(1, 0, 2)
    U[:, 1:, :, 0] = G1.transpose(0, 2, 1)
    U[:, 1:, :, 1:] = M12.transpose(1, 3, 0, 2)
    return CertificateSystem(U.reshape(s * m, s * m), pts, ctx)


def _solve_system(U: np.ndarray, rhs: np.ndarray):
    """Solve U X = rhs for symmetric positive definite U.

    A system that is not positive definite, or whose condition number
    reaches _COND_LIMIT, has no certificate to solve for: its residual
    would miss _RESIDUAL_TOL by orders of magnitude.  Solved by LU, not by
    eigh, whose eigenbasis mixes U's near-diagonal blocks (residuals ~1e-16)."""
    w = np.linalg.eigvalsh(U)
    lo, hi = float(w[0]), float(w[-1])
    cond = math.inf if lo <= 0 else hi / lo
    if cond >= _COND_LIMIT:
        raise SingularSystemError(
            "certificate system is singular or ill-conditioned", cond)
    X = np.linalg.solve(U, rhs)
    resid = np.abs(U @ X - rhs).max(axis=0)
    if np.any(~np.isfinite(X)) or np.max(resid) >= _RESIDUAL_TOL:
        raise SingularSystemError(
            "certificate solve residual exceeds tolerance", cond)
    return X, resid


def solve_certificates(system: CertificateSystem) -> CertificateSet:
    """Solve for the global certificate and the s local certificates."""
    s = system.s
    m = 1 + 2 * system.ctx.d
    rhs = np.zeros((s * m, s + 1))
    rhs[::m, 0] = 1.0                    # global: value 1 at every anchor
    rhs[::m, 1:] = np.eye(s)             # local j: indicator values
    X, resid = _solve_system(system.upsilon, rhs)
    coef = X.T.reshape(s + 1, s, m)
    psq = np.array([rhs[:, k] @ X[:, k] for k in range(s + 1)])
    return CertificateSet(system, coef[:, :, 0].copy(), coef[:, :, 1:].copy(),
                          np.sqrt(np.maximum(psq, 0.0)), resid)


def certificate_values(certs: CertificateSet, P: np.ndarray) -> np.ndarray:
    """eta of each certificate at coordinate rows P (m, 2d), shape (k, m).

    The gradient block (2d, s, m) flattens to (2d s, m) without a copy, so
    the beta terms of all k certificates are one GEMM."""
    pts, ctx = certs.system.anchors, certs.system.ctx
    P = np.asarray(P, dtype=float)
    return _values(certs, *kernel_grad1_batch(pts[:, None, :], P[None, :, :], ctx))


def _values(certs: CertificateSet, K: np.ndarray, G1: np.ndarray) -> np.ndarray:
    """eta of each certificate from the kernel values K (s, m) and first-
    argument gradients G1 (2d, s, m) of the anchors at m points, (k, m)."""
    beta = certs.beta.transpose(0, 2, 1).reshape(len(certs.beta), -1)  # (k, 2d s)
    return certs.alpha @ K + beta @ G1.reshape(beta.shape[1], -1)


def certificate_gradients(certs: CertificateSet, P: np.ndarray) -> np.ndarray:
    """Gradient of each certificate at coordinate rows P (m, 2d), shape (k, m, 2d)."""
    pts, ctx = certs.system.anchors, certs.system.ctx
    P = np.asarray(P, dtype=float)
    G2 = grad2_batch(pts[:, None, :], P[None, :, :], ctx)               # (s, m, 2d)
    M12 = grad12_batch(pts[:, None, :], P[None, :, :], ctx)             # (s, m, 2d, 2d)
    return (np.einsum("kj,jmd->kmd", certs.alpha, G2)
            + np.einsum("kjb,jmbd->kmd", certs.beta, M12))


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LpcConstants:
    """Single source of truth for the curvature/certificate constants.

    All values are dimension-indexed worst-case bounds; delta and delta_tau
    are None on the trivial single-anchor path where separation is vacuous.
    """

    d: int
    s: int
    r: float
    eps_bar_0: float
    eps_bar_2: float
    delta: Optional[float]
    delta_tau: Optional[float]
    b_00: float
    b_10: float
    b_01: float
    b_11: float
    b_02: float
    b_20: float
    b_12: float
    b_21: float
    eps_0: float
    eps_2: float
    eps_tilde_0: float
    eps_tilde_2: float
    c_p: float
    eps_tilde_3: float
    h: float


def lpc_constants(d: int, s: int, tau: float, box) -> LpcConstants:
    """Curvature constants, certificate constants, and separation thresholds."""
    if d < 1 or s < 1:
        raise ValueError("need d >= 1 and s >= 1")
    r = near_radius(d)
    eps_bar_0 = 0.0894 / (2 * d)
    eps_bar_2 = 0.13139
    b_00 = 1.0
    b_10 = b_01 = math.sqrt(2 * d)
    b_11 = 2.0 * d
    b_02 = b_20 = math.sqrt(4 * d * d + 10 * d)
    b_12 = b_21 = math.sqrt(2 * d) * b_02
    B0 = 1 + b_00 + b_10
    B2 = 1 + b_02 + b_12
    h = min(eps_bar_0 / B0, eps_bar_2 / B2) / 64.0

    if s >= 2:
        if d == 1:
            delta = 2 * math.sqrt(13.88 + math.log(s - 1))
        else:
            delta = 2 * math.sqrt(11.9 + 3 * math.log(d + 6.62) + math.log(s - 1))
        u_min, u_max = box.u_min, box.u_max
        ball = math.sqrt(u_max**2 + 0.25 * r**2 * (2 * u_max**2 + tau**2))
        delta_tau = max(ball / u_min * (delta + r), 2 * (u_max / u_min) * delta)
        delta_tau += math.sqrt(d * math.log(u_max**2 / u_min**2))
        if delta_tau < delta:
            raise AssertionError("separation threshold below certificate threshold")
    else:
        delta = None
        delta_tau = None

    return LpcConstants(
        d=d, s=s, r=r, eps_bar_0=eps_bar_0, eps_bar_2=eps_bar_2,
        delta=delta, delta_tau=delta_tau,
        b_00=b_00, b_10=b_10, b_01=b_01, b_11=b_11,
        b_02=b_02, b_20=b_20, b_12=b_12, b_21=b_21,
        eps_0=0.03911 / d, eps_2=0.06158,
        eps_tilde_0=0.03911 / d,
        eps_tilde_2=math.sqrt(4 * d * d + 10 * d) / 2 + 0.004106,
        c_p=2.0, eps_tilde_3=2.84, h=h,
    )


@dataclass(frozen=True)
class SeparationReport:
    min_semidistance: float
    delta_tau: Optional[float]
    satisfied: bool


def separation_check(mu0: DiscreteMeasure, ctx: KernelContext,
                     consts: LpcConstants) -> SeparationReport:
    """Compare the minimum pairwise semi-distance against the threshold."""
    if mu0.s < 2:
        return SeparationReport(math.inf, consts.delta_tau, True)
    dmin = min_pairwise_semidistance(mu0, ctx)
    thr = consts.delta_tau if consts.delta_tau is not None else 0.0
    return SeparationReport(dmin, consts.delta_tau, dmin >= thr)


# --------------------------------------------------------------------------
# operator norms (whitened closed reductions)
# --------------------------------------------------------------------------

def _spectral(batch: np.ndarray) -> np.ndarray:
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def operator_norms_batch(X: np.ndarray, Y: np.ndarray, ctx: KernelContext) -> dict:
    """Whitened derivative norms for stacked coordinate pairs (n, 2d).

    Keys "ij" give |K^(ij)| in operator form: metric-whitened gradient norms
    for one derivative, spectral norms of whitened matrices for two, and the
    sqrt(2d) * max-slice bound for the (1,2) block.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    d = X.shape[-1] // 2
    wx = metric_diag_batch(X, ctx.tau) ** -0.5
    wy = metric_diag_batch(Y, ctx.tau) ** -0.5
    out = {"00": np.abs(kernel_values(X, Y, ctx))}
    out["10"] = np.linalg.norm(wx * grad1_batch(X, Y, ctx), axis=-1)
    out["01"] = np.linalg.norm(wy * grad2_batch(X, Y, ctx), axis=-1)
    M12 = grad12_batch(X, Y, ctx) * wx[..., :, None] * wy[..., None, :]
    out["11"] = _spectral(M12)
    H2 = rhess2_batch(X, Y, ctx) * wy[..., :, None] * wy[..., None, :]
    out["02"] = _spectral(H2)
    H2r = rhess2_batch(Y, X, ctx) * wx[..., :, None] * wx[..., None, :]
    out["20"] = _spectral(H2r)
    T = grad1_rhess2_batch(X, Y, ctx)
    T = T * wx[..., :, None, None] * wy[..., None, :, None] * wy[..., None, None, :]
    out["12"] = math.sqrt(2 * d) * _spectral(T).max(axis=-1)
    Tr = grad1_rhess2_batch(Y, X, ctx)
    Tr = Tr * wy[..., :, None, None] * wx[..., None, :, None] * wx[..., None, None, :]
    out["21"] = math.sqrt(2 * d) * _spectral(Tr).max(axis=-1)
    return out


# --------------------------------------------------------------------------
# non-degeneracy verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Sampling resolutions for non-degeneracy verification.

    Axis counts apply per coordinate axis, and the tensor grids lie in the
    box; the low-discrepancy set is an unscrambled Halton sequence over the
    full box, and each near region is additionally sampled along geodesic
    rays from its anchor.  Ray and Halton points leaving the domain box are
    dropped (the clauses quantify over the box only).
    """

    near_t_points: int = 400
    near_u_points: int = 200
    global_t_points: int = 200
    global_u_points: int = 100
    lowdisc_points: int = 100_000
    rays_per_region: int = 16
    points_per_ray: int = 64


@dataclass(frozen=True)
class ClauseReport:
    name: str
    n_points: int
    worst_margin: float          # max over samples of lhs - rhs; <= tol passes
    worst_point: Optional[np.ndarray]
    violations: int
    passed: bool


@dataclass(frozen=True)
class NondegeneracyReport:
    clauses: tuple[ClauseReport, ...]
    all_clauses_pass: bool
    points_evaluated: int


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, max(int(n), 2))


def _grid_ranges(shape):
    """A grid of this shape in sub-tensors of at most _EVAL_BLOCK points, in
    flat order: per axis an index range (lo, hi), one index on the leading
    axes, a range on one axis and all of the trailing ones."""
    if math.prod(shape) == 0:
        return
    a = 0
    while math.prod(shape[a + 1:]) > _EVAL_BLOCK:
        a += 1
    step = _EVAL_BLOCK // math.prod(shape[a + 1:])
    trailing = tuple((0, n) for n in shape[a + 1:])
    for lead in np.ndindex(*shape[:a]):
        lead = tuple((int(i), int(i) + 1) for i in lead)
        for lo in range(0, shape[a], step):
            yield lead + ((lo, min(lo + step, shape[a])),) + trailing


def _coord_terms(anchors: np.ndarray, k: int, t: np.ndarray, u: np.ndarray,
                 tau: float):
    """Coordinate k's terms between every anchor and the values t (n_t,) by
    u (n_u,) of its axes, each (s, n_t, n_u): the log-kernel term L_k, the
    partials of sum L in the anchor's t_k and u_k, the squared semi-distance
    term and the Fisher-Rao distance.  The kernel core runs on that one
    coordinate, so these are the floats the row functions compute for
    coordinate k of any row with these values."""
    d = anchors.shape[1] // 2
    a = np.ascontiguousarray(anchors[:, [k, d + k]].T)[:, :, None, None]   # (2, s, 1, 1)
    y = np.empty((2, 1, len(t), len(u)))
    y[0], y[1] = t[:, None], u
    ua, _, A, B, C, dt = _abc(a, y, tau)
    g_t, g_u = _partial(ua, B, A, -dt)
    return (_log_terms(A, B, C, dt)[0], g_t, g_u, _semi_terms(A, B, C, dt)[0],
            fr_distance_coord(y, a, tau)[0])


def _grid_block(certs: CertificateSet, r: float, axes, ranges, terms):
    """One sub-tensor of a grid evaluated as _row_block evaluates its rows,
    from each coordinate's terms over the block's ranges of its two axes.

    The terms combine by broadcasting: K = exp(L_1 + ... + L_d), added in
    the order of the kernel's sum over coordinates; the gradient is K times
    the partials; the certificate values take the GEMMs of
    certificate_values; the region is the nearest anchor within r of the
    summed semi-distance terms, over all anchors (first index on ties), as
    region_index_batch finds it; each near point's Fisher-Rao distance to
    its own anchor is gathered from the tables.  Each float is the one the
    row functions compute, bit for bit."""
    anchors = certs.system.anchors
    s, d = len(anchors), len(axes) // 2
    shape = tuple(hi - lo for lo, hi in ranges)
    m = math.prod(shape)

    def spread(table, k):
        """(s, n_t, n_u) onto the block's axes k and d + k."""
        return table.reshape((s,) + tuple(n if a % d == k else 1
                                          for a, n in enumerate(shape)))

    def total(i):
        out = spread(terms[0][i], 0)
        for k in range(1, d):
            out = out + spread(terms[k][i], k)
        return out

    K = np.exp(total(0))
    G1 = np.empty((2 * d, s) + shape)
    for k in range(d):
        np.multiply(K, spread(terms[k][1], k), out=G1[k])
        np.multiply(K, spread(terms[k][2], k), out=G1[d + k])
    vals = _values(certs, K.reshape(s, m), G1.reshape(2 * d, s, m))
    dist = np.sqrt(np.maximum(total(3), 0.0)).reshape(s, m)
    near = np.flatnonzero(dist.min(axis=0) <= r)
    region = np.full(m, -1)
    region[near] = j = dist[:, near].argmin(axis=0)
    idx = np.unravel_index(near, shape)
    frsq = _fr_total(np.stack([terms[k][4][j, idx[k], idx[d + k]]
                               for k in range(d)])) ** 2

    def points(i):
        """The rows of block indices i."""
        return np.stack([ax[lo + ix] for ax, (lo, _), ix
                         in zip(axes, ranges, np.unravel_index(i, shape))], axis=-1)

    return region, vals, near, frsq, points


def _grid_pass(certs: CertificateSet, r: float, axes):
    """A grid's blocks (see _grid_ranges), each evaluated by _grid_block.

    Each coordinate's terms are computed over the block's ranges of its two
    axes and kept while the next block has the same ranges.  A block's
    ranges of two axes span at most its points, so the terms held never
    exceed 5 d s _EVAL_BLOCK values, whatever the size of the grid."""
    anchors, tau = certs.system.anchors, certs.system.ctx.tau
    d = len(axes) // 2
    held = [(None, None)] * d
    for ranges in _grid_ranges(tuple(len(ax) for ax in axes)):
        for k in range(d):
            span = (ranges[k], ranges[d + k])
            if held[k][0] != span:
                held[k] = (span, _coord_terms(anchors, k, axes[k][slice(*span[0])],
                                              axes[d + k][slice(*span[1])], tau))
        yield _grid_block(certs, r, axes, ranges, [terms for _, terms in held])


def _near_bounding_axes(anchor: np.ndarray, r: float, ctx: KernelContext, spec: GridSpec):
    """Per-axis ranges of the semi-distance ball of radius r around an anchor."""
    d = ctx.d
    box = ctx.box
    tau2 = ctx.tau**2
    E = math.exp(r * r)
    m_lo = (E - math.sqrt(E * E - 1)) ** 2
    m_hi = (E + math.sqrt(E * E - 1)) ** 2
    t_axes, u_axes = [], []
    for k in range(d):
        uk = anchor[d + k]
        half = r * math.sqrt(uk**2 + box.u_max**2 + tau2)
        t_axes.append(_axis(max(anchor[k] - half, box.t_lo[k]),
                            min(anchor[k] + half, box.t_hi[k]), spec.near_t_points))
        Bk = 2 * uk**2 + tau2
        c_lo, c_hi = Bk * m_lo, Bk * m_hi
        u_lo = math.sqrt(max(c_lo - tau2, 0.0) / 2) if c_lo > tau2 else box.u_min
        u_hi = math.sqrt(max(c_hi - tau2, 0.0) / 2)
        u_axes.append(_axis(max(u_lo, box.u_min), min(u_hi, box.u_max),
                            spec.near_u_points))
    return t_axes, u_axes


def _primes(k: int) -> list:
    """The first k primes, by trial division."""
    primes = []
    c = 2
    while len(primes) < k:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 1
    return primes


def _halton(start: int, n: int, dim: int) -> np.ndarray:
    """Points start, ..., start + n - 1 of the unscrambled Halton sequence,
    (n, dim) in [0, 1): column k holds the radical inverses of the indices in
    the k-th prime.  The digits are added least significant first, with a
    weight divided by the base at each digit, the order of scipy's
    van_der_corput, so the points equal those of scipy's unscrambled Halton
    sampler bit for bit (and are laid out as its are, the transpose of a
    (dim, n) array)."""
    out = np.zeros((dim, n))
    for col, base in zip(out, _primes(dim)):
        q, weight = np.arange(start, start + n), 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            col += digit * weight
            weight /= base
    return out.T


@functools.lru_cache(maxsize=4)
def _halton_points(n: int, dim: int) -> np.ndarray:
    """_halton(0, n, dim), read-only and cached per process: the low-
    discrepancy set and the ray ends' face points depend only on their size
    and dimension (certify_d2's 100 000 points in d = 2 hold 3.2 MB and take
    ~40 ms to compute).  It is filled in _EVAL_BLOCK-row pieces, so no
    temporary spans all n points."""
    out = np.empty((dim, n)).T
    for start in range(0, n, _EVAL_BLOCK):
        stop = min(start + _EVAL_BLOCK, n)
        out[start:stop] = _halton(start, stop - start, dim)
    out.flags.writeable = False
    return out


def _ray_targets(t_axes, u_axes, n: int) -> np.ndarray:
    """Deterministic boundary points of the near bounding box, used as ray ends."""
    lo = np.array([ax[0] for ax in t_axes] + [ax[0] for ax in u_axes])
    hi = np.array([ax[-1] for ax in t_axes] + [ax[-1] for ax in u_axes])
    dim = len(lo)
    face_pts = _halton_points(n, max(dim - 1, 1))
    # target i lies on face i % dim, on the hi side for odd i // dim; the
    # other axes take the Halton coordinates of point i in order (the face
    # axis reads a clamped column and is then overwritten)
    i = np.arange(n)
    face_axis = i % dim
    col = np.arange(dim) - (np.arange(dim) > face_axis[:, None])
    col = np.minimum(col, face_pts.shape[1] - 1)
    targets = lo + np.take_along_axis(face_pts, col, axis=1) * (hi - lo)
    targets[i, face_axis] = np.where((i // dim) % 2, hi[face_axis], lo[face_axis])
    return targets


def _ray_blocks(anchor: np.ndarray, targets: np.ndarray, ys: np.ndarray,
                ctx: KernelContext):
    """The geodesics from the anchor to each target other than itself, at
    the parameters ys, their points in order (ray by ray, ys in order) in
    fresh blocks of at most _EVAL_BLOCK rows.  Groups of up to
    _EVAL_BLOCK // len(ys) rays are traced by one spec and one point call;
    a ray longer than a block is evaluated in _EVAL_BLOCK-parameter pieces."""
    targets = targets[~np.all(targets == anchor, axis=1)]
    group = max(1, _EVAL_BLOCK // max(len(ys), 1))
    for lo in range(0, len(targets), group):
        rays = geodesic_spec(anchor, targets[lo:lo + group], ctx)
        for start in range(0, len(ys), _EVAL_BLOCK):
            yield rays.point(ys[start:start + _EVAL_BLOCK]).reshape(-1, 2 * ctx.d)


def _row_block(certs: CertificateSet, r: float, P: np.ndarray):
    """Rows P (m, 2d) evaluated: their regions, certificate values, the
    indices of the near points, their squared Fisher-Rao distances to their
    own anchors, and a map from indices to rows."""
    anchors, ctx = certs.system.anchors, certs.system.ctx
    region = region_index_batch(P, anchors, r, ctx)
    near = np.flatnonzero(region >= 0)
    frsq = fr_distance_pairs(P[near], anchors[region[near]], ctx) ** 2
    return region, certificate_values(certs, P), near, frsq, P.__getitem__


def _evaluated_blocks(certs: CertificateSet, consts: LpcConstants, spec: GridSpec):
    """Every sample set in order, evaluated: the global grid, then per anchor
    its near grid and its rays, then the Halton points.  A grid, inside the
    box when the anchors are, goes to _grid_pass as its axes t_1..t_d,
    u_1..u_d.  Rows come in fresh blocks of at most _EVAL_BLOCK points
    (_ray_blocks); those leaving the box by more than 1e-12 are dropped and
    the rest clipped onto it, in place, before _row_block."""
    anchors, ctx, r = certs.system.anchors, certs.system.ctx, consts.r
    box, d, lo, hi = ctx.box, ctx.d, ctx.box.lower(), ctx.box.upper()

    def rows(blocks):
        for P in blocks:
            inside = np.all((P >= lo - 1e-12) & (P <= hi + 1e-12), axis=1)
            if not inside.all():
                P = P[inside]
            if len(P):
                yield _row_block(certs, r, np.clip(P, lo, hi, out=P))

    t_axes = [_axis(box.t_lo[k], box.t_hi[k], spec.global_t_points) for k in range(d)]
    yield from _grid_pass(certs, r, t_axes + [_axis(box.u_min, box.u_max,
                                                    spec.global_u_points)] * d)
    ys = np.linspace(0.0, 1.0, spec.points_per_ray + 1)[1:]
    for a in anchors:
        nt, nu = _near_bounding_axes(a, r, ctx, spec)
        yield from _grid_pass(certs, r, nt + nu)
        yield from rows(_ray_blocks(a, _ray_targets(nt, nu, spec.rays_per_region), ys, ctx))
    if spec.lowdisc_points > 0:
        unit = _halton_points(spec.lowdisc_points, 2 * d)
        yield from rows(lo + unit[start:start + _EVAL_BLOCK] * (hi - lo)
                        for start in range(0, len(unit), _EVAL_BLOCK))


def verify_nondegeneracy(certs: CertificateSet, consts: LpcConstants,
                         grid_spec: GridSpec) -> NondegeneracyReport:
    """Sample the box and evaluate every non-degeneracy clause.  Anchors
    outside the box by more than 1e-9 (cpgd_solve's tolerance for its start)
    raise ValueError: the grids lie in the box only when the anchors do.

    Margins are lhs - rhs of each clause inequality (nonpositive = holds);
    a sample counts as a violation only beyond _VIOLATION_TOL, which
    absorbs kernel-evaluation roundoff next to the anchors where both
    sides of the quadratic clauses vanish.

    The samples stream in blocks of at most _EVAL_BLOCK points: each block
    gets its regions, one kernel pass for all s + 1 certificates, and its
    near points' Fisher-Rao distances to their own anchors, with the same
    floats from a grid's per-coordinate terms as from rows (see
    _evaluated_blocks).  Its margins, one row per certificate, fold into a
    running clause table indexed by (region, certificate), whose cells are
    the clauses.  Memory is bounded by the block, whatever the number of
    points; the largest per-block array holds (s + 1)^2 margins per point.  A clause's worst point is
    its first sample with the worst margin, in sampling order.
    """
    anchors, ctx = certs.system.anchors, certs.system.ctx
    if not ctx.box.contains(anchors, atol=1e-9):
        raise ValueError("anchor outside the domain box")
    s = len(anchors)

    # the clause table: region g is the far region (g = 0) or the near region
    # of anchor g - 1, and cell (g, c) is certificate c's clause on it
    worst = np.full((s + 1, s + 1), -math.inf)
    worst_point = np.zeros((s + 1, s + 1, 2 * ctx.d))
    violations = np.zeros((s + 1, s + 1), dtype=np.intp)
    n_points = np.zeros(s + 1, dtype=np.intp)
    far_rhs = np.r_[1 - consts.eps_0, np.full(s, 1 - consts.eps_tilde_0)][:, None]
    regions = np.arange(-1, s)[:, None]
    for region, vals, near, frsq, points in _evaluated_blocks(certs, consts, grid_spec):
        margins = np.abs(vals) - far_rhs
        j = region[near]
        margins[0, near] = vals[0, near] - (1 - consts.eps_2 * frsq)
        # |[c - 1 == j] - eta_c| near anchor j
        margins[1:, near] = (np.abs((j == regions[1:]) - vals[1:, near])
                             - consts.eps_tilde_2 * frsq)

        in_region = region == regions                                  # (g, m)
        table = np.where(in_region[:, None], margins, -math.inf)      # (g, c, m)
        i = np.argmax(table, axis=2)
        block_worst = np.take_along_axis(table, i[..., None], axis=2)[..., 0]
        # strict: on ties the earlier sample keeps its place
        better = block_worst > worst
        worst[better] = block_worst[better]
        if better.any():
            worst_point[better] = points(i[better])
        # the table holds margins or -inf, so without a margin above the
        # tolerance every count is 0
        if (margins > _VIOLATION_TOL).any():
            violations += np.count_nonzero(table > _VIOLATION_TOL, axis=2)
        n_points += np.count_nonzero(in_region, axis=1)
        # the block's largest arrays go before the next block is evaluated,
        # which reuses their memory
        del margins, table

    # interpolation margins are the value errors and gradient norms at the
    # anchors, which must vanish to 1e-8; they have no sample points
    targets = np.vstack([np.ones(s), np.eye(s)])
    interp = np.concatenate([
        np.abs(certificate_values(certs, anchors) - targets),
        np.linalg.norm(certificate_gradients(certs, anchors), axis=-1)], axis=1)

    def clause(name, g, c):
        """Certificate c's clause on region g, or its interpolation clause
        when g is None."""
        if g is None:
            n, w, point = interp.shape[1], interp[c].max(), None
            nviol = int(np.count_nonzero(interp[c] > 1e-8))
        else:
            n, w, nviol = int(n_points[g]), worst[g, c], int(violations[g, c])
            point = worst_point[g, c].copy() if w > -math.inf else None
        return ClauseReport(name, n, float(w), point, nviol, nviol == 0)

    clauses = [clause("global.interpolation", None, 0), clause("global.far", 0, 0)]
    clauses += [clause(f"global.near[{j}]", 1 + j, 0) for j in range(s)]
    for l in range(s):
        clauses.append(clause(f"local[{l}].interpolation", None, 1 + l))
        clauses.append(clause(f"local[{l}].far", 0, 1 + l))
        # near_self first, then near_other
        for i in sorted(range(s), key=lambda i: i != l):
            name = "near_self" if i == l else f"near_other[{i}]"
            clauses.append(clause(f"local[{l}].{name}", 1 + i, 1 + l))

    return NondegeneracyReport(
        clauses=tuple(clauses),
        all_clauses_pass=all(c.passed for c in clauses),
        points_evaluated=int(n_points.sum()),
    )
