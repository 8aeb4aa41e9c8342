"""Normalized Gaussian-location kernel, closed-form derivatives, and data terms.

With per-coordinate quantities A = u^2 + u'^2 + tau^2, B = 2u^2 + tau^2,
C = 2u'^2 + tau^2 and dt = t - t', the kernel factorizes as

    K(x, x') = exp(sum_k L_k),
    L_k = (1/4) ln B_k + (1/4) ln C_k - (1/2) ln A_k - dt_k^2 / (2 A_k),

which gives K(x, x) = 1 and the semi-distance d(x,x') = sqrt(-2 ln K).
Since A = (B + C)/2, the log-variance part of d^2 equals
ln cosh((1/2) ln(B/C)) and is evaluated through a log1p-stable form so the
squared distance cannot go negative from cancellation when u ~ u'.

All derivatives are hand-derived from the per-coordinate tables of partials
of L_k (first order through the mixed third order d^3K/dx db' dc' needed by
the curvature-operator bounds) and assembled by the product rule; no
automatic differentiation is involved.  The tables are validated against
central finite differences in the test suite.

Data-fidelity terms: smoothing the empirical measure with a centred Gaussian
of scale tau makes every inner product closed-form Gaussian algebra:

    lambda(z)  = (2 pi tau^2)^(-d/2) exp(-|z|^2 / (2 tau^2)),
    witness(x) = (1/(n W(x))) sum_i prod_k phi(X_ik; t_k, u_k^2 + tau^2),

where phi(.; m, v) is the Gaussian density with mean m and variance v.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DomainBox, weight_function

__all__ = [
    "KernelContext",
    "data_witness",
    "lambda_pair",
    "kernel_values",
    "kernel_matrix",
    "semi_distance_pairs",
    "grad1_batch",
    "grad2_batch",
    "grad12_batch",
    "rhess2_batch",
    "grad1_rhess2_batch",
]


@dataclass(frozen=True)
class KernelContext:
    """Binds dimension d, smoothing scale tau, and the domain box.

    The certificate guarantees assume 0 < tau <= u_min.  Constructing a
    context with tau > u_min requires relaxed=True and sets guarantees_void.
    """

    d: int
    tau: float
    box: DomainBox
    relaxed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        if self.d != self.box.d:
            raise ValueError("context dimension disagrees with box dimension")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if self.tau > self.box.u_min and not self.relaxed:
            raise ValueError(
                f"tau={self.tau} exceeds u_min={self.box.u_min}; "
                "pass relaxed=True to drop the certificate guarantees"
            )

    @property
    def guarantees_void(self) -> bool:
        return self.tau > self.box.u_min


# --------------------------------------------------------------------------
# vectorized core: inputs are coordinate arrays (..., 2d), broadcastable
# --------------------------------------------------------------------------

def _split(x):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    return x[..., :d], x[..., d:]


def _abc(x, y, tau):
    t, u = _split(x)
    tp, up = _split(y)
    A = u**2 + up**2 + tau**2
    B = 2 * u**2 + tau**2
    C = 2 * up**2 + tau**2
    return u, up, A, B, C, t - tp


def _logcosh(z):
    # |z| + log1p(e^{-2|z|}) - ln 2, stable for large |z| and tiny z
    az = np.abs(z)
    return az + np.log1p(np.exp(-2 * az)) - math.log(2.0)


def semi_distance_sq_pairs(x, y, ctx: KernelContext):
    """Per-pair squared semi-distance; clamped at 0 against rounding."""
    _, _, A, B, C, dt = _abc(x, y, ctx.tau)
    per = dt**2 / A + _logcosh(0.5 * (np.log(B) - np.log(C)))
    return np.maximum(np.sum(per, axis=-1), 0.0)


def semi_distance_pairs(x, y, ctx: KernelContext):
    return np.sqrt(semi_distance_sq_pairs(x, y, ctx))


def kernel_values(x, y, ctx: KernelContext):
    _, _, A, B, C, dt = _abc(x, y, ctx.tau)
    L = 0.25 * np.log(B) + 0.25 * np.log(C) - 0.5 * np.log(A) - dt**2 / (2 * A)
    return np.exp(np.sum(L, axis=-1))


def kernel_matrix(X, Y, ctx: KernelContext):
    """All-pairs kernel values, shape (len(X), len(Y))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return kernel_values(X[:, None, :], Y[None, :, :], ctx)


def _tables(x, y, tau):
    """Per-coordinate partials of L_k; keys name the differentiated slots.

    l_* / m_* are first-arg / second-arg first partials, c_** the mixed
    second partials, mm_** the pure second-arg second partials, and w3_*_**
    the third partials with one first-arg and two second-arg derivatives.
    Cross-coordinate partials of L_k vanish.
    """
    u, up, A, B, C, dt = _abc(x, y, tau)
    A2 = A * A
    A3 = A2 * A
    T = {
        "l_t": -dt / A,
        "l_u": u / B - u / A + u * dt**2 / A2,
        "m_t": dt / A,
        "m_u": up / C - up / A + up * dt**2 / A2,
        "c_tt": 1.0 / A,
        "c_tu": 2 * up * dt / A2,
        "c_ut": -2 * u * dt / A2,
        "c_uu": 2 * u * up / A2 - 4 * u * up * dt**2 / A3,
        "mm_tt": -1.0 / A,
        "mm_tu": -2 * up * dt / A2,
        "mm_uu": (1.0 / C - 4 * up**2 / C**2 - 1.0 / A + 2 * up**2 / A2
                  + dt**2 / A2 - 4 * up**2 * dt**2 / A3),
        "w3_t_tu": -2 * up / A2,
        "w3_t_uu": 2 * dt / A2 - 8 * up**2 * dt / A3,
        "w3_u_tt": 2 * u / A2,
        "w3_u_tu": 8 * u * up * dt / A3,
        "w3_u_uu": (2 * u / A2 - 8 * up**2 * u / A3 - 4 * u * dt**2 / A3
                    + 24 * u * up**2 * dt**2 / A2 / A2),
    }
    return T


def grad1_batch(x, y, ctx: KernelContext):
    """Gradient in the first argument, shape (..., 2d)."""
    K = kernel_values(x, y, ctx)
    T = _tables(x, y, ctx.tau)
    return K[..., None] * np.concatenate([T["l_t"], T["l_u"]], axis=-1)


def grad2_batch(x, y, ctx: KernelContext):
    K = kernel_values(x, y, ctx)
    T = _tables(x, y, ctx.tau)
    return K[..., None] * np.concatenate([T["m_t"], T["m_u"]], axis=-1)


def _pack_pair_matrix(T, d, shape):
    """Mixed-second-partial matrix of sum_k L_k, entries c_** on coordinate k."""
    M = np.zeros(shape + (2 * d, 2 * d))
    k = np.arange(d)
    M[..., k, k] = T["c_tt"]
    M[..., k, d + k] = T["c_tu"]
    M[..., d + k, k] = T["c_ut"]
    M[..., d + k, d + k] = T["c_uu"]
    return M


def _pack_second_matrix(T, d, shape):
    M = np.zeros(shape + (2 * d, 2 * d))
    k = np.arange(d)
    M[..., k, k] = T["mm_tt"]
    M[..., k, d + k] = T["mm_tu"]
    M[..., d + k, k] = T["mm_tu"]
    M[..., d + k, d + k] = T["mm_uu"]
    return M


def grad12_batch(x, y, ctx: KernelContext):
    """Mixed derivative matrix d^2 K / dx dy, shape (..., 2d, 2d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    K = kernel_values(x, y, ctx)
    T = _tables(x, y, ctx.tau)
    g1 = np.concatenate([T["l_t"], T["l_u"]], axis=-1)
    g2 = np.concatenate([T["m_t"], T["m_u"]], axis=-1)
    M = g1[..., :, None] * g2[..., None, :] + _pack_pair_matrix(T, d, K.shape)
    return K[..., None, None] * M


def hess2_batch(x, y, ctx: KernelContext):
    """Plain second derivative in the second argument, shape (..., 2d, 2d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    K = kernel_values(x, y, ctx)
    T = _tables(x, y, ctx.tau)
    g2 = np.concatenate([T["m_t"], T["m_u"]], axis=-1)
    M = g2[..., :, None] * g2[..., None, :] + _pack_second_matrix(T, d, K.shape)
    return K[..., None, None] * M


def _christoffel_coeffs(y, tau):
    """Nonzero Christoffel values at y: (Gamma^t_{ut}, Gamma^u_{tt}, Gamma^u_{uu})."""
    _, up = _split(y)
    B = 2 * up**2 + tau**2
    return -2 * up / B, 1.0 / up, (tau**2 - 2 * up**2) / (up * B)


def rhess2_batch(x, y, ctx: KernelContext):
    """Riemannian Hessian in the second argument.

    H = hess2 - sum_k Gamma^{t'_k} dK/dt'_k - sum_k Gamma^{u'_k} dK/du'_k,
    with the Christoffel matrices evaluated at y.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    H = hess2_batch(x, y, ctx)
    g2 = grad2_batch(x, y, ctx)
    gt, gu_tt, gu_uu = _christoffel_coeffs(np.broadcast_to(
        np.asarray(y, dtype=float), np.broadcast_shapes(x.shape, np.shape(y))), ctx.tau)
    k = np.arange(d)
    H[..., k, d + k] -= gt * g2[..., k]
    H[..., d + k, k] -= gt * g2[..., k]
    H[..., k, k] -= gu_tt * g2[..., d + k]
    H[..., d + k, d + k] -= gu_uu * g2[..., d + k]
    return H


def _third_tensor_batch(x, y, ctx: KernelContext):
    """d^3 K / dx_b dy_z dy_w, shape (..., 2d, 2d, 2d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    K = kernel_values(x, y, ctx)
    shape = K.shape
    T = _tables(x, y, ctx.tau)
    g1 = np.concatenate([T["l_t"], T["l_u"]], axis=-1)
    g2 = np.concatenate([T["m_t"], T["m_u"]], axis=-1)
    mm = _pack_second_matrix(T, d, shape)
    cc = _pack_pair_matrix(T, d, shape)
    thr = np.zeros(shape + (2 * d, 2 * d, 2 * d))
    k = np.arange(d)
    thr[..., k, k, d + k] = T["w3_t_tu"]
    thr[..., k, d + k, k] = T["w3_t_tu"]
    thr[..., k, d + k, d + k] = T["w3_t_uu"]
    thr[..., d + k, k, k] = T["w3_u_tt"]
    thr[..., d + k, k, d + k] = T["w3_u_tu"]
    thr[..., d + k, d + k, k] = T["w3_u_tu"]
    thr[..., d + k, d + k, d + k] = T["w3_u_uu"]
    out = np.einsum("...b,...z,...w->...bzw", g1, g2, g2)
    out += np.einsum("...b,...zw->...bzw", g1, mm)
    out += np.einsum("...bz,...w->...bzw", cc, g2)
    out += np.einsum("...bw,...z->...bzw", cc, g2)
    out += thr
    return K[..., None, None, None] * out


def grad1_rhess2_batch(x, y, ctx: KernelContext):
    """First-argument gradient of the Riemannian Hessian, shape (..., 2d, 2d, 2d).

    Index order (b, z, w): d/dx_b of rhess2[z, w].  Christoffel terms are
    functions of y only, so differentiation passes through to the mixed
    derivative matrix.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    out = _third_tensor_batch(x, y, ctx)
    M12 = grad12_batch(x, y, ctx)
    gt, gu_tt, gu_uu = _christoffel_coeffs(np.broadcast_to(
        np.asarray(y, dtype=float), np.broadcast_shapes(x.shape, np.shape(y))), ctx.tau)
    k = np.arange(d)
    out[..., :, k, d + k] -= gt[..., None, :] * M12[..., :, k]
    out[..., :, d + k, k] -= gt[..., None, :] * M12[..., :, k]
    out[..., :, k, k] -= gu_tt[..., None, :] * M12[..., :, d + k]
    out[..., :, d + k, d + k] -= gu_uu[..., None, :] * M12[..., :, d + k]
    return out


def data_witness(x, samples: np.ndarray, ctx: KernelContext,
                 with_gradient: bool = False):
    """Correlation of the smoothed empirical measure with the feature of x.

    Returns (1/(n W(x))) sum_i prod_k phi(X_ik; t_k, u_k^2 + tau^2); with
    with_gradient=True additionally returns its gradient in (t, u).
    x holds coordinates shaped (2d,) for one location or (m, 2d) for a batch.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] == 0:
        raise ValueError("witness needs at least one sample")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    P = np.atleast_2d(pts)
    d = P.shape[-1] // 2
    if X.shape[1] != d:
        raise ValueError("sample dimension disagrees with location dimension")
    t, u = P[:, None, :d], P[:, None, d:]          # (m, 1, d)
    v = u**2 + ctx.tau**2
    z = X[None, :, :] - t                           # (m, n, d)
    G = np.exp(-(z**2) / (2 * v)) / np.sqrt(2 * np.pi * v)
    G = np.prod(G, axis=-1)                         # (m, n)
    W = weight_function(P, ctx.tau)
    W = np.atleast_1d(W)
    n = X.shape[0]
    val = G.sum(axis=1) / (n * W)
    if not with_gradient:
        return float(val[0]) if single else val
    B = 2 * u[:, 0, :] ** 2 + ctx.tau**2            # (m, d)
    gt = np.einsum("mn,mnd->md", G, z / v) / (n * W[:, None])
    gu = np.einsum("mn,mnd->md", G, u * (z**2 / v**2 - 1.0 / v)) / (n * W[:, None])
    gu += val[:, None] * P[:, d:] / B
    grad = np.concatenate([gt, gu], axis=1)
    if single:
        return float(val[0]), grad[0]
    return val, grad


def lambda_pair(z, ctx: KernelContext) -> float:
    """Inner product of two smoothed point masses at offset z."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    tau2 = ctx.tau**2
    d = z.shape[-1]
    val = (2 * np.pi * tau2) ** (-d / 2) * np.exp(-np.sum(z**2, axis=-1) / (2 * tau2))
    return float(val) if np.ndim(val) == 0 else val
