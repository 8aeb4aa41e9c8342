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
These sums over the n samples are computed directly, in blocks of samples,
or from a Hermite moment table of the samples (MomentTable, the moment form
of the fast Gauss transform) at O(cells p^d) per target; choose_table picks
the table when that work is the smaller.  A table is built in two passes over
fixed chunks of the samples, one to find the occupied cells and one to add
up their moments, so building it needs no memory that grows with n.  The pair sum behind the data
constant, sum_ii' lambda(X_i - X_i'), is either the exact blocked sum, O(n^2),
or a contraction of the table's moments over pairs of cells,
O(cells^2 p^(d+1)) and free of n; choose_pair_table picks between them the
same way.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import DomainBox, weight_function

__all__ = [
    "KernelContext",
    "MomentTable",
    "moment_table",
    "choose_table",
    "choose_pair_table",
    "data_witness",
    "lambda_pair",
    "lambda_sum",
    "kernel_values",
    "kernel_grad1_batch",
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

    The certificate guarantees assume 0 < tau <= u_min.
    """

    d: int
    tau: float
    box: DomainBox

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        if self.d != self.box.d:
            raise ValueError("context dimension disagrees with box dimension")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if self.tau > self.box.u_min:
            raise ValueError(f"tau={self.tau} exceeds u_min={self.box.u_min}")


# --------------------------------------------------------------------------
# vectorized core.  The public functions take coordinate rows (..., 2d) that
# broadcast against each other.  The core computes on C-contiguous
# coordinate-first copies (2d, ...), so each ufunc runs one contiguous loop
# over the pairs, not one loop of length d per pair, and the sums over
# coordinates add whole rows.
# --------------------------------------------------------------------------

def _firsts(x, y):
    """Coordinate rows x and y (..., 2d) as C-contiguous coordinate-first
    copies (2d, ...) of one rank, which broadcast as the rows do."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != y.ndim:
        nd = max(x.ndim, y.ndim)
        x = x.reshape((1,) * (nd - x.ndim) + x.shape)
        y = y.reshape((1,) * (nd - y.ndim) + y.shape)
    axes = (x.ndim - 1, *range(x.ndim - 1))
    return (np.ascontiguousarray(x.transpose(axes)),
            np.ascontiguousarray(y.transpose(axes)))


def _rows(a, k=1):
    """An array with k leading coordinate axes, (2d, ..., pairs...), as
    C-contiguous rows (pairs..., 2d, ...)."""
    return np.ascontiguousarray(a.transpose(tuple(range(k, a.ndim)) + tuple(range(k))))


def _abc(x, y, tau):
    """u, u', A, B, C and dt = t - t', each (d, ...), of coordinate-first x
    and y (2d, ...)."""
    d = len(x) // 2
    t, u = x[:d], x[d:]
    tp, up = y[:d], y[d:]
    u2, up2, tau2 = u**2, up**2, tau**2
    A = u2 + up2 + tau2
    B = 2 * u2 + tau2
    C = 2 * up2 + tau2
    return u, up, A, B, C, t - tp


def _logcosh(z):
    # |z| + log1p(e^{-2|z|}) - ln 2, stable for large |z| and tiny z
    az = np.abs(z)
    return az + np.log1p(np.exp(-2 * az)) - math.log(2.0)


def _semi_terms(A, B, C, dt):
    """Per-coordinate terms (d, ...) of the squared semi-distance."""
    return dt**2 / A + _logcosh(0.5 * (np.log(B) - np.log(C)))


def semi_distance_pairs(x, y, ctx: KernelContext):
    """Per-pair semi-distance; its square is clamped at 0 against rounding."""
    _, _, A, B, C, dt = _abc(*_firsts(x, y), ctx.tau)
    return np.sqrt(np.maximum(_semi_terms(A, B, C, dt).sum(axis=0), 0.0))


def _log_terms(A, B, C, dt):
    """The log-kernel terms L_k (d, ...)."""
    return 0.25 * np.log(B) + 0.25 * np.log(C) - 0.5 * np.log(A) - dt**2 / (2 * A)


def _kernel(A, B, C, dt):
    return np.exp(_log_terms(A, B, C, dt).sum(axis=0))


def kernel_values(x, y, ctx: KernelContext):
    _, _, A, B, C, dt = _abc(*_firsts(x, y), ctx.tau)
    return _kernel(A, B, C, dt)


def _partial(v, V, A, sdt):
    """First partial of sum_k L_k in one argument, coordinate-first (2d, ...)
    with rows t_1..t_d, u_1..u_d: (v, V, sdt) is (u, B, -dt) for x and
    (up, C, dt) for y."""
    return np.concatenate([sdt / A, v / V - v / A + v * sdt**2 / (A * A)])


def _tables(x, y, tau):
    """K, g1 = _partial in x, g2 = _partial in y, and the per-coordinate
    higher partials of L_k, each (d, ...), of coordinate-first x and y; keys
    name the differentiated slots.

    c_** are the mixed second partials, mm_** the pure second-arg second
    partials, and w3_*_** the third partials with one first-arg and two
    second-arg derivatives.  Cross-coordinate partials of L_k vanish.
    """
    u, up, A, B, C, dt = _abc(x, y, tau)
    A2 = A * A
    A3 = A2 * A
    T = {
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
    return _kernel(A, B, C, dt), _partial(u, B, A, -dt), _partial(up, C, A, dt), T


def kernel_grad1_batch(x, y, ctx: KernelContext):
    """Kernel values (...) and the gradient in the first argument from one
    pass, the gradient coordinate-first as one C-contiguous block (2d, ...),
    ready for a contraction over its leading axes."""
    u, _, A, B, C, dt = _abc(*_firsts(x, y), ctx.tau)
    K = _kernel(A, B, C, dt)
    return K, K * _partial(u, B, A, -dt)


def grad1_batch(x, y, ctx: KernelContext):
    """Gradient in the first argument, shape (..., 2d)."""
    return _rows(kernel_grad1_batch(x, y, ctx)[1])


def grad2_batch(x, y, ctx: KernelContext):
    """Gradient in the second argument, shape (..., 2d): the first-argument
    pass with the arguments swapped, bit for bit (same A, B and C swapped, -dt)."""
    return _rows(kernel_grad1_batch(y, x, ctx)[1])


def _pack(T, keys, d, shape):
    """Coordinate-first matrix (2d, 2d, ...) of second partials of sum_k L_k:
    the tables named by keys = (tt, tu, ut, uu) fill coordinate k's four
    entries, and entries across coordinates are zero."""
    M = np.zeros((2 * d, 2 * d) + shape)
    k = np.arange(d)
    tt, tu, ut, uu = keys
    M[k, k] = T[tt]
    M[k, d + k] = T[tu]
    M[d + k, k] = T[ut]
    M[d + k, d + k] = T[uu]
    return M


_PAIR = ("c_tt", "c_tu", "c_ut", "c_uu")          # mixed second partials
_SECOND = ("mm_tt", "mm_tu", "mm_tu", "mm_uu")    # second-arg second partials


def _mixed(K, g1, g2, cc):
    """d^2 K / dx dy, (2d, 2d, ...), from K, the first partials and the packed
    c_** matrix."""
    return K * (g1[:, None] * g2[None, :] + cc)


def grad12_batch(x, y, ctx: KernelContext):
    """Mixed derivative matrix d^2 K / dx dy, shape (..., 2d, 2d)."""
    x, y = _firsts(x, y)
    K, g1, g2, T = _tables(x, y, ctx.tau)
    return _rows(_mixed(K, g1, g2, _pack(T, _PAIR, len(x) // 2, K.shape)), 2)


def _hess2_grad2(x, y, tau):
    """Plain second derivative (2d, 2d, ...) and gradient (2d, ...) in the
    second argument of coordinate-first x and y, from one kernel evaluation
    and one table of partials."""
    K, _, g2, T = _tables(x, y, tau)
    M = g2[:, None] * g2[None, :] + _pack(T, _SECOND, len(x) // 2, K.shape)
    return K * M, K * g2


def hess2_batch(x, y, ctx: KernelContext):
    """Plain second derivative in the second argument, shape (..., 2d, 2d)."""
    return _rows(_hess2_grad2(*_firsts(x, y), ctx.tau)[0], 2)


def _christoffel_scales(up, tau):
    """Nonzero Christoffel values at scales up of any layout:
    (Gamma^t_{ut}, Gamma^u_{tt}, Gamma^u_{uu})."""
    B = 2 * up**2 + tau**2
    return -2 * up / B, 1.0 / up, (tau**2 - 2 * up**2) / (up * B)


def _christoffel_coeffs(y, tau):
    """Nonzero Christoffel values at rows y (..., 2d), each (..., d)."""
    y = np.asarray(y, dtype=float)
    return _christoffel_scales(y[..., y.shape[-1] // 2:], tau)


def _subtract_christoffel(out, D, y, tau):
    """out[b, z, w] -= sum_c Gamma^c_{zw}(y) D[b, c], in place.

    Coordinate-first: out is (b, 2d, 2d, ...), D a first derivative in the
    second argument (b, 2d, ...), and y (2d, ...) broadcasts against the
    trailing pair axes.
    """
    d = D.shape[1] // 2
    gt, gu_tt, gu_uu = _christoffel_scales(y[d:], tau)
    k = np.arange(d)
    out[:, k, d + k] -= gt * D[:, k]
    out[:, d + k, k] -= gt * D[:, k]
    out[:, k, k] -= gu_tt * D[:, d + k]
    out[:, d + k, d + k] -= gu_uu * D[:, d + k]


def rhess2_batch(x, y, ctx: KernelContext):
    """Riemannian Hessian in the second argument.

    H = hess2 - sum_k Gamma^{t'_k} dK/dt'_k - sum_k Gamma^{u'_k} dK/du'_k,
    with the Christoffel matrices evaluated at y.
    """
    x, y = _firsts(x, y)
    H, g2 = _hess2_grad2(x, y, ctx.tau)
    _subtract_christoffel(H[None], g2[None], y, ctx.tau)
    return _rows(H, 2)


def grad1_rhess2_batch(x, y, ctx: KernelContext):
    """First-argument gradient of the Riemannian Hessian, shape (..., 2d, 2d, 2d).

    Index order (b, z, w): d/dx_b of rhess2[z, w], the third derivative
    d^3 K / dx_b dy_z dy_w less the Christoffel terms, which are functions
    of y only, so differentiation passes through to the mixed derivative
    matrix.
    """
    x, y = _firsts(x, y)
    d = len(x) // 2
    K, g1, g2, T = _tables(x, y, ctx.tau)
    shape = K.shape
    mm = _pack(T, _SECOND, d, shape)
    cc = _pack(T, _PAIR, d, shape)
    thr = np.zeros((2 * d, 2 * d, 2 * d) + shape)
    k = np.arange(d)
    thr[k, k, d + k] = T["w3_t_tu"]
    thr[k, d + k, k] = T["w3_t_tu"]
    thr[k, d + k, d + k] = T["w3_t_uu"]
    thr[d + k, k, k] = T["w3_u_tt"]
    thr[d + k, k, d + k] = T["w3_u_tu"]
    thr[d + k, d + k, k] = T["w3_u_tu"]
    thr[d + k, d + k, d + k] = T["w3_u_uu"]
    out = np.einsum("b...,z...,w...->bzw...", g1, g2, g2)
    out += np.einsum("b...,zw...->bzw...", g1, mm)
    out += np.einsum("bz...,w...->bzw...", cc, g2)
    out += np.einsum("bw...,z...->bzw...", cc, g2)
    out += thr
    out = K * out
    _subtract_christoffel(out, _mixed(K, g1, g2, cc), y, ctx.tau)
    return _rows(out, 3)


# --------------------------------------------------------------------------
# data terms: direct Gaussian sums and Hermite moment tables
# --------------------------------------------------------------------------

# samples per block of the direct sums; temporaries stay within (m, block, d)
_DIRECT_BLOCK = 4096
# Cramer's inequality: |h_a(s)| <= K 2^(a/2) sqrt(a!) exp(-s^2/2)
_CRAMER_K = 1.0865
# dropped tail per sample and coordinate, relative to the sample's peak term
_TABLE_TOL = 2.0**-53
# |X - c| / delta <= 1/2 for every sample and every served variance: the cell
# width equals the smallest delta = sqrt(2 v) the table serves
_TABLE_RATIO = 0.5
# the table is chosen when _TABLE_COST[d - 1] * cells * p^d < n.  It is the
# table's cost per target and moment coefficient over the direct sum's per
# target and sample, for a value call plus a value-and-gradient call at m = 8
# targets, measured on a shared 2-core host.  d = 1: 100-270 ns over 17-30 ns,
# a ratio of 6 to 10 across runs; near the threshold (n = 1e3 on the separated
# scenario) both paths cost about 0.2 ms per pair of calls.  d = 2, on the
# d = 2 scenario at n = 1e3-1e5 (55-107 cells): 0.037-0.063, the table's
# p^2 = 729 coefficients per cell costing far less each than a sample of the
# direct sum; at n = 3e3 both paths take about 4.8 ms, at n = 1e4 the table
# 3.0 ms against 13.7 ms, at n = 1e5 4.6 ms against 127 ms
_TABLE_COST = (8.0, 0.06)
# values held at once by one chunk of a table evaluation: the Hermite factors
# of a chunk of targets, or the moment products of a block of cell rows
_TABLE_CHUNK = 2**18
# values held at once by the powers of one chunk of samples in a table build:
# 9709 samples in d = 1, 4854 in d = 2 and 359 in d = 3 at p = 27
_BUILD_CHUNK = 2**18
# the cell-pair form of the pair sum is chosen when
# _PAIR_COST[d - 1] * cells^2 * p^(d+1) < n^2: its time per unit of that work
# over the blocked pair sum's per ordered pair of samples.  On uniform data
# at n = 2000-4000 (2-core host) it read 0.037-0.040 in d = 1 over 424-1799
# cells (0.8-1.0 ns over 19-26 ns) and 0.005-0.006 in d = 2 over 25-1232
# cells (0.25-0.30 ns over 43-63 ns); the d = 2 scenario's 125-193 cells
# read 0.007-0.009
_PAIR_COST = (0.04, 0.006)


def _truncation_order(ratio: float) -> int:
    """Smallest p whose dropped Hermite tail stays below _TABLE_TOL.

    Per sample and coordinate, the terms a >= p of the value and of both
    gradient series are bounded through Cramer's inequality by
    K (sqrt(2) r)^a sqrt((a+1)(a+2) / a!), with r = |X - c| / delta <= ratio
    (the Greengard & Strain 1991 truncation bound).
    """
    q = math.sqrt(2.0) * ratio
    if not 0.0 < q < 1.0:
        raise ValueError("Hermite ratio must lie in (0, 1/sqrt(2))")

    def term(a):
        return _CRAMER_K * math.exp(a * math.log(q) + 0.5 * (
            math.log((a + 1) * (a + 2)) - math.lgamma(a + 1)))

    p = 1
    # the terms fall at least geometrically with ratio q once a >= 3
    while p < 3 or term(p) / (1.0 - q) > _TABLE_TOL:
        p += 1
    return p


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Hermite moments of the samples, binned into cells of side `width`.

    moments[c, a_1, ..., a_d] = sum_{i in cell c} prod_k y_ik^a_k / a_k!, with
    y_ik = (X_ik - centers[c, k]) / width in [-1/2, 1/2).  The moments do not
    depend on the variance, so one table serves every Gauss sum with
    delta = sqrt(2 v) >= width in each coordinate.
    """

    centers: np.ndarray
    moments: np.ndarray
    width: float
    n: int

    @property
    def order(self) -> int:
        return self.moments.shape[-1]

    @property
    def cells(self) -> int:
        return self.centers.shape[0]

    def gauss_sums(self, P, tau: float, with_gradient: bool = False):
        """The sums of _direct_sums over the table's samples at location rows
        P (m, 2d), whose widths delta = sqrt(2 (u^2 + tau^2)) are >= width,
        through phi = exp(-z^2/delta^2) / (sqrt(pi) delta) and d/dv phi =
        1/2 d^2/dt^2 phi.  With s = (t - c)/delta and q = width/delta, a cell
        adds sum_a q^a moments[c, a] h_a(s) to sum_i exp(-z^2/delta^2); d/dt
        lowers h_a to -h_{a+1}/delta."""
        d = P.shape[1] // 2
        t, u = P[:, :d], P[:, d:]
        delta = np.sqrt(2 * (u**2 + tau**2))
        # the truncation bound has ample margin for a width a rounding error
        # below the cell width, as at an atom on the box face u = u_min
        if (delta < self.width * (1.0 - 1e-6)).any():
            raise ValueError("Gauss width below the moment table's cell width")
        norm = (1.0 / (math.sqrt(math.pi) * delta)).prod(axis=1)
        extra = 2 if with_gradient else 0
        p = self.order
        step = max(1, _TABLE_CHUNK // (self.cells * max(d * (p + extra),
                                                        p ** (d - 1))))
        if len(t) <= step:
            sums = self._sums(t, delta, extra)
        else:
            parts = [self._sums(t[i:i + step], delta[i:i + step], extra)
                     for i in range(0, len(t), step)]
            sums = [np.concatenate(col) for col in zip(*parts)]
        if not with_gradient:
            return [norm * sums[0]]
        return [norm * sums[0], norm[:, None] * sums[1], norm[:, None] * u * sums[2]]

    def _sums(self, t, delta, extra):
        m, d = t.shape
        p = self.order
        s = (t[:, None, :] - self.centers[None, :, :]) / delta[:, None, :]
        h = _hermite_functions(s, p + extra)              # (m, cells, d, a)
        q = (self.width / delta)[:, None, :, None] ** np.arange(p)
        value = q * h[..., :p]
        if not extra:
            return [_contract(self.moments, value)]
        # variant 0 is U; variants 1 + k and 1 + d + k swap coordinate k's
        # factors for those of its first and second t-derivative
        factors = np.repeat(value[None], 1 + 2 * d, axis=0)
        first = q * h[..., 1:p + 1] / -delta[:, None, :, None]
        second = q * h[..., 2:] / (delta * delta)[:, None, :, None]
        for k in range(d):
            factors[1 + k, :, :, k] = first[:, :, k]
            factors[1 + d + k, :, :, k] = second[:, :, k]
        sums = _contract(self.moments, factors.reshape((-1,) + value.shape[1:]))
        sums = sums.reshape(1 + 2 * d, m)
        return [sums[0], sums[1:1 + d].T, sums[1 + d:].T]

    def pair_sum(self, delta: float) -> float:
        """sum_{i,i'} prod_k exp(-(X_ik - X_i'k)^2 / delta^2) over all ordered
        pairs of samples, for a width delta >= width, from the moments alone.

        A source cell c's Hermite series, sum_a q^a moments[c, a] h_a((t - c)/delta)
        with q = width/delta, is Taylor-expanded about s = (c' - c)/delta for the
        targets t of a cell c', using h_a^(b) = (-1)^b h_{a+b}.  The cell pair
        (c, c') then adds

            sum_{a,b} moments[c, a] moments[c', b]
                      * prod_k q^(a_k+b_k) (-1)^b_k h_{a_k+b_k}(s_k),

        the moments of c contracted with one p x p Hankel matrix per coordinate
        and then with those of c': O(p^(d+1)) work per pair of cells and none
        per sample.  The pairs (c, c') and (c', c) add the same, as
        h_N(-s) = (-1)^N h_N(s), so only c' >= c is built, a block of rows of
        cells at a time.

        Truncation: per pair of samples and coordinate, |q y| <= 1/2 in both
        series, so by Cramer's inequality the dropped terms (a >= p or b >= p)
        sum to at most K sum_{a or b >= p} 2^(-(a+b)/2) sqrt((a+b)!) / (a! b!)
        relative to the pair's peak term, 1.0e-16 < 2^-53 at
        p = _truncation_order(1/2) = 27.
        """
        delta = float(delta)
        if delta < self.width * (1.0 - 1e-6):
            raise ValueError("Gauss width below the moment table's cell width")
        d, p = self.centers.shape[1], self.order
        # q^a on both cells' moments, and (-1)^b on the target cell's
        scale = (self.width / delta) ** np.arange(p)
        source = self.moments * functools.reduce(np.multiply.outer, [scale] * d)
        target = source * functools.reduce(np.multiply.outer,
                                           [(-1.0) ** np.arange(p)] * d)
        # blocks of cell rows c, each against the cells c' >= its first row;
        # weight 1 on c' = c, 2 on c' > c and 0 below the diagonal
        step = max(1, _TABLE_CHUNK // (self.cells * p**d))
        total = 0.0
        for c0 in range(0, self.cells, step):
            # s[i, r] = (centers[c0 + r] - centers[c0 + i]) / delta, (rows, rest, d)
            s = (self.centers[None, c0:] - self.centers[c0:c0 + step, None]) / delta
            # hankel[i, r, k, a, b] = h_{a+b}(s[i, r, k]), a view
            hankel = np.lib.stride_tricks.sliding_window_view(
                _hermite_recurrence(s, 2 * p - 1), p, axis=-1)
            # contract a_1, ..., a_d in turn; each b_k takes the last axis
            shape = s.shape[:2] + (p,) * d
            mixed = np.broadcast_to(source[c0:c0 + step, None], shape)
            for k in range(d):
                flat = np.moveaxis(mixed, 2, -1).reshape(s.shape[:2] + (-1, p))
                mixed = (flat @ hankel[:, :, k]).reshape(shape)
            pairs = (mixed * target[c0:]).reshape(s.shape[:2] + (-1,)).sum(axis=-1)
            weight = np.triu(np.full(s.shape[:2], 2.0), 1) + np.eye(*s.shape[:2])
            total += float((weight * pairs).sum())
        return total


@functools.lru_cache(maxsize=None)
def _hermite_coefficients(count: int) -> np.ndarray:
    """C[a, j], the coefficient of s^j in the Hermite polynomial H_a, a < count,
    from H_{a+1} = 2s H_a - 2a H_{a-1}; read-only."""
    C = np.zeros((count, count))
    C[0, 0] = 1.0
    for a in range(count - 1):
        C[a + 1, 1:] = 2.0 * C[a, :-1]
        if a:
            C[a + 1] -= 2.0 * a * C[a - 1]
    C.setflags(write=False)
    return C


def _hermite_functions(s: np.ndarray, count: int) -> np.ndarray:
    """h_a(s) = H_a(s) exp(-s^2) for a < count, shape s.shape + (count,).

    The power form of H_a loses digits to cancellation for |s| > 1, but only
    relative to exp(|s|) times the largest term: weighted by the moments,
    which fall like 2^-a / a!, the error of the Gauss sum stays below
    eps n_c exp(|s| + 1/4 - s^2) <= 2 eps n_c.  Past |s| = 40, exp(-s^2) is
    zero and the clipped powers keep the product finite.
    """
    powers = np.empty(s.shape + (count,))
    powers[..., 0] = 1.0
    if count > 1:
        clipped = np.minimum(np.maximum(s, -40.0), 40.0)[..., None]
        clipped.repeat(count - 1, axis=-1).cumprod(axis=-1, out=powers[..., 1:])
    # one (points, count) @ (count, count) GEMM, not a stack of (1, count) ones
    poly = powers.reshape(-1, count) @ _hermite_coefficients(count).T
    return poly.reshape(powers.shape) * np.exp(-s * s)[..., None]


def _hermite_recurrence(s: np.ndarray, count: int) -> np.ndarray:
    """h_a(s) = H_a(s) exp(-s^2) for a < count, shape s.shape + (count,), by
    h_{a+1} = 2 s h_a - 2 a h_{a-1}.

    Unlike the power form of _hermite_functions, the recurrence keeps its
    digits at the orders up to 2p - 2 that the cell-pair sum needs.  Where
    exp(-s^2) underflows to zero, every order is zero.
    """
    two_s = 2.0 * s
    h = np.empty((count,) + s.shape)
    h[0] = np.exp(-s * s)
    if count > 1:
        np.multiply(two_s, h[0], out=h[1])
    for a in range(1, count - 1):
        np.multiply(two_s, h[a], out=h[a + 1])
        h[a + 1] -= 2.0 * a * h[a - 1]
    return np.moveaxis(h, 0, -1)


def _contract(moments, factors):
    """sum_c sum_a moments[c, a_1..a_d] prod_k factors[m, c, k, a_k] -> (m,),
    contracting the last coordinate first."""
    m, cells, d, p = factors.shape
    out = moments.reshape(1, cells, p ** (d - 1), p)
    for k in range(d - 1, -1, -1):
        out = out @ factors[:, :, k, :, None]           # (m, cells, p^k, 1)
        if k:
            out = out.reshape(m, cells, p ** (k - 1), p)
    return out.reshape(m, cells).sum(axis=1)


def _sample_matrix(samples) -> np.ndarray:
    """Samples as an (n, d) float array; a 1-D array is n samples in d = 1."""
    X = np.asarray(samples, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def _cell_keys(X: np.ndarray, lo, width: float, extent: tuple) -> np.ndarray:
    """Keys of the cells of side width that hold the samples X: sample i lies
    in cell q_i = floor((X_i - lo) / width), and the key numbers the q in a
    row-major grid of the given extent, so that key order is the
    lexicographic order of cells."""
    q = np.floor((X - lo) / width).astype(np.int64)
    return np.ravel_multi_index(tuple(q.T), extent)


def _chunk_rows(order: int, d: int) -> int:
    """Samples per chunk of a table build, so that a chunk's powers, d *
    order values per sample, and a cell's products of the first d - 1
    coordinates' powers, order^(d-1) per sample, stay within _BUILD_CHUNK
    values."""
    return max(1, _BUILD_CHUNK // max(d * order, order ** (d - 1)))


def _occupied_cells(X: np.ndarray, width: float, order: int):
    """Pass 1 of a table build: the cells of side width that hold a sample,
    as (lo, extent, keys) with keys sorted (see _cell_keys), or None when
    the grid spanned by the samples has too many cells to number in int64.

    The samples are binned a chunk at a time, and each chunk's keys are
    merged into the occupied set only once they outnumber it, so the merges
    cost O(n log n) in all and hold O(cells + chunk) keys at once."""
    n, d = X.shape
    lo = X.min(axis=0)
    span = np.floor((X.max(axis=0) - lo) / width) + 1.0
    if not np.prod(span) < 2.0**62:
        return None
    extent = tuple(int(s) for s in span)
    rows = _chunk_rows(order, d)
    found, pending, size = np.empty(0, dtype=np.intp), [], 0
    for i in range(0, n, rows):
        pending.append(_distinct(_cell_keys(X[i:i + rows], lo, width, extent)))
        size += len(pending[-1])
        if size > max(len(found), rows):
            found, pending, size = _distinct(np.concatenate([found, *pending])), [], 0
    return lo, extent, _distinct(np.concatenate([found, *pending]))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a nonempty array, sorted; as np.unique, which
    is several times slower on chunks of a few thousand integers."""
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def _build_table(X: np.ndarray, width: float, cells, order: int) -> MomentTable:
    """Pass 2 of a table build: each chunk of pass 1, in order, adds its
    per-cell sums of prod_k y_k^a_k / a_k! into the moments, so a chunk's
    temporaries stay within a few times _BUILD_CHUNK values whatever n is."""
    lo, extent, keys = cells
    n, d = X.shape
    centers = lo + (np.stack(np.unravel_index(keys, extent), axis=1) + 0.5) * width
    moments = np.zeros((len(keys),) + (order,) * d)
    flat = moments.reshape(len(keys), -1)
    rows = _chunk_rows(order, d)
    for i in range(0, n, rows):
        chunk = X[i:i + rows]
        cell = np.searchsorted(keys, _cell_keys(chunk, lo, width, extent))
        # the chunk's samples cell by cell, each cell's in sample order; the
        # stable sort is a radix sort when the cell numbers fit 16 bits
        by_cell = np.argsort(cell.astype(np.min_scalar_type(len(keys))),
                             kind="stable")
        cell = cell[by_cell]
        y = ((chunk[by_cell] - centers[cell]) / width).T         # (d, rows)
        powers = np.empty((d, order, len(cell)))
        powers[:, 0] = 1.0
        for a in range(1, order):
            np.multiply(powers[:, a - 1], y, out=powers[:, a])
            powers[:, a] /= a
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        if d == 1:
            flat[cell[starts]] += np.add.reduceat(powers[0], starts, axis=1).T
            continue
        # per cell: the outer product over the first d - 1 coordinates,
        # (order^(d-1), samples), against the last coordinate's powers
        for s, e in zip(starts, np.r_[starts[1:], len(cell)]):
            lead = powers[0, :, s:e]
            for k in range(1, d - 1):
                lead = (lead[:, None] * powers[k, None, :, s:e]).reshape(-1, e - s)
            flat[cell[s]] += (lead @ powers[d - 1, :, s:e].T).ravel()
    return MomentTable(centers, moments, width, n)


def moment_table(samples, delta: float) -> MomentTable:
    """Moment table serving every Gauss sum with width sqrt(2 v) >= delta.

    The cell width is delta, and the truncation order follows from the
    Greengard-Strain bound for double precision.
    """
    X = _sample_matrix(samples)
    width = float(delta)
    order = _truncation_order(_TABLE_RATIO)
    cells = _occupied_cells(X, width, order)
    if cells is None:
        raise ValueError("samples span too many cells for a moment table")
    return _build_table(X, width, cells, order)


def _table_if_cheaper(samples, delta: float, cheaper) -> Optional[MomentTable]:
    """The moment table for widths >= delta if cheaper(n, cells, p, d) holds
    of its occupied cells, otherwise None; d >= 3 always gets None, and so
    do samples whose grid of cells is too large to number."""
    X = _sample_matrix(samples)
    n, d = X.shape
    if d > 2:
        return None
    width = float(delta)
    order = _truncation_order(_TABLE_RATIO)
    cells = _occupied_cells(X, width, order)
    if cells is None or not cheaper(n, len(cells[2]), order, d):
        return None
    return _build_table(X, width, cells, order)


def choose_table(samples: np.ndarray, delta: float) -> Optional[MomentTable]:
    """The moment table for widths >= delta when its per-target work,
    cells * p^d, undercuts n by _TABLE_COST[d - 1]; otherwise None (direct
    sum).  d >= 3 always takes the direct sum."""
    return _table_if_cheaper(samples, delta, lambda n, cells, p, d:
                             _TABLE_COST[d - 1] * cells * p**d < n)


def choose_pair_table(samples: np.ndarray, delta: float) -> Optional[MomentTable]:
    """The moment table for lambda_sum at width delta when the cell-pair
    work, cells^2 * p^(d+1), undercuts the n^2 of the pair sum by
    _PAIR_COST[d - 1]; otherwise None (pair sum).  d >= 3 always takes the
    pair sum."""
    return _table_if_cheaper(samples, delta, lambda n, cells, p, d:
                             _PAIR_COST[d - 1] * cells**2 * p**(d + 1) < n**2)


def _gauss(z, v):
    """prod_k phi(z_k; 0, v_k) over the last axis of offsets z and variances v."""
    return np.prod(np.exp(-(z**2) / (2 * v)) / np.sqrt(2 * np.pi * v), axis=-1)


def _direct_sums(P, X, tau, with_gradient):
    """Blocked direct sums over the samples of G = prod_k phi(X_ik; t_k, v_k):
    [sum G] or [sum G, sum G z/v, sum G u (z^2/v^2 - 1/v)] with z = X - t."""
    d = X.shape[1]
    t, u = P[:, None, :d], P[:, None, d:]          # (m, 1, d)
    v = u**2 + tau**2
    total = None
    for i0 in range(0, X.shape[0], _DIRECT_BLOCK):
        z = X[None, i0:i0 + _DIRECT_BLOCK, :] - t   # (m, block, d)
        G = _gauss(z, v)                            # (m, block)
        part = [G.sum(axis=1)]
        if with_gradient:
            part.append(np.einsum("mn,mnd->md", G, z / v))
            part.append(np.einsum("mn,mnd->md", G, u * (z**2 / v**2 - 1.0 / v)))
        total = part if total is None else [a + b for a, b in zip(total, part)]
    return total


def data_witness(x, samples: np.ndarray, ctx: KernelContext,
                 with_gradient: bool = False, table: Optional[MomentTable] = None):
    """Correlation of the smoothed empirical measure with the feature of x.

    Returns (1/(n W(x))) sum_i prod_k phi(X_ik; t_k, u_k^2 + tau^2); with
    with_gradient=True additionally returns its gradient in (t, u).
    x holds location rows shaped (m, 2d); values are (m,), gradients (m, 2d).
    `table`, a moment table of the same samples serving widths down to
    sqrt(2 (u_min^2 + tau^2)), replaces the direct sum over the samples.
    """
    X = _sample_matrix(samples)
    if X.shape[0] == 0:
        raise ValueError("witness needs at least one sample")
    P = np.asarray(x, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"witness locations must be rows (m, 2d), got shape {P.shape}")
    d = P.shape[1] // 2
    if X.shape[1] != d:
        raise ValueError("sample dimension disagrees with location dimension")
    if table is None:
        sums = _direct_sums(P, X, ctx.tau, with_gradient)
    elif table.n != X.shape[0]:
        raise ValueError("moment table built from other samples")
    else:
        sums = table.gauss_sums(P, ctx.tau, with_gradient)
    W = weight_function(P, ctx.tau)
    n = X.shape[0]
    val = sums[0] / (n * W)
    if not with_gradient:
        return val
    B = 2 * P[:, d:] ** 2 + ctx.tau**2              # (m, d)
    gt = sums[1] / (n * W[:, None])
    gu = sums[2] / (n * W[:, None])
    gu += val[:, None] * P[:, d:] / B
    return val, np.concatenate([gt, gu], axis=1)


def lambda_pair(z, ctx: KernelContext) -> float:
    """Inner product of two smoothed point masses at offset z."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    tau2 = ctx.tau**2
    d = z.shape[-1]
    val = (2 * np.pi * tau2) ** (-d / 2) * np.exp(-np.sum(z**2, axis=-1) / (2 * tau2))
    return float(val) if np.ndim(val) == 0 else val


def lambda_sum(samples: np.ndarray, ctx: KernelContext,
               table: Optional[MomentTable] = None) -> float:
    """sum_{i,i'} lambda(X_i - X_i') over all ordered pairs of samples.

    Without a table this is a blocked exact pair sum, O(n^2); with a moment
    table of the samples serving width sqrt(2) tau it is the table's
    cell-pair sum, MomentTable.pair_sum, times lambda(0).
    """
    X = _sample_matrix(samples)
    n = X.shape[0]
    lam0 = float(lambda_pair(np.zeros(X.shape[1]), ctx))
    if table is not None:
        if table.n != n:
            raise ValueError("moment table built from other samples")
        return lam0 * table.pair_sum(math.sqrt(2.0) * ctx.tau)
    total = n * lam0
    block = 2048
    for i0 in range(0, n, block):
        xi = X[i0:i0 + block]
        for j0 in range(i0, n, block):
            xj = X[j0:j0 + block]
            lam = lambda_pair(xi[:, None, :] - xj[None, :, :], ctx)
            if i0 == j0:
                total += 2.0 * float(np.triu(lam, k=1).sum())
            else:
                total += 2.0 * float(lam.sum())
    return total
