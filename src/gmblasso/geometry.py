"""Fisher-Rao metric, Christoffel symbols, geodesics, and near/far regions.

The metric induced by the normalized kernel is diagonal,

    g_x = diag( (1/(2u_k^2+tau^2))_k , (2u_k^2/(2u_k^2+tau^2)^2)_k ),

and factorizes over coordinates.  Each coordinate plane (t_k, u_k) maps to
the Poincare half-plane through h = sqrt(u^2 + tau^2/2); geodesics are
vertical lines or semicircles centred on the h = 0 axis, traversed at
constant speed in the hyperbolic arc-length parameter (log h on vertical
lines, log tan(theta/2) along semicircles).  The d-dimensional geodesic runs
every coordinate geodesic simultaneously, each completing its own arc on
y in [0, 1]; coordinate k carries the arc-length share
g_k = dist_k^2 / dist^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelContext, _firsts, semi_distance_pairs

__all__ = [
    "GeodesicSpec",
    "metric_diag_batch",
    "near_radius",
    "fr_distance_pairs",
    "geodesic_spec",
    "region_index_batch",
]

_U_FLOOR = 1e-12          # guards sqrt(h^2 - tau^2/2) against rounding
_VERTICAL_RTOL = 1e-9     # |dt| below this times scale -> vertical branch


def near_radius(d: int) -> float:
    """Admissible near-region radius r = 0.3025 / sqrt(d) in semi-distance."""
    return 0.3025 / math.sqrt(d)


def metric_diag_batch(x, tau: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    u = x[..., x.shape[-1] // 2:]
    B = 2 * u**2 + tau**2
    return np.concatenate([1.0 / B, 2 * u**2 / B**2], axis=-1)


def _height(u, tau: float):
    """Half-plane height h = sqrt(u^2 + tau^2/2) of scales u of any layout."""
    return np.sqrt(u**2 + tau**2 / 2)


def _halfplane(x, tau: float):
    """Half-plane coordinates (t, h) of rows x (..., 2d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] // 2
    return x[..., :d], _height(x[..., d:], tau)


def _from_halfplane(t, h, tau: float) -> np.ndarray:
    """Coordinates (..., 2d) of half-plane points; inverse of _halfplane."""
    u = np.sqrt(np.maximum(h**2 - tau**2 / 2, _U_FLOOR**2))
    return np.concatenate([t, u], axis=-1)


def fr_distance_coord(x, y, tau: float) -> np.ndarray:
    """Per-coordinate Fisher-Rao distances (d, ...) of coordinate-first x
    and y (2d, ...)."""
    d = len(x) // 2
    t, h = x[:d], _height(x[d:], tau)
    tp, hp = y[:d], _height(y[d:], tau)
    near = np.hypot(t - tp, h - hp)
    far = np.hypot(t - tp, h + hp)
    ratio = (near + far) / (2 * np.sqrt(h * hp))
    return math.sqrt(2.0) * np.log(np.maximum(ratio, 1.0))


def _fr_total(per) -> np.ndarray:
    """The Fisher-Rao distance from its per-coordinate distances (d, ...)."""
    return np.sqrt((per**2).sum(axis=0))


def fr_distance_pairs(x, y, ctx: KernelContext) -> np.ndarray:
    return _fr_total(fr_distance_coord(*_firsts(x, y), ctx.tau))


@dataclass(frozen=True)
class GeodesicSpec:
    """Constant-speed Fisher-Rao geodesic between two locations.

    kinds[k] is "constant", "vertical-line", or "semicircle"; shares[k] is
    the squared per-coordinate length fraction g_k (sum = 1 unless the
    endpoints coincide); length is the total Fisher-Rao distance.
    """

    x: np.ndarray
    xp: np.ndarray
    tau: float
    kinds: tuple[str, ...]
    shares: np.ndarray
    length: float
    # per-coordinate traversal parameters (half-plane)
    _sig0: np.ndarray
    _sig1: np.ndarray
    _center: np.ndarray
    _radius: np.ndarray

    def point(self, y) -> np.ndarray:
        """Coordinates at normalized parameter(s) y in [0, 1], shape (..., 2d)."""
        y = np.asarray(y, dtype=float)
        t0, h0 = _halfplane(self.x, self.tau)
        kinds = np.array(self.kinds)
        arc, line = kinds == "semicircle", kinds == "vertical-line"
        sig = (1 - y[..., None]) * self._sig0 + y[..., None] * self._sig1
        e = np.exp(sig)
        theta = 2 * np.arctan(e)
        t = np.where(arc, self._center + self._radius * np.cos(theta), t0)
        h = np.where(arc, self._radius * np.sin(theta), np.where(line, e, h0))
        return _from_halfplane(t, h, self.tau)


def geodesic_spec(x, xp, ctx: KernelContext) -> GeodesicSpec:
    a = np.array(x, dtype=float)
    b = np.array(xp, dtype=float)
    d = len(a) // 2
    tau = ctx.tau
    t0, h0 = _halfplane(a, tau)
    t1, h1 = _halfplane(b, tau)
    per = fr_distance_coord(a, b, tau)
    total = float(np.sqrt(np.sum(per**2)))
    shares = per**2 / total**2 if total > 0 else np.zeros(d)

    kinds = []
    sig0 = np.zeros(d)
    sig1 = np.zeros(d)
    center = np.zeros(d)
    radius = np.zeros(d)
    for k in range(d):
        dt = t1[k] - t0[k]
        scale = max(1.0, abs(t0[k]), abs(t1[k]), h0[k], h1[k])
        if per[k] == 0.0:
            kinds.append("constant")
        elif abs(dt) < _VERTICAL_RTOL * scale:
            kinds.append("vertical-line")
            sig0[k] = math.log(h0[k])
            sig1[k] = math.log(h1[k])
        else:
            kinds.append("semicircle")
            c = (t1[k] ** 2 + h1[k] ** 2 - t0[k] ** 2 - h0[k] ** 2) / (2 * dt)
            R = math.hypot(t0[k] - c, h0[k])
            th0 = math.atan2(h0[k], t0[k] - c)
            th1 = math.atan2(h1[k], t1[k] - c)
            center[k] = c
            radius[k] = R
            sig0[k] = math.log(math.tan(th0 / 2))
            sig1[k] = math.log(math.tan(th1 / 2))
    return GeodesicSpec(a, b, tau, tuple(kinds), shares, total,
                        sig0, sig1, center, radius)


def _reached_points(P: np.ndarray, anchors: np.ndarray, r: float,
                    tau: float) -> np.ndarray:
    """Indices, in order, of the points of P that may lie in the semi-distance
    ball of radius r of some anchor.

    Every term of the squared semi-distance is nonnegative, so for any
    coordinate k, d^2 >= dt_k^2 / A_k with A_k = u_{a,k}^2 + u_k^2 + tau^2
    <= u_{a,k}^2 + U_k^2 + tau^2, where U_k is the largest |u_k| in P (not
    the box's u_max: P may leave the box).  A point whose |dt_k| to an
    anchor exceeds that anchor's reach r sqrt(u_{a,k}^2 + U_k^2 + tau^2) in
    some k is farther than r from it; one farther than r from every anchor
    is dropped.  The reach is widened to r (1 + 1e-9) + 1e-6 to cover the
    rounding of both sides: dt is rounded once, and the reach, A_k and
    dt_k^2 / A_k carry a few relative roundings, far below 1e-9.  The
    log-cosh terms, computed as |z| + log1p(e^{-2|z|}) - ln 2, can fall
    below 0 by a few ulps of ln 2; the absolute 1e-6 adds 1e-12 to the
    squared reach, which covers that loss for d below 2000, whatever r is.
    A comparison with a NaN is false, so a NaN in P drops no point, and a
    point holding one is far either way."""
    # coordinate-first, so that reductions run along the points and not over
    # d values at a time, which is some ten times slower
    PT = np.ascontiguousarray(P.T)
    d = len(PT) // 2
    t, ta = PT[:d], anchors[:, :d]
    U2 = (PT[d:] ** 2).max(axis=1)
    reach = (r * (1 + 1e-9) + 1e-6) * np.sqrt(anchors[:, d:] ** 2 + U2 + tau**2)  # (s, d)
    far = np.any(np.abs(t - ta[:, :, None]) > reach[:, :, None], axis=1)   # (s, m)
    return np.flatnonzero(~np.all(far, axis=0))


def region_index_batch(P: np.ndarray, anchors: np.ndarray, r: float,
                       ctx: KernelContext) -> np.ndarray:
    """Index of the nearest anchor within the closed semi-distance ball of
    radius r, or -1 for far; ties break to the smallest index.

    Semi-distances are computed only to the points that some anchor can
    reach (see _reached_points).  A dropped point is farther than r from
    every anchor, so it is far; the result equals that of the pass over all
    points."""
    region = np.full(len(P), -1)
    if len(anchors) == 0 or len(P) == 0:
        return region
    near = _reached_points(P, anchors, r, ctx.tau)
    Q = P if len(near) == len(P) else P[near]
    # anchors first, so the point axis is the long contiguous one; the
    # semi-distance is symmetric bit for bit
    dist = semi_distance_pairs(anchors[:, None, :], Q[None, :, :], ctx)
    region[near] = np.where(dist.min(axis=0) <= r, dist.argmin(axis=0), -1)
    return region
