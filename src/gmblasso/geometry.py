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


# numpy's log, tan, arctan2, hypot and x * x differ in the last bit from
# libm's log, tan, atan2, hypot and pow(x, 2), which the geodesics keep
_log, _tan, _atan2, _hypot, _pow = (np.vectorize(f, otypes=[float]) for f in (
    math.log, math.tan, math.atan2, math.hypot, math.pow))


@dataclass(frozen=True)
class GeodesicSpec:
    """Constant-speed Fisher-Rao geodesics between broadcast pairs of
    locations, one per leading index (...).

    kinds[..., k] is "constant", "vertical-line", or "semicircle"; length
    (...) is the total Fisher-Rao distance.
    """

    tau: float
    kinds: np.ndarray
    length: np.ndarray
    # per-coordinate start point and traversal parameters (half-plane), (..., d)
    _t0: np.ndarray
    _h0: np.ndarray
    _sig0: np.ndarray
    _sig1: np.ndarray
    _center: np.ndarray
    _radius: np.ndarray

    def point(self, y) -> np.ndarray:
        """Coordinates at normalized parameter(s) y in [0, 1] along each
        geodesic, shape (...) + y.shape + (2d,)."""
        y = np.asarray(y, dtype=float)
        shape = self.length.shape + (1,) * y.ndim + self._sig0.shape[-1:]
        t0, h0, sig0, sig1, center, radius, arc, line = (np.reshape(a, shape) for a in (
            self._t0, self._h0, self._sig0, self._sig1, self._center, self._radius,
            self.kinds == "semicircle", self.kinds == "vertical-line"))
        sig = (1 - y[..., None]) * sig0 + y[..., None] * sig1
        e = np.exp(sig)
        theta = 2 * np.arctan(e)
        t = np.where(arc, center + radius * np.cos(theta), t0)
        h = np.where(arc, radius * np.sin(theta), np.where(line, e, h0))
        return _from_halfplane(t, h, self.tau)


def geodesic_spec(x, xp, ctx: KernelContext) -> GeodesicSpec:
    """The geodesics from rows x to rows xp (..., 2d), broadcast against each
    other.  Coordinate k is constant at distance 0, a vertical line where
    |dt_k| < _VERTICAL_RTOL max(1, |t_k|, |t'_k|, h_k, h'_k), else a semicircle."""
    # copies: the spec keeps views of them
    x, xp = np.broadcast_arrays(np.array(x, dtype=float), np.array(xp, dtype=float))
    (t0, h0), (t1, h1) = _halfplane(x, ctx.tau), _halfplane(xp, ctx.tau)
    per = fr_distance_coord(*_firsts(x, xp), ctx.tau)
    dt = t1 - t0
    scale = np.maximum(np.maximum(np.abs(t0), np.abs(t1)), np.maximum(h0, h1))
    constant = np.moveaxis(per, 0, -1) == 0.0
    line = ~constant & (np.abs(dt) < _VERTICAL_RTOL * np.maximum(scale, 1.0))
    arc = ~constant & ~line
    sig0, sig1, center, radius = (np.zeros(dt.shape) for _ in range(4))
    sig0[line], sig1[line] = _log(h0[line]), _log(h1[line])
    ta, ha, tb, hb = t0[arc], h0[arc], t1[arc], h1[arc]
    c = (_pow(tb, 2) + _pow(hb, 2) - _pow(ta, 2) - _pow(ha, 2)) / (2 * dt[arc])
    center[arc], radius[arc] = c, _hypot(ta - c, ha)
    sig0[arc] = _log(_tan(_atan2(ha, ta - c) / 2))
    sig1[arc] = _log(_tan(_atan2(hb, tb - c) / 2))
    kinds = np.where(constant, "constant", np.where(line, "vertical-line", "semicircle"))
    return GeodesicSpec(ctx.tau, kinds, _fr_total(per), t0, h0, sig0, sig1, center, radius)


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
