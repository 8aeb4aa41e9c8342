"""Discrete nonnegative measures, the domain box, and the reparametrization weight W.

A mixture component is parametrized by x = (t, u) with mean t in R^d and
marginal standard deviations u in [u_min, u_max]^d.  Estimation happens in the
"omega" parametrization mu_omega = W * mu, where

    W(x) = prod_k (2 pi)^(-1/4) (2 u_k^2 + tau^2)^(-1/4)

normalizes the smoothed feature map so that the induced kernel satisfies
K(x, x) = 1.  Amplitudes a_j and solver weights omega_j are related by
omega_j = W(x_j) a_j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "DomainBox",
    "weight_function",
    "reparametrize",
    "tv_norm",
    "min_pairwise_semidistance",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite nonnegative measure sum_j weights[j] * delta_{coords[j]}.

    Atoms are stored as two read-only arrays: weights (s,) and coords (s, 2d)
    with rows ordered (t_1..t_d, u_1..u_d).
    """

    weights: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        c = np.array(self.coords, dtype=float)
        if c.size == 0:
            c = c.reshape(0, c.shape[-1] if c.ndim == 2 else 0)
        elif c.ndim == 1:
            c = c[None, :]
        if c.ndim != 2 or len(w) != len(c):
            raise ValueError("weights and locations length mismatch")
        if len(c) and (c.shape[1] == 0 or c.shape[1] % 2):
            raise ValueError("inconsistent location dimensions")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coordinate in location")
        if np.any(c[:, c.shape[1] // 2:] <= 0):
            raise ValueError("standard deviations must be positive")
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "coords", c)

    @property
    def s(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        if self.s == 0:
            raise ValueError("empty measure has no dimension")
        return self.coords.shape[1] // 2

    def locations_array(self) -> np.ndarray:
        """Stacked coordinates, shape (s, 2d); the same array as coords."""
        return self.coords

    @staticmethod
    def empty() -> "DiscreteMeasure":
        return DiscreteMeasure(np.zeros(0), np.zeros((0, 0)))

    @staticmethod
    def from_arrays(weights: np.ndarray, coords: np.ndarray) -> "DiscreteMeasure":
        return DiscreteMeasure(weights, coords)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned domain X = prod_k [t_lo_k, t_hi_k] x [u_min, u_max]^d."""

    t_lo: tuple[float, ...]
    t_hi: tuple[float, ...]
    u_min: float
    u_max: float

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.t_lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.t_hi))
        object.__setattr__(self, "t_lo", lo)
        object.__setattr__(self, "t_hi", hi)
        object.__setattr__(self, "u_min", float(self.u_min))
        object.__setattr__(self, "u_max", float(self.u_max))
        if len(lo) != len(hi) or len(lo) == 0:
            raise ValueError("t_lo and t_hi must have identical positive length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("need t_lo < t_hi per coordinate")
        if not (0 < self.u_min <= self.u_max):
            raise ValueError("need 0 < u_min <= u_max")
        vals = lo + hi + (self.u_min, self.u_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite box bound")

    @property
    def d(self) -> int:
        return len(self.t_lo)

    def lower(self) -> np.ndarray:
        return np.concatenate([self.t_lo, np.full(self.d, self.u_min)])

    def upper(self) -> np.ndarray:
        return np.concatenate([self.t_hi, np.full(self.d, self.u_max)])

    def contains(self, x, atol: float = 0.0) -> bool:
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lower() - atol)
                    and np.all(arr <= self.upper() + atol))


def weight_function(x, tau: float):
    """W(x) = prod_k (2 pi)^(-1/4) (2 u_k^2 + tau^2)^(-1/4).

    Accepts an array of coordinates (..., 2d) and returns a scalar or an
    array of matching leading shape.
    """
    tau = float(tau)
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError("tau must be positive and finite")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coordinates")
    d = arr.shape[-1] // 2
    u = arr[..., d:]
    w = np.prod((2 * np.pi) ** -0.25 * (2 * u**2 + tau**2) ** -0.25, axis=-1)
    return float(w) if w.ndim == 0 else w


def reparametrize(mu: DiscreteMeasure, tau: float, direction: str) -> DiscreteMeasure:
    """Switch between amplitude weights a_j and solver weights omega_j = W(x_j) a_j.

    direction: "to_omega" multiplies each weight by W(x_j); "from_omega" divides.
    """
    if direction not in ("to_omega", "from_omega"):
        raise ValueError(f"unknown direction {direction!r}")
    if mu.s == 0:
        return mu
    w = weight_function(mu.coords, tau)
    factor = w if direction == "to_omega" else 1.0 / w
    return DiscreteMeasure(mu.weights * factor, mu.coords)


def tv_norm(mu: DiscreteMeasure) -> float:
    """Total variation norm; equals the weight sum for nonnegative measures."""
    return float(np.sum(mu.weights))


def min_pairwise_semidistance(mu: DiscreteMeasure, ctx) -> float:
    """Minimum semi-distance over unordered atom pairs (requires >= 2 atoms)."""
    if mu.s < 2:
        raise ValueError("minimum pairwise distance needs at least 2 atoms")
    from .kernel import semi_distance_pairs  # local import avoids a cycle

    coords = mu.locations_array()
    iu, ju = np.triu_indices(mu.s, k=1)
    dists = semi_distance_pairs(coords[iu], coords[ju], ctx)
    return float(np.min(dists))
