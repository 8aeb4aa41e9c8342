"""Shared fixtures and numerical oracles for the test suite.

Analytic derivatives are checked against central finite differences computed
here; the step h = 1e-5 balances truncation against roundoff for values of
order one.  Errors are reported relative to max(|analytic|, 1) so that
near-zero components do not inflate relative errors.
"""
import math

import numpy as np
import pytest

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    GroundTruthMixture,
    KernelContext,
    SolverConfig,
    certificates,
)

FD_STEP = 1e-5


def random_locations(rng, m, box, margin=0.0):
    """Uniform locations in the box, coordinates shaped (m, 2d)."""
    d = box.d
    lo, hi = box.lower(), box.upper()
    span = hi - lo
    t = lo[:d] + margin * span[:d] + rng.random((m, d)) * span[:d] * (1 - 2 * margin)
    u = lo[d:] + margin * span[d:] + rng.random((m, d)) * span[d:] * (1 - 2 * margin)
    return np.concatenate([t, u], axis=1)


def fd_gradient(f, x, h=FD_STEP):
    """Central-difference gradient of scalar f at coordinate vector x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, h=FD_STEP):
    """Central-difference Jacobian of vector-valued f at x; rows index f."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def rel_error(analytic, numeric):
    """Max elementwise error relative to max(|analytic|, 1)."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.abs(analytic), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fd_rel(analytic, f, Z, h=FD_STEP):
    """Max error of a batch of derivatives against central differences of f
    over the last axis of Z, relative to max(|analytic|, 1); analytic[..., b]
    is the derivative in the direction Z[..., b]."""
    worst = 0.0
    for b in range(Z.shape[-1]):
        Zp, Zm = Z.copy(), Z.copy()
        Zp[..., b] += h
        Zm[..., b] -= h
        worst = max(worst, rel_error(analytic[..., b], (f(Zp) - f(Zm)) / (2 * h)))
    return worst


@pytest.fixture(scope="session")
def box1():
    return DomainBox((-5.0,), (5.0,), 0.5, 2.0)


@pytest.fixture(scope="session")
def ctx1(box1):
    return KernelContext(1, 0.4, box1)


@pytest.fixture(scope="session")
def box2():
    return DomainBox((-5.0, -5.0), (5.0, 5.0), 0.5, 2.0)


@pytest.fixture(scope="session")
def ctx2(box2):
    return KernelContext(2, 0.4, box2)


@pytest.fixture(scope="session")
def sep_box():
    return DomainBox((-20.0,), (20.0,), 1.0, 1.0)


@pytest.fixture(scope="session")
def sep_ctx(sep_box):
    return KernelContext(1, 1.0, sep_box)


@pytest.fixture(scope="session")
def sep_mixture(sep_ctx):
    mu0 = DiscreteMeasure.from_arrays(
        np.array([0.5, 0.5]), np.array([[-13.0, 1.0], [13.0, 1.0]]))
    return GroundTruthMixture(mu0, sep_ctx)


@pytest.fixture(scope="session")
def tuned_solver():
    """Settings used throughout the rate experiments: generous steps with
    backtracking, frequent merges at the near-region scale."""
    return SolverConfig(iterations=1000, step_w=4.0, step_x=8.0,
                        merge_radius=0.605, merge_period=10)


def sorted_atoms(mu: DiscreteMeasure):
    order = np.argsort(mu.locations_array()[:, 0])
    return mu.weights[order], mu.locations_array()[order]


def evaluated_samples(certs, consts, spec, monkeypatch):
    """What certificates._evaluated_blocks hands _grid_pass (each grid's
    axes) and _row_block (each block of rows), in order, recorded by
    wrappers that evaluate nothing."""
    grids, rows = [], []
    with monkeypatch.context() as m:
        m.setattr(certificates, "_grid_pass", lambda certs, r, axes: grids.append(axes) or ())
        m.setattr(certificates, "_row_block", lambda certs, r, P: rows.append(P))
        for _ in certificates._evaluated_blocks(certs, consts, spec):
            pass
    return grids, rows
