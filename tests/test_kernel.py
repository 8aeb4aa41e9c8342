"""Correlation kernel: closed forms, derivatives, and quadrature oracles.

The kernel has the closed product form K(x, x') = N(t - t'; 0, A) / (W(x) W(x'))
with A = u^2 + u'^2 + tau^2 per coordinate, which equals the L2 inner product
of the two tau-smoothed Gaussian components normalized by the weight map W.
Both identities are used below as independent oracles: one algebraic, one by
direct numerical quadrature of the integrals.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gmblasso import (
    DomainBox,
    KernelContext,
    data_witness,
    lambda_pair,
    weight_function,
)
from gmblasso.certificates import build_upsilon, certificate_values, solve_certificates
from gmblasso.geometry import fr_distance_pairs, metric_diag_batch
from gmblasso import kernel as kernel_module
from gmblasso.kernel import (
    _christoffel_coeffs,
    _hermite_coefficients,
    _hermite_functions,
    _hermite_recurrence,
    _truncation_order,
    choose_pair_table,
    choose_table,
    grad1_batch,
    grad1_rhess2_batch,
    grad2_batch,
    grad12_batch,
    hess2_batch,
    kernel_grad1_batch,
    kernel_values,
    lambda_sum,
    moment_table,
    rhess2_batch,
    semi_distance_pairs,
)

from conftest import fd_gradient, fd_jacobian, random_locations, rel_error


def _christoffel_matrices(y, tau):
    """Dense Christoffel matrices (Gamma^{t_k})_k, (Gamma^{u_k})_k at y."""
    d = len(y) // 2
    gt, gu_tt, gu_uu = _christoffel_coeffs(y, tau)
    gam_t = [np.zeros((2 * d, 2 * d)) for _ in range(d)]
    gam_u = [np.zeros((2 * d, 2 * d)) for _ in range(d)]
    for k in range(d):
        gam_t[k][k, d + k] = gam_t[k][d + k, k] = gt[k]
        gam_u[k][k, k] = gu_tt[k]
        gam_u[k][d + k, d + k] = gu_uu[k]
    return gam_t, gam_u


def closed_form_kernel(x, y, tau):
    """Independent oracle: N(dt; 0, u^2+u'^2+tau^2) / (W(x) W(y))."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    d = x.shape[-1] // 2
    dt = x[..., :d] - y[..., :d]
    A = x[..., d:] ** 2 + y[..., d:] ** 2 + tau**2
    gauss = np.prod(np.exp(-(dt**2) / (2 * A)) / np.sqrt(2 * np.pi * A), axis=-1)
    return gauss / (weight_function(x, tau) * weight_function(y, tau))


class TestValues:
    def test_normalization(self, ctx1, ctx2):
        for ctx in (ctx1, ctx2):
            rng = np.random.default_rng(1)
            pts = random_locations(rng, 200, ctx.box)
            np.testing.assert_allclose(kernel_values(pts, pts, ctx), 1.0,
                                       atol=1e-12)

    def test_symmetry(self, ctx2):
        rng = np.random.default_rng(2)
        X = random_locations(rng, 50, ctx2.box)
        Y = random_locations(rng, 50, ctx2.box)
        np.testing.assert_allclose(kernel_values(X, Y, ctx2),
                                   kernel_values(Y, X, ctx2), rtol=1e-14)

    def test_matches_closed_form(self, ctx2):
        rng = np.random.default_rng(3)
        X = random_locations(rng, 100, ctx2.box)
        Y = random_locations(rng, 100, ctx2.box)
        np.testing.assert_allclose(kernel_values(X, Y, ctx2),
                                   closed_form_kernel(X, Y, ctx2.tau),
                                   rtol=1e-12)

    def test_semi_distance_identity(self, ctx1):
        rng = np.random.default_rng(4)
        X = random_locations(rng, 300, ctx1.box)
        Y = random_locations(rng, 300, ctx1.box)
        k = kernel_values(X, Y, ctx1)
        np.testing.assert_allclose(semi_distance_pairs(X, Y, ctx1),
                                   np.sqrt(-2 * np.log(k)), atol=1e-10)

    def test_single_pair_matches_batch(self, ctx1):
        x = np.array([0.3, 0.9])
        y = np.array([-1.2, 1.4])
        k = kernel_values(x, y, ctx1)
        assert k.shape == ()
        assert float(k) == pytest.approx(
            float(kernel_values(x[None, None, :], y[None, None, :], ctx1)[0, 0]),
            rel=1e-15)
        assert float(semi_distance_pairs(x, y, ctx1)) == pytest.approx(
            math.sqrt(-2 * math.log(float(k))), abs=1e-12)

    @given(t=st.floats(-4, 4), u=st.floats(0.55, 1.9),
           tp=st.floats(-4, 4), up=st.floats(0.55, 1.9))
    @settings(max_examples=200, deadline=None)
    def test_range_and_coincidence(self, t, u, tp, up, ctx1):
        k = float(kernel_values(np.array([t, u]), np.array([tp, up]), ctx1))
        assert 0.0 < k <= 1.0 + 1e-15
        if (t, u) == (tp, up):
            assert k == pytest.approx(1.0, abs=1e-14)


class TestDerivatives:
    def _pairs(self, ctx, m, seed):
        rng = np.random.default_rng(seed)
        X = random_locations(rng, m, ctx.box, margin=0.05)
        Y = random_locations(rng, m, ctx.box, margin=0.05)
        return X, Y

    def test_grad1_fd(self, ctx2):
        X, Y = self._pairs(ctx2, 20, 10)
        G = grad1_batch(X, Y, ctx2)
        for x, y, g in zip(X, Y, G):
            fd = fd_gradient(lambda z: float(kernel_values(z, y, ctx2)), x)
            assert rel_error(g, fd) < 1e-6

    @pytest.mark.parametrize("ctx", ["ctx1", "ctx2"])
    def test_fused_pass_is_the_exact_path(self, ctx, request):
        # kernel_grad1_batch's two outputs are kernel_values and the gradient
        # formula of the coordinate-first core, bit for bit, and grad1_batch
        # is that gradient laid out as rows; the boxes have u_min < u_max
        ctx = request.getfixturevalue(ctx)
        X, Y = self._pairs(ctx, 40, 12)
        X, Y = X[:8, None, :], Y[None, :, :]
        K, G1 = kernel_grad1_batch(X, Y, ctx)
        u, _, A, B, C, dt = kernel_module._abc(*kernel_module._firsts(X, Y), ctx.tau)
        old = kernel_module._kernel(A, B, C, dt) * kernel_module._partial(u, B, A, -dt)
        assert K.shape == (8, 40) and G1.shape == (2 * ctx.d, 8, 40)
        assert G1.flags.c_contiguous
        assert np.array_equal(K, kernel_values(X, Y, ctx))
        assert np.array_equal(G1, old)
        assert np.array_equal(grad1_batch(X, Y, ctx), np.moveaxis(old, 0, -1))

    def test_grad2_fd(self, ctx2):
        X, Y = self._pairs(ctx2, 20, 11)
        G = grad2_batch(X, Y, ctx2)
        for x, y, g in zip(X, Y, G):
            fd = fd_gradient(lambda z: float(kernel_values(x, z, ctx2)), y)
            assert rel_error(g, fd) < 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grad2_is_the_second_argument_formula(self, d):
        # grad2_batch is the first-argument pass with x and y swapped; the
        # oracle is the second-argument formula K * _partial(up, C, A, dt),
        # bit for bit, on paired rows and on (m, 1, 2d) against (1, k, 2d),
        # from C- and Fortran-ordered inputs
        ctx = KernelContext(d, 0.4, DomainBox((-4.0,) * d, (4.0,) * d, 0.5, 2.0))
        rng = np.random.default_rng(40 + d)
        X = random_locations(rng, 7, ctx.box, margin=0.05)
        Y = random_locations(rng, 5, ctx.box, margin=0.05)

        def oracle(x, y):
            x, y = kernel_module._firsts(x, y)
            _, up, A, B, C, dt = kernel_module._abc(x, y, ctx.tau)
            G = kernel_module._kernel(A, B, C, dt) * kernel_module._partial(up, C, A, dt)
            return np.moveaxis(G, 0, -1)

        for x, y in ((X[:5], Y), (X[:, None, :], Y[None, :, :])):
            want = oracle(x, y)
            assert np.array_equal(grad2_batch(x, y, ctx), want)
            assert np.array_equal(grad2_batch(np.asfortranarray(x),
                                              np.asfortranarray(y), ctx), want)

    def test_grad12_fd(self, ctx2):
        # rows index x-components, columns index y-components
        X, Y = self._pairs(ctx2, 12, 13)
        M = grad12_batch(X, Y, ctx2)
        for x, y, m in zip(X, Y, M):
            fd = fd_jacobian(lambda z: grad1_batch(x, z, ctx2), y)
            assert rel_error(m, fd) < 1e-6

    def test_hess2_fd(self, ctx2):
        X, Y = self._pairs(ctx2, 12, 14)
        H = hess2_batch(X, Y, ctx2)
        for x, y, h in zip(X, Y, H):
            fd = fd_jacobian(lambda z: grad2_batch(x, z, ctx2), y)
            assert rel_error(h, fd) < 1e-6
            np.testing.assert_allclose(h, h.T, rtol=1e-10, atol=1e-12)

    def test_rhess2_definition(self, ctx2):
        # Riemannian Hessian = plain Hessian minus Christoffel contraction
        X, Y = self._pairs(ctx2, 12, 15)
        R = rhess2_batch(X, Y, ctx2)
        G2 = grad2_batch(X, Y, ctx2)
        H = hess2_batch(X, Y, ctx2)
        d = ctx2.d
        for x, y, r, g2, h in zip(X, Y, R, G2, H):
            gam_t, gam_u = _christoffel_matrices(y, ctx2.tau)
            expected = h.copy()
            for k in range(d):
                expected -= g2[k] * gam_t[k] + g2[d + k] * gam_u[k]
            np.testing.assert_allclose(r, expected, rtol=1e-12, atol=1e-14)

    def test_rhess2_at_coincidence_is_minus_metric(self, ctx2):
        rng = np.random.default_rng(16)
        X = random_locations(rng, 40, ctx2.box)
        R = rhess2_batch(X, X, ctx2)
        g = metric_diag_batch(X, ctx2.tau)
        for r, gd in zip(R, g):
            np.testing.assert_allclose(r, -np.diag(gd), atol=1e-12)

    def test_whitened_hessian_at_coincidence_is_minus_identity(self, ctx1):
        x = np.array([0.7, 1.1])
        r = rhess2_batch(x, x, ctx1)
        s = 1.0 / np.sqrt(metric_diag_batch(x, ctx1.tau))
        np.testing.assert_allclose(s[:, None] * r * s[None, :],
                                   -np.eye(2), atol=1e-12)

    def test_grad12_at_coincidence_is_metric(self, ctx2):
        rng = np.random.default_rng(17)
        X = random_locations(rng, 40, ctx2.box)
        M = grad12_batch(X, X, ctx2)
        g = metric_diag_batch(X, ctx2.tau)
        for m, gd in zip(M, g):
            np.testing.assert_allclose(m, np.diag(gd), atol=1e-12)

    def test_grad1_rhess2_fd(self, ctx2):
        # index order (b, z, w) = d/dx_b rhess2[z, w]
        X, Y = self._pairs(ctx2, 6, 18)
        T = grad1_rhess2_batch(X, Y, ctx2)
        for x, y, t in zip(X, Y, T):
            fd = fd_jacobian(lambda z: rhess2_batch(z, y, ctx2), x)
            assert rel_error(np.moveaxis(t, 0, -1), fd) < 1e-6

    def test_metric_reference_value(self):
        # at u = tau = 1: diag(1/(2u^2+tau^2), 2u^2/(2u^2+tau^2)^2) = (1/3, 2/9)
        g = metric_diag_batch(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(g, [1 / 3, 2 / 9], rtol=1e-15)

    def test_single_pair_matches_batch(self, ctx1):
        x = np.array([0.5, 0.8])
        y = np.array([-0.4, 1.3])
        X, Y = np.stack([x, y]), np.stack([y, x])
        for fn in (grad1_batch, grad12_batch, rhess2_batch):
            np.testing.assert_allclose(fn(x, y, ctx1), fn(X, Y, ctx1)[0])


def _keyed_tables(x, y, tau):
    """Oracle: the string-keyed per-coordinate partials of L_k, placed by
    hand below, of coordinate-first x and y."""
    u, up, A, B, C, dt = kernel_module._abc(x, y, tau)
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
    K = kernel_module._kernel(A, B, C, dt)
    return K, kernel_module._partial(u, B, A, -dt), kernel_module._partial(up, C, A, dt), T


def _keyed_pack(T, keys, d, shape):
    M = np.zeros((2 * d, 2 * d) + shape)
    k = np.arange(d)
    tt, tu, ut, uu = keys
    M[k, k] = T[tt]
    M[k, d + k] = T[tu]
    M[d + k, k] = T[ut]
    M[d + k, d + k] = T[uu]
    return M


_KEYED_PAIR = ("c_tt", "c_tu", "c_ut", "c_uu")
_KEYED_SECOND = ("mm_tt", "mm_tu", "mm_tu", "mm_uu")


def _keyed_derivatives(x, y, tau):
    """Oracle outputs of grad12_batch, hess2_batch, rhess2_batch and
    grad1_rhess2_batch from the keyed tables and the hand-placed rank-3
    array, as rows."""
    x, y = kernel_module._firsts(x, y)
    d = len(x) // 2
    K, g1, g2, T = _keyed_tables(x, y, tau)
    shape = K.shape
    mm = _keyed_pack(T, _KEYED_SECOND, d, shape)
    cc = _keyed_pack(T, _KEYED_PAIR, d, shape)
    H = K * (g2[:, None] * g2[None, :] + mm)
    R = H.copy()
    kernel_module._subtract_christoffel(R[None], (K * g2)[None], y, tau)
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
    mixed = K * (g1[:, None] * g2[None, :] + cc)
    kernel_module._subtract_christoffel(out, mixed, y, tau)
    rows = kernel_module._rows
    return rows(mixed, 2), rows(H, 2), rows(R, 2), rows(out, 3)


class TestDerivativeBlocks:
    """The derivative blocks placed by one rule give the arrays of the keyed
    tables placed by hand, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_the_keyed_tables(self, d):
        ctx = KernelContext(d, 0.4, DomainBox((-4.0,) * d, (4.0,) * d, 0.5, 2.0))
        rng = np.random.default_rng(60 + d)
        X = random_locations(rng, 7, ctx.box, margin=0.05)
        Y = random_locations(rng, 9, ctx.box, margin=0.05)
        funcs = (grad12_batch, hess2_batch, rhess2_batch, grad1_rhess2_batch)
        cases = ((X, Y[:7]), (X[:, None, :], Y[None, :, :]), (X[0], Y[0]), (X, X))
        for x, y in cases:
            for fn, want in zip(funcs, _keyed_derivatives(x, y, ctx.tau)):
                got = fn(x, y, ctx)
                assert got.shape == want.shape, fn.__name__
                assert got.tobytes() == want.tobytes(), fn.__name__


def _layouts(X):
    """X (m, 2d) as C-ordered, Fortran-ordered and a strided transposed view
    of a coordinate-first buffer, with the same values."""
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "T": np.repeat(X.T, 2, axis=1)[:, ::2].T}


class TestLayout:
    """The batch functions copy their inputs coordinate-first, so the input
    layout changes no bit of the output, and the derivative outputs come back
    as C-contiguous rows (..., 2d)."""

    @pytest.mark.parametrize("ctx", ["ctx1", "ctx2"])
    def test_same_bits_for_every_input_layout(self, ctx, request):
        ctx = request.getfixturevalue(ctx)
        d = ctx.d
        rng = np.random.default_rng(34 + d)
        X = random_locations(rng, 9, ctx.box)
        Y = random_locations(rng, 9, ctx.box)
        anchors = np.array([[-3.0] * d + [0.7] * d, [3.0] * d + [1.6] * d])
        certs = solve_certificates(build_upsilon(anchors, ctx))
        funcs = {
            "kernel_values": (kernel_values, ()),
            "grad1_batch": (grad1_batch, (2 * d,)),
            "grad2_batch": (grad2_batch, (2 * d,)),
            "grad12_batch": (grad12_batch, (2 * d, 2 * d)),
            "semi_distance_pairs": (semi_distance_pairs, ()),
            "fr_distance_pairs": (fr_distance_pairs, ()),
        }
        got = {}
        xs, ys = _layouts(X), _layouts(Y)
        for name in xs:
            x, y = xs[name], ys[name]
            out = {}
            for fname, (fn, tail) in funcs.items():
                for shape, args in (((9,), (x, y)), ((4, 9), (x[:4, None], y[None]))):
                    r = fn(*args, ctx)
                    assert r.shape == shape + tail, (fname, name)
                    if tail:
                        assert r.flags.c_contiguous, (fname, name)
                    out[fname, shape] = r.tobytes()
            out["certificate_values"] = certificate_values(certs, y).tobytes()
            got[name] = out
        assert got["F"] == got["C"]
        assert got["T"] == got["C"]


class TestQuadratureOracles:
    """Match analytic inner products against direct numerical integration.

    The smoothing operator convolves with N(0, tau^2/2), so a smoothed
    component is N(t, u^2 + tau^2/2) and all inner products are plain L2
    integrals over the line.
    """

    def _smoothed(self, z, t, u, tau):
        v = u**2 + tau**2 / 2
        return np.exp(-((z - t) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)

    def test_kernel_by_quadrature(self, ctx1):
        rng = np.random.default_rng(20)
        X = random_locations(rng, 5, ctx1.box)
        Y = random_locations(rng, 5, ctx1.box)
        tau = ctx1.tau
        for x, y in zip(X, Y):
            val, _ = quad(
                lambda z: self._smoothed(z, x[0], x[1], tau)
                * self._smoothed(z, y[0], y[1], tau),
                -30, 30, limit=200, epsabs=1e-13, epsrel=1e-11)
            val /= weight_function(x, tau) * weight_function(y, tau)
            assert float(kernel_values(x, y, ctx1)) == pytest.approx(val, rel=1e-6)

    def test_lambda_by_quadrature(self, ctx1):
        tau = ctx1.tau
        for offset in (0.0, 0.3, 1.7):
            val, _ = quad(
                lambda z: self._smoothed(z, 0.0, 0.0, tau)
                * self._smoothed(z, offset, 0.0, tau),
                -30, 30, limit=200, epsabs=1e-13, epsrel=1e-11)
            assert lambda_pair(np.array([offset]), ctx1) == pytest.approx(
                val, rel=1e-6)

    def test_lambda_at_zero(self, ctx1):
        assert lambda_pair(np.zeros(1), ctx1) == pytest.approx(
            (2 * math.pi * ctx1.tau**2) ** -0.5, rel=1e-15)

    def test_witness_by_quadrature(self, ctx1):
        rng = np.random.default_rng(21)
        samples = rng.normal(0.0, 1.0, size=12)
        x = np.array([0.4, 0.9])
        tau = ctx1.tau

        def emp_smoothed(z):
            v = tau**2 / 2
            return np.mean(np.exp(-((z - samples) ** 2) / (2 * v))) \
                / math.sqrt(2 * math.pi * v)

        val, _ = quad(lambda z: emp_smoothed(z)
                      * self._smoothed(z, x[0], x[1], tau), -30, 30, limit=400, epsabs=1e-13, epsrel=1e-11)
        val /= weight_function(x, tau)
        assert data_witness(x[None], samples, ctx1)[0] == pytest.approx(val, rel=1e-6)


class TestWitness:
    def test_batch_matches_single(self, ctx1):
        rng = np.random.default_rng(22)
        samples = rng.normal(size=40)
        P = random_locations(rng, 9, ctx1.box)
        vals = data_witness(P, samples, ctx1)
        for p, v in zip(P, vals):
            assert data_witness(p[None], samples, ctx1)[0] == \
                pytest.approx(v, rel=1e-12)

    def test_gradient_fd(self, ctx1):
        rng = np.random.default_rng(23)
        samples = rng.normal(size=25)
        P = random_locations(rng, 8, ctx1.box, margin=0.05)
        vals, grads = data_witness(P, samples, ctx1, with_gradient=True)
        for p, v, g in zip(P, vals, grads):
            assert data_witness(p[None], samples, ctx1)[0] == \
                pytest.approx(v, rel=1e-12)
            fd = fd_gradient(lambda z: data_witness(z[None], samples, ctx1)[0], p)
            assert rel_error(g, fd) < 1e-6

    def test_rejects_empty_samples(self, ctx1):
        with pytest.raises(ValueError):
            data_witness(np.array([[0.0, 1.0]]), np.zeros((0, 1)), ctx1)

    def test_rejects_dimension_mismatch(self, ctx2):
        with pytest.raises(ValueError):
            data_witness(np.array([[0.0, 0.0, 1.0, 1.0]]), np.zeros((5, 3)), ctx2)

    def test_location_input(self, ctx1):
        # a batch (m, 2d) gives arrays (m,) and (m, 2d); one location (2d,)
        # is not a batch and is refused
        samples = np.array([0.1, -0.2, 0.3])
        x = np.array([0.0, 1.0])
        val, grad = data_witness(x[None, :], samples, ctx1, with_gradient=True)
        assert val.shape == (1,) and grad.shape == (1, 2)
        for with_gradient in (False, True):
            with pytest.raises(ValueError, match="rows"):
                data_witness(x, samples, ctx1, with_gradient=with_gradient)


class TestDirectBlocks:
    """The direct witness sums the samples in blocks of _DIRECT_BLOCK."""

    def test_single_block_unchanged(self, ctx2):
        # the unblocked formula, kept as the oracle for n <= block
        rng = np.random.default_rng(24)
        X = rng.normal(size=(300, 2))
        P = random_locations(rng, 7, ctx2.box)
        t, u = P[:, None, :2], P[:, None, 2:]
        v = u**2 + ctx2.tau**2
        z = X[None, :, :] - t
        G = np.prod(np.exp(-(z**2) / (2 * v)) / np.sqrt(2 * np.pi * v), axis=-1)
        W = weight_function(P, ctx2.tau)
        val = G.sum(axis=1) / (300 * W)
        gt = np.einsum("mn,mnd->md", G, z / v) / (300 * W[:, None])
        gu = np.einsum("mn,mnd->md", G, u * (z**2 / v**2 - 1.0 / v)) \
            / (300 * W[:, None])
        gu += val[:, None] * P[:, 2:] / (2 * P[:, 2:] ** 2 + ctx2.tau**2)
        got_val, got_grad = data_witness(P, X, ctx2, with_gradient=True)
        assert np.array_equal(got_val, val)
        assert np.array_equal(got_grad, np.concatenate([gt, gu], axis=1))

    def test_blocks_match_one_block(self, ctx1, monkeypatch):
        rng = np.random.default_rng(25)
        n = 2 * kernel_module._DIRECT_BLOCK + 17
        X = rng.normal(0.0, 1.5, size=n)
        P = random_locations(rng, 6, ctx1.box)
        val, grad = data_witness(P, X, ctx1, with_gradient=True)
        monkeypatch.setattr(kernel_module, "_DIRECT_BLOCK", n)
        one_val, one_grad = data_witness(P, X, ctx1, with_gradient=True)
        assert np.max(np.abs(val - one_val)) <= 1e-14 * np.max(np.abs(one_val))
        assert np.max(np.abs(grad - one_grad)) <= 1e-14 * np.max(np.abs(one_grad))


def _table_ctx(d, tau_fraction):
    box = DomainBox((-6.0,) * d, (6.0,) * d, 0.5, 2.0)
    return KernelContext(d, tau_fraction * box.u_min, box)


def _witness_table(X, ctx):
    box = ctx.box
    return moment_table(X, math.sqrt(2 * (box.u_min**2 + ctx.tau**2)))


def _table_targets(rng, box, m):
    """Targets across the box: u at both ends, and the corners of the box,
    far from data gathered near the origin."""
    d = box.d
    P = random_locations(rng, m, box)
    P[: m // 3, d:] = box.u_min
    P[m // 3: 2 * m // 3, d:] = box.u_max
    P[-2, :d], P[-1, :d] = box.t_lo, box.t_hi
    return P


def _assert_table_matches(P, X, ctx):
    table = _witness_table(X, ctx)
    val, grad = data_witness(P, X, ctx, with_gradient=True)
    t_val, t_grad = data_witness(P, X, ctx, with_gradient=True, table=table)
    assert np.max(np.abs(t_val - val)) <= 1e-14 * np.max(np.abs(val))
    assert np.max(np.abs(t_grad - grad)) <= 1e-12 * np.max(np.abs(grad))
    only_val = data_witness(P, X, ctx, table=table)
    assert np.max(np.abs(only_val - val)) <= 1e-14 * np.max(np.abs(val))
    c_table = moment_table(X, math.sqrt(2.0) * ctx.tau)
    assert lambda_sum(X, ctx, c_table) == pytest.approx(lambda_sum(X, ctx),
                                                        rel=1e-13)


class TestMomentTable:
    """The Hermite moment table against the direct sums it replaces."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tau_fraction", [1.0, 0.3])
    def test_matches_direct_sum(self, d, tau_fraction):
        ctx = _table_ctx(d, tau_fraction)
        rng = np.random.default_rng(26 + d)
        X = rng.normal(-0.5, 1.0, size=(400, d))
        _assert_table_matches(_table_targets(rng, ctx.box, 30), X, ctx)

    @pytest.mark.parametrize("d", [1, 2])
    def test_single_sample(self, d):
        ctx = _table_ctx(d, 1.0)
        rng = np.random.default_rng(28)
        X = np.full((1, d), 0.3)
        assert _witness_table(X, ctx).cells == 1
        _assert_table_matches(_table_targets(rng, ctx.box, 12), X, ctx)

    @pytest.mark.parametrize("d", [1, 2])
    def test_all_samples_in_one_cell(self, d):
        ctx = _table_ctx(d, 0.3)
        rng = np.random.default_rng(29)
        X = 0.2 + 0.02 * rng.random((50, d))
        assert _witness_table(X, ctx).cells == 1
        assert moment_table(X, math.sqrt(2.0) * ctx.tau).cells == 1
        _assert_table_matches(_table_targets(rng, ctx.box, 12), X, ctx)

    @given(n=st.integers(1, 40), d=st.sampled_from([1, 2]),
           tau_fraction=st.floats(0.3, 1.0), spread=st.floats(0.01, 4.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_sum_property(self, n, d, tau_fraction, spread, seed):
        ctx = _table_ctx(d, tau_fraction)
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, spread, size=(n, d))
        _assert_table_matches(_table_targets(rng, ctx.box, 9), X, ctx)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tau_fraction", [1.0, 0.3])
    def test_pair_sum_of_far_clusters(self, d, tau_fraction):
        # clusters 40 delta apart: exp(-s^2), and with it every h_a(s) between
        # them, underflows to zero
        ctx = _table_ctx(d, tau_fraction)
        delta = math.sqrt(2.0) * ctx.tau
        rng = np.random.default_rng(30 + d)
        near = rng.normal(0.0, 0.5, size=(40, d))
        far = near[:25] + 40.0 * delta
        X = np.concatenate([near, far])
        C = lambda_sum(X, ctx, moment_table(X, delta))
        assert C == pytest.approx(lambda_sum(X, ctx), rel=1e-13)
        assert C == pytest.approx(lambda_sum(near, ctx) + lambda_sum(far, ctx),
                                  rel=1e-13)

    def test_pair_sum_truncation_bound(self):
        # Cramer's bound on the terms a >= p or b >= p of the cell-pair double
        # series, per pair of samples and coordinate with |q y| <= 1/2:
        # K 2^(-(a+b)/2) sqrt((a+b)!) / (a! b!)
        p = _truncation_order(0.5)

        def term(a, b):
            return kernel_module._CRAMER_K * math.exp(
                -0.5 * (a + b) * math.log(2.0) + 0.5 * math.lgamma(a + b + 1)
                - math.lgamma(a + 1) - math.lgamma(b + 1))

        tail = sum(term(a, b) for a in range(200) for b in range(200)
                   if a >= p or b >= p)
        assert tail <= 2.0**-53

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_target_chunks_match_one_chunk(self, d, per_chunk, monkeypatch):
        # the table evaluates its targets a chunk at a time; 11 targets in
        # chunks of per_chunk (with the gradient) give the one-chunk value
        # and gradient bit for bit
        ctx = _table_ctx(d, 0.3)
        rng = np.random.default_rng(36 + d)
        X = rng.normal(0.0, 1.5, size=(500, d))
        P = _table_targets(rng, ctx.box, 11)
        table = _witness_table(X, ctx)
        p = table.order
        val = data_witness(P, X, ctx, table=table)
        both = data_witness(P, X, ctx, with_gradient=True, table=table)
        monkeypatch.setattr(kernel_module, "_TABLE_CHUNK", per_chunk * table.cells
                            * max(d * (p + 2), p ** (d - 1)))
        assert np.array_equal(data_witness(P, X, ctx, table=table), val)
        chunked = data_witness(P, X, ctx, with_gradient=True, table=table)
        assert np.array_equal(chunked[0], both[0])
        assert np.array_equal(chunked[1], both[1])

    def test_rejects_width_below_cells(self, ctx1):
        X = np.linspace(-1.0, 1.0, 30)
        table = moment_table(X, 2.0)
        with pytest.raises(ValueError, match="cell width"):
            data_witness(np.array([[0.0, 0.5]]), X, ctx1, table=table)
        with pytest.raises(ValueError, match="cell width"):
            table.pair_sum(1.0)

    def test_rejects_table_of_other_samples(self, ctx1):
        X = np.linspace(-1.0, 1.0, 30)
        table = _witness_table(X[:, None], ctx1)
        with pytest.raises(ValueError, match="other samples"):
            data_witness(np.array([[0.0, 1.0]]), X[:20], ctx1, table=table)

    def test_choice_follows_the_work(self, ctx1):
        rng = np.random.default_rng(31)
        delta = math.sqrt(2 * (ctx1.box.u_min**2 + ctx1.tau**2))
        assert choose_table(rng.normal(size=20000), delta) is not None
        assert choose_table(rng.normal(size=50), delta) is None
        # data spread over too many cells
        assert choose_table(np.linspace(-1e4, 1e4, 20000), delta) is None
        # d >= 3 always takes the direct sum
        assert choose_table(rng.normal(size=(20000, 3)), delta) is None

    @pytest.mark.parametrize("n, table", [(1000, False), (10_000, True),
                                          (100_000, True)])
    def test_d2_scenario_choice(self, n, table):
        # the d = 2 scenario: weights 0.3, 0.3 and 0.4 at (t; u) = (-20, 0;
        # 0.8, 1.2), (0, 18; 1.3, 0.9) and (20, 0; 1.0, 1.0), u_min = tau =
        # 0.7.  Its 55-107 cells of p^2 = 729 coefficients cost less than the
        # direct sum from n of a few thousand on
        rng = np.random.default_rng(33)
        means = np.array([[-20.0, 0.0], [0.0, 18.0], [20.0, 0.0]])
        scales = np.array([[0.8, 1.2], [1.3, 0.9], [1.0, 1.0]])
        idx = rng.choice(3, size=n, p=[0.3, 0.3, 0.4])
        X = rng.normal(means[idx], scales[idx])
        delta = math.sqrt(2 * (0.7**2 + 0.7**2))
        assert (choose_table(X, delta) is not None) == table

    def test_pair_choice_follows_the_work(self, ctx1):
        rng = np.random.default_rng(32)
        delta = math.sqrt(2.0) * ctx1.tau
        assert choose_pair_table(rng.normal(size=2000), delta) is not None
        assert choose_pair_table(rng.normal(size=(2000, 2)), delta) is not None
        assert choose_pair_table(rng.uniform(-100.0, 100.0, size=3), delta) is None
        # d = 2 data spread over as many cells as samples
        assert choose_pair_table(rng.uniform(-1e3, 1e3, size=(2000, 2)),
                                 delta) is None
        # d >= 3 always takes the pair sum
        assert choose_pair_table(rng.normal(size=(2000, 3)), delta) is None


def _lexsort_centers(X, width):
    """Cell centres as the layout the streaming build replaced found them: by
    a lexsort of every sample by its cell floor((X - min X) / width)."""
    lo = X.min(axis=0)
    q = np.floor((X - lo) / width).astype(np.int64)
    key = q[np.lexsort(q.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1)])
    return lo + (key[starts] + 0.5) * width


def _fsum_moments(X, width, centers, order):
    """moments[c, a_1..a_d] = sum over the samples of cell c of
    prod_k y_k^a_k / a_k!, each entry summed by math.fsum, with the powers
    from the same recurrence y^a / a! = (y^(a-1) / (a-1)!) y / a."""
    n, d = X.shape
    lo = X.min(axis=0)
    own = lo + (np.floor((X - lo) / width) + 0.5) * width
    index = {tuple(c): i for i, c in enumerate(centers)}
    cell = np.array([index[tuple(c)] for c in own])
    y = (X - own) / width
    powers = np.ones((n, d, order))
    for a in range(1, order):
        powers[:, :, a] = powers[:, :, a - 1] * y / a
    products = powers[:, 0]
    for k in range(1, d):
        products = (products[:, :, None] * powers[:, k, None, :]).reshape(n, -1)
    moments = np.array([[math.fsum(col) for col in products[cell == c].T]
                        for c in range(len(centers))])
    return moments.reshape((len(centers),) + (order,) * d)


def _assert_streamed_table(X, width):
    """The streamed table's centres equal the lexsort layout's bit for bit,
    and its moments the fsum moments to 1e-15 of the largest."""
    table = moment_table(X, width)
    np.testing.assert_array_equal(table.centers, _lexsort_centers(X, width))
    want = _fsum_moments(X, width, table.centers, table.order)
    assert table.moments.shape == want.shape
    assert np.max(np.abs(table.moments - want)) <= 1e-15 * np.max(np.abs(want))
    return table


def _d2_scenario_samples(rng, n):
    """The d = 2 scenario: weights 0.3, 0.3 and 0.4 at (t; u) = (-20, 0; 0.8,
    1.2), (0, 18; 1.3, 0.9) and (20, 0; 1.0, 1.0)."""
    means = np.array([[-20.0, 0.0], [0.0, 18.0], [20.0, 0.0]])
    scales = np.array([[0.8, 1.2], [1.3, 0.9], [1.0, 1.0]])
    idx = rng.choice(3, size=n, p=[0.3, 0.3, 0.4])
    return rng.normal(means[idx], scales[idx])


class TestStreamedBuild:
    """The two-pass chunked build of the moment table against the lexsort
    layout and exact per-cell sums it replaced."""

    @pytest.mark.parametrize("d, n, scale", [(1, 3000, 3.0), (2, 800, 2.0),
                                             (3, 30, 0.3)])
    def test_moments_match_fsum(self, d, n, scale):
        # d = 3 serves kernel-check; its cells hold order^3 moments each
        rng = np.random.default_rng(90 + d)
        X = rng.normal(0.5, scale, size=(n, d))
        table = _assert_streamed_table(X, 1.0)
        assert table.n == n and table.cells > 1

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunk_edges(self, d, rows, monkeypatch):
        p = _truncation_order(kernel_module._TABLE_RATIO)
        monkeypatch.setattr(kernel_module, "_BUILD_CHUNK",
                            rows * max(d * p, p ** (d - 1)))
        assert kernel_module._chunk_rows(p, d) == rows
        rng = np.random.default_rng(95 + d)
        X = rng.normal(0.0, 1.5, size=(52, d))      # 7 does not divide 52
        X[6] = X[7] = 8.0                            # one cell across a boundary
        X[-1] = -9.0                                 # a cell seen only at the end
        _assert_streamed_table(X, 1.0)
        # against the default chunks, which hold every sample
        table = moment_table(X, 1.0)
        monkeypatch.undo()
        whole = moment_table(X, 1.0)
        np.testing.assert_array_equal(table.centers, whole.centers)
        assert np.max(np.abs(table.moments - whole.moments)) \
            <= 1e-15 * np.max(np.abs(whole.moments))

    @pytest.mark.parametrize("d, tau_fraction", [(1, 1.0), (1, 0.3), (2, 1.0),
                                                 (2, 0.3)])
    def test_centers_match_lexsort_layout(self, d, tau_fraction):
        # the table fixtures above: normal data, a single sample, one cell,
        # far clusters, and data spread over as many cells as samples
        ctx = _table_ctx(d, tau_fraction)
        rng = np.random.default_rng(97)
        near = rng.normal(0.0, 0.5, size=(40, d))
        fixtures = [rng.normal(-0.5, 1.0, size=(400, d)), np.full((1, d), 0.3),
                    0.2 + 0.02 * rng.random((50, d)),
                    np.concatenate([near, near[:25] + 40.0 * math.sqrt(2.0) * ctx.tau]),
                    rng.uniform(-1e3, 1e3, size=(2000, d))]
        widths = (math.sqrt(2 * (ctx.box.u_min**2 + ctx.tau**2)),
                  math.sqrt(2.0) * ctx.tau)
        for X in fixtures:
            for width in widths:
                want = _lexsort_centers(X, width)
                table = moment_table(X, width)
                np.testing.assert_array_equal(table.centers, want)
                assert table.cells == len(want)

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    def test_same_choices_as_the_lexsort_layout(self, n):
        # the d = 2 scenario of test_d2_scenario_choice and the d = 1 data of
        # test_choice_follows_the_work: the rules read the same cell counts
        rng = np.random.default_rng(33)
        p = _truncation_order(kernel_module._TABLE_RATIO)
        for X, delta in ((_d2_scenario_samples(rng, n), math.sqrt(2 * 0.98)),
                         (rng.normal(size=(n, 1)), 1.0),
                         (np.linspace(-1e4, 1e4, n)[:, None], 1.0)):
            d = X.shape[1]
            for width, table, work in (
                    (delta, choose_table(X, delta),
                     lambda c: kernel_module._TABLE_COST[d - 1] * c * p**d < n),
                    (0.7 * delta, choose_pair_table(X, 0.7 * delta),
                     lambda c: kernel_module._PAIR_COST[d - 1] * c**2 * p**(d + 1)
                     < n**2)):
                cells = len(_lexsort_centers(X, width))
                assert (table is not None) == work(cells)
                if table is not None:
                    np.testing.assert_array_equal(table.centers,
                                                  _lexsort_centers(X, width))

    def test_declined_table_is_not_built(self, monkeypatch):
        built = []
        real = kernel_module._build_table
        monkeypatch.setattr(kernel_module, "_build_table",
                            lambda *args: built.append(1) or real(*args))
        rng = np.random.default_rng(31)
        assert choose_table(rng.normal(size=50), 1.0) is None
        assert choose_pair_table(rng.uniform(-100.0, 100.0, size=3), 1.0) is None
        assert built == []
        assert choose_table(rng.normal(size=20000), 1.0) is not None
        assert built == [1]

    def test_grid_too_large_to_number(self):
        # two samples 1e150 cell widths apart in each coordinate: the grid
        # they span has 1e300 cells, more than an int64 can number,
        # so the choices take the direct sums and moment_table refuses
        X = np.array([[0.0, 0.0], [1e150, 1e150]])
        assert choose_table(X, 1.0) is None and choose_pair_table(X, 1.0) is None
        with pytest.raises(ValueError, match="too many cells"):
            moment_table(X, 1.0)

    def test_build_memory_is_bounded(self):
        # both tables of the separated scenario at n = 1e6 in d = 1.  The
        # build holds the moments, cells p^d values, and a chunk's powers
        # and their reduction, about twice _BUILD_CHUNK values; the bound,
        # three times both, is below one float per sample (8 MB)
        rng = np.random.default_rng(99)
        n = 10**6
        X = rng.normal(np.array([-13.0, 13.0])[rng.integers(0, 2, n)], 1.0)[:, None]
        tracemalloc.start()
        try:
            witness = choose_table(X, 2.0)
            pairs = choose_pair_table(X, math.sqrt(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = witness.order
        cells = witness.cells + pairs.cells
        bound = 3 * 8 * (kernel_module._BUILD_CHUNK + cells * p)
        assert bound < 8 * n
        assert peak <= bound


class TestHermiteRecurrence:
    """h_a(s) = H_a(s) exp(-s^2) by recurrence, to the orders 2p - 2 of the
    cell-pair sum."""

    def test_matches_hermval(self):
        from numpy.polynomial.hermite import hermval
        count = 2 * _truncation_order(0.5) - 1
        s = np.linspace(-6.0, 6.0, 241)
        ref = np.stack([hermval(s, np.eye(count)[a]) for a in range(count)],
                       axis=-1) * np.exp(-s * s)[:, None]
        # Cramer's envelope 2^(a/2) sqrt(a!) exp(-s^2/2) of |h_a(s)|
        a = np.arange(count)
        envelope = np.exp(0.5 * a * math.log(2.0) + 0.5 * np.array(
            [math.lgamma(k + 1) for k in a]) - 0.5 * (s * s)[:, None])
        err = np.abs(_hermite_recurrence(s, count) - ref)
        assert np.all(err <= 1e-13 * envelope)

    def test_matches_power_form(self):
        count = _truncation_order(0.5) + 2
        s = np.linspace(-6.0, 6.0, 481)
        # the power form's own rounding scale: the sum of its absolute terms
        scale = ((np.abs(s)[:, None] ** np.arange(count))
                 @ np.abs(_hermite_coefficients(count)).T) * np.exp(-s * s)[:, None]
        err = np.abs(_hermite_recurrence(s, count) - _hermite_functions(s, count))
        assert np.all(err <= 1e-14 * scale)

    def test_underflow_gives_zeros(self):
        h = _hermite_recurrence(np.array([[30.0, -45.0], [1e6, -1e6]]), 53)
        assert h.shape == (2, 2, 53)
        assert np.all(h == 0.0)


class TestContext:
    def test_dimension_mismatch(self, box1):
        with pytest.raises(ValueError):
            KernelContext(2, 0.4, box1)

    def test_tau_positive(self, box1):
        with pytest.raises(ValueError):
            KernelContext(1, -1.0, box1)

    def test_tau_above_u_min_needs_relaxed(self, box1):
        with pytest.raises(ValueError):
            KernelContext(1, 0.9, box1)
