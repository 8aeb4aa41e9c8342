"""Interpolation certificates, curvature constants, operator-norm bounds."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import qmc

from gmblasso import (
    CertificateSet,
    DiscreteMeasure,
    DomainBox,
    GridSpec,
    KernelContext,
    SingularSystemError,
    build_upsilon,
    certificate_gradients,
    certificate_values,
    lpc_constants,
    separation_check,
    solve_certificates,
    verify_nondegeneracy,
)
from gmblasso import certificates
from gmblasso.certificates import (
    ClauseReport,
    NondegeneracyReport,
    _axis,
    _grid_pass,
    _grid_ranges,
    _halton,
    _halton_points,
    _near_bounding_axes,
    _ray_blocks,
    _ray_targets,
    _row_block,
    operator_norms_batch,
)
from gmblasso.geometry import (
    fr_distance_pairs,
    geodesic_spec,
    metric_diag_batch,
    region_index_batch,
)
from gmblasso.kernel import grad1_batch, grad12_batch, kernel_values

from conftest import evaluated_samples, fd_gradient, random_locations, rel_error


@pytest.fixture(scope="module")
def sep_system(sep_ctx):
    anchors = np.array([[-13.0, 1.0], [13.0, 1.0]])
    return build_upsilon(anchors, sep_ctx)


class TestConstants:
    def test_reference_values_d1(self, sep_box):
        c = lpc_constants(1, 2, 1.0, sep_box)
        assert c.r == pytest.approx(0.3025, rel=1e-12)
        assert c.eps_bar_0 == pytest.approx(0.0447, rel=1e-12)
        assert c.eps_bar_2 == pytest.approx(0.13139, rel=1e-12)
        assert c.eps_0 == pytest.approx(0.03911, rel=1e-12)
        assert c.eps_tilde_0 == pytest.approx(0.03911, rel=1e-12)
        assert c.eps_2 == pytest.approx(0.06158, rel=1e-12)
        assert c.eps_tilde_2 == pytest.approx(math.sqrt(14.0) / 2 + 0.004106,
                                              rel=1e-12)
        assert c.eps_tilde_3 == pytest.approx(2.84, rel=1e-12)
        assert c.c_p == 2.0
        assert c.h == pytest.approx(0.000204568, rel=1e-3)

    def test_separation_thresholds(self, sep_box):
        c2 = lpc_constants(1, 2, 1.0, sep_box)
        assert c2.delta == pytest.approx(2 * math.sqrt(13.88), rel=1e-12)
        assert c2.delta_tau == pytest.approx(14.9023, abs=1e-3)
        c3 = lpc_constants(1, 3, 1.0, sep_box)
        assert c3.delta_tau == pytest.approx(15.2699, abs=1e-3)
        assert c3.delta_tau > c2.delta_tau

    def test_operator_bound_table(self, sep_box):
        for d in (1, 2, 3):
            box = DomainBox((-5.0,) * d, (5.0,) * d, 1.0, 1.0)
            c = lpc_constants(d, 2, 1.0, box)
            assert c.b_00 == 1.0
            assert c.b_10 == c.b_01 == pytest.approx(math.sqrt(2 * d))
            assert c.b_11 == pytest.approx(2.0 * d)
            assert c.b_02 == c.b_20 == pytest.approx(math.sqrt(4 * d * d + 10 * d))
            assert c.b_12 == c.b_21 == pytest.approx(
                math.sqrt(2 * d) * math.sqrt(4 * d * d + 10 * d))
            assert c.eps_0 == pytest.approx(0.03911 / d)

    def test_single_anchor_has_no_separation_threshold(self, sep_box):
        c = lpc_constants(1, 1, 1.0, sep_box)
        assert c.delta is None and c.delta_tau is None

    def test_rejects_bad_arguments(self, sep_box):
        with pytest.raises(ValueError):
            lpc_constants(0, 2, 1.0, sep_box)
        with pytest.raises(ValueError):
            lpc_constants(1, 0, 1.0, sep_box)


class TestSeparation:
    def test_satisfied(self, sep_ctx, sep_mixture):
        c = lpc_constants(1, 2, 1.0, sep_ctx.box)
        rep = separation_check(sep_mixture.measure, sep_ctx, c)
        assert rep.satisfied
        assert rep.min_semidistance == pytest.approx(15.0, abs=0.1)
        assert rep.delta_tau == c.delta_tau

    def test_violated_for_close_anchors(self, sep_ctx):
        mu = DiscreteMeasure.from_arrays(
            np.array([0.5, 0.5]), np.array([[-1.0, 1.0], [1.0, 1.0]]))
        c = lpc_constants(1, 2, 1.0, sep_ctx.box)
        rep = separation_check(mu, sep_ctx, c)
        assert not rep.satisfied
        assert rep.min_semidistance < rep.delta_tau

    def test_single_atom_trivially_satisfied(self, sep_ctx):
        mu = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.0, 1.0]]))
        c = lpc_constants(1, 1, 1.0, sep_ctx.box)
        rep = separation_check(mu, sep_ctx, c)
        assert rep.satisfied and rep.min_semidistance == math.inf


class TestUpsilon:
    def test_single_anchor_block(self, ctx1):
        x = np.array([0.3, 1.1])
        system = build_upsilon([x], ctx1)
        g = metric_diag_batch(x, ctx1.tau)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        expected[1:, 1:] = np.diag(g)
        np.testing.assert_allclose(system.upsilon, expected, atol=1e-14)

    def test_symmetry(self, ctx1):
        rng = np.random.default_rng(40)
        anchors = random_locations(rng, 4, ctx1.box)
        system = build_upsilon(anchors, ctx1)
        np.testing.assert_allclose(system.upsilon, system.upsilon.T,
                                   rtol=1e-12, atol=1e-12)
        assert system.upsilon.shape == (12, 12)

    @pytest.mark.parametrize("d,s", [(1, 4), (2, 3)])
    def test_matches_block_definition(self, d, s):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        pts = random_locations(np.random.default_rng(43 + d), s, box)
        K = kernel_values(pts[:, None, :], pts[None, :, :], ctx)
        G1 = grad1_batch(pts[:, None, :], pts[None, :, :], ctx)
        M12 = grad12_batch(pts[:, None, :], pts[None, :, :], ctx)
        m = 1 + 2 * d
        U = np.zeros((s * m, s * m))
        for i in range(s):
            for j in range(s):
                U[i * m, j * m] = K[i, j]
                U[i * m, j * m + 1:(j + 1) * m] = G1[j, i]
                U[i * m + 1:(i + 1) * m, j * m] = G1[i, j]
                U[i * m + 1:(i + 1) * m, j * m + 1:(j + 1) * m] = M12[j, i].T
        np.testing.assert_array_equal(build_upsilon(pts, ctx).upsilon, U)

    def test_duplicate_anchors_singular(self, ctx1):
        with pytest.raises(SingularSystemError) as err:
            build_upsilon(np.array([[0.0, 1.0], [0.0, 1.0]]), ctx1)
        assert err.value.condition_estimate == math.inf
        with pytest.raises(SingularSystemError, match="anchors 1 and 3 coincide"):
            build_upsilon(np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0],
                                    [2.0, 1.0]]), ctx1)

    def test_rejects_dimension_mismatch(self, ctx2):
        with pytest.raises(ValueError):
            build_upsilon(np.array([[0.0, 1.0]]), ctx2)

    def test_rejects_empty(self, ctx1):
        with pytest.raises(ValueError):
            build_upsilon([], ctx1)


class TestSolve:
    def test_interpolation_conditions(self, sep_system):
        certs = solve_certificates(sep_system)
        anchors = sep_system.anchors
        vals = certificate_values(certs, anchors)
        grads = certificate_gradients(certs, anchors)
        for j in range(len(anchors)):
            assert vals[0, j] == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(grads[0, j])) < 1e-9
            for row in range(1, len(anchors) + 1):
                want = 1.0 if row - 1 == j else 0.0
                assert vals[row, j] == pytest.approx(want, abs=1e-9)
                assert np.max(np.abs(grads[row, j])) < 1e-9

    def test_residual_and_norm_bounds(self, sep_system):
        certs = solve_certificates(sep_system)
        s = sep_system.s
        assert certs.residual.shape == certs.p_norm.shape == (s + 1,)
        assert certs.residual[0] < 1e-9
        assert certs.p_norm[0]**2 <= 2 * s + 1e-12
        for row in range(1, s + 1):
            assert certs.residual[row] < 1e-9
            assert certs.p_norm[row]**2 <= 2.0 + 1e-12

    def test_gradient_matches_fd(self, ctx1):
        anchors = np.array([[-1.0, 0.9], [1.5, 1.2]])
        system = build_upsilon(anchors, ctx1)
        certs = solve_certificates(system)
        x = np.array([0.4, 0.8])
        g = certificate_gradients(certs, x[None, :])[0, 0]
        fd = fd_gradient(lambda z: certificate_values(certs, z[None, :])[0, 0], x)
        assert rel_error(g, fd) < 1e-6

    def test_near_coincident_anchors_raise(self, sep_ctx):
        # a gap of 0.1 in t gives a condition number of about 5e16: no
        # certificate is solved for, and the error names the estimate
        system = build_upsilon(np.array([[0.0, 1.0], [0.1, 1.0]]), sep_ctx)
        with pytest.raises(SingularSystemError, match="ill-conditioned") as err:
            solve_certificates(system)
        assert err.value.condition_estimate >= certificates._COND_LIMIT

    def test_decay_away_from_anchors(self, sep_system):
        certs = solve_certificates(sep_system)
        mid = np.array([[0.0, 1.0]])
        assert abs(certificate_values(certs, mid)[0, 0]) < 0.1

    @pytest.mark.parametrize("d, half_width, anchors_t", [
        (1, 20.0, [(-13.0,), (13.0,)]),                       # gate 5, s = 2
        (1, 35.0, [(-27.0,), (0.0,), (27.0,)]),               # gate 5, s = 3
        (2, 35.0, [(-27.0, 0.0), (0.0, 20.0), (27.0, 0.0)]),
    ])
    def test_matches_cholesky_solve(self, d, half_width, anchors_t):
        box = DomainBox((-half_width,) * d, (half_width,) * d, 1.0, 1.0)
        ctx = KernelContext(d, 1.0, box)
        anchors = np.array([t + (1.0,) * d for t in anchors_t])
        U = build_upsilon(anchors, ctx).upsilon
        s, m = len(anchors), 1 + 2 * d
        rhs = np.zeros((s * m, s + 1))
        rhs[::m, 0] = 1.0
        rhs[::m, 1:] = np.eye(s)
        X, resid = certificates._solve_system(U, rhs)
        X_chol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(U, lower=True), rhs)
        assert np.max(np.abs(X - X_chol)) <= 1e-12 * np.max(np.abs(X_chol))
        assert np.max(resid) < certificates._RESIDUAL_TOL
        assert np.max(np.abs(U @ X_chol - rhs)) < certificates._RESIDUAL_TOL


class TestBatchEvaluation:
    """certificate_values / certificate_gradients for k certificates with
    arbitrary coefficients against the pairwise direct sum
    eta(x) = sum_j alpha_j K(x_j, x) + beta_j . grad1 K(x_j, x)."""

    @staticmethod
    def _direct(certs, k, x):
        system = certs.system
        return sum(a * float(kernel_values(xj, x, system.ctx))
                   + float(b @ grad1_batch(xj, x, system.ctx))
                   for a, b, xj in zip(certs.alpha[k], certs.beta[k], system.anchors))

    @staticmethod
    def _setup(d, seed):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        rng = np.random.default_rng(seed)
        system = build_upsilon(random_locations(rng, 3, box), ctx)
        coef = [(rng.normal(size=3), rng.normal(size=(3, 2 * d))) for _ in range(4)]
        certs = CertificateSet(system, np.stack([a for a, _ in coef]),
                               np.stack([b for _, b in coef]), np.zeros(4), np.zeros(4))
        return certs, random_locations(rng, 7, box, margin=0.05)

    @pytest.mark.parametrize("d", [1, 2])
    def test_values_match_direct_sum(self, d):
        certs, P = self._setup(d, 50 + d)
        vals = certificate_values(certs, P)
        assert vals.shape == (len(certs.alpha), len(P))
        want = np.array([[self._direct(certs, k, x) for x in P]
                         for k in range(len(certs.alpha))])
        np.testing.assert_allclose(vals, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_fused_pass_is_the_exact_path(self, d):
        certs, _ = self._setup(d, 70 + d)
        rng = np.random.default_rng(80 + d)
        P = random_locations(rng, 300, certs.system.ctx.box)
        assert np.array_equal(certificate_values(certs, P),
                              _values_from_parts(certs, P))

    @pytest.mark.parametrize("d", [1, 2])
    def test_gradients_match_fd_of_direct_sum(self, d):
        certs, P = self._setup(d, 60 + d)
        grads = certificate_gradients(certs, P)
        assert grads.shape == (len(certs.alpha), len(P), 2 * d)
        for k in range(len(certs.alpha)):
            for i, x in enumerate(P):
                fd = fd_gradient(lambda z: self._direct(certs, k, z), x)
                assert rel_error(grads[k, i], fd) < 1e-6


class TestOperatorNorms:
    def test_sampled_bounds_hold(self):
        rng = np.random.default_rng(41)
        for d in (1, 2):
            box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
            ctx = KernelContext(d, 0.4, box)
            c = lpc_constants(d, 2, ctx.tau, box)
            X = random_locations(rng, 2000, box)
            Y = random_locations(rng, 2000, box)
            norms = operator_norms_batch(X, Y, ctx)
            bounds = {"00": c.b_00, "10": c.b_10, "01": c.b_01, "11": c.b_11,
                      "02": c.b_02, "20": c.b_20, "12": c.b_12, "21": c.b_21}
            for key, bound in bounds.items():
                assert float(np.max(norms[key])) <= bound + 1e-10, key

    def test_single_pair_matches_batch(self, ctx1):
        x = np.array([0.2, 0.8])
        y = np.array([-0.5, 1.1])
        one = operator_norms_batch(x, y, ctx1)
        two = operator_norms_batch(np.stack([x, y]), np.stack([y, x]), ctx1)
        for key, val in one.items():
            assert float(val[0]) == pytest.approx(float(two[key][0])), key

    def test_norm_00_is_kernel_value(self, ctx1):
        rng = np.random.default_rng(42)
        X = random_locations(rng, 50, ctx1.box)
        Y = random_locations(rng, 50, ctx1.box)
        np.testing.assert_allclose(operator_norms_batch(X, Y, ctx1)["00"],
                                   kernel_values(X, Y, ctx1), rtol=1e-12)


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(near_t_points=60, near_u_points=30,
                    global_t_points=40, global_u_points=20,
                    lowdisc_points=2000, rays_per_region=4,
                    points_per_ray=16)


class TestNondegeneracy:

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 17])
    def test_halton_matches_scipy(self, dim):
        # consecutive blocks of uneven sizes, so start offsets cross the
        # verification block size and several digit counts
        sampler = qmc.Halton(d=dim, scramble=False)
        start = 0
        for n in (1, 16, 4096, 1000, 3 * 4096):
            want = sampler.random(n)
            got = _halton(start, n, dim)
            assert got.shape == (n, dim)
            assert np.array_equal(got, want), (dim, start, n)
            start += n

    @pytest.mark.parametrize("dim", [2, 4])
    def test_ray_targets_match_loop(self, dim):
        rng = np.random.default_rng(44 + dim)
        lo = rng.normal(size=dim)
        hi = lo + rng.random(dim) + 0.1
        axes = [np.linspace(a, b, 5) for a, b in zip(lo, hi)]
        n = 16
        face_pts = qmc.Halton(d=dim - 1, scramble=False).random(n)
        want = np.empty((n, dim))
        for i in range(n):
            face_axis = i % dim
            mask = np.arange(dim) != face_axis
            want[i, mask] = lo[mask] + face_pts[i] * (hi - lo)[mask]
            want[i, face_axis] = hi[face_axis] if (i // dim) % 2 else lo[face_axis]
        got = _ray_targets(axes[:dim // 2], axes[dim // 2:], n)
        np.testing.assert_array_equal(got, want)

    def test_separated_pair_passes(self, sep_ctx, sep_system, small_grid):
        consts = lpc_constants(1, 2, sep_ctx.tau, sep_ctx.box)
        report = verify_nondegeneracy(solve_certificates(sep_system), consts,
                                      small_grid)
        assert report.all_clauses_pass
        assert report.points_evaluated > 0
        names = [cl.name for cl in report.clauses]
        assert any(n.startswith("global.far") for n in names)
        assert any(n.startswith("local[1].near_self") for n in names)
        for cl in report.clauses:
            assert cl.passed, (cl.name, cl.worst_margin)

    def test_blocks_do_not_change_the_report(self, sep_ctx, sep_system, small_grid,
                                             monkeypatch):
        consts = lpc_constants(1, 2, sep_ctx.tau, sep_ctx.box)
        certs = solve_certificates(sep_system)

        def report():
            return verify_nondegeneracy(certs, consts, small_grid)

        monkeypatch.setattr(certificates, "_EVAL_BLOCK", 10**9)
        whole = report()
        monkeypatch.setattr(certificates, "_EVAL_BLOCK", 97)
        blocked = report()
        assert whole.points_evaluated > 97
        _assert_same_report(blocked, whole)

    def test_halton_points_cached_read_only(self, monkeypatch):
        pts = _halton_points(1500, 4)
        assert _halton_points(1500, 4) is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5
        # filled block by block, yet equal to one draw of the sequence
        assert np.array_equal(pts, _halton(0, 1500, 4))
        # the blocks verification clips in place are fresh, writable arrays
        certs, consts, spec = _certify_case(2)
        last = evaluated_samples(certs, consts, spec, monkeypatch)[1][-1]
        assert last.flags.writeable and not np.shares_memory(last, _halton_points(1500, 4))

    def test_consecutive_reports_are_equal(self):
        # the second call reads the cached Halton set, the third rebuilds it
        certs, consts, spec = _certify_case(2)
        _halton_points.cache_clear()
        first = verify_nondegeneracy(certs, consts, spec)
        second = verify_nondegeneracy(certs, consts, spec)
        _halton_points.cache_clear()
        third = verify_nondegeneracy(certs, consts, spec)
        _assert_same_report(second, first)
        _assert_same_report(third, first)


def _assert_same_report(got, want):
    """Every field of two NondegeneracyReports equal, floats bit for bit."""
    assert (got.all_clauses_pass, got.points_evaluated) == \
        (want.all_clauses_pass, want.points_evaluated)
    assert [c.name for c in got.clauses] == [c.name for c in want.clauses]
    for a, b in zip(got.clauses, want.clauses):
        assert (a.name, a.n_points, a.worst_margin.hex(), a.violations, a.passed) == \
            (b.name, b.n_points, b.worst_margin.hex(), b.violations, b.passed)
        if b.worst_point is None:
            assert a.worst_point is None
        else:
            assert a.worst_point.dtype == b.worst_point.dtype
            assert a.worst_point.tobytes() == b.worst_point.tobytes()


# --------------------------------------------------------------------------
# the full-array verification, as the oracle of the streaming pass
# --------------------------------------------------------------------------

def _oracle_points(anchors, consts, spec, ctx):
    """Every sample point in one array: full tensor grids, rays and one
    Halton draw, concatenated, box-filtered and clipped."""
    def grid(t_axes, u_axes):
        mesh = np.meshgrid(*(list(t_axes) + list(u_axes)), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    box, d = ctx.box, ctx.d
    chunks = [grid([_axis(box.t_lo[k], box.t_hi[k], spec.global_t_points)
                    for k in range(d)],
                   [_axis(box.u_min, box.u_max, spec.global_u_points)
                    for k in range(d)])]
    for a in anchors:
        nt, nu = _near_bounding_axes(a, consts.r, ctx, spec)
        chunks.append(grid(nt, nu))
        ys = np.linspace(0.0, 1.0, spec.points_per_ray + 1)[1:]
        for tgt in _ray_targets(nt, nu, spec.rays_per_region):
            if not np.array_equal(tgt, a):
                chunks.append(geodesic_spec(a, tgt, ctx).point(ys))
    if spec.lowdisc_points > 0:
        unit = qmc.Halton(d=2 * d, scramble=False).random(spec.lowdisc_points)
        chunks.append(box.lower() + unit * (box.upper() - box.lower()))
    P = np.concatenate(chunks, axis=0)
    inside = np.all((P >= box.lower() - 1e-12) & (P <= box.upper() + 1e-12), axis=1)
    return np.clip(P[inside], box.lower(), box.upper())


def _values_from_parts(certs, P):
    """certificate_values from separate kernel_values and grad1_batch calls,
    in its contraction: alpha @ K, plus beta laid out (k, 2d s) times the
    gradient moved coordinate-first and flattened to (2d s, m)."""
    pts, ctx = certs.system.anchors, certs.system.ctx
    G1 = np.moveaxis(grad1_batch(pts[:, None, :], P[None, :, :], ctx), -1, 0)
    beta = certs.beta.transpose(0, 2, 1).reshape(len(certs.beta), -1)
    return (certs.alpha @ kernel_values(pts[:, None, :], P[None, :, :], ctx)
            + beta @ G1.reshape(beta.shape[1], -1))


def _oracle_clause(name, margins, P, tol):
    if len(margins) == 0:
        return ClauseReport(name, 0, -math.inf, None, 0, True)
    i = int(np.argmax(margins))
    nviol = int(np.sum(margins > tol))
    return ClauseReport(name, len(margins), float(margins[i]),
                        None if P is None else P[i].copy(), nviol, nviol == 0)


def _oracle_verify(certs, consts, spec):
    """Each clause reduced from its own masked copy of the full arrays."""
    anchors, ctx = certs.system.anchors, certs.system.ctx
    s = len(anchors)
    P = _oracle_points(anchors, consts, spec, ctx)
    region = region_index_batch(P, anchors, consts.r, ctx)
    vals = _values_from_parts(certs, P)
    frdist = np.zeros(len(P))
    idx = np.flatnonzero(region >= 0)
    frdist[idx] = fr_distance_pairs(P[idx], anchors[region[idx]], ctx)
    far = region < 0
    near = [region == j for j in range(s)]
    tol = certificates._VIOLATION_TOL

    targets = np.vstack([np.ones(s), np.eye(s)])
    interp = np.concatenate([
        np.abs(certificate_values(certs, anchors) - targets),
        np.linalg.norm(certificate_gradients(certs, anchors), axis=-1)], axis=1)
    clauses = [_oracle_clause("global.interpolation", interp[0], None, 1e-8),
               _oracle_clause("global.far", np.abs(vals[0, far]) - (1 - consts.eps_0),
                              P[far], tol)]
    for j in range(s):
        rhs = 1 - consts.eps_2 * frdist[near[j]] ** 2
        clauses.append(_oracle_clause(f"global.near[{j}]", vals[0, near[j]] - rhs,
                                      P[near[j]], tol))
    for l in range(s):
        clauses.append(_oracle_clause(f"local[{l}].interpolation", interp[1 + l],
                                      None, 1e-8))
        clauses.append(_oracle_clause(
            f"local[{l}].far", np.abs(vals[1 + l, far]) - (1 - consts.eps_tilde_0),
            P[far], tol))
        for i in sorted(range(s), key=lambda i: i != l):
            rhs = consts.eps_tilde_2 * frdist[near[i]] ** 2
            name = "near_self" if i == l else f"near_other[{i}]"
            clauses.append(_oracle_clause(
                f"local[{l}].{name}",
                np.abs(float(i == l) - vals[1 + l, near[i]]) - rhs, P[near[i]], tol))
    return NondegeneracyReport(tuple(clauses), all(c.passed for c in clauses), len(P))


def _certify_case(case):
    """Certificates, constants and a small grid: with u_min < u_max, two
    anchors in d = 1 (case 1), two at opposite corners of the box in d = 1,
    whose near grids the box cuts ("edge"), and three in d = 2 (case 2);
    with u_min = u_max in d = 1, two anchors 3 apart ("close"), whose far
    clauses fail (1 violation of global.far and 169 of each local far
    clause)."""
    if case in (1, "edge"):
        box = DomainBox((-20.0,), (20.0,), 0.5, 2.0)
        ctx = KernelContext(1, 0.5, box)
        anchors = np.array([[-11.0, 0.8], [12.5, 1.4]] if case == 1 else
                           [[-20.0, 0.5], [20.0, 2.0]])
    elif case == "close":
        box = DomainBox((-20.0,), (20.0,), 1.0, 1.0)
        ctx = KernelContext(1, 1.0, box)
        anchors = np.array([[-1.5, 1.0], [1.5, 1.0]])
    else:
        box = DomainBox((-30.0, -30.0), (30.0, 30.0), 0.7, 1.5)
        ctx = KernelContext(2, 0.7, box)
        anchors = np.array([[-20.0, 0.0, 0.8, 1.2], [0.0, 18.0, 1.3, 0.9],
                            [20.0, 0.0, 1.0, 1.0]])
    d = ctx.d
    certs = solve_certificates(build_upsilon(anchors, ctx))
    spec = GridSpec(near_t_points=12 if d == 2 else 60,
                    near_u_points=6 if d == 2 else 30,
                    global_t_points=10 if d == 2 else 200,
                    global_u_points=5 if d == 2 else 40,
                    lowdisc_points=1500, rays_per_region=4, points_per_ray=16)
    return certs, lpc_constants(d, len(anchors), ctx.tau, box), spec


class TestStreamingVerification:
    @pytest.mark.parametrize("block", [None, 97])
    @pytest.mark.parametrize("case", [1, 2, "close"])
    def test_matches_full_array_oracle(self, case, block, monkeypatch):
        certs, consts, spec = _certify_case(case)
        if block is not None:
            monkeypatch.setattr(certificates, "_EVAL_BLOCK", block)
        got = verify_nondegeneracy(certs, consts, spec)
        want = _oracle_verify(certs, consts, spec)
        # every clause has points, so each worst point is a sample point
        assert all(c.n_points > 0 for c in want.clauses)
        # the close pair compares counts and verdicts of failing clauses too
        failing = {c.name: c.violations for c in want.clauses if not c.passed}
        assert failing == ({} if case != "close" else
                           {"global.far": 1, "local[0].far": 169, "local[1].far": 169})
        _assert_same_report(got, want)

    def test_memory_is_bounded_by_the_block(self):
        certs, consts, spec = _certify_case(1)

        def peak(global_t_points):
            grid = GridSpec(**{**spec.__dict__, "global_t_points": global_t_points})
            tracemalloc.start()
            try:
                report = verify_nondegeneracy(certs, consts, grid)
                return report.points_evaluated, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 8000 global grid points fill one block already
        points, one = peak(spec.global_t_points)
        points_10, ten = peak(10 * spec.global_t_points)
        assert points_10 - points == 9 * spec.global_t_points * spec.global_u_points
        assert ten <= 1.5 * one, (one, ten)


class TestGridPass:
    """The tensor grids are evaluated coordinate by coordinate (_grid_pass):
    each block's regions, certificate values and near Fisher-Rao distances
    equal those of the row functions on the same rows, bit for bit."""

    @pytest.mark.parametrize("case, block", [
        (1, None), (1, 29), (1, 1), (2, None), (2, 20), (2, 36), (2, 1),
        ("edge", None), ("edge", 7)])
    def test_blocks_match_row_functions(self, case, block, monkeypatch):
        # block 29 in d = 1 and 20 in d = 2 split an inner axis, block 36 in
        # d = 2 gives blocks of one row, and block 1 of one point
        certs, consts, spec = _certify_case(case)
        if block is not None:
            monkeypatch.setattr(certificates, "_EVAL_BLOCK", block)
        if block == 1:
            spec = GridSpec(near_t_points=5, near_u_points=3, global_t_points=4,
                            global_u_points=3, lowdisc_points=0)
        grids = evaluated_samples(certs, consts, spec, monkeypatch)[0]
        assert len(grids) == 1 + len(certs.system.anchors)
        n_near = 0
        for axes in grids:
            rows = []
            for region, vals, near, frsq, points in _grid_pass(certs, consts.r, axes):
                P = points(np.arange(len(region)))
                assert 0 < len(P) <= certificates._EVAL_BLOCK
                want = _row_block(certs, consts.r, P)
                np.testing.assert_array_equal(region, want[0])
                assert vals.tobytes() == want[1].tobytes()
                np.testing.assert_array_equal(near, want[2])
                assert frsq.tobytes() == want[3].tobytes()
                rows.append(P)
                n_near += len(near)
            # the blocks cover the grid once, in the order of the grid's rows
            mesh = np.meshgrid(*axes, indexing="ij")
            assert np.concatenate(rows).tobytes() == \
                np.stack([m.ravel() for m in mesh], axis=-1).tobytes()
        assert n_near > 0

    @pytest.mark.parametrize("case, block", [
        (1, 29), (2, 20), (2, 36), ("edge", None), ("edge", 7)])
    def test_reports_match_full_array_oracle(self, case, block, monkeypatch):
        certs, consts, spec = _certify_case(case)
        if block is not None:
            monkeypatch.setattr(certificates, "_EVAL_BLOCK", block)
        _assert_same_report(verify_nondegeneracy(certs, consts, spec),
                            _oracle_verify(certs, consts, spec))

    def test_ray_blocks_are_bounded_and_in_order(self, monkeypatch):
        # 5 rays of 16 points: in blocks of 7 a ray spans three blocks (one
        # spec a ray); in blocks of 40 a spec traces 2 rays; at the default
        # one spec and one block hold all of them; a target at the anchor
        # adds no ray
        certs, consts, spec = _certify_case(2)
        anchor, ctx = certs.system.anchors[0], certs.system.ctx
        targets = np.vstack([certs.system.anchors[1:], anchor[None], anchor + 0.1,
                             anchor - 0.1, anchor + [0.1, 0.0, 0.0, 0.0]])
        ys = np.linspace(0.0, 1.0, 17)[1:]
        rays = np.concatenate([geodesic_spec(anchor, tgt, ctx).point(ys)
                               for tgt in targets if not np.array_equal(tgt, anchor)])
        specs = []
        monkeypatch.setattr(certificates, "geodesic_spec",
                            lambda *args: specs.append(1) or geodesic_spec(*args))
        for block, sizes, n_specs in ((7, [7, 7, 2] * 5, 5), (40, [32, 32, 16], 3),
                                      (4096, [80], 1)):
            monkeypatch.setattr(certificates, "_EVAL_BLOCK", block)
            specs.clear()
            got = list(_ray_blocks(anchor, targets, ys, ctx))
            assert [len(b) for b in got] == sizes and len(specs) == n_specs
            assert np.concatenate(got).tobytes() == rays.tobytes()
            assert all(b.flags.writeable and b.flags.c_contiguous for b in got)
            assert not any(np.shares_memory(a, b) for i, a in enumerate(got)
                           for b in got[i + 1:] + [targets, ys])
        assert list(_ray_blocks(anchor, anchor[None], ys, ctx)) == []

    def test_ranges_split_the_first_axis_whose_tail_fits(self, monkeypatch):
        monkeypatch.setattr(certificates, "_EVAL_BLOCK", 20)
        # the tail (6,) fits in a block and (6, 6) does not: one index on
        # axes 0 and 1, ranges of 3 on axis 2, all of axis 3
        got = list(_grid_ranges((2, 3, 6, 6)))
        assert len(got) == 2 * 3 * 2
        assert got[:3] == [((0, 1), (0, 1), (0, 3), (0, 6)),
                           ((0, 1), (0, 1), (3, 6), (0, 6)),
                           ((0, 1), (1, 2), (0, 3), (0, 6))]
        assert got[-1] == ((1, 2), (2, 3), (3, 6), (0, 6))
        assert list(_grid_ranges((7, 2))) == [((0, 7), (0, 2))]
        assert list(_grid_ranges((50,))) == [((0, 20),), ((20, 40),), ((40, 50),)]
        assert list(_grid_ranges((3, 0, 2))) == []
        monkeypatch.setattr(certificates, "_EVAL_BLOCK", 4096)
        # certify_d2's global grid: ten blocks of 20 rows of t_1
        got = list(_grid_ranges((200, 200, 1, 1)))
        assert got == [((lo, lo + 20), (0, 200), (0, 1), (0, 1))
                       for lo in range(0, 200, 20)]

    def test_rows_are_filtered_and_clipped(self, monkeypatch):
        # the box is t in [-20, 20], u in [0.5, 2]: rows beyond it by more
        # than 1e-12 are dropped and the rest clipped onto it; a block left
        # empty is not evaluated
        certs, consts, spec = _certify_case(1)
        spec = GridSpec(**{**spec.__dict__, "lowdisc_points": 0})
        rays = np.array([[-20 - 2e-12, 1.0], [-20 - 5e-13, 1.0], [0.0, 0.5 - 5e-13],
                         [0.0, 2 + 2e-12], [20 + 5e-13, 2.0], [20 + 2e-12, 1.0],
                         [3.0, 1.5]])
        outside = np.array([[0.0, 0.5 - 2e-12], [20 + 2e-12, 2.0]])
        monkeypatch.setattr(certificates, "_ray_blocks",
                            lambda *args: iter([rays.copy(), outside.copy()]))
        rows = evaluated_samples(certs, consts, spec, monkeypatch)[1]
        kept = np.array([[-20.0, 1.0], [0.0, 0.5], [20.0, 2.0], [3.0, 1.5]])
        assert len(rows) == len(certs.system.anchors)
        assert all(P.tobytes() == kept.tobytes() for P in rows)

    @pytest.mark.parametrize("case", [1, 2, "edge", "close", "faces"])
    def test_grid_axes_lie_in_the_box(self, case, monkeypatch):
        # "faces": in d = 2, one anchor on each face of the box, exactly on
        # it or 5e-10 outside, which verify_nondegeneracy accepts
        certs, consts, spec = _certify_case(2 if case == "faces" else case)
        runs = [(certs, consts, spec)]
        if case == "faces":
            ctx = certs.system.ctx
            lo, hi = ctx.box.lower(), ctx.box.upper()
            consts = lpc_constants(2, 1, ctx.tau, ctx.box)
            runs = []
            for k, bound, gap in itertools.product(range(4), (lo, hi), (0.0, 5e-10)):
                anchor = np.array([5.0, -3.0, 1.0, 1.1])
                anchor[k] = bound[k] + math.copysign(gap, bound[k] - anchor[k])
                runs.append((solve_certificates(build_upsilon(anchor[None], ctx)),
                             consts, spec))
        for certs, consts, spec in runs:
            box = certs.system.ctx.box
            grids = evaluated_samples(certs, consts, spec, monkeypatch)[0]
            assert len(grids) == 1 + len(certs.system.anchors)
            for axes in grids:
                assert all(len(ax) and l <= ax.min() and ax.max() <= h
                           for ax, l, h in zip(axes, box.lower(), box.upper()))
        # the last anchor is 5e-10 above u_max
        assert verify_nondegeneracy(certs, consts, spec).points_evaluated > 0

    @pytest.mark.parametrize("j, k, shift", [
        (1, 0, 2e-9), (0, 0, -2e-9), (0, 1, -2e-9), (1, 1, 2e-9), (1, 0, 50.0)])
    def test_anchor_outside_the_box_raises(self, j, k, shift):
        # the "edge" anchors sit on opposite corners of the box: moved out
        # by more than 1e-9, their near grids would leave it
        certs, consts, spec = _certify_case("edge")
        anchors = certs.system.anchors.copy()
        anchors[j, k] += shift
        certs = solve_certificates(build_upsilon(anchors, certs.system.ctx))
        with pytest.raises(ValueError, match="outside the domain box"):
            verify_nondegeneracy(certs, consts, spec)
