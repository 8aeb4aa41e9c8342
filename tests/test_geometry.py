"""Information geometry: metric, Christoffel symbols, geodesics, regions.

The metric is block-diagonal per coordinate with g = diag(1/B, 2u^2/B^2),
B = 2u^2 + tau^2, and geodesics map coordinatewise to Poincare half-plane
geodesics in (t, sqrt(u^2 + tau^2/2)): vertical lines or semicircles.
"""
import math

import numpy as np
import pytest

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    GridSpec,
    KernelContext,
    build_upsilon,
    geodesic_spec,
    lpc_constants,
    solve_certificates,
)
from gmblasso.geometry import (
    _from_halfplane,
    _halfplane,
    _reached_points,
    fr_distance_coord,
    fr_distance_pairs,
    metric_diag_batch,
    near_radius,
    region_index_batch,
)
from gmblasso.kernel import (
    _christoffel_coeffs,
    grad12_batch,
    hess2_batch,
    rhess2_batch,
    semi_distance_pairs,
)

from conftest import evaluated_samples, random_locations

NEAR_RADIUS_1D = 0.3025
GEODESIC_KINDS = ("constant", "vertical-line", "semicircle")


def _loop_spec(x, xp, tau):
    """The per-coordinate loop that geodesic_spec replaces, on one pair, with
    math's functions and numpy scalars: kinds, length and the traversal
    arrays sig0, sig1, center, radius."""
    a, b = np.array(x, dtype=float), np.array(xp, dtype=float)
    d = len(a) // 2
    t0, h0 = _halfplane(a, tau)
    t1, h1 = _halfplane(b, tau)
    per = fr_distance_coord(a, b, tau)
    kinds, (sig0, sig1, center, radius) = [], np.zeros((4, d))
    for k in range(d):
        dt = t1[k] - t0[k]
        scale = max(1.0, abs(t0[k]), abs(t1[k]), h0[k], h1[k])
        if per[k] == 0.0:
            kinds.append("constant")
        elif abs(dt) < 1e-9 * scale:
            kinds.append("vertical-line")
            sig0[k], sig1[k] = math.log(h0[k]), math.log(h1[k])
        else:
            kinds.append("semicircle")
            c = (t1[k] ** 2 + h1[k] ** 2 - t0[k] ** 2 - h0[k] ** 2) / (2 * dt)
            center[k], radius[k] = c, math.hypot(t0[k] - c, h0[k])
            sig0[k] = math.log(math.tan(math.atan2(h0[k], t0[k] - c) / 2))
            sig1[k] = math.log(math.tan(math.atan2(h1[k], t1[k] - c) / 2))
    return tuple(kinds), float(np.sqrt(np.sum(per**2))), sig0, sig1, center, radius


def _loop_point(x, kinds, sig0, sig1, center, radius, tau, y):
    """A geodesic's points at parameters y from its start x and traversal
    arrays, by a loop over coordinates and their kinds."""
    y = np.asarray(y, dtype=float)
    d = len(kinds)
    _, h0 = _halfplane(x, tau)
    t, h = np.empty(y.shape + (d,)), np.empty(y.shape + (d,))
    sig = (1 - y[..., None]) * sig0 + y[..., None] * sig1
    for k, kind in enumerate(kinds):
        if kind == "constant":
            t[..., k], h[..., k] = x[k], h0[k]
        elif kind == "vertical-line":
            t[..., k], h[..., k] = x[k], np.exp(sig[..., k])
        else:
            theta = 2 * np.arctan(np.exp(sig[..., k]))
            t[..., k] = center[k] + radius[k] * np.cos(theta)
            h[..., k] = radius[k] * np.sin(theta)
    return _from_halfplane(t, h, tau)


def _mixed_pairs(rng, m, box):
    """m pairs (m, 2d) whose coordinates are drawn constant, vertical or
    semicircular at random, a third each."""
    d = box.d
    x, y = random_locations(rng, m, box), random_locations(rng, m, box)
    kinds = rng.integers(0, 3, size=(m, d))
    for k in range(d):
        y[kinds[:, k] < 2, k] = x[kinds[:, k] < 2, k]
        y[kinds[:, k] == 0, d + k] = x[kinds[:, k] == 0, d + k]
    return x, y, kinds


def _spec_row(spec, i):
    """Row i of a batch spec as _loop_spec's tuple."""
    return (tuple(spec.kinds[i]), float(spec.length[i]), spec._sig0[i], spec._sig1[i],
            spec._center[i], spec._radius[i])


def _same_bits(a, b):
    """Two _loop_spec tuples equal bit for bit."""
    return a[:1] == b[:1] and all(np.float64(p).tobytes() == np.float64(q).tobytes()
                                  if np.ndim(p) == 0 else p.tobytes() == q.tobytes()
                                  for p, q in zip(a[1:], b[1:]))


class TestMetric:
    def test_reference_values(self):
        g = metric_diag_batch(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(g, [1 / 3, 2 / 9], rtol=1e-15)
        g2 = metric_diag_batch(np.array([3.0, -1.0, 0.5, 2.0]), 0.5)
        B = 2 * np.array([0.5, 2.0]) ** 2 + 0.25
        np.testing.assert_allclose(
            g2, np.concatenate([1 / B, 2 * np.array([0.5, 2.0]) ** 2 / B**2]),
            rtol=1e-15)

    def test_metric_at_helpers(self, ctx1):
        # the metric at one point is the matching row of a batch
        x = np.array([0.0, 1.2])
        P = np.stack([x, [0.5, 0.7]])
        np.testing.assert_allclose(metric_diag_batch(x, ctx1.tau),
                                   metric_diag_batch(P, ctx1.tau)[0], rtol=1e-15)

    def test_riemannian_norm(self, ctx1):
        # sqrt(v^T g v) from the diagonal equals the quadratic form of the
        # mixed kernel derivative at coincidence, which is the metric
        x = np.array([0.3, 0.9])
        v = np.array([0.4, -0.2])
        g = metric_diag_batch(x, ctx1.tau)
        M = grad12_batch(x, x, ctx1)
        assert math.sqrt(np.sum(g * v**2)) == pytest.approx(
            math.sqrt(v @ M @ v), rel=1e-14)


class TestChristoffel:
    def test_reference_values(self):
        # u = tau = 1: Gamma^t_{ut} = -2/3, Gamma^u_{tt} = 1, Gamma^u_{uu} = -1/3
        gt, gu_tt, gu_uu = _christoffel_coeffs(np.array([0.0, 1.0]), 1.0)
        assert gt[0] == pytest.approx(-2 / 3, rel=1e-15)
        assert gu_tt[0] == pytest.approx(1.0, rel=1e-15)
        assert gu_uu[0] == pytest.approx(-1 / 3, rel=1e-15)

    def test_matrix_structure(self, ctx2):
        # the Christoffel part hess2 - rhess2 = sum_k dK/dt_k Gamma^{t_k}
        # + dK/du_k Gamma^{u_k} is symmetric; Gamma^{t_k} fills only the
        # (t_k, u_k) pair and Gamma^{u_k} only (t_k, t_k) and (u_k, u_k)
        x = np.array([0.3, 0.2, 1.1, 0.6])
        y = np.array([0.1, -0.7, 0.8, 1.4])
        G = hess2_batch(x, y, ctx2) - rhess2_batch(x, y, ctx2)
        np.testing.assert_allclose(G, G.T)
        mask = np.zeros((4, 4), dtype=bool)
        for k in range(2):
            mask[k, 2 + k] = mask[2 + k, k] = True
            mask[k, k] = mask[2 + k, 2 + k] = True
        assert np.all((G != 0) == mask)
        assert _christoffel_coeffs(np.stack([x, y]), ctx2.tau)[0].shape == (2, 2)

    def test_consistency_with_metric_derivative(self, ctx1):
        # For a diagonal metric depending only on u:
        # Gamma^t_{tu} = g_t'/(2 g_t), Gamma^u_{tt} = -g_t'/(2 g_u),
        # Gamma^u_{uu} = g_u'/(2 g_u).
        h = 1e-6
        for u in (0.55, 0.9, 1.7):
            x = np.array([0.0, u])
            gp = (metric_diag_batch(np.array([0.0, u + h]), ctx1.tau)
                  - metric_diag_batch(np.array([0.0, u - h]), ctx1.tau)) / (2 * h)
            g = metric_diag_batch(x, ctx1.tau)
            gt, gu_tt, gu_uu = _christoffel_coeffs(x, ctx1.tau)
            assert gt[0] == pytest.approx(gp[0] / (2 * g[0]), rel=1e-6)
            assert gu_tt[0] == pytest.approx(-gp[0] / (2 * g[1]), rel=1e-6)
            assert gu_uu[0] == pytest.approx(gp[1] / (2 * g[1]), rel=1e-6)


class TestFisherRao:
    def test_reference_value(self):
        # (0,1) -> (0,2) at tau=1: half-plane heights sqrt(3/2) and sqrt(9/2),
        # a vertical geodesic, giving sqrt(2) * ln(sqrt(9/2)/sqrt(3/2)) / 2
        # = ln(3)/(2 sqrt(2)) under this metric normalization
        from gmblasso import DomainBox, KernelContext
        ctx = KernelContext(1, 1.0, DomainBox((-20.0,), (20.0,), 1.0, 2.0))
        d = float(fr_distance_pairs(np.array([0.0, 1.0]), np.array([0.0, 2.0]), ctx))
        assert d == pytest.approx(math.log(3.0) / (2 * math.sqrt(2.0)), rel=1e-12)

    def test_symmetry_and_identity(self, ctx1):
        rng = np.random.default_rng(30)
        X = random_locations(rng, 60, ctx1.box)
        Y = random_locations(rng, 60, ctx1.box)
        np.testing.assert_allclose(fr_distance_pairs(X, Y, ctx1),
                                   fr_distance_pairs(Y, X, ctx1), rtol=1e-12)
        np.testing.assert_allclose(fr_distance_pairs(X, X, ctx1), 0.0, atol=1e-14)

    def test_triangle_inequality(self, ctx1):
        rng = np.random.default_rng(31)
        X = random_locations(rng, 50, ctx1.box)
        Y = random_locations(rng, 50, ctx1.box)
        Z = random_locations(rng, 50, ctx1.box)
        dxy = fr_distance_pairs(X, Y, ctx1)
        dxz = fr_distance_pairs(X, Z, ctx1)
        dzy = fr_distance_pairs(Z, Y, ctx1)
        assert np.all(dxy <= dxz + dzy + 1e-12)


class TestGeodesics:
    def test_endpoints(self, ctx1):
        rng = np.random.default_rng(32)
        X = random_locations(rng, 50, ctx1.box)
        Y = random_locations(rng, 50, ctx1.box)
        for x, y in zip(X, Y):
            spec = geodesic_spec(x, y, ctx1)
            p0, p1 = spec.point(0.0), spec.point(1.0)
            assert np.max(np.abs(p0 - x)) < 1e-10
            assert np.max(np.abs(p1 - y)) < 1e-10

    def test_halfplane_roundtrip(self, ctx2):
        X = random_locations(np.random.default_rng(37), 40, ctx2.box)
        t, h = _halfplane(X, ctx2.tau)
        np.testing.assert_allclose(h**2, X[:, 2:]**2 + ctx2.tau**2 / 2, rtol=1e-14)
        np.testing.assert_allclose(_from_halfplane(t, h, ctx2.tau), X, rtol=1e-14)

    def test_constant_speed(self, ctx1):
        x = np.array([-1.0, 0.7])
        y = np.array([2.0, 1.6])
        total = float(fr_distance_pairs(x, y, ctx1))
        spec = geodesic_spec(x, y, ctx1)
        for frac in (0.25, 0.5, 0.75):
            along = float(fr_distance_pairs(x, spec.point(frac), ctx1))
            assert along == pytest.approx(frac * total, rel=1e-9)

    def test_polyline_length_matches_distance(self, ctx2):
        rng = np.random.default_rng(33)
        X = random_locations(rng, 10, ctx2.box)
        Y = random_locations(rng, 10, ctx2.box)
        grid = np.linspace(0.0, 1.0, 65)
        for x, y in zip(X, Y):
            spec = geodesic_spec(x, y, ctx2)
            pts = spec.point(grid)
            seg = fr_distance_pairs(pts[:-1], pts[1:], ctx2)
            assert float(np.sum(seg)) == pytest.approx(spec.length, rel=1e-9)

    def test_riemann_sum_arclength(self, ctx1):
        # numerical tangent norms integrate to the Fisher-Rao distance
        x = np.array([0.4, 0.6])
        y = np.array([-1.1, 1.8])
        spec = geodesic_spec(x, y, ctx1)
        grid = np.linspace(0.0, 1.0, 4001)
        pts = spec.point(grid)
        mids = 0.5 * (pts[:-1] + pts[1:])
        g = metric_diag_batch(mids, ctx1.tau)
        step = np.diff(pts, axis=0)
        length = float(np.sum(np.sqrt(np.sum(g * step**2, axis=-1))))
        assert length == pytest.approx(spec.length, rel=1e-4)

    def test_kinds(self, ctx1):
        vertical = geodesic_spec(np.array([0.5, 0.6]), np.array([0.5, 1.5]), ctx1)
        assert vertical.kinds == ("vertical-line",)
        circle = geodesic_spec(np.array([-1.0, 0.8]), np.array([1.0, 0.8]), ctx1)
        assert circle.kinds == ("semicircle",)
        still = geodesic_spec(np.array([0.5, 0.6]), np.array([0.5, 0.6]), ctx1)
        assert still.kinds == ("constant",)
        assert still.length == 0.0

    def test_point_matches_the_per_coordinate_loop(self):
        # the loop over coordinates that GeodesicSpec.point replaces, as its
        # oracle, on d = 3 geodesics mixing the three kinds
        box = DomainBox((-5.0,) * 3, (5.0,) * 3, 0.5, 2.0)
        ctx = KernelContext(3, 0.4, box)
        rng = np.random.default_rng(91)
        for kinds in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 2, 1), (0, 0, 2), (1, 1, 1)]:
            x, y = random_locations(rng, 2, box)
            for k, kind in enumerate(kinds):
                if kind == 0:
                    y[[k, 3 + k]] = x[[k, 3 + k]]
                elif kind == 1:
                    y[k] = x[k]
            spec = geodesic_spec(x, y, ctx)
            assert tuple(spec.kinds) == tuple(GEODESIC_KINDS[k] for k in kinds)
            for ys in (rng.random(), rng.random(17)):
                loop = _loop_point(x, spec.kinds, spec._sig0, spec._sig1,
                                   spec._center, spec._radius, ctx.tau, ys)
                assert spec.point(ys).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spec_matches_the_per_coordinate_loop(self, d):
        # 3000 pairs mixing the three kinds in one call: kinds, length,
        # traversal arrays and points equal the loop's bit for bit
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        x, y, kinds = _mixed_pairs(np.random.default_rng(40 + d), 3000, box)
        spec = geodesic_spec(x, y, ctx)
        ys = np.linspace(0.0, 1.0, 9)
        P = spec.point(ys)
        assert spec.kinds.shape == (3000, d) and P.shape == (3000, 9, 2 * d)
        assert set(np.unique(spec.kinds)) == set(GEODESIC_KINDS)
        for i in range(3000):
            loop = _loop_spec(x[i], y[i], ctx.tau)
            assert _same_bits(_spec_row(spec, i), loop)
            assert P[i].tobytes() == _loop_point(x[i], *loop[:1], *loop[2:],
                                                 ctx.tau, ys).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_rows_equal_single_pairs(self, d):
        # (m, 1, 2d) against (1, k, 2d), and one anchor against (k, 2d): each
        # row of the batch spec and of its points is its pair's spec bit for bit
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        rng = np.random.default_rng(60 + d)
        X, Y, _ = _mixed_pairs(rng, 6, box)
        X, Y = X[:3], np.vstack([Y, X[:1]])
        ys = rng.random((2, 5))
        spec = geodesic_spec(X[:, None], Y[None, :], ctx)
        P = spec.point(ys)
        assert spec.length.shape == (3, 7) and spec.kinds.shape == (3, 7, d)
        assert P.shape == (3, 7, 2, 5, 2 * d)
        assert spec.point(0.5).shape == (3, 7, 2 * d)
        for i, j in np.ndindex(3, 7):
            one = geodesic_spec(X[i], Y[j], ctx)
            assert one.length.shape == () and one.point(ys).shape == (2, 5, 2 * d)
            assert _same_bits(_spec_row(spec, (i, j)), _spec_row(one, ()))
            assert P[i, j].tobytes() == one.point(ys).tobytes()
        fan = geodesic_spec(X[0], Y, ctx)
        assert fan.point(ys).tobytes() == P[0].tobytes()
        assert tuple(fan.kinds[-1]) == ("constant",) * d and fan.length[-1] == 0.0
        # the specs do not follow later writes to the rows they were given
        X[:], Y[:] = 0.0, 1.0
        assert spec.point(ys).tobytes() == P.tobytes()
        assert fan.point(ys).tobytes() == P[0].tobytes()

    def test_constant_coordinate_plane(self, ctx2):
        # the endpoints agree in plane 0 (t_0, u_0): it stays fixed along the
        # geodesic, and the length is plane 1's distance alone
        x = np.array([0.5, -1.0, 0.8, 1.2])
        y = np.array([0.5, 2.0, 0.8, 0.7])
        spec = geodesic_spec(x, y, ctx2)
        assert tuple(spec.kinds) == ("constant", "semicircle")
        pts = spec.point(np.linspace(0.0, 1.0, 17))
        np.testing.assert_allclose(pts[:, [0, 2]], np.broadcast_to(x[[0, 2]], (17, 2)),
                                   rtol=1e-15)
        assert spec.length == pytest.approx(
            float(fr_distance_pairs(x[[1, 3]], y[[1, 3]], ctx2)), rel=1e-15)
        np.testing.assert_allclose(pts[[0, -1]], np.stack([x, y]), rtol=1e-12)

    def test_semidistance_monotone_along_geodesic(self, ctx1):
        # y -> semidistance(x0, gamma(y)) is nondecreasing while inside the
        # near region
        rng = np.random.default_rng(34)
        count = 0
        grid = np.linspace(0.0, 1.0, 33)
        while count < 200:
            x = random_locations(rng, 1, ctx1.box, margin=0.1)[0]
            y = x + rng.normal(scale=[0.15, 0.08], size=2)
            y = np.clip(y, ctx1.box.lower(), ctx1.box.upper())
            if float(semi_distance_pairs(x, y, ctx1)) > NEAR_RADIUS_1D:
                continue
            spec = geodesic_spec(x, y, ctx1)
            pts = spec.point(grid)
            dist = semi_distance_pairs(np.broadcast_to(x, pts.shape), pts, ctx1)
            assert np.all(np.diff(dist) >= -1e-12)
            count += 1

    def test_fr_dominates_semidistance_on_band(self, ctx1):
        # squared Fisher-Rao >= squared semidistance / 2.84 on the annulus
        # r_e <= semidistance <= r
        rng = np.random.default_rng(35)
        collected = 0
        while collected < 500:
            X = random_locations(rng, 200, ctx1.box)
            Y = X + rng.normal(scale=0.25, size=X.shape)
            Y = np.clip(Y, ctx1.box.lower(), ctx1.box.upper())
            ds = semi_distance_pairs(X, Y, ctx1)
            band = (ds >= NEAR_RADIUS_1D / 4) & (ds <= NEAR_RADIUS_1D)
            fr = fr_distance_pairs(X[band], Y[band], ctx1)
            assert np.all(fr**2 >= ds[band] ** 2 / 2.84 - 1e-12)
            collected += int(np.sum(band))


class TestRegions:
    def _target(self):
        return DiscreteMeasure.from_arrays(
            np.array([0.5, 0.5]), np.array([[-2.0, 1.0], [2.0, 1.0]]))

    def test_region_of_basic(self, ctx1):
        P = np.array([[-2.01, 1.0], [2.01, 1.0], [0.0, 1.0]])
        idx = region_index_batch(P, self._target().coords, 0.3, ctx1)
        assert idx.tolist() == [0, 1, -1]

    def test_region_of_tie_breaks_low_index(self, ctx1):
        anchors = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert region_index_batch(np.array([[1.0, 1.0]]), anchors, 0.5, ctx1)[0] == 0

    def test_region_of_empty_target(self, ctx1):
        idx = region_index_batch(np.array([[0.0, 1.0]]),
                                 DiscreteMeasure.empty().coords, 0.5, ctx1)
        assert idx.tolist() == [-1]

    def test_boundary_inclusive(self, ctx1):
        anchors = np.array([[0.0, 1.0]])
        P = np.array([[0.35, 1.0]])
        r = float(semi_distance_pairs(P[0], anchors[0], ctx1))
        assert region_index_batch(P, anchors, r, ctx1)[0] == 0
        assert region_index_batch(P, anchors, r * (1 - 1e-9), ctx1)[0] == -1

    def test_batch_matches_scalar(self, ctx1):
        # brute force: nearest anchor by semi-distance, one point at a time
        rng = np.random.default_rng(36)
        anchors = self._target().coords
        P = random_locations(rng, 300, ctx1.box)
        idx = region_index_batch(P, anchors, 0.4, ctx1)
        for p, i in zip(P, idx):
            dist = [float(semi_distance_pairs(p, a, ctx1)) for a in anchors]
            j = int(np.argmin(dist))
            assert i == (j if dist[j] <= 0.4 else -1)


def _all_anchor_regions(P, anchors, r, ctx):
    """region_index_batch without the point skip: semi-distances from every
    point to every anchor."""
    dist = semi_distance_pairs(anchors[:, None, :], P[None, :, :], ctx)
    j = np.argmin(dist, axis=0)
    return np.where(dist[j, np.arange(len(P))] <= r, j, -1)


class TestAnchorSkip:
    """region_index_batch drops the points out of every anchor's reach; its
    result must equal the pass over every anchor and point, point for
    point."""

    def _check(self, P, anchors, r, ctx):
        want = _all_anchor_regions(P, anchors, r, ctx)
        got = region_index_batch(P, anchors, r, ctx)
        np.testing.assert_array_equal(got, want)
        for i in range(len(P)):      # every point as its own block too
            assert region_index_batch(P[i:i + 1], anchors, r, ctx)[0] == want[i]
        return got

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_blocks_match_the_full_pass(self, d):
        rng = np.random.default_rng(70 + d)
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        anchors = random_locations(rng, 6, box)
        skipped = near = 0
        for block in range(40):
            # blocks around an anchor or a random centre, narrow or wide, with
            # scales below u_min and above u_max
            m = int(rng.integers(1, 60))
            centre = anchors[block % 6] if block % 2 else random_locations(rng, 1, box)[0]
            spread = (0.05, 0.5, 5.0)[block % 3]
            P = centre + spread * rng.normal(size=(m, 2 * d))
            P[:, d:] = np.clip(np.abs(centre[d:] + 0.2 * (P[:, d:] - centre[d:])), 0.2, 3.0)
            for r in (near_radius(d), 0.5, 1e-4, 3.0):
                got = self._check(P, anchors, r, ctx)
                skipped += len(P) - len(_reached_points(P, anchors, r, ctx.tau))
                near += int(np.count_nonzero(got >= 0))
        # the skip is exercised, and so are the near points
        assert skipped > 200 and near > 100

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_at_the_reach(self, d):
        # t_k moved by exactly r sqrt(u_a^2 + U^2 + tau^2), with U = u_a: the
        # semi-distance is r up to rounding, and the gap equals the reach
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        anchors = np.array([[-1.0] * d + [0.8] * d, [1.5] * d + [1.3] * d])
        r = near_radius(d)
        rows = []
        for a in anchors:
            reach = r * np.sqrt(2 * a[d:] ** 2 + ctx.tau**2)
            for k in range(d):
                for sign in (-1.0, 1.0):
                    for f in (1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9):
                        p = a.copy()
                        p[k] += sign * f * reach[k]
                        rows.append(p)
        got = self._check(np.array(rows), anchors, r, ctx)
        assert np.any(got >= 0) and np.any(got < 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_at_the_block_reach(self, d):
        # points moved in t_k by f r sqrt(u_a^2 + U^2 + tau^2), with U = 2 the
        # largest u of the block (its last point, far from both anchors): the
        # point skip keeps f <= 1 + 1e-9, inside the widened reach, and drops
        # f = 1.01; every one of them is far at its own u
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        anchors = np.array([[-1.0] * d + [0.8] * d, [1.5] * d + [1.3] * d])
        r = near_radius(d)
        rows, dropped = [], []
        for a in anchors:
            reach = r * np.sqrt(a[d:] ** 2 + 2.0**2 + ctx.tau**2)
            for k in range(d):
                for sign in (-1.0, 1.0):
                    for f in (1 - 1e-9, 1.0, 1 + 1e-9, 1.01):
                        p = a.copy()
                        p[k] += sign * f * reach[k]
                        rows.append(p)
                        dropped.append(f > 1.001)
        rows.append([0.2] * d + [2.0] * d)
        dropped.append(True)
        P = np.array(rows)
        assert self._check(P, anchors, r, ctx).tolist() == [-1] * len(P)
        assert _reached_points(P, anchors, r, ctx.tau).tolist() == \
            [i for i, out in enumerate(dropped) if not out]

    def test_block_in_reach_in_one_coordinate_only(self, ctx2):
        # both points lie within the anchor's reach in t_2, the second one
        # not in t_1: that coordinate alone drops it
        anchors = np.array([[0.0, 0.0, 1.0, 1.0]])
        P = np.array([[0.0, 0.0, 1.0, 1.0], [4.0, 0.0, 1.0, 1.0]])
        assert _reached_points(P, anchors, near_radius(2), ctx2.tau).tolist() == [0]
        assert self._check(P, anchors, near_radius(2), ctx2).tolist() == [0, -1]

    def test_nan_point_is_far_and_keeps_the_others(self, ctx2):
        anchors = np.array([[-1.0, 0.0, 1.0, 1.0], [2.0, 1.0, 0.8, 1.2]])
        P = np.array([[-1.1, 0.1, 1.0, 1.0], [np.nan, 0.0, 1.0, 1.0],
                      [2.0, 1.0, 0.8, np.nan], [2.05, 0.95, 0.8, 1.2],
                      [4.5, -4.5, 1.0, 1.0]])
        assert self._check(P, anchors, near_radius(2), ctx2).tolist() == [0, -1, -1, 1, -1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_radius_at_a_points_distance(self, d):
        rng = np.random.default_rng(80 + d)
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        anchors = random_locations(rng, 4, box)
        P = anchors[rng.integers(0, 4, 30)] + 0.1 * rng.normal(size=(30, 2 * d))
        P[:, d:] = np.abs(P[:, d:])
        for i in range(len(P)):
            r = float(semi_distance_pairs(anchors[:, None, :], P[i], ctx).min())
            for radius in (r * (1 - 1e-9), r, r * (1 + 1e-9)):
                got = self._check(P, anchors, radius, ctx)
                assert (got[i] >= 0) == (radius >= r)

    def test_scales_above_u_max_keep_their_anchor(self, sep_ctx):
        # with u = 1.1 > u_max = 1 the ball of anchor (0, 1) reaches past
        # r sqrt(u_a^2 + u_max^2 + tau^2), so a reach taken from the box would
        # drop the anchor of this point
        anchors = np.array([[0.0, 1.0], [9.0, 1.0]])
        r = near_radius(1)
        P = np.array([[0.53, 1.1], [-0.53, 1.1]])
        assert np.all(0.53 > r * math.sqrt(1 + sep_ctx.box.u_max**2 + sep_ctx.tau**2))
        assert self._check(P, anchors, r, sep_ctx).tolist() == [0, 0]

    def test_block_no_anchor_reaches(self, ctx2):
        anchors = np.array([[-4.0, -4.0, 1.0, 1.0], [-3.0, -4.0, 0.6, 1.5]])
        P = np.array([[3.0, 4.0, 1.0, 1.0], [4.5, 3.5, 2.0, 0.5]])
        assert len(_reached_points(P, anchors, near_radius(2), ctx2.tau)) == 0
        assert self._check(P, anchors, near_radius(2), ctx2).tolist() == [-1, -1]

    def test_ties_map_to_the_smallest_kept_index(self, ctx1):
        # anchor 0 is out of every point's reach and the last point out of
        # every anchor's; anchors 1 and 2 coincide, so every point near them
        # ties and takes index 1
        anchors = np.array([[-4.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.05, 1.0]])
        P = np.array([[0.9, 1.0], [1.0, 1.0], [1.2, 1.1], [3.0, 1.0]])
        r = near_radius(1)
        assert _reached_points(P, anchors, r, ctx1.tau).tolist() == [0, 1, 2]
        assert self._check(P, anchors, r, ctx1).tolist() == [1, 1, 3, -1]

    @pytest.mark.parametrize("case", ["certify_d2", "u_range"])
    def test_certify_row_blocks_match_the_full_pass(self, case, monkeypatch):
        # the pass's traffic: the ray and Halton blocks that
        # verify_nondegeneracy evaluates row by row (its grids take their
        # regions from per-coordinate terms), on a certify_d2 pool config of
        # the benchmark (u_min = u_max) and on the d = 2 scenario with
        # u_min < u_max at a reduced GridSpec, whose rays keep their interiors
        if case == "certify_d2":
            box, tau, spec = DomainBox((-35.0,) * 2, (35.0,) * 2, 1.0, 1.0), 1.0, GridSpec()
            anchors = np.array([[-26.3, 0.8, 1.0, 1.0], [0.5, 19.4, 1.0, 1.0],
                                [27.6, -0.2, 1.0, 1.0]])
        else:
            box, tau = DomainBox((-30.0,) * 2, (30.0,) * 2, 0.7, 1.5), 0.7
            spec = GridSpec(near_t_points=40, near_u_points=10, global_t_points=20,
                            global_u_points=10, lowdisc_points=20_000)
            anchors = np.array([[-20.0, 0.0, 0.8, 1.2], [0.0, 18.0, 1.3, 0.9],
                                [20.0, 0.0, 1.0, 1.0]])
        ctx = KernelContext(2, tau, box)
        consts = lpc_constants(2, 3, tau, box)
        r = consts.r
        certs = solve_certificates(build_upsilon(anchors, ctx))
        blocks = evaluated_samples(certs, consts, spec, monkeypatch)[1]
        skipped = near = 0
        for P in blocks:
            got = region_index_batch(P, anchors, r, ctx)
            np.testing.assert_array_equal(got, _all_anchor_regions(P, anchors, r, ctx))
            skipped += len(P) - len(_reached_points(P, anchors, r, ctx.tau))
            near += int(np.count_nonzero(got >= 0))
        rows = sum(len(P) for P in blocks)
        assert rows >= spec.lowdisc_points and skipped > rows // 2 and near > 0
