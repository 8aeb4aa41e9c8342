"""Objective evaluation, gradients, particle descent, and parameter rules."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    GroundTruthMixture,
    KernelContext,
    ObjectiveContext,
    SolverConfig,
    acceptance_check,
    cpgd_solve,
    initial_measure,
    objective,
    objective_gradient,
    prune_merge,
    recommended_parameters,
    reparametrize,
    sample,
    weight_function,
)
from gmblasso.kernel import data_witness, semi_distance_pairs
from gmblasso.solver import _fewer_atoms, _merge, _move, _Point, resolve_tau

from conftest import random_locations, rel_error


@pytest.fixture()
def small_octx(ctx1):
    rng = np.random.default_rng(50)
    samples = rng.normal(0.0, 1.2, size=60)
    return ObjectiveContext(samples, 0.05, ctx1)


def _start(octx, cfg, seed=0):
    return initial_measure(octx, cfg, np.random.default_rng(seed))


def _measure(rng, m, box):
    pts = random_locations(rng, m, box, margin=0.1)
    return DiscreteMeasure.from_arrays(0.05 + 0.4 * rng.random(m), pts)


class TestObjectiveContext:
    def test_promotes_1d_samples(self, ctx1):
        octx = ObjectiveContext(np.array([0.0, 1.0, 2.0]), 0.1, ctx1)
        assert octx.samples.shape == (3, 1)
        assert octx.n == 3

    @pytest.mark.parametrize("samples,kappa", [
        (np.zeros((0, 1)), 0.1),
        (np.array([[0.0, 1.0]]), 0.1),        # wrong dimension for d=1
        (np.array([math.nan]), 0.1),
        (np.array([0.0]), 0.0),
        (np.array([0.0]), -1.0),
    ])
    def test_rejects_invalid(self, ctx1, samples, kappa):
        with pytest.raises(ValueError):
            ObjectiveContext(samples, kappa, ctx1)

    def test_fidelity_constant_bruteforce(self, ctx1):
        from gmblasso import lambda_pair
        rng = np.random.default_rng(51)
        X = rng.normal(size=30)
        octx = ObjectiveContext(X, 0.1, ctx1)
        brute = np.mean([lambda_pair(np.array([a - b]), ctx1)
                         for a in X for b in X])
        assert octx.fidelity_constant == pytest.approx(brute, rel=1e-12)

    def test_fidelity_constant_blocked_sum_large(self, ctx1):
        # n = 3000 exceeds one 2048 block of the pair sum; C takes the
        # cell-pair form here
        rng = np.random.default_rng(52)
        X = rng.normal(size=3000)
        octx = ObjectiveContext(X, 0.1, ctx1)
        from gmblasso import lambda_pair
        lam = lambda_pair(X[:, None, None] - X[None, :, None], ctx1)
        assert octx.fidelity_constant == pytest.approx(float(lam.mean()),
                                                       rel=1e-12)


    def test_blocked_pair_sum_large(self, ctx1):
        # the pair sum behind C without a table, over several 2048 blocks
        from gmblasso.kernel import lambda_pair, lambda_sum
        rng = np.random.default_rng(53)
        X = rng.normal(size=(2500, 1))
        lam = lambda_pair(X[:, None, :] - X[None, :, :], ctx1)
        assert lambda_sum(X, ctx1) == pytest.approx(float(lam.sum()), rel=1e-12)

    def test_table_choice_on_the_separated_scenario(self, sep_mixture, sep_ctx):
        rng = np.random.default_rng(54)
        small = ObjectiveContext(sample(sep_mixture, 1000, rng), 0.05, sep_ctx)
        large = ObjectiveContext(sample(sep_mixture, 30000, rng), 0.05, sep_ctx)
        assert small.table is None
        assert large.table is not None
        assert large.table.n == 30000


class TestObjective:
    def test_empty_measure_value(self):
        # single sample, tau = 1: J(0) = C/2 = lambda(0)/2 = (2 pi)^(-1/2)/2
        box = DomainBox((-5.0,), (5.0,), 1.0, 1.0)
        ctx = KernelContext(1, 1.0, box)
        octx = ObjectiveContext(np.array([0.0]), 0.1, ctx)
        assert objective(DiscreteMeasure.empty(), octx) == pytest.approx(
            0.5 * (2 * math.pi) ** -0.5, rel=1e-14)

    def test_kappa_linearity(self, ctx1):
        rng = np.random.default_rng(53)
        X = rng.normal(size=40)
        mu = _measure(rng, 4, ctx1.box)
        j1 = objective(mu, ObjectiveContext(X, 0.02, ctx1))
        j2 = objective(mu, ObjectiveContext(X, 0.11, ctx1))
        tv = float(np.sum(mu.weights))
        assert j2 - j1 == pytest.approx((0.11 - 0.02) * tv, rel=1e-10)

    def test_matches_quadrature(self, ctx1):
        # J = 1/2 int (smoothed empirical - fitted density)^2 + kappa |mu|
        rng = np.random.default_rng(54)
        X = rng.normal(0.0, 1.0, size=15)
        kappa = 0.07
        octx = ObjectiveContext(X, kappa, ctx1)
        mu = _measure(rng, 3, ctx1.box)
        tau = ctx1.tau

        w = mu.weights
        pts = mu.locations_array()
        amp = w / weight_function(pts, tau)

        def emp(z):
            v = tau**2 / 2
            return np.mean(np.exp(-((z - X) ** 2) / (2 * v))) \
                / math.sqrt(2 * math.pi * v)

        def fit(z):
            v = pts[:, 1] ** 2 + tau**2 / 2
            return float(np.sum(
                amp * np.exp(-((z - pts[:, 0]) ** 2) / (2 * v))
                / np.sqrt(2 * math.pi * v)))

        val, _ = quad(lambda z: (emp(z) - fit(z)) ** 2, -40, 40,
                      limit=400, epsabs=1e-13, epsrel=1e-11)
        expected = 0.5 * val + kappa * float(np.sum(w))
        assert objective(mu, octx) == pytest.approx(expected, rel=1e-6)

    def test_core_plus_constant(self, small_octx):
        # objective adds C/2 to the value the solver iterates on, nothing else
        rng = np.random.default_rng(55)
        mu = _measure(rng, 5, small_octx.ctx.box)
        core = objective_gradient(mu.weights, mu.coords, small_octx)[0]
        assert objective(mu, small_octx) == core + 0.5 * small_octx.fidelity_constant


class TestGradient:
    def test_matches_fd(self, small_octx):
        rng = np.random.default_rng(56)
        mu = _measure(rng, 4, small_octx.ctx.box)
        w0, p0 = mu.weights, mu.coords
        _, gw, gx = objective_gradient(w0, p0, small_octx)
        h = 1e-6

        def core(w, pts):
            return objective_gradient(w, pts, small_octx)[0]

        for j in range(mu.s):
            wp, wm = w0.copy(), w0.copy()
            wp[j] += h
            wm[j] -= h
            fd = (core(wp, p0) - core(wm, p0)) / (2 * h)
            assert gw[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

        for j in range(mu.s):
            for c in range(2):
                pp, pm = p0.copy(), p0.copy()
                pp[j, c] += h
                pm[j, c] -= h
                fd = (core(w0, pp) - core(w0, pm)) / (2 * h)
                assert gx[j, c] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_weights(self, small_octx):
        # at w = 0 the weight gradient reduces to kappa - witness and the
        # position gradient vanishes (conic scaling by omega_j)
        from gmblasso import data_witness
        rng = np.random.default_rng(57)
        pts = random_locations(rng, 3, small_octx.ctx.box)
        _, gw, gx = objective_gradient(np.zeros(3), pts, small_octx)
        wit = data_witness(pts, small_octx.samples, small_octx.ctx)
        np.testing.assert_allclose(gw, small_octx.kappa - wit, rtol=1e-12)
        np.testing.assert_allclose(gx, 0.0, atol=1e-15)

    def test_identical_atoms_identical_rows(self, small_octx):
        pts = np.array([[0.5, 1.0], [0.5, 1.0]])
        _, gw, gx = objective_gradient(np.array([0.2, 0.2]), pts, small_octx)
        assert gw[0] == pytest.approx(gw[1], rel=1e-14)
        np.testing.assert_allclose(gx[0], gx[1], rtol=1e-14)

    def test_empty_measure(self, small_octx):
        empty = DiscreteMeasure.empty()
        J, gw, gx = objective_gradient(empty.weights, empty.coords, small_octx)
        assert J == 0.0 and gw.shape == (0,) and gx.shape == (0, 0)


class TestPruneMerge:
    def test_drops_dust(self, ctx1):
        cfg = SolverConfig(prune_threshold=0.01, merge_radius=0.05)
        w, pts = prune_merge(np.array([0.5, 1e-4]),
                             np.array([[0.0, 1.0], [2.0, 1.0]]), cfg, ctx1)
        assert len(w) == 1 and pts.shape == (1, 2)
        assert w[0] == pytest.approx(0.5)

    def test_merges_close_atoms(self, ctx1):
        cfg = SolverConfig(prune_threshold=1e-9, merge_radius=0.3)
        w, pts = prune_merge(np.array([0.3, 0.1]),
                             np.array([[0.0, 1.0], [0.05, 1.0]]), cfg, ctx1)
        assert len(w) == 1
        assert w[0] == pytest.approx(0.4, rel=1e-12)
        # merged mean is the weight-shared average of the t coordinates
        assert pts[0, 0] == pytest.approx(0.0125, abs=1e-10)

    def test_keeps_separated_atoms(self, ctx1):
        cfg = SolverConfig(prune_threshold=1e-9, merge_radius=0.3)
        w, pts = prune_merge(np.array([0.3, 0.1]),
                             np.array([[-2.0, 1.0], [2.0, 1.0]]), cfg, ctx1)
        assert len(w) == 2 and pts.shape == (2, 2)

    def test_empty_passthrough(self, ctx1):
        w, pts = prune_merge(np.zeros(0), np.zeros((0, 2)), SolverConfig(), ctx1)
        assert w.shape == (0,) and pts.shape == (0, 2)


class TestInitialMeasure:
    def test_in_box_positive_weights(self, small_octx):
        cfg = SolverConfig(max_particles=8)
        mu = initial_measure(small_octx, cfg, np.random.default_rng(0))
        assert mu.s == 8
        assert np.all(mu.weights > 0)
        for x in mu.coords:
            assert small_octx.ctx.box.contains(x)
        # u starts at the geometric mid-scale of the box
        u0 = math.sqrt(small_octx.ctx.box.u_min * small_octx.ctx.box.u_max)
        for x in mu.coords:
            assert x[1] == pytest.approx(u0)

    def test_covers_both_clusters(self, sep_mixture, sep_ctx):
        # farthest-first subset selection must place atoms in every mode
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = sample(sep_mixture, 400, rng)
            octx = ObjectiveContext(X, 0.05, sep_ctx)
            mu = initial_measure(octx, SolverConfig(max_particles=8), rng)
            t = mu.locations_array()[:, 0]
            assert np.any(t < 0) and np.any(t > 0)

    def test_more_particles_than_samples(self, ctx1):
        octx = ObjectiveContext(np.array([0.0, 1.0]), 0.05, ctx1)
        mu = initial_measure(octx, SolverConfig(max_particles=8),
                             np.random.default_rng(0))
        assert mu.s == 8

    def test_deterministic_given_seed(self, small_octx):
        cfg = SolverConfig(max_particles=6)
        a = initial_measure(small_octx, cfg, np.random.default_rng(123))
        b = initial_measure(small_octx, cfg, np.random.default_rng(123))
        np.testing.assert_array_equal(a.locations_array(), b.locations_array())


class TestDescent:
    def test_monotone_trace(self, small_octx):
        cfg = SolverConfig(iterations=60)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        vals = [row.objective for row in res.trace]
        assert len(vals) > 0
        assert np.all(np.diff(vals) <= 1e-12)
        assert not res.aborted

    def test_rejects_out_of_box_init(self, small_octx):
        mu = DiscreteMeasure.from_arrays(np.array([0.1]), np.array([[9.0, 1.0]]))
        with pytest.raises(ValueError):
            cpgd_solve(mu, small_octx, SolverConfig())

    def test_rejects_empty_init(self, small_octx):
        # conic descent moves and reweights atoms but cannot create one
        with pytest.raises(ValueError, match="empty initial measure"):
            cpgd_solve(DiscreteMeasure.empty(), small_octx, SolverConfig())

    def test_aborts_on_non_finite(self, small_octx, monkeypatch):
        def bad_witness(x, samples, ctx, with_gradient=False, table=None):
            P = np.atleast_2d(np.asarray(x, float))
            val = np.full(P.shape[0], math.nan)
            if with_gradient:
                return val, np.full((P.shape[0], P.shape[1]), math.nan)
            return val

        monkeypatch.setattr("gmblasso.solver.data_witness", bad_witness)
        cfg = SolverConfig(iterations=10)
        mu = DiscreteMeasure.from_arrays(np.array([0.1]), np.array([[0.0, 1.0]]))
        res = cpgd_solve(mu, small_octx, cfg)
        assert res.aborted
        assert "non-finite" in res.abort_reason

    def test_one_witness_call_per_iteration(self, small_octx, monkeypatch):
        # each trial is evaluated once and its gradient drives the next step:
        # one call at the start, one per iteration, one for a final merge
        from gmblasso import solver
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return data_witness(*args, **kwargs)

        monkeypatch.setattr(solver, "data_witness", counted)
        cfg = SolverConfig(iterations=40, max_backtracks=0, merge_period=0,
                           prune_threshold=0.0)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        assert res.iterations_run > 1
        assert len(calls) <= res.iterations_run + 2

    def test_single_component_recovery(self):
        box = DomainBox((-5.0,), (5.0,), 0.5, 2.0)
        ctx = KernelContext(1, 0.5, box)
        mu0 = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.3, 1.1]]))
        mix = GroundTruthMixture(mu0, ctx)
        rng = np.random.default_rng(60)
        X = sample(mix, 4000, rng)
        rec = recommended_parameters(4000, 1, ctx.tau, box)
        octx = ObjectiveContext(X, rec.kappa_agnostic, ctx)
        cfg = SolverConfig(iterations=400, step_w=4.0, step_x=8.0,
                           merge_radius=0.605, merge_period=10,
                           prune_threshold=rec.kappa_agnostic / 2)
        res = cpgd_solve(initial_measure(octx, cfg, rng), octx, cfg)
        assert not res.aborted
        assert res.measure.s == 1
        assert float(semi_distance_pairs(res.measure.coords[0],
                                         mu0.coords[0], ctx)) < 0.1
        amp = reparametrize(res.measure, ctx.tau, "from_omega")
        assert amp.weights[0] == pytest.approx(1.0, abs=0.1)
        assert acceptance_check(res.measure, mix.omega_measure(), octx)

    def test_max_particles_one_on_two_modes(self, sep_mixture, sep_ctx):
        rng = np.random.default_rng(61)
        X = sample(sep_mixture, 300, rng)
        octx = ObjectiveContext(X, 0.05, sep_ctx)
        cfg = SolverConfig(max_particles=1, iterations=40)
        res = cpgd_solve(initial_measure(octx, cfg, rng), octx, cfg)
        assert not res.aborted
        assert res.measure.s <= 1

    def test_converges_flag_and_final_prune(self, small_octx):
        # prune at half the regularization scale so dust atoms cannot
        # treadmill below the convergence tolerance forever
        cfg = SolverConfig(iterations=2000, step_w=2.0, step_x=4.0,
                           prune_threshold=small_octx.kappa / 2,
                           merge_period=10, tolerance=1e-9)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        assert res.converged
        assert res.iterations_run < 2000
        assert np.all(res.measure.weights >= small_octx.kappa / 2)


    def test_merge_goes_through_when_prune_blocks_it(self, small_octx):
        # in test_converges_flag_and_final_prune's run, pruning a converged
        # dust atom raises J by more than merging three near-coincident
        # atoms lowers it; the merge alone must still go through
        cfg = SolverConfig(iterations=2000, step_w=2.0, step_x=4.0,
                           prune_threshold=small_octx.kappa / 2,
                           merge_period=10, tolerance=1e-9)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        assert res.converged
        assert res.trace[-1].atoms <= 2

    def test_final_merge_never_raises_objective(self):
        # a merge radius of 3 would collapse the components at -2 and +2
        box = DomainBox((-10.0,), (10.0,), 1.0, 1.0)
        ctx = KernelContext(1, 1.0, box)
        mix = GroundTruthMixture(DiscreteMeasure.from_arrays(
            np.array([0.5, 0.5]), np.array([[-2.0, 1.0], [2.0, 1.0]])), ctx)
        X = sample(mix, 5000, 0)
        rec = recommended_parameters(5000, 1, ctx.tau, box)
        octx = ObjectiveContext(X, rec.kappa_agnostic, ctx)
        cfg = SolverConfig(merge_radius=3.0, merge_period=0)
        res = cpgd_solve(_start(octx, cfg), octx, cfg)
        assert res.measure.s >= 2
        assert objective(res.measure, octx) <= \
            res.trace[-1].objective + 0.5 * octx.fidelity_constant

    def test_stall_is_not_convergence(self, sep_mixture, sep_ctx):
        # steps this large fail their only backtrack on every iteration
        X = sample(sep_mixture, 2000, 0)
        rec = recommended_parameters(2000, 1, sep_ctx.tau, sep_ctx.box)
        octx = ObjectiveContext(X, rec.kappa_agnostic, sep_ctx)
        cfg = SolverConfig(step_w=1e6, step_x=1e6, max_backtracks=0, patience=5)
        res = cpgd_solve(_start(octx, cfg), octx, cfg)
        assert res.stalled and not res.converged
        assert res.iterations_run == 5
        assert len({row.objective for row in res.trace}) == 1

    def test_prune_to_empty_measure(self, sep_mixture, sep_ctx):
        # at this kappa the zero measure is the solution: the first merge
        # step prunes every atom, and the descent goes on from no atoms
        rng = np.random.default_rng(0)
        octx = ObjectiveContext(sample(sep_mixture, 1000, rng), 10.0, sep_ctx)
        cfg = SolverConfig(iterations=50, merge_period=1, prune_threshold=1e9)
        res = cpgd_solve(initial_measure(octx, cfg, rng), octx, cfg)
        assert res.converged and not res.aborted
        assert res.measure.s == 0 and res.measure.coords.shape == (0, 2)
        assert res.trace[-1].atoms == 0


class TestAcceptanceRule:
    """Every move of cpgd_solve but the final prune is judged by one rule: a
    candidate is kept iff its J is finite and not above the current J."""

    @staticmethod
    def _counted_witness(monkeypatch, bad_call=None, bad_value=math.nan):
        """Count data_witness calls; call number bad_call gets bad_value."""
        from gmblasso import solver
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            val, grad = data_witness(*args, **kwargs)
            if len(calls) == bad_call:
                val = np.full_like(val, bad_value)
            return val, grad

        monkeypatch.setattr(solver, "data_witness", counted)
        return calls

    def _candidate(self, octx):
        mu = _measure(np.random.default_rng(70), 3, octx.ctx.box)
        J = objective_gradient(mu.weights, mu.coords, octx)[0]
        cur = _Point(mu.weights[:1], mu.coords[:1], J, None, None)
        return cur, mu.weights, mu.coords

    def test_tie_is_kept(self, small_octx):
        cur, w, pts = self._candidate(small_octx)
        new, J = _move(cur, w, pts, small_octx)
        assert J == cur.J
        assert new is not cur and new.w is w and new.pts is pts and new.J == J

    def test_rise_is_rejected(self, small_octx):
        cur, w, pts = self._candidate(small_octx)
        below = cur._replace(J=np.nextafter(cur.J, -math.inf))
        new, J = _move(below, w, pts, small_octx)
        assert J == cur.J and new is below

    @pytest.mark.parametrize("bad_value", [math.nan, math.inf])   # J NaN, -inf
    def test_non_finite_candidate_is_rejected(self, small_octx, monkeypatch,
                                              bad_value):
        cur, w, pts = self._candidate(small_octx)
        self._counted_witness(monkeypatch, bad_call=1, bad_value=bad_value)
        new, J = _move(cur._replace(J=math.inf), w, pts, small_octx)
        assert not math.isfinite(J) and new.J == math.inf

    @pytest.mark.parametrize("bad_value", [math.nan, -math.inf])   # J NaN, +inf
    def test_non_finite_trial_aborts(self, small_octx, monkeypatch, bad_value):
        calls = self._counted_witness(monkeypatch, bad_call=2, bad_value=bad_value)
        cfg = SolverConfig(iterations=10)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        assert len(calls) >= 2
        assert res.aborted and res.iterations_run == 1 and res.trace == ()
        assert res.abort_reason == "non-finite objective at iteration 1"

    def test_candidate_with_as_many_atoms_is_not_evaluated(self, small_octx,
                                                          monkeypatch):
        # a merge step on every iteration that prunes and merges nothing:
        # one witness call at the start and one per trial, none else
        calls = self._counted_witness(monkeypatch)
        cfg = SolverConfig(iterations=30, max_backtracks=0, merge_period=1,
                           merge_radius=0.0, prune_threshold=0.0)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        assert res.iterations_run > 1
        assert {row.atoms for row in res.trace} == {cfg.max_particles}
        assert len(calls) == res.iterations_run + 1

    def test_rejected_prune_and_merge_falls_back_to_merge_alone(self, ctx1,
                                                               monkeypatch):
        # a useful dust atom at the right mode and a pair split about the
        # left one: pruning the dust raises J, merging the pair lowers it
        rng = np.random.default_rng(71)
        X = np.concatenate([rng.normal(-1.5, 0.5, 40), rng.normal(1.5, 0.5, 40)])
        octx = ObjectiveContext(X, 0.05, ctx1)
        w = np.array([0.1, 0.1, 0.02])
        pts = np.array([[-1.6, 0.5], [-1.4, 0.5], [1.5, 0.5]])
        cur = _Point(w, pts, *objective_gradient(w, pts, octx))
        cfg = SolverConfig(prune_threshold=0.03, merge_radius=0.5)
        w_pm, pts_pm = prune_merge(w, pts, cfg, ctx1)
        assert len(w_pm) == 1
        assert objective_gradient(w_pm, pts_pm, octx)[0] > cur.J
        calls = self._counted_witness(monkeypatch)
        new = _fewer_atoms(cur, (prune_merge, _merge), cfg, octx)
        assert len(calls) == 2
        assert len(new.w) == 2 and new.J < cur.J
        np.testing.assert_array_equal(np.sort(new.w), [0.02, 0.2])


    def test_rejected_merge_is_evaluated_once(self, ctx1, monkeypatch):
        # two atoms at the two modes, merged into one between them, which
        # raises J; with nothing to prune, the merge step's one candidate is
        # the merge alone, evaluated once
        rng = np.random.default_rng(72)
        X = np.concatenate([rng.normal(-1.5, 0.5, 40), rng.normal(1.5, 0.5, 40)])
        octx = ObjectiveContext(X, 0.05, ctx1)
        w = np.array([0.4, 0.4])
        pts = np.array([[-1.5, 0.5], [1.5, 0.5]])
        cfg = SolverConfig(iterations=1, max_backtracks=0, merge_period=1,
                           merge_radius=10.0, prune_threshold=0.0)
        w_m, pts_m = _merge(w, pts, cfg, ctx1)
        assert len(w_m) == 1
        assert objective_gradient(w_m, pts_m, octx)[0] > \
            objective_gradient(w, pts, octx)[0]
        calls = self._counted_witness(monkeypatch)
        res = cpgd_solve(DiscreteMeasure.from_arrays(w, pts), octx, cfg)
        assert res.measure.s == 2 and res.trace[-1].atoms == 2
        # the start, the one trial and the merge step; the final prune drops
        # nothing, so the final merge would judge the merge step's candidate
        # again, and it is skipped
        assert len(calls) == 3

    def test_final_merge_after_a_final_prune_is_evaluated(self, ctx1, monkeypatch):
        # the setting above with a dust atom between the modes: the merge
        # step rejects both its candidates, then the final prune drops the
        # dust, and the merge of the two atoms it leaves is a new candidate
        rng = np.random.default_rng(72)
        X = np.concatenate([rng.normal(-1.5, 0.5, 40), rng.normal(1.5, 0.5, 40)])
        octx = ObjectiveContext(X, 0.05, ctx1)
        w = np.array([0.4, 1e-9, 0.4])
        pts = np.array([[-1.5, 0.5], [0.0, 0.5], [1.5, 0.5]])
        cfg = SolverConfig(iterations=1, max_backtracks=0, merge_period=1,
                           merge_radius=10.0, prune_threshold=1e-6)
        calls = self._counted_witness(monkeypatch)
        res = cpgd_solve(DiscreteMeasure.from_arrays(w, pts), octx, cfg)
        assert res.trace[-1].atoms == 3 and res.measure.s == 2
        # the start, the one trial, the merge step's two candidates, the
        # final prune and the final merge
        assert len(calls) == 6


class TestInvariants:
    """Properties every returned result keeps.  Pruning is off: the final
    prune of atoms below prune_threshold is the one move of cpgd_solve whose
    candidate is not judged; it is unconditional by contract (see
    test_converges_flag_and_final_prune) until the weights are re-solved on
    the kept support, and may raise the objective, while the final merge
    must never raise it.  In a tier-1 run the final prune removed atoms
    9 times, all in d = 1, and 6 of those removals raised J: 4 at n = 1e5
    after 1000 iterations, by 3.5e-8 to 2.0e-7, and 2 in the n = 60 setup of
    test_converges_flag_and_final_prune, by 6.9e-5 (7.1e-4 of |J|)."""

    @given(half_gap=st.floats(0.2, 4.0), seed=st.integers(0, 2**16),
           merge_radius=st.floats(0.01, 3.0), merge_period=st.integers(0, 4),
           step=st.floats(0.5, 1e4), max_backtracks=st.integers(0, 3),
           patience=st.integers(1, 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_solver_invariants(self, ctx1, half_gap, seed, merge_radius,
                               merge_period, step, max_backtracks, patience):
        rng = np.random.default_rng(seed)
        X = rng.normal(half_gap * rng.choice([-1.0, 1.0], size=80), 1.0)
        octx = ObjectiveContext(X, 0.05, ctx1)
        cfg = SolverConfig(max_particles=4, iterations=25, step_w=step,
                           step_x=step, merge_radius=merge_radius,
                           merge_period=merge_period, prune_threshold=0.0,
                           max_backtracks=max_backtracks, patience=patience)
        res = cpgd_solve(_start(octx, cfg, seed), octx, cfg)
        assert not (res.converged and res.stalled)
        assert ctx1.box.contains(res.measure.coords)
        if res.trace:
            assert objective(res.measure, octx) <= \
                res.trace[-1].objective + 0.5 * octx.fidelity_constant


class TestAcceptanceCheck:
    def test_accepts_optimized(self, small_octx):
        cfg = SolverConfig(iterations=150)
        res = cpgd_solve(_start(small_octx, cfg), small_octx, cfg)
        start = _start(small_octx, cfg)
        assert acceptance_check(res.measure, start, small_octx)

    def test_rejects_worse_measure(self, small_octx):
        good = DiscreteMeasure.from_arrays(np.array([0.2]),
                                           np.array([[0.0, 1.0]]))
        bad = DiscreteMeasure.from_arrays(np.array([50.0]),
                                          np.array([[0.0, 1.0]]))
        assert not acceptance_check(bad, good, small_octx)


class TestRecommendedParameters:
    def test_reference_values(self):
        box = DomainBox((-5.0,), (5.0,), 1.0, 1.0)
        rec = recommended_parameters(100, 1, 1.0, box, s_hint=2)
        assert rec.rho_n == pytest.approx(0.126330, abs=1e-5)
        assert rec.kappa_agnostic == pytest.approx(0.089326, abs=1e-5)
        assert rec.kappa_s_dependent == pytest.approx(rec.rho_n / 2.0, rel=1e-12)
        assert rec.kappa_small_reg == pytest.approx(rec.rho_n**2, rel=1e-12)

    def test_rho_formula(self):
        box = DomainBox((-5.0, -5.0), (5.0, 5.0), 0.5, 2.0)
        rec = recommended_parameters(5000, 2, 0.5, box)
        expected = math.sqrt(4.0 / ((2 * math.pi) * 0.25 * 5000))
        assert rec.rho_n == pytest.approx(expected, rel=1e-14)
        assert rec.kappa_s_dependent is None

    def test_tau_prediction_rule(self):
        box = DomainBox((-5.0,), (5.0,), 0.7, 2.0)
        rec = recommended_parameters(1000, 1, 0.5, box)
        assert rec.tau_prediction == pytest.approx(
            math.sqrt(2.0) * 0.7 / math.sqrt(math.log(1000)), rel=1e-14)

    def test_kappa_rule_table(self):
        box = DomainBox((-5.0,), (5.0,), 1.0, 1.0)
        rec = recommended_parameters(100, 1, 1.0, box, s_hint=2)
        assert rec.kappa("agnostic") == rec.kappa_agnostic
        assert rec.kappa("s_dependent") == rec.kappa_s_dependent
        assert rec.kappa("small_reg") == rec.kappa_small_reg
        with pytest.raises(ValueError):
            rec.kappa("nope")

    def test_resolve_tau(self):
        box = DomainBox((-5.0,), (5.0,), 1.0, 1.0)
        assert resolve_tau("fixed", 0.7, box, 5) == 0.7
        assert resolve_tau("prediction", None, box, 1000) == \
            recommended_parameters(1000, 1, 1.0, box).tau_prediction
        with pytest.raises(ValueError, match="u_min"):
            resolve_tau("prediction", None, box, 5)
        with pytest.raises(ValueError):
            resolve_tau("nope", 0.7, box, 1000)

    def test_rejects_tiny_n(self):
        box = DomainBox((-5.0,), (5.0,), 1.0, 1.0)
        with pytest.raises(ValueError):
            recommended_parameters(1, 1, 1.0, box)


class TestSolverConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            SolverConfig(max_particles=0)
        with pytest.raises(ValueError):
            SolverConfig(step_w=0.0)
        with pytest.raises(ValueError):
            SolverConfig(step_x=-1.0)
        for field, value in [
                ("iterations", 0), ("iterations", -3), ("patience", 0),
                ("max_backtracks", -1), ("merge_period", -1),
                ("step_w", math.nan), ("step_x", math.inf),
                ("tolerance", -1e-9), ("tolerance", math.nan),
                ("merge_radius", -0.1), ("merge_radius", math.inf),
                ("prune_threshold", -1e-6), ("prune_threshold", math.nan)]:
            with pytest.raises(ValueError, match=field.split("_")[0]):
                SolverConfig(**{field: value})

    def test_max_particles_is_bounded(self):
        assert SolverConfig(max_particles=1024).max_particles == 1024
        with pytest.raises(ValueError, match="max_particles <= 1024, got 1025"):
            SolverConfig(max_particles=1025)

    def test_default_merge_radius_scales_with_d(self):
        from gmblasso.solver import _resolved_merge_radius
        cfg = SolverConfig()
        assert _resolved_merge_radius(cfg, 1) == pytest.approx(0.05 * 0.3025)
        assert _resolved_merge_radius(cfg, 4) == pytest.approx(
            0.05 * 0.3025 / 2.0)
        assert _resolved_merge_radius(SolverConfig(merge_radius=0.7), 4) == 0.7
