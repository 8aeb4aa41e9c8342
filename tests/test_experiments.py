"""Ground-truth scenarios, error metrics, and the Monte-Carlo rate harness."""
import math
import threading
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    GroundTruthMixture,
    KernelContext,
    SolverConfig,
    prediction_error,
    rate_sweep,
    region_mass_errors,
    renormalized_mass_errors,
    reparametrize,
    sample,
    sparsity_check,
    tv_norm,
    weight_function,
)
from gmblasso import experiments
from gmblasso.experiments import (
    RateRow,
    aggregate_rows,
    fit_slopes,
)
from gmblasso.geometry import near_radius


class TestGroundTruthMixture:
    def test_basic_properties(self, sep_mixture):
        assert sep_mixture.s == 2 and sep_mixture.d == 1

    def test_omega_measure(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        W = weight_function(np.array([13.0, 1.0]), sep_ctx.tau)
        assert om.weights[1] == pytest.approx(0.5 * W, rel=1e-14)
        om2 = sep_mixture.omega_measure(tau=0.5)
        W2 = weight_function(np.array([13.0, 1.0]), 0.5)
        assert om2.weights[1] == pytest.approx(0.5 * W2, rel=1e-14)

    def test_rejects_bad_weights(self, sep_ctx):
        mu = DiscreteMeasure.from_arrays(
            np.array([0.5, 0.6]), np.array([[-13.0, 1.0], [13.0, 1.0]]))
        with pytest.raises(ValueError):
            GroundTruthMixture(mu, sep_ctx)

    def test_rejects_out_of_box(self, sep_ctx):
        mu = DiscreteMeasure.from_arrays(
            np.array([0.5, 0.5]), np.array([[-25.0, 1.0], [13.0, 1.0]]))
        with pytest.raises(ValueError):
            GroundTruthMixture(mu, sep_ctx)

    def test_rejects_empty(self, sep_ctx):
        with pytest.raises(ValueError):
            GroundTruthMixture(DiscreteMeasure.empty(), sep_ctx)


class TestSampling:
    def test_shape_and_moments(self, sep_mixture):
        X = sample(sep_mixture, 20000, 0)
        assert X.shape == (20000, 1)
        # symmetric mixture: mean ~ 0, E|X| ~ 13
        assert abs(float(np.mean(X))) < 0.5
        assert float(np.mean(np.abs(X))) == pytest.approx(13.0, abs=0.2)

    def test_deterministic_given_seed(self, sep_mixture):
        a = sample(sep_mixture, 100, 42)
        b = sample(sep_mixture, 100, 42)
        np.testing.assert_array_equal(a, b)
        c = sample(sep_mixture, 100, 43)
        assert not np.array_equal(a, c)

    def test_degenerate_weights(self, sep_ctx):
        mu = DiscreteMeasure.from_arrays(
            np.array([1.0, 0.0]), np.array([[-13.0, 1.0], [13.0, 1.0]]))
        mix = GroundTruthMixture(mu, sep_ctx)
        X = sample(mix, 500, 7)
        assert np.all(X < 0)

    def test_rejects_nonpositive_n(self, sep_mixture):
        with pytest.raises(ValueError):
            sample(sep_mixture, 0, 0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 1000, experiments._SAMPLE_CHUNK])
    def test_chunked_draw_equals_one_draw(self, d, chunk, monkeypatch):
        # the draw of all n normals at once, which the chunked draw replaced
        box = DomainBox((-20.0,) * d, (20.0,) * d, 0.5, 2.0)
        locs = np.array([[-13.0] * d + [1.0] * d, [13.0] * d + [1.5] * d,
                         [0.0] * d + [0.7] * d])
        mixture = GroundTruthMixture(
            DiscreteMeasure.from_arrays(np.array([0.3, 0.3, 0.4]), locs),
            KernelContext(d, 0.5, box))
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK", chunk)
        n = 4321 if chunk > 1 else 37
        for seed in range(4):
            rng = np.random.default_rng(seed)
            idx = rng.choice(3, size=n, p=mixture.measure.weights)
            one = rng.normal(locs[idx, :d], locs[idx, d:])
            assert np.array_equal(sample(mixture, n, seed), one)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [1, 7, 300])
    def test_chunked_indices_equal_one_draw(self, d, s, monkeypatch):
        # the component indices, drawn a chunk at a time into the narrowest
        # unsigned type (uint16 at s = 300), take the one draw's stream
        box = DomainBox((-20.0,) * d, (20.0,) * d, 0.5, 2.0)
        t = np.linspace(-15.0, 15.0, s)[:, None].repeat(d, axis=1)
        u = np.linspace(0.6, 1.9, s)[:, None].repeat(d, axis=1)
        locs = np.concatenate([t, u], axis=1)
        weights = np.arange(1.0, s + 1.0)
        mixture = GroundTruthMixture(
            DiscreteMeasure.from_arrays(weights / weights.sum(), locs),
            KernelContext(d, 0.5, box))
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK", 1000)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            idx = rng.choice(s, size=4321, p=mixture.measure.weights)
            one = rng.normal(locs[idx, :d], locs[idx, d:])
            assert np.array_equal(sample(mixture, 4321, seed), one)


class TestRegionMass:
    def test_zero_at_truth(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        rep = region_mass_errors(om, om, 0.3, sep_ctx)
        np.testing.assert_allclose(rep.per_region, 0.0, atol=1e-15)
        assert rep.far_mass == 0.0
        assert rep.total == pytest.approx(0.0, abs=1e-15)

    def test_far_and_near_split(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        hat = DiscreteMeasure.from_arrays(
            np.array([0.20, 0.22, 0.05]),
            np.array([[-13.05, 1.0], [13.02, 1.0], [0.0, 1.0]]))
        rep = region_mass_errors(hat, om, 0.3, sep_ctx)
        assert rep.per_region[0] == pytest.approx(om.weights[0] - 0.20, rel=1e-12)
        assert rep.per_region[1] == pytest.approx(om.weights[1] - 0.22, rel=1e-12)
        assert rep.far_mass == pytest.approx(0.05)

    def test_rejects_radius_outside_admissible_range(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        for bad in (0.0, -0.1, near_radius(1) * 1.01):
            with pytest.raises(ValueError):
                region_mass_errors(om, om, bad, sep_ctx)

    def test_smaller_radius_classifies_fewer_atoms(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        hat = DiscreteMeasure.from_arrays(
            np.array([0.2]), np.array([[-13.4, 1.0]]))  # ~0.23 semidistance out
        loose = region_mass_errors(hat, om, 0.3, sep_ctx)
        tight = region_mass_errors(hat, om, 0.05, sep_ctx)
        assert loose.far_mass == 0.0
        assert tight.far_mass == pytest.approx(0.2)

    def test_renormalized_matches_amplitudes(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        errs = renormalized_mass_errors(om, sep_mixture.measure, 0.3, sep_ctx)
        np.testing.assert_allclose(errs, 0.0, atol=1e-14)
        # doubling the omega weights doubles the recovered amplitudes
        hat = DiscreteMeasure(om.weights * 2.0, om.coords)
        errs2 = renormalized_mass_errors(hat, sep_mixture.measure, 0.3, sep_ctx)
        np.testing.assert_allclose(errs2, [0.5, 0.5], rtol=1e-12)


class TestPredictionError:
    def test_zero_at_truth(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        assert prediction_error(om, sep_mixture.measure, sep_ctx) < 1e-12

    def test_reference_value_two_spikes(self, sep_ctx):
        # || N(0,1) - N(delta,1) ||_2^2 = (1 - exp(-delta^2/4)) / sqrt(pi)
        mu0 = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.0, 1.0]]))
        hat_amp = DiscreteMeasure.from_arrays(np.array([1.0]),
                                              np.array([[3.0, 1.0]]))
        hat = reparametrize(hat_amp, sep_ctx.tau, "to_omega")
        expected = (1.0 - math.exp(-9.0 / 4.0)) / math.sqrt(math.pi)
        assert prediction_error(hat, mu0, sep_ctx) == pytest.approx(
            expected, rel=1e-12)

    def test_matches_quadrature(self, ctx1):
        rng = np.random.default_rng(70)
        mu0 = DiscreteMeasure.from_arrays(
            np.array([0.6, 0.4]), np.array([[-1.0, 0.8], [1.5, 1.2]]))
        hat_amp = DiscreteMeasure.from_arrays(
            np.array([0.55, 0.42]), np.array([[-1.1, 0.9], [1.4, 1.1]]))
        hat = reparametrize(hat_amp, ctx1.tau, "to_omega")

        def density(mu, z):
            pts = mu.locations_array()
            return float(np.sum(
                mu.weights * np.exp(-((z - pts[:, 0]) ** 2) / (2 * pts[:, 1] ** 2))
                / np.sqrt(2 * math.pi * pts[:, 1] ** 2)))

        val, _ = quad(lambda z: (density(hat_amp, z) - density(mu0, z)) ** 2,
                      -30, 30, limit=400, epsabs=1e-13, epsrel=1e-11)
        assert prediction_error(hat, mu0, ctx1) == pytest.approx(val, rel=1e-6)

    def test_nonnegative(self, ctx1):
        mu0 = DiscreteMeasure.from_arrays(np.array([1.0]), np.array([[0.0, 1.0]]))
        hat = reparametrize(mu0, ctx1.tau, "to_omega")
        assert prediction_error(hat, mu0, ctx1) >= 0.0

    def test_empty_estimate(self, sep_mixture, sep_ctx):
        err = prediction_error(DiscreteMeasure.empty(), sep_mixture.measure,
                               sep_ctx)
        # || f0 ||_2^2 for the two-spike truth
        pts = sep_mixture.measure.locations_array()
        w = sep_mixture.measure.weights
        self_norm = 0.0
        for i in range(2):
            for j in range(2):
                v = pts[i, 1] ** 2 + pts[j, 1] ** 2
                self_norm += w[i] * w[j] * math.exp(
                    -(pts[i, 0] - pts[j, 0]) ** 2 / (2 * v)) \
                    / math.sqrt(2 * math.pi * v)
        assert err == pytest.approx(self_norm, rel=1e-12)


class TestSparsity:
    def test_exact_recovery(self, sep_mixture, sep_ctx):
        om = sep_mixture.omega_measure()
        rep = sparsity_check(om, sep_mixture.measure, 0.3, sep_ctx)
        assert rep.exactly_one_each
        assert rep.atoms_per_region == (1, 1) and rep.far_atoms == 0

    def test_extra_atom_in_region(self, sep_mixture, sep_ctx):
        hat = DiscreteMeasure.from_arrays(
            np.array([0.2, 0.1, 0.2]),
            np.array([[-13.0, 1.0], [-13.1, 1.0], [13.0, 1.0]]))
        rep = sparsity_check(hat, sep_mixture.measure, 0.3, sep_ctx)
        assert not rep.exactly_one_each
        assert rep.atoms_per_region == (2, 1)

    def test_far_atom_breaks_exactness(self, sep_mixture, sep_ctx):
        hat = DiscreteMeasure.from_arrays(
            np.array([0.2, 0.2, 0.01]),
            np.array([[-13.0, 1.0], [13.0, 1.0], [0.0, 1.0]]))
        rep = sparsity_check(hat, sep_mixture.measure, 0.3, sep_ctx)
        assert not rep.exactly_one_each
        assert rep.far_atoms == 1

    def test_missing_region(self, sep_mixture, sep_ctx):
        hat = DiscreteMeasure.from_arrays(np.array([0.2]),
                                          np.array([[-13.0, 1.0]]))
        rep = sparsity_check(hat, sep_mixture.measure, 0.3, sep_ctx)
        assert not rep.exactly_one_each
        assert rep.atoms_per_region == (1, 0)


@pytest.fixture(scope="module")
def quick_cfg():
    return SolverConfig(max_particles=4, iterations=40, step_w=4.0,
                        step_x=8.0, merge_radius=0.605, merge_period=10)


class TestRateSweep:

    def test_report_structure_and_determinism(self, sep_mixture, quick_cfg):
        a = rate_sweep(sep_mixture, [200, 400], 2, "agnostic", "fixed",
                       seed=5, solver=quick_cfg)
        b = rate_sweep(sep_mixture, [200, 400], 2, "agnostic", "fixed",
                       seed=5, solver=quick_cfg)
        assert a.n_grid == (200, 400) and a.replications == 2
        assert len(a.rows) == 4
        for ra, rb in zip(a.rows, b.rows):
            assert replace(ra, runtime=0.0) == replace(rb, runtime=0.0)
        assert a.slopes == b.slopes

    def test_threads_match_serial(self, sep_mixture, quick_cfg):
        serial = rate_sweep(sep_mixture, [200, 400], 2, "agnostic", "fixed",
                            seed=5, solver=quick_cfg, threads=1)
        pooled = rate_sweep(sep_mixture, [200, 400], 2, "agnostic", "fixed",
                            seed=5, solver=quick_cfg, threads=4)
        for ra, rb in zip(serial.rows, pooled.rows):
            assert replace(ra, runtime=0.0) == replace(rb, runtime=0.0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, sep_mixture, quick_cfg, threads):
        with pytest.raises(ValueError, match="threads"):
            rate_sweep(sep_mixture, [200], 1, "agnostic", "fixed", seed=5,
                       solver=quick_cfg, threads=threads)

    def test_zero_replications_rejected(self, sep_mixture, quick_cfg, monkeypatch):
        # no replication would leave the sweep's CSVs with a header only
        from gmblasso import experiments
        monkeypatch.setattr(experiments, "_one_replication", None)
        with pytest.raises(ValueError, match="replications must be at least 1, got 0"):
            rate_sweep(sep_mixture, [200], 0, "agnostic", "fixed", seed=5,
                       solver=quick_cfg)

    def test_repeated_sample_size_rejected(self, sep_mixture, quick_cfg, monkeypatch):
        # the aggregates group rows by n, so a repeated size would pool two
        # grid entries into one row; it is refused before any replication
        from gmblasso import experiments
        monkeypatch.setattr(experiments, "_one_replication", None)
        with pytest.raises(ValueError, match="repeats a sample size"):
            rate_sweep(sep_mixture, [200, 400, 200], 1, "agnostic", "fixed", seed=5,
                       solver=quick_cfg)

    @pytest.mark.parametrize("threads, jobs, cpus, workers", [
        (8, 4, 3, 3),        # bounded by the cores
        (8, 2, 16, 2),       # bounded by the jobs
        (3, 6, 4, 3),        # bounded by threads
        (4, 3, None, 1),     # unknown core count: caller only
        (1, 3, 4, 1),        # one worker: no pool
    ])
    def test_worker_count_bound(self, sep_mixture, quick_cfg, monkeypatch,
                                threads, jobs, cpus, workers):
        pools, ran = [], []
        real = experiments._one_replication

        def recording(scenario, n, n_index, rep, *rest):
            ran.append(rep)
            return real(scenario, n, n_index, rep, *rest)

        class StubPool:
            """Runs submitted jobs in-process and records them."""

            def __init__(self, max_workers, mp_context):
                self.max_workers = max_workers
                self.start_method = mp_context.get_start_method()
                self.submitted = []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.submitted.append(args[3])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "_process_pool", StubPool)
        monkeypatch.setattr(experiments, "_one_replication", recording)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        # an unknown kappa rule fails each replication at once
        rep = rate_sweep(sep_mixture, [200], jobs, "nope", "fixed", seed=5,
                         solver=quick_cfg, threads=threads)
        assert [row.replication for row in rep.rows] == list(range(jobs))
        if workers == 1:
            assert pools == [] and ran == list(range(jobs))
            return
        [pool] = pools
        assert pool.max_workers == workers - 1 and pool.start_method == "fork"
        assert pool.submitted == [k for k in range(jobs) if k % workers]
        own = [k for k in ran if k not in pool.submitted]
        assert own == [k for k in range(jobs) if k % workers == 0] and own[0] == 0

    def test_no_fork_beside_other_threads(self, sep_mixture, quick_cfg,
                                          monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("forked beside a running thread")

        monkeypatch.setattr(experiments, "_process_pool", no_pool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            rep = rate_sweep(sep_mixture, [200], 2, "nope", "fixed", seed=5,
                             solver=quick_cfg, threads=2)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert [row.replication for row in rep.rows] == [0, 1]

    def test_worker_failures_match_serial(self, sep_mixture, quick_cfg,
                                          monkeypatch):
        # tau_rule = prediction exceeds u_min at n = 5, so every replication
        # fails inside resolve_tau; odd replications fail in a forked worker
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        serial = rate_sweep(sep_mixture, [5], 3, "agnostic", "prediction",
                            seed=5, solver=quick_cfg, threads=1)
        pooled = rate_sweep(sep_mixture, [5], 3, "agnostic", "prediction",
                            seed=5, solver=quick_cfg, threads=2)
        assert all(not row.ok and "u_min" in row.error for row in pooled.rows)
        # repr, not ==: the failed rows hold NaNs
        assert [repr(replace(r, runtime=0.0)) for r in pooled.rows] == \
            [repr(replace(r, runtime=0.0)) for r in serial.rows]

    def test_seed_changes_rows(self, sep_mixture, quick_cfg):
        a = rate_sweep(sep_mixture, [200], 1, "agnostic", "fixed", seed=5,
                       solver=quick_cfg)
        b = rate_sweep(sep_mixture, [200], 1, "agnostic", "fixed", seed=6,
                       solver=quick_cfg)
        assert a.rows[0].mass_error_by_radius != b.rows[0].mass_error_by_radius

    def test_kappa_and_tau_rules_applied(self, sep_mixture, quick_cfg):
        rep = rate_sweep(sep_mixture, [400], 1, "small_reg", "prediction",
                         seed=5, solver=quick_cfg)
        row = rep.rows[0]
        assert row.tau == pytest.approx(math.sqrt(2.0) / math.sqrt(math.log(400)))
        from gmblasso import recommended_parameters
        rec = recommended_parameters(400, 1, row.tau, sep_mixture.ctx.box)
        assert row.kappa == pytest.approx(rec.kappa_small_reg, rel=1e-14)

    def test_effective_radii_columns(self, sep_mixture, quick_cfg):
        rep = rate_sweep(sep_mixture, [300], 1, "agnostic", "fixed", seed=5,
                        solver=quick_cfg, effective_radii=[0.3025, 0.15, 0.05])
        assert rep.effective_radii == (0.3025, 0.15, 0.05)
        assert len(rep.rows[0].mass_error_by_radius) == 3

    def test_unknown_rules_and_empty_grid(self, sep_mixture, quick_cfg):
        rep = rate_sweep(sep_mixture, [200], 1, "nope", "fixed", seed=5,
                         solver=quick_cfg)
        assert not rep.rows[0].ok
        assert "nope" in rep.rows[0].error
        empty = rate_sweep(sep_mixture, [], 3, "agnostic", "fixed", seed=5,
                           solver=quick_cfg)
        assert empty.rows == () and empty.aggregates == ()
        assert math.isnan(empty.slopes["mass_error"])

    def test_solver_failure_is_recorded(self, sep_mixture, quick_cfg,
                                        monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("gmblasso.experiments.cpgd_solve", boom)
        rep = rate_sweep(sep_mixture, [200], 2, "agnostic", "fixed", seed=5,
                         solver=quick_cfg)
        assert all(not row.ok for row in rep.rows)
        assert all("synthetic failure" in row.error for row in rep.rows)
        assert all(math.isnan(a.mean_mass_error) for a in rep.aggregates)

    def test_aggregates_recomputable(self, sep_mixture, quick_cfg):
        rep = rate_sweep(sep_mixture, [200, 400], 3, "agnostic", "fixed",
                         seed=9, solver=quick_cfg)
        assert aggregate_rows(rep.rows) == rep.aggregates
        assert fit_slopes(rep.aggregates) == rep.slopes
        agg = rep.aggregates[0]
        ok_rows = [r for r in rep.rows if r.n == 200 and r.ok]
        assert agg.replications_ok == len(ok_rows)
        assert agg.mean_mass_error == pytest.approx(
            np.mean([r.mass_error_by_radius[0] for r in ok_rows]), rel=1e-14)

    def test_fit_slopes_recovers_powerlaw(self):
        rows = []
        for i, n in enumerate((100, 1000, 10000)):
            rows.append(RateRow(
                n=n, replication=0, kappa=0.1, tau=1.0, ok=True, error=None,
                mass_errors=(n ** -0.5,), far_mass=0.0,
                mass_error_by_radius=(n ** -0.5,), tv_error=0.0,
                prediction_error=n ** -1.0, atoms=1, exactly_one_each=True,
                converged=True, runtime=0.0))
        slopes = fit_slopes(aggregate_rows(rows))
        assert slopes["mass_error"] == pytest.approx(-0.5, abs=1e-12)
        assert slopes["prediction_error"] == pytest.approx(-1.0, abs=1e-12)
