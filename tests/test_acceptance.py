"""Release acceptance gates: numerical identities, statistical rates, determinism.

Each test enforces one release criterion at a pinned tolerance and (where one
is stated) a wall-clock budget, then records a one-line summary.  The summary
block is printed after the run so `pytest -v` ends with one pass/fail line
per criterion alongside the measured values.

Budgets are generous for CI-class hardware; the statistical gates (estimation
slope -0.5 +- 0.15, prediction slope -1.0 +- 0.2, soft-thresholding bound,
sparsity frequency) use fixed seeds so reruns are exact.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gmblasso import (
    DiscreteMeasure,
    DomainBox,
    GridSpec,
    KernelContext,
    ObjectiveContext,
    build_upsilon,
    certificate_gradients,
    certificate_values,
    data_witness,
    lambda_pair,
    lpc_constants,
    objective,
    rate_sweep,
    separation_check,
    solve_certificates,
    verify_nondegeneracy,
    weight_function,
)
from gmblasso.certificates import operator_norms_batch
from gmblasso.cli import main as cli_main
from gmblasso.geometry import fr_distance_pairs, geodesic_spec, metric_diag_batch
from gmblasso.kernel import (
    grad1_batch,
    grad2_batch,
    grad12_batch,
    hess2_batch,
    kernel_values,
    semi_distance_pairs,
)

from conftest import fd_rel, random_locations

_SUMMARY = []


@pytest.fixture(scope="session", autouse=True)
def _print_criterion_summary(request):
    yield
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is None or not _SUMMARY:
        return
    tr.ensure_newline()
    tr.section("acceptance criteria", sep="-")
    for line in _SUMMARY:
        tr.write_line(line)


def _finish(num, name, t0, budget, failures, detail=""):
    elapsed = time.perf_counter() - t0
    failures = list(failures)
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s over budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:02d} {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    if failures:
        line += "  -- " + "; ".join(failures)
    _SUMMARY.append(line)
    print(line)
    assert not failures, line


def test_criterion_01_kernel_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_norm = worst_semi = worst_fd = 0.0
    for d in (1, 2, 3):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        X = random_locations(rng, 10_000, box)
        Y = random_locations(rng, 10_000, box)

        worst_norm = max(worst_norm, float(np.max(np.abs(
            kernel_values(X, X, ctx) - 1.0))))
        kv = kernel_values(X, Y, ctx)
        ref = np.sqrt(np.maximum(-2.0 * np.log(kv), 0.0))
        worst_semi = max(worst_semi, float(np.max(np.abs(
            semi_distance_pairs(X, Y, ctx) - ref))))
        worst_fd = max(
            worst_fd,
            fd_rel(grad1_batch(X, Y, ctx), lambda Z: kernel_values(Z, Y, ctx), X),
            fd_rel(grad2_batch(X, Y, ctx), lambda Z: kernel_values(X, Z, ctx), Y),
            fd_rel(grad12_batch(X, Y, ctx), lambda Z: grad1_batch(X, Z, ctx), Y),
            fd_rel(hess2_batch(X, Y, ctx), lambda Z: grad2_batch(X, Z, ctx), Y),
        )
    failures = []
    if not worst_norm < 1e-12:
        failures.append(f"|K(x,x)-1| = {worst_norm:.2e} >= 1e-12")
    if not worst_semi < 1e-10:
        failures.append(f"semi-distance identity error {worst_semi:.2e} >= 1e-10")
    if not worst_fd < 1e-6:
        failures.append(f"derivative FD error {worst_fd:.2e} >= 1e-6")
    _finish(1, "kernel identities", t0, 10.0, failures,
            f"norm {worst_norm:.1e}, semidist {worst_semi:.1e}, fd {worst_fd:.1e}")


def test_criterion_02_quadrature_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    box = DomainBox((-5.0,), (5.0,), 0.5, 2.0)
    worst = 0.0
    for _ in range(20):
        tau = 0.25 + 0.25 * rng.random()
        ctx = KernelContext(1, tau, box)
        center = rng.uniform(-1.0, 1.0)
        samples = rng.normal(center, 1.0 + rng.random(), size=8)
        v_half = tau**2 / 2

        def emp(z):
            return float(np.mean(np.exp(-((z - samples) ** 2) / (2 * v_half)))
                         / math.sqrt(2 * math.pi * v_half))

        def comp(z, t, u):
            v = u**2 + v_half
            return math.exp(-((z - t) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)

        # witness at a location near the data
        x = np.array([center + rng.uniform(-1.5, 1.5), rng.uniform(0.8, 1.8)])
        ref, _ = quad(lambda z: emp(z) * comp(z, x[0], x[1]), -40, 40,
                      limit=400, epsabs=1e-13, epsrel=1e-11)
        ref /= float(weight_function(x, tau))
        worst = max(worst, abs(float(data_witness(x[None], samples, ctx)[0]) - ref)
                    / abs(ref))

        # pairwise sample interaction at a sub-bandwidth offset
        off = float(rng.uniform(-2.0, 2.0)) * tau
        ref, _ = quad(lambda z: comp(z, 0.0, 0.0) * comp(z, off, 0.0), -40, 40,
                      limit=400, epsabs=1e-13, epsrel=1e-11)
        worst = max(worst, abs(float(lambda_pair(np.array([off]), ctx)) - ref)
                    / abs(ref))

        # fidelity term of a random two-atom measure
        pts = random_locations(rng, 2, box, margin=0.05)
        w = 0.2 + 0.8 * rng.random(2)
        mu = DiscreteMeasure.from_arrays(w, pts)
        amp = w / weight_function(pts, tau)

        def fit(z):
            v = pts[:, 1] ** 2 + v_half
            return float(np.sum(amp * np.exp(-((z - pts[:, 0]) ** 2) / (2 * v))
                                / np.sqrt(2 * math.pi * v)))

        ref, _ = quad(lambda z: (emp(z) - fit(z)) ** 2, -40, 40,
                      limit=400, epsabs=1e-13, epsrel=1e-11)
        fidelity = objective(mu, ObjectiveContext(samples, 0.05, ctx)) \
            - 0.05 * float(np.sum(w))
        worst = max(worst, abs(fidelity - 0.5 * ref) / abs(0.5 * ref))

    failures = []
    if not worst < 1e-6:
        failures.append(f"quadrature relative error {worst:.2e} >= 1e-6")
    _finish(2, "quadrature cross-check", t0, 30.0, failures,
            f"worst relative error {worst:.1e}")


def test_criterion_03_geometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    failures = []

    # geodesic endpoints, d = 1 and 2
    worst_endpoint = 0.0
    for d in (1, 2):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        ctx = KernelContext(d, 0.4, box)
        for _ in range(500):
            x = random_locations(rng, 1, box)[0]
            y = random_locations(rng, 1, box)[0]
            ends = geodesic_spec(x, y, ctx).point(np.array([0.0, 1.0]))
            worst_endpoint = max(worst_endpoint, float(np.max(np.abs(
                ends - np.stack([x, y])))))
    if not worst_endpoint < 1e-10:
        failures.append(f"endpoint residual {worst_endpoint:.2e} >= 1e-10")

    # Riemann-sum arc length against the closed-form distance
    box = DomainBox((-5.0,), (5.0,), 0.5, 2.0)
    ctx = KernelContext(1, 0.4, box)
    grid = np.linspace(0.0, 1.0, 4001)
    worst_arc = 0.0
    for _ in range(20):
        x = random_locations(rng, 1, box)[0]
        y = random_locations(rng, 1, box)[0]
        spec = geodesic_spec(x, y, ctx)
        pts = spec.point(grid)
        mids = 0.5 * (pts[:-1] + pts[1:])
        g = metric_diag_batch(mids, ctx.tau)
        step = np.diff(pts, axis=0)
        length = float(np.sum(np.sqrt(np.sum(g * step**2, axis=-1))))
        worst_arc = max(worst_arc, abs(length - spec.length) / spec.length)
    if not worst_arc < 1e-4:
        failures.append(f"arc-length relative error {worst_arc:.2e} >= 1e-4")

    # semi-distance monotone along near-region geodesics, 1e3 pairs
    r = 0.3025
    ygrid = np.linspace(0.0, 1.0, 33)
    count = 0
    worst_drop = 0.0
    while count < 1000:
        X = random_locations(rng, 512, box, margin=0.1)
        Y = np.clip(X + rng.normal(scale=[0.2, 0.1], size=X.shape),
                    box.lower(), box.upper())
        ds = semi_distance_pairs(X, Y, ctx)
        for x, y in zip(X[(ds > 1e-9) & (ds <= r)], Y[(ds > 1e-9) & (ds <= r)]):
            if count >= 1000:
                break
            pts = geodesic_spec(x, y, ctx).point(ygrid)
            dist = semi_distance_pairs(np.broadcast_to(x, pts.shape), pts, ctx)
            worst_drop = max(worst_drop, float(np.max(-np.diff(dist))))
            count += 1
    if not worst_drop <= 1e-12:
        failures.append(f"monotonicity violated by {worst_drop:.2e}")

    # metric distance dominates semi-distance on the annulus r/4 <= ds <= r
    got = 0
    worst_margin = math.inf
    while got < 10_000:
        X = random_locations(rng, 4096, box)
        Y = np.clip(X + rng.normal(scale=0.25, size=X.shape),
                    box.lower(), box.upper())
        ds = semi_distance_pairs(X, Y, ctx)
        band = (ds >= r / 4) & (ds <= r)
        if not band.any():
            continue
        fr = fr_distance_pairs(X[band], Y[band], ctx)
        worst_margin = min(worst_margin, float(np.min(
            fr**2 - ds[band] ** 2 / 2.84)))
        got += int(band.sum())
    if not worst_margin >= -1e-12:
        failures.append(f"band bound violated by {-worst_margin:.2e}")

    _finish(3, "geometry", t0, 30.0, failures,
            f"endpoint {worst_endpoint:.1e}, arc {worst_arc:.1e}, "
            f"band margin {worst_margin:.1e}")


def test_criterion_04_operator_norm_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = 0
    worst_excess = -math.inf
    for d in (1, 2, 3):
        box = DomainBox((-5.0,) * d, (5.0,) * d, 0.5, 2.0)
        for tau in (0.4, 0.5):
            ctx = KernelContext(d, tau, box)
            c = lpc_constants(d, 2, tau, box)
            bounds = {"00": c.b_00, "10": c.b_10, "01": c.b_01, "11": c.b_11,
                      "02": c.b_02, "20": c.b_20, "12": c.b_12, "21": c.b_21}
            X = random_locations(rng, 10_000, box)
            Y = random_locations(rng, 10_000, box)
            norms = operator_norms_batch(X, Y, ctx)
            for key, vals in norms.items():
                worst_excess = max(worst_excess,
                                   float(np.max(vals - bounds[key])))
                violations += int(np.sum(vals > bounds[key] + 1e-10))
    failures = []
    if violations:
        failures.append(f"{violations} bound violations "
                        f"(worst excess {worst_excess:.2e})")
    _finish(4, "operator-norm bounds", t0, None, failures,
            f"worst slack {-worst_excess:.3f}")


def test_criterion_05_certificates():
    t0 = time.perf_counter()
    failures = []
    for s, anchors_t, half_width in ((2, (-13.0, 13.0), 20.0),
                                     (3, (-27.0, 0.0, 27.0), 35.0)):
        box = DomainBox((-half_width,), (half_width,), 1.0, 1.0)
        ctx = KernelContext(1, 1.0, box)
        locs = np.array([[t, 1.0] for t in anchors_t])
        mu0 = DiscreteMeasure.from_arrays(np.full(s, 1.0 / s), locs)
        consts = lpc_constants(1, s, 1.0, box)

        sep = separation_check(mu0, ctx, consts)
        if not sep.satisfied:
            failures.append(f"s={s}: anchors below separation threshold")
            continue
        system = build_upsilon(mu0.coords, ctx)
        certs = solve_certificates(system)

        worst_res = float(np.max(certs.residual))
        if not worst_res < 1e-9:
            failures.append(f"s={s}: solve residual {worst_res:.2e} >= 1e-9")
        vals = certificate_values(certs, mu0.coords)
        grads = certificate_gradients(certs, mu0.coords)
        for j in range(s):
            interp = abs(vals[0, j] - 1.0)
            grad = float(np.max(np.abs(grads[0, j])))
            lint = abs(vals[1 + j, j] - 1.0)
            lgrad = float(np.max(np.abs(grads[1 + j, j])))
            if max(interp, lint) > 1e-9 or max(grad, lgrad) > 1e-9:
                failures.append(f"s={s}: interpolation error at anchor {j}")
        if not certs.p_norm[0]**2 <= 2 * s + 1e-9:
            failures.append(f"s={s}: global p-norm^2 {certs.p_norm[0]**2:.3f} > 2s")
        if not all(p_norm**2 <= 2 + 1e-9 for p_norm in certs.p_norm[1:]):
            failures.append(f"s={s}: local p-norm^2 above 2")

        report = verify_nondegeneracy(certs, consts, GridSpec())
        bad = [cl.name for cl in report.clauses if not cl.passed]
        if bad:
            failures.append(f"s={s}: failed clauses {bad}")
    _finish(5, "certificates (s=2,3)", t0, 120.0, failures)


def test_criterion_06_estimation_rate(sep_mixture, tuned_solver):
    t0 = time.perf_counter()
    report = rate_sweep(sep_mixture, (1000, 3000, 10_000, 30_000, 100_000), 30,
                        "agnostic", "fixed", 7, threads=2, solver=tuned_solver)
    slope = report.slopes.get("mass_error", math.nan)
    failed_rows = [r for r in report.rows if not r.ok]
    failures = []
    if failed_rows:
        failures.append(f"{len(failed_rows)} replications errored")
    if not (math.isfinite(slope) and -0.65 <= slope <= -0.35):
        failures.append(f"mass-error slope {slope:.3f} outside -0.5 +- 0.15")
    _finish(6, "estimation rate", t0, 1200.0, failures,
            f"slope {slope:.3f} over n in 1e3..1e5, 30 reps")


def test_criterion_07_prediction_rate(sep_mixture, tuned_solver):
    t0 = time.perf_counter()
    report = rate_sweep(sep_mixture, (1000, 3000, 10_000, 30_000, 100_000), 10,
                        "small_reg", "prediction", 21, threads=2, solver=tuned_solver)
    slope = report.slopes.get("prediction_error", math.nan)
    failed_rows = [r for r in report.rows if not r.ok]
    failures = []
    if failed_rows:
        failures.append(f"{len(failed_rows)} replications errored")
    if not (math.isfinite(slope) and -1.2 <= slope <= -0.8):
        failures.append(f"prediction slope {slope:.3f} outside -1.0 +- 0.2")
    _finish(7, "prediction rate", t0, 1200.0, failures,
            f"slope {slope:.3f} over n in 1e3..1e5, 10 reps")


def test_criterion_08_soft_thresholding(sep_mixture, tuned_solver):
    t0 = time.perf_counter()
    report = rate_sweep(sep_mixture, (10_000,), 50, "agnostic", "fixed", 13,
                        threads=2, solver=tuned_solver)
    kappa = report.rows[0].kappa
    mean_tv = report.aggregates[0].mean_tv_error
    bound = 4 * sep_mixture.s * kappa
    failures = []
    if any(not r.ok for r in report.rows):
        failures.append("replications errored")
    if not abs(mean_tv) <= bound:
        failures.append(f"|mean tv error| {abs(mean_tv):.4f} > 4*s*kappa {bound:.4f}")
    _finish(8, "soft-thresholding bound", t0, None, failures,
            f"|mean tv| {abs(mean_tv):.4f} <= {bound:.4f}, 50 reps at n=1e4")


def test_criterion_09_sparsity_at_large_n(sep_mixture, tuned_solver):
    t0 = time.perf_counter()
    report = rate_sweep(sep_mixture, (100_000,), 20, "agnostic", "fixed", 3,
                        threads=2, solver=tuned_solver)
    rate = report.aggregates[0].sparsity_rate
    failures = []
    if any(not r.ok for r in report.rows):
        failures.append("replications errored")
    if not rate >= 0.80:
        failures.append(f"exactly-one-atom-per-region rate {rate:.2f} < 0.80")
    _finish(9, "sparsity at n=1e5", t0, None, failures,
            f"rate {rate:.2f} over 20 seeds")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "kernel.d = 1\n"
        "kernel.tau = 1.0\n"
        "scenario.weights = 0.5, 0.5\n"
        "scenario.t = -13, 13\n"
        "scenario.u = 1, 1\n"
        "scenario.box.t_lo = -20\n"
        "scenario.box.t_hi = 20\n"
        "scenario.box.u_min = 1.0\n"
        "scenario.box.u_max = 1.0\n"
        "solver.iterations = 300\n"
        "solver.step_w = 4.0\n"
        "solver.step_x = 8.0\n"
        "solver.merge_radius = 0.605\n"
        "solver.merge_period = 10\n"
        "experiment.n_grid = 500, 2000\n"
        "experiment.replications = 2\n"
        "experiment.kappa_rule = agnostic\n"
        "seed.master = 11\n")
    failures = []
    for name, threads in (("r1", 1), ("r2", 1), ("r4", 4)):
        rc = cli_main(["rates", "--config", str(cfg), "--threads", str(threads),
                       "--out", str(tmp_path / name)])
        if rc != 0:
            failures.append(f"run {name} exited {rc}")
    if not failures:
        for fname in ("rates_replications.csv", "rates_aggregates.csv",
                      "rates_replications.csv.meta.json",
                      "rates_aggregates.csv.meta.json"):
            ref = (tmp_path / "r1" / fname).read_bytes()
            if (tmp_path / "r2" / fname).read_bytes() != ref:
                failures.append(f"{fname} differs between identical runs")
            if (tmp_path / "r4" / fname).read_bytes() != ref:
                failures.append(f"{fname} differs between --threads 1 and 4")
    _finish(10, "determinism", t0, None, failures,
            "byte-identical across reruns and --threads {1,4}")
