"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable checklist (`pytest -s tests/test_acceptance.py`).
"""

import dataclasses
import time

import numpy as np

import funkreg as fk
from funkreg.bootstrap import MULTIPLIER_LOW, P_LOW, _multiplier_matrix

UNIFORM = fk.KernelSpec.uniform()
QUADRATIC = fk.KernelSpec.quadratic()
TRIANGLE = fk.KernelSpec.triangle()
DERIV1 = fk.SemiMetricSpec(derivative_order=1)


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_1_constants_engine():
    start = time.perf_counter()
    kernels = {"uniform": UNIFORM, "quadratic": QUADRATIC, "triangle": TRIANGLE}
    models = [fk.Tau0Model.fractal(g) for g in (0.5, 1.0, 2.0, 5.0)]
    models.append(fk.Tau0Model.dirac_at_one())
    worst = 0.0
    for kernel in kernels.values():
        for model in models:
            closed = fk.compute_constants(kernel, model)
            quad = fk.constants_by_quadrature(kernel, model)
            worst = max(
                worst,
                abs(closed.m0 - quad.m0),
                abs(closed.m1 - quad.m1),
                abs(closed.m2 - quad.m2),
            )
    spot_uniform = fk.compute_constants(UNIFORM, fk.Tau0Model.fractal(1.0))
    spot_quadratic = fk.compute_constants(QUADRATIC, fk.Tau0Model.fractal(1.0))
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-8
        and np.allclose(
            (spot_uniform.m0, spot_uniform.m1, spot_uniform.m2), (0.5, 1.0, 1.0)
        )
        and np.allclose(
            (spot_quadratic.m0, spot_quadratic.m1, spot_quadratic.m2),
            (0.25, 2.0 / 3.0, 8.0 / 15.0),
        )
        and elapsed < 1.0
    )
    report(1, "constants engine: closed forms vs adaptive quadrature", ok,
           f"max |closed - quad| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_wild_law_moments_and_frequency():
    moment_ok = True
    for eps in (-3.0, -1.0, 0.0, 0.5, 10.0):
        m1, m2, m3 = fk.WildResidualLaw.from_residual(eps).moments()
        if eps == 0.0:
            moment_ok &= max(abs(m1), abs(m2), abs(m3)) <= 1e-12
        else:
            moment_ok &= abs(m1) <= 1e-12 * abs(eps)
            moment_ok &= abs(m2 - eps**2) <= 1e-12 * eps**2
            moment_ok &= abs(m3 - eps**3) <= 1e-12 * abs(eps**3)
    multipliers = _multiplier_matrix(314159, 100, np.arange(10_000))
    freq = float(np.mean(multipliers == MULTIPLIER_LOW))
    freq_ok = abs(freq - P_LOW) <= 0.002
    report(2, "wild-law moments (0, e^2, e^3) and atom frequency",
           moment_ok and freq_ok,
           f"freq {freq:.4f} vs {P_LOW:.4f} over 1e6 draws")


def test_criterion_3_leading_bias_variance():
    start = time.perf_counter()
    config = fk.ScalarDesignConfig(
        n=2000, h=0.1, chi=0.0, slope=1.0, noise_sd=0.5, reps=5000, seed=11
    )
    result = fk.mc_bias_variance(config, UNIFORM)
    elapsed = time.perf_counter() - start
    bias_ok = abs(result.empirical_bias - 0.05) <= 0.15 * 0.05
    var_ok = abs(result.empirical_variance - 0.00125) <= 0.15 * 0.00125
    report(3, "leading bias/variance Monte Carlo", bias_ok and var_ok and elapsed < 300,
           f"bias {result.empirical_bias:.5f} (target 0.05), "
           f"variance {result.empirical_variance:.6f} (target 0.00125), "
           f"runtime {elapsed:.1f}s")


def test_criterion_4_asymptotic_normality():
    start = time.perf_counter()
    config = fk.ScalarDesignConfig(
        n=2000, h=0.05, chi=0.0, slope=1.0, noise_sd=0.5, reps=500, seed=12
    )
    result = fk.mc_normality(config, UNIFORM)
    elapsed = time.perf_counter() - start
    ok = result.ks_applicable and result.ks_statistic < 0.073 and elapsed < 300
    report(4, "standardized errors vs standard normal (KS)", ok,
           f"KS {result.ks_statistic:.4f} < 0.073, runtime {elapsed:.1f}s")


def test_criterion_5_interval_coverage():
    n, h, noise_sd, reps, seed = 2000, 0.03, 0.5, 1000, 99
    tau0 = fk.Tau0Model.fractal(1.0)
    hits = 0
    for rep in range(reps):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))
        x = rng.random(n)
        y = x + noise_sd * rng.standard_normal(n)
        d = np.abs(x)
        result = fk.nadaraya_watson(d, y, UNIFORM, h)
        sigma2 = fk.estimate_sigma2(d, y, UNIFORM, h)
        result = dataclasses.replace(result, sigma2_hat=sigma2)
        lower, upper = fk.confidence_interval(result, UNIFORM, tau0, 0.95)
        hits += lower <= 0.0 <= upper
    coverage = hits / reps
    report(5, "95% interval coverage with plug-in variance",
           0.92 <= coverage <= 0.975, f"coverage {coverage:.3f} in [0.92, 0.975]")


def test_criterion_6_tau_convergence():
    fractal = fk.mc_tau_convergence(
        fk.FractalFamily(1.0), 5000, 0.1, np.linspace(0.0, 1.0, 101), seed=5
    )
    family = fk.NonsmoothFamily(alpha=1.0, beta=2.0, c=1.0)
    h = family.bandwidth_at_rate(5000)
    nonsmooth = fk.mc_tau_convergence(
        family, 5000, h, np.linspace(0.0, 1.0, 101), seed=5
    )
    ok = fractal.sup_deviation <= 0.1 and nonsmooth.tau_hat_at(0.5) <= 0.05
    report(6, "empirical tau converges to its limit", ok,
           f"fractal sup {fractal.sup_deviation:.3f} <= 0.1, "
           f"nonsmooth tau(0.5) {nonsmooth.tau_hat_at(0.5):.4f} <= 0.05 at h {h:.3f}")


def test_criterion_7_bootstrap_bandwidth_experiment():
    start = time.perf_counter()
    runs = 20
    interior = 0
    selected_mse = []
    oracle_mse = []
    for seed in range(runs):
        sim = fk.SimulationConfig(n_train=100, n_test=10, seed=seed)
        train, test = fk.generate_functional_sample(sim)
        config = fk.BootstrapConfig(
            n_replications=100, k_min=2, k_max=32, seed=seed,
            pilot=fk.FixedPilot(16),
        )
        result = fk.bootstrap_error_curve(
            train, test.curves, QUADRATIC, DERIV1, config
        )
        errors = [e for _, _, e in result.per_bandwidth]
        minimum = min(errors)
        interior += errors[0] > minimum and errors[-1] > minimum

        truth = np.array([fk.true_regression(c) for c in test.curves])
        mse_by_k = np.zeros(len(result.per_bandwidth))
        for j, query in enumerate(test.curves):
            distances = fk.pairwise_distances(train, query, DERIV1)
            grid = fk.knn_bandwidths(distances, config.k_min, config.k_max)
            for ki, (_, h) in enumerate(grid.entries):
                pred = fk.nadaraya_watson(
                    distances, train.responses, QUADRATIC, h
                ).prediction
                mse_by_k[ki] += (pred - truth[j]) ** 2
        mse_by_k /= len(test.curves)
        selected_mse.append(mse_by_k[result.selected_k - config.k_min])
        oracle_mse.append(mse_by_k.min())
    elapsed = time.perf_counter() - start
    ratio = float(np.median(selected_mse) / np.median(oracle_mse))
    ok = interior >= 16 and ratio <= 2.0 and elapsed < 900
    report(7, "reduced-scale bootstrap bandwidth experiment", ok,
           f"interior minimum {interior}/20 (need >= 16), "
           f"median MSE ratio {ratio:.2f} <= 2, runtime {elapsed:.0f}s")


def test_criterion_8_finite_dimensional_equivalence():
    grid = fk.SamplingGrid([0.0, 1.0])
    spec = fk.SemiMetricSpec(0)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(10, 60))
        x = rng.random(n)
        y = rng.normal(size=n)
        chi = float(rng.random())
        h = float(rng.uniform(0.15, 0.9))
        kernel = UNIFORM if trial % 2 == 0 else QUADRATIC
        sample = fk.FunctionalSample(grid, np.column_stack([x, x]), y)
        d = fk.pairwise_distances(sample, fk.Curve(grid, [chi, chi]), spec)
        functional = fk.nadaraya_watson(d, y, kernel, h).prediction
        # directly coded scalar smoother
        u = np.abs(x - chi) / h
        if kernel is UNIFORM:
            w = (u <= 1.0).astype(float)
        else:
            w = np.where(u <= 1.0, 1.0 - u**2, 0.0)
        scalar = float(np.dot(w, y) / np.sum(w))
        worst = max(worst, abs(functional - scalar))
    report(8, "functional estimator equals scalar smoother on encoded data",
           worst <= 1e-12, f"max |difference| = {worst:.2e} over 100 instances")


def test_criterion_9_seeded_commands_are_byte_identical(tmp_path):
    from funkreg.cli import main

    def run_twice(argv_builder, filename):
        contents = []
        for tag in ("x", "y"):
            target = tmp_path / tag / filename
            assert main(argv_builder(target)) == 0
            contents.append(target.read_bytes())
        return contents[0] == contents[1]

    sim_ok = run_twice(
        lambda target: [
            "simulate", "--n-train", "30", "--n-test", "6", "--seed", "7",
            "--out-dir", str(target.parent),
        ],
        "train.csv",
    )
    sim_dir = tmp_path / "base"
    assert main([
        "simulate", "--n-train", "30", "--n-test", "6", "--seed", "7",
        "--out-dir", str(sim_dir),
    ]) == 0
    select_ok = run_twice(
        lambda target: [
            "select", "--train", str(sim_dir / "train.csv"),
            "--test", str(sim_dir / "test.csv"), "--k-min", "2", "--k-max", "10",
            "--n-boot", "25", "--seed", "13", "--kernel", "quadratic",
            "--deriv-order", "1", "--out", str(target),
        ],
        "select.tsv",
    )
    mc_ok = run_twice(
        lambda target: [
            "mc-bias-var", "--n", "300", "--h", "0.1", "--reps", "40",
            "--seed", "17", "--kernel", "uniform", "--out", str(target),
        ],
        "mc.json",
    )
    report(9, "seeded commands rerun byte-identically",
           sim_ok and select_ok and mc_ok,
           f"simulate {sim_ok}, select {select_ok}, mc-bias-var {mc_ok}")
