"""Tests for the curve generators and Monte Carlo experiments."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from funkreg import (
    Curve,
    DegenerateBall,
    EmptyNeighborhood,
    FractalFamily,
    GridTooShort,
    KernelSpec,
    NonsmoothFamily,
    SamplingGrid,
    ScalarDesignConfig,
    SimulationConfig,
    ValidationError,
    default_grid,
    generate_curve,
    generate_functional_sample,
    mc_bias_variance,
    mc_normality,
    mc_tau_convergence,
    true_regression,
)
import funkreg as fk
from funkreg import simulation
from funkreg.estimator import nadaraya_watson_batch
from funkreg.kernels import eval_kernel_array
from funkreg.simulation import (
    _ks_statistic,
    _scalar_fits,
    check_seed,
    replication_streams,
)

UNIFORM = KernelSpec.uniform()


class TestGenerateCurve:
    def test_pure_drift(self):
        grid = default_grid(11)
        curve = generate_curve(0.0, 0.0, 0.0, grid)
        np.testing.assert_allclose(curve.values, 2.0 * math.pi * grid.points)

    def test_intercept_at_origin(self):
        grid = default_grid(11)
        curve = generate_curve(0.0, 0.0, 1.0, grid)
        assert curve.values[5] == pytest.approx(1.0)  # t = 0

    def test_pointwise_formula(self):
        grid = SamplingGrid(np.linspace(-1.0, 1.0, 5))
        curve = generate_curve(math.pi, 0.5, 0.25, grid)
        # value at t = 0.5
        assert curve.values[3] == pytest.approx(4.6416, abs=1e-4)


class TestTrueRegression:
    def test_pure_drift_closed_form(self):
        grid = default_grid(101)
        value = true_regression(Curve(grid, 2.0 * math.pi * grid.points))
        assert value == pytest.approx(4.0 * math.pi, abs=0.02)

    def test_constant_curve(self):
        grid = default_grid(101)
        assert true_regression(Curve(grid, np.full(101, 2.0))) == pytest.approx(0.0, abs=1e-12)

    def test_sign_symmetry(self):
        grid = default_grid(101)
        up = true_regression(Curve(grid, 2.0 * math.pi * grid.points))
        down = true_regression(Curve(grid, -2.0 * math.pi * grid.points))
        assert up == pytest.approx(down, rel=1e-12)

    def test_intercept_invariance(self):
        grid = default_grid(81)
        base = generate_curve(2.0, 0.4, 0.0, grid)
        for b in (-3.0, 0.7, 42.0):
            shifted = Curve(grid, base.values + b)
            assert true_regression(shifted) == pytest.approx(
                true_regression(base), rel=1e-12
            )

    def test_positive_homogeneity_in_scale(self):
        grid = default_grid(81)
        base = generate_curve(1.5, 0.2, 0.1, grid)
        for c in (0.5, 2.0, 10.0):
            scaled = Curve(grid, c * base.values)
            assert true_regression(scaled) == pytest.approx(
                c * true_regression(base), rel=1e-12
            )

    def test_grid_too_short(self):
        grid = SamplingGrid(np.linspace(-1.0, 1.0, 4))
        with pytest.raises(GridTooShort):
            true_regression(Curve(grid, np.zeros(4)))


class TestGenerateFunctionalSample:
    def test_noiseless_responses_equal_regression(self):
        config = SimulationConfig(n_train=10, n_test=5, noise_variance=0.0, seed=1)
        train, test = generate_functional_sample(config)
        for sample in (train, test):
            for curve, resp in zip(sample.curves, sample.responses):
                assert resp == true_regression(curve)

    @pytest.mark.parametrize("seed", [0, 5, 1234])
    def test_equals_per_curve_reference(self, seed):
        # the stream drawn curve by curve, as generate_curve and
        # true_regression draw it, then the noise
        config = SimulationConfig(n_train=30, n_test=12, seed=seed)
        grid = default_grid(config.grid_size)
        rng = np.random.default_rng(seed)
        for sample in generate_functional_sample(config):
            n = len(sample)
            omegas = rng.uniform(0.0, 2.0 * math.pi, n)
            slopes = rng.uniform(0.0, 1.0, n)
            intercepts = rng.uniform(0.0, 1.0, n)
            curves = [generate_curve(omegas[i], slopes[i], intercepts[i], grid)
                      for i in range(n)]
            signal = np.array([true_regression(c) for c in curves])
            noise = rng.normal(0.0, math.sqrt(config.noise_variance), n)
            assert np.array_equal(sample.values,
                                  np.array([c.values for c in curves]))
            assert np.array_equal(sample.responses, signal + noise)

    @pytest.mark.parametrize("grid_size", [5, 41, 101])
    def test_draws_keep_the_bits_of_numpys_gradient(self, monkeypatch,
                                                    grid_size):
        # the regression functional as it was written on np.gradient; the
        # grid's stencil keeps its bits on uniform (5 points) and rounded
        # (41, 101) linspace grids
        def regression_values(values, grid):
            t = grid.points
            deriv = np.gradient(values, t, axis=-1, edge_order=2)
            return np.trapezoid(np.abs(deriv) * (1.0 - np.cos(math.pi * t)),
                                t, axis=-1)

        config = SimulationConfig(n_train=40, n_test=10, grid_size=grid_size,
                                  seed=3)
        drawn = generate_functional_sample(config)
        curve = drawn[1].curves[0]
        assert true_regression(curve) == float(
            regression_values(curve.values, curve.grid))
        monkeypatch.setattr(simulation, "_regression_values",
                            regression_values)
        for got, want in zip(drawn, generate_functional_sample(config)):
            assert got.values.tobytes() == want.values.tobytes()
            assert got.responses.tobytes() == want.responses.tobytes()

    def test_same_seed_identical(self):
        config = SimulationConfig(n_train=8, n_test=4, seed=5)
        t1, s1 = generate_functional_sample(config)
        t2, s2 = generate_functional_sample(config)
        np.testing.assert_array_equal(t1.responses, t2.responses)
        np.testing.assert_array_equal(t1.values_matrix(), t2.values_matrix())
        np.testing.assert_array_equal(s1.responses, s2.responses)

    def test_signal_adds_variance_beyond_noise(self):
        config = SimulationConfig(n_train=200, n_test=1, seed=7)
        train, _ = generate_functional_sample(config)
        assert np.var(train.responses, ddof=1) > 2.0

    def test_sizes_and_grid(self):
        config = SimulationConfig(n_train=12, n_test=6, grid_size=51, seed=0)
        train, test = generate_functional_sample(config)
        assert len(train) == 12 and len(test) == 6
        assert len(train.grid) == 51
        assert train.grid.span == (-1.0, 1.0)


class TestMcBiasVariance:
    def test_noiseless_design(self):
        config = ScalarDesignConfig(n=500, h=0.1, noise_sd=0.0, reps=200, seed=3)
        report = mc_bias_variance(config, UNIFORM)
        assert report.theoretical.variance_leading == 0.0
        # only design noise in the ball mean; far below the squared-bias scale
        assert report.empirical_variance < 2.0 * report.empirical_bias**2

    def test_boundary_vs_interior_bias(self):
        boundary = mc_bias_variance(
            ScalarDesignConfig(n=1000, h=0.1, chi=0.0, noise_sd=0.3, reps=800, seed=4),
            UNIFORM,
        )
        interior = mc_bias_variance(
            ScalarDesignConfig(n=1000, h=0.1, chi=0.5, noise_sd=0.3, reps=800, seed=4),
            UNIFORM,
        )
        assert interior.theoretical.b_n == 0.0
        assert abs(interior.empirical_bias) * 5.0 <= abs(boundary.empirical_bias)

    def test_bias_monotone_in_h(self):
        biases = []
        for h in (0.05, 0.1, 0.2):
            report = mc_bias_variance(
                ScalarDesignConfig(n=1000, h=h, noise_sd=0.3, reps=5000, seed=8),
                UNIFORM,
            )
            biases.append(report.empirical_bias)
        assert biases[0] < biases[1] < biases[2]

    def test_deterministic(self):
        config = ScalarDesignConfig(n=200, h=0.1, noise_sd=0.5, reps=50, seed=12)
        r1 = mc_bias_variance(config, UNIFORM)
        r2 = mc_bias_variance(config, UNIFORM)
        np.testing.assert_array_equal(r1.predictions, r2.predictions)
        assert r1.empirical_bias == r2.empirical_bias


class TestMcNormality:
    def test_single_replication_flagged(self):
        config = ScalarDesignConfig(n=300, h=0.1, noise_sd=0.5, reps=1, seed=1)
        report = mc_normality(config, UNIFORM)
        assert report.insufficient_replications
        assert 0.0 <= report.ks_statistic <= 1.0

    def test_zero_noise_not_applicable(self):
        config = ScalarDesignConfig(n=500, h=0.1, noise_sd=0.0, reps=40, seed=2)
        report = mc_normality(config, UNIFORM)
        assert not report.ks_applicable
        assert math.isnan(report.ks_statistic)
        assert float(np.max(np.abs(report.standardized))) < 0.5

    def test_moderate_run_looks_normal(self):
        config = ScalarDesignConfig(n=1000, h=0.1, noise_sd=0.5, reps=300, seed=3)
        report = mc_normality(config, UNIFORM)
        assert not report.insufficient_replications
        assert report.ks_statistic < 0.1

    def test_reports_the_ks_statistic_of_its_standardized_values(self):
        config = ScalarDesignConfig(n=400, h=0.1, noise_sd=0.5, reps=60, seed=4)
        report = mc_normality(config, UNIFORM)
        assert report.ks_statistic == _ks_statistic(report.standardized)


#: Largest gap allowed between ``_ks_statistic`` and the reference KS test:
#: the two round the normal CDF differently (erfc alone against scipy's
#: erf/erfc split), a few ulp of a value in [0, 1]. The largest gap seen
#: on 3000 random draws was 2.2e-16.
KS_ATOL = 1e-15


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2000), pool=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1), shift=st.floats(-3.0, 3.0),
       scale=st.floats(0.05, 5.0), decimals=st.none() | st.integers(0, 3))
def test_ks_statistic_matches_the_reference(n, pool, seed, shift, scale,
                                            decimals):
    # n values drawn with replacement from a pool of distinct normal draws:
    # exact duplicates when the pool is smaller than n, ties again when the
    # values are rounded
    rng = np.random.default_rng(seed)
    draws = shift + scale * rng.standard_normal(min(pool, n))
    values = draws[rng.integers(0, draws.size, n)]
    if decimals is not None:
        values = np.round(values, decimals)
    got = _ks_statistic(values)
    assert got == pytest.approx(kstest(values, "norm").statistic,
                                rel=0, abs=KS_ATOL)
    assert 0.0 < got <= 1.0


class TestMcTauConvergence:
    def test_fractal_matches_identity(self):
        report = mc_tau_convergence(
            FractalFamily(1.0), 5000, 0.1, np.linspace(0, 1, 101), seed=5
        )
        assert report.sup_deviation <= 0.1

    def test_deviation_zero_at_one(self):
        report = mc_tau_convergence(
            FractalFamily(2.0), 2000, 0.2, np.array([0.5, 1.0]), seed=6
        )
        assert report.tau_hat[-1] == 1.0
        assert abs(report.tau_hat[-1] - report.tau0_values[-1]) == 0.0

    def test_nonsmooth_concentrates_at_boundary(self):
        family = NonsmoothFamily(alpha=1.0, beta=2.0, c=1.0)
        h = family.bandwidth_at_rate(5000)
        report = mc_tau_convergence(family, 5000, h, np.linspace(0, 1, 101), seed=7)
        assert report.tau_hat_at(0.5) <= 0.05

    def test_requires_large_sample(self):
        with pytest.raises(ValidationError):
            mc_tau_convergence(FractalFamily(1.0), 100, 0.1, [0.5])

    @pytest.mark.parametrize("s_grid", [[], [0.5, 1.5], [0.5, -0.1],
                                        [0.5, math.nan], [0.5, math.inf]])
    def test_s_grid_outside_the_unit_interval(self, s_grid):
        with pytest.raises(ValidationError, match="s_grid must be nonempty"):
            mc_tau_convergence(FractalFamily(1.0), 2000, 0.5, s_grid)

    def test_degenerate_ball(self):
        with pytest.raises(DegenerateBall):
            mc_tau_convergence(FractalFamily(1.0), 1000, 1e-9, [0.5], seed=8)

    def test_nonsmooth_family_validation(self):
        with pytest.raises(ValidationError):
            NonsmoothFamily(alpha=3.0, beta=1.0, c=1.0)  # c * beta < alpha

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_fractal_family_needs_a_finite_positive_gamma(self, gamma):
        # NaN passed a `<= 0` check and ended in DegenerateBall
        with pytest.raises(ValidationError, match="finite and positive"):
            FractalFamily(gamma)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "c"])
    def test_nonsmooth_family_needs_finite_positive_parameters(self, name, bad):
        params = {"alpha": 1.0, "beta": 2.0, "c": 1.0, name: bad}
        with pytest.raises(ValidationError, match="finite and positive"):
            NonsmoothFamily(**params)

    @pytest.mark.parametrize("n, a", [(1, 1.75), (0, 1.75), (-3, 1.75),
                                      (2.5, 1.75), (5000.0, 1.75),
                                      (5000, 0.0), (5000, -1.0),
                                      (5000, math.nan), (5000, math.inf)])
    def test_bandwidth_at_rate_needs_n_of_two_and_a_finite_positive_a(self, n, a):
        # n = 1 divided by log 1 = 0 and n = 0 took the log of 0
        family = NonsmoothFamily(alpha=1.0, beta=2.0, c=1.0)
        with pytest.raises(ValidationError):
            family.bandwidth_at_rate(n, a)

    def test_sample_size_must_be_an_integer(self):
        # a float n reached numpy's random draw as a size
        with pytest.raises(ValidationError, match="n must be an integer"):
            mc_tau_convergence(FractalFamily(1.0), 5000.0, 0.1, [0.5])

    def test_nonsmooth_sampler_matches_law(self):
        # the inverse-CDF draws must reproduce the target CDF itself
        family = NonsmoothFamily(alpha=1.0, beta=2.0, c=1.0)
        rng = np.random.default_rng(9)
        draws = family.sample_distances(rng, 20000)
        norm = family._unnormalized(np.array([1.0]))[0]
        for s in (0.4, 0.6, 0.8):
            want = family._unnormalized(np.array([s]))[0] / norm
            got = float(np.mean(draws <= s))
            assert got == pytest.approx(want, abs=0.02)


def reference_scalar_fits(config, kernel):
    """One direct fit per replication, as before replications were blocked."""
    preds, counts = [], []
    for rep in range(config.reps):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([config.seed, rep], dtype=np.uint64)))
        x = rng.random(config.n)
        y = config.slope * x
        if config.noise_sd > 0:
            y = y + config.noise_sd * rng.standard_normal(config.n)
        d = np.abs(x - config.chi)
        w = eval_kernel_array(kernel, d / config.h)
        total = float(np.sum(w))
        if total <= 0.0:
            raise EmptyNeighborhood(f"replication {rep}")
        preds.append(float(np.dot(w, y)) / total)
        counts.append(int(np.count_nonzero(d <= config.h)))
    return np.array(preds), np.array(counts)


def dense_scalar_fits(config, kernel):
    """Every replication's design and responses as one dense (1, n) block,
    fitted by ``nadaraya_watson_batch``, one replication a call."""
    preds = np.empty(config.reps)
    counts = np.empty(config.reps, dtype=np.intp)
    for row, rng in enumerate(replication_streams(config.seed, config.reps)):
        x = rng.random(config.n)
        y = config.slope * x
        if config.noise_sd > 0:
            y += config.noise_sd * rng.standard_normal(config.n)
        pred, _, count = nadaraya_watson_batch(
            np.abs(x - config.chi)[None], y, kernel, [config.h])
        preds[row], counts[row] = pred[0], count[0]
    return preds, counts


class TestBlockedReplications:
    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("chi", [0.0, 0.4])
    @pytest.mark.parametrize("kernel", [UNIFORM, KernelSpec.quadratic()])
    def test_keeps_the_bits_of_the_dense_block(self, kernel, chi, noise_sd):
        # n = 2000: blocks of 8 replications, the last one of 5
        config = ScalarDesignConfig(n=2000, h=0.05, chi=chi, slope=1.3,
                                    noise_sd=noise_sd, reps=13, seed=17)
        assert config.reps % max(1, simulation._BLOCK_ELEMENTS // config.n) == 5
        preds, counts = _scalar_fits(config, kernel)
        want_preds, want_counts = dense_scalar_fits(config, kernel)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(preds, want_preds)

    @pytest.mark.parametrize("budget", [1, 60, 150, 1 << 16])
    @pytest.mark.parametrize("kernel", [UNIFORM, KernelSpec.quadratic()])
    def test_blocks_match_per_replication_fits(self, monkeypatch, budget, kernel):
        # n = 50: blocks of 1, 1, 3 and all 7 replications (short last block)
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", budget)
        config = ScalarDesignConfig(n=50, h=0.3, chi=0.2, noise_sd=0.5,
                                    reps=7, seed=21)
        preds, counts = _scalar_fits(config, kernel)
        want_preds, want_counts = reference_scalar_fits(config, kernel)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_allclose(preds, want_preds, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want_preds)))

    def test_experiments_use_the_blocked_fits(self, monkeypatch):
        config = ScalarDesignConfig(n=40, h=0.2, noise_sd=0.5, reps=9, seed=4)
        want, counts = reference_scalar_fits(config, UNIFORM)
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 100)
        report = mc_bias_variance(config, UNIFORM)
        np.testing.assert_allclose(report.predictions, want, rtol=1e-13)
        normal = mc_normality(config, UNIFORM)
        # uniform kernel, tau0(s) = s: m1 = m2 = 1 and b_n = h / 2 at chi = 0
        standardized = np.sqrt(counts) * (want - config.h / 2) / config.noise_sd
        np.testing.assert_allclose(normal.standardized, standardized, rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_first_empty_replication_raises(self, monkeypatch, workers):
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 6)  # 3 per block
        monkeypatch.setattr(simulation, "_worker_count", lambda: workers)
        # a seed whose first empty replication lies past the first block
        for seed in range(100):
            config = ScalarDesignConfig(n=2, h=0.2, chi=0.5, reps=12, seed=seed)
            with pytest.raises(EmptyNeighborhood) as info:
                reference_scalar_fits(config, UNIFORM)
            first = int(str(info.value).split()[-1])
            if first >= 3:
                break
        assert first >= 3
        block = first // 3 * 3
        with pytest.raises(EmptyNeighborhood,
                           match=f"replications {block}-{block + 2}: .* "
                                 f"at query {first - block}$"):
            _scalar_fits(config, UNIFORM)


def shares_of(workers, config):
    """The outputs of ``_scalar_fits`` with ``workers`` CPUs to use, and the
    number of threads it started."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_worker_count", lambda: workers)
        patch.setattr(simulation.threading, "Thread", Thread)
        out = _scalar_fits(config, UNIFORM)
    assert not any(thread.is_alive() for thread in started)
    return out, len(started)


class TestShares:
    @pytest.mark.parametrize("budget", [simulation._BLOCK_ELEMENTS, 4000])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, budget):
        # n = 2000: blocks of 8 (2 blocks) or of 2 (7 blocks), the last one
        # short, so shares of 1, 2, 3 and 5 workers end mid-run; a short
        # switch interval interleaves the threads often
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", budget)
        config = ScalarDesignConfig(n=2000, h=0.05, chi=0.4, slope=1.3,
                                    noise_sd=0.5, reps=13, seed=17)
        blocks = -(-13 // min(13, budget // 2000))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (want_preds, want_counts), threads = shares_of(1, config)
            assert threads == 0
            for workers in (2, 3, 5):
                (preds, counts), threads = shares_of(workers, config)
                assert threads == min(workers, blocks) - 1
                np.testing.assert_array_equal(counts, want_counts)
                np.testing.assert_array_equal(preds, want_preds)
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_starts_no_thread(self):
        config = ScalarDesignConfig(n=2000, h=0.05, reps=1, seed=3)
        assert shares_of(5, config)[1] == 0

    def test_the_lowest_failing_share_is_raised(self, monkeypatch):
        # blocks of 2 of 13 replications: shares start at 0, 4 and 8, and
        # shares 1 and 2 fail after share 0 ran
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 4000)
        fit_share = simulation._fit_share

        def failing(config, kernel, step, first, end, predictions, counts):
            fit_share(config, kernel, step, first, end, predictions, counts)
            if first:
                raise RuntimeError(f"share at {first}")

        monkeypatch.setattr(simulation, "_fit_share", failing)
        config = ScalarDesignConfig(n=2000, h=0.05, reps=13, seed=3)
        with pytest.raises(RuntimeError, match="^share at 4$"):
            shares_of(3, config)

    def test_worker_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: None)
        assert simulation._worker_count() == 1
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
        assert simulation._worker_count() == 3


class TestReplicationStreams:
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 5, 2**64 - 1])
    def test_each_stream_is_a_fresh_philox_generator(self, seed):
        for b, gen in enumerate(replication_streams(seed, 4)):
            fresh = np.random.Generator(
                np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
            np.testing.assert_array_equal(gen.random(3), fresh.random(3))
            np.testing.assert_array_equal(gen.standard_normal(5),
                                          fresh.standard_normal(5))
            # the counter moved and a word and a half-word are left
            # buffered: the next reset must drop them
            np.testing.assert_array_equal(
                gen.integers(0, 7, 3, dtype=np.uint32),
                fresh.integers(0, 7, 3, dtype=np.uint32))

    def test_count_bounds_the_streams(self):
        assert len(list(replication_streams(3, 0))) == 0
        assert len(list(replication_streams(3, 7))) == 7
        assert len(list(replication_streams(3, 7, 5))) == 2
        assert len(list(replication_streams(3, 7, 9))) == 0

    @pytest.mark.parametrize("start", [0, 1, 4, 6])
    def test_a_start_skips_to_its_stream(self, start):
        def draws(streams):
            return [np.concatenate([gen.random(3), gen.standard_normal(5)])
                    for gen in streams]

        want = draws(replication_streams(2**63 + 5, 7))[start:]
        got = draws(replication_streams(2**63 + 5, 7, start))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", None])
    def test_check_seed_rejects(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            check_seed(seed)

    def test_check_seed_accepts_numpy_integers(self):
        assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
        assert check_seed(np.int8(0)) == 0

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_entry_points_reject_bad_seeds(self, seed):
        # mc_tau_convergence raised a bare OverflowError on -1 and 2^64,
        # and ran 1.5 as seed 1
        with pytest.raises(ValidationError, match="seed"):
            mc_tau_convergence(FractalFamily(1.0), 1000, 0.1, [0.5], seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            ScalarDesignConfig(n=10, h=0.1, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            SimulationConfig(seed=seed)


@pytest.mark.parametrize("build", [
    lambda: fk.BootstrapConfig(k_min=2.5),
    lambda: fk.BootstrapConfig(k_max=8.0),
    lambda: fk.BootstrapConfig(n_replications=1.5),
    lambda: fk.BootstrapConfig(pilot=fk.FixedPilot(6.5)),
    lambda: fk.BootstrapConfig(query_index=True),
    lambda: SimulationConfig(n_train=10.5),
    lambda: SimulationConfig(grid_size=50.5),
    lambda: ScalarDesignConfig(n=100.5, h=0.1),
    lambda: ScalarDesignConfig(n=100, h=0.1, reps=2.5),
    lambda: fk.split_sample(generate_functional_sample(
        SimulationConfig(n_train=20, n_test=1))[0], 10.5, 5, 0),
    lambda: fk.SemiMetricSpec(presmoothing_window=3.5),
    lambda: fk.SemiMetricSpec(derivative_order=1.0),
], ids=["k_min", "k_max", "n_replications", "k_g", "query_index", "n_train",
        "grid_size", "n", "reps", "split", "presmoothing_window",
        "derivative_order"])
def test_counts_must_be_integers(build):
    # each was accepted and failed later with a TypeError or IndexError
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


@pytest.mark.parametrize("sizes", [{"n_train": 0}, {"n_test": 0}])
def test_sample_sizes_must_be_positive(sizes):
    with pytest.raises(ValidationError, match="sample sizes must be positive"):
        SimulationConfig(**sizes)


def test_counts_accept_numpy_integers():
    assert fk.BootstrapConfig(k_max=np.int64(8)).k_max == 8
    assert ScalarDesignConfig(n=np.int32(10), h=0.1, reps=np.uint8(3)).reps == 3
    assert fk.SemiMetricSpec(np.int64(1), np.int64(3)).presmoothing_window == 3
