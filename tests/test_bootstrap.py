"""Tests for the wild residual law and the bootstrap bandwidth selector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import funkreg.bootstrap
from funkreg import (
    BootstrapConfig,
    Curve,
    EmptyNeighborhood,
    FixedPilot,
    FunctionalSample,
    GridMismatch,
    InvalidKernel,
    KernelSpec,
    MultiplierPilot,
    SamplingGrid,
    SemiMetricSpec,
    SimulationConfig,
    ValidationError,
    WildBootstrapResult,
    WildResidualLaw,
    bootstrap_error_curve,
    draw_wild_residual,
    generate_functional_sample,
    knn_bandwidths,
    nadaraya_watson,
    residuals,
    select_bandwidth,
)
from funkreg.bootstrap import (
    MULTIPLIER_HIGH,
    MULTIPLIER_LOW,
    P_LOW,
    _argmin_entry,
    _multiplier_matrix,
)
from funkreg.curves import (
    curve_matrix,
    distance_matrix,
    transform,
    transformed_matrix,
)
from funkreg.kernels import eval_kernel_array
from funkreg.simulation import default_grid

QUADRATIC = KernelSpec.quadratic()
DERIV1 = SemiMetricSpec(derivative_order=1)
SQRT5 = np.sqrt(5.0)


def reference_error_curve(sample, queries, kernel, spec, config, point_keys=None):
    """The direct wild-bootstrap loop: per query and candidate k, a full
    n x n kernel refit of the in-sample smoother and per-row pilot fits."""
    n = len(sample)
    y = sample.responses
    if config.evaluation == "pointwise":
        queries = [queries[config.query_index]]
    keys = np.arange(n) if point_keys is None else np.asarray(point_keys)
    trans = transformed_matrix(sample, spec)
    w_quad = sample.grid.trapezoid_weights()
    dist_ss = distance_matrix(trans, trans, w_quad)
    trans_q = np.vstack([transform(q.values, sample.grid, spec) for q in queries])
    dist_qs = distance_matrix(trans_q, trans, w_quad)

    def kth_smallest(d, k, exclude_self=False):
        d = np.sort(d)
        if exclude_self and d[0] == 0.0:
            d = d[1:]
        return d[k - 1]

    k_g = config.pilot_k(n)
    r_tilde = np.array([
        nadaraya_watson(dist_ss[i], y, kernel,
                        kth_smallest(dist_ss[i], k_g, True)).prediction
        for i in range(n)
    ])
    r_tilde_q = np.array([
        nadaraya_watson(d, y, kernel, kth_smallest(d, k_g)).prediction
        for d in dist_qs
    ])
    multipliers = _multiplier_matrix(config.seed, config.n_replications, keys)
    n_k = config.k_max - config.k_min + 1
    errors = np.empty((len(queries), n_k))
    radii = np.empty((len(queries), n_k))
    for j in range(len(queries)):
        grid = knn_bandwidths(dist_qs[j], config.k_min, config.k_max)
        for ki, (k, h) in enumerate(grid.entries):
            weights = eval_kernel_array(kernel, dist_ss / h)
            resid = y - (weights @ y) / weights.sum(axis=1)
            w_q = eval_kernel_array(kernel, dist_qs[j] / h)
            total = float(w_q.sum())
            if total <= 0.0:
                raise EmptyNeighborhood(f"query {j}, k = {k}")
            base = float(np.dot(w_q, r_tilde)) / total
            deviations = (multipliers @ (w_q * resid)) / total
            errors[j, ki] = np.mean((base + deviations - r_tilde_q[j]) ** 2)
            radii[j, ki] = h
    per_bandwidth = tuple(
        (k, float(radii[:, ki].mean()), float(errors[:, ki].mean()))
        for ki, k in enumerate(range(config.k_min, config.k_max + 1))
    )
    return per_bandwidth, _argmin_entry(per_bandwidth)[0]


def duplicated_sample(seed, n, n_duplicates):
    """A simulated sample plus exact copies of some of its curves, with
    fresh responses, in shuffled order; and its test sample."""
    train, test = small_sample(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    copies = rng.choice(n, size=n_duplicates, replace=False)
    values = np.vstack([train.values, train.values[copies]])
    responses = np.concatenate([
        train.responses, train.responses[copies] + rng.normal(size=n_duplicates)
    ])
    order = rng.permutation(len(values))
    return FunctionalSample(train.grid, values[order], responses[order]), test


def assert_same_error_curve(result, per_bandwidth, selected_k):
    """Equal k and h, errors to 1e-12 relative, and the same selection
    unless the two smallest errors are within 1e-10 relative."""
    assert [(k, h) for k, h, _ in result.per_bandwidth] == [
        (k, h) for k, h, _ in per_bandwidth
    ]
    for (_, _, e1), (_, _, e2) in zip(result.per_bandwidth, per_bandwidth):
        assert e1 == pytest.approx(e2, rel=1e-12)
    if result.selected_k != selected_k:
        first, second = sorted(e for _, _, e in per_bandwidth)[:2]
        assert second - first <= 1e-10 * second


class TestWildResidualLaw:
    def test_unit_residual_atoms_and_probabilities(self):
        law = WildResidualLaw.from_residual(1.0)
        assert law.atom_low == pytest.approx(-0.6180, abs=1e-4)
        assert law.atom_high == pytest.approx(1.6180, abs=1e-4)
        assert law.p_low == pytest.approx(0.7236, abs=1e-4)
        assert law.p_high == pytest.approx(0.2764, abs=1e-4)
        assert law.p_low + law.p_high == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("eps", [-3.0, -1.0, 0.0, 0.5, 10.0])
    def test_first_three_moments(self, eps):
        m1, m2, m3 = WildResidualLaw.from_residual(eps).moments()
        if eps == 0.0:
            assert abs(m1) <= 1e-12 and abs(m2) <= 1e-12 and abs(m3) <= 1e-12
        else:
            assert m1 == pytest.approx(0.0, abs=1e-12 * abs(eps))
            assert m2 == pytest.approx(eps**2, rel=1e-12)
            assert m3 == pytest.approx(eps**3, rel=1e-12)

    def test_draw_is_deterministic_inverse_cdf(self):
        law = WildResidualLaw.from_residual(2.0)
        assert draw_wild_residual(law, 0.0) == law.atom_low
        assert draw_wild_residual(law, law.p_low - 1e-12) == law.atom_low
        assert draw_wild_residual(law, law.p_low) == law.atom_high
        assert draw_wild_residual(law, 0.9) == pytest.approx(2.0 * (1 + SQRT5) / 2, abs=1e-4)

    def test_zero_residual_always_zero(self):
        law = WildResidualLaw.from_residual(0.0)
        for u in (0.0, 0.3, 0.9):
            assert draw_wild_residual(law, u) == 0.0


def small_sample(seed=0, n=40):
    config = SimulationConfig(n_train=n, n_test=5, grid_size=51, seed=seed)
    return generate_functional_sample(config)


class TestResiduals:
    def test_constant_responses_give_zero_residuals(self):
        train, _ = small_sample()
        flat = FunctionalSample(train.grid, train.values, np.full(len(train), 3.0))
        r = residuals(flat, QUADRATIC, DERIV1, k=5)
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_interpolating_fit_on_noiseless_near_duplicates(self):
        # k=2 balls stay inside each cluster of near-identical curves, so
        # the in-sample fit interpolates the noiseless responses
        from funkreg import Curve, true_regression
        from funkreg.simulation import default_grid, generate_curve

        grid = default_grid(51)
        rng = np.random.default_rng(10)
        curves, responses = [], []
        for base in range(8):
            proto = generate_curve(*rng.uniform(0, 1, 3), grid)
            for _ in range(3):
                wiggle = 1e-9 * rng.standard_normal(51)
                curve = Curve(grid, proto.values + wiggle)
                curves.append(curve)
                responses.append(true_regression(curve))
        sample = FunctionalSample(grid, [c.values for c in curves], responses)
        r = residuals(sample, QUADRATIC, DERIV1, k=2)
        np.testing.assert_allclose(r, 0.0, atol=1e-6)

    def test_simulated_sample_residual_moments(self):
        config = SimulationConfig(n_train=100, n_test=5, seed=123)
        train, _ = generate_functional_sample(config)
        r = residuals(train, QUADRATIC, DERIV1, k=8)
        assert abs(np.mean(r)) <= 0.5
        assert 1.0 <= np.var(r, ddof=1) <= 3.0

    def test_exactly_one_bandwidth_rule(self):
        train, _ = small_sample()
        with pytest.raises(ValidationError):
            residuals(train, QUADRATIC, DERIV1)
        with pytest.raises(ValidationError):
            residuals(train, QUADRATIC, DERIV1, h=0.5, k=3)

    def test_global_and_per_point_rules_agree(self):
        train, _ = small_sample(seed=2)
        by_h = residuals(train, QUADRATIC, DERIV1, h=5.0)
        by_vec = residuals(train, QUADRATIC, DERIV1, h_per_point=np.full(len(train), 5.0))
        np.testing.assert_array_equal(by_h, by_vec)


class TestSelectBandwidth:
    def test_single_candidate(self):
        result = WildBootstrapResult(((4, 0.2, 1.0),), 4, 0.2)
        assert select_bandwidth(result) == (4, 0.2)

    def test_argmin(self):
        result = WildBootstrapResult(
            ((2, 0.1, 3.0), (3, 0.2, 1.0), (4, 0.3, 2.0)), 3, 0.2
        )
        assert select_bandwidth(result) == (3, 0.2)

    def test_tie_breaks_toward_smaller_h(self):
        result = WildBootstrapResult(
            ((2, 0.1, 1.0), (3, 0.2, 2.0), (4, 0.3, 1.0)), 2, 0.1
        )
        assert select_bandwidth(result) == (2, 0.1)

    def test_empty_grid(self):
        from funkreg import EmptyGrid

        with pytest.raises(EmptyGrid):
            select_bandwidth(WildBootstrapResult((), 0, 0.0))


class TestBootstrapErrorCurve:
    def test_zero_residuals_give_zero_error_curve(self):
        train, test = small_sample(seed=3)
        flat = FunctionalSample(train.grid, train.values, np.full(len(train), 4.0))
        config = BootstrapConfig(n_replications=1, k_min=2, k_max=6, seed=0)
        result = bootstrap_error_curve(flat, test.curves[:3], QUADRATIC, DERIV1, config)
        for _, _, err in result.per_bandwidth:
            assert err == pytest.approx(0.0, abs=1e-20)

    def test_identical_seeds_bit_identical(self):
        train, test = small_sample(seed=4)
        config = BootstrapConfig(n_replications=20, k_min=2, k_max=8, seed=99)
        r1 = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        r2 = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        assert r1 == r2

    def test_different_seeds_differ(self):
        train, test = small_sample(seed=4)
        c1 = BootstrapConfig(n_replications=20, k_min=2, k_max=8, seed=1)
        c2 = BootstrapConfig(n_replications=20, k_min=2, k_max=8, seed=2)
        r1 = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, c1)
        r2 = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, c2)
        assert r1.per_bandwidth != r2.per_bandwidth

    def test_invariant_to_sample_permutation(self):
        train, test = small_sample(seed=5)
        config = BootstrapConfig(n_replications=25, k_min=2, k_max=8, seed=7)
        base = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        perm = np.random.default_rng(0).permutation(len(train))
        shuffled = FunctionalSample(
            train.grid, train.values[perm], train.responses[perm]
        )
        moved = bootstrap_error_curve(
            shuffled, test.curves, QUADRATIC, DERIV1, config, point_keys=perm
        )
        for (k1, h1, e1), (k2, h2, e2) in zip(base.per_bandwidth, moved.per_bandwidth):
            assert k1 == k2
            assert h2 == pytest.approx(h1, rel=1e-12)
            assert e2 == pytest.approx(e1, rel=1e-12)
        assert moved.selected_k == base.selected_k

    def test_response_scaling_equivariance(self):
        train, test = small_sample(seed=6)
        config = BootstrapConfig(n_replications=25, k_min=2, k_max=8, seed=11)
        base = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        c = 3.0
        scaled_sample = FunctionalSample(
            train.grid, train.values, c * train.responses
        )
        scaled = bootstrap_error_curve(
            scaled_sample, test.curves, QUADRATIC, DERIV1, config
        )
        for (_, _, e1), (_, _, e2) in zip(base.per_bandwidth, scaled.per_bandwidth):
            assert e2 == pytest.approx(c**2 * e1, rel=1e-12)
        assert scaled.selected_k == base.selected_k

    def test_pointwise_equals_single_query_test_set(self):
        train, test = small_sample(seed=8)
        shared = dict(n_replications=10, k_min=2, k_max=6, seed=3)
        pointwise = bootstrap_error_curve(
            train, test.curves, QUADRATIC, DERIV1,
            BootstrapConfig(evaluation="pointwise", query_index=2, **shared),
        )
        single = bootstrap_error_curve(
            train, test.curves[2:3], QUADRATIC, DERIV1,
            BootstrapConfig(**shared),
        )
        assert pointwise == single

    def test_selected_entry_attains_minimum(self):
        train, test = small_sample(seed=9)
        config = BootstrapConfig(
            n_replications=30, k_min=2, k_max=10, seed=5, pilot=FixedPilot(12)
        )
        result = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        errs = [e for _, _, e in result.per_bandwidth]
        sel = [e for k, _, e in result.per_bandwidth if k == result.selected_k]
        assert sel[0] == min(errs)

    def test_pilot_validation(self):
        with pytest.raises(ValidationError):
            BootstrapConfig(pilot=MultiplierPilot(0.5))
        with pytest.raises(ValidationError):
            BootstrapConfig(pilot=FixedPilot(1))
        config = BootstrapConfig(k_min=2, k_max=8, pilot=FixedPilot(50))
        train, test = small_sample(seed=1, n=30)
        with pytest.raises(ValidationError):
            bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)

    @pytest.mark.parametrize("kernel", [QUADRATIC, KernelSpec.uniform()],
                             ids=["quadratic", "uniform"])
    @pytest.mark.parametrize("evaluation", ["test_set", "pointwise"])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_matches_direct_reference(self, kernel, evaluation, permuted):
        train, test = small_sample(seed=12, n=60)
        keys = None
        if permuted:
            keys = np.random.default_rng(3).permutation(len(train))
            train = FunctionalSample(
                train.grid, train.values[keys], train.responses[keys]
            )
        config = BootstrapConfig(
            n_replications=40, k_min=2, k_max=12, seed=21,
            evaluation=evaluation, query_index=3,
        )
        result = bootstrap_error_curve(
            train, test.curves, kernel, DERIV1, config, point_keys=keys
        )
        per_bandwidth, selected_k = reference_error_curve(
            train, test.curves, kernel, DERIV1, config, point_keys=keys
        )
        assert [k for k, _, _ in result.per_bandwidth] == [
            k for k, _, _ in per_bandwidth
        ]
        assert [h for _, h, _ in result.per_bandwidth] == [
            h for _, h, _ in per_bandwidth
        ]
        for (_, _, e1), (_, _, e2) in zip(result.per_bandwidth, per_bandwidth):
            assert e1 == pytest.approx(e2, rel=1e-12)
        assert result.selected_k == selected_k

    def test_query_blocks_agree(self, monkeypatch):
        train, test = small_sample(seed=13)
        config = BootstrapConfig(n_replications=20, k_min=2, k_max=8, seed=4)
        whole = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        # blocks of two queries, the last one short: a query costs about
        # (B + s) K + B s elements, s its largest k_max-ball
        d = distance_matrix(
            transform(curve_matrix(test.curves, train.grid), train.grid, DERIV1),
            transformed_matrix(train, DERIV1), train.grid.trapezoid_weights(),
        )
        s = int((d <= np.sort(d, axis=1)[:, 7:8]).sum(axis=1).max())
        assert len(test) == 5
        monkeypatch.setattr(funkreg.bootstrap, "_BLOCK_ELEMENTS",
                            2 * ((20 + s) * 7 + 20 * s))
        blocked = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1, config)
        for (k1, h1, e1), (k2, h2, e2) in zip(whole.per_bandwidth,
                                              blocked.per_bandwidth):
            assert (k1, h1) == (k2, h2)
            assert e2 == pytest.approx(e1, rel=1e-12)
        assert blocked.selected_k == whole.selected_k

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.integers(0, 12), st.sampled_from([2, 3]),
           st.sampled_from(["quadratic", "uniform"]),
           st.sampled_from(["test_set", "pointwise"]))
    def test_matches_reference_with_duplicated_curves(
            self, seed, n_duplicates, k_min, kernel_name, evaluation):
        # copies tie exactly, inside the k_max-ball and at candidate radii
        train, test = duplicated_sample(seed, 24, n_duplicates)
        kernel = {"quadratic": QUADRATIC, "uniform": KernelSpec.uniform()}[kernel_name]
        config = BootstrapConfig(
            n_replications=20, k_min=k_min, k_max=9, seed=seed,
            evaluation=evaluation, query_index=seed % 5,
        )
        try:
            per_bandwidth, selected_k = reference_error_curve(
                train, test.curves, kernel, DERIV1, config
            )
        except EmptyNeighborhood:  # all k_min nearest tie at the zero edge
            with pytest.raises(EmptyNeighborhood):
                bootstrap_error_curve(train, test.curves, kernel, DERIV1, config)
            return
        result = bootstrap_error_curve(train, test.curves, kernel, DERIV1, config)
        assert_same_error_curve(result, per_bandwidth, selected_k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16), st.integers(0, 12),
           st.sampled_from(["quadratic", "uniform"]))
    def test_permutation_invariance_with_duplicated_curves(
            self, seed, n_duplicates, kernel_name):
        train, test = duplicated_sample(seed, 30, n_duplicates)
        kernel = {"quadratic": QUADRATIC, "uniform": KernelSpec.uniform()}[kernel_name]
        config = BootstrapConfig(n_replications=25, k_min=3, k_max=10, seed=seed)
        base = bootstrap_error_curve(train, test.curves, kernel, DERIV1, config)
        perm = np.random.default_rng(seed + 1).permutation(len(train))
        shuffled = FunctionalSample(
            train.grid, train.values[perm], train.responses[perm]
        )
        moved = bootstrap_error_curve(
            shuffled, test.curves, kernel, DERIV1, config, point_keys=perm
        )
        assert_same_error_curve(moved, base.per_bandwidth, base.selected_k)

    def test_point_keys_must_be_distinct_integers(self):
        train, test = small_sample(seed=3, n=20)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=5, seed=1)
        keys = np.arange(20.0) * 2.0
        integral = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                         config, point_keys=keys)
        assert integral == bootstrap_error_curve(
            train, test.curves, QUADRATIC, DERIV1, config,
            point_keys=keys.astype(int),
        )
        bad = {
            "integers": keys + 0.5,
            "distinct": np.r_[keys[:-1], keys[0]],
            "nonnegative": keys - 1.0,
            "one per point": keys[:-1],
        }
        for message, point_keys in bad.items():
            with pytest.raises(ValidationError, match=message):
                bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                      config, point_keys=point_keys)

    def test_empty_query_neighborhood_names_k_h_and_query(self, monkeypatch):
        # constant curves 1/2 apart: the last query sits halfway between two,
        # so both its k = 2 neighbors lie on the quadratic kernel's zero edge
        grid = default_grid(11)
        levels = np.arange(12) / 2.0
        sample = FunctionalSample(
            grid, np.repeat(levels[:, None], 11, axis=1), levels**2
        )
        queries = [Curve(grid, np.full(11, v)) for v in (0.1, 1.3, 2.25)]
        monkeypatch.setattr(funkreg.bootstrap, "_BLOCK_ELEMENTS", 1)
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(8))
        with pytest.raises(EmptyNeighborhood, match="at query 2 for k = 2, h = "):
            bootstrap_error_curve(sample, queries, QUADRATIC,
                                  SemiMetricSpec(derivative_order=0), config)

    def test_query_off_the_sample_grid_raises(self):
        train, test = small_sample(seed=2)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=6)
        points = train.grid.points
        stretched = Curve(SamplingGrid(5.0 * points), test.curves[1].values)
        shorter = Curve(SamplingGrid(points[:-2]), test.curves[1].values[:-2])
        for query in (stretched, shorter):
            queries = (test.curves[0], query)
            with pytest.raises(GridMismatch, match="curve 1 "):
                bootstrap_error_curve(train, queries, QUADRATIC, DERIV1, config)

    @pytest.mark.parametrize("coefficients", [(0.0, 1.0), (1.0, -2.0)],
                             ids=["increasing", "negative"])
    def test_invalid_kernel_raises(self, coefficients):
        # such a kernel never reaches a fit: building it raises
        with pytest.raises(InvalidKernel):
            KernelSpec.polynomial(coefficients)

    @pytest.mark.parametrize("seed", [5, 2**63 + 5])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_multipliers_are_per_replication_philox_draws(self, seed, permuted):
        keys = np.arange(165)
        if permuted:
            keys = np.random.default_rng(1).permutation(165)
        expected = np.empty((100, 165))
        for b in range(100):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([seed, b], dtype=np.uint64))
            )
            u = gen.random(165)[keys]
            expected[b] = np.where(u < P_LOW, MULTIPLIER_LOW, MULTIPLIER_HIGH)
        np.testing.assert_array_equal(_multiplier_matrix(seed, 100, keys), expected)

    def test_empirical_atom_frequency(self):
        m = _multiplier_matrix(2024, 100, np.arange(10000))
        freq = float(np.mean(m == MULTIPLIER_LOW))
        assert freq == pytest.approx(P_LOW, abs=0.002)
