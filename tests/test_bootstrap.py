"""Tests for the wild residual law and the bootstrap bandwidth selector."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import funkreg.bootstrap
import funkreg.cli
import funkreg.estimator
from funkreg import (
    BootstrapConfig,
    Curve,
    DegenerateGrid,
    DegeneratePilot,
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
    TooFewPoints,
    ValidationError,
    WildBootstrapResult,
    WildResidualLaw,
    bootstrap_error_curve,
    draw_wild_residual,
    generate_functional_sample,
    knn_bandwidths,
    nadaraya_watson,
    residuals,
    save_sample,
    select_bandwidth,
)
from funkreg.bootstrap import (
    MULTIPLIER_HIGH,
    MULTIPLIER_LOW,
    P_LOW,
    _argmin_entry,
    _multiplier_matrix,
    _point_keys,
    insample_fit,
)
from funkreg.curves import (
    curve_matrix,
    distance_matrix,
    sample_distances,
    transform,
)
from funkreg.errors import FunkregError
from funkreg.estimator import knn_radii
from funkreg.kernels import eval_kernel_array
from funkreg.simulation import default_grid

from dense_reference import dense_error_curve, dense_insample_fit

QUADRATIC = KernelSpec.quadratic()
DERIV0 = SemiMetricSpec(derivative_order=0)
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
    trans = transform(sample.values, sample.grid, spec)
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
            radii[j, ki] = h
            w_q = eval_kernel_array(kernel, dist_qs[j] / h)
            total = float(w_q.sum())
            if total <= 0.0:  # drops k for every query
                errors[j, ki] = np.inf
                continue
            base = float(np.dot(w_q, r_tilde)) / total
            deviations = (multipliers @ (w_q * resid)) / total
            errors[j, ki] = np.mean((base + deviations - r_tilde_q[j]) ** 2)
    if np.all(errors.max(axis=0) == np.inf):
        raise EmptyNeighborhood("no positive weight at any k")
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

    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
    def test_bandwidth_must_be_positive_and_finite(self, h):
        train, _ = small_sample()
        with pytest.raises(ValidationError, match="positive and finite"):
            insample_fit(train, QUADRATIC, DERIV1, h=h)

    @pytest.mark.parametrize("count", [2.7, 3.0, float("nan"), True])
    @pytest.mark.parametrize("entry", [
        lambda train, d, c: insample_fit(train, QUADRATIC, DERIV1, k=c),
        lambda train, d, c: residuals(train, QUADRATIC, DERIV1, k=c),
        lambda train, d, c: knn_radii(d, c, 4),
        lambda train, d, c: knn_radii(d, 2, c),
        lambda train, d, c: knn_bandwidths(d, c, 4),
        lambda train, d, c: knn_bandwidths(d, 2, c),
    ], ids=["insample_fit", "residuals", "knn_radii_k_min", "knn_radii_k_max",
            "knn_bandwidths_k_min", "knn_bandwidths_k_max"])
    def test_neighbour_counts_must_be_integers(self, entry, count):
        # 2.7 fitted at k = 2, nan and a float count raised a bare
        # ValueError or TypeError, and True ran as a count of 1
        train, _ = small_sample()
        d = np.linspace(0.1, 1.0, 10)
        with pytest.raises(ValidationError, match="must be an integer"):
            entry(train, d, count)


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

    def test_per_bandwidth_holds_the_column_means(self, monkeypatch):
        # each (k, h, error) triple averages the queries' column of the
        # radii and of the errors, as a[:, j].mean() sums it
        seen = []

        def spy(a):
            seen.append(a.copy())
            return column_means(a)

        column_means = funkreg.bootstrap._column_means
        monkeypatch.setattr(funkreg.bootstrap, "_column_means", spy)
        train, test = small_sample(seed=5)
        config = BootstrapConfig(n_replications=15, k_min=2, k_max=9, seed=7)
        result = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                       config)
        radii, errors = seen
        assert result.per_bandwidth == tuple(
            (k, float(radii[:, j].mean()), float(errors[:, j].mean()))
            for j, k in enumerate(range(2, 10)))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (50, 31), (129, 4),
                                       (200, 5)])
    def test_column_means_are_the_bits_of_each_column(self, shape):
        rng = np.random.default_rng(shape[0])
        a = rng.lognormal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
        a[rng.random(shape) < 0.05] = np.inf
        want = [float(a[:, j].mean()) for j in range(shape[1])]
        assert funkreg.bootstrap._column_means(a) == want

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

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, True])
    def test_seed_must_be_a_philox_key(self, seed):
        # 1.5 used to run silently as seed 1
        with pytest.raises(ValidationError, match="seed"):
            BootstrapConfig(seed=seed)

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
            transform(train.values, train.grid, DERIV1),
            train.grid.trapezoid_weights(),
        )
        sizes = (d <= np.sort(d, axis=1)[:, 7:8]).sum(axis=1)
        assert len(test) == 5 and np.all(sizes == 8)
        for per_chunk in (1, 2):
            # work arrays of one query, then of two with the last one short:
            # the same products, so the same bits
            monkeypatch.setattr(funkreg.bootstrap, "_WORK_ELEMENTS",
                                per_chunk * ((20 + 8) * 7 + 20 * 8))
            assert bootstrap_error_curve(train, test.curves, QUADRATIC,
                                         DERIV1, config) == whole

    @pytest.mark.parametrize("kernel, weighed", [
        (QUADRATIC, lambda k: k - 1),  # K(1) = 0: the k-th neighbor weighs 0
        (KernelSpec.uniform(), lambda k: k),
    ], ids=["quadratic", "uniform"])
    def test_refits_only_the_pairs_a_query_weighs(self, monkeypatch, kernel,
                                                  weighed):
        train, test = small_sample(seed=12, n=60)
        config = BootstrapConfig(n_replications=10, k_min=2, k_max=12, seed=5,
                                 pilot=FixedPilot(6))
        requests = []
        fit = funkreg.estimator.InsampleSmoother.fit

        def recording_fit(self, radii, rows=None):
            if rows is not None:  # not the pilot fit, which fits every row
                requests.extend(zip(self.points[rows].tolist(),
                                    np.asarray(radii).tolist()))
            return fit(self, radii, rows)

        monkeypatch.setattr(funkreg.estimator.InsampleSmoother, "fit",
                            recording_fit)
        bootstrap_error_curve(train, test.curves, kernel, DERIV1, config)
        d = sample_distances(train, DERIV1,
                             curve_matrix(test.curves, train.grid))
        radii = np.sort(d, axis=1)[:, config.k_min - 1:config.k_max]
        query_of = {h: j for j, row in enumerate(radii) for h in row.tolist()}
        assert len(query_of) == radii.size  # no ties: a radius names its query
        weights = eval_kernel_array(kernel, d[:, None, :] / radii[..., None])
        assert len(set(requests)) == len(requests)
        for point, h in requests:
            assert eval_kernel_array(kernel, d[query_of[h], point] / h) > 0.0
        ks = range(config.k_min, config.k_max + 1)
        assert len(requests) == np.count_nonzero(weights > 0.0)
        assert len(requests) == len(test) * sum(map(weighed, ks))

    @pytest.mark.parametrize("k_max", [15, 32])
    def test_query_errors_do_not_depend_on_the_other_queries(self, k_max):
        # a copy of B's k_max-th nearest curve ties with it, so B's
        # k_max-ball holds k_max + 1 points and A's k_max: each query is
        # scored on its own ball, not padded to the larger one
        train, test = small_sample(seed=21, n=80)
        a, b = test.curves[:2]
        d_b = sample_distances(train, DERIV1, curve_matrix([b], train.grid))[0]
        twin = np.argsort(d_b, kind="stable")[k_max - 1]
        sample = FunctionalSample(
            train.grid, np.vstack([train.values, train.values[twin]]),
            np.append(train.responses, train.responses[twin] + 1.0))
        d = sample_distances(sample, DERIV1, curve_matrix([a, b], sample.grid))
        sizes = (d <= np.sort(d, axis=1)[:, k_max - 1:k_max]).sum(axis=1)
        assert sizes.tolist() == [k_max, k_max + 1]
        config = BootstrapConfig(n_replications=30, k_min=2, k_max=k_max,
                                 seed=5, pilot=FixedPilot(16))
        alone = [bootstrap_error_curve(sample, [q], QUADRATIC, DERIV1,
                                       config).per_bandwidth for q in (a, b)]
        both = bootstrap_error_curve(sample, [a, b], QUADRATIC, DERIV1, config)
        for (_, _, e), (_, _, e_a), (_, _, e_b) in zip(both.per_bandwidth,
                                                       *alone):
            assert e == (e_a + e_b) / 2

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

    def test_empty_query_neighborhood_names_k_h_and_query(self):
        # constant curves 1/2 apart: the last query sits halfway between two,
        # so both its k = 2 neighbors lie on the quadratic kernel's zero edge
        grid, sample = self.constant_curves(np.arange(12) / 2.0)
        queries = [Curve(grid, np.full(11, v)) for v in (0.1, 1.3, 2.25)]
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(8))
        # k = 2 is dropped for every query; k = 3 and 4 are scored
        result = bootstrap_error_curve(sample, queries, QUADRATIC, DERIV0,
                                       config)
        assert result.per_bandwidth[0][2] == np.inf
        assert_same_error_curve(result, *reference_error_curve(
            sample, queries, QUADRATIC, DERIV0, config))
        assert result.selected_k in (3, 4)
        # no k left: the run fails, naming the query
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=2,
                                 pilot=FixedPilot(8))
        with pytest.raises(EmptyNeighborhood, match="at query 2 for k = 2, h = "):
            bootstrap_error_curve(sample, queries, QUADRATIC, DERIV0, config)

    def test_empty_query_neighborhood_names_the_lowest_query(self):
        # query 0 sits between 0 and two copies of 1/2: its k = 2 and 3
        # neighbours lie on the zero edge, and query 2's k = 2 ones; query
        # 0's k_max-ball holds 3 points to query 2's 4
        grid, sample = self.constant_curves(
            [0, 0.5, 0.5, 1, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5])
        queries = [Curve(grid, np.full(11, v)) for v in (0.25, 3.3, 2.25)]
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=3,
                                 pilot=FixedPilot(8))
        with pytest.raises(EmptyNeighborhood, match="at query 0 for k = 2, h = "):
            bootstrap_error_curve(sample, queries, QUADRATIC, DERIV0, config)
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(8))
        result = bootstrap_error_curve(sample, queries, QUADRATIC, DERIV0,
                                       config)
        assert [e for _, _, e in result.per_bandwidth[:2]] == [np.inf] * 2
        assert result.selected_k == 4

    @staticmethod
    def constant_curves(levels, n_points=11):
        grid = default_grid(n_points)
        levels = np.asarray(levels, dtype=float)
        return grid, FunctionalSample(
            grid, np.repeat(levels[:, None], n_points, axis=1), levels**2)

    def test_zero_pilot_radius_is_degenerate(self):
        # four copies of one curve, all in the query's k_max-ball: each
        # copy's 3rd neighbour is at 0
        grid, sample = self.constant_curves([0, 0, 0, 0, 1, 2, 3, 4, 5, 6])
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(3))
        with pytest.raises(DegeneratePilot, match="radius is zero"):
            bootstrap_error_curve(sample, [Curve(grid, np.full(11, 0.5))],
                                  QUADRATIC, DERIV0, config)

    def test_pilot_radius_outside_every_ball_is_not_checked(self):
        # the four copies lie outside the query's k_max-ball, so no fit
        # reads their pilot radius of 0, and none is computed
        grid, sample = self.constant_curves([0, 0, 0, 0, 10, 11, 12, 13, 14,
                                             15, 16, 17, 18, 19, 20])
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(3))
        query = [Curve(grid, np.full(11, 15.2))]
        result = bootstrap_error_curve(sample, query, QUADRATIC, DERIV0, config)
        assert [k for k, _, _ in result.per_bandwidth] == [2, 3, 4]
        with pytest.raises(DegeneratePilot):
            dense_error_curve(sample, query, QUADRATIC, DERIV0, config)

    def test_empty_query_pilot_is_degenerate(self):
        # the query's two nearest curves, at +-1, both sit on the quadratic
        # kernel's zero edge of its k_g = 2 pilot radius
        grid, sample = self.constant_curves(
            [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6])
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(2))
        with pytest.raises(DegeneratePilot, match="pilot fit failed"):
            bootstrap_error_curve(sample, [Curve(grid, np.zeros(11))],
                                  QUADRATIC, DERIV0, config)

    def test_k_max_beyond_the_sample(self):
        grid, sample = self.constant_curves(np.arange(10))
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=10,
                                 pilot=FixedPilot(3))
        with pytest.raises(TooFewPoints, match="k_max <= n - 1 with n = 10"):
            bootstrap_error_curve(sample, [Curve(grid, np.full(11, 4.5))],
                                  QUADRATIC, DERIV0, config)

    def test_k_max_is_checked_before_any_distance(self, monkeypatch):
        # a degenerate pilot (all curves equal) would fail later; the k_max
        # check comes first and no distance is computed
        grid, sample = self.constant_curves(np.zeros(10))
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=10,
                                 pilot=FixedPilot(3))

        def no_distances(*args, **kwargs):
            raise AssertionError("distances computed before the k_max check")

        for name in ("query_rows", "neighbour_rows"):
            monkeypatch.setattr(funkreg.bootstrap, name, no_distances)
        with pytest.raises(TooFewPoints, match="k_max <= n - 1 with n = 10"):
            bootstrap_error_curve(sample, [Curve(grid, np.zeros(11))],
                                  QUADRATIC, DERIV0, config)

    def test_zero_candidate_radius_is_degenerate(self):
        # the query equals two sample curves, so its k = 2 radius is 0
        grid, sample = self.constant_curves([0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
        config = BootstrapConfig(n_replications=3, k_min=2, k_max=4,
                                 pilot=FixedPilot(4))
        with pytest.raises(DegenerateGrid, match="strictly positive"):
            bootstrap_error_curve(sample, [Curve(grid, np.zeros(11))],
                                  QUADRATIC, DERIV0, config)

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

    def test_multipliers_at_sparse_keys_are_the_full_draw(self):
        # the uniforms were drawn up to the largest key: 8 MB a replication
        # for a key of 10^6
        keys = np.array([13, 0, 10**6, 5, 4, 3, 1, 8, 700, 10**6 - 1])
        expected = np.empty((6, keys.size))
        for b in range(6):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([11, b], dtype=np.uint64))
            )
            u = gen.random(10**6 + 1)[keys]
            expected[b] = np.where(u < P_LOW, MULTIPLIER_LOW, MULTIPLIER_HIGH)
        np.testing.assert_array_equal(_multiplier_matrix(11, 6, keys), expected)

    def test_huge_point_keys(self):
        train, test = small_sample(seed=3, n=20)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=5, seed=1)
        keys = np.arange(20) * 10**11
        result = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                       config, point_keys=keys)
        perm = np.random.default_rng(2).permutation(20)
        shuffled = FunctionalSample(train.grid, train.values[perm],
                                    train.responses[perm])
        moved = bootstrap_error_curve(shuffled, test.curves, QUADRATIC, DERIV1,
                                      config, point_keys=keys[perm])
        assert_same_error_curve(moved, result.per_bandwidth, result.selected_k)

    @pytest.mark.parametrize("keys", [
        np.arange(20) * 10**11,
        np.r_[2**63 - 1, np.arange(19) * 10**17 + 3],
    ], ids=["spaced", "up_to_2_63"])
    def test_keys_index_the_streams_by_rank(self, keys):
        train, test = small_sample(seed=3, n=20)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=5, seed=1)
        keys = np.random.default_rng(4).permutation(keys)
        ranks = np.argsort(np.argsort(keys))
        by_key = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                       config, point_keys=keys)
        by_rank = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                        config, point_keys=ranks)
        assert by_key.per_bandwidth == by_rank.per_bandwidth
        assert by_key == by_rank

    def test_huge_keys_in_bounded_memory(self):
        # drawing a stream up to a key of 10^12 would take 8 TB
        train, test = small_sample(seed=3, n=20)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=5, seed=1)
        want = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                     config)
        keys = np.arange(1, 21) * (10**12 // 20)
        tracemalloc.start()
        try:
            got = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                        config, point_keys=keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got == want

    def test_empirical_atom_frequency(self):
        m = _multiplier_matrix(2024, 100, np.arange(10000))
        freq = float(np.mean(m == MULTIPLIER_LOW))
        assert freq == pytest.approx(P_LOW, abs=0.002)

    def test_multipliers_read_the_philox_counter(self):
        # positions on both sides of a four-draw block boundary
        positions = np.array([7, 0, 4, 3, 9, 8, 1])
        u = np.array([[philox_draw(6, b, int(p)) for p in positions]
                      for b in range(3)])
        np.testing.assert_array_equal(
            _multiplier_matrix(6, 3, positions),
            np.where(u < P_LOW, MULTIPLIER_LOW, MULTIPLIER_HIGH))


def philox_draw(seed, b, position):
    """Draw `position` of stream (seed, b) read straight off the Philox
    counter: block position // 4, 64-bit word position % 4, top 53 bits."""
    block = np.random.Philox(key=np.array([seed, b], dtype=np.uint64),
                             counter=[position // 4, 0, 0, 0])
    return float(block.random_raw(4)[position % 4] >> np.uint64(11)) * 2.0**-53


class TestPointKeys:
    """Each point's stream position is its key's rank among the n keys."""

    def test_no_keys_are_the_indices(self):
        np.testing.assert_array_equal(_point_keys(None, 6), np.arange(6))

    @pytest.mark.parametrize("keys, ranks", [
        (np.random.default_rng(8).permutation(7), None),
        ([10**12, 0, 10**9 + 3], [2, 0, 1]),
        ([4.0, 2.0, 9.0], [1, 0, 2]),
        ([2**63 - 1, 5, 7], [2, 0, 1]),
        (np.array([2**64 - 1, 0, 2**63], dtype=np.uint64), [2, 0, 1]),
    ], ids=["permutation", "spaced", "whole_floats", "int64_max",
            "uint64_above_2_63"])
    def test_ranks(self, keys, ranks):
        # a permutation of 0..n-1 is its own ranks
        want = keys if ranks is None else ranks
        np.testing.assert_array_equal(_point_keys(keys, len(keys)), want)

    @pytest.mark.parametrize("keys, message", [
        ([3, -1, 2], "must be nonnegative"),
        ([0.0, np.nan, 2.0], "must be integers"),
        ([0.0, np.inf, 2.0], "must be integers"),
        ([0.0, 2.0**63, 1.0], "must be integers"),
        (np.array([True, False, True]), "must hold 3 integer keys"),
        (np.arange(3).reshape(3, 1), "must hold 3 integer keys"),
    ], ids=["negative", "nan", "inf", "float_2_63", "bool", "column"])
    def test_bad_keys_raise(self, keys, message):
        with pytest.raises(ValidationError, match=f"point_keys {message}"):
            _point_keys(keys, 3)


@st.composite
def bootstrap_cases(draw):
    """A sample and queries built to stress the screened in-sample path:
    exact duplicates and near-duplicates 1e-9 apart (ties at every
    radius), twins shifted by a constant (distance about 1e-14 under a
    derivative), queries that repeat or shift a sample curve, orders 0-2,
    windows None or 5, either pilot rule and either evaluation."""
    p = draw(st.integers(7, 25))
    n = draw(st.integers(8, 40))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(0.01, 1.0, p - 1)
    grid = SamplingGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    values = rng.normal(size=(n + m, p))
    for row in range(1, n + m):
        kind = draw(st.sampled_from(["fresh", "fresh", "near", "duplicate",
                                     "shifted"]))
        source = values[draw(st.integers(0, min(row, n) - 1))]
        if kind == "near":
            values[row] = source + 1e-9 * rng.normal(size=p)
        elif kind == "duplicate":
            values[row] = source
        elif kind == "shifted":
            values[row] = source + rng.normal()
    spec = SemiMetricSpec(draw(st.sampled_from([0, 1, 2])),
                          draw(st.sampled_from([None, 5])))
    sample = FunctionalSample(grid, values[:n], rng.normal(size=n))
    queries = [Curve(grid, row) for row in values[n:]]
    k_max = draw(st.integers(2, n - 1))
    pilot = draw(st.one_of(
        st.integers(2, n - 1).map(FixedPilot),
        st.floats(1.1, 3.0).map(MultiplierPilot)))
    config = BootstrapConfig(
        n_replications=draw(st.integers(1, 12)),
        k_min=draw(st.integers(2, k_max)), k_max=k_max,
        seed=draw(st.integers(0, 2**64 - 1)), pilot=pilot,
        evaluation=draw(st.sampled_from(["test_set", "pointwise"])),
        query_index=draw(st.integers(0, m - 1)))
    kernel = draw(st.sampled_from([QUADRATIC, KernelSpec.uniform(),
                                   KernelSpec.triangle()]))
    return sample, queries, kernel, spec, config


class TestDenseReference:
    """The screened rows of the sample points the queries reach against
    the sorted full (n, n) matrix."""

    @settings(max_examples=150, deadline=None)
    @given(bootstrap_cases(), st.sampled_from([1, 1 << 9, 1 << 16]))
    def test_error_curve_keeps_the_bits_of_the_full_matrix(self, case, work):
        sample, queries, kernel, spec, config = case
        with pytest.MonkeyPatch.context() as patch:
            # work arrays of one query a time up to all the queries whose
            # balls hold the same number of points, against the reference's
            # one query a time
            patch.setattr(funkreg.bootstrap, "_WORK_ELEMENTS", work)
            try:
                want, want_k = dense_error_curve(sample, queries, kernel, spec,
                                                 config)
            except FunkregError:
                assume(False)  # the full-matrix rules reject the input
            result = bootstrap_error_curve(sample, queries, kernel, spec, config)
        assert result.per_bandwidth == want
        assert result.selected_k == want_k

    @settings(max_examples=100, deadline=None)
    @given(bootstrap_cases(), st.sampled_from([1, 1 << 6, 1 << 9, 1 << 20]),
           st.data())
    def test_insample_fit_keeps_the_bits_of_the_full_matrix(self, case, prefix,
                                                            data):
        sample, _, kernel, spec, _ = case
        n = len(sample)
        full = sample_distances(sample, spec, sample.values)
        rule = data.draw(st.one_of(
            st.integers(1, n - 1).map(lambda k: {"k": k}),
            st.sampled_from(sorted(set(full[full > 0.0].tolist())) or [1.0])
            .map(lambda h: {"h": h}),
            st.floats(1e-3, 10.0).map(lambda h: {"h": h})))
        try:
            want = dense_insample_fit(sample, kernel, spec, **rule)
        except FunkregError:
            assume(False)  # a zero kNN radius
        with pytest.MonkeyPatch.context() as patch:
            # prefix sums of one row a time, a few rows a time (rows hold
            # up to 40 distances) or every row at once
            patch.setattr(funkreg.estimator, "_PREFIX_ELEMENTS", prefix)
            got = insample_fit(sample, kernel, spec, **rule)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(bootstrap_cases(), st.data())
    def test_radii_off_the_cut_follow_the_dense_rule(self, case, data):
        # the dense rule: sort the point's full row, drop one leading exact
        # zero (its own distance or a twin's) and take the k-th entry
        sample, queries, kernel, spec, config = case
        n = len(sample)
        dense = np.sort(sample_distances(sample, spec, sample.values),
                        axis=1)[:, 1:]
        k = data.draw(st.integers(1, n - 1))
        if np.all(dense[:, k - 1] > 0.0):
            radii = insample_fit(sample, kernel, spec, k=k)[2]
            assert radii.tobytes() == dense[:, k - 1].tobytes()
        else:  # a twin at the k-th place
            with pytest.raises(ValidationError,
                               match="bandwidth must be positive and finite"):
                insample_fit(sample, kernel, spec, k=k)
        pilots = []
        fit = funkreg.estimator.InsampleSmoother.fit

        def recording_fit(self, radii, rows=None):
            if rows is None:  # the pilot fit, at every point of U
                pilots.append((self.points, np.asarray(radii)))
            return fit(self, radii, rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(funkreg.estimator.InsampleSmoother, "fit",
                          recording_fit)
            try:
                bootstrap_error_curve(sample, queries, kernel, spec, config)
            except DegeneratePilot:
                # a zero pilot radius at a point of U or a query stops the
                # run before the pilot fit
                assume(pilots)
            except FunkregError:
                pass
        points, radii = pilots[0]
        want = dense[points, config.pilot_k(n) - 1]
        assert radii.tobytes() == want.tobytes()

    def test_one_transform_of_the_queries_and_the_sample(self, monkeypatch):
        train, test = small_sample(seed=4, n=30)
        calls = []
        transform_ = funkreg.curves.transform

        def spy(values, grid, spec):
            calls.append(np.shape(values))
            return transform_(values, grid, spec)

        monkeypatch.setattr(funkreg.curves, "transform", spy)
        config = BootstrapConfig(n_replications=5, k_min=2, k_max=8,
                                 pilot=FixedPilot(6))
        p = len(train.grid)
        first = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                      config)
        assert calls == [(30, p), (len(test), p)]
        # a second select on the same sample and spec transforms only its
        # queries, and reads the same bits
        second = bootstrap_error_curve(train, test.curves, QUADRATIC, DERIV1,
                                       config)
        assert calls == [(30, p), (len(test), p), (len(test), p)]
        assert second.per_bandwidth == first.per_bandwidth

    def test_select_at_ten_thousand_curves_stays_under_a_gigabyte(self):
        train, test = generate_functional_sample(SimulationConfig(
            n_train=10_000, n_test=50, grid_size=101, seed=8))
        config = BootstrapConfig(n_replications=100, k_min=2, k_max=32,
                                 seed=3, pilot=FixedPilot(16))
        tracemalloc.start()
        try:
            result = bootstrap_error_curve(train, test.curves, QUADRATIC,
                                           DERIV1, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 <= result.selected_k <= 32
        # the (n, n) matrix alone would be 800 MB, and its sort and prefix
        # sums several times that
        assert peak < 1 << 30
        assert peak < 100 * 2**20

    def test_ci_at_ten_thousand_queries_and_curves_stays_small(self, tmp_path):
        # ci's steps as the command runs them, from its files: the (m, n)
        # query block alone would be 800 MB
        train, test = generate_functional_sample(SimulationConfig(
            n_train=10_000, n_test=10_000, grid_size=101, seed=9))
        save_sample(train, tmp_path / "train.csv")
        save_sample(test, tmp_path / "test.csv")
        out = tmp_path / "ci.tsv"
        tracemalloc.start()
        try:
            code = funkreg.cli.main([
                "ci", "--train", str(tmp_path / "train.csv"),
                "--test", str(tmp_path / "test.csv"), "--k", "20",
                "--deriv-order", "1", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        neighbours = np.loadtxt(out, delimiter="\t", skiprows=1, usecols=3)
        assert neighbours.shape == (10_000,) and np.all(neighbours >= 20)
        assert peak < 100 * 2**20
