"""Tests for the kernel estimator, empirical small-ball tools, and intervals."""

import dataclasses
import math
import re
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import norm

from funkreg import (
    BandwidthGrid,
    DegenerateBall,
    DegenerateConstants,
    DegenerateGrid,
    DomainError,
    EmptyNeighborhood,
    InsampleSmoother,
    InvalidKernel,
    KernelConstants,
    KernelNotH2Strict,
    KernelSpec,
    MissingSigma2,
    ScalarDesignConfig,
    Tau0Model,
    TooFewPoints,
    ValidationError,
    confidence_interval,
    empirical_sdf,
    empirical_tau,
    estimate_phi_prime,
    estimate_sigma2,
    knn_bandwidths,
    nadaraya_watson,
    theoretical_bias_variance,
)
from funkreg.bootstrap import insample_fit
from funkreg.curves import (
    FunctionalSample,
    NeighbourRows,
    SamplingGrid,
    SemiMetricSpec,
    distance_matrix,
    query_rows,
    sample_distances,
)
from funkreg.estimator import (
    _powers,
    interval_half_widths,
    knn_radii,
    nadaraya_watson_batch,
    nadaraya_watson_rows,
)
from funkreg.kernels import eval_kernel_array

from dense_reference import DenseSmoother, neighbours_from_dense
from test_kernels import polynomial_kernels

UNIFORM = KernelSpec.uniform()
QUADRATIC = KernelSpec.quadratic()
Z_975 = 1.959963984540054
Y3 = np.array([1.0, 2.0, 4.0])


class TestKnnBandwidths:
    def test_order_statistic(self):
        grid = knn_bandwidths([0.4, 0.1, 0.3, 0.2], 3, 3)
        assert grid.entries == ((3, 0.3),)

    def test_ties_produce_equal_radii(self):
        grid = knn_bandwidths([0.5, 0.5, 0.5, 0.5], 2, 3)
        assert grid.hs == (0.5, 0.5)

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(42)
        distances = rng.random(100)
        grid = knn_bandwidths(distances, 2, 32)
        ordered = np.sort(distances)
        assert len(grid) == 31
        for k, h in grid.entries:
            assert h == ordered[k - 1]
        assert all(h2 >= h1 for h1, h2 in zip(grid.hs, grid.hs[1:]))

    def test_preconditions(self):
        with pytest.raises(TooFewPoints):
            knn_bandwidths([0.1, 0.2, 0.3], 2, 3)  # k_max > n - 1
        with pytest.raises(TooFewPoints):
            knn_bandwidths([0.1, 0.2, 0.3], 1, 2)

    def test_nan_distances_raise(self):
        # NaN sorts last, so the grid read (0.2, nan) off a row of three
        with pytest.raises(ValidationError, match="NaN"):
            knn_bandwidths([np.nan, np.nan, np.nan, 0.1, 0.2], 2, 3)
        with pytest.raises(ValidationError, match="NaN"):
            knn_radii(np.array([[0.1, 0.2], [0.3, np.nan]]), 1, 1)

    def test_grid_rejects_nan_bandwidths(self):
        for entries in (((2, np.nan), (3, np.nan)), ((2, 0.1), (3, np.nan)),
                        ((2, np.nan), (3, 0.1))):
            with pytest.raises(ValidationError,
                               match="^bandwidth must be positive and finite, got nan$"):
                BandwidthGrid(entries)
        for entries in (((2, 0.0), (3, 0.1)), ((2, -1.0),)):
            with pytest.raises(DegenerateGrid, match="strictly positive"):
                BandwidthGrid(entries)


class TestNadarayaWatson:
    def test_single_point_in_ball(self):
        result = nadaraya_watson([0.05, 0.9], [3.0, 100.0], UNIFORM, 0.1)
        assert result.prediction == 3.0
        assert result.neighbor_count == 1

    def test_constant_responses(self):
        d = np.linspace(0.01, 0.5, 9)
        result = nadaraya_watson(d, np.full(9, 2.5), QUADRATIC, 0.4)
        assert result.prediction == pytest.approx(2.5, rel=1e-14)

    def test_uniform_kernel_example(self):
        result = nadaraya_watson([0.1, 0.2, 0.4], [1.0, 2.0, 5.0], UNIFORM, 0.3)
        assert result.prediction == pytest.approx(1.5)
        assert result.neighbor_count == 2
        assert result.f_hat_empirical == pytest.approx(2.0 / 3.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        d = rng.random(50)
        y = rng.normal(size=50)
        result = nadaraya_watson(d, y, QUADRATIC, 0.6)
        assert result.prediction == pytest.approx(
            result.g_hat / result.f_hat, rel=1e-12
        )
        assert result.neighbor_count == round(50 * result.f_hat_empirical)

    def test_empty_neighborhood(self):
        with pytest.raises(EmptyNeighborhood):
            nadaraya_watson([0.5, 0.7], [1.0, 2.0], UNIFORM, 0.1)

    def test_boundary_only_point_with_quadratic_kernel(self):
        # the point at exactly h gets weight K(1) = 0
        with pytest.raises(EmptyNeighborhood):
            nadaraya_watson([0.3], [1.0], QUADRATIC, 0.3)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(1)
        d = rng.random(30)
        y = rng.normal(size=30)
        base = nadaraya_watson(d, y, UNIFORM, 0.5).prediction
        scaled = nadaraya_watson(d, y, KernelSpec.polynomial((3.7,)), 0.5).prediction
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_prediction_bounded_by_responses(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = rng.random(20)
            y = rng.normal(size=20)
            result = nadaraya_watson(d, y, QUADRATIC, float(rng.uniform(0.3, 1.5)))
            assert y.min() - 1e-12 <= result.prediction <= y.max() + 1e-12

    def test_locality(self):
        d = np.array([0.05, 0.1, 0.9])
        y = np.array([1.0, 2.0, 3.0])
        h = 0.2
        base = nadaraya_watson(d, y, QUADRATIC, h).prediction
        y_far = y.copy()
        y_far[2] = 1e6
        assert nadaraya_watson(d, y_far, QUADRATIC, h).prediction == base

    @pytest.mark.parametrize("fit", [nadaraya_watson, estimate_sigma2])
    def test_one_query_takes_n_distances_and_n_responses(self, fit):
        # a (2, 3) block fitted as one query of 6; (3, 2) responses to
        # (6,) distances fitted by size alone
        d = np.linspace(0.1, 0.6, 6)
        y = np.arange(6.0)
        for distances, responses, match in (
                (d.reshape(2, 3), y.reshape(2, 3), "distances"),
                (d, y.reshape(3, 2), "responses"),
                (d, y[:5], "responses")):
            with pytest.raises(ValidationError, match=match):
                fit(distances, responses, UNIFORM, 2.0)


SMOOTHER_KERNELS = {
    "uniform": UNIFORM,
    "quadratic": QUADRATIC,
    "triangle": KernelSpec.triangle(),
    "cubic": KernelSpec.polynomial((1.0, -3.0, 3.0, -1.0)),  # (1 - u)^3
}


@st.composite
def insample_distances(draw):
    """Square distance matrices with exact-zero diagonals.

    Entries on a 1/8 lattice tie often and can be exactly zero off the
    diagonal (duplicate curves); the rest are arbitrary floats.
    """
    n = draw(st.integers(3, 16))
    lattice = st.integers(0, 24).map(lambda i: i / 8.0)
    anywhere = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    entries = draw(st.lists(st.one_of(lattice, anywhere),
                            min_size=n * n, max_size=n * n))
    d = np.array(entries).reshape(n, n)
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def smoother_cases(draw):
    d = draw(insample_distances())
    n = d.shape[0]
    y = np.array(draw(st.lists(
        st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n
    )))
    mode = draw(st.sampled_from(["global", "per_row", "knn"]))
    # a radius is either one of the distances or an arbitrary value
    radius = st.one_of(
        st.sampled_from(sorted(set(d[d > 0.0].tolist())) or [1.0]),
        st.floats(1e-3, 5.0),
    )
    if mode == "global":
        radii = np.full((n, 1), draw(radius))
    elif mode == "per_row":
        radii = np.array(draw(st.lists(radius, min_size=2 * n, max_size=2 * n))
                         ).reshape(n, 2)
    else:
        radii = None
    return d, y, mode, radii, draw(st.integers(1, n - 1))


def fit_grid(smoother, radii, rows):
    """A smoother's predictions and counts at an (len(rows), m) grid of
    radii: row r is fitted at each of its m radii as m repeats of
    ``rows[r]``, one radius each, and the results are laid out as the
    grid."""
    preds, counts = smoother.fit(radii.ravel(),
                                 np.repeat(rows, radii.shape[1]))
    return preds.reshape(radii.shape), counts.reshape(radii.shape)


class TestInsampleSmoother:
    @settings(max_examples=150, deadline=None)
    @given(smoother_cases(), st.sampled_from(sorted(SMOOTHER_KERNELS)))
    def test_matches_per_row_nadaraya_watson(self, case, kernel_name):
        d, y, mode, radii, k = case
        kernel = SMOOTHER_KERNELS[kernel_name]
        smoother = InsampleSmoother(neighbours_from_dense(d), y, kernel)
        if mode == "knn":
            # the dense rule: sort, drop one leading exact zero, take the k-th
            radii = np.sort(d, axis=1)[:, k][:, None]
            if np.any(radii <= 0.0):  # duplicate curves at k
                with pytest.raises(ValidationError):
                    smoother.fit(radii[:, 0])
                return
        try:
            preds, counts = fit_grid(smoother, radii, np.arange(len(d)))
        except ValidationError:
            # radii far below the sample's scale are out of the smoother's range
            assert np.any(radii < 1e-100 * d.max())
            return
        tol = 1e-12 * max(np.max(np.abs(y)), np.finfo(float).tiny)
        for i in range(len(d)):
            for col, h in enumerate(radii[i]):
                ref = nadaraya_watson(d[i], y, kernel, h)
                assert counts[i, col] == ref.neighbor_count
                assert abs(preds[i, col] - ref.prediction) <= tol

    @settings(max_examples=100, deadline=None)
    @given(insample_distances(), st.sampled_from(sorted(SMOOTHER_KERNELS)),
           st.data())
    def test_fit_at_points_equals_full_row_fit(self, d, kernel_name, data):
        n = len(d)
        y = np.array(data.draw(st.lists(
            st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n
        )))
        smoother = InsampleSmoother(neighbours_from_dense(d), y,
                                    SMOOTHER_KERNELS[kernel_name])
        # radii equal to distances (ties at the kernel's edge) or arbitrary
        usable = d[(d > 0.0) & (d >= smoother.min_radius)]
        radius = st.one_of(
            st.sampled_from(sorted(set(usable.tolist())) or [1.0]),
            st.floats(1e-3, 5.0),
        )
        radii = np.array(data.draw(st.lists(
            radius, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
        points = np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        preds, counts = fit_grid(smoother, radii, np.arange(n))
        at_points, counts_at_points = fit_grid(smoother, radii[points], points)
        np.testing.assert_array_equal(at_points, preds[points])
        np.testing.assert_array_equal(counts_at_points, counts[points])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 30), st.data())
    def test_distance_matrix_has_exact_zero_diagonal(self, n, p, data):
        values = st.floats(-1e6, 1e6, allow_nan=False)
        t = np.array(data.draw(st.lists(values, min_size=n * p,
                                        max_size=n * p))).reshape(n, p)
        t[-1] = t[0]  # a duplicate curve
        w = np.array(data.draw(st.lists(st.floats(0.0, 10.0),
                                        min_size=p, max_size=p)))
        d = distance_matrix(t, t, w)
        assert np.all(np.diagonal(d) == 0.0)
        assert d[0, -1] == 0.0 and d[-1, 0] == 0.0

    def test_rejects_bad_inputs(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0])
        rows = neighbours_from_dense(d)
        with pytest.raises(ValidationError):
            # nonzero diagonal
            InsampleSmoother(neighbours_from_dense(d + 0.5), y, UNIFORM)
        with pytest.raises(ValidationError):
            InsampleSmoother(rows, np.ones(3), UNIFORM)
        with pytest.raises(InvalidKernel):
            InsampleSmoother(rows, y, KernelSpec.polynomial((0.0, 1.0)))
        smoother = InsampleSmoother(rows, y, UNIFORM)
        with pytest.raises(ValidationError, match="must be positive and finite"):
            smoother.fit(np.zeros(2))
        with pytest.raises(ValidationError, match="must lie in"):
            smoother.fit(np.ones(1), rows=[2])
        with pytest.raises(ValidationError, match="one radius per fitted row"):
            smoother.fit(np.ones(2), rows=[1])

    def test_rejects_a_grid_of_radii(self):
        # one radius per fitted row: several radii at a row are repeats of
        # the row, not a second axis
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        smoother = InsampleSmoother(neighbours_from_dense(d), [1.0, 2.0],
                                    UNIFORM)
        for radii, rows in ((np.ones((2, 1)), None), (np.ones((2, 3)), None),
                            (np.ones((1, 1)), [1]), (np.ones(3), [[0, 1, 1]]),
                            (1.0, None)):
            with pytest.raises(ValidationError, match="one radius per fitted row"):
                smoother.fit(radii, rows)
        preds, counts = smoother.fit([1.0, 0.5, 1.0], [1, 1, 0])
        assert preds.tolist() == [1.5, 2.0, 1.5]
        assert counts.tolist() == [2, 1, 2]

    def test_zero_kernel_names_the_point(self):
        # KernelSpec rejects K(0) <= 0, so a zero kernel is built past its
        # check to reach the smoother's own guard
        zero = object.__new__(KernelSpec)
        object.__setattr__(zero, "family", "polynomial")
        object.__setattr__(zero, "coefficients", (0.0,))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        smoother = InsampleSmoother(neighbours_from_dense(d), [1.0, 2.0], zero)
        with pytest.raises(EmptyNeighborhood, match="sample point 0"):
            smoother.fit(np.ones(2))
        with pytest.raises(EmptyNeighborhood, match="sample point 1"):
            smoother.fit(np.ones(1), rows=[1])


@st.composite
def cut_row_cases(draw):
    """A square matrix, responses, each row's held radius (one of its own
    positive distances, or the whole row) and fitted rows with radii up to their
    row's held radius: one of its held distances (ties at the kernel's
    edge) or an arbitrary value."""
    d = draw(insample_distances())
    n = d.shape[0]
    y = np.array(draw(st.lists(
        st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n
    )))
    held = np.array([draw(st.sampled_from(sorted(set(row[row > 0].tolist()))
                                          + [np.inf]))
                     for row in d])
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=2 * n)))
    radii = np.empty((rows.size, 3))
    for r, i in enumerate(rows):
        inside = d[i][(d[i] > 0.0) & (d[i] <= held[i])]
        top = min(5.0, held[i])
        radius = st.floats(min(1e-3, top / 2), top)
        if inside.size:
            radius = st.one_of(st.sampled_from(sorted(set(inside.tolist()))),
                               radius)
        radii[r] = draw(st.lists(radius, min_size=3, max_size=3))
    return d, y, held, rows, radii


class TestCutRows:
    """The smoother on rows cut at a held radius against the full rows."""

    @settings(max_examples=150, deadline=None)
    @given(cut_row_cases(), st.sampled_from(sorted(SMOOTHER_KERNELS)))
    def test_fits_keep_the_bits_of_the_full_rows(self, case, kernel_name):
        d, y, held, rows, radii = case
        kernel = SMOOTHER_KERNELS[kernel_name]
        assume(np.all(radii > 0.0))  # half a subnormal held radius is 0
        cut = InsampleSmoother(neighbours_from_dense(d, held), y, kernel)
        full = InsampleSmoother(neighbours_from_dense(d), y, kernel)
        assume(np.all(radii >= max(cut.min_radius, full.min_radius)))
        preds, counts = fit_grid(cut, radii, rows)
        # a kernel of degree 3 or more takes its powers by repeated
        # products, which no power-of-two ``_unit`` can change
        want, want_counts = fit_grid(full, radii, rows)
        assert preds.tobytes() == want.tobytes()
        np.testing.assert_array_equal(counts, want_counts)
        if kernel_name != "cubic":
            # degree <= 2: the bits of the dense square-matrix smoother
            want, want_counts = fit_grid(DenseSmoother(d, y, kernel), radii,
                                         rows)
            assert preds.tobytes() == want.tobytes()
            np.testing.assert_array_equal(counts, want_counts)

    @settings(max_examples=100, deadline=None)
    @given(cut_row_cases())
    def test_counts_equal_the_per_row_search(self, case):
        d, y, held, rows, radii = case
        assume(np.all(radii > 0.0))
        cut = neighbours_from_dense(d, held)
        _, counts = fit_grid(InsampleSmoother(cut, y, UNIFORM), radii, rows)
        # the reference: one searchsorted per fitted row
        expected = np.empty(radii.shape, dtype=np.intp)
        for r, i in enumerate(rows):
            row = cut.distances[cut.offsets[i]:cut.offsets[i + 1]]
            expected[r] = row.searchsorted(radii[r], side="right")
        np.testing.assert_array_equal(counts, expected)

    @settings(max_examples=100, deadline=None)
    @given(cut_row_cases(), st.sampled_from(sorted(SMOOTHER_KERNELS)),
           st.data())
    def test_infinite_entries_are_never_read(self, case, kernel_name, data):
        # distances between curves whose differences overflow are +inf: rows
        # holding them, with held radius inf, fit at finite radii with the
        # bits of the same rows without them, and with no RuntimeWarning
        d, y, _, rows, radii = case
        n = len(d)
        far = np.array(data.draw(st.lists(st.booleans(), min_size=n * n,
                                          max_size=n * n))).reshape(n, n)
        np.fill_diagonal(far, False)
        d = np.where(far, np.inf, d)
        kernel = SMOOTHER_KERNELS[kernel_name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            held = InsampleSmoother(neighbours_from_dense(d), y, kernel)
            finite = InsampleSmoother(
                neighbours_from_dense(d, np.full(n, np.finfo(float).max)),
                y, kernel)
            assert held._unit == finite._unit
            assume(np.all(radii > 0.0) and np.all(radii >= held.min_radius))
            preds, counts = fit_grid(held, radii, rows)
        want, want_counts = fit_grid(finite, radii, rows)
        assert preds.tobytes() == want.tobytes()
        np.testing.assert_array_equal(counts, want_counts)

    def test_a_radius_beyond_the_held_one_is_rejected(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        smoother = InsampleSmoother(neighbours_from_dense(d, [1.0, 3.0, 3.0]),
                                    np.ones(3), QUADRATIC)
        smoother.fit(np.array([1.0, 2.5]), rows=[0, 1])
        with pytest.raises(ValidationError, match="above its held radius"):
            smoother.fit(np.array([1.5]), rows=[0])

    def test_unit_and_min_radius_follow_the_largest_held_distance(self):
        d = np.array([[0.0, 0.75, 3.0], [0.75, 0.0, 2.0], [3.0, 2.0, 0.0]])
        y = np.ones(3)
        full = InsampleSmoother(neighbours_from_dense(d), y, QUADRATIC)
        cut = InsampleSmoother(neighbours_from_dense(d, [0.75, 0.75, 0.0]),
                               y, QUADRATIC)
        # the scale brings the largest held distance into [0.5, 1)
        assert full._unit == 0.25 and cut._unit == 1.0
        # min_radius = sqrt(n * tiny) / unit for a quadratic kernel, so it
        # falls with the largest held distance
        root = np.sqrt(3 * np.finfo(float).tiny)
        assert full.min_radius == root / 0.25
        assert cut.min_radius == root
        assert InsampleSmoother(neighbours_from_dense(d), y,
                                UNIFORM).min_radius == 0.0

    def test_a_subnormal_largest_distance_is_scaled_without_overflow(self):
        # its scale would be 2^1025, past the largest double; that raised
        # an overflow warning (an error under the suite's filters)
        tiny = 0.8 * 2.0**-1025
        d = np.array([[0.0, tiny], [tiny, 0.0]])
        smoother = InsampleSmoother(neighbours_from_dense(d), np.ones(2),
                                    UNIFORM)
        assert smoother._unit == 2.0**1023
        _, counts = smoother.fit(np.array([tiny]), rows=[0])
        assert counts.tolist() == [2]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(2.0**-40, 2.0**40), min_size=1, max_size=20),
           st.integers(-40, 40))
    def test_powers_are_exact_under_scaling(self, values, shift):
        # every power stays in the normal range, where scaling is exact
        x = np.array(values)
        for p in (0, 1, 2):
            assert _powers(x, p).tobytes() == (x ** p).tobytes()
        for p in (3, 4, 5):
            scaled = _powers(np.ldexp(x, shift), p)
            assert scaled.tobytes() == np.ldexp(_powers(x, p), shift * p).tobytes()


class TestEmpiricalSdf:
    def test_counting(self):
        assert empirical_sdf([0.1, 0.2, 0.3, 0.5], 0.25) == 0.5

    def test_extremes(self):
        d = [0.2, 0.4, 0.6]
        assert empirical_sdf(d, 0.1) == 0.0
        assert empirical_sdf(d, 0.6) == 1.0

    def test_right_continuous_step(self):
        d = [0.2, 0.4]
        assert empirical_sdf(d, 0.2) == 0.5  # closed ball
        assert empirical_sdf(d, 0.2 - 1e-12) == 0.0

    def test_nondecreasing_in_h(self):
        rng = np.random.default_rng(3)
        d = rng.random(40)
        values = [empirical_sdf(d, h) for h in np.linspace(0, 1.2, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6) | st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=1, max_size=30),
           st.floats(0.0, 2e6), st.floats(0.0, 2e6))
    def test_monotone_in_h_property(self, d, h1, h2):
        lo, hi = sorted((h1, h2))
        assert empirical_sdf(d, lo) <= empirical_sdf(d, hi)
        # the fraction itself, exactly: (count / n) * n is not always
        # the count in floating point (15 / 22 * 22 = 14.999999999999998)
        assert empirical_sdf(d, hi) == sum(x <= hi for x in d) / len(d)

    def test_nan_radius_or_distance_raises(self):
        # a NaN distance counted as outside the ball: 0.5
        for d, h in (([np.nan, 0.1], 0.5), ([0.1, 0.2], np.nan)):
            with pytest.raises(ValidationError, match="NaN"):
                empirical_sdf(d, h)


class TestEmpiricalTau:
    def test_one_at_s_one(self):
        assert empirical_tau([0.1, 0.2], 0.3, 1.0) == 1.0

    def test_zero_at_s_zero(self):
        assert empirical_tau([0.1, 0.2], 0.3, 0.0) == 0.0

    def test_uniform_distance_process(self):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        d = rng.random(5000)
        assert empirical_tau(d, 0.2, 0.5) == pytest.approx(0.5, abs=0.05)

    def test_degenerate_ball(self):
        with pytest.raises(DegenerateBall):
            empirical_tau([0.5, 0.6], 0.1, 0.5)

    def test_nan_radius_or_distance_raises(self):
        # a NaN radius raised DegenerateBall, a numeric failure, and an
        # infinite one at s = 0 returned 0.0 here, F_hat(nan) = 0
        for d, h, match in (([0.1, 0.2], np.nan, "finite"),
                            ([0.0, 0.2], np.inf, "finite"),
                            ([0.1, np.nan], 0.5, "NaN")):
            with pytest.raises(ValidationError, match=match):
                empirical_tau(d, h, 0.0)

    def test_domain_error(self):
        for s in (1.2, -0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                empirical_tau([0.1], 0.5, s)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(5)
        d = rng.random(200)
        values = [empirical_tau(d, 0.6, s) for s in np.linspace(0, 1, 101)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEstimateSigma2:
    def test_constant_responses(self):
        assert estimate_sigma2([0.1, 0.2], [4.0, 4.0], UNIFORM, 0.5) == 0.0

    def test_two_point_variance(self):
        assert estimate_sigma2([0.1, 0.2], [0.0, 2.0], UNIFORM, 0.5) == pytest.approx(1.0)

    def test_clamped_at_zero(self):
        # nearly equal responses can round to a tiny negative difference
        value = estimate_sigma2(
            [0.1, 0.2], [1.0, 1.0 + 1e-9], UNIFORM, 0.5
        )
        assert value >= 0.0

    def test_overflowing_moments_give_nan_not_zero(self):
        # both moments overflow to inf, and their inf - inf was clamped to
        # a variance of 0: an interval of width 0
        with np.errstate(over="ignore", invalid="ignore"):
            value = estimate_sigma2([0.1, 0.2, 0.3, 0.4],
                                    [1e200, 2e200, 3e200, 4e200], UNIFORM, 0.5)
        assert np.isnan(value)


class TestConfidenceInterval:
    def _result(self, sigma2=1.0, count=100, prediction=0.0):
        return dataclasses.replace(
            nadaraya_watson(
                np.full(count, 0.01), np.full(count, prediction), UNIFORM, 0.1
            ),
            sigma2_hat=sigma2,
        )

    def test_half_width_matches_normal_quantile(self):
        result = self._result(sigma2=1.0, count=100)
        lower, upper = confidence_interval(
            result, UNIFORM, Tau0Model.fractal(1.0), 0.95
        )
        assert (upper - lower) / 2.0 == pytest.approx(0.19600, abs=1e-4)

    def test_zero_variance_gives_point_interval(self):
        result = self._result(sigma2=0.0)
        lower, upper = confidence_interval(
            result, UNIFORM, Tau0Model.fractal(1.0), 0.95
        )
        assert lower == upper == result.prediction

    def test_uniform_kernel_interval_is_tau0_free(self):
        result = self._result(sigma2=2.0, count=50)
        intervals = {
            confidence_interval(result, UNIFORM, tau0, 0.9)
            for tau0 in (
                Tau0Model.fractal(0.5),
                Tau0Model.fractal(3.0),
                Tau0Model.dirac_at_one(),
                Tau0Model.indicator_unit(),
            )
        }
        assert len(intervals) == 1

    def test_rejects_non_strict_kernel(self):
        result = self._result()
        with pytest.raises(KernelNotH2Strict):
            confidence_interval(result, QUADRATIC, Tau0Model.fractal(1.0), 0.95)

    def test_missing_sigma2(self):
        result = nadaraya_watson([0.01], [1.0], UNIFORM, 0.1)
        with pytest.raises(MissingSigma2):
            confidence_interval(result, UNIFORM, Tau0Model.fractal(1.0), 0.95)

    def test_width_scales_inverse_sqrt_count(self):
        narrow = confidence_interval(
            self._result(count=200), UNIFORM, Tau0Model.fractal(1.0), 0.95
        )
        wide = confidence_interval(
            self._result(count=100), UNIFORM, Tau0Model.fractal(1.0), 0.95
        )
        ratio = (wide[1] - wide[0]) / (narrow[1] - narrow[0])
        assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-12)


class TestTheoreticalBiasVariance:
    def test_bias_term(self):
        constants = KernelConstants(0.5, 1.0, 1.0)
        report = theoretical_bias_variance(1.0, 0.0, 0.1, 100, 0.5, constants)
        assert report.b_n == pytest.approx(0.05)

    def test_variance_term(self):
        constants = KernelConstants(0.5, 1.0, 1.0)
        report = theoretical_bias_variance(1.0, 0.25, 0.1, 2000, 0.1, constants)
        assert report.variance_leading == pytest.approx(0.00125)

    def test_smooth_operator_has_no_leading_bias(self):
        constants = KernelConstants(0.5, 1.0, 1.0)
        assert theoretical_bias_variance(0.0, 1.0, 0.1, 10, 0.5, constants).b_n == 0.0

    def test_degenerate_constants(self):
        with pytest.raises(DegenerateConstants):
            theoretical_bias_variance(
                1.0, 1.0, 0.1, 10, 0.5, KernelConstants(0.0, 0.0, 0.0)
            )

    @pytest.mark.parametrize("phi_prime, sigma2, h, f_of_h, message", [
        (1.0, -1.0, 0.1, 0.5, "sigma2 must be nonnegative"),
        (1.0, math.nan, 0.1, 0.5, "sigma2 must be nonnegative"),
        (1.0, 1.0, 0.0, 0.5, "bandwidth must be positive and finite"),
        (1.0, 1.0, math.nan, 0.5, "bandwidth must be positive and finite"),
        (1.0, 1.0, math.inf, 0.5, "bandwidth must be positive and finite"),
        (1.0, 1.0, 0.1, math.nan, r"^f_of_h must lie in \(0, 1\], got nan$"),
        (math.nan, 1.0, 0.1, 0.5, "phi_prime must be finite"),
        (math.inf, 1.0, 0.1, 0.5, "phi_prime must be finite"),
        (1.0, math.inf, 0.1, 0.5, "sigma2 must be nonnegative"),
    ])
    def test_bad_inputs(self, phi_prime, sigma2, h, f_of_h, message):
        with pytest.raises(ValidationError, match=message):
            theoretical_bias_variance(phi_prime, sigma2, h, 10, f_of_h,
                                      KernelConstants(0.5, 1.0, 1.0))

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer"),
        (True, "n must be an integer"),
        (np.float64(10.0), "n must be an integer"),
        (0, "^n must be at least 1, got 0$"),
        (-3, "^n must be at least 1, got -3$"),
    ])
    def test_bad_sample_sizes(self, n, message):
        with pytest.raises(ValidationError, match=message):
            theoretical_bias_variance(1.0, 1.0, 0.1, n, 0.5,
                                      KernelConstants(0.5, 1.0, 1.0))


class TestEstimatePhiPrime:
    def test_exact_for_linear_responses(self):
        d = np.linspace(0.0, 0.5, 40)
        y = 3.0 + 2.0 * d
        assert estimate_phi_prime(d, y, UNIFORM, 0.3) == pytest.approx(2.0, abs=1e-6)

    def test_constant_responses(self):
        d = np.linspace(0.0, 0.5, 40)
        assert estimate_phi_prime(d, np.full(40, 7.0), UNIFORM, 0.3) == 0.0

    def test_monte_carlo_identity_regression(self):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        x = rng.random(5000)
        y = x + 0.2 * rng.standard_normal(5000)
        estimate = estimate_phi_prime(np.abs(x), y, UNIFORM, 0.2)
        assert estimate == pytest.approx(1.0, abs=0.15)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            estimate_phi_prime([0.1] * 5, [1.0] * 5, UNIFORM, 0.2)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            estimate_phi_prime(np.linspace(0.0, 0.5, 50), np.zeros(10),
                               UNIFORM, 0.3)

    @pytest.mark.parametrize("h_pilot", [0.0, -0.3, math.nan, math.inf])
    def test_pilot_bandwidth_must_be_positive_and_finite(self, h_pilot):
        # 0 raised EmptyNeighborhood, a numeric failure, and NaN
        # TooFewPoints "within nan"
        d = np.linspace(0.0, 0.29, 25)
        with pytest.raises(ValidationError,
                           match="bandwidth must be positive and finite"):
            estimate_phi_prime(d, d, UNIFORM, h_pilot)

    def test_weighted_variant_also_exact(self):
        d = np.linspace(0.0, 0.29, 25)
        y = -1.0 + 4.0 * d
        assert estimate_phi_prime(d, y, QUADRATIC, 0.3) == pytest.approx(4.0, abs=1e-6)


class TestScalarEquivalence:
    """The functional estimator reduces exactly to a scalar smoother."""

    @staticmethod
    def scalar_oracle(x, y, chi, h, kernel_name):
        u = np.abs(np.asarray(x) - chi) / h
        if kernel_name == "uniform":
            w = (u <= 1.0).astype(float)
        else:
            w = np.where(u <= 1.0, 1.0 - u**2, 0.0)
        return float(np.dot(w, y) / w.sum())

    @pytest.mark.parametrize("kernel_name", ["uniform", "quadratic"])
    def test_matches_scalar_oracle(self, kernel_name):
        from funkreg import Curve, FunctionalSample, SamplingGrid, SemiMetricSpec
        from funkreg import pairwise_distances

        kernel = UNIFORM if kernel_name == "uniform" else QUADRATIC
        grid = SamplingGrid([0.0, 1.0])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.random(30)
            y = rng.normal(size=30)
            chi = float(rng.random())
            h = float(rng.uniform(0.2, 0.8))
            sample = FunctionalSample(grid, np.column_stack([x, x]), y)
            d = pairwise_distances(sample, Curve(grid, [chi, chi]), SemiMetricSpec(0))
            got = nadaraya_watson(d, y, kernel, h).prediction
            want = self.scalar_oracle(x, y, chi, h, kernel_name)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-100.0, 100.0)),
                    min_size=1, max_size=30),
           st.floats(0.0, 1.0), st.floats(0.05, 1.0),
           st.sampled_from(["uniform", "quadratic"]))
    def test_functional_estimator_is_the_scalar_smoother(self, pairs, chi, h,
                                                         kernel_name):
        from funkreg import FunctionalSample, SamplingGrid, SemiMetricSpec
        from funkreg import sample_distances

        x, y = (np.array(v) for v in zip(*pairs))
        gap = np.abs(x - chi)
        # below about 1e-154 the squared gap underflows in the quadrature
        assume(np.all((gap == 0.0) | (gap > 1e-150)))
        assume(np.any(gap <= h / 2))  # a well-conditioned kernel total
        kernel = UNIFORM if kernel_name == "uniform" else QUADRATIC
        # x_i encoded as the constant curve x_i on [0, 1], plain L2 distance
        sample = FunctionalSample(SamplingGrid([0.0, 1.0]),
                                  np.column_stack([x, x]), y)
        d = sample_distances(sample, SemiMetricSpec(0), [[chi, chi]])[0]
        assert np.array_equal(d, gap)
        got = nadaraya_watson(d, y, kernel, h).prediction
        assert got == nadaraya_watson(gap, y, kernel, h).prediction
        want = self.scalar_oracle(x, y, chi, h, kernel_name)
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, np.abs(y).max()))


def reference_nadaraya_watson(distances, responses, kernel, h):
    """The direct one-query smoother that ``nadaraya_watson_batch``
    replaced: (prediction, kernel total, neighbor count)."""
    d = np.asarray(distances, dtype=float)
    y = np.asarray(responses, dtype=float)
    with np.errstate(over="ignore"):
        w = eval_kernel_array(kernel, d / h)
    total = float(np.sum(w))
    if total <= 0.0:
        raise EmptyNeighborhood(f"no positive kernel weight within radius {h}")
    return float(np.dot(w, y)) / total, total, int(np.count_nonzero(d <= h))


@st.composite
def query_blocks(draw):
    """(m, n) distance blocks with radii and (n,) responses.

    Distances on a 1/8 lattice tie often and can be zero; a radius is
    either one of its row's distances or an arbitrary positive value.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    lattice = st.integers(0, 24).map(lambda i: i / 8.0)
    anywhere = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    d = np.array(draw(st.lists(st.one_of(lattice, anywhere),
                               min_size=m * n, max_size=m * n))).reshape(m, n)
    radii = np.array([
        draw(st.one_of(st.sampled_from(sorted(set(row[row > 0.0].tolist())) or [1.0]),
                       st.floats(1e-3, 5.0)))
        for row in d
    ])
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False),
                               min_size=n, max_size=n)))
    return d, y, radii


class TestNadarayaWatsonBatch:
    @settings(max_examples=200, deadline=None)
    @given(query_blocks(), st.sampled_from(sorted(SMOOTHER_KERNELS)))
    def test_matches_per_row_reference(self, case, kernel_name):
        d, y, radii = case
        kernel = SMOOTHER_KERNELS[kernel_name]
        expected, empty = [], None
        for j in range(len(d)):
            try:
                expected.append(reference_nadaraya_watson(d[j], y, kernel, radii[j]))
            except EmptyNeighborhood:
                empty = j
                break
        if empty is not None:
            with pytest.raises(EmptyNeighborhood, match=f"at query {empty}$"):
                nadaraya_watson_batch(d, y, kernel, radii)
            return
        preds, totals, counts = nadaraya_watson_batch(d, y, kernel, radii)
        tol = 1e-12 * max(np.max(np.abs(y)), np.finfo(float).tiny)
        for j, (prediction, total, count) in enumerate(expected):
            assert counts[j] == count
            assert totals[j] == pytest.approx(total, rel=1e-15)
            assert abs(preds[j] - prediction) <= tol

    def test_one_row_case_is_nadaraya_watson(self):
        rng = np.random.default_rng(3)
        d = rng.random(40)
        y = rng.normal(size=40)
        result = nadaraya_watson(d, y, QUADRATIC, 0.5)
        preds, totals, counts = nadaraya_watson_batch(d[None], y, QUADRATIC, [0.5])
        assert result.prediction == preds[0]
        assert result.neighbor_count == counts[0]
        assert result.f_hat == totals[0] / counts[0]

    def test_rejects_bad_radii_and_shapes(self):
        d = np.array([[0.1, 0.2], [0.3, 0.4]])
        y = np.array([1.0, 2.0])
        for radii in ([0.5, 0.0], [0.5, -1.0], [np.nan, 0.5]):
            with pytest.raises(ValidationError, match="bandwidth must be positive"):
                nadaraya_watson_batch(d, y, UNIFORM, radii)
        with pytest.raises(ValidationError):
            nadaraya_watson_batch(d, y, UNIFORM, [0.5])
        with pytest.raises(ValidationError):
            nadaraya_watson_batch(d, np.ones(3), UNIFORM, [0.5, 0.5])
        with pytest.raises(ValidationError):
            nadaraya_watson_batch(d, np.ones((3, 2)), UNIFORM, [0.5, 0.5])

    def test_rejects_a_row_of_responses_per_query(self):
        # the responses are one per sample curve, shared by every query
        d = np.array([[0.1, 0.2], [0.3, 0.4]])
        rows = NeighbourRows(2, np.arange(2), np.array([0, 2, 4]),
                             d.ravel(), np.array([0, 1, 0, 1]),
                             np.array([0.5, 0.5]))
        for y in (np.ones((2, 2)), np.ones((1, 2)), np.ones(1)):
            with pytest.raises(ValidationError, match=r"need \(n,\) responses"):
                nadaraya_watson_batch(d, y, UNIFORM, [0.5, 0.5])
            with pytest.raises(ValidationError, match=r"need \(n,\) responses"):
                nadaraya_watson_rows(rows, y, UNIFORM, [0.5, 0.5])

    def test_empty_row_names_the_query(self):
        d = np.array([[0.1, 0.2], [0.3, 0.4], [0.9, 0.8]])
        with pytest.raises(EmptyNeighborhood, match="radius 0.25 at query 1"):
            nadaraya_watson_batch(d, [1.0, 2.0], UNIFORM, [0.5, 0.25, 0.25])


@st.composite
def batches(draw):
    """A block of up to 40 queries over up to 400 sample curves with kNN
    radii, and a batch of its rows: any subset, in any order, repeats
    allowed. Distances on a 1/8 lattice tie often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 400))
    d = rng.random((m, n)) * 4.0
    if draw(st.booleans()):
        d = np.round(d * 8.0) / 8.0
    k = draw(st.integers(1, n))
    # above the k-th smallest distance, so every row has positive weight
    radii = 1.5 * np.sort(d, axis=1)[:, k - 1] + 1e-3
    y = rng.normal(size=n) * 100.0
    batch = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    return d, y, radii, np.array(batch)


class TestBatchInvariance:
    @settings(max_examples=150, deadline=None)
    @given(batches(), st.sampled_from(sorted(SMOOTHER_KERNELS)))
    def test_a_query_gets_the_same_bits_in_any_batch(self, case, kernel_name):
        d, y, radii, batch = case
        kernel = SMOOTHER_KERNELS[kernel_name]
        full = nadaraya_watson_batch(d, y, kernel, radii)
        part = nadaraya_watson_batch(d[batch], y, kernel, radii[batch])
        for got, want in zip(part, full):
            np.testing.assert_array_equal(got, want[batch])
        for j in range(len(d)):
            alone = nadaraya_watson(d[j], y, kernel, radii[j])
            assert alone.prediction == full[0][j]
            # the per-query np.sum and np.dot the batched smoother replaced,
            # within the bound of two summation orders of n terms:
            # 2 n eps of the total, and of the sum of |w y| over the total
            # (the largest moves seen were 0.17 and 0.40 of n eps)
            w = eval_kernel_array(kernel, d[j] / radii[j])
            bound = 2 * d.shape[1] * np.finfo(float).eps
            assert abs(full[1][j] - np.sum(w)) <= bound * np.sum(w)
            assert (abs(full[0][j] - np.dot(w, y) / np.sum(w))
                    <= bound * np.dot(w, np.abs(y)) / np.sum(w))


class TestRowFit:
    """``nadaraya_watson_rows`` on each query's cut rows (``query_rows``),
    on hostile inputs, against the batched fit on the full block."""

    @staticmethod
    def sample():
        rng = np.random.default_rng(31)
        values = rng.normal(size=(30, 21))
        values[3] = values[7]  # a twin
        return FunctionalSample(SamplingGrid(np.linspace(0.0, 1.0, 21)),
                                values, rng.normal(size=30))

    def test_a_query_equal_to_a_training_curve(self):
        sample, spec = self.sample(), SemiMetricSpec(1)
        queries = sample.values[[7, 12]]
        rows = query_rows(sample, spec, queries, k=5)
        first = rows.offsets[:-1]
        # exact zeros lead each row: the curve itself, and its twin
        assert rows.distances[first].tolist() == [0.0, 0.0]
        assert rows.columns[first[0]:first[0] + 2].tolist() == [3, 7]
        assert rows.distances[first[0] + 2] > 0.0
        full = sample_distances(sample, spec, queries)
        for kernel in SMOOTHER_KERNELS.values():
            got = nadaraya_watson_rows(rows, sample.responses, kernel,
                                       rows.radii)
            want = nadaraya_watson_batch(full, sample.responses, kernel,
                                         rows.radii)
            assert got[0][0].tobytes() == want[0].tobytes()
            for a, b in zip(got[1:], want[1:]):
                assert a.tobytes() == b.tobytes()

    def test_ties_at_the_kth_radius_are_all_counted(self):
        # constant curves at levels 0, 1, 1, 1, 2, 3: from a query at 0, the
        # second nearest distance 1 is shared by three curves
        levels = np.array([2.0, 1.0, 0.0, 1.0, 3.0, 1.0])
        sample = FunctionalSample(SamplingGrid([0.0, 1.0]),
                                  np.column_stack([levels, levels]), levels)
        spec, query = SemiMetricSpec(0), np.zeros((1, 2))
        rows = query_rows(sample, spec, query, k=2)
        assert rows.radii.tolist() == [1.0]
        assert rows.columns.tolist() == [2, 1, 3, 5]
        full = sample_distances(sample, spec, query)
        predictions, _, counts = nadaraya_watson_rows(
            rows, sample.responses, UNIFORM, rows.radii)
        assert counts.tolist() == [4] == (full <= 1.0).sum(axis=1).tolist()
        assert predictions[0].tolist() == [0.75]

    def test_an_empty_row_names_its_query(self):
        sample, spec = self.sample(), SemiMetricSpec(1)
        # query 0 is a training curve; query 1 lies far from every one
        queries = np.vstack([sample.values[12], sample.values[12] + 100.0
                             * np.linspace(0.0, 1.0, 21)])
        rows = query_rows(sample, spec, queries, h=1e-3)
        assert np.diff(rows.offsets).tolist()[1] == 0
        with pytest.raises(EmptyNeighborhood,
                           match=r"^no positive kernel weight within radius "
                                 r"0\.001 at query 1$"):
            nadaraya_watson_rows(rows, sample.responses, UNIFORM, rows.radii)

    @pytest.mark.parametrize("radius", [1e-300, 1e-310, 5e-324])
    def test_a_distance_far_beyond_a_tiny_radius_weighs_nothing(self, radius):
        # 1 / radius overflows; the entry is dropped before any division
        rows = NeighbourRows(2, np.arange(1), np.array([0, 2]),
                             np.array([0.0, 1.0]), np.array([1, 0]),
                             np.array([1.0]))
        y = np.array([-4.0, 7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in SMOOTHER_KERNELS.values():
                means, totals, counts = nadaraya_watson_rows(
                    rows, y, kernel, [radius], 2)
                assert means[:, 0].tolist() == [7.0, 49.0]
                assert (totals[0], counts[0]) == (kernel.coefficients[0], 1)
                predictions, _, counts = nadaraya_watson_batch(
                    [[1.0, 0.0]], y, kernel, [radius])
                assert (predictions[0], counts[0]) == (7.0, 1)


def masked_fit(d, y, kernel, h, moments):
    """The reference fit of one query: its entries d <= h in sample order,
    weighed by the clipped and masked ``eval_kernel_array`` on u = d / h,
    and summed one entry after another; the means of y^1 .. y^moments,
    the kernel total and the count, or None when the total is not
    positive."""
    kept = np.flatnonzero(d <= h)
    w = eval_kernel_array(kernel, d[kept] / h).tolist()
    total = 0.0
    for weight in w:
        total += weight
    if not total > 0.0:
        return None
    means = []
    for p in range(1, moments + 1):
        num = 0.0
        for weight, value in zip(w, _powers(y[kept], p).tolist()):
            num += weight * value
        means.append(num / total)
    return means, total, kept.size


def one_row(d, h):
    """Query 0's distances ``d`` as ``NeighbourRows`` at radius ``h``, all
    of them in reverse sample order: the fit drops those above ``h``."""
    order = np.arange(d.size)[::-1]
    return NeighbourRows(d.size, np.arange(1), np.array([0, d.size]),
                         d[order], order, np.array([h]))


@st.composite
def hostile_rows(draw):
    """One query's distances at a radius from subnormal to the largest
    double, with ties at 0 and at h, entries past h, and +inf."""
    h = draw(st.sampled_from([5e-324, 1e-310, 2.0 ** -1022, 1e-5, 0.3, 1.0,
                              7.5, 1e300, np.finfo(float).max])
             | st.floats(1e-300, 1e300))
    fractions = st.sampled_from([0.0, 1.0, 0.5, 1.5, np.inf]) | st.floats(0.0, 2.0)
    n = draw(st.integers(1, 10))
    with np.errstate(over="ignore"):
        d = np.array(draw(st.lists(fractions, min_size=n, max_size=n))) * h
    d[np.isnan(d)] = np.inf  # 0 * inf is no distance
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n,
                               max_size=n)))
    return d, y, h


class TestQuerySideKernel:
    """The query-side fits evaluate their kernel with no clip or mask on
    the entries they keep, 0 <= d <= h < inf: every output keeps the bits
    of the clipped and masked evaluation."""

    @settings(max_examples=300, deadline=None)
    @given(hostile_rows(), st.sampled_from(["uniform", "quadratic", "triangle"])
           | polynomial_kernels())
    def test_fits_equal_the_masked_evaluation(self, case, kernel):
        d, y, h = case
        kernel = SMOOTHER_KERNELS.get(kernel, kernel)
        want = masked_fit(d, y, kernel, h, 2)
        if want is None:
            with pytest.raises(EmptyNeighborhood):
                nadaraya_watson(d, y, kernel, h)
            with pytest.raises(EmptyNeighborhood):
                nadaraya_watson_rows(one_row(d, h), y, kernel, [h])
            return
        (first, second), total, count = want
        means, totals, counts = nadaraya_watson_rows(one_row(d, h), y, kernel,
                                                     [h], 2)
        assert (means[0, 0], means[1, 0], totals[0], counts[0]) == (
            first, second, total, count)
        predictions, totals, counts = nadaraya_watson_batch(d[None], y, kernel,
                                                            [h])
        assert (predictions[0], totals[0], counts[0]) == (first, total, count)
        result = nadaraya_watson(d, y, kernel, h)
        assert (result.prediction, result.neighbor_count) == (first, count)
        assert result.f_hat == total / count
        variance = second - first * first
        assert estimate_sigma2(d, y, kernel, h) == (
            variance if variance > 0.0 else 0.0)

    @pytest.mark.parametrize("fit", ["nadaraya_watson", "estimate_sigma2",
                                     "batch", "rows"])
    def test_hostile_distances_and_radii_raise(self, fit):
        call = {
            "nadaraya_watson": lambda d, h: nadaraya_watson(d, Y3, QUADRATIC, h),
            "estimate_sigma2": lambda d, h: estimate_sigma2(d, Y3, QUADRATIC, h),
            "batch": lambda d, h: nadaraya_watson_batch(d[None], Y3, QUADRATIC,
                                                        [h]),
            "rows": lambda d, h: nadaraya_watson_rows(one_row(d, h), Y3,
                                                      QUADRATIC, [h]),
        }[fit]
        good = np.array([0.1, 0.2, 0.3])
        # a NaN was dropped, and a negative distance counted with weight 0
        for bad in (np.nan, -0.1, -np.inf):
            d = good.copy()
            d[0] = bad
            with pytest.raises(ValidationError, match="nonnegative, not NaN"):
                call(d, 0.5)
        # an infinite radius fitted every point at K(0)
        for h in (np.nan, np.inf, -np.inf, 0.0, -0.5):
            with pytest.raises(ValidationError,
                               match="bandwidth must be positive and finite"):
                call(good, h)
        # beyond every radius, +inf is a legal distance, and so is -0.0
        call(np.array([-0.0, 0.2, np.inf]), 0.5)

    @pytest.mark.parametrize("sigma2", [np.nan, -1.0, -1e-300, np.inf])
    def test_intervals_reject_a_bad_sigma2(self, sigma2):
        # it gave (nan, nan), or an interval of infinite width
        tau0 = Tau0Model.fractal(1.0)
        with pytest.raises(ValidationError, match="sigma2_hat"):
            interval_half_widths([1.0, sigma2], [3, 4], UNIFORM, tau0, 0.95)
        result = dataclasses.replace(
            nadaraya_watson([0.1, 0.2], [1.0, 2.0], UNIFORM, 0.5),
            sigma2_hat=sigma2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="sigma2_hat"):
                confidence_interval(result, UNIFORM, tau0, 0.95)



HOSTILE_DISTANCE_CALLS = {
    "knn_radii": lambda d: knn_radii(d, 1, 2),
    "knn_bandwidths": lambda d: knn_bandwidths(d, 2, 3),
    "empirical_sdf": lambda d: empirical_sdf(d, 0.25),
    "empirical_tau": lambda d: empirical_tau(d, 0.25, 0.5),
    "estimate_phi_prime": lambda d: estimate_phi_prime(
        d, np.arange(float(d.size)), UNIFORM, 0.5),
    # the entry is the distance between two points, held in both rows
    "InsampleSmoother": lambda d: InsampleSmoother(
        NeighbourRows(2, np.arange(2), np.array([0, 2, 4]),
                      np.array([0.0, d[0], 0.0, d[0]]), np.array([0, 1, 1, 0]),
                      np.full(2, np.inf)),
        [1.0, 2.0], UNIFORM).fit(np.ones(2)),
}


class TestOneDistanceRule:
    """Every call that takes distances holds them to one rule
    (``estimator._check_distances``): nonnegative or +inf."""

    @pytest.mark.parametrize("call", sorted(HOSTILE_DISTANCE_CALLS))
    def test_nan_negative_and_minus_inf_raise(self, call):
        # a negative entry counted inside every ball (empirical_sdf 0.667
        # on [-1, 0.2, 0.3] at 0.25) or came back as a radius, and the
        # smoother took a row [0, nan]
        row = np.linspace(0.05, 0.3, 12)
        for bad in (np.nan, -0.5, -1e-300, -np.inf):
            with pytest.raises(ValidationError, match="nonnegative, not NaN"):
                HOSTILE_DISTANCE_CALLS[call](np.append(bad, row))
        for good in (np.inf, -0.0):
            HOSTILE_DISTANCE_CALLS[call](np.append(good, row))


def bandwidth_rule_sites():
    """The calls that take a bandwidth, each as a function of one
    bandwidth h; the library's on a sample of six curves."""
    rng = np.random.default_rng(5)
    sample = FunctionalSample(SamplingGrid(np.linspace(0.0, 1.0, 9)),
                              rng.normal(size=(6, 9)), rng.normal(size=6))
    spec = SemiMetricSpec(0, None)
    d = sample_distances(sample, spec, sample.values)
    smoother = InsampleSmoother(neighbours_from_dense(d), sample.responses,
                                UNIFORM)
    return {
        "query_rows": lambda h: query_rows(sample, spec, sample.values, h=h),
        "nadaraya_watson": lambda h: nadaraya_watson(d[0], sample.responses,
                                                     UNIFORM, h),
        "insample_fit": lambda h: insample_fit(sample, UNIFORM, spec, h=h),
        "InsampleSmoother.fit": lambda h: smoother.fit(np.full(6, h)),
        "estimate_phi_prime": lambda h: estimate_phi_prime(
            np.zeros(12), np.arange(12.0), UNIFORM, h),
        "theoretical_bias_variance": lambda h: theoretical_bias_variance(
            1.0, 1.0, h, 10, 0.5, KernelConstants(0.5, 1.0, 1.0)),
        "ScalarDesignConfig": lambda h: ScalarDesignConfig(n=10, h=h),
        # a kNN radius is the bandwidth: the 3rd smallest of the row
        "knn_bandwidths": lambda h: knn_bandwidths(
            np.array([0.0, h, h, 1.0]), 2, 3),
        "BandwidthGrid": lambda h: BandwidthGrid(((2, h),)),
    }


#: The bad bandwidths each site holds to the rule. A site that takes h
#: itself gets NaN, +-inf, zeros and negative values. Where h is a kNN
#: radius, a zero or negative one is a DegenerateGrid (see TestKnnRadii and
#: test_grid_rejects_nan_bandwidths), and knn_bandwidths' radii are
#: distances, whose NaN and -inf the distance rule rejects first
#: (TestOneDistanceRule): +inf is the one bad radius that reaches its rule.
BAD_BANDWIDTHS = {
    "knn_bandwidths": (np.inf,),
    "BandwidthGrid": (np.nan, np.inf, -np.inf),
}


class TestOneBandwidthRule:
    """Every call that takes a bandwidth holds it to one rule
    (``errors.require_bandwidths``): positive and finite."""

    @pytest.mark.parametrize("site", sorted(bandwidth_rule_sites()))
    def test_one_message_for_every_bad_bandwidth(self, site):
        call = bandwidth_rule_sites()[site]
        # the smoother took h = inf, and knn_bandwidths and BandwidthGrid
        # handed it out
        bad = BAD_BANDWIDTHS.get(
            site, (np.nan, np.inf, -np.inf, 0.0, -0.0, -0.5, -5e-324))
        for h in bad:
            text = f"bandwidth must be positive and finite, got {h}"
            with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
                call(h)
        for h in (5e-324, np.finfo(float).max):
            call(h)


class TestKnnRadii:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 30), st.data())
    def test_matches_sorted_rows(self, m, n, data):
        lattice = st.integers(0, 6).map(lambda i: i / 4.0)  # many ties
        values = st.one_of(lattice, st.floats(0.0, 10.0))
        d = np.array(data.draw(st.lists(values, min_size=m * n,
                                        max_size=m * n))).reshape(m, n)
        k_min = data.draw(st.integers(1, n))
        k_max = data.draw(st.integers(k_min, n))
        radii = knn_radii(d, k_min, k_max)
        expected = np.sort(d, axis=1)[:, k_min - 1:k_max]
        np.testing.assert_array_equal(radii, expected)
        np.testing.assert_array_equal(knn_radii(d[0], k_min, k_max), expected[0])

    def test_knn_bandwidths_is_its_one_row_case(self):
        rng = np.random.default_rng(5)
        d = rng.random(50)
        d[7] = 0.0
        grid = knn_bandwidths(d, 2, 20)
        assert grid.hs == tuple(np.sort(d)[1:20])
        # the grid BandwidthGrid builds, with its checks, entry for entry
        checked = BandwidthGrid(tuple(zip(range(2, 21), np.sort(d)[1:20])))
        assert grid == checked
        assert [tuple(map(type, entry)) for entry in grid.entries] == (
            [(int, float)] * 19)
        for k_min in (2, 3):
            d[:3] = 0.0
            with pytest.raises(DegenerateGrid, match="strictly positive"):
                knn_bandwidths(d, k_min, 20)

    def test_overflowing_distances_give_no_infinite_radius(self):
        # curves whose differences overflow lie +inf apart, and the grid
        # handed out that radius, ((2, d[1]), (3, inf)), which every fit
        # then rejected
        values = np.random.default_rng(3).normal(size=(4, 9))
        values[2:] *= 1e200
        sample = FunctionalSample(SamplingGrid(np.linspace(0.0, 1.0, 9)),
                                  values, np.zeros(4))
        d = sample_distances(sample, SemiMetricSpec(0, None), values[:1])[0]
        assert d[0] == 0.0 and 0.0 < d[1] < np.inf and np.isinf(d[2:]).all()
        assert knn_bandwidths(d, 2, 2).entries == ((2, d[1]),)
        with pytest.raises(ValidationError, match=(
                "^bandwidth must be positive and finite, got inf$")):
            knn_bandwidths(d, 2, 3)

    def test_rejects_k_outside_the_row(self):
        d = np.zeros((2, 4))
        for k_min, k_max in ((0, 2), (3, 2), (1, 5)):
            with pytest.raises(TooFewPoints):
                knn_radii(d, k_min, k_max)


class TestIntervalHalfWidths:
    def test_matches_per_query_intervals(self):
        rng = np.random.default_rng(9)
        sigma2 = rng.random(7) * 3.0
        counts = rng.integers(1, 300, 7)
        tau0 = Tau0Model.fractal(2.0)
        kernel = KernelSpec.polynomial((1.0, -0.5))
        half = interval_half_widths(sigma2, counts, kernel, tau0, 0.9)
        for j in range(7):
            result = dataclasses.replace(
                nadaraya_watson(np.full(counts[j], 0.01), np.zeros(counts[j]),
                                kernel, 0.1),
                sigma2_hat=sigma2[j],
            )
            lower, upper = confidence_interval(result, kernel, tau0, 0.9)
            assert (lower, upper) == (-half[j], half[j])

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_kept_quantile_keeps_the_bits_of_the_formula(self, level):
        sigma2, counts = np.array([0.3, 2.0, 7.5]), np.array([4, 17, 160])
        z = NormalDist().inv_cdf((1 + level) / 2)
        want = z * np.sqrt(sigma2 / counts)
        half = interval_half_widths(sigma2, counts, UNIFORM,
                                    Tau0Model.fractal(1.0), level)
        assert half.tobytes() == want.tobytes()

    def test_quantile_is_within_eight_ulp_of_the_reference(self):
        # AS 241 against scipy's ndtri: 0 to 3 ulp at the usual levels and
        # at most 6 over 45k levels down to 1e-15 from either end
        levels = np.concatenate([
            np.linspace(1e-6, 1.0 - 1e-6, 2001),
            1.0 - np.logspace(-1, -13, 61),
            np.logspace(-13, -1, 61),
        ])
        for level in levels.tolist():
            got = interval_half_widths([1.0], [1], UNIFORM,
                                       Tau0Model.fractal(1.0), level)[0]
            want = float(norm.ppf((1.0 + level) / 2.0))
            assert abs(got - want) <= 8 * math.ulp(want), level

    def test_rejects_empty_balls_and_bad_levels(self):
        with pytest.raises(DegenerateBall):
            interval_half_widths([1.0, 1.0], [3, 0], UNIFORM, Tau0Model.fractal(1.0), 0.95)
        with pytest.raises(ValidationError):
            interval_half_widths([1.0], [3], UNIFORM, Tau0Model.fractal(1.0), 1.0)
        with pytest.raises(KernelNotH2Strict):
            interval_half_widths([1.0], [3], QUADRATIC, Tau0Model.fractal(1.0), 0.95)
