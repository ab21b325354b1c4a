"""Tests for sampled curves, derivatives, and semi-metric distances."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from funkreg import (
    Curve,
    FunctionalSample,
    GridMismatch,
    GridTooShort,
    SamplingGrid,
    SemiMetricSpec,
    ValidationError,
    differentiate,
    pairwise_distances,
    sample_distances,
    semi_metric_distance,
)
from funkreg import curves
from funkreg.curves import (
    curve_matrix,
    distance_matrix,
    neighbour_rows,
    query_rows,
    transform,
)
from funkreg.errors import FunkregError
from funkreg.estimator import nadaraya_watson_batch, nadaraya_watson_rows
from funkreg.io import split_sample
from funkreg.kernels import KernelSpec
from funkreg.simulation import SimulationConfig, generate_functional_sample

SQRT_THIRD = np.sqrt(1.0 / 3.0)
FINITE = st.floats(-1e6, 1e6, allow_nan=False)


def unit_grid(n):
    return SamplingGrid(np.linspace(0.0, 1.0, n))


def reference_moving_average(values, window):
    """Per-point moving average of one curve, the transform's reference."""
    half = window // 2
    n = values.size
    out = np.empty_like(values)
    for i in range(n):
        j = min(i, half, n - 1 - i)
        out[i] = values[i - j:i + j + 1].mean()
    return out


def reference_transform(values, points, spec):
    """Curve-by-curve presmoothing and differentiation, stacked."""
    rows = []
    for row in values:
        if spec.presmoothing_window is not None:
            row = reference_moving_average(row, spec.presmoothing_window)
        for _ in range(spec.derivative_order):
            row = np.gradient(row, points, edge_order=2)
        rows.append(row)
    return np.vstack(rows)


def reference_distances(rows, cols, weights):
    """All distances from one unchunked (rows, cols, p) difference array."""
    diff = rows[:, None, :] - cols[None, :, :]
    return np.sqrt(np.einsum("ikj,j->ik", diff * diff, weights))


@st.composite
def curves_on_a_grid(draw, max_p=40, max_m=6):
    """A non-uniform grid, an (m, p) value matrix and a semi-metric spec
    with any derivative order and an odd window from 3 to p, or none."""
    p = draw(st.integers(5, max_p))
    m = draw(st.integers(1, max_m))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=p - 1,
                          max_size=p - 1))
    grid = SamplingGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    values = np.array(draw(st.lists(FINITE, min_size=m * p,
                                    max_size=m * p))).reshape(m, p)
    window = draw(st.none() | st.integers(1, (p - 1) // 2).map(
        lambda k: 2 * k + 1))
    spec = SemiMetricSpec(draw(st.sampled_from([0, 1, 2])), window)
    return grid, values, spec


class TestSamplingGrid:
    def test_rejects_short_grid(self):
        with pytest.raises(GridTooShort):
            SamplingGrid([1.0])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            SamplingGrid([0.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            SamplingGrid([0.0, 2.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            SamplingGrid([0.0, np.inf])

    def test_trapezoid_weights_reproduce_trapezoid_rule(self):
        grid = SamplingGrid([0.0, 0.4, 1.0, 1.3])
        f = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.dot(grid.trapezoid_weights(), f) == pytest.approx(
            np.trapezoid(f, grid.points), abs=1e-15
        )


    # finite, strictly increasing points whose trapezoid weights or
    # derivative coefficients overflow
    HOSTILE = (
        ([-1.7e308, -1e308, 0.0, 1e308, 1.7e308], "trapezoid_weights",
         "trapezoid weights", SemiMetricSpec(0)),
        (np.cumsum([1.0, 1.5, 1.0, 2.0, 1.0, 1.5]) * 1e-170,
         "derivative_stencil", "derivative coefficients", SemiMetricSpec(1)),
    )

    @pytest.mark.parametrize("points, method, what, spec", HOSTILE)
    def test_overflowing_weights_and_stencils_raise_naming_the_grid(
            self, points, method, what, spec):
        grid = SamplingGrid(points)
        name = (f"the {what} of the {len(points)}-point grid on "
                f"[{float(points[0])!r}, {float(points[-1])!r}] are not finite")
        with pytest.raises(ValidationError, match=re.escape(name)):
            getattr(grid, method)()
        # nothing is kept, so the next call raises too
        with pytest.raises(ValidationError, match=re.escape(name)):
            getattr(grid, method)()

    @pytest.mark.parametrize("points, method, what, spec", HOSTILE)
    def test_distances_on_such_grids_raise_rather_than_give_nan(
            self, points, method, what, spec):
        p = len(points)
        sample = FunctionalSample(SamplingGrid(points),
                                  np.arange(5.0 * p).reshape(5, p), np.zeros(5))
        with pytest.raises(ValidationError, match=what):
            sample_distances(sample, spec, sample.values)
        with pytest.raises(ValidationError, match=what):
            query_rows(sample, spec, sample.values, k=3)


class TestFunctionalSample:
    def test_keeps_a_read_only_copy_and_gives_row_views(self):
        values = np.arange(12.0).reshape(3, 4)
        sample = FunctionalSample(unit_grid(4), values, np.zeros(3))
        values[0, 0] = 99.0
        assert sample.values_matrix() is sample.values
        assert sample.values[0, 0] == 0.0
        row = sample.curves[1]
        assert np.shares_memory(row.values, sample.values)
        np.testing.assert_array_equal(row.values, [4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValueError):
            row.values[0] = 1.0
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0

    def test_rejects_bad_matrices(self):
        grid = unit_grid(3)
        with pytest.raises(ValidationError):
            FunctionalSample(grid, [[0.0, np.inf, 1.0]], [1.0])
        with pytest.raises(ValidationError):
            FunctionalSample(grid, np.zeros((0, 3)), [])
        with pytest.raises(ValidationError):
            FunctionalSample(grid, np.zeros(3), [1.0])
        with pytest.raises(ValidationError):
            FunctionalSample(grid, np.zeros((2, 3)), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_last_cell(self, bad):
        grid = unit_grid(3)
        values = np.arange(6.0).reshape(2, 3)
        values[-1, -1] = bad
        with pytest.raises(ValidationError,
                           match="^curve values must all be finite$"):
            FunctionalSample(grid, values, [1.0, 2.0])
        with pytest.raises(ValidationError,
                           match="^responses must all be finite$"):
            FunctionalSample(grid, np.zeros((2, 3)), [1.0, bad])


class TestTransformCache:
    """A sample transforms its own rows once per spec and keeps them; a grid
    keeps its trapezoid weights."""

    SPECS = (SemiMetricSpec(1), SemiMetricSpec(2, presmoothing_window=5))

    @staticmethod
    def spy_on_transform(monkeypatch):
        calls = []
        transform_ = curves.transform

        def spy(values, grid, spec):
            calls.append((np.shape(values), spec))
            return transform_(values, grid, spec)

        monkeypatch.setattr(curves, "transform", spy)
        return calls

    def test_kept_rows_keep_the_bits_and_are_made_once_per_spec(
            self, monkeypatch):
        train, test = generate_functional_sample(
            SimulationConfig(n_train=30, n_test=10, grid_size=41, seed=5))
        cases = [(test.curves[i % len(test)], self.SPECS[i % 2])
                 for i in range(20)]
        want = [pairwise_distances(
            FunctionalSample(train.grid, train.values, train.responses),
            query, spec) for query, spec in cases]
        calls = self.spy_on_transform(monkeypatch)
        for (query, spec), d in zip(cases, want):
            assert pairwise_distances(train, query, spec).tobytes() == \
                d.tobytes()
        assert [spec for shape, spec in calls
                if shape == train.values.shape] == list(self.SPECS)
        assert [shape for shape, _ in calls
                if shape != train.values.shape] == [(1, 41)] * 20

    @pytest.mark.parametrize("spec", [SemiMetricSpec(0), SemiMetricSpec(1),
                                      SemiMetricSpec(2, 3)])
    def test_kept_rows_and_weights_are_read_only(self, spec, monkeypatch):
        rng = np.random.default_rng(3)
        sample = FunctionalSample(unit_grid(9), rng.normal(size=(4, 9)),
                                  np.zeros(4))
        calls = self.spy_on_transform(monkeypatch)
        sample_distances(sample, spec, rng.normal(size=(2, 9)))
        rows = curves._kept_rows(sample, spec)
        neighbour_rows(sample, spec, k=2)
        sample_distances(sample, spec, sample.values)
        # one table per spec, made by the first call; later calls read it
        # and transform only their queries
        assert curves._kept_rows(sample, spec) is rows
        assert [shape for shape, _ in calls] == [(4, 9), (2, 9), (4, 9)]
        assert rows.tobytes() == transform(
            sample.values, sample.grid, spec).tobytes()
        weights = sample.grid.trapezoid_weights()
        assert sample.grid.trapezoid_weights() is weights
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_a_sample_built_from_another_starts_empty(self, monkeypatch):
        train, test = generate_functional_sample(
            SimulationConfig(n_train=30, n_test=4, grid_size=41, seed=6))
        spec = self.SPECS[1]
        pairwise_distances(train, test.curves[0], spec)
        calls = self.spy_on_transform(monkeypatch)
        idx = np.arange(0, 30, 2)
        children = [*split_sample(train, 20, 10, seed=1),
                    FunctionalSample(train.grid, train.values[idx],
                                     train.responses[idx])]
        for child in children:
            d = pairwise_distances(child, test.curves[0], spec)
            want = distance_matrix(transform(test.values[:1], child.grid, spec),
                                   transform(child.values, child.grid, spec),
                                   child.grid.trapezoid_weights())[0]
            assert d.tobytes() == want.tobytes()
        assert [shape for shape, _ in calls if shape[0] > 1] == [
            (20, 41), (10, 41), (15, 41)]


class TestCurveValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Curve(unit_grid(3), [1.0, 2.0])

    def test_non_finite_values(self):
        with pytest.raises(ValidationError):
            Curve(unit_grid(3), [1.0, np.nan, 2.0])

    def test_sample_requires_shared_grid(self):
        # rows must have one value per point of the sample grid
        with pytest.raises(GridMismatch):
            FunctionalSample(unit_grid(3), np.zeros((1, 4)), [1.0])


class TestDifferentiate:
    def test_linear_curve_order_one(self):
        grid = SamplingGrid([0.0, 1.0, 2.0])
        result = differentiate(Curve(grid, [0.0, 1.0, 2.0]), 1)
        np.testing.assert_allclose(result.values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_constant_curve(self):
        grid = unit_grid(7)
        result = differentiate(Curve(grid, np.full(7, 3.5)), 1)
        np.testing.assert_allclose(result.values, 0.0, atol=1e-14)

    def test_central_difference_on_quadratic_midpoint(self):
        grid = SamplingGrid([0.0, 0.5, 1.0])
        result = differentiate(Curve(grid, [0.0, 0.25, 1.0]), 1)
        assert result.values[1] == pytest.approx(1.0, abs=1e-15)

    def test_grid_too_short(self):
        with pytest.raises(GridTooShort):
            differentiate(Curve(unit_grid(2), [0.0, 1.0]), 1)
        with pytest.raises(GridTooShort):
            differentiate(Curve(unit_grid(4), np.zeros(4)), 2)

    def test_exact_on_quadratics_nonuniform_grid(self):
        # second-order stencils reproduce degree-2 polynomials exactly,
        # interior and one-sided alike
        pts = np.array([0.0, 0.2, 0.5, 0.9, 1.4, 2.0])
        grid = SamplingGrid(pts)
        values = 2.0 * pts**2 - 3.0 * pts + 1.0
        d1 = differentiate(Curve(grid, values), 1)
        np.testing.assert_allclose(d1.values, 4.0 * pts - 3.0, atol=1e-12)
        d2 = differentiate(Curve(grid, values), 2)
        np.testing.assert_allclose(d2.values, 4.0, atol=1e-12)


class TestSemiMetricDistance:
    def test_identity_is_exactly_zero(self):
        grid = unit_grid(20)
        curve = Curve(grid, np.sin(grid.points))
        for order in (0, 1, 2):
            assert semi_metric_distance(curve, curve, SemiMetricSpec(order)) == 0.0

    def test_unit_separation_of_constants(self):
        grid = unit_grid(11)
        a = Curve(grid, np.zeros(11))
        b = Curve(grid, np.ones(11))
        assert semi_metric_distance(a, b, SemiMetricSpec(0)) == pytest.approx(1.0)

    def test_linear_vs_zero_closed_form(self):
        grid = unit_grid(1001)
        a = Curve(grid, grid.points.copy())
        b = Curve(grid, np.zeros(1001))
        d = semi_metric_distance(a, b, SemiMetricSpec(0))
        assert d == pytest.approx(SQRT_THIRD, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        grid = unit_grid(31)
        a = Curve(grid, rng.normal(size=31))
        b = Curve(grid, rng.normal(size=31))
        for order in (0, 1, 2):
            spec = SemiMetricSpec(order)
            assert semi_metric_distance(a, b, spec) == semi_metric_distance(b, a, spec)

    def test_scaling(self):
        rng = np.random.default_rng(4)
        grid = unit_grid(25)
        a = Curve(grid, rng.normal(size=25))
        b = Curve(grid, rng.normal(size=25))
        spec = SemiMetricSpec(1)
        base = semi_metric_distance(a, b, spec)
        for lam in (-2.5, 0.3, 7.0):
            scaled = semi_metric_distance(
                Curve(grid, lam * a.values), Curve(grid, lam * b.values), spec
            )
            assert scaled == pytest.approx(abs(lam) * base, rel=1e-12)

    def test_derivative_order_ignores_intercept(self):
        grid = unit_grid(25)
        a = Curve(grid, np.sin(grid.points))
        b = Curve(grid, np.sin(grid.points) + 4.0)
        assert semi_metric_distance(a, b, SemiMetricSpec(1)) == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self):
        a = Curve(unit_grid(5), np.zeros(5))
        b = Curve(SamplingGrid([0.0, 0.3, 0.5, 0.8, 1.1]), np.zeros(5))
        with pytest.raises(GridMismatch):
            semi_metric_distance(a, b, SemiMetricSpec(0))

    def test_presmoothing_window_validation(self):
        with pytest.raises(ValidationError):
            SemiMetricSpec(0, presmoothing_window=4)
        with pytest.raises(ValidationError):
            SemiMetricSpec(0, presmoothing_window=1)

    def test_presmoothing_preserves_linear_curves(self):
        grid = unit_grid(21)
        a = Curve(grid, 2.0 * grid.points)
        b = Curve(grid, np.zeros(21))
        spec = SemiMetricSpec(1, presmoothing_window=5)
        # derivative of the smoothed linear curve is still exactly 2
        assert semi_metric_distance(a, b, spec) == pytest.approx(2.0, rel=1e-12)

    def test_quadrature_convergence_is_second_order(self):
        # halving the spacing must shrink the error by at least 3.9x
        errors = []
        for n in (251, 501, 1001):
            grid = unit_grid(n)
            a = Curve(grid, grid.points.copy())
            b = Curve(grid, np.zeros(n))
            errors.append(abs(semi_metric_distance(a, b, SemiMetricSpec(0)) - SQRT_THIRD))
        assert errors[0] / errors[1] >= 3.9
        assert errors[1] / errors[2] >= 3.9


class TestPairwiseDistances:
    def test_query_in_sample_gives_exact_zero(self):
        rng = np.random.default_rng(8)
        grid = unit_grid(15)
        sample = FunctionalSample(grid, rng.normal(size=(4, 15)), np.zeros(4))
        d = pairwise_distances(sample, sample.curves[2], SemiMetricSpec(1))
        assert d[2] == 0.0

    def test_single_curve_sample(self):
        grid = unit_grid(5)
        sample = FunctionalSample(grid, np.ones((1, 5)), [1.0])
        d = pairwise_distances(sample, Curve(grid, np.zeros(5)), SemiMetricSpec(0))
        assert d.shape == (1,)

    def test_constant_levels(self):
        grid = unit_grid(11)
        levels = np.array([[0.0], [1.0], [2.0]])
        sample = FunctionalSample(grid, np.repeat(levels, 11, axis=1), np.zeros(3))
        d = pairwise_distances(sample, Curve(grid, np.zeros(11)), SemiMetricSpec(0))
        np.testing.assert_allclose(d, [0.0, 1.0, 2.0], rtol=1e-12, atol=1e-15)

    def test_matches_elementwise_distance(self):
        rng = np.random.default_rng(9)
        grid = unit_grid(40)
        sample = FunctionalSample(grid, rng.normal(size=(6, 40)), np.zeros(6))
        query = Curve(grid, rng.normal(size=40))
        spec = SemiMetricSpec(2)
        d = pairwise_distances(sample, query, spec)
        for i, c in enumerate(sample.curves):
            assert d[i] == semi_metric_distance(c, query, spec)

    def test_grid_mismatch(self):
        grid = unit_grid(5)
        sample = FunctionalSample(grid, np.zeros((1, 5)), [0.0])
        other = Curve(SamplingGrid([0.0, 0.2, 0.4, 0.6, 1.1]), np.zeros(5))
        with pytest.raises(GridMismatch):
            pairwise_distances(sample, other, SemiMetricSpec(0))


@st.composite
def samples_and_queries(draw):
    """A sample on a non-uniform grid, an (m, p) query block or None for
    the sample's own rows, and a spec with any derivative order and a
    window of None, 3 or 5."""
    grid, values, _ = draw(curves_on_a_grid(max_p=30, max_m=5))
    p = len(grid)
    m = draw(st.integers(1, 4))
    queries = draw(st.none() | st.lists(FINITE, min_size=m * p,
                                        max_size=m * p).map(
        lambda v: np.array(v).reshape(m, p)))
    spec = SemiMetricSpec(draw(st.sampled_from([0, 1, 2])),
                          draw(st.sampled_from([None, 3, 5])))
    return FunctionalSample(grid, values, np.zeros(len(values))), queries, spec


class TestSampleDistances:
    @settings(max_examples=120, deadline=None)
    @given(samples_and_queries())
    def test_equals_the_recipe_written_out(self, case):
        sample, queries, spec = case
        cols = transform(sample.values, sample.grid, spec)
        rows = cols if queries is None else transform(queries, sample.grid, spec)
        want = distance_matrix(rows, cols, sample.grid.trapezoid_weights())
        got = sample_distances(
            sample, spec, sample.values if queries is None else queries)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        if queries is None:
            assert np.all(np.diagonal(got) == 0.0)

    @pytest.mark.parametrize("call", [
        lambda sample, spec, q: sample_distances(sample, spec, q),
        lambda sample, spec, q: query_rows(sample, spec, q, k=5),
        lambda sample, spec, q: query_rows(sample, spec, q, h=5.0),
    ], ids=["sample_distances", "query_rows_k", "query_rows_h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_query_row_is_named(self, monkeypatch, call, bad):
        # a NaN row got a NaN row of distances, a NaN kNN radius or, at a
        # given h, an empty row
        rng = np.random.default_rng(8)
        sample = FunctionalSample(unit_grid(11), rng.normal(size=(6, 11)),
                                  np.zeros(6))
        queries = rng.normal(size=(4, 11))
        queries[2, 5] = bad
        queries[3, 0] = bad
        calls = TestTransformCache.spy_on_transform(monkeypatch)
        with pytest.raises(ValidationError, match=r"^query row 2 holds"):
            call(sample, SemiMetricSpec(1), queries)
        assert calls == []  # neither the queries nor the sample transformed

    def test_no_queries_give_no_rows(self):
        sample = FunctionalSample(unit_grid(11), np.zeros((3, 11)), np.zeros(3))
        spec, empty = SemiMetricSpec(1), np.zeros((0, 11))
        assert sample_distances(sample, spec, empty).shape == (0, 3)
        for rule in ({"k": 2}, {"h": 0.5}):
            rows = query_rows(sample, spec, empty, **rule)
            assert rows.offsets.tolist() == [0]
            assert rows.distances.size == rows.columns.size == rows.radii.size == 0

    @pytest.mark.parametrize("shape", [(2, 10), (2, 12), (11,)])
    def test_query_width_must_match_the_grid(self, shape):
        sample = FunctionalSample(unit_grid(11), np.zeros((3, 11)), np.zeros(3))
        with pytest.raises(GridMismatch):
            sample_distances(sample, SemiMetricSpec(1), np.zeros(shape))


@st.composite
def screened_cases(draw):
    """A sample and a query block built to stress the screen: curves of
    norm about 1e3 (times the scale) or about 1, near-duplicates about 1e-9
    apart, exact duplicates, twins shifted by a constant, queries that
    repeat or nearly repeat a sample curve, scales 1e-8 to 1e8, orders 0-2
    and windows None, 3 or 5."""
    p = draw(st.integers(5, 30))
    n = draw(st.integers(2, 16))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(0.01, 1.0, p - 1)
    grid = SamplingGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    offset = draw(st.sampled_from([0.0, 1e3]))
    curves_ = offset * rng.normal(size=p) + rng.normal(size=(n + m, p))
    for row in range(1, n + m):
        kind = draw(st.sampled_from(["fresh", "near", "duplicate", "shifted"]))
        source = curves_[draw(st.integers(0, row - 1))]
        if kind == "near":
            curves_[row] = source + 1e-9 * rng.normal(size=p)
        elif kind == "duplicate":
            curves_[row] = source
        elif kind == "shifted":
            curves_[row] = source + rng.normal()
    curves_ *= scale
    spec = SemiMetricSpec(draw(st.sampled_from([0, 1, 2])),
                          draw(st.sampled_from([None, 3, 5])))
    sample = FunctionalSample(grid, curves_[:n], rng.normal(size=n))
    return sample, curves_[n:], spec


#: kernels of degree 0 to 3, two of them zero at the edge of the ball
FIT_KERNELS = (KernelSpec.uniform(), KernelSpec.quadratic(),
               KernelSpec.triangle(), KernelSpec.polynomial((1.0, 0.0, 0.0, -0.5)))


def fit_outcome(fit, *args):
    """A fit's outputs, or the error it raises."""
    try:
        return fit(*args)
    except FunkregError as exc:
        return type(exc), str(exc)


def assert_same_fit(full, rows, responses, radii):
    """The row fit on the cut rows, at radii up to theirs, against the
    batched fit on the full block: the same outputs or the same error, bit
    for bit."""
    for kernel in FIT_KERNELS:
        want = fit_outcome(nadaraya_watson_batch, full, responses, kernel, radii)
        got = fit_outcome(nadaraya_watson_rows, rows, responses, kernel, radii)
        if isinstance(got[0], np.ndarray):
            got = (got[0][0], *got[1:])
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray)
                    else a == b)


class TestScreenedDistances:
    """``query_rows``: each query's distances up to its radius, cut from
    the screened entries, against the full block."""

    @settings(max_examples=150, deadline=None)
    @given(screened_cases())
    def test_every_radius_count_and_fit_keeps_its_bits(self, case):
        sample, queries, spec = case
        n, m, y = len(sample), len(queries), sample.responses
        full = sample_distances(sample, spec, queries)
        every = np.arange(m)
        for k in range(1, n + 1):
            rows = query_rows(sample, spec, queries, k=k)
            radii = np.sort(full, axis=1)[:, :k]
            assert_cut_rows(full, rows, every, radii[:, -1])
            # every kNN radius up to k is a position in the sorted row
            first = rows.offsets[:-1]
            assert np.array_equal(rows.distances[first[:, None] + np.arange(k)],
                                  radii)
            for r in (radii[:, 0], radii[:, -1]):
                assert_same_fit(full, rows, y, r)
        # every existing distance, a float either side of it, and beyond
        values = np.unique(full[full > 0.0])
        hs = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.inf), [1e300]])
        for h in hs:
            rows = query_rows(sample, spec, queries, h=float(h))
            assert_cut_rows(full, rows, every, np.full(m, h))
            assert_same_fit(full, rows, y, np.full(m, h))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 60),
           st.integers(-8, 8), st.integers(0, 2**32 - 1))
    def test_pair_reduction_equals_the_outer_block(self, r, c, p, exponent, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(r, p)) * 10.0**exponent
        cols = rng.normal(size=(c, p)) * 10.0**exponent
        weights = rng.uniform(0.01, 1.0, p)
        i, j = np.nonzero(rng.random((r, c)) < 0.5)
        pairs = curves._root_weighted_squares(rows[i] - cols[j], weights)
        assert np.array_equal(pairs, distance_matrix(rows, cols, weights)[i, j])

    def test_rows_that_overflow_the_screen_are_computed_whole(self):
        # nine zero curves and one at 1.2e154: every squared distance is
        # finite, but the query's centred norm plus that curve's overflows
        grid = unit_grid(11)
        far = 1.2e154 * (1.0 + 1e-12 * np.arange(11.0))
        values = np.vstack([np.zeros((9, 11)), far, far[::-1]])
        sample = FunctionalSample(grid, values[:10], np.zeros(10))
        spec = SemiMetricSpec(0)
        full = sample_distances(sample, spec, values[10:])
        assert np.all(np.isfinite(full))
        for k in (1, 10):
            assert_cut_rows(full, query_rows(sample, spec, values[10:], k=k),
                            np.arange(1), np.sort(full, axis=1)[:, k - 1])

    def test_overflowing_differences_give_inf_without_a_warning(self):
        # two curves at 1e200: their squared differences to the others
        # overflow, and each dense call gives +inf there, with every
        # warning an error
        values = np.random.default_rng(3).normal(size=(4, 9))
        values[2:] *= 1e200
        sample = FunctionalSample(unit_grid(9), values, np.zeros(4))
        spec = SemiMetricSpec(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = sample_distances(sample, spec, values[:1])[0]
            row = pairwise_distances(sample, sample.curves[0], spec)
            pair = semi_metric_distance(sample.curves[0], sample.curves[2],
                                        spec)
        assert np.isinf(block[2:]).all() and np.isfinite(block[:2]).all()
        assert np.array_equal(row, block) and pair == block[2] == np.inf

    def test_chunks_that_need_most_entries_keep_their_bits(self, monkeypatch):
        # one row a chunk. At h = 1.4 the query at the centre has all the
        # curves inside its ball and the half-scale one 96%, so the screen
        # marks most of both chunks; the far one has none inside.
        monkeypatch.setattr(curves, "_CHUNK_ELEMENTS", 1 << 7)
        rng = np.random.default_rng(3)
        sample = FunctionalSample(unit_grid(21), rng.normal(size=(50, 21)),
                                  np.zeros(50))
        queries = np.vstack([np.zeros(21), 0.5 * rng.normal(size=21),
                             np.full(21, 100.0)])
        spec = SemiMetricSpec(0)
        full = sample_distances(sample, spec, queries)
        rows = query_rows(sample, spec, queries, h=1.4)
        assert_cut_rows(full, rows, np.arange(3), np.full(3, 1.4))
        assert np.diff(rows.offsets).tolist()[::2] == [50, 0]

    def test_k_near_n_keeps_the_bits_of_the_full_block(self):
        rng = np.random.default_rng(4)
        sample = FunctionalSample(unit_grid(21), rng.normal(size=(20, 21)),
                                  np.zeros(20))
        queries = rng.normal(size=(3, 21))
        spec = SemiMetricSpec(1)
        full = sample_distances(sample, spec, queries)
        for k in (2, 13, 20):
            rows = query_rows(sample, spec, queries, k=k)
            assert_cut_rows(full, rows, np.arange(3),
                            np.sort(full, axis=1)[:, k - 1])
        # k = n holds each whole row
        assert rows.distances.tobytes() == np.sort(full, axis=1).tobytes()

    def test_bad_rules(self):
        sample = FunctionalSample(unit_grid(11), np.zeros((3, 11)), np.zeros(3))
        spec, queries = SemiMetricSpec(1), np.zeros((2, 11))
        for kwargs in ({}, {"k": 0}, {"k": 4}, {"k": 2.5}, {"h": 0.0},
                       {"h": float("nan")}, {"h": float("inf")},
                       {"k": 1, "h": 1.0}):
            with pytest.raises(ValidationError):
                query_rows(sample, spec, queries, **kwargs)
        with pytest.raises(GridMismatch):
            query_rows(sample, spec, np.zeros((2, 10)), k=1)

    def test_memory_is_bounded_by_the_chunk_budget(self, monkeypatch):
        budget = 1 << 15
        monkeypatch.setattr(curves, "_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(17)
        rows, cols = rng.normal(size=(100, 101)), rng.normal(size=(1000, 101))
        sample = FunctionalSample(unit_grid(101), cols, np.zeros(1000))
        spec = SemiMetricSpec(0)
        curves._kept_rows(sample, spec)
        # k = 20 marks about 20 pairs a row, h = 1e3 every pair
        for kwargs in ({"k": 20}, {"h": 1e3}):
            tracemalloc.start()
            try:
                out = query_rows(sample, spec, rows, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the kept entries twice (a chunk's pieces, then joined), the
            # centred and scaled copies of rows and cols, a chunk's work
            # arrays and its pair indices
            kept = out.distances.nbytes + out.columns.nbytes
            copies = (rows.nbytes + cols.nbytes)
            assert peak < 2 * kept + 1.25 * copies + 16 * 8 * budget


def assert_cut_rows(full, rows, points, radii):
    """Row r of ``rows`` is exactly the stable sort of full[points[r]] up
    to radii[r]: the same distances, bit for bit, and the same columns."""
    assert rows.n == full.shape[1]
    assert np.array_equal(rows.points, points)
    assert rows.radii.tobytes() == np.asarray(radii, dtype=float).tobytes()
    for r, i in enumerate(points):
        order = np.argsort(full[i], kind="stable")
        keep = full[i][order] <= radii[r]
        held = slice(rows.offsets[r], rows.offsets[r + 1])
        assert rows.distances[held].tobytes() == full[i][order][keep].tobytes()
        assert np.array_equal(rows.columns[held], order[keep])


def expected_radii(full, points, k, reach):
    """The larger of each row's reach and its k-th smallest distance."""
    radii = np.zeros(len(points)) if reach is None else np.asarray(reach)
    if k is not None:
        radii = np.maximum(radii, np.sort(full[points], axis=1)[:, k - 1])
    return radii


class TestNeighbourRows:
    @settings(max_examples=150, deadline=None)
    @given(screened_cases(), st.data())
    def test_rows_are_the_leading_part_of_the_stable_sort(self, case, data):
        sample, _, spec = case
        n = len(sample)
        full = sample_distances(sample, spec, sample.values)
        points = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                             min_size=1, max_size=n)))
        # a reach of one of the row's distances, a float either side of it,
        # zero or far beyond every distance
        reach = np.array([data.draw(st.sampled_from([
            0.0, 1e300, full[i, j], np.nextafter(full[i, j], 0.0),
            np.nextafter(full[i, j], np.inf)])) for i, j in zip(
                points, data.draw(st.lists(st.integers(0, n - 1),
                                           min_size=points.size,
                                           max_size=points.size)))])
        for k in range(1, n + 1):
            for rule in ({"k": k}, {"k": k, "reach": reach}):
                rows = neighbour_rows(sample, spec, points, **rule)
                assert_cut_rows(full, rows, points,
                                expected_radii(full, points, k, rule.get("reach")))
        rows = neighbour_rows(sample, spec, points, reach=reach)
        assert_cut_rows(full, rows, points, expected_radii(full, points, None, reach))

    def test_rows_do_not_rely_on_the_screen(self, monkeypatch):
        # a screen that marks every entry: the rows of sample points and of
        # queries are still cut exactly at their radii
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 21))
        values[20:] = values[:10] + 3.0  # shifted twins
        values[5] = values[4]  # a duplicate
        sample = FunctionalSample(unit_grid(21), values, np.zeros(30))
        spec = SemiMetricSpec(1)
        full = sample_distances(sample, spec, sample.values)
        points = np.array([4, 5, 0, 29, 4])
        reach = full[points, 7]

        def screen(rows, cols, weights, k, reach):
            j = np.arange(cols.shape[0])
            for start in range(rows.shape[0]):
                i = np.full(j.size, start)
                yield (slice(start, start + 1), i, j,
                       curves._exact_pairs(rows, cols, weights, i, j))

        monkeypatch.setattr(curves, "_screen", screen)
        for k, r in ((3, None), (3, reach), (None, reach), (30, reach)):
            rows = neighbour_rows(sample, spec, points, k=k, reach=r)
            assert_cut_rows(full, rows, points, expected_radii(full, points, k, r))
        queries, every = values[points], np.arange(points.size)
        for k in (1, 3, 30):
            assert_cut_rows(full[points], query_rows(sample, spec, queries, k=k),
                            every, np.sort(full[points], axis=1)[:, k - 1])
        for h in reach:
            assert_cut_rows(full[points], query_rows(sample, spec, queries, h=h),
                            every, np.full(points.size, h))

    def test_dense_rows_and_chunks_are_cut_exactly(self, monkeypatch):
        monkeypatch.setattr(curves, "_CHUNK_ELEMENTS", 1 << 8)
        rng = np.random.default_rng(6)
        sample = FunctionalSample(unit_grid(21), rng.normal(size=(40, 21)),
                                  np.zeros(40))
        spec = SemiMetricSpec(0)
        full = sample_distances(sample, spec, sample.values)
        points = np.arange(40)
        # a reach past every distance in the first chunk only, then a k
        # that holds most of every row
        reach = np.where(points < 2, 1e300, 0.0)
        rows = neighbour_rows(sample, spec, points, k=3, reach=reach)
        assert_cut_rows(full, rows, points, expected_radii(full, points, 3, reach))
        rows = neighbour_rows(sample, spec, points, k=25)
        assert_cut_rows(full, rows, points, expected_radii(full, points, 25, None))

    def test_bad_rules(self):
        sample = FunctionalSample(unit_grid(11), np.zeros((3, 11)), np.zeros(3))
        spec = SemiMetricSpec(1)
        for points, kwargs in ((None, {}), (None, {"k": 0}), (None, {"k": 4}),
                               (None, {"reach": -1.0}),
                               (None, {"reach": float("nan")}),
                               ([3], {"k": 1}), ([[0]], {"k": 1}),
                               ([0, 1, 2], {"reach": [0.1, 0.2]}),
                               ([0, 1], {"reach": [[0.1, 0.2]]})):
            with pytest.raises(ValidationError):
                neighbour_rows(sample, spec, points, **kwargs)


class TestRowOrder:
    """The cut's row-wise sort gives np.lexsort's order."""

    @staticmethod
    def assert_lexsort_order(i, d, rows):
        counts = np.bincount(i, minlength=rows)
        assert np.array_equal(curves._row_order(i, counts, d),
                              np.lexsort((d, i)))

    def test_ties_and_empty_rows(self):
        rng = np.random.default_rng(10)
        # rows of 0 to 12 entries, the empty ones first, last and between,
        # with distances drawn from three values so most entries tie
        counts = np.array([0, 5, 0, 0, 12, 1, 7, 0])
        i = np.repeat(np.arange(counts.size), counts)
        d = rng.choice([0.0, 0.5, 2.0], size=i.size)
        self.assert_lexsort_order(i, d, counts.size)

    def test_an_all_empty_chunk(self):
        self.assert_lexsort_order(np.zeros(0, dtype=np.intp), np.empty(0), 4)

    def test_infinite_distances_from_overflow(self):
        # curves at 1e200 whose squared differences overflow: the rows hold
        # infinite distances, tied with one another and with the padding
        rng = np.random.default_rng(11)
        cols = rng.normal(size=(6, 9)) * 1e200
        cols[3] = cols[1]
        rows = np.vstack([cols[:3], np.zeros((2, 9))])
        i, j = np.nonzero(rng.random((5, 6)) < 0.7)
        d = curves._exact_pairs(rows, cols, np.ones(9), i, j)
        assert np.isinf(d).any() and np.isfinite(d).any()
        self.assert_lexsort_order(i, d, 5)


class TestMovingAverage:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 10),
           st.integers(-8, 8), st.integers(0, 2**32 - 1))
    def test_equals_the_per_column_loop(self, m, p, half, exponent, seed):
        values = (np.random.default_rng(seed).normal(size=(m, p))
                  * 10.0**exponent)
        window = 2 * half + 1
        want = np.vstack([reference_moving_average(row, window)
                          for row in values])
        assert np.array_equal(curves._moving_average(values, window), want)
        assert np.array_equal(curves._moving_average(values[0], window),
                              want[0])


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMovingAverageBits:
    """The shifted-view sums against numpy's own ``mean`` of each window."""

    WINDOWS = range(3, 42, 2)

    @staticmethod
    def inputs():
        rng = np.random.default_rng(12)
        values = rng.normal(size=(40, 101)) * 10.0 ** rng.integers(-6, 7, (40, 101))
        values[3] = -0.0  # a row of negative zeros averages to +0
        values[4, :50] = -0.0
        return {
            "1-D": values[7],
            "1-row": values[:1],
            "many-row": values,
            "sliced": values[1::3, 2:-3],
            "strided": values[:, ::2],
        }

    @pytest.mark.parametrize("window", WINDOWS)
    def test_interior_is_numpys_sliding_mean(self, window):
        half = window // 2
        for name, values in self.inputs().items():
            got = curves._moving_average(values, window)
            want = sliding_window_view(values, window, axis=-1).mean(axis=-1)
            assert_same_bits(got[..., half:values.shape[-1] - half], want)
            edges = np.vstack([reference_moving_average(row, window)
                               for row in np.atleast_2d(values)])
            assert_same_bits(np.atleast_2d(got), edges)

    @pytest.mark.parametrize("window", [129, 131, 201, 259, 301])
    def test_windows_above_128_split_as_numpy_does(self, window):
        values = np.random.default_rng(13).normal(size=(3, 600))
        half = window // 2
        got = curves._moving_average(values, window)
        want = sliding_window_view(values, window, axis=-1).mean(axis=-1)
        assert_same_bits(got[:, half:600 - half], want)
        assert_same_bits(got, np.vstack([reference_moving_average(row, window)
                                          for row in values]))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_memory_layout_does_not_change_the_bits(self, window):
        # numpy's own mean sums a Fortran-ordered block in another order
        # from 9 terms on; the shifted views sum every layout alike
        values = self.inputs()["many-row"]
        c = curves._moving_average(np.ascontiguousarray(values), window)
        f = curves._moving_average(np.asfortranarray(values), window)
        assert_same_bits(f, c)

    @pytest.mark.parametrize("window", [3, 5, 9, 41])
    def test_an_integer_input_equals_its_float_copy(self, window):
        values = np.random.default_rng(14).integers(-9, 10, size=(5, 60))
        got = curves._moving_average(values, window)
        assert got.dtype == np.float64
        assert_same_bits(got, curves._moving_average(values.astype(float),
                                                     window))

    def test_an_integer_curve_is_not_truncated(self):
        values = np.array([[0, 1, 0, 1, 0, 1, 0]])
        spec = SemiMetricSpec(0, 3)
        got = transform(values, unit_grid(7), spec)
        assert_same_bits(got, transform(values.astype(float), unit_grid(7), spec))
        assert 0.0 < got[0, 1] < 1.0


class TestTransform:
    @settings(max_examples=80, deadline=None)
    @given(curves_on_a_grid(max_p=101, max_m=4))
    # equal spacings take np.gradient's uniform branch, which drawn steps
    # reach only by chance
    @example((SamplingGrid(np.arange(12, dtype=float)),
              np.random.default_rng(1).normal(size=(3, 12)),
              SemiMetricSpec(2, 5)))
    @example((unit_grid(5), np.random.default_rng(2).normal(size=(4, 5)),
              SemiMetricSpec(1)))
    def test_equals_per_curve_reference(self, case):
        grid, values, spec = case
        expected = reference_transform(values, grid.points, spec)
        assert np.array_equal(transform(values, grid, spec), expected)
        assert np.array_equal(transform(values[0], grid, spec), expected[0])

    def test_grid_too_short(self):
        with pytest.raises(GridTooShort):
            transform(np.zeros((2, 4)), unit_grid(4), SemiMetricSpec(2))


class TestStencil:
    """The grid's kept stencil differentiates with np.gradient's bits, in
    blocks of any size."""

    GRIDS = {
        "integer": SamplingGrid(np.arange(17, dtype=float)),
        "linspace": SamplingGrid(np.linspace(-1.0, 1.0, 21)),
        "drawn": SamplingGrid(np.cumsum(
            np.random.default_rng(0).uniform(0.01, 1.0, 17))),
    }

    @pytest.mark.parametrize("name", GRIDS)
    @pytest.mark.parametrize("spec", [SemiMetricSpec(1), SemiMetricSpec(2),
                                      SemiMetricSpec(2, 5)])
    def test_any_block_size_keeps_the_bits(self, monkeypatch, name, spec):
        grid = self.GRIDS[name]
        p = len(grid)
        values = np.random.default_rng(7).normal(size=(10, p))
        want = reference_transform(values, grid.points, spec)
        # blocks of 1 row, 3 rows (the last one short) and all 10
        for budget in (p, 3 * p, 10 * p):
            monkeypatch.setattr(curves, "_PAIR_ELEMENTS", budget)
            assert np.array_equal(transform(values, grid, spec), want)
            assert np.array_equal(transform(values[3], grid, spec), want[3])

    def test_uniform_grids_take_numpys_uniform_branch(self):
        # numpy's test for its uniform branch, all np.diff equal, which the
        # 21-point linspace fails by rounding
        for name, uniform in (("integer", True), ("linspace", False),
                              ("drawn", False)):
            grid = self.GRIDS[name]
            stencil = grid.derivative_stencil()
            assert (stencil.spacing is not None) == uniform
            assert stencil.neighbours.shape == stencil.coefficients.shape == (
                (3, 2) if uniform else (3, len(grid)))

    @pytest.mark.parametrize("points", [[0.0, 1.0, 2.0], [0.0, 0.3, 1.0]])
    def test_the_three_point_minimum_grid_at_order_one(self, points):
        grid = SamplingGrid(points)
        values = np.random.default_rng(8).normal(size=(4, 3))
        want = np.gradient(values, grid.points, axis=-1, edge_order=2)
        assert np.array_equal(transform(values, grid, SemiMetricSpec(1)), want)
        assert np.array_equal(transform(values[0], grid, SemiMetricSpec(1)),
                              want[0])
        # every point of a 3-point grid takes the one stencil (0, 1, 2)
        neighbours = grid.derivative_stencil().neighbours
        assert np.array_equal(neighbours,
                              np.repeat([[0], [1], [2]], neighbours.shape[1], 1))

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_uniform_edges_of_short_grids_in_any_layout(self, p):
        # the edge columns read through strided views, which at p = 3 are
        # the same three columns for both edges
        grid = SamplingGrid(np.arange(p) * 0.25)
        assert grid.derivative_stencil().spacing is not None
        wide = np.random.default_rng(p).normal(size=(9, 2 * p))
        layouts = {"C": np.ascontiguousarray(wide[:5, :p]),
                   "F": np.asfortranarray(wide[:5, :p]),
                   "sliced": wide[1::2, ::2]}
        for name, values in layouts.items():
            want = values
            # an order-2 derivative needs 5 points
            for order in (1, 2) if p >= 5 else (1,):
                want = np.gradient(want, grid.points, axis=-1, edge_order=2)
                spec = SemiMetricSpec(order)
                assert np.array_equal(transform(values, grid, spec), want), name
                assert np.array_equal(transform(values[2], grid, spec),
                                      want[2]), name

    def test_no_stencil_below_three_points(self):
        with pytest.raises(GridTooShort):
            unit_grid(2).derivative_stencil()

    @pytest.mark.parametrize("name", GRIDS)
    def test_made_once_per_grid_and_read_only(self, monkeypatch, name):
        grid = SamplingGrid(self.GRIDS[name].points)
        calls = []
        make = curves._three_point_stencil

        def spy(points):
            calls.append(points)
            return make(points)

        monkeypatch.setattr(curves, "_three_point_stencil", spy)
        values = np.random.default_rng(9).normal(size=(3, len(grid)))
        for spec in (SemiMetricSpec(1), SemiMetricSpec(2, 3)):
            transform(values, grid, spec)
        stencil = grid.derivative_stencil()
        assert grid.derivative_stencil() is stencil
        assert len(calls) == 1
        for array in stencil:
            if array is not None:
                with pytest.raises(ValueError):
                    array[...] = 0


class TestDistanceMatrix:
    @pytest.mark.parametrize("m, budget", [
        (10, 1), (10, 7 * 11 * 3 + 5), (10, 7 * 11 * 4), (10, 1 << 22),
        (1, 1 << 22)])
    def test_chunks_equal_the_unchunked_form(self, monkeypatch, m, budget):
        # 10 rows against 7 columns on 11 points: chunks of 1, 3 and 4 rows
        # (the last one short), then all 10 at once, and one row, a query's;
        # fresh data per case, so an unwritten row cannot match by reusing
        # the last case's memory
        rng = np.random.default_rng(budget + m)
        rows, cols = rng.normal(size=(m, 11)), rng.normal(size=(7, 11))
        weights = SamplingGrid(np.cumsum(rng.random(11))).trapezoid_weights()
        monkeypatch.setattr(curves, "_CHUNK_ELEMENTS", budget)
        assert np.array_equal(distance_matrix(rows, cols, weights),
                              reference_distances(rows, cols, weights))

    def test_memory_is_bounded_by_the_chunk_budget(self):
        rng = np.random.default_rng(13)
        rows, cols = rng.normal(size=(100, 101)), rng.normal(size=(1000, 101))
        weights = unit_grid(101).trapezoid_weights()
        tracemalloc.start()
        try:
            out = distance_matrix(rows, cols, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output plus one chunk's difference buffer (and its small row
        # sums), not a 100*1000*101-float temporary
        assert peak < out.nbytes + 1.25 * 8 * curves._CHUNK_ELEMENTS

    def test_pairwise_equals_the_query_rows_select_uses(self):
        train, test = generate_functional_sample(
            SimulationConfig(n_train=30, n_test=5, grid_size=41, seed=2))
        weights = train.grid.trapezoid_weights()
        for spec in (SemiMetricSpec(1), SemiMetricSpec(2, presmoothing_window=5)):
            query_t = transform(curve_matrix(test.curves, train.grid),
                                train.grid, spec)
            rows = distance_matrix(query_t,
                                   transform(train.values, train.grid, spec),
                                   weights)
            for j, query in enumerate(test.curves):
                assert np.array_equal(pairwise_distances(train, query, spec),
                                      rows[j])


class TestDistanceProperties:
    @settings(max_examples=60, deadline=None)
    @given(curves_on_a_grid(), st.randoms(use_true_random=False))
    def test_exact_symmetry_and_permutation_equivariance(self, case, random):
        grid, values, spec = case
        weights = grid.trapezoid_weights()
        sample = FunctionalSample(grid, values, np.zeros(len(values)))
        t = transform(sample.values, grid, spec)
        d = distance_matrix(t, t, weights)
        assert np.array_equal(d, d.T)
        a, b = sample.curves[0], sample.curves[-1]
        assert semi_metric_distance(a, b, spec) == semi_metric_distance(b, a, spec)
        perm = np.array(random.sample(range(len(values)), len(values)))
        permuted = transform(values[perm], grid, spec)
        assert np.array_equal(distance_matrix(permuted, permuted, weights),
                              d[np.ix_(perm, perm)])

    @settings(max_examples=60, deadline=None)
    @given(curves_on_a_grid(), st.data())
    def test_translation_invariance_for_derivatives(self, case, data):
        grid, values, spec = case
        if spec.derivative_order == 0:
            spec = SemiMetricSpec(1, spec.presmoothing_window)
        shifts = np.array(data.draw(st.lists(
            FINITE, min_size=len(values), max_size=len(values))))
        shifted = values + shifts[:, None]
        weights = grid.trapezoid_weights()
        t, ts = transform(values, grid, spec), transform(shifted, grid, spec)
        # the curve scale in derivative units: the largest value, divided by
        # the finest spacing once per derivative, over the grid's span
        pts = grid.points
        scale = (max(np.abs(shifted).max(), np.abs(values).max())
                 * (2.0 / np.diff(pts).min()) ** spec.derivative_order
                 * np.sqrt(pts[-1] - pts[0]))
        diff = distance_matrix(ts, ts, weights) - distance_matrix(t, t, weights)
        assert np.all(np.abs(diff) <= 1e-12 * scale)
