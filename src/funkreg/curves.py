"""Sampled curves, derivative estimation, and L2-of-derivative semi-metrics.

Curves are functions sampled on a shared strictly increasing grid. Distances
between curves are computed as the square root of the trapezoid-quadrature
integral of the squared difference of (optionally presmoothed) derivatives.
Semi-metrics with derivative order >= 1 assign distance 0 to curves differing
by a constant; that is intentional, not a defect.

A sample is one (n, p) matrix; ``transform`` and ``distance_matrix`` work on
whole matrices, the latter in row chunks so that its memory stays bounded.
``sample_distances`` is the one place the semi-metric recipe (transform,
trapezoid weights, distance_matrix) runs for the rest of the package.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridMismatch, GridTooShort, ValidationError, require_integers

#: Element budget of one ``distance_matrix`` chunk: rows are done a few at a
#: time so that their (rows, cols, p) difference array holds this many floats.
#: Of 2^17, 2^21 and 2^22 floats, 2^21 (16 MB) gave the fastest ci op on a
#: 200 x 2000 x 101 block and the fastest 165-curve bootstrap: 1 MB chunks
#: left the bootstrap's 2 MB work arrays to be mapped afresh (about 8k page
#: faults per select), and 32 MB chunks ran about 15% slower on the block.
_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Ordered abscissae shared by a family of curves.

    Points must be finite, strictly increasing, and at least two.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValidationError("grid points must be one-dimensional")
        if pts.size < 2:
            raise GridTooShort(f"grid needs at least 2 points, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("grid points must all be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w with sum(w * f) == trapezoid integral of f."""
        pts = self.points
        w = np.empty_like(pts)
        w[0] = (pts[1] - pts[0]) / 2.0
        w[-1] = (pts[-1] - pts[-2]) / 2.0
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        return w

    def matches(self, other: "SamplingGrid") -> bool:
        return self is other or np.array_equal(self.points, other.points)


@dataclass(frozen=True, eq=False)
class Curve:
    """A single sampled curve: one value per grid point, all finite."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise ValidationError(
                f"curve has {vals.size} values for a {len(self.grid)}-point grid"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("curve values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SemiMetricSpec:
    """Recipe turning two curves into a scalar distance.

    Applies optional centered moving-average presmoothing, differentiates
    ``derivative_order`` times, and integrates the squared difference with
    the trapezoid rule. ``derivative_order=0`` is the plain L2 distance.
    """

    derivative_order: int = 0
    presmoothing_window: int | None = None

    def __post_init__(self):
        require_integers(derivative_order=self.derivative_order)
        if self.presmoothing_window is not None:
            require_integers(presmoothing_window=self.presmoothing_window)
        if self.derivative_order not in (0, 1, 2):
            raise ValidationError("derivative_order must be 0, 1, or 2")
        w = self.presmoothing_window
        if w is not None and (w < 3 or w % 2 == 0):
            raise ValidationError("presmoothing window must be an odd integer >= 3")

    def min_grid_length(self) -> int:
        return max(2, 2 * self.derivative_order + 1)


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """Paired (curve, response) observations on a common grid: one curve per
    row of the (n, p) ``values`` matrix, kept as a read-only copy. Rows that
    do not have one value per grid point raise GridMismatch."""

    grid: SamplingGrid
    values: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        resp = np.array(self.responses, dtype=float)
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ValidationError("sample must be an (n, p) matrix of n >= 1 curves")
        if vals.shape[1] != len(self.grid):
            raise GridMismatch(
                f"sample rows have {vals.shape[1]} values for a "
                f"{len(self.grid)}-point grid"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("curve values must all be finite")
        if resp.ndim != 1 or resp.size != vals.shape[0]:
            raise ValidationError(
                f"{vals.shape[0]} curves but {resp.size} responses"
            )
        if not np.all(np.isfinite(resp)):
            raise ValidationError("responses must all be finite")
        vals.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "responses", resp)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def curves(self) -> tuple[Curve, ...]:
        """The rows as ``Curve`` objects; each is a read-only row view."""
        return tuple(Curve(self.grid, row) for row in self.values)

    def values_matrix(self) -> np.ndarray:
        return self.values


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along the last axis; edge windows shrink."""
    half = window // 2
    p = values.shape[-1]
    out = np.empty_like(values)
    for i in range(p):
        j = min(i, half, p - 1 - i)
        out[..., i] = values[..., i - j:i + j + 1].mean(axis=-1)
    return out


def differentiate(curve: Curve, order: int) -> Curve:
    """Finite-difference derivative of a sampled curve.

    Interior points use second-order central differences on the (possibly
    non-uniform) grid; endpoints use one-sided second-order stencils. Order 2
    is the order-1 stencil applied twice. Exact for polynomials of degree <= 2.

    Raises:
        GridTooShort: if the grid has fewer than ``2 * order + 1`` points.
    """
    if order not in (1, 2):
        raise ValidationError("derivative order must be 1 or 2")
    spec = SemiMetricSpec(derivative_order=order)
    return Curve(curve.grid, transform(curve.values, curve.grid, spec))


def transform(values: np.ndarray, grid: SamplingGrid,
              spec: SemiMetricSpec) -> np.ndarray:
    """Presmooth then differentiate along the last axis of one curve's (p,)
    values or of an (m, p) matrix with one curve per row.

    Raises:
        GridTooShort: if the grid is too short for the derivative order.
    """
    if len(grid) < spec.min_grid_length():
        raise GridTooShort(
            f"order-{spec.derivative_order} derivative needs >= "
            f"{spec.min_grid_length()} grid points, got {len(grid)}"
        )
    if spec.presmoothing_window is not None:
        values = _moving_average(values, spec.presmoothing_window)
    for _ in range(spec.derivative_order):
        values = np.gradient(values, grid.points, axis=-1, edge_order=2)
    return values


def curve_matrix(curves: Sequence[Curve], grid: SamplingGrid) -> np.ndarray:
    """Values of the curves as an (m, p) matrix, one row per curve; raises
    GridMismatch naming the first curve that is not on ``grid``."""
    for i, curve in enumerate(curves):
        if not curve.grid.matches(grid):
            raise GridMismatch(f"curve {i} is on a different grid")
    return np.array([curve.values for curve in curves])


def semi_metric_distance(a: Curve, b: Curve, spec: SemiMetricSpec) -> float:
    """L2-type distance between two curves on a shared grid.

    Returns sqrt of the trapezoid integral of the squared difference of the
    transformed curves. Symmetric, nonnegative, and exactly zero when the
    curves are identical.

    Raises:
        GridMismatch: if the curves live on different grids.
    """
    t = transform(curve_matrix((a, b), a.grid), a.grid, spec)
    return float(distance_matrix(t[:1], t[1:], a.grid.trapezoid_weights())[0, 0])


def pairwise_distances(sample: FunctionalSample, query: Curve,
                       spec: SemiMetricSpec) -> np.ndarray:
    """Distances from every sample curve to the query, in sample order.

    Element i equals ``semi_metric_distance(sample.curves[i], query, spec)``.

    Raises:
        GridMismatch: if the query is not on the sample grid.
    """
    return sample_distances(sample, spec, curve_matrix((query,), sample.grid))[0]


def sample_distances(sample: FunctionalSample, spec: SemiMetricSpec,
                     queries: np.ndarray | None = None) -> np.ndarray:
    """Semi-metric distances to the n sample curves.

    With an (m, p) ``queries`` matrix, one curve per row on the sample grid,
    returns the (m, n) distances from each query to each sample curve. The
    queries are stacked on the sample and transformed in one call. With
    ``queries=None``, returns the (n, n) sample-by-sample distances, whose
    diagonal is exactly zero.

    Raises:
        GridMismatch: if the query rows do not have one value per grid point.
    """
    weights = sample.grid.trapezoid_weights()
    if queries is None:
        t = transform(sample.values, sample.grid, spec)
        return distance_matrix(t, t, weights)
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != len(sample.grid):
        raise GridMismatch(
            f"queries of shape {queries.shape} for a {len(sample.grid)}-point grid"
        )
    m = queries.shape[0]
    t = transform(np.vstack([queries, sample.values]), sample.grid, spec)
    return distance_matrix(t[:m], t[m:], weights)


def distance_matrix(rows: np.ndarray, cols: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Distances between two stacks of already-transformed curves.

    ``out[i, k]`` is the weighted L2 distance between ``rows[i]`` and
    ``cols[k]``. Identical rows give exactly zero. Rows are done in chunks
    whose difference array holds at most ``_CHUNK_ELEMENTS`` floats (or one
    row); each entry is the same sum however the rows are chunked.
    """
    out = np.empty((rows.shape[0], cols.shape[0]))
    step = max(1, _CHUNK_ELEMENTS // cols.size)
    for start in range(0, rows.shape[0], step):
        diff = rows[start:start + step, None, :] - cols
        np.square(diff, out=diff)
        out[start:start + step] = np.sqrt(np.einsum("ikj,j->ik", diff, weights))
        del diff  # free this chunk before the next one is allocated
    return out
