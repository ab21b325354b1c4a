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

A kernel estimate at a query reads only the curves inside its ball. Given
the neighbour count k or the radius h that decides those balls,
``sample_distances`` screens a query block with one matrix product per row
chunk and computes exactly, with ``distance_matrix``'s own reduction, only
the entries that the screen cannot place beyond every radius in use. The
others read ``inf`` (or their exact value, where most of a block is needed
and it is computed whole): every kNN radius up to k, every kernel weight
and every ``d <= h`` count keeps the bits of the full block.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatch, GridTooShort, ValidationError, require_integers

#: Element budget of one distance chunk: ``distance_matrix`` does rows a few
#: at a time so that their (rows, cols, p) difference array holds this many
#: floats, and the screen of ``sample_distances`` sizes its row chunks and
#: its gathered differences by it. Of 2^17, 2^21 and 2^22 floats, 2^21
#: (16 MB) gave the fastest 165-curve bootstrap, whose (n, n) block runs
#: through ``distance_matrix``: 1 MB chunks left its 2 MB work arrays to be
#: mapped afresh (about 8k page faults per select). Query blocks with a k or
#: h take the screen.
_CHUNK_ELEMENTS = 1 << 21

#: Share of a screened block's entries past which the exact outer block is
#: cheaper than gathering those entries' (pairs, p) differences: on p = 101
#: (2-core Xeon) the gathered pairs cost as much as the broadcast block at
#: a share near 0.65, and 1.55 times as much at 1.
_DENSE_SHARE = 0.6


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

    def check_grid(self, grid: "SamplingGrid") -> None:
        """Raise GridTooShort if ``grid`` is too short for the derivative."""
        if len(grid) < self.min_grid_length():
            raise GridTooShort(
                f"order-{self.derivative_order} derivative needs >= "
                f"{self.min_grid_length()} grid points, got {len(grid)}"
            )


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
    """Centered moving average along the last axis; edge windows shrink.

    The interior columns, whose windows are whole, come from one sliding
    window view; only the ``window // 2`` columns at each edge loop."""
    half = window // 2
    p = values.shape[-1]
    out = np.empty_like(values)
    if p >= window:
        out[..., half:p - half] = sliding_window_view(
            values, window, axis=-1).mean(axis=-1)
    for i in chain(range(min(half, p)), range(max(half, p - half), p)):
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
    spec.check_grid(grid)
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
                     queries: np.ndarray | None = None, *,
                     k: int | None = None,
                     h: float | None = None) -> np.ndarray:
    """Semi-metric distances to the n sample curves.

    With an (m, p) ``queries`` matrix, one curve per row on the sample grid,
    returns the (m, n) distances from each query to each sample curve. The
    queries are stacked on the sample and transformed in one call. With
    ``queries=None``, returns the (n, n) sample-by-sample distances, whose
    diagonal is exactly zero.

    A query block may name the bandwidth rule its fit uses, as
    ``bootstrap.insample_fit`` does: a neighbour count ``k`` or a global
    radius ``h``. The block is then screened (``_screened_distances``):
    every entry at most the row's k-th smallest distance, or at most ``h``,
    equals the full block's bit for bit, and every other entry is strictly
    above that radius: ``inf``, or its exact value where the screen computes
    a row or chunk whole. So every kNN radius up to k, every kernel weight
    at such a radius and every ``d <= h`` count is unchanged. A k above
    ``_DENSE_SHARE`` of n takes the full block: the screen would compute at
    least k of each row's n entries anyway.

    Raises:
        GridMismatch: if the query rows do not have one value per grid point.
        ValidationError: for both ``k`` and ``h``, either one without a
            query block, a ``k`` outside [1, n] or an ``h`` that is not
            positive (NaN included).
    """
    weights = sample.grid.trapezoid_weights()
    n = len(sample)
    if k is not None and h is not None:
        raise ValidationError("give at most one of h or k")
    if queries is None:
        if k is not None or h is not None:
            raise ValidationError("k and h screen a query block")
        t = transform(sample.values, sample.grid, spec)
        return distance_matrix(t, t, weights)
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != len(sample.grid):
        raise GridMismatch(
            f"queries of shape {queries.shape} for a {len(sample.grid)}-point grid"
        )
    if k is not None:
        require_integers(k=k)
        if not 1 <= k <= n:
            raise ValidationError(f"k must lie in [1, {n}], got {k}")
    if h is not None and not h > 0:
        raise ValidationError(f"bandwidth must be positive, got {h}")
    m = queries.shape[0]
    t = transform(np.vstack([queries, sample.values]), sample.grid, spec)
    if (k is None and h is None) or (k is not None and k > _DENSE_SHARE * n):
        return distance_matrix(t[:m], t[m:], weights)
    return _screened_distances(t[:m], t[m:], weights, k=k, h=h)


def _root_weighted_squares(diff: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """sqrt(sum_j weights_j diff_j^2) along the last axis, squaring ``diff``
    in place: the one exact reduction. ``distance_matrix`` applies it to an
    outer (rows, cols, p) block and the screen to gathered (pairs, p)
    differences; an entry gets the same bits either way."""
    np.square(diff, out=diff)
    return np.sqrt(np.einsum("...j,j->...", diff, weights))


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
        out[start:start + step] = _root_weighted_squares(
            rows[start:start + step, None, :] - cols, weights)
    return out


def _screened_distances(rows: np.ndarray, cols: np.ndarray,
                        weights: np.ndarray, k: int | None = None,
                        h: float | None = None) -> np.ndarray:
    """``distance_matrix(rows, cols, weights)`` exact where it decides a fit
    at k neighbours or at radius h, strictly above that radius elsewhere.

    Screen. With c the column mean of ``cols`` and s = sqrt(weights), the
    rows a = (rows - c) s and b = (cols - c) s give G = |a|^2 + |b|^2 - 2 a.b,
    one matrix product per chunk of rows. Let D be the value the exact
    reduction squares its way to (the square of its result before the root)
    and S = sum_j w_j (rows_j - cols_j)^2 in exact arithmetic, u the unit
    roundoff, T = |a|^2 + |b|^2 and gamma_q = q u / (1 - q u).

    - Centring and scaling: a_j = x_j (1 + alpha_j) with x = (rows - c) sqrt(w)
      and |alpha_j| <= gamma_3 (a subtraction, sqrt(w_j), a product); so
      |sqrt(sum (a - b)^2) - sqrt(S)| <= gamma_3 (|x| + |y|), and
      |sum (a - b)^2 - S| <= (4 gamma_3 + 2 gamma_3^2) T' with T' the T of x
      and y, itself within a factor (1 +- gamma_3)^2 of T.
    - Gram rounding: |a|^2 and |b|^2 are sums of p nonnegative terms and a.b
      a p-term dot product, each within gamma_p of the sum of its terms'
      magnitudes in any summation order, with or without FMA; as
      2 |a.b| <= T, G is within 2 gamma_p T of exact before its two
      additions, which (each of a value at most 2 T) add at most 4 u T.
    - Direct reduction: D sums p nonnegative terms w_j fl(fl(d_j)^2), each
      term within gamma_4 and the sum within gamma_(p+3) of S <= 2 T'.

    Together |G - D| <= (4 p + 22) u T, to first order. The interval
    [lo, hi] = G -+ gamma T, with gamma = (4 p + 32) eps = (8 p + 64) u,
    covers D with a factor 2 to spare, which absorbs the second-order terms,
    the rounding of lo and hi and of T itself. Subnormal results add at
    most one subnormal ulp per operation, which the absolute term
    4 p (1 + max w) tiny covers.

    Refine. The cutoff of a row is its k-th smallest hi (at least k entries
    have D at or below it, so the k-th smallest D is too), or h^2, times
    1 + 4 eps: an entry with lo above the cutoff has D more than 4 eps
    above the k-th smallest D (or above h^2), so its root is strictly above
    the k-th radius (or above h) after rounding. Every other entry is
    recomputed with ``_root_weighted_squares`` from the unscaled rows, the
    reduction ``distance_matrix`` uses, so it has the full block's bits. A
    row whose screen is not finite (overflow) is recomputed whole. A chunk
    that refines more than ``_DENSE_SHARE`` of its entries (a radius near
    the data's spread) is computed whole by ``distance_matrix``, which
    gives every entry the same bits at less cost there. With h, a chunk
    whose pairs mostly have |a| + |b| <= h is known to be such a chunk
    before its matrix product, which is then skipped.

    Fill. Every entry not recomputed reads ``inf``, strictly above the row's
    k-th radius and above h.
    """
    m, n, p = rows.shape[0], cols.shape[0], cols.shape[1]
    eps = float(np.finfo(float).eps)
    gamma = (4 * p + 32) * eps
    slack = 4 * p * (1.0 + weights.max()) * np.finfo(float).tiny
    root_w = np.sqrt(weights)
    centre = cols.mean(axis=0)
    a = (rows - centre) * root_w
    b = (cols - centre) * root_w
    with np.errstate(over="ignore"):
        norms_a = np.einsum("ij,ij->i", a, a)
        norms_b = np.einsum("ij,ij->i", b, b)
    out = np.full((m, n), np.inf)
    margin = 1.0 + 4 * eps
    if h is not None:
        cutoff = float(h) * float(h) * margin
        # |a_i| + |b_j| <= h puts pair (i, j) inside the ball up to rounding
        # (triangle inequality about c); counted on the sorted |b_j|, such
        # pairs find most dense chunks without a matrix product. Only the
        # cost depends on this count: a dense chunk is exact everywhere.
        certain = np.searchsorted(np.sort(np.sqrt(norms_b)),
                                  h - np.sqrt(norms_a), side="right")
    # g, half and hi are a chunk's (rows, n) work arrays, and the gathered
    # rows and columns of its refined pairs are (pairs, p) each
    step = max(1, _CHUNK_ELEMENTS // (3 * n))
    pair_step = max(1, _CHUNK_ELEMENTS // (2 * p))
    for start in range(0, m, step):
        chunk = slice(start, start + step)
        if h is not None and (certain[chunk].sum()
                              > _DENSE_SHARE * n * certain[chunk].size):
            out[chunk] = distance_matrix(rows[chunk], cols, weights)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            g = a[chunk] @ b.T
            g *= -2.0
            g += norms_a[chunk, None]
            g += norms_b
            half = norms_a[chunk, None] + norms_b
            half *= gamma
            half += slack
            if h is None:
                hi = g + half
                hi.partition(k - 1, axis=1)
                cutoff = hi[:, k - 1:k] * margin
                del hi
            g -= half  # now the lower bound of each entry
            refine = g <= cutoff
            refine[~np.isfinite(g).all(axis=1)] = True
        del g, half
        if np.count_nonzero(refine) > _DENSE_SHARE * refine.size:
            out[chunk] = distance_matrix(rows[chunk], cols, weights)
            continue
        i, j = np.nonzero(refine)
        i += start
        for s in range(0, i.size, pair_step):
            ri, cj = i[s:s + pair_step], j[s:s + pair_step]
            diff = rows[ri]
            diff -= cols[cj]
            out[ri, cj] = _root_weighted_squares(diff, weights)
    return out
