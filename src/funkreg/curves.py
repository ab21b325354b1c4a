"""Sampled curves, derivative estimation, and L2-of-derivative semi-metrics.

Curves are functions sampled on a shared strictly increasing grid. Distances
between curves are computed as the square root of the trapezoid-quadrature
integral of the squared difference of (optionally presmoothed) derivatives.
Semi-metrics with derivative order >= 1 assign distance 0 to curves differing
by a constant; that is intentional, not a defect.

A sample is one (n, p) matrix; ``transform`` and ``distance_matrix`` work on
whole matrices, the latter in row chunks so that its memory stays bounded.
The rest of the package asks a sample for its distances under a
``SemiMetricSpec``: ``sample_distances`` for the (m, n) block to some query
curves, ``neighbour_rows`` for each sample point's sorted distances up to a
radius. A sample transforms its own rows once per spec, on first use, and
keeps them as a read-only (n, p) table per spec for as long as it lives
(``_kept_rows``); each call then transforms only its query rows. A grid
keeps its trapezoid weights the same way. ``transform`` works row by row,
so a row has the same bits alone as in any stack of rows, and
``sample_distances(sample, spec, sample.values)`` is the (n, n) block.

A kernel estimate reads only the curves inside its ball. Given the
neighbour count k or the radius h that decides those balls, rows are
screened with one matrix product per row chunk, and only the entries that
the screen cannot place beyond every radius in use are computed exactly,
with ``distance_matrix``'s own reduction, then sorted and cut at the row's
radius (``_screened_rows``). That cut is the only one: ``neighbour_rows``
keeps each sample point's sorted distances up to its own radius in a
ragged layout (``NeighbourRows``), so no (n, n) array is formed, and a
screened query block is the same rows scattered into an ``inf`` block, so
every kNN radius up to k, every kernel weight and every ``d <= h`` count
keeps the bits of the full block.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatch, GridTooShort, ValidationError, require_integers

#: Element budget of one distance chunk: ``distance_matrix`` does rows a few
#: at a time so that their (rows, cols, p) difference array holds this many
#: floats (16 MB), and the screen sizes its row chunks by it, three (rows, n)
#: work arrays a chunk.
_CHUNK_ELEMENTS = 1 << 21

#: Element budget of one batch of gathered (pairs, p) differences in the
#: screen's exact pass. Small enough that a batch stays in cache: on p = 101
#: (2-core Xeon) 8000 pairs took 5.0 ms in batches of 10^4 and 1.8-2.0 ms
#: in batches of 256 to 1024.
_PAIR_ELEMENTS = 1 << 16


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
        object.__setattr__(self, "_weights", None)

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w with sum(w * f) == trapezoid integral of f;
        computed on first use and kept on the grid, read-only."""
        w = self._weights
        if w is None:
            pts = self.points
            w = np.empty_like(pts)
            w[0] = (pts[1] - pts[0]) / 2.0
            w[-1] = (pts[-1] - pts[-2]) / 2.0
            w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
            w.setflags(write=False)
            object.__setattr__(self, "_weights", w)
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
    do not have one value per grid point raise GridMismatch.

    A sample also keeps its rows as transformed under each semi-metric it
    has been used with: one read-only (n, p) table per ``SemiMetricSpec``,
    filled on first use by ``_kept_rows``, which alone reads or fills them,
    and dropped with the sample. The copy of ``values`` is what keeps those
    tables valid: no caller holds a writable view of the rows they were
    computed from."""

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
        if not _all_finite(vals):
            raise ValidationError("curve values must all be finite")
        if resp.ndim != 1 or resp.size != vals.shape[0]:
            raise ValidationError(
                f"{vals.shape[0]} curves but {resp.size} responses"
            )
        if not _all_finite(resp):
            raise ValidationError("responses must all be finite")
        vals.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "_transformed", {})

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def curves(self) -> tuple[Curve, ...]:
        """The rows as ``Curve`` objects; each is a read-only row view."""
        return tuple(Curve(self.grid, row) for row in self.values)

    def values_matrix(self) -> np.ndarray:
        return self.values


def _all_finite(values: np.ndarray) -> bool:
    """Whether a nonempty array holds no NaN or infinity: its min and max,
    which NaN propagates to, are finite. No (n, p) mask is formed."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


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
    It is the one-row case of ``sample_distances``, so a call transforms
    only its query once the sample keeps its rows under ``spec``.

    Raises:
        GridMismatch: if the query is not on the sample grid.
    """
    return sample_distances(sample, spec, curve_matrix((query,), sample.grid))[0]


@dataclass(frozen=True, eq=False)
class NeighbourRows:
    """Sorted distances from some sample points to the whole sample, each
    row cut at its own radius, laid end to end (compressed sparse rows).

    Row r belongs to sample point ``points[r]`` of a sample of ``n``
    curves. It holds, ascending with ties in sample order, every distance
    from that point that is at most ``radii[r]``:
    ``distances[offsets[r]:offsets[r + 1]]``, with their sample indices in
    ``columns``. So a row is exactly the leading part of
    the stable sort of the point's full row of distances, and it starts
    with the point's exact-zero self-distance (or a tie with it).
    """

    n: int
    points: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    columns: np.ndarray
    radii: np.ndarray

    def __len__(self) -> int:
        return self.points.size


def _kept_rows(sample: FunctionalSample, spec: SemiMetricSpec) -> np.ndarray:
    """The sample's rows transformed under ``spec``: computed on the first
    call with that spec and kept on the sample as a read-only (n, p) table
    for as long as the sample lives.

    Raises:
        GridTooShort: if the grid is too short for the derivative order.
    """
    rows = sample._transformed.get(spec)
    if rows is None:
        rows = transform(sample.values, sample.grid, spec)
        rows.setflags(write=False)
        sample._transformed[spec] = rows
    return rows


def _check_rule(n: int, k: int | None, h: float | None) -> None:
    if k is not None:
        require_integers(k=k)
        if not 1 <= k <= n:
            raise ValidationError(f"k must lie in [1, {n}], got {k}")
    if h is not None and not 0.0 < h < np.inf:
        raise ValidationError(f"bandwidth must be positive and finite, got {h}")


def sample_distances(sample: FunctionalSample, spec: SemiMetricSpec,
                     queries: np.ndarray, *, k: int | None = None,
                     h: float | None = None) -> np.ndarray:
    """Semi-metric distances from query curves to the n sample curves.

    ``queries`` is an (m, p) matrix, one curve per row on the sample grid;
    returns the (m, n) distances from each query to each sample curve.
    Only the queries are transformed (``_kept_rows``), row by row, so
    ``sample_distances(sample, spec, sample.values)`` is the sample's own
    (n, n) block, with an exact-zero diagonal.

    A query block may name the bandwidth rule its fit uses: a neighbour
    count ``k`` or a global radius ``h``. The block is then the scatter of
    the query rows' sorted, cut distances (``_screened_rows``) into an
    ``inf`` block: exactly ``np.where(full <= radius, full, inf)`` with
    ``radius`` each query's k-th smallest distance or h, so every kNN
    radius up to k, every kernel weight at such a radius and every
    ``d <= h`` count keeps the full block's bits.

    Raises:
        GridMismatch: if the query rows do not have one value per grid point.
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: for both ``k`` and ``h``, a ``k`` outside [1, n]
            or an ``h`` that is not positive and finite (NaN included).
    """
    if k is not None and h is not None:
        raise ValidationError("give at most one of h or k")
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != len(sample.grid):
        raise GridMismatch(
            f"queries of shape {queries.shape} for a {len(sample.grid)}-point grid"
        )
    _check_rule(len(sample), k, h)
    cols = _kept_rows(sample, spec)
    queries = transform(queries, sample.grid, spec)
    weights = sample.grid.trapezoid_weights()
    if k is None and h is None:
        return distance_matrix(queries, cols, weights)
    m = queries.shape[0]
    reach = None if h is None else np.full(m, float(h))
    offsets, distances, columns, _ = _screened_rows(queries, cols, weights,
                                                    k, reach)
    out = np.full((m, cols.shape[0]), np.inf)
    out[np.repeat(np.arange(m), np.diff(offsets)), columns] = distances
    return out


def neighbour_rows(sample: FunctionalSample, spec: SemiMetricSpec,
                   points=None, *, k: int | None = None,
                   reach=None) -> NeighbourRows:
    """Some sample points' sorted distances to the whole sample under
    ``spec``, each row cut at its radius: the larger of the point's
    ``reach`` and its k-th smallest distance (the self-distance counts).

    Only the entries the screen cannot place beyond a row's radius are
    computed, with the exact reduction of ``distance_matrix``
    (``_screened_rows``) from the sample's kept rows (``_kept_rows``), so
    every kept entry has the full matrix's bits and no (n, n) array is
    formed.

    Args:
        points: sample indices of the rows, all n in order by default.
        k: neighbour count in [1, n] that every row reaches.
        reach: a radius, or one per row, that every row reaches.

    Raises:
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: without k and reach, for a k outside [1, n], a
            negative or NaN reach or a point outside the sample.
    """
    cols = _kept_rows(sample, spec)
    n = len(sample)
    points = (np.arange(n) if points is None
              else np.asarray(points, dtype=np.intp))
    if points.ndim != 1 or (points.size and not (
            0 <= points.min() and points.max() < n)):
        raise ValidationError(f"points must be indices in [0, {n})")
    if k is None and reach is None:
        raise ValidationError("give k, reach or both")
    _check_rule(n, k, None)
    if reach is not None:
        reach = np.broadcast_to(np.asarray(reach, dtype=float), points.shape)
        if not (reach >= 0.0).all():
            raise ValidationError("reach must be nonnegative")
    return NeighbourRows(n, points, *_screened_rows(
        cols[points], cols, sample.grid.trapezoid_weights(), k, reach))


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


def _exact_pairs(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                 i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distances between ``rows[i]`` and ``cols[j]``, pair by pair, by
    the exact reduction, in batches of gathered (pairs, p) differences of
    ``_PAIR_ELEMENTS`` floats each."""
    out = np.empty(i.size)
    step = max(1, _PAIR_ELEMENTS // cols.shape[1])
    for s in range(0, i.size, step):
        diff = rows[i[s:s + step]]
        diff -= cols[j[s:s + step]]
        out[s:s + step] = _root_weighted_squares(diff, weights)
    return out


def _screen(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
            k: int | None, reach: np.ndarray | None):
    """Yield, for each row chunk of ``distance_matrix(rows, cols,
    weights)``, ``(chunk, i, j, d)``: the entries that may lie within their
    row's radius (the larger of ``reach`` and the k-th smallest distance),
    at rows ``i`` of ``rows`` and columns ``j`` in row-major order, and
    their exact distances ``d`` (``_exact_pairs``). ``_screened_rows`` is
    its one caller, and cuts each row at its radius.

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

    Refine. The cutoff of a row is the larger of its reach squared and its
    k-th smallest hi (at least k entries have D at or below it, so the k-th
    smallest D is too), times 1 + 4 eps: an entry with lo above the cutoff
    has D more than 4 eps above the k-th smallest D and above reach^2, so
    its root is strictly above the row's radius after rounding. Every other
    entry is marked. A row whose screen is not finite (overflow) is marked
    whole.
    """
    m, n, p = rows.shape[0], cols.shape[0], cols.shape[1]
    # g, half and hi are a chunk's (rows, n) work arrays
    step = max(1, _CHUNK_ELEMENTS // (3 * n))
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
        reach_sq = None if reach is None else np.square(reach)[:, None]
    margin = 1.0 + 4 * eps
    for start in range(0, m, step):
        chunk = slice(start, start + step)
        with np.errstate(over="ignore", invalid="ignore"):
            g = a[chunk] @ b.T
            g *= -2.0
            g += norms_a[chunk, None]
            g += norms_b
            half = norms_a[chunk, None] + norms_b
            half *= gamma
            half += slack
            if k is None:
                cutoff = reach_sq[chunk] * margin
            else:
                hi = g + half
                hi.partition(k - 1, axis=1)
                cutoff = hi[:, k - 1:k] * margin
                del hi
                if reach is not None:
                    cutoff = np.maximum(cutoff, reach_sq[chunk] * margin)
            g -= half  # now the lower bound of each entry
            refine = g <= cutoff
            refine[~np.isfinite(g).all(axis=1)] = True
        del g, half
        i, j = np.nonzero(refine)
        del refine
        i += start
        yield chunk, i, j, _exact_pairs(rows, cols, weights, i, j)


def _screened_rows(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                   k: int | None, reach: np.ndarray | None):
    """The rows of ``distance_matrix(rows, cols, weights)`` up to each
    row's radius, sorted and laid end to end: the ``(offsets, distances,
    columns, radii)`` of ``NeighbourRows``.

    A row's radius is its exact k-th smallest distance or its reach,
    whichever is larger. ``_screen`` marks a superset of the entries within
    it, which are computed by the exact reduction, then sorted by (row,
    distance, column). Every entry above its row's radius is dropped here,
    so each row is exactly the leading part of the row's stable sort,
    whatever the screen's margin. ``neighbour_rows`` and the screened
    ``sample_distances`` both read their rows from here.
    """
    lengths, distances, columns, limits = [], [], [], []
    for chunk, i, j, d in _screen(rows, cols, weights, k, reach):
        # the screen lists a row's entries in column order and lexsort is
        # stable, so ties keep that order
        order = np.lexsort((d, i))
        i, j, d = i[order] - chunk.start, j[order], d[order]
        counts = np.bincount(i, minlength=rows[chunk].shape[0])
        # the larger of each row's reach and its k-th smallest distance
        if k is None:
            limit = reach[chunk]
        else:
            limit = d[np.cumsum(counts) - counts + k - 1]
            if reach is not None:
                limit = np.maximum(reach[chunk], limit)
        keep = d <= limit[i]
        lengths.append(np.bincount(i[keep], minlength=counts.size))
        distances.append(d[keep])
        columns.append(j[keep])
        limits.append(limit)
    offsets = np.zeros(rows.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.concatenate([np.zeros(0, dtype=np.intp), *lengths]),
              out=offsets[1:])
    return (offsets, np.concatenate([np.empty(0), *distances]),
            np.concatenate([np.zeros(0, dtype=np.intp), *columns]),
            np.concatenate([np.empty(0), *limits]))
