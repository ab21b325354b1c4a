"""Sampled curves, derivative estimation, and L2-of-derivative semi-metrics.

Curves are functions sampled on a shared strictly increasing grid. Distances
between curves are computed as the square root of the trapezoid-quadrature
integral of the squared difference of (optionally presmoothed) derivatives.
Semi-metrics with derivative order >= 1 assign distance zero, up to
rounding (2e-14 at order 1 and 2e-12 at order 2 for a unit-scale curve on
101 points), to curves differing by a constant; that is intentional.

A sample is one (n, p) matrix; ``transform`` and ``distance_matrix`` work on
whole matrices, the latter in row chunks so that its memory stays bounded.
The rest of the package asks a sample for its distances under a
``SemiMetricSpec``: ``sample_distances`` for the (m, n) block to some query
curves, ``query_rows`` and ``neighbour_rows`` for each query's or sample
point's sorted distances up to a radius. A sample transforms its own rows
once per spec, on first use, and keeps them as a read-only (n, p) table
per spec for as long as it lives (``_kept_rows``); each call then
transforms only its query rows. A grid
keeps its trapezoid weights the same way, and its derivative stencil:
``np.gradient``'s second-order three-point rule (``edge_order=2``), each
point's (left, mid, right) neighbours and their coefficients (a, b, c),
so a derivative is three gathers, products and sums a block of rows at a
time, with ``np.gradient``'s bits and none of its per-call set-up.
``transform`` works row by row, so a row has the same bits alone as in any
stack of rows, and ``sample_distances(sample, spec, sample.values)`` is the
(n, n) block.

A kernel estimate reads only the curves inside its ball. Given the
neighbour count k or the radius h that decides those balls, rows are
screened with one matrix product per row chunk, and only the entries that
the screen cannot place beyond every radius in use are computed exactly,
with ``distance_matrix``'s own reduction, then sorted and cut at the row's
radius (``_screened_rows``), the only cut: both row calls keep them in a
ragged layout (``NeighbourRows``), so no (m, n) or (n, n) array is formed
and every kept entry has the bits of the full block.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (GridMismatch, GridTooShort, ValidationError,
                     require_bandwidths, require_integers)

#: Element budget of one distance chunk: ``distance_matrix`` does rows a few
#: at a time so that their (rows, cols, p) difference array holds this many
#: floats (16 MB), and the screen sizes its row chunks by it, three (rows, n)
#: work arrays a chunk.
_CHUNK_ELEMENTS = 1 << 21

#: Element budget of one block of gathered rows: a batch of (pairs, p)
#: differences in the screen's exact pass, and a block of (rows, p) curves
#: that ``transform`` differentiates (648 rows at p = 101). Small enough
#: that a block and its work arrays stay in cache: on p = 101 (2-core Xeon)
#: 8000 pairs took 5.0 ms in batches of 10^4 and 1.8-2.0 ms in batches of
#: 256 to 1024; the order-1 derivative of 2000 rows took 1.45 ms in blocks
#: of 32 rows, 0.93-0.99 ms in blocks of 128 to 648 and 1.02 ms whole,
#: against 2.05 ms by ``np.gradient`` (best of 9).
_PAIR_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Ordered abscissae shared by a family of curves.

    Points must be finite, strictly increasing, and at least two. A grid
    computes its trapezoid weights and its derivative stencil on first use
    and keeps them, read-only; either raises ValidationError, naming the
    grid, if it is not finite (spacings so wide or so narrow that they
    overflow).
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
        object.__setattr__(self, "_stencil", None)

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
            with np.errstate(over="ignore"):
                w[0] = (pts[1] - pts[0]) / 2.0
                w[-1] = (pts[-1] - pts[-2]) / 2.0
                w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
            self._check_finite("trapezoid weights", w)
            w.setflags(write=False)
            object.__setattr__(self, "_weights", w)
        return w

    def derivative_stencil(self) -> "Stencil":
        """``np.gradient(f, points, edge_order=2)`` as a kept rule: computed
        on first use with numpy's own arithmetic and kept on the grid,
        read-only (``Stencil``).

        Raises:
            GridTooShort: if the grid has fewer than 3 points.
            ValidationError: if a coefficient is not finite.
        """
        stencil = self._stencil
        if stencil is None:
            stencil = _three_point_stencil(self.points)
            arrays = [a for a in stencil if a is not None]
            self._check_finite("derivative coefficients", *arrays)
            for array in arrays:
                array.setflags(write=False)
            object.__setattr__(self, "_stencil", stencil)
        return stencil

    def _check_finite(self, what: str, *arrays: np.ndarray) -> None:
        if not all(np.isfinite(a).all() for a in arrays):
            lo, hi = self.span
            raise ValidationError(
                f"the {what} of the {len(self)}-point grid on "
                f"[{lo!r}, {hi!r}] are not finite"
            )

    def matches(self, other: "SamplingGrid") -> bool:
        return self is other or (
            self.points.shape == other.points.shape
            and not np.count_nonzero(self.points != other.points))


class Stencil(NamedTuple):
    """``np.gradient``'s second-order three-point rule on one grid, with
    its second-order one-sided rule at the two ends (``edge_order=2``).

    Column ``i`` of the derivative that the rule covers is
    ``a[i] * f[left[i]] + b[i] * f[mid[i]] + c[i] * f[right[i]]``, summed
    in that order, with ``(left, mid, right) = neighbours`` and
    ``(a, b, c) = coefficients``, each (3, q). On a non-uniform grid the
    rule covers all q = p columns and ``spacing`` is None. On a uniform
    one (all ``np.diff`` equal, numpy's own test) it covers the two ends
    (q = 2) and ``spacing`` is 2 dx: interior column i is numpy's
    ``(f[i + 1] - f[i - 1]) / spacing``.
    """

    neighbours: np.ndarray
    coefficients: np.ndarray
    spacing: np.ndarray | None


def _three_point_stencil(pts: np.ndarray) -> Stencil:
    """The ``Stencil`` of a grid, each coefficient written as
    ``np.gradient`` writes it, so the derivative keeps numpy's bits."""
    p = pts.size
    if p < 3:
        raise GridTooShort(f"a derivative needs >= 3 grid points, got {p}")
    dx = np.diff(pts)
    mid = np.clip(np.arange(p), 1, p - 2)
    neighbours = np.stack([mid - 1, mid, mid + 1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if (dx == dx[0]).all():
            d = dx[0]
            return Stencil(neighbours[:, [0, -1]],
                           np.array([[-1.5 / d, 0.5 / d],
                                     [2. / d, -2. / d],
                                     [-0.5 / d, 1.5 / d]]),
                           np.array(2. * d))
        coefficients = np.empty((3, p))
        d1, d2 = dx[:-1], dx[1:]
        coefficients[:, 1:-1] = (-d2 / (d1 * (d1 + d2)),
                                 (d2 - d1) / (d1 * d2),
                                 d1 / (d2 * (d1 + d2)))
        d1, d2 = dx[0], dx[1]
        coefficients[:, 0] = (-(2. * d1 + d2) / (d1 * (d1 + d2)),
                              (d1 + d2) / (d1 * d2),
                              -d1 / (d2 * (d1 + d2)))
        d1, d2 = dx[-2], dx[-1]
        coefficients[:, -1] = (d2 / (d1 * (d1 + d2)),
                               -(d2 + d1) / (d1 * d2),
                               (2. * d2 + d1) / (d2 * (d1 + d2)))
    return Stencil(neighbours, coefficients, None)


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
    return (math.isfinite(np.minimum.reduce(values, axis=None))
            and math.isfinite(np.maximum.reduce(values, axis=None)))


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along the last axis; edge windows shrink.

    A column is its window's sum divided by the window's size, with the
    bits of numpy's ``mean`` over a contiguous window: the interior, whose
    windows are whole, from in-place adds of shifted views of all rows at
    once (``_window_sums``, numpy's summation order), and each of the
    ``window // 2`` columns at either edge from ``np.add.reduce`` over its
    window in the rows made C-ordered (copied if they are not). So the
    bits do not depend on the input's memory layout. An integer input is
    averaged as its float copy."""
    values = np.asarray(values, dtype=float)
    half = window // 2
    p = values.shape[-1]
    out = np.empty(values.shape)
    if p >= window:
        _window_sums(values, window, out[..., half:p - half])
        out[..., half:p - half] /= window
    # one call a column, where the shifted views would take one a term
    rows = np.ascontiguousarray(values)
    for i in chain(range(min(half, p)), range(max(half, p - half), p)):
        j = min(i, half, p - 1 - i)
        np.divide(np.add.reduce(rows[..., i - j:i + j + 1], axis=-1),
                  2 * j + 1, out=out[..., i])
    return out


def _window_sums(values: np.ndarray, n: int, out: np.ndarray) -> None:
    """``out[..., c] = values[..., c] + ... + values[..., c + n - 1]`` for
    each of its q columns, summed as ``np.add.reduce`` sums n contiguous
    terms: from zero, one term after another below 8 terms; from 8 to 128
    terms, 8 interleaved partial sums r_j of the terms j, j + 8, ... (up to
    the last multiple of 8), combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the remaining terms in order; above 128,
    the sums of the first n2 terms and of the rest added, n2 being n // 2
    rounded down to a multiple of 8. Term k of every column is the view
    ``values[..., k:k + q]``. The zero that numpy starts from is added to
    the first term: it only turns a -0 sum into +0, as numpy's does."""
    q = out.shape[-1]
    if n > 128:
        n2 = n // 2 - n // 2 % 8
        _window_sums(values[..., :n2 + q - 1], n2, out)
        rest = np.empty(out.shape)
        _window_sums(values[..., n2:], n - n2, rest)
        out += rest
        return
    step = 1 if n < 8 else 8
    full = n - n % step

    def lane(j: int, dest: np.ndarray) -> np.ndarray:
        # the terms j, j + step, ... below ``full`` summed in order into
        # ``dest``, lane 0 from numpy's zero; a lone term is its own view
        terms = [values[..., k:k + q] for k in range(j, full, step)]
        if j == 0:
            np.add(terms[0], 0.0, out=dest)
        elif len(terms) == 1:
            return terms[0]
        else:
            np.add(terms[0], terms.pop(1), out=dest)
        for term in terms[1:]:
            dest += term
        return dest

    lane(0, out)
    if step == 8:
        r = np.empty((3,) + out.shape)
        out += lane(1, r[0])
        out += np.add(lane(2, r[0]), lane(3, r[1]), out=r[0])
        pairs = np.add(lane(4, r[0]), lane(5, r[1]), out=r[0])
        pairs += np.add(lane(6, r[1]), lane(7, r[2]), out=r[1])
        out += pairs
    for k in range(full, n):
        out += values[..., k:k + q]


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

    Each derivative is the grid's kept stencil (``derivative_stencil``),
    applied to a block of ``_PAIR_ELEMENTS // p`` rows at a time, all its
    orders before the next block: the bits of ``np.gradient(values,
    grid.points, axis=-1, edge_order=2)`` applied ``derivative_order``
    times.

    Raises:
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: if the grid's stencil is not finite.
    """
    spec.check_grid(grid)
    if spec.presmoothing_window is not None:
        values = _moving_average(values, spec.presmoothing_window)
    if spec.derivative_order:
        values = _differentiate(values, grid, spec.derivative_order)
    return values


def _differentiate(values: np.ndarray, grid: SamplingGrid,
                   order: int) -> np.ndarray:
    """``order`` derivatives along the last axis by the grid's stencil,
    a block of rows at a time (see ``transform``)."""
    stencil = grid.derivative_stencil()
    values = np.asarray(values, dtype=float)
    p = values.shape[-1]
    rows = values.reshape(-1, p)
    out = np.empty(rows.shape)
    step = max(1, _PAIR_ELEMENTS // p)
    # a gather buffer and, at order 2, the first derivative of the block
    work = np.empty((order, min(step, rows.shape[0]), p))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        size = block.shape[0]
        for d in range(order, 0, -1):
            dest = out[start:start + step] if d == 1 else work[1, :size]
            _three_point(block, stencil, dest, work[0, :size])
            block = dest
    return out.reshape(values.shape)


def _three_point(f: np.ndarray, stencil: Stencil, out: np.ndarray,
                 work: np.ndarray) -> None:
    """One derivative of the (rows, p) block ``f`` into ``out`` by
    ``stencil``; ``work`` is a buffer of the same shape."""
    (left, mid, right), (a, b, c) = stencil.neighbours, stencil.coefficients
    if stencil.spacing is not None:
        np.subtract(f[:, 2:], f[:, :-2], out=out[:, 1:-1])
        out[:, 1:-1] /= stencil.spacing
        # the two edge columns through strided views: columns (0, 1, 2) and
        # (p - 3, p - 2, p - 1), one column each at p = 3, where both edges
        # read the same three
        p = f.shape[1]
        if p == 3:
            f0, f1, f2 = f[:, 0:1], f[:, 1:2], f[:, 2:3]
        else:
            f0, f1, f2 = f[:, 0:p - 2:p - 3], f[:, 1:p - 1:p - 3], f[:, 2::p - 3]
        out[:, ::p - 1] = a * f0 + b * f1 + c * f2
        return
    f.take(left, axis=1, out=out, mode="clip")
    out *= a
    f.take(mid, axis=1, out=work, mode="clip")
    work *= b
    out += work
    f.take(right, axis=1, out=work, mode="clip")
    work *= c
    out += work


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
    only its query once the sample keeps its rows under ``spec``. A
    ``Curve`` is finite and read-only, so its values are read in place,
    with no copy or second scan.

    Raises:
        GridMismatch: if the query is not on the sample grid.
        GridTooShort: if the grid is too short for the derivative order.
    """
    if not query.grid.matches(sample.grid):
        raise GridMismatch("curve 0 is on a different grid")
    cols = _kept_rows(sample, spec)
    return distance_matrix(transform(query.values[None], sample.grid, spec),
                           cols, sample.grid.trapezoid_weights())[0]


@dataclass(frozen=True, eq=False)
class NeighbourRows:
    """Sorted distances from some curves to a sample of ``n`` curves, each
    row cut at its own radius, laid end to end (compressed sparse rows).

    Row r belongs to ``points[r]``, a sample point (``neighbour_rows``) or
    a query (``query_rows``). It holds, ascending with ties in sample
    order, every distance from that curve that is at most ``radii[r]``:
    ``distances[offsets[r]:offsets[r + 1]]``, with their sample indices in
    ``columns``: exactly the leading part of the stable sort of the full
    row. A sample point's row starts with its exact-zero self-distance.
    """

    n: int
    points: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    columns: np.ndarray
    radii: np.ndarray


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
    if h is not None:
        require_bandwidths(h)


def _query_and_sample_rows(sample: FunctionalSample, spec: SemiMetricSpec,
                           queries) -> tuple[np.ndarray, np.ndarray]:
    """An (m, p) query matrix, all finite, and the sample's rows, transformed."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != len(sample.grid):
        raise GridMismatch(
            f"queries of shape {queries.shape} for a {len(sample.grid)}-point grid"
        )
    if queries.size and not _all_finite(queries):
        bad = np.flatnonzero(~np.isfinite(queries).all(axis=1))[0]
        raise ValidationError(f"query row {bad} holds a value that is not finite")
    cols = _kept_rows(sample, spec)
    return transform(queries, sample.grid, spec), cols


def sample_distances(sample: FunctionalSample, spec: SemiMetricSpec,
                     queries: np.ndarray) -> np.ndarray:
    """Semi-metric distances from query curves to the n sample curves.

    ``queries`` is an (m, p) matrix, one curve per row on the sample grid;
    returns the (m, n) distances from each query to each sample curve.
    Only the queries are transformed (``_kept_rows``), row by row, so
    ``sample_distances(sample, spec, sample.values)`` is the sample's own
    (n, n) block, with an exact-zero diagonal.

    Raises:
        GridMismatch: if the query rows do not have one value per grid point.
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: naming the first query row that is not finite.
    """
    return distance_matrix(*_query_and_sample_rows(sample, spec, queries),
                           sample.grid.trapezoid_weights())


def query_rows(sample: FunctionalSample, spec: SemiMetricSpec, queries, *,
               k: int | None = None, h: float | None = None) -> NeighbourRows:
    """The rows of ``sample_distances(sample, spec, queries)``, each cut
    at its radius, its k-th smallest distance or ``h``, without forming
    the block (``_screened_rows``): row j belongs to query j.

    Raises:
        GridMismatch: if the query rows do not have one value per grid point.
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: unless given either a ``k`` in [1, n] or a
            positive, finite ``h``, or for a query row that is not finite.
    """
    if (k is None) == (h is None):
        raise ValidationError("give exactly one of h or k")
    _check_rule(len(sample), k, h)
    rows, cols = _query_and_sample_rows(sample, spec, queries)
    reach = np.full(len(rows), 0.0 if h is None else float(h))
    return NeighbourRows(len(sample), np.arange(len(rows)), *_screened_rows(
        rows, cols, sample.grid.trapezoid_weights(), k, reach))


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
        reach: a radius, or one per row, every row reaches (default 0).

    Raises:
        GridTooShort: if the grid is too short for the derivative order.
        ValidationError: without k and reach, for a k outside [1, n], a
            negative or NaN reach, reaches that are not one per point or a
            point outside the sample.
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
    reach = np.asarray(0.0 if reach is None else reach, dtype=float)
    if reach.ndim and reach.shape != points.shape:
        raise ValidationError(f"need one reach, or one per point ({points.size})")
    reach = np.broadcast_to(reach, points.shape)
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

    One (rows, cols, p) difference buffer, sized for a chunk, serves every
    chunk: the chunk's rows are copied in, each repeated along the columns,
    and ``cols`` subtracted in place, one pass over contiguous memory, with
    the bits of the broadcast ``rows[:, None, :] - cols``.
    """
    m = rows.shape[0]
    out = np.empty((m, cols.shape[0]))
    step = max(1, _CHUNK_ELEMENTS // cols.size)
    diff = np.empty((min(step, m),) + cols.shape)
    for start in range(0, m, step):
        chunk = diff[:min(step, m - start)]
        chunk[...] = rows[start:start + step, None, :]
        chunk -= cols
        out[start:start + step] = _root_weighted_squares(chunk, weights)
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
            k: int | None, reach: np.ndarray):
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

    Refine. The cutoff of a row is reach^2 and, given k, the larger of that
    and its k-th smallest hi (at least k entries have D at or below it, so
    the k-th smallest D is too; a reach of 0 leaves k alone to decide, as
    hi >= D >= 0), times 1 + 4 eps: an entry with lo above the cutoff has D
    more than 4 eps above reach^2 and any k-th smallest D, so its root is
    strictly above the row's radius after rounding. Every other entry is
    marked. A row whose screen is not finite (overflow) is marked whole.
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
        reach_sq = np.square(reach)[:, None]
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
            cutoff = reach_sq[chunk] * margin
            if k is not None:
                hi = g + half
                hi.partition(k - 1, axis=1)
                cutoff = np.maximum(cutoff, hi[:, k - 1:k] * margin)
                del hi
            g -= half  # now the lower bound of each entry
            refine = g <= cutoff
            refine[~np.isfinite(g).all(axis=1)] = True
        del g, half
        i, j = np.nonzero(refine)
        del refine
        i += start
        # an overflowing distance is a legal +inf
        with np.errstate(over="ignore"):
            d = _exact_pairs(rows, cols, weights, i, j)
        yield chunk, i, j, d


def _screened_rows(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                   k: int | None, reach: np.ndarray):
    """The rows of ``distance_matrix(rows, cols, weights)`` up to each
    row's radius, sorted and laid end to end: the ``(offsets, distances,
    columns, radii)`` of ``NeighbourRows``.

    A row's radius is its exact k-th smallest distance or its reach,
    whichever is larger. ``_screen`` marks a superset of the entries within
    it, which are computed by the exact reduction, then sorted by (row,
    distance, column). Every entry above its row's radius is dropped here,
    so each row is exactly the leading part of the row's stable sort,
    whatever the screen's margin. ``neighbour_rows`` and ``query_rows``
    both read their rows from here.
    """
    lengths, distances, columns, limits = [], [], [], []
    for chunk, i, j, d in _screen(rows, cols, weights, k, reach):
        i -= chunk.start
        counts = np.bincount(i, minlength=rows[chunk].shape[0])
        order = _row_order(i, counts, d)
        j, d = j[order], d[order]
        # the larger of each row's reach and its k-th smallest distance
        limit = reach[chunk]
        if k is not None:
            limit = np.maximum(limit, d[np.cumsum(counts) - counts + k - 1])
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


def _row_order(i: np.ndarray, counts: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((d, i))`` for entries listed row by row
    (``i`` ascending, ``counts[r]`` of them in row r): each row's
    distances ascending, ties in the order given. Each row is scattered
    into a padded (rows, longest row) block of +inf and sorted there by a
    stable ``argsort``; a row's own entries sort before its padding, its
    infinite distances too, as they come first. No row is longer than n,
    so the block fits the screen's (rows, n) chunk budget."""
    starts = np.cumsum(counts) - counts
    block = np.full((counts.size, counts.max(initial=0)), np.inf)
    block[i, np.arange(i.size) - starts[i]] = d
    order = block.argsort(axis=1, kind="stable")
    return order[np.arange(block.shape[1]) < counts[:, None]] + starts[i]
