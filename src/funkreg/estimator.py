"""Functional Nadaraya-Watson estimation at a fixed query.

All operations here work on the semi-metric distances from the sample
curves to a query (a vector, an (m, n) block for m queries, or each
query's row cut at its radius), which decouples them from how curves are
represented. The estimate decomposes as a ratio of a response-weighted and
an unweighted kernel sum, both normalized by n * F_hat(h) where F_hat is
the empirical small-ball fraction; the prediction itself is invariant to
that normalizer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBall,
    DegenerateConstants,
    DegenerateGrid,
    DomainError,
    EmptyNeighborhood,
    KernelNotH2Strict,
    MissingSigma2,
    TooFewPoints,
    ValidationError,
    require_bandwidths,
    require_counts,
)
from .kernels import (
    KernelConstants,
    KernelSpec,
    Tau0Model,
    _horner,
    compute_constants,
    eval_kernel_array,
)


@dataclass(frozen=True)
class BandwidthGrid:
    """k-nearest-neighbor bandwidth candidates, ascending in k.

    Each entry pairs a neighbor count k with the radius of the smallest
    closed ball around the query containing k sample curves.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        entries = tuple((int(k), float(h)) for k, h in self.entries)
        if not entries:
            raise ValidationError("bandwidth grid must be nonempty")
        ks = [k for k, _ in entries]
        hs = [h for _, h in entries]
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise ValidationError("neighbor counts must be strictly increasing")
        # a zero or negative radius degenerates; NaN and +-inf break the rule
        if any(-np.inf < h <= 0.0 for h in hs):
            raise DegenerateGrid("bandwidths must be strictly positive")
        require_bandwidths(hs)
        if any(h2 < h1 for h1, h2 in zip(hs, hs[1:])):
            raise ValidationError("bandwidths must be nondecreasing in k")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def hs(self) -> tuple[float, ...]:
        return tuple(h for _, h in self.entries)


@dataclass(frozen=True)
class EstimateResult:
    """A kernel regression estimate with its diagnostic decomposition.

    ``prediction`` equals ``g_hat / f_hat`` whenever ``f_hat > 0``;
    ``f_hat_empirical`` is the empirical small-ball fraction F_hat(h) and
    ``neighbor_count`` equals n * F_hat(h) exactly.
    """

    prediction: float
    g_hat: float
    f_hat: float
    f_hat_empirical: float
    neighbor_count: int
    bandwidth: float
    sigma2_hat: float | None = None


@dataclass(frozen=True)
class BiasVarianceReport:
    """Leading bias and variance terms of the estimator at (h, n)."""

    b_n: float
    variance_leading: float
    constants: KernelConstants
    phi_prime: float
    h: float
    n: int
    f_of_h: float


def knn_radii(distances, k_min: int, k_max: int) -> np.ndarray:
    """The k-th smallest distance of each row, for k = k_min .. k_max.

    Takes distances of shape (..., n) and returns radii of shape
    (..., k_max - k_min + 1): entry k - k_min of a row is the radius of the
    smallest closed ball around that row's query holding k sample curves.

    Raises:
        ValidationError: for a non-integer count or a NaN or negative distance.
        TooFewPoints: unless 1 <= k_min <= k_max <= n (``require_counts``).
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[-1]
    require_counts(1, n, k_min=k_min)
    require_counts(k_min, n, k_max=k_max)
    return _smallest(d, k_min, k_max).copy()


def knn_bandwidths(distances, k_min: int, k_max: int) -> BandwidthGrid:
    """Bandwidth grid of k-nearest-neighbor radii, k = k_min .. k_max.

    ``h_k`` is the k-th smallest distance (1-indexed); ties produce equal
    consecutive radii. This is the one-row case of ``knn_radii``.

    Raises:
        ValidationError: for a non-integer count, a NaN or negative
            distance, or a k_max-th smallest distance of +inf (the
            bandwidth rule, ``errors.require_bandwidths``).
        TooFewPoints: unless 2 <= k_min <= k_max <= n - 1
            (``require_counts``).
        DegenerateGrid: when the k_min-th smallest distance is zero.
    """
    d = np.asarray(distances, dtype=float).ravel()
    n = d.size
    require_counts(2, n - 1, k_min=k_min)
    require_counts(k_min, n - 1, k_max=k_max)
    hs = _smallest(d, k_min, k_max).tolist()
    # the radii are sorted, each nonnegative or +inf (``_check_distances``):
    # a zero comes first and a +inf, which the bandwidth rule rejects, last
    if hs[0] == 0.0:
        raise DegenerateGrid("bandwidths must be strictly positive")
    if hs[-1] == np.inf:
        require_bandwidths(hs[-1])
    # checked, sorted radii at increasing counts: the grid BandwidthGrid
    # would build, without its per-entry checks in Python
    grid = object.__new__(BandwidthGrid)
    object.__setattr__(grid, "entries",
                       tuple(zip(range(k_min, k_max + 1), hs)))
    return grid


def _smallest(d: np.ndarray, k_min: int, k_max: int) -> np.ndarray:
    """The k_min-th to k_max-th smallest entries of each row of the (..., n)
    distances ``d``, a view of a partitioned copy, once ``_check_distances``
    passes. The partition places the exact k_max-th value, and only the
    k_max smallest are sorted."""
    _check_distances(d)
    head = d.copy()
    head.partition(k_max - 1, axis=-1)
    head = head[..., :k_max]
    if k_min < k_max:
        head.sort(axis=-1)
    return head[..., k_min - 1:]


def empirical_sdf(distances, h: float) -> float:
    """Empirical small-ball fraction: share of distances <= h.

    Right-continuous and nondecreasing as a function of h.

    Raises:
        ValidationError: for a NaN radius or a NaN or negative distance.
    """
    if np.isnan(h):
        raise ValidationError("radius must not be NaN")
    d = np.asarray(distances, dtype=float)
    _check_distances(d)
    if d.size == 0:
        return 0.0
    return float(np.count_nonzero(d <= h)) / d.size


def empirical_tau(distances, h: float, s: float) -> float:
    """Empirical conditional small-ball ratio F_hat(h s) / F_hat(h).

    Raises:
        DomainError: if s is outside [0, 1].
        ValidationError: for a radius that is not finite (at h = inf,
            h * 0 is NaN), or a distance that is NaN or negative.
        DegenerateBall: if no distance falls within h.
    """
    if not 0.0 <= s <= 1.0:  # written so that NaN fails
        raise DomainError(f"tau argument must lie in [0, 1], got {s}")
    if not np.isfinite(h):
        raise ValidationError(f"radius must be finite, got {h}")
    denom = empirical_sdf(distances, h)
    if denom == 0.0:
        raise DegenerateBall(f"no observation within radius {h}")
    return empirical_sdf(distances, h * s) / denom


def nadaraya_watson_rows(rows, responses, kernel: KernelSpec, radii,
                         moments: int = 1
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted means of the (n,) responses, one per sample curve,
    at m queries with (m,) positive, finite ``radii``, from rows of
    distances laid end to end as in ``curves.NeighbourRows`` (``n``,
    ``offsets``, ``distances``, ``columns``), such as ``curves.query_rows``.

    Row j, in any order, must hold every distance from query j at or below
    ``radii[j]``; entries above it are dropped, +inf among them. So every
    kept entry has 0 <= d <= h < inf. The kernel weighs the kept entries
    only, and each row's sums add its entries one after another in sample
    order, so a row's fit has the same bits whichever call cut the row, in
    any batch. Returns the (moments, m) means
    sum_i K(d_ji / h_j) y_i^p / sum_i K(d_ji / h_j), p = 1 .. moments, and
    the (m,) kernel totals and neighbor counts. Raises ValidationError for
    mismatched shapes, a radius that is not positive and finite or a
    distance that is NaN or negative, EmptyNeighborhood naming the first
    query with no positive weight.
    """
    h, y = _fit_inputs(len(rows.offsets) - 1, rows.n, radii, responses)
    _check_distances(rows.distances)
    row = np.repeat(np.arange(h.size), np.diff(rows.offsets))
    keep = np.flatnonzero(rows.distances <= h[row])
    # a row lists each sample curve once, so the keys are distinct
    keep = keep[np.argsort(row[keep] * rows.n + rows.columns[keep])]
    return _row_sums(kernel, h, y[rows.columns[keep]], row[keep],
                     rows.distances[keep], moments)


def _fit_inputs(m: int, n: int, radii, responses):
    """Validated (m,) radii, each positive and finite, and (n,) responses,
    else ValidationError. With the distances nonnegative
    (``_check_distances``), every entry a fit keeps, d <= h, then has
    0 <= d <= h < inf."""
    h = np.asarray(radii, dtype=float)
    if h.shape != (m,):
        raise ValidationError(f"need {m} radii, one per query")
    require_bandwidths(h)
    y = np.asarray(responses, dtype=float)
    if y.shape != (n,):
        raise ValidationError(f"need (n,) responses, n = {n}")
    return h, y


def _check_distances(d: np.ndarray) -> None:
    """ValidationError unless every distance is nonnegative or +inf (-0.0
    too): the minimum is NaN at a NaN entry, and negative at a negative one."""
    if not np.minimum.reduce(d, axis=None, initial=np.inf) >= 0.0:
        raise ValidationError("distances must be nonnegative, not NaN")


def _row_sums(kernel: KernelSpec, h, y, row, d, moments: int):
    """The query-side fit on entries d[e] <= h[row[e]] with responses y[e],
    listed row by row in sample order, summed in that order.

    Every entry must have 0 <= d <= h < inf, so u = d / h lies in [0, 1]
    exactly (a correctly rounded quotient of d <= h is at most 1), where
    the kernel is its polynomial: it is evaluated with no clip or mask
    (``kernels._horner``), with the bits of ``eval_kernel_array``.
    """
    w = _horner(kernel.coefficients, d / h[row])
    totals = np.bincount(row, w, minlength=h.size)
    if np.count_nonzero(totals <= 0.0):
        bad = np.flatnonzero(totals <= 0.0)[0]
        raise EmptyNeighborhood(
            f"no positive kernel weight within radius {h[bad]} at query {bad}"
        )
    means = np.empty((moments, h.size))
    for p in range(moments):
        means[p] = np.bincount(row, w * _powers(y, p + 1), minlength=h.size)
    means /= totals
    return means, totals, np.bincount(row, minlength=h.size)


def _dense_fit(distances, responses, kernel: KernelSpec, radii, moments):
    """``_row_sums`` on an (m, n) block's entries within each row's radius,
    which ``np.nonzero`` lists row by row in column order."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2:
        raise ValidationError("need (m, n) distances and (m,) radii")
    h, y = _fit_inputs(*d.shape, radii, responses)
    _check_distances(d)
    row, columns = (d <= h[:, None]).nonzero()
    return _row_sums(kernel, h, y[columns], row, d[row, columns], moments)


def nadaraya_watson_batch(distances, responses, kernel: KernelSpec,
                          radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted means of the (n,) responses at m queries at once,
    from an (m, n) block whose row j holds the distances from the n sample
    curves to query j: ``nadaraya_watson_rows`` (arguments, errors) on the
    block's entries at or below each row's radius, which ``np.nonzero``
    lists in sample order. Returns the (m,) predictions, kernel totals and
    neighbor counts.
    """
    means, totals, counts = _dense_fit(distances, responses, kernel, radii, 1)
    return means[0], totals, counts


def _query_row(distances) -> np.ndarray:
    """One query's (n,) distances as a (1, n) block, else ValidationError."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1:
        raise ValidationError("need (n,) distances, one per sample curve")
    return d[None]


def nadaraya_watson(distances, responses, kernel: KernelSpec,
                    h: float) -> EstimateResult:
    """Kernel-weighted mean of the responses at bandwidth h.

    The one-query case of ``nadaraya_watson_batch``.

    Args:
        distances: (n,) semi-metric distances from the sample curves to the
            query, each nonnegative or +inf.
        responses: (n,) scalar responses, in the order of the distances.
        kernel: weighting kernel, evaluated at distance / h.
        h: bandwidth, strictly positive and finite.

    Raises:
        ValidationError: unless distances and responses are both (n,), for
            an h that is not positive and finite, or for a NaN or negative
            distance.
        EmptyNeighborhood: when no observation receives positive weight.
    """
    d = _query_row(distances)
    predictions, totals, counts = nadaraya_watson_batch(
        d, responses, kernel, [h])
    (prediction,), (total,), (count,) = (
        predictions.tolist(), totals.tolist(), counts.tolist())
    return EstimateResult(
        prediction=prediction,
        g_hat=prediction * total / count,
        f_hat=total / count,
        f_hat_empirical=count / d.size,
        neighbor_count=count,
        bandwidth=float(h),
    )


#: Element budget of the padded rows ``_prefix_sums`` sums at once.
_PREFIX_ELEMENTS = 1 << 20


def _powers(x: np.ndarray, p: int) -> np.ndarray:
    """x**p by repeated products: the bits of ``x ** p`` for p <= 2, and for
    any p exact under scaling by a power of two, which libm's ``pow`` is
    not, so a fit does not depend on the smoother's ``_unit``."""
    if p == 0:
        return np.ones_like(x)
    out = x
    for _ in range(p - 1):
        out = out * x
    return out


def _prefix_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each row's cumulative sums with a leading zero, rows laid end to end:
    row r's ``offsets[r + 1] - offsets[r] + 1`` sums start at
    ``offsets[r] + r``.

    Rows are padded with zeros to a common length, a few at a time, and
    summed along the row as ``np.cumsum`` does, one addition after another,
    so each sum has the bits of the same row's cumsum on its own.
    """
    lengths = np.diff(offsets)
    out = np.empty(values.size + lengths.size)
    width = int(lengths.max(initial=0))
    step = max(1, _PREFIX_ELEMENTS // (width + 1))
    for start in range(0, lengths.size, step):
        length = lengths[start:start + step]
        padded = np.zeros((length.size, width + 1))
        held = np.arange(width + 1) < length[:, None] + 1
        held[:, 0] = False
        padded[held] = values[offsets[start]:offsets[start + length.size]]
        held[:, 0] = True
        first = offsets[start] + start
        out[first:first + length.sum() + length.size] = (
            np.cumsum(padded, axis=1)[held])
    return out


class InsampleSmoother:
    """Nadaraya-Watson fits at sample points, at any radii up to each
    point's held radius.

    Takes ``curves.NeighbourRows``: for each of its points, the sorted
    distances to the whole sample up to a radius, which start with the
    exact-zero self-distance. Every kernel is a polynomial on [0, 1], so at
    radius h the kernel sums of a row are

        sum_p c_p h^-p S_p(row, count),   count = #{d <= h},

    where S_p(row, m) sums d^p y (numerator) or d^p (denominator) over the
    m smallest distances of the row. These prefix sums are kept per nonzero
    coefficient, so any radius costs one exact search plus a lookup per
    coefficient (the updating formula for polynomial kernels, Fan & Marron
    1994; Seifert et al. 1994). A row is the leading part of the stable
    sort of the point's full row, so a fit at a radius up to the row's
    held radius has the bits of a fit on the full row.

    The self term bounds the denominator below by K(0), the kernel's
    maximum, so the rounding error of a prediction stays near
    eps * count * sum|c_p| / K(0) times max|y|. A query outside the sample
    has no such bound, and is smoothed directly by
    ``nadaraya_watson_rows``.
    """

    def __init__(self, neighbours, responses, kernel: KernelSpec):
        y = np.asarray(responses, dtype=float)
        n = y.size
        offsets = np.asarray(neighbours.offsets)
        d = np.asarray(neighbours.distances, dtype=float)
        columns = np.asarray(neighbours.columns)
        points = np.asarray(neighbours.points)
        lengths = np.diff(offsets)
        if (y.shape != (neighbours.n,)
                or offsets.shape != (points.size + 1,)
                or offsets[0] != 0 or offsets[-1] != d.size
                or columns.shape != d.shape
                or np.shape(neighbours.radii) != points.shape):
            raise ValidationError(
                "neighbour rows must be laid end to end, one response per point"
            )
        if any(a.size and not (0 <= a.min() and a.max() < n)
               for a in (columns, points)):
            raise ValidationError(f"neighbour points must lie in [0, {n})")
        _check_distances(d)
        row_of = np.repeat(np.arange(points.size), lengths)
        if (np.any(lengths < 1) or np.any(d[offsets[:-1]] != 0.0)
                or np.any((d[1:] < d[:-1]) & (row_of[1:] == row_of[:-1]))):
            raise ValidationError(
                "each neighbour row must be sorted and start with an exact zero"
            )
        self.points = points
        self._offsets = offsets
        self._held = np.asarray(neighbours.radii, dtype=float)
        # (row, distance) in lexicographic order, as numpy orders complex
        # numbers, so one search finds every count; set part by part, as
        # row + 1j * d would give nan + inf j at an infinite distance
        self._keys = row_of.astype(complex)
        self._keys.imag = d
        # Powers are taken of distances scaled by a power of two (exact) that
        # brings the largest finite one below 1, so no d^p overflows. Below
        # 2^-1023 the power would overflow; 2^1023 already scales such a
        # subnormal largest distance below 1/2.
        self._unit = np.ldexp(1.0, min(1023, -int(np.frexp(
            d.max(initial=0.0, where=d < np.inf))[1])))
        unit_sorted = d * self._unit
        y_sorted = y[columns]
        # (p, c_p, prefix sums of d^p y, prefix sums of d^p) per c_p != 0;
        # the sums past a row's first +inf entry, never read, may be NaN
        self._terms = []
        with np.errstate(invalid="ignore"):
            for p, c in enumerate(kernel.coefficients):
                if c == 0.0:
                    continue
                powers = _powers(unit_sorted, p)
                self._terms.append(
                    (p, c, _prefix_sums(powers * y_sorted, offsets),
                     _prefix_sums(powers, offsets)))
        # Below this radius h^deg, in scaled units, nears the subnormal range
        # and the prefix sums lose their relative precision.
        deg = self._terms[-1][0] if self._terms else 0
        self.min_radius = (
            (n * np.finfo(float).tiny) ** (1.0 / deg) / self._unit if deg else 0.0
        )

    def __len__(self) -> int:
        return self.points.size

    def fit(self, radii, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and neighbor counts at one radius per fitted row.

        ``radii[r]`` is the radius at which smoother row ``rows[r]`` (sample
        point ``points[rows[r]]``) is fitted; ``rows`` defaults to every row
        in order, and repeats a row to fit it at several radii. Both radii
        and outputs have the shape of ``rows``. The neighbor count is
        #{d <= h}, the support of the kernel. A fit depends only on its
        point and radius, so it has the same bits whichever rows are fitted
        together.

        Raises:
            ValidationError: for radii not shaped as ``rows``, or a radius
                that is not positive and finite, is below ``min_radius``
                (about 1e-100 of the largest held distance for a cubic
                kernel, none for the uniform one) or is above its row's held
                radius.
            EmptyNeighborhood: naming the first point with no positive weight.
        """
        radii = np.asarray(radii, dtype=float)
        rows = (np.arange(len(self)) if rows is None
                else np.asarray(rows, dtype=np.intp))
        if rows.ndim != 1 or radii.shape != rows.shape:
            raise ValidationError("need one radius per fitted row")
        if rows.size and not (0 <= rows.min() and rows.max() < len(self)):
            raise ValidationError(f"rows must lie in [0, {len(self)})")
        require_bandwidths(radii)
        bad = np.flatnonzero(radii < self.min_radius)
        if bad.size:
            raise ValidationError(
                f"bandwidth {radii[bad[0]]} is below {self.min_radius}, "
                "the smallest radius the in-sample smoother resolves"
            )
        bad = np.flatnonzero(radii > self._held[rows])
        if bad.size:
            r = bad[0]
            raise ValidationError(
                f"bandwidth {radii[r]} at sample point "
                f"{self.points[rows[r]]} is above its held radius "
                f"{self._held[rows[r]]}"
            )
        # rows + 1j * radii would give nan + inf j at an infinite radius
        needles = np.empty(radii.shape, dtype=complex)
        needles.real = rows
        needles.imag = radii
        found = self._keys.searchsorted(needles, side="right")
        counts = found - self._offsets[rows]
        # each row's prefix sums start at offsets[row] + row
        at = found + rows
        num = np.zeros(radii.shape)
        den = np.zeros(radii.shape)
        scaled = radii * self._unit
        for p, c, prefix_y, prefix_1 in self._terms:
            scale = c / _powers(scaled, p)
            num += scale * prefix_y[at]
            den += scale * prefix_1[at]
        bad = np.flatnonzero(den <= 0.0)
        if bad.size:
            r = bad[0]
            raise EmptyNeighborhood(
                f"at sample point {self.points[rows[r]]}: no positive kernel "
                f"weight within radius {radii[r]}"
            )
        return num / den, counts


def plugin_variance(first, second):
    """E(Y^2 | ball) - E(Y | ball)^2 from the two kernel estimates, clamped
    at zero since the difference can round negative in finite samples.
    Only a negative difference is clamped: a NaN, from moments that both
    overflowed, stays NaN for the interval's check to refuse."""
    diff = np.asarray(second) - np.asarray(first) * first
    return np.where(diff <= 0.0, 0.0, diff)


def estimate_sigma2(distances, responses, kernel: KernelSpec,
                    h: float) -> float:
    """Plug-in conditional variance: E(Y^2 | ball) - E(Y | ball)^2.

    Both conditional expectations are weighted means over one set of kernel
    weights; the difference is clamped at zero (``plugin_variance``), and
    is NaN when both overflow. Raises ValidationError unless distances and
    responses are both (n,), for an h that is not positive and finite, or
    for a NaN or negative distance.
    """
    means = _dense_fit(_query_row(distances), responses, kernel, [h], 2)[0]
    return float(plugin_variance(means[0], means[1])[0])


def interval_half_widths(sigma2_hat, neighbor_counts, kernel: KernelSpec,
                         tau0: Tau0Model, level: float) -> np.ndarray:
    """Half-widths z * sqrt(m2 * sigma2_hat / (count * m1^2)) of the
    asymptotic-normality intervals, elementwise over arrays of plug-in
    variances and neighbor counts (count = n * F_hat(h)).

    The constants are computed once per call; z is the standard normal
    quantile at (1 + level) / 2, from ``statistics.NormalDist.inv_cdf``
    (Wichura's algorithm AS 241).

    Raises:
        KernelNotH2Strict: if K(1) = 0 (the limit constants degenerate).
        DegenerateBall: for a neighbor count that is not positive.
        DegenerateConstants: if m1 <= 0.
        ValidationError: for a level outside (0, 1), or a sigma2_hat that
            is not nonnegative and finite.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must lie strictly in (0, 1)")
    constants = compute_constants(kernel, tau0)
    if not kernel.h2_strict:
        raise KernelNotH2Strict(
            f"kernel {kernel.family} has K(1) = 0; switch to a kernel with "
            "K(1) > 0 (e.g. uniform) for confidence intervals"
        )
    counts = np.asarray(neighbor_counts)
    if np.count_nonzero(counts <= 0):
        raise DegenerateBall("confidence interval needs F_hat(h) > 0")
    if constants.m1 <= 0.0:
        raise DegenerateConstants(f"m1 = {constants.m1} is not positive")
    sigma2 = np.asarray(sigma2_hat, dtype=float)
    if np.count_nonzero(np.isfinite(sigma2) & (sigma2 >= 0.0)) < sigma2.size:
        raise ValidationError("sigma2_hat must be nonnegative and finite")
    # statistics (with decimal and fractions) adds about 5 ms to a cold
    # import; only intervals need it
    from statistics import NormalDist

    z = NormalDist().inv_cdf((1.0 + float(level)) / 2.0)
    return z * np.sqrt(
        constants.m2 * sigma2
        / (counts * constants.m1 ** 2)
    )


def confidence_interval(result: EstimateResult, kernel: KernelSpec,
                        tau0: Tau0Model, level: float) -> tuple[float, float]:
    """Asymptotic-normality confidence interval around the prediction.

    Half-width is z * sqrt(m2 * sigma2_hat / (count * m1^2)) with
    count = n * F_hat(h) (``interval_half_widths``); for the uniform kernel
    m1 = m2 = 1 and the interval reduces to prediction +- z *
    sqrt(sigma2_hat / count). The interval is bias-uncorrected, which is
    honest only in the undersmoothing regime where h * sqrt(n F(h)) -> 0.

    Raises:
        MissingSigma2: if the result carries no variance plug-in.
        KernelNotH2Strict, DegenerateBall, DegenerateConstants,
            ValidationError: as ``interval_half_widths``.
    """
    if result.sigma2_hat is None:
        raise MissingSigma2("estimate carries no sigma2_hat plug-in")
    half = float(interval_half_widths(
        result.sigma2_hat, result.neighbor_count, kernel, tau0, level
    ))
    return (result.prediction - half, result.prediction + half)


def theoretical_bias_variance(phi_prime: float, sigma2: float, h: float,
                              n: int, f_of_h: float,
                              constants: KernelConstants) -> BiasVarianceReport:
    """Leading-term predictions: bias phi'(0) (m0/m1) h and variance
    (m2/m1^2) sigma^2 / (n F(h)).

    Raises:
        DegenerateConstants: when m1 <= 0.
        ValidationError: for a sigma2 that is not nonnegative and finite,
            an h that is not positive and finite, an n that is not an
            integer, f_of_h outside (0, 1] or a non-finite phi_prime (NaN
            included).
        TooFewPoints: for an n below 1 (``require_counts``).
    """
    if constants.m1 <= 0.0:
        raise DegenerateConstants(f"m1 = {constants.m1} is not positive")
    # each check written so that NaN fails
    if not 0.0 <= sigma2 < np.inf:
        raise ValidationError("sigma2 must be nonnegative and finite")
    require_bandwidths(h)
    require_counts(1, n=n)
    if not 0.0 < f_of_h <= 1.0:
        raise ValidationError(f"f_of_h must lie in (0, 1], got {f_of_h}")
    if not np.isfinite(phi_prime):
        raise ValidationError("phi_prime must be finite")
    b_n = phi_prime * (constants.m0 / constants.m1) * h
    variance = (constants.m2 / constants.m1 ** 2) * sigma2 / (n * f_of_h)
    return BiasVarianceReport(
        b_n=b_n,
        variance_leading=variance,
        constants=constants,
        phi_prime=phi_prime,
        h=float(h),
        n=int(n),
        f_of_h=float(f_of_h),
    )


def estimate_phi_prime(distances, responses, kernel: KernelSpec,
                       h_pilot: float) -> float:
    """Diagnostic slope of the regression against distance near the query.

    Fits a kernel-weighted least-squares line to (d_i, y_i) over the points
    inside the pilot ball and returns its slope, an estimate of the
    derivative at zero of E[r(X) - r(chi) | distance = s]. Exact for
    responses linear in distance. This is a pragmatic stand-in: no canonical
    estimator exists for this quantity.

    Raises:
        ValidationError: for unequal lengths, a distance that is NaN or
            negative (``_check_distances``) or an h_pilot that is not
            positive and finite.
        TooFewPoints: with fewer than 10 points inside the pilot ball.
        EmptyNeighborhood: if no in-ball point gets positive weight.
    """
    d = np.asarray(distances, dtype=float)
    y = np.asarray(responses, dtype=float)
    if d.shape != y.shape:
        raise ValidationError("distances and responses must have equal length")
    _check_distances(d)
    require_bandwidths(h_pilot)
    inside = d <= h_pilot
    if int(np.count_nonzero(inside)) < 10:
        raise TooFewPoints(
            f"phi'(0) estimation needs >= 10 points within {h_pilot}, "
            f"got {int(np.count_nonzero(inside))}"
        )
    d_in = d[inside]
    y_in = y[inside]
    w = eval_kernel_array(kernel, d_in / h_pilot)
    total = float(np.sum(w))
    if total <= 0.0:
        raise EmptyNeighborhood("all pilot-ball points have zero weight")
    d_bar = float(np.dot(w, d_in)) / total
    y_bar = float(np.dot(w, y_in)) / total
    s_dd = float(np.dot(w, (d_in - d_bar) ** 2))
    if s_dd == 0.0:
        return 0.0
    s_dy = float(np.dot(w, (d_in - d_bar) * (y_in - y_bar)))
    return s_dy / s_dd
