"""Functional Nadaraya-Watson estimation at a fixed query.

All operations here work on the vector of semi-metric distances from the
sample curves to a query, or on an (m, n) block of such rows for m queries
at once, which decouples them from how curves are represented. The
estimate decomposes as a ratio of a response-weighted and an unweighted
kernel sum, both normalized by n * F_hat(h) where F_hat is the empirical
small-ball fraction; the prediction itself is invariant to that
normalizer.
"""

from dataclasses import dataclass
from functools import lru_cache

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
    require_integers,
)
from .kernels import (
    KernelConstants,
    KernelSpec,
    Tau0Model,
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
        if any(h <= 0 for h in hs):
            raise DegenerateGrid("bandwidths must be strictly positive")
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
    ``np.partition`` places the exact k_max-th value, and only the k_max
    smallest are sorted.

    Raises:
        ValidationError: for a count that is not an integer.
        TooFewPoints: unless 1 <= k_min <= k_max <= n.
    """
    require_integers(k_min=k_min, k_max=k_max)
    d = np.asarray(distances, dtype=float)
    n = d.shape[-1]
    if not 1 <= k_min <= k_max <= n:
        raise TooFewPoints(
            f"need 1 <= k_min <= k_max <= n with n = {n}, "
            f"got k_min = {k_min}, k_max = {k_max}"
        )
    head = np.partition(d, k_max - 1, axis=-1)[..., :k_max]
    if k_min < k_max:
        head.sort(axis=-1)
    return head[..., k_min - 1:].copy()


def knn_bandwidths(distances, k_min: int, k_max: int) -> BandwidthGrid:
    """Bandwidth grid of k-nearest-neighbor radii, k = k_min .. k_max.

    ``h_k`` is the k-th smallest distance (1-indexed); ties produce equal
    consecutive radii. This is the one-row case of ``knn_radii``.

    Raises:
        ValidationError: for a count that is not an integer.
        TooFewPoints: unless 2 <= k_min <= k_max <= n - 1.
    """
    require_integers(k_min=k_min, k_max=k_max)
    d = np.asarray(distances, dtype=float).ravel()
    n = d.size
    if not (2 <= k_min <= k_max <= n - 1):
        raise TooFewPoints(
            f"need 2 <= k_min <= k_max <= n - 1 with n = {n}, "
            f"got k_min = {k_min}, k_max = {k_max}"
        )
    hs = knn_radii(d, k_min, k_max).tolist()
    return BandwidthGrid(tuple(zip(range(k_min, k_max + 1), hs)))


def empirical_sdf(distances, h: float) -> float:
    """Empirical small-ball fraction: share of distances <= h.

    Right-continuous and nondecreasing as a function of h.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        return 0.0
    return float(np.count_nonzero(d <= h)) / d.size


def empirical_tau(distances, h: float, s: float) -> float:
    """Empirical conditional small-ball ratio F_hat(h s) / F_hat(h).

    Raises:
        DomainError: if s is outside [0, 1].
        DegenerateBall: if no distance falls within h.
    """
    if not 0.0 <= s <= 1.0:  # written so that NaN fails
        raise DomainError(f"tau argument must lie in [0, 1], got {s}")
    denom = empirical_sdf(distances, h)
    if denom == 0.0:
        raise DegenerateBall(f"no observation within radius {h}")
    return empirical_sdf(distances, h * s) / denom


def kernel_weights(distances, kernel: KernelSpec,
                   radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel weights of m queries at once, for any number of responses.

    Args:
        distances: (m, n) block; row j holds the semi-metric distances from
            the n sample curves to query j.
        kernel: weighting kernel, evaluated at distance / radius.
        radii: (m,) bandwidths, one per query, strictly positive.

    Returns:
        The (m, n) weights K(d_ji / h_j), the per-query kernel totals
        sum_i K(d_ji / h_j) and neighbor counts #{i : d_ji <= h_j}.

    Raises:
        ValidationError: for mismatched shapes or a radius that is not
            positive.
        EmptyNeighborhood: naming the first query with no positive weight.
    """
    d = np.asarray(distances, dtype=float)
    h = np.asarray(radii, dtype=float)
    if d.ndim != 2 or h.shape != d.shape[:1]:
        raise ValidationError("need (m, n) distances and (m,) radii")
    if not (h > 0.0).all():
        bad = np.flatnonzero(~(h > 0.0))[0]
        raise ValidationError(f"bandwidth must be positive, got {h[bad]}")
    column = h[:, None]
    # A distance far above a tiny radius overflows to inf, which the kernel
    # maps to weight 0, as it does any ratio beyond 1.
    with np.errstate(over="ignore"):
        u = d / column
    w = eval_kernel_array(kernel, u)
    totals = w.sum(axis=1)
    if (totals <= 0.0).any():
        bad = np.flatnonzero(totals <= 0.0)[0]
        raise EmptyNeighborhood(
            f"no positive kernel weight within radius {h[bad]} at query {bad}"
        )
    return w, totals, (d <= column).sum(axis=1)


def weighted_means(weights, totals, responses) -> np.ndarray:
    """Per-query kernel-weighted means of (n,) responses shared by every
    query, or (m, n) with one row per query, from ``kernel_weights``.

    One dot product per row, a stack of (1, n) @ (n, 1) products: each row
    rounds as np.dot does, whatever the batch (a gemv's rounding depends on
    the block height), so moments fitted from one set of weights keep the
    bits of separate fits.
    """
    y = np.asarray(responses, dtype=float)
    if y.shape not in (weights.shape[1:], weights.shape):
        raise ValidationError("need (n,) or (m, n) responses for (m, n) weights")
    return np.matmul(weights[:, None, :], y[..., None])[:, 0, 0] / totals


def nadaraya_watson_batch(distances, responses, kernel: KernelSpec,
                          radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel-weighted means of the responses at m queries at once.

    Args:
        distances: (m, n) block; row j holds the semi-metric distances from
            the n sample curves to query j.
        responses: (n,) responses shared by every query, or (m, n) with one
            row of responses per query.
        kernel: weighting kernel, evaluated at distance / radius.
        radii: (m,) bandwidths, one per query, strictly positive.

    Returns:
        Per-query predictions, kernel totals sum_i K(d_ji / h_j), and
        neighbor counts #{i : d_ji <= h_j}, each of shape (m,).

    Raises:
        ValidationError: for mismatched shapes or a radius that is not
            positive.
        EmptyNeighborhood: naming the first query with no positive weight.
    """
    w, totals, counts = kernel_weights(distances, kernel, radii)
    return weighted_means(w, totals, responses), totals, counts


def nadaraya_watson(distances, responses, kernel: KernelSpec,
                    h: float) -> EstimateResult:
    """Kernel-weighted mean of the responses at bandwidth h.

    The one-query case of ``nadaraya_watson_batch``.

    Args:
        distances: semi-metric distances from the sample curves to the query.
        responses: scalar responses, same length and order as distances.
        kernel: weighting kernel, evaluated at distance / h.
        h: bandwidth, strictly positive.

    Raises:
        EmptyNeighborhood: when no observation receives positive weight.
    """
    d = np.asarray(distances, dtype=float)
    y = np.asarray(responses, dtype=float)
    if d.shape != y.shape:
        raise ValidationError("distances and responses must have equal length")
    predictions, totals, counts = nadaraya_watson_batch(
        d.reshape(1, -1), y.reshape(-1), kernel, [h]
    )
    total = float(totals[0])
    count = int(counts[0])
    prediction = float(predictions[0])
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
    ``nadaraya_watson_batch``.
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
        row_of = np.repeat(np.arange(points.size), lengths)
        if (np.any(lengths < 1) or np.any(d < 0.0)
                or np.any(d[offsets[:-1]] != 0.0)
                or np.any((np.diff(d) < 0.0) & (np.diff(row_of) == 0))):
            raise ValidationError(
                "each neighbour row must be sorted, nonnegative and start "
                "with an exact zero"
            )
        self.points = points
        self._offsets = offsets
        self._sorted = d
        self._held = np.asarray(neighbours.radii, dtype=float)
        # (row, distance) in lexicographic order, as numpy orders complex
        # numbers, so one search finds every count
        self._keys = row_of + 1j * d
        # Powers are taken of distances scaled by a power of two (exact) that
        # brings the largest held one below 1, so no d^p overflows. Below
        # 2^-1023 the power would overflow; 2^1023 already scales such a
        # subnormal largest distance below 1/2.
        self._unit = np.ldexp(
            1.0, min(1023, -int(np.frexp(d.max(initial=0.0))[1])))
        unit_sorted = d * self._unit
        y_sorted = y[columns]
        # (p, c_p, prefix sums of d^p y, prefix sums of d^p) per c_p != 0
        self._terms = []
        for p, c in enumerate(kernel.coefficients):
            if c == 0.0:
                continue
            powers = _powers(unit_sorted, p)
            self._terms.append((p, c, _prefix_sums(powers * y_sorted, offsets),
                                _prefix_sums(powers, offsets)))
        # Below this radius h^deg, in scaled units, nears the subnormal range
        # and the prefix sums lose their relative precision.
        deg = self._terms[-1][0] if self._terms else 0
        self.min_radius = (
            (n * np.finfo(float).tiny) ** (1.0 / deg) / self._unit if deg else 0.0
        )

    def __len__(self) -> int:
        return self.points.size

    def knn_radii(self, k: int) -> np.ndarray:
        """Each row's k-th smallest distance, its own point excluded.

        Each row's smallest entry is its exact-zero self-distance, so
        entry k of the sorted row is the k-th smallest distance to the
        other points, also when other points tie with it at zero.

        Raises:
            ValidationError: for k < 1, or a row holding k or fewer
                distances.
        """
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        lengths = np.diff(self._offsets)
        if np.any(lengths <= k):
            available = int(lengths.min()) - 1
            raise ValidationError(
                f"k = {k} exceeds {available} available distances"
            )
        return self._sorted[self._offsets[:-1] + k]

    def fit(self, radii, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and neighbor counts at radii of shape (len(rows), m).

        Row r of ``radii`` holds the m radii at which smoother row
        ``rows[r]`` (sample point ``points[rows[r]]``) is fitted; ``rows``
        defaults to every row in order, and may repeat a row. Both outputs
        have the shape of ``radii``. The neighbor count is #{d <= h}, the
        support of the kernel. A fit depends only on its point and radius,
        so it has the same bits whichever rows are fitted together.

        Raises:
            ValidationError: for a radius that is not positive, is below
                ``min_radius`` (about 1e-100 of the largest held distance
                for a cubic kernel, none for the uniform one) or is above
                its row's held radius.
            EmptyNeighborhood: naming the first point with no positive weight.
        """
        radii = np.asarray(radii, dtype=float)
        rows = (np.arange(len(self)) if rows is None
                else np.asarray(rows, dtype=np.intp))
        if rows.ndim != 1 or radii.ndim != 2 or radii.shape[0] != rows.size:
            raise ValidationError("radii must have shape (len(rows), m)")
        if rows.size and not (0 <= rows.min() and rows.max() < len(self)):
            raise ValidationError(f"rows must lie in [0, {len(self)})")
        bad = np.flatnonzero(~(radii > 0.0))
        if bad.size:
            raise ValidationError(
                f"bandwidth must be positive, got {radii.flat[bad[0]]}"
            )
        bad = np.flatnonzero(radii < self.min_radius)
        if bad.size:
            raise ValidationError(
                f"bandwidth {radii.flat[bad[0]]} is below {self.min_radius}, "
                "the smallest radius the in-sample smoother resolves"
            )
        bad = np.argwhere(radii > self._held[rows, None])
        if bad.size:
            r, col = bad[0]
            raise ValidationError(
                f"bandwidth {radii[r, col]} at sample point "
                f"{self.points[rows[r]]} is above its held radius "
                f"{self._held[rows[r]]}"
            )
        needles = np.empty(radii.shape, dtype=complex)
        needles.real = rows[:, None]
        needles.imag = radii
        first = self._offsets[rows][:, None]
        counts = self._keys.searchsorted(needles, side="right")
        counts -= first
        # each row's prefix sums start at offsets[row] + row
        at = counts + (first + rows[:, None])
        num = np.zeros(radii.shape)
        den = np.zeros(radii.shape)
        scaled = radii * self._unit
        for p, c, prefix_y, prefix_1 in self._terms:
            scale = c / _powers(scaled, p)
            num += scale * prefix_y[at]
            den += scale * prefix_1[at]
        bad = np.argwhere(den <= 0.0)
        if bad.size:
            r, col = bad[0]
            raise EmptyNeighborhood(
                f"at sample point {self.points[rows[r]]}: no positive kernel "
                f"weight within radius {radii[r, col]}"
            )
        return num / den, counts


def plugin_variance(first, second):
    """E(Y^2 | ball) - E(Y | ball)^2 from the two kernel estimates, clamped
    at zero since the difference can round negative in finite samples."""
    diff = np.asarray(second) - np.asarray(first) * first
    return np.where(diff > 0.0, diff, 0.0)


def estimate_sigma2(distances, responses, kernel: KernelSpec,
                    h: float) -> float:
    """Plug-in conditional variance: E(Y^2 | ball) - E(Y | ball)^2.

    Both conditional expectations are weighted means over one set of
    ``kernel_weights``; the difference is clamped at zero
    (``plugin_variance``).
    """
    d = np.asarray(distances, dtype=float).reshape(1, -1)
    y = np.asarray(responses, dtype=float).reshape(-1)
    if d.shape[1:] != y.shape:
        raise ValidationError("distances and responses must have equal length")
    w, totals, _ = kernel_weights(d, kernel, [h])
    first = weighted_means(w, totals, y)
    return float(plugin_variance(first, weighted_means(w, totals, y * y))[0])


def interval_half_widths(sigma2_hat, neighbor_counts, kernel: KernelSpec,
                         tau0: Tau0Model, level: float) -> np.ndarray:
    """Half-widths z * sqrt(m2 * sigma2_hat / (count * m1^2)) of the
    asymptotic-normality intervals, elementwise over arrays of plug-in
    variances and neighbor counts (count = n * F_hat(h)).

    The constants are computed once per call, and the normal quantile z
    once per level (``_normal_quantile``).

    Raises:
        KernelNotH2Strict: if K(1) = 0 (the limit constants degenerate).
        DegenerateBall: for a neighbor count that is not positive.
        DegenerateConstants: if m1 <= 0.
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
    if np.any(counts <= 0):
        raise DegenerateBall("confidence interval needs F_hat(h) > 0")
    if constants.m1 <= 0.0:
        raise DegenerateConstants(f"m1 = {constants.m1} is not positive")
    z = _normal_quantile(float(level))
    return z * np.sqrt(
        constants.m2 * np.asarray(sigma2_hat, dtype=float)
        / (counts * constants.m1 ** 2)
    )


@lru_cache
def _normal_quantile(level: float) -> float:
    """The standard normal quantile at (1 + level) / 2, kept per level."""
    # scipy.stats costs most of a cold import; only intervals need it
    from scipy.stats import norm

    return float(norm.ppf((1.0 + level) / 2.0))


def confidence_interval(result: EstimateResult, kernel: KernelSpec,
                        tau0: Tau0Model, level: float) -> tuple[float, float]:
    """Asymptotic-normality confidence interval around the prediction.

    Half-width is z * sqrt(m2 * sigma2_hat / (count * m1^2)) with
    count = n * F_hat(h) (``interval_half_widths``); for the uniform kernel
    m1 = m2 = 1 and the interval reduces to prediction +- z *
    sqrt(sigma2_hat / count). The interval is bias-uncorrected, which is
    honest only in the undersmoothing regime where h * sqrt(n F(h)) -> 0.

    Raises:
        KernelNotH2Strict: if K(1) = 0 (the limit constants degenerate).
        MissingSigma2: if the result carries no variance plug-in.
    """
    if result.sigma2_hat is None:
        raise MissingSigma2("estimate carries no sigma2_hat plug-in")
    if result.f_hat_empirical <= 0.0:
        raise DegenerateBall("confidence interval needs F_hat(h) > 0")
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
            integer or is below 1, f_of_h outside (0, 1] or a non-finite
            phi_prime (NaN included).
    """
    if constants.m1 <= 0.0:
        raise DegenerateConstants(f"m1 = {constants.m1} is not positive")
    # each check written so that NaN fails
    if not 0.0 <= sigma2 < np.inf:
        raise ValidationError("sigma2 must be nonnegative and finite")
    require_integers(n=n)
    if not (0.0 < h < np.inf and n > 0 and 0.0 < f_of_h <= 1.0):
        raise ValidationError(
            "need finite h > 0, n > 0, and f_of_h in (0, 1]")
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
        ValidationError: if distances and responses differ in length.
        TooFewPoints: with fewer than 10 points inside the pilot ball.
        EmptyNeighborhood: if no in-ball point gets positive weight.
    """
    d = np.asarray(distances, dtype=float)
    y = np.asarray(responses, dtype=float)
    if d.shape != y.shape:
        raise ValidationError("distances and responses must have equal length")
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
