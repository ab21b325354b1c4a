"""Wild bootstrap for bandwidth selection with curve predictors.

The resampling scheme: fit in-sample residuals at a candidate bandwidth h,
multiply each by a two-point random sign/scale law matching its first three
moments (0, residual^2, residual^3), rebuild responses around an
oversmoothed pilot fit, re-estimate at h, and score the squared discrepancy
against the pilot value at the query. The bandwidth minimizing the average
over replications (and, optionally, over a test set of queries) is selected.

Randomness follows the stream policy of ``simulation``: replication b of a
run seeded with s draws its uniforms from the stream (s, b), indexed by each
point's key (its original sample index by default). Results are therefore
bit-stable and independent of evaluation order.

Cost: at query j only the points of its k_max-ball
S_j = {i : d(query j, X_i) <= h_{j, k_max}} get a positive weight at any
candidate radius, so only their residuals can move its score. The query
block comes first: its distances are screened at max(k_g, k_max)
neighbours (``curves.sample_distances``), and its radii define U, the
union of S_1 .. S_J, at most J k_max points whatever n is, and the reach
of each point of U: the largest h_{j, k_max} of a ball that holds it, or
its own pilot radius. Only the rows of U are read, each up to its reach,
from one screen of those rows against the sample
(``curves.neighbour_rows``), and the in-sample smoother
(``InsampleSmoother``) prefix-sums them: no (n, n) array is formed, and
the rows cost O(|U| n p) for the screen plus the sort of the few entries
each keeps. A query then refits and scores its s = |S_j| points alone
(s = k_max without ties): O(J K s (log s + deg)) for J queries and K
candidates, and one (K x s) by (s x B) product per query. Each query is
scored on its own ball alone, so its errors do not depend on which other
queries run with it: queries with balls of the same size s run together,
in chunks (``_WORK_ELEMENTS``) that bound the work arrays. The pilot
radius is checked only at the points of U and at the queries, the only
ones a fit reads.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (
    Curve,
    FunctionalSample,
    SemiMetricSpec,
    curve_matrix,
    neighbour_rows,
    sample_distances,
)
from .errors import (
    DegenerateGrid,
    DegeneratePilot,
    EmptyGrid,
    EmptyNeighborhood,
    TooFewPoints,
    ValidationError,
    require_integers,
)
from .estimator import InsampleSmoother, knn_radii, nadaraya_watson_batch
from .kernels import KernelSpec, eval_kernel_array
from .simulation import check_seed, replication_uniforms

_SQRT5 = math.sqrt(5.0)
#: Multipliers of the two-point golden-section law and their probabilities.
MULTIPLIER_LOW = (1.0 - _SQRT5) / 2.0
MULTIPLIER_HIGH = (1.0 + _SQRT5) / 2.0
P_LOW = (5.0 + _SQRT5) / 10.0
P_HIGH = (5.0 - _SQRT5) / 10.0
#: Element budget of the work arrays of the queries that are refit and
#: scored at once, (B + s) K + B s per query with s points in each ball:
#: small enough that a select's temporaries come and go within the heap
#: glibc keeps. It decides page faults, not bits. At paper scale
#: (2-core Xeon) 2^16 took about 0 minor page faults per select after
#: warm-up and 2^18 to 2^20 took 1.0k to 1.6k, with ops 15 to 20% slower.
_WORK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class WildResidualLaw:
    """Two-point resampling law for one residual.

    The law puts mass p_low on atom_low and p_high on atom_high, chosen so
    that its first three moments are 0, residual^2, and residual^3.
    """

    atom_low: float
    atom_high: float
    p_low: float
    p_high: float

    @classmethod
    def from_residual(cls, residual: float) -> "WildResidualLaw":
        return cls(
            atom_low=residual * MULTIPLIER_LOW,
            atom_high=residual * MULTIPLIER_HIGH,
            p_low=P_LOW,
            p_high=P_HIGH,
        )

    def moments(self) -> tuple[float, float, float]:
        """First three raw moments (for diagnostics and tests)."""
        m1 = self.p_low * self.atom_low + self.p_high * self.atom_high
        m2 = self.p_low * self.atom_low ** 2 + self.p_high * self.atom_high ** 2
        m3 = self.p_low * self.atom_low ** 3 + self.p_high * self.atom_high ** 3
        return m1, m2, m3


def draw_wild_residual(law: WildResidualLaw, uniform_draw: float) -> float:
    """Deterministic inverse-CDF draw: atom_low iff uniform_draw < p_low."""
    if not 0.0 <= uniform_draw < 1.0:
        raise ValidationError("uniform draw must lie in [0, 1)")
    return law.atom_low if uniform_draw < law.p_low else law.atom_high


@dataclass(frozen=True)
class FixedPilot:
    """Pilot bandwidth rule: kNN radius with exactly k_g neighbors."""

    k_g: int


@dataclass(frozen=True)
class MultiplierPilot:
    """Pilot rule: kNN radius with min(round(c * k_max), n - 1) neighbors.

    An oversmoothing pilot; c must exceed 1.
    """

    c: float = 2.0


@dataclass(frozen=True)
class BootstrapConfig:
    """Parameters of one wild-bootstrap bandwidth-selection run."""

    n_replications: int = 100
    k_min: int = 2
    k_max: int = 32
    seed: int = 0
    pilot: FixedPilot | MultiplierPilot = MultiplierPilot(2.0)
    evaluation: str = "test_set"  # or "pointwise"
    query_index: int = 0

    def __post_init__(self):
        require_integers(n_replications=self.n_replications, k_min=self.k_min,
                         k_max=self.k_max, query_index=self.query_index)
        if self.n_replications < 1:
            raise ValidationError("n_replications must be >= 1")
        if not (2 <= self.k_min <= self.k_max):
            raise ValidationError("need 2 <= k_min <= k_max")
        check_seed(self.seed)
        if self.evaluation not in ("test_set", "pointwise"):
            raise ValidationError("evaluation must be 'test_set' or 'pointwise'")
        if isinstance(self.pilot, FixedPilot):
            require_integers(k_g=self.pilot.k_g)
            if self.pilot.k_g < 2:
                raise ValidationError("fixed pilot needs k_g >= 2")
        elif isinstance(self.pilot, MultiplierPilot):
            # written so that NaN fails: it compares false with everything
            if not 1.0 < self.pilot.c < math.inf:
                raise ValidationError("pilot multiplier must be finite and exceed 1")
        else:
            raise ValidationError("pilot must be FixedPilot or MultiplierPilot")

    def pilot_k(self, n: int) -> int:
        if isinstance(self.pilot, FixedPilot):
            k_g = self.pilot.k_g
        else:
            # capped before rounding, so a huge finite c cannot overflow
            k_g = int(round(min(self.pilot.c * self.k_max, n - 1)))
        if not (2 <= k_g <= n - 1):
            raise ValidationError(
                f"pilot neighbor count {k_g} outside [2, {n - 1}]"
            )
        return k_g


@dataclass(frozen=True)
class WildBootstrapResult:
    """Bootstrap error per candidate bandwidth plus the selected one.

    ``per_bandwidth`` holds (k, h, mean_sq_boot_error) triples; in test_set
    mode h is the per-query kNN radius averaged over queries. The error is
    ``inf`` at a k whose radius leaves some query without a positively
    weighted neighbour (ties at the kernel's zero edge): that k is dropped
    for every query, so each kept k averages the same queries. The selected
    entry attains the minimal error, ties broken toward smaller h.

    ``selected_k`` is the primary result. ``selected_h`` is the mean of the
    per-query radii at ``selected_k``, which is not what the bootstrap
    scored at any single query: with several queries, predict at each
    query's own radius, ``knn_bandwidths(d, selected_k, selected_k)``.
    """

    per_bandwidth: tuple[tuple[int, float, float], ...]
    selected_k: int
    selected_h: float


def _argmin_entry(per_bandwidth) -> tuple[int, float]:
    if not per_bandwidth:
        raise EmptyGrid("no bandwidth candidates")
    best = per_bandwidth[0]
    for entry in per_bandwidth[1:]:
        if entry[2] < best[2] or (entry[2] == best[2] and entry[1] < best[1]):
            best = entry
    return best[0], best[1]


def select_bandwidth(result: WildBootstrapResult) -> tuple[int, float]:
    """Entry of the error curve with minimal error; ties -> smallest h."""
    return _argmin_entry(result.per_bandwidth)


def insample_fit(sample: FunctionalSample, kernel: KernelSpec,
                 spec: SemiMetricSpec, h: float | None = None,
                 k: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-sample fit r_hat(X_i) at every sample point.

    Exactly one bandwidth rule must be given: a global radius ``h``, or a
    neighbor count ``k`` (each point's kNN radius, the point itself
    excluded from the ranking but included in the fit). Each point's
    distances are read only up to that radius (``curves.neighbour_rows``),
    so a small h or k touches a few entries a row, not the (n, n) matrix.

    Returns:
        (predictions, neighbor counts, radii), one entry per point.

    Raises:
        EmptyNeighborhood: naming the first point with no positive weight.
    """
    if (h is None) == (k is None):
        raise ValidationError("give exactly one of h or k")
    n = len(sample)
    spec.check_grid(sample.grid)
    if h is not None:
        radii = np.full(n, float(h))
        if not 0.0 < radii[0] < np.inf:
            raise ValidationError(
                f"bandwidth must be positive and finite, got {radii[0]}")
        rows = neighbour_rows(sample, spec, reach=radii)
    else:
        require_integers(k=k)
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        if k > n - 1:
            raise ValidationError(f"k = {k} exceeds {n - 1} available distances")
        # each row up to its point's k-th neighbour, itself counted first
        rows = neighbour_rows(sample, spec, k=k + 1)
    smoother = InsampleSmoother(rows, sample.responses, kernel)
    if k is not None:
        radii = smoother.knn_radii(k)
    preds, counts = smoother.fit(radii[:, None])
    return preds[:, 0], counts[:, 0], radii


def residuals(sample: FunctionalSample, kernel: KernelSpec,
              spec: SemiMetricSpec, h: float | None = None,
              k: int | None = None) -> np.ndarray:
    """In-sample residuals y_i - r_hat(X_i) on the full sample, at the
    bandwidth rule of ``insample_fit``."""
    return sample.responses - insample_fit(sample, kernel, spec, h=h, k=k)[0]


def _multiplier_matrix(seed: int, n_replications: int,
                       keys: np.ndarray) -> np.ndarray:
    """Wild multipliers, shape (n_replications, n_points).

    Row b comes from replication b's stream; each point reads the draw at
    the position of its key, so a permuted sample with matching keys
    receives the same multipliers.
    """
    u = replication_uniforms(seed, n_replications, keys)
    return np.where(u < P_LOW, MULTIPLIER_LOW, MULTIPLIER_HIGH)


def _point_keys(point_keys, n: int) -> np.ndarray:
    """Validated RNG keys: n distinct nonnegative integers.

    Two points sharing a key would share their multipliers, so the wild
    draws would be correlated; a fractional key would be truncated.
    """
    if point_keys is None:
        return np.arange(n)
    keys = np.asarray(point_keys)
    if keys.shape != (n,) or keys.dtype.kind not in "iuf":
        raise ValidationError(
            f"point_keys must hold {n} integer keys, one per point"
        )
    if keys.dtype.kind == "f":
        if not np.all((np.abs(keys) < 2.0**63) & (keys == np.floor(keys))):
            raise ValidationError("point_keys must be integers")
        keys = keys.astype(np.int64)
    if keys.min() < 0:
        raise ValidationError("point_keys must be nonnegative")
    if np.unique(keys).size != n:
        raise ValidationError("point_keys must be distinct")
    return keys


def bootstrap_error_curve(sample: FunctionalSample, queries: Sequence[Curve],
                          kernel: KernelSpec, spec: SemiMetricSpec,
                          config: BootstrapConfig,
                          point_keys: Sequence[int] | None = None
                          ) -> WildBootstrapResult:
    """Wild-bootstrap error per candidate kNN bandwidth.

    For each query and each candidate k, the bandwidth is the kNN radius of
    the query; residuals are refit at that radius, perturbed by the wild
    law, added to the pilot fit, re-smoothed at the same radius, and scored
    against the pilot value at the query. ``evaluation='test_set'`` averages
    errors over all queries; ``'pointwise'`` uses the single query at
    ``config.query_index``.

    Args:
        point_keys: per-point RNG keys, distinct nonnegative integers
            (defaults to 0..n-1); pass original indices to make results
            invariant to permuting the sample.

    Raises:
        GridMismatch: if a query is not on the sample grid.
        DegeneratePilot: when the pilot fit fails at some point or query.
        EmptyNeighborhood: when every candidate is dropped (its error is
            ``inf``, see ``WildBootstrapResult``), naming the lowest query
            without positively weighted neighbors at k_min, and its h.
    """
    n = len(sample)
    y = sample.responses
    if config.evaluation == "pointwise":
        if not 0 <= config.query_index < len(queries):
            raise ValidationError(
                f"query_index {config.query_index} outside the query set"
            )
        active = [queries[config.query_index]]
    else:
        active = list(queries)
    if not active:
        raise ValidationError("query set must be nonempty")

    keys = _point_keys(point_keys, n)

    query_values = curve_matrix(active, sample.grid)
    spec.check_grid(sample.grid)
    k_g = config.pilot_k(n)
    ks = range(config.k_min, config.k_max + 1)
    n_k = config.k_max - config.k_min + 1
    if config.k_max > n - 1:
        raise TooFewPoints(
            f"need 2 <= k_min <= k_max <= n - 1 with n = {n}, "
            f"got k_min = {config.k_min}, k_max = {config.k_max}"
        )
    # exact up to each query's largest radius in use, inf beyond it
    dist_qs = sample_distances(sample, spec, query_values,
                               k=max(k_g, config.k_max))
    pilot_radii_q = knn_radii(dist_qs, k_g, k_g)[:, 0]
    radii = knn_radii(dist_qs, config.k_min, config.k_max)
    # S_j = {i : d(query j, X_i) <= h_{j, k_max}} holds every point with a
    # positive query weight at any candidate radius, ties included. Only
    # the points of their union U are refit, each up to its reach: the
    # largest h_{j, k_max} of a ball holding it, or its pilot radius.
    in_support = dist_qs <= radii[:, -1:]
    points = np.flatnonzero(in_support.any(axis=0))
    reach = np.where(in_support, radii[:, -1:], 0.0).max(axis=0)[points]
    smoother = InsampleSmoother(
        neighbour_rows(sample, spec, points, k=k_g + 1, reach=reach),
        y, kernel)

    pilot_radii = smoother.knn_radii(k_g)
    if np.any(pilot_radii <= 0.0) or np.any(pilot_radii_q <= 0.0):
        raise DegeneratePilot("pilot kNN radius is zero at some point or query")
    try:
        r_tilde = smoother.fit(pilot_radii[:, None])[0][:, 0]
        r_tilde_q = nadaraya_watson_batch(dist_qs, y, kernel, pilot_radii_q)[0]
    except EmptyNeighborhood as exc:
        raise DegeneratePilot(f"pilot fit failed: {exc}") from exc

    if np.any(radii <= 0.0):
        raise DegenerateGrid("bandwidths must be strictly positive")
    # Everything a support gathers is indexed by the rows of U, row r
    # being point points[r]: the multipliers, the responses, and each
    # query's ball mask and distances.
    multipliers = np.ascontiguousarray(
        _multiplier_matrix(config.seed, config.n_replications, keys[points]).T
    )
    in_ball = in_support[:, points]
    dist_u = dist_qs[:, points]
    y_u = y[points]
    support_sizes = in_ball.sum(axis=1)
    n_boot = config.n_replications
    errors = np.empty((len(active), n_k))
    # the queries whose k_max-balls hold s points, each ball in index order
    for s in np.unique(support_sizes):
        group = np.flatnonzero(support_sizes == s)
        step = max(1, _WORK_ELEMENTS // ((n_boot + s) * n_k + n_boot * s))
        for start in range(0, group.size, step):
            block = group[start:start + step]
            h = radii[block]  # (queries, k)
            rows = np.nonzero(in_ball[block])[1].reshape(-1, s)
            fits = smoother.fit(np.repeat(h, s, axis=0), rows.ravel())[0]
            resid = y_u[rows][..., None] - fits.reshape(*rows.shape, n_k)
            d = dist_u[block[:, None], rows]
            # A distance far above a tiny radius overflows to inf: weight 0.
            with np.errstate(over="ignore"):
                u = d[..., None] / h[:, None, :]
            w_q = eval_kernel_array(kernel, u)  # (queries, s, k)
            totals = w_q.sum(axis=1)
            # a radius that leaves its query no weight scores inf, which
            # drops its k for every query; a total of 1 avoids 0 / 0
            empty = totals <= 0.0
            totals[empty] = 1.0
            base = np.matmul(r_tilde[rows][:, None, :], w_q)[:, 0, :] / totals
            # (queries, k, s) @ (queries, s, B): every replication's
            # re-estimate, then its squared error against the pilot value
            sq = np.matmul((w_q * resid).transpose(0, 2, 1),
                           multipliers[rows])
            sq /= totals[..., None]
            sq += base[..., None]
            sq -= r_tilde_q[block, None, None]
            np.square(sq, out=sq)
            errors[block] = np.where(empty, np.inf, sq.mean(axis=2))
    if np.all(errors.max(axis=0) == np.inf):
        j = int(np.argmax(errors[:, 0] == np.inf))
        raise EmptyNeighborhood(
            f"no positive weight at query {j} for k = {config.k_min}, "
            f"h = {radii[j, 0]}"
        )

    per_bandwidth = tuple(
        (k, float(radii[:, ki].mean()), float(errors[:, ki].mean()))
        for ki, k in enumerate(ks)
    )
    selected_k, selected_h = _argmin_entry(per_bandwidth)
    return WildBootstrapResult(
        per_bandwidth=per_bandwidth,
        selected_k=selected_k,
        selected_h=selected_h,
    )
