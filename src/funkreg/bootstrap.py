"""Wild bootstrap for bandwidth selection with curve predictors.

The resampling scheme: fit in-sample residuals at a candidate bandwidth h,
multiply each by a two-point random sign/scale law matching its first three
moments (0, residual^2, residual^3), rebuild responses around an
oversmoothed pilot fit, re-estimate at h, and score the squared discrepancy
against the pilot value at the query. The bandwidth minimizing the average
over replications (and, optionally, over a test set of queries) is selected.

Randomness is counter-based: replication b of a run seeded with s draws its
uniforms from a Philox stream keyed by (s, b), indexed by each point's key
(its original sample index by default). Results are therefore bit-stable
and independent of evaluation order.

Cost: the in-sample refit at every (query, candidate k) radius reads sorted
prefix sums (``InsampleSmoother``), so after one O(n^2 log n) sort it costs
O(J K n (log n + deg)) for J queries and K candidates instead of J K n^2
kernel evaluations; scoring adds one (B x n) by (n x J K) product. Work
arrays are bounded by refitting queries in blocks of about
``_BLOCK_ELEMENTS`` (point, radius) pairs.
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
    distance_matrix,
    transform,
    transformed_matrix,
)
from .errors import (
    DegenerateGrid,
    DegeneratePilot,
    EmptyGrid,
    EmptyNeighborhood,
    TooFewPoints,
    ValidationError,
)
from .estimator import InsampleSmoother, knn_radii, nadaraya_watson_batch
from .kernels import KernelSpec, eval_kernel_array

_SQRT5 = math.sqrt(5.0)
#: Multipliers of the two-point golden-section law and their probabilities.
MULTIPLIER_LOW = (1.0 - _SQRT5) / 2.0
MULTIPLIER_HIGH = (1.0 + _SQRT5) / 2.0
P_LOW = (5.0 + _SQRT5) / 10.0
P_HIGH = (5.0 - _SQRT5) / 10.0
#: Element budget of one refit block: queries are refit together, all
#: candidate radii at once, in blocks of about this many (point, radius)
#: pairs, which bounds the block's working arrays.
_BLOCK_ELEMENTS = 1 << 20


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
        if self.n_replications < 1:
            raise ValidationError("n_replications must be >= 1")
        if not (2 <= self.k_min <= self.k_max):
            raise ValidationError("need 2 <= k_min <= k_max")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a nonnegative 64-bit integer")
        if self.evaluation not in ("test_set", "pointwise"):
            raise ValidationError("evaluation must be 'test_set' or 'pointwise'")
        if isinstance(self.pilot, FixedPilot):
            if self.pilot.k_g < 2:
                raise ValidationError("fixed pilot needs k_g >= 2")
        elif isinstance(self.pilot, MultiplierPilot):
            if self.pilot.c <= 1.0:
                raise ValidationError("pilot multiplier must exceed 1")
        else:
            raise ValidationError("pilot must be FixedPilot or MultiplierPilot")

    def pilot_k(self, n: int) -> int:
        if isinstance(self.pilot, FixedPilot):
            k_g = self.pilot.k_g
        else:
            k_g = min(int(round(self.pilot.c * self.k_max)), n - 1)
        if not (2 <= k_g <= n - 1):
            raise ValidationError(
                f"pilot neighbor count {k_g} outside [2, {n - 1}]"
            )
        return k_g


@dataclass(frozen=True)
class WildBootstrapResult:
    """Bootstrap error per candidate bandwidth plus the selected one.

    ``per_bandwidth`` holds (k, h, mean_sq_boot_error) triples; in test_set
    mode h is the per-query kNN radius averaged over queries. The selected
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


def residuals(sample: FunctionalSample, kernel: KernelSpec,
              spec: SemiMetricSpec, h: float | None = None,
              k: int | None = None,
              h_per_point: Sequence[float] | None = None) -> np.ndarray:
    """In-sample residuals y_i - r_hat(X_i) on the full sample.

    Exactly one bandwidth rule must be given: a global radius ``h``, a
    neighbor count ``k`` (per-point kNN radius, the point itself excluded
    from the ranking but included in the fit), or explicit per-point radii.

    Raises:
        EmptyNeighborhood: naming the first point with no positive weight.
    """
    given = [v is not None for v in (h, k, h_per_point)]
    if sum(given) != 1:
        raise ValidationError("give exactly one of h, k, or h_per_point")
    n = len(sample)
    trans = transformed_matrix(sample, spec)
    w_quad = sample.grid.trapezoid_weights()
    smoother = InsampleSmoother(
        distance_matrix(trans, trans, w_quad), sample.responses, kernel
    )
    if h is not None:
        radii = np.full(n, float(h))
    elif k is not None:
        radii = smoother.knn_radii(int(k))
    else:
        radii = np.asarray(h_per_point, dtype=float)
        if radii.shape != (n,):
            raise ValidationError(f"h_per_point must have length {n}")
    preds, _ = smoother.fit(radii[:, None])
    return sample.responses - preds[:, 0]


def _multiplier_matrix(seed: int, n_replications: int,
                       keys: np.ndarray) -> np.ndarray:
    """Wild multipliers, shape (n_replications, n_points).

    Row b comes from the Philox stream keyed by (seed, b); each point reads
    the draw at the position of its key, so a permuted sample with matching
    keys receives the same multipliers.
    """
    n_keys = int(keys.max()) + 1
    out = np.empty((n_replications, keys.size))
    for b in range(n_replications):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, b], dtype=np.uint64))
        )
        u = gen.random(n_keys)[keys]
        out[b] = np.where(u < P_LOW, MULTIPLIER_LOW, MULTIPLIER_HIGH)
    return out


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
        point_keys: per-point RNG keys (defaults to 0..n-1); pass original
            indices to make results invariant to permuting the sample.

    Raises:
        GridMismatch: if a query is not on the sample grid.
        DegeneratePilot: when the pilot fit fails at some point or query.
        EmptyNeighborhood: when a candidate radius leaves a query without
            positively weighted neighbors (reported with its k, h, query).
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

    if point_keys is None:
        keys = np.arange(n)
    else:
        keys = np.asarray(point_keys, dtype=int)
        if keys.shape != (n,) or keys.min() < 0:
            raise ValidationError("point_keys must be nonnegative, one per point")

    trans_q = transform(curve_matrix(active, sample.grid), sample.grid, spec)
    trans = transformed_matrix(sample, spec)
    w_quad = sample.grid.trapezoid_weights()
    smoother = InsampleSmoother(distance_matrix(trans, trans, w_quad), y, kernel)
    dist_qs = distance_matrix(trans_q, trans, w_quad)

    k_g = config.pilot_k(n)
    pilot_radii = smoother.knn_radii(k_g)
    pilot_radii_q = knn_radii(dist_qs, k_g, k_g)[:, 0]
    if np.any(pilot_radii <= 0.0) or np.any(pilot_radii_q <= 0.0):
        raise DegeneratePilot("pilot kNN radius is zero at some point or query")
    try:
        r_tilde = smoother.fit(pilot_radii[:, None])[0][:, 0]
        r_tilde_q = nadaraya_watson_batch(dist_qs, y, kernel, pilot_radii_q)[0]
    except EmptyNeighborhood as exc:
        raise DegeneratePilot(f"pilot fit failed: {exc}") from exc

    ks = range(config.k_min, config.k_max + 1)
    n_k = config.k_max - config.k_min + 1
    if config.k_max > n - 1:
        raise TooFewPoints(
            f"need 2 <= k_min <= k_max <= n - 1 with n = {n}, "
            f"got k_min = {config.k_min}, k_max = {config.k_max}"
        )
    radii = knn_radii(dist_qs, config.k_min, config.k_max)
    if np.any(radii <= 0.0):
        raise DegenerateGrid("bandwidths must be strictly positive")
    multipliers = _multiplier_matrix(config.seed, config.n_replications, keys)
    errors = np.empty((len(active), n_k))
    step = max(1, _BLOCK_ELEMENTS // (n * n_k))
    for start in range(0, len(active), step):
        block = slice(start, start + step)
        h = radii[block].ravel()  # query-major: (query, k) pairs
        query = np.repeat(np.arange(len(active))[block], n_k)
        resid = y[:, None] - smoother.fit(np.broadcast_to(h, (n, h.size)))[0]
        w_q = eval_kernel_array(kernel, dist_qs[query] / h[:, None])
        totals = w_q.sum(axis=1)
        bad = np.flatnonzero(totals <= 0.0)
        if bad.size:
            j, ki = divmod(start * n_k + int(bad[0]), n_k)
            raise EmptyNeighborhood(
                f"no positive weight at query {j} for k = {ks[ki]}, "
                f"h = {radii[j, ki]}"
            )
        base = (w_q @ r_tilde) / totals
        deviations = (multipliers @ (w_q.T * resid)) / totals
        sq = (base + deviations - r_tilde_q[query]) ** 2
        errors[block] = sq.mean(axis=0).reshape(-1, n_k)

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
