"""Dense-matrix references for the screened, ragged in-sample path.

``DenseSmoother`` sorts and prefix-sums the whole (n, n) sample-by-sample
matrix, and ``dense_error_curve`` and ``dense_insample_fit`` run the wild
bootstrap and the in-sample fit on it, each with the same arithmetic as
the package's own path, which reads only the rows and entries a fit can
reach. The tests compare the two bit for bit. ``neighbours_from_dense``
cuts the rows of a square matrix at given radii, for smoother tests that
start from a matrix.
"""

import numpy as np

from funkreg.bootstrap import _argmin_entry, _multiplier_matrix, _point_keys
from funkreg.curves import NeighbourRows, curve_matrix, sample_distances
from funkreg.errors import (
    DegenerateGrid,
    DegeneratePilot,
    EmptyNeighborhood,
    ValidationError,
)
from funkreg.estimator import knn_radii, nadaraya_watson_batch
from funkreg.kernels import eval_kernel_array


def neighbours_from_dense(d, radii=None) -> NeighbourRows:
    """Every row of the square matrix ``d``, stably sorted and cut at its
    radius (the whole row by default)."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    radii = np.full(n, np.inf) if radii is None else np.asarray(radii, float)
    order = np.argsort(d, axis=1, kind="stable")
    rows = np.take_along_axis(d, order, axis=1)
    keep = rows <= radii[:, None]
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    return NeighbourRows(n, np.arange(n), offsets, rows[keep], order[keep],
                         radii)


class DenseSmoother:
    """The in-sample smoother on the full square matrix: every row sorted,
    prefix sums of d^p y and d^p per nonzero coefficient, one search per
    fitted row."""

    def __init__(self, d, y, kernel):
        order = np.argsort(d, axis=1, kind="stable")
        self.sorted = np.take_along_axis(d, order, axis=1)
        y_sorted = y[order]
        self.unit = np.ldexp(1.0, -int(np.frexp(d.max(initial=0.0))[1]))
        unit_sorted = self.sorted * self.unit
        self.terms = []
        for p, c in enumerate(kernel.coefficients):
            if c == 0.0:
                continue
            powers = unit_sorted ** p
            self.terms.append((p, c, prefix_sums(powers * y_sorted),
                               prefix_sums(powers)))

    def knn_radii(self, k):
        return self.sorted[:, k].copy()

    def counts(self, radii, points):
        counts = np.empty(radii.shape, dtype=np.intp)
        for r, i in enumerate(points):
            counts[r] = self.sorted[i].searchsorted(radii[r], side="right")
        return counts

    def fit(self, radii, points=None):
        points = np.arange(len(self.sorted)) if points is None else points
        counts = self.counts(radii, points)
        rows = points[:, None]
        num = np.zeros(radii.shape)
        den = np.zeros(radii.shape)
        scaled = radii * self.unit
        for p, c, prefix_y, prefix_1 in self.terms:
            scale = c / scaled ** p
            num += scale * prefix_y[rows, counts]
            den += scale * prefix_1[rows, counts]
        return num / den, counts


def prefix_sums(values):
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(values, axis=1, out=out[:, 1:])
    return out


def dense_insample_fit(sample, kernel, spec, h=None, k=None):
    """(predictions, counts, radii) of ``bootstrap.insample_fit`` from the
    full matrix; ValidationError for a radius that is not positive."""
    smoother = DenseSmoother(sample_distances(sample, spec, sample.values),
                             sample.responses, kernel)
    if h is not None:
        radii = np.full(len(sample), float(h))
    else:
        radii = smoother.knn_radii(k)
    if not np.all(radii > 0.0):
        raise ValidationError("bandwidth must be positive")
    preds, counts = smoother.fit(radii[:, None])
    return preds[:, 0], counts[:, 0], radii


def dense_error_curve(sample, queries, kernel, spec, config, point_keys=None):
    """``bootstrap_error_curve``'s per_bandwidth from the full matrix: the
    pilot fit at every sample point, every refit on the sorted full rows
    and each query scored on its own k_max-ball, one query at a time.

    Raises DegeneratePilot for a zero pilot radius at any sample point or
    query, and DegenerateGrid for a zero candidate radius: the rules of the
    full-matrix path. A candidate radius without weight at some query
    scores inf, and EmptyNeighborhood is raised when every k does."""
    n = len(sample)
    y = sample.responses
    if config.evaluation == "pointwise":
        queries = [queries[config.query_index]]
    keys = _point_keys(point_keys, n)
    k_g = config.pilot_k(n)
    ks = range(config.k_min, config.k_max + 1)
    n_k = len(ks)
    smoother = DenseSmoother(sample_distances(sample, spec, sample.values), y,
                             kernel)
    dist_qs = sample_distances(sample, spec, curve_matrix(queries, sample.grid),
                               k=max(k_g, config.k_max))
    pilot_radii = smoother.knn_radii(k_g)
    pilot_radii_q = knn_radii(dist_qs, k_g, k_g)[:, 0]
    if np.any(pilot_radii <= 0.0) or np.any(pilot_radii_q <= 0.0):
        raise DegeneratePilot("pilot kNN radius is zero")
    r_tilde = smoother.fit(pilot_radii[:, None])[0][:, 0]
    r_tilde_q = nadaraya_watson_batch(dist_qs, y, kernel, pilot_radii_q)[0]
    radii = knn_radii(dist_qs, config.k_min, config.k_max)
    if np.any(radii <= 0.0):
        raise DegenerateGrid("bandwidths must be strictly positive")
    multipliers = np.ascontiguousarray(
        _multiplier_matrix(config.seed, config.n_replications, keys).T)
    errors = np.empty((len(queries), n_k))
    for j in range(len(queries)):
        h = radii[j:j + 1]
        support = np.flatnonzero(dist_qs[j] <= h[0, -1])[None]
        fits = smoother.fit(np.repeat(h, support.size, axis=0), support[0])[0]
        resid = y[support][..., None] - fits[None]
        d = dist_qs[j][support]
        with np.errstate(over="ignore"):
            u = d[..., None] / h[:, None, :]
        w_q = eval_kernel_array(kernel, u)
        totals = w_q.sum(axis=1)
        empty = totals <= 0.0
        totals[empty] = 1.0
        base = np.matmul(r_tilde[support][:, None, :], w_q)[:, 0, :] / totals
        deviations = np.matmul(
            (w_q * resid).transpose(0, 2, 1), multipliers[support]
        ) / totals[..., None]
        sq = (base[..., None] + deviations - r_tilde_q[j]) ** 2
        errors[j] = np.where(empty, np.inf, sq.mean(axis=2))[0]
    if np.all(errors.max(axis=0) == np.inf):
        raise EmptyNeighborhood("no positive weight at any k")
    per_bandwidth = tuple(
        (k, float(radii[:, ki].mean()), float(errors[:, ki].mean()))
        for ki, k in enumerate(ks)
    )
    return per_bandwidth, _argmin_entry(per_bandwidth)[0]
