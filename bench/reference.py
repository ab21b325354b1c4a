"""Direct NumPy references that the benchmark checks funkreg's outputs against.

Each routine restates a definition from the paper's workflow in the plainest
vectorized form: `np.gradient` derivatives, trapezoid weights, explicit
differences for distances and explicit kernel sums. None of it imports
funkreg, so a defect in the package cannot hide in its own reference.
Outputs are compared to a relative tolerance, never byte for byte, because
faster distance or smoothing code may move results at the ulp level.
"""

import math

import numpy as np

#: Relative tolerance of every output check.
RTOL = 1e-9
#: Standard normal quantile at 0.975, the two-sided 95% interval.
Z_975 = 1.959963984540054
#: Wild-bootstrap multipliers and the probability of the low one.
SQRT5 = math.sqrt(5.0)
MULTIPLIER_LOW = (1.0 - SQRT5) / 2.0
MULTIPLIER_HIGH = (1.0 + SQRT5) / 2.0
P_LOW = (5.0 + SQRT5) / 10.0


def close(actual, expected, rtol: float = RTOL) -> bool:
    """Elementwise |actual - expected| <= rtol * max(|actual|, |expected|)."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - e) <= rtol * np.maximum(np.abs(a), np.abs(e))))


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    w = np.empty_like(points)
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Row-wise centered moving average; windows shrink symmetrically at the
    edges."""
    half = window // 2
    p = values.shape[1]
    out = np.empty_like(values)
    for i in range(p):
        j = min(i, half, p - 1 - i)
        out[:, i] = values[:, i - j:i + j + 1].mean(axis=1)
    return out


def transform(values: np.ndarray, points: np.ndarray, order: int,
              window: int | None = None) -> np.ndarray:
    """Presmooth, then differentiate each row `order` times."""
    out = np.asarray(values, dtype=float)
    if window is not None:
        out = moving_average(out, window)
    for _ in range(order):
        out = np.gradient(out, points, axis=1, edge_order=2)
    return out


def distances(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
              chunk: int = 16) -> np.ndarray:
    """Weighted L2 distances between transformed curves, a few rows at a
    time so the reference stays small in memory."""
    out = np.empty((rows.shape[0], cols.shape[0]))
    for start in range(0, rows.shape[0], chunk):
        diff = rows[start:start + chunk, None, :] - cols[None, :, :]
        out[start:start + chunk] = np.sqrt((diff * diff) @ weights)
    return out


def kernel(family: str, u: np.ndarray) -> np.ndarray:
    """Kernel weights at u = d / h, zero outside [0, 1]."""
    inside = (u >= 0.0) & (u <= 1.0)
    if family == "uniform":
        return inside.astype(float)
    if family == "quadratic":
        return np.where(inside, 1.0 - u * u, 0.0)
    raise ValueError(f"no reference for kernel {family!r}")


def smooth(d: np.ndarray, y: np.ndarray, family: str,
           h: np.ndarray) -> np.ndarray:
    """Nadaraya-Watson predictions: one row of distances per prediction."""
    w = kernel(family, d / np.reshape(h, (-1, 1)))
    return (w * y).sum(axis=1) / w.sum(axis=1)


def knn_radius(d: np.ndarray, k: int) -> np.ndarray:
    """Per-row k-th smallest distance (1-indexed)."""
    return np.sort(d, axis=1)[:, k - 1]


def intervals(d: np.ndarray, y: np.ndarray, h: np.ndarray) -> dict:
    """Uniform-kernel prediction, plug-in variance and the 95% interval
    with tau0(s) = s, where m1 = m2 = 1."""
    inside = d <= np.reshape(h, (-1, 1))
    count = inside.sum(axis=1)
    mean = (inside * y).sum(axis=1) / count
    second = (inside * (y * y)).sum(axis=1) / count
    sigma2 = np.maximum(second - mean * mean, 0.0)
    half = Z_975 * np.sqrt(sigma2 / count)
    return {"center": mean, "sigma2": sigma2,
            "lower": mean - half, "upper": mean + half}


def multipliers(seed: int, reps: int, n: int) -> np.ndarray:
    """Wild multipliers: row b from the Philox stream keyed by (seed, b)."""
    out = np.empty((reps, n))
    for b in range(reps):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        out[b] = np.where(gen.random(n) < P_LOW, MULTIPLIER_LOW,
                          MULTIPLIER_HIGH)
    return out


def bootstrap_error_curve(train_t: np.ndarray, y: np.ndarray,
                          query_t: np.ndarray, weights: np.ndarray,
                          reps: int, k_min: int, k_max: int, k_pilot: int,
                          seed: int) -> tuple[np.ndarray, int]:
    """Quadratic-kernel wild-bootstrap error per k, averaged over queries,
    and the k that minimizes it (ties to the smaller k)."""
    d_ss = distances(train_t, train_t, weights)
    d_qs = distances(query_t, train_t, weights)
    own = np.sort(d_ss, axis=1)[:, 1:]  # the zero self-distance dropped
    r_pilot = smooth(d_ss, y, "quadratic", own[:, k_pilot - 1])
    r_pilot_q = smooth(d_qs, y, "quadratic", knn_radius(d_qs, k_pilot))
    mult = multipliers(seed, reps, y.size)
    ks = range(k_min, k_max + 1)
    errors = np.empty((query_t.shape[0], len(ks)))
    for j in range(query_t.shape[0]):
        radii = np.sort(d_qs[j])
        for ki, k in enumerate(ks):
            h = radii[k - 1]
            resid = y - smooth(d_ss, y, "quadratic", np.full(y.size, h))
            w_q = kernel("quadratic", d_qs[j] / h)
            total = w_q.sum()
            base = (w_q @ r_pilot) / total
            deviations = (mult @ (w_q * resid)) / total
            errors[j, ki] = np.mean((base + deviations - r_pilot_q[j]) ** 2)
    curve = errors.mean(axis=0)
    return curve, k_min + int(np.argmin(curve))


def scalar_replications(n: int, h: float, slope: float, noise_sd: float,
                        reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-kernel predictions at chi = 0 on the scalar design, and the
    neighbor counts, replication b drawing from Philox keyed by (seed, b)."""
    preds = np.empty(reps)
    counts = np.empty(reps)
    for b in range(reps):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        x = gen.random(n)
        y = slope * x + noise_sd * gen.standard_normal(n)
        weighted = x / h <= 1.0
        counts[b] = np.count_nonzero(x <= h)
        preds[b] = y[weighted].sum() / np.count_nonzero(weighted)
    return preds, counts


def ks_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    x = np.sort(values)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    n = x.size
    above = np.arange(1, n + 1) / n - cdf
    below = cdf - np.arange(n) / n
    return float(max(above.max(), below.max()))
