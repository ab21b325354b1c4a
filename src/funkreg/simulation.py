"""Curve generators and Monte Carlo experiments validating the estimator.

Two experiment families: a curve-valued design (sinusoid plus random drift,
with an arc-length-style regression functional) used for the bootstrap
bandwidth-selection study, and a scalar design (the one-dimensional special
case of the theory, where every constant is known in closed form) used to
verify the leading bias/variance terms, asymptotic normality, and interval
coverage at desk scale.

Every experiment is deterministic given its config, and aggregation runs in
replication order.

Stream policy (this module owns it; the wild bootstrap follows it too): a
seed is an integer in [0, 2^64), checked by ``check_seed`` where it comes
in, and replication b of a run seeded with s draws from the start of the
Philox stream keyed by (s, b). ``replication_streams`` is the one place
those streams are built.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .curves import Curve, FunctionalSample, SamplingGrid
from .errors import (
    DegenerateBall,
    EmptyNeighborhood,
    GridTooShort,
    ValidationError,
    is_integer,
    require_integers,
)
from .estimator import (
    BiasVarianceReport,
    empirical_tau,
    nadaraya_watson_batch,
    theoretical_bias_variance,
)
from .kernels import KernelSpec, Tau0Model, compute_constants

_MIN_TAU_SAMPLE = 1000
_MIN_NORMALITY_REPS = 30
#: Element budget of one block of scalar replications: replications are
#: drawn into the rows of an (m, n) block of about this many elements and
#: fitted with one smoother call, which bounds the block's working arrays.
#: At 128 KB per array the block's temporaries stay in cache; 2^16-element
#: blocks ran no faster than one fit per replication at n = 2000.
_BLOCK_ELEMENTS = 1 << 14
#: Widest gap between two sorted positions that ``replication_uniforms``
#: draws through; a wider one starts a new run, whose stream reset and
#: advance cost about as much as drawing a few thousand values.
_RUN_GAP = 256


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the curve-valued simulation."""

    n_train: int = 100
    n_test: int = 50
    grid_size: int = 101
    noise_variance: float = 2.0
    seed: int = 0

    def __post_init__(self):
        require_integers(n_train=self.n_train, n_test=self.n_test,
                         grid_size=self.grid_size)
        if self.n_train < 1 or self.n_test < 0:
            raise ValidationError("sample sizes must be positive")
        if self.grid_size < 5:
            raise ValidationError("grid_size must be at least 5")
        # written so that NaN fails: it compares false with everything
        if not 0 <= self.noise_variance < math.inf:
            raise ValidationError("noise_variance must be finite and nonnegative")
        check_seed(self.seed)


@dataclass(frozen=True)
class ScalarDesignConfig:
    """Scalar special case: X ~ U(0, 1), r(x) = slope * x, query at chi."""

    n: int
    h: float
    chi: float = 0.0
    slope: float = 1.0
    noise_sd: float = 0.5
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        require_integers(n=self.n, reps=self.reps)
        if not 0.0 <= self.chi <= 1.0:
            raise ValidationError("chi must lie in the design support [0, 1]")
        if self.n < 1 or self.reps < 1 or not 0.0 < self.h < math.inf:
            raise ValidationError("need n >= 1, reps >= 1, finite h > 0")
        if not math.isfinite(self.slope):
            raise ValidationError("slope must be finite")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValidationError("noise_sd must be finite and >= 0")
        check_seed(self.seed)

    def design_sdf(self) -> float:
        """Exact small-ball probability F(h) = P(|X - chi| <= h)."""
        return min(self.chi + self.h, 1.0) - max(self.chi - self.h, 0.0)

    def phi_prime(self) -> float:
        """Derivative at 0 of E[r(X) - r(chi) | |X - chi| = s].

        Nonzero only at the support boundary; at interior points the
        two-sided average cancels the linear term.
        """
        if self.chi == 0.0:
            return self.slope
        if self.chi == 1.0:
            return -self.slope
        return 0.0


def default_grid(size: int = 101) -> SamplingGrid:
    """Uniform grid of the curve simulation: `size` points on [-1, 1]."""
    return SamplingGrid(np.linspace(-1.0, 1.0, size))


def _curve_values(omega, a, b, t: np.ndarray) -> np.ndarray:
    return np.sin(omega * t) + (a + 2.0 * math.pi) * t + b


def generate_curve(omega: float, a: float, b: float,
                   grid: SamplingGrid) -> Curve:
    """Simulated curve sin(omega t) + (a + 2 pi) t + b on the grid."""
    return Curve(grid, _curve_values(omega, a, b, grid.points))


def _regression_values(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    deriv = np.gradient(values, t, axis=-1, edge_order=2)
    return np.trapezoid(np.abs(deriv) * (1.0 - np.cos(math.pi * t)), t, axis=-1)


def true_regression(curve: Curve) -> float:
    """Regression functional: integral of |X'(t)| (1 - cos(pi t)) over [-1, 1].

    Depends on the curve only through its derivative, so intercept shifts
    leave it unchanged.

    Raises:
        GridTooShort: if the grid has fewer than 5 points.
    """
    if len(curve.grid) < 5:
        raise GridTooShort("regression functional needs a grid of >= 5 points")
    lo, hi = curve.grid.span
    if abs(lo + 1.0) > 1e-9 or abs(hi - 1.0) > 1e-9:
        raise ValidationError("regression functional expects a grid spanning [-1, 1]")
    return float(_regression_values(curve.values, curve.grid.points))


def _draw_functional(rng: np.random.Generator, n: int, grid: SamplingGrid,
                     noise_sd: float) -> FunctionalSample:
    omegas = rng.uniform(0.0, 2.0 * math.pi, (n, 1))
    slopes = rng.uniform(0.0, 1.0, (n, 1))
    intercepts = rng.uniform(0.0, 1.0, (n, 1))
    values = _curve_values(omegas, slopes, intercepts, grid.points)
    signal = _regression_values(values, grid.points)
    noise = rng.normal(0.0, noise_sd, n) if noise_sd > 0 else np.zeros(n)
    return FunctionalSample(grid, values, signal + noise)


def generate_functional_sample(config: SimulationConfig
                               ) -> tuple[FunctionalSample, FunctionalSample]:
    """Draw a (train, test) pair of simulated functional samples.

    The train sample is drawn first, then the test sample, from a single
    stream seeded by ``config.seed``; identical configs reproduce identical
    samples bit for bit.
    """
    grid = default_grid(config.grid_size)
    rng = np.random.default_rng(config.seed)
    noise_sd = math.sqrt(config.noise_variance)
    train = _draw_functional(rng, config.n_train, grid, noise_sd)
    test = _draw_functional(rng, config.n_test, grid, noise_sd)
    return train, test


def check_seed(seed) -> int:
    """The seed as a Python int; raises ValidationError unless it is an
    integer (not a bool) in [0, 2^64), the key range of a Philox stream."""
    if not is_integer(seed) or not 0 <= int(seed) < 2**64:
        raise ValidationError(
            f"seed must be an integer in [0, 2^64), got {seed!r}"
        )
    return int(seed)


def replication_streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """For b = 0 .. count - 1, a Generator at the start of the Philox stream
    keyed by (seed, b).

    The same Generator is yielded each time, reset in place to a fresh
    state with the key (seed, b): the bits of a new
    ``Generator(Philox(key=[seed, b]))`` without building and seeding one
    per replication. Draw from it before taking the next stream.
    """
    seed = check_seed(seed)
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    state = bit_generator.state  # zero counter, empty buffers
    for b in range(count):
        state["state"]["key"] = np.array([seed, b], dtype=np.uint64)
        bit_generator.state = state
        yield gen


def replication_uniforms(seed: int, count: int, positions) -> np.ndarray:
    """Uniform draws at nonnegative integer stream positions, shape (count, m).

    Entry (b, i) is draw ``positions[i]`` of stream (seed, b): the bits of
    ``Generator(Philox(key=[seed, b])).random(p)[positions[i]]`` for any p
    beyond it. Only the positions are drawn, not every draw before them:
    the sorted positions are cut into runs at gaps wider than
    ``_RUN_GAP``, and each run resets the stream, skips whole Philox
    blocks of four draws (``advance``) and draws through to its last
    position, so memory is bounded whatever the positions.
    """
    positions = np.asarray(positions)
    order = np.argsort(positions, kind="stable")
    ordered = positions[order]
    cuts = (np.flatnonzero(np.diff(ordered) > _RUN_GAP) + 1).tolist()
    runs = [(int(ordered[lo]), order[lo:hi], ordered[lo:hi] - ordered[lo])
            for lo, hi in zip([0, *cuts], [*cuts, ordered.size])]
    out = np.empty((count, positions.size))
    for b, gen in enumerate(replication_streams(seed, count)):
        bit_generator = gen.bit_generator
        stream_start = bit_generator.state if len(runs) > 1 else None
        for i, (first, columns, offsets) in enumerate(runs):
            if i:
                bit_generator.state = stream_start
            if first >= 4:
                bit_generator.advance(first // 4)
            skip = first % 4
            out[b, columns] = gen.random(skip + int(offsets[-1]) + 1)[skip + offsets]
    return out


def _scalar_fits(config: ScalarDesignConfig,
                 kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and neighbor counts of every replication, in order.

    Replication b draws its design and noise from its own stream (see the
    module's stream policy); blocks of replications are stacked as rows and
    fitted together.

    Raises:
        EmptyNeighborhood: naming the block of the first replication with
            no positive weight.
    """
    n = config.n
    step = max(1, _BLOCK_ELEMENTS // n)
    predictions = np.empty(config.reps)
    counts = np.empty(config.reps, dtype=np.intp)
    streams = replication_streams(config.seed, config.reps)
    for start in range(0, config.reps, step):
        stop = min(start + step, config.reps)
        x = np.empty((stop - start, n))
        y = np.empty_like(x)
        for row, rng in enumerate(islice(streams, stop - start)):
            x[row] = rng.random(n)
            y[row] = config.slope * x[row]
            if config.noise_sd > 0:
                y[row] += config.noise_sd * rng.standard_normal(n)
        try:
            predictions[start:stop], _, counts[start:stop] = nadaraya_watson_batch(
                np.abs(x - config.chi), y, kernel, np.full(stop - start, config.h)
            )
        except EmptyNeighborhood as exc:
            raise EmptyNeighborhood(
                f"replications {start}-{stop - 1}: {exc}"
            ) from None
    return predictions, counts


@dataclass(frozen=True, eq=False)
class BiasVarianceExperiment:
    """Empirical vs predicted leading bias and variance at fixed (h, n)."""

    empirical_bias: float
    empirical_variance: float
    theoretical: BiasVarianceReport
    predictions: np.ndarray
    config: ScalarDesignConfig


def _scalar_theory(config: ScalarDesignConfig,
                   kernel: KernelSpec) -> BiasVarianceReport:
    """Leading bias and variance terms on the scalar design, tau0(s) = s."""
    return theoretical_bias_variance(
        phi_prime=config.phi_prime(),
        sigma2=config.noise_sd ** 2,
        h=config.h,
        n=config.n,
        f_of_h=config.design_sdf(),
        constants=compute_constants(kernel, Tau0Model.fractal(1.0)),
    )


def mc_bias_variance(config: ScalarDesignConfig,
                     kernel: KernelSpec) -> BiasVarianceExperiment:
    """Monte Carlo check of the leading bias and variance terms.

    On the scalar design the theory's ingredients are exact: F(h) is the
    interval length covered by the ball, tau0(s) = s, and phi'(0) is the
    regression slope at the boundary (zero at interior points). Empirical
    bias and variance of the predictions over the replications are reported
    next to the theoretical leading terms.
    """
    preds, _ = _scalar_fits(config, kernel)
    theoretical = _scalar_theory(config, kernel)
    emp_var = float(np.var(preds, ddof=1)) if config.reps > 1 else float("nan")
    return BiasVarianceExperiment(
        empirical_bias=float(np.mean(preds)) - config.slope * config.chi,
        empirical_variance=emp_var,
        theoretical=theoretical,
        predictions=preds,
        config=config,
    )


@dataclass(frozen=True, eq=False)
class NormalityExperiment:
    """Standardized estimation errors and their distance to the normal law."""

    standardized: np.ndarray
    ks_statistic: float
    ks_applicable: bool
    insufficient_replications: bool
    b_n: float
    config: ScalarDesignConfig


def mc_normality(config: ScalarDesignConfig,
                 kernel: KernelSpec) -> NormalityExperiment:
    """Monte Carlo check of the limiting normal law.

    Each replication is standardized as
    sqrt(n F_hat(h)) * (r_hat - r(chi) - b_n) * m1 / sqrt(m2 * sigma^2)
    with the true noise variance, and the Kolmogorov-Smirnov distance to
    the standard normal is reported. With zero noise the scaling is
    undefined; the raw centered deviations are returned instead and the
    KS statistic is flagged not applicable.
    """
    theoretical = _scalar_theory(config, kernel)
    constants = theoretical.constants
    r_chi = config.slope * config.chi
    sigma2 = config.noise_sd ** 2
    predictions, counts = _scalar_fits(config, kernel)
    scale = np.sqrt(counts)
    if sigma2 > 0:
        scale *= constants.m1 / math.sqrt(constants.m2 * sigma2)
    values = scale * (predictions - r_chi - theoretical.b_n)
    applicable = sigma2 > 0
    if applicable:
        # scipy.stats costs most of a cold import; only this test needs it
        from scipy.stats import kstest

        ks = float(kstest(values, "norm").statistic)
    else:
        ks = float("nan")
    return NormalityExperiment(
        standardized=values,
        ks_statistic=ks,
        ks_applicable=applicable,
        insufficient_replications=config.reps < _MIN_NORMALITY_REPS,
        b_n=theoretical.b_n,
        config=config,
    )


@dataclass(frozen=True)
class FractalFamily:
    """Distance law F(s) = s**gamma on [0, 1] (power-law small balls)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValidationError("gamma must be finite and positive")

    def tau0(self) -> Tau0Model:
        return Tau0Model.fractal(self.gamma)


@dataclass(frozen=True)
class NonsmoothFamily:
    """Distance law proportional to s**(-alpha) exp(-c / s**beta) on (0, 1].

    The exponential factor concentrates all conditional mass at the ball
    boundary, so the limit of F(hs)/F(h) is a point mass at 1. Requires
    c * beta >= alpha so the law is increasing on (0, 1].
    """

    alpha: float
    beta: float
    c: float

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.alpha, self.beta, self.c)):
            raise ValidationError("alpha, beta, c must be finite and positive")
        if self.c * self.beta < self.alpha:
            raise ValidationError(
                "need c * beta >= alpha for a monotone law on (0, 1]"
            )

    def tau0(self) -> Tau0Model:
        return Tau0Model.dirac_at_one()

    def bandwidth_at_rate(self, n: int, a: float = 1.75) -> float:
        """Bandwidth a / (log n)**(1/beta), the slow rate that keeps
        n F(h) growing for this family."""
        return a / math.log(n) ** (1.0 / self.beta)

    def _unnormalized(self, s: np.ndarray) -> np.ndarray:
        return s ** (-self.alpha) * np.exp(-self.c / s ** self.beta)

    def sample_distances(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling by bisection in log10(s) to 1e-10 width."""
        u = rng.random(n)
        target = u * self._unnormalized(np.array([1.0]))[0]
        lo = np.full(n, -12.0)
        hi = np.zeros(n)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = self._unnormalized(10.0 ** mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if float(np.max(10.0 ** hi - 10.0 ** lo)) < 1e-10:
                break
        return 10.0 ** (0.5 * (lo + hi))


@dataclass(frozen=True, eq=False)
class TauConvergenceReport:
    """Empirical conditional small-ball ratio against its h -> 0 limit."""

    s_grid: np.ndarray
    tau_hat: np.ndarray
    tau0_values: np.ndarray
    sup_deviation: float
    n_in_ball: int

    def tau_hat_at(self, s: float) -> float:
        idx = int(np.argmin(np.abs(self.s_grid - s)))
        return float(self.tau_hat[idx])


def mc_tau_convergence(family: FractalFamily | NonsmoothFamily, n: int,
                       h: float, s_grid, seed: int = 0) -> TauConvergenceReport:
    """Simulate distances from the family's law and compare tau_hat to tau0.

    For the nonsmooth family the limit is a point mass at 1, which any
    finite h approaches slowly near s = 1; the pointwise values (e.g. at
    s = 0.5) are the meaningful convergence diagnostic there.

    Raises:
        ValidationError: on a seed ``check_seed`` rejects.
        DegenerateBall: if no draw falls within h.
    """
    if n < _MIN_TAU_SAMPLE:
        raise ValidationError(f"tau convergence check needs n >= {_MIN_TAU_SAMPLE}")
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0 or np.any((s_grid < 0) | (s_grid > 1)):
        raise ValidationError("s_grid must be nonempty within [0, 1]")
    rng = next(replication_streams(seed, 1))
    if isinstance(family, FractalFamily):
        distances = rng.random(n) ** (1.0 / family.gamma)
        tau0_values = s_grid ** family.gamma
    else:
        distances = family.sample_distances(rng, n)
        tau0_values = np.where(s_grid == 1.0, 1.0, 0.0)
    in_ball = int(np.count_nonzero(distances <= h))
    if in_ball == 0:
        raise DegenerateBall(f"no simulated distance within h = {h}")
    tau_hat = np.array([empirical_tau(distances, h, s) for s in s_grid])
    sup_dev = float(np.max(np.abs(tau_hat - tau0_values)))
    return TauConvergenceReport(
        s_grid=s_grid,
        tau_hat=tau_hat,
        tau0_values=tau0_values,
        sup_deviation=sup_dev,
        n_in_ball=in_ball,
    )
