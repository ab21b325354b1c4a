"""Kernel families, small-ball limit models, and asymptotic constants.

Kernels live on the support [0, 1] and are represented by ascending
polynomial coefficients, which covers the uniform, quadratic, and triangle
families as special cases. The local geometry of the predictor's law enters
through tau0, the limit of the conditional small-ball ratio F(hs)/F(h).
The three constants

    m0 = K(1) - int_0^1 (s K(s))' tau0(s) ds
    m1 = K(1) - int_0^1 K'(s) tau0(s) ds
    m2 = K(1)^2 - int_0^1 (K^2)'(s) tau0(s) ds

drive the leading bias and variance of the functional kernel estimator.
For polynomial kernels with a fractal (power-law) tau0 they are evaluated
in closed form; otherwise by adaptive Simpson quadrature.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidKernel, ValidationError

_CHECK_GRID_SIZE = 1024
_NEGATIVITY_TOL = 1e-12
_QUADRATURE_TOL = 1e-10
_POSITIVITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """A nonincreasing, nonnegative kernel supported on [0, 1].

    ``coefficients`` are ascending powers: K(u) = sum_j c_j u^j on [0, 1],
    and K(u) = 0 outside. Use the factory classmethods for the named
    families. Construction checks the shape on a 1024-point grid, with
    tolerances relative to max|K| there, and raises InvalidKernel for a
    negative, increasing or vanishing (K(0) <= 0) kernel, so every
    KernelSpec has its positive maximum at K(0). A non-finite coefficient
    raises InvalidKernel before the shape is checked. The boundary clause
    K(1) > 0 is not enforced (``h2_strict``): the quadratic kernel fails it
    yet remains usable everywhere except confidence intervals.
    """

    family: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValidationError("kernel needs at least one coefficient")
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        for c in self.coefficients:
            if not np.isfinite(c):
                raise InvalidKernel(
                    f"kernel {self.family} has a non-finite coefficient {c}")
        u = np.linspace(0.0, 1.0, _CHECK_GRID_SIZE)
        values = _horner(self.coefficients, u)
        # Kernel weights are scale-free, so the tolerance scales with K.
        tol = _NEGATIVITY_TOL * np.max(np.abs(values))
        if not np.all(values >= -tol):
            raise InvalidKernel(f"kernel {self.family} is negative on [0, 1]")
        deriv = _horner(self.derivative_coefficients(), u[:-1])
        if not np.all(deriv <= tol):
            raise InvalidKernel(f"kernel {self.family} is increasing on [0, 1)")
        if self.k_at_zero <= 0.0:
            raise InvalidKernel(f"kernel {self.family} is zero on [0, 1]")

    @classmethod
    def uniform(cls) -> "KernelSpec":
        return cls("uniform", (1.0,))

    @classmethod
    def quadratic(cls) -> "KernelSpec":
        return cls("quadratic", (1.0, 0.0, -1.0))

    @classmethod
    def triangle(cls) -> "KernelSpec":
        return cls("triangle", (1.0, -1.0))

    @classmethod
    def polynomial(cls, coefficients) -> "KernelSpec":
        return cls("polynomial", tuple(coefficients))

    @property
    def k_at_one(self) -> float:
        return float(sum(self.coefficients))

    @property
    def k_at_zero(self) -> float:
        return float(self.coefficients[0])

    @property
    def h2_strict(self) -> bool:
        """Whether the kernel satisfies the strict boundary clause K(1) > 0."""
        return self.k_at_one > 0.0

    def derivative_coefficients(self) -> tuple[float, ...]:
        return tuple(j * c for j, c in enumerate(self.coefficients))[1:] or (0.0,)

    def squared_coefficients(self) -> tuple[float, ...]:
        c = np.asarray(self.coefficients)
        return tuple(np.convolve(c, c))


def eval_kernel_array(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Vectorized kernel evaluation with hard support truncation: K(u) on
    [0, 1], 0 elsewhere and at NaN, in an array of the shape of ``u``.

    ``_horner`` on v = u clipped to [0, 1], then the entries where v != u
    (outside the support, or NaN) set to 0.
    """
    u = np.asarray(u, dtype=float)
    clipped = np.minimum(np.maximum(u, 0.0), 1.0)
    w = _horner(spec.coefficients, clipped)
    np.copyto(w, 0.0, where=clipped != u)
    return w


def _horner(coefficients, v) -> np.ndarray:
    """The polynomial with ascending ``coefficients`` at every entry of
    ``v``, a float array or a Python float, with no clip or mask: on v in
    [0, 1], the kernel's bits of ``eval_kernel_array``.

    Horner's rule runs from the leading coefficient, w = c_q, then
    w = w * v + c_j for j = q - 1 .. 0, one product and one sum a step: in
    place on one buffer for an array, on a numpy float for a Python float
    (a 0-d buffer would make each step several times slower).
    """
    w = np.empty(np.shape(v))
    w.fill(coefficients[-1])
    if type(v) is float:
        w = w[()]
    for c in coefficients[-2::-1]:
        w *= v
        w += c
    return w


@dataclass(frozen=True)
class Tau0Model:
    """Limit of the conditional small-ball ratio F(hs)/F(h) as h -> 0.

    Families:
      - ``fractal(gamma)``: tau0(s) = s**gamma, the power-law case covering
        every finite-dimensional design with positive density.
      - ``dirac_at_one``: point mass at 1, the nonsmooth-process limit.
      - ``indicator_unit``: 0 at s=0 and 1 for s>0, the logarithmic case
        (the degenerate limit where m0 vanishes).
      - ``empirical(table)``: monotone linear interpolation of observed
        (s, value) pairs ending at (1, 1).
    """

    family: str
    gamma: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family == "fractal":
            if self.gamma is None or not 0 < self.gamma < np.inf:
                raise ValidationError("fractal tau0 needs a finite gamma > 0")
        elif self.family in ("dirac_at_one", "indicator_unit"):
            pass
        elif self.family == "empirical":
            self._validate_table()
        else:
            raise ValidationError(f"unknown tau0 family: {self.family!r}")

    def _validate_table(self):
        if not self.table:
            raise ValidationError("empirical tau0 needs a nonempty table")
        try:
            table = tuple((float(s), float(v)) for s, v in self.table)
        except (TypeError, ValueError):
            raise ValidationError(
                "empirical tau0 table must be (s, value) pairs"
            ) from None
        s_vals = [s for s, _ in table]
        v_vals = [v for _, v in table]
        # written so that NaN fails: it compares false with everything
        if not all(0 <= s <= 1 for s in s_vals):
            raise ValidationError("empirical table abscissae must lie in [0, 1]")
        if any(s2 <= s1 for s1, s2 in zip(s_vals, s_vals[1:])):
            raise ValidationError("empirical table abscissae must be strictly increasing")
        if not all(0 <= v <= 1 for v in v_vals):
            raise ValidationError("empirical table values must lie in [0, 1]")
        if any(v2 < v1 for v1, v2 in zip(v_vals, v_vals[1:])):
            raise ValidationError("empirical table values must be nondecreasing")
        if s_vals[-1] != 1.0 or v_vals[-1] != 1.0:
            raise ValidationError("empirical table must end at (1, 1)")
        object.__setattr__(self, "table", table)

    @classmethod
    def fractal(cls, gamma: float) -> "Tau0Model":
        return cls("fractal", gamma=float(gamma))

    @classmethod
    def dirac_at_one(cls) -> "Tau0Model":
        return cls("dirac_at_one")

    @classmethod
    def indicator_unit(cls) -> "Tau0Model":
        return cls("indicator_unit")

    @classmethod
    def empirical(cls, table) -> "Tau0Model":
        return cls("empirical", table=tuple(tuple(p) for p in table))


def tau0_eval(model: Tau0Model, s: float) -> float:
    """Evaluate tau0 at s in [0, 1].

    Raises:
        DomainError: if s is outside [0, 1].
    """
    if not 0.0 <= s <= 1.0:  # written so that NaN fails
        raise DomainError(f"tau0 argument must lie in [0, 1], got {s}")
    if model.family == "fractal":
        return float(s) ** model.gamma
    if model.family == "dirac_at_one":
        return 1.0 if s == 1.0 else 0.0
    if model.family == "indicator_unit":
        return 0.0 if s == 0.0 else 1.0
    # empirical: anchor at (0, 0) when the table starts above 0, since the
    # ratio F(hs)/F(h) vanishes at s = 0 whenever F(0) = 0.
    s_vals = [p[0] for p in model.table]
    v_vals = [p[1] for p in model.table]
    if s_vals[0] > 0.0:
        s_vals = [0.0] + s_vals
        v_vals = [0.0] + v_vals
    return float(np.interp(s, s_vals, v_vals))


@dataclass(frozen=True)
class KernelConstants:
    """The (m0, m1, m2) triple entering the leading bias and variance."""

    m0: float
    m1: float
    m2: float

    def __post_init__(self):
        object.__setattr__(self, "m0", float(self.m0))
        object.__setattr__(self, "m1", float(self.m1))
        object.__setattr__(self, "m2", float(self.m2))


def _fractal_power_integral(coefficients, gamma: float) -> float:
    """int_0^1 (sum_j c_j s^j) * s^gamma ds, term by term."""
    return sum(
        c / (j + gamma + 1.0)
        for j, c in enumerate(coefficients)
        if c != 0.0
    )


def _integrand_coefficients(spec: KernelSpec):
    """Ascending coefficients of (s K(s))', K'(s) and (K(s)^2)': their
    integrals against tau0 over [0, 1] are K(1) - m0, K(1) - m1 and
    K(1)^2 - m2."""
    sq = spec.squared_coefficients()
    return (tuple((j + 1) * cj for j, cj in enumerate(spec.coefficients)),
            spec.derivative_coefficients(),
            tuple(j * cj for j, cj in enumerate(sq))[1:] or (0.0,))


@lru_cache
def _closed_form_fractal(c: tuple[float, ...], gamma: float) -> KernelConstants:
    """The constants of the kernel with coefficients ``c`` under
    tau0(s) = s**gamma, kept per (c, gamma): plain values, so a kernel or
    tau0 model need not be hashable to use them."""
    spec = KernelSpec("polynomial", c)
    k1 = spec.k_at_one
    i0, i1, i2 = (_fractal_power_integral(coeffs, gamma)
                  for coeffs in _integrand_coefficients(spec))
    return KernelConstants(m0=k1 - i0, m1=k1 - i1, m2=k1 * k1 - i2)


def _adaptive_simpson(f, a: float, b: float, tol: float,
                      max_depth: int = 60) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (
        _simpson_recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        + _simpson_recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    )


def constants_by_quadrature(spec: KernelSpec, tau0: Tau0Model,
                            tol: float = _QUADRATURE_TOL) -> KernelConstants:
    """Compute (m0, m1, m2) by adaptive Simpson quadrature against tau0.

    This route evaluates tau0 pointwise and never uses the closed forms,
    so it doubles as an independent cross-check of them. Point masses and
    jumps contribute nothing beyond the tolerance, as befits Lebesgue
    integrals against an a.e.-zero or a.e.-one factor.
    """
    k1 = spec.k_at_one

    def integrand(coeffs):
        return lambda s: float(_horner(coeffs, s)) * tau0_eval(tau0, s)

    i0, i1, i2 = (_adaptive_simpson(integrand(coeffs), 0.0, 1.0, tol)
                  for coeffs in _integrand_coefficients(spec))
    return KernelConstants(m0=k1 - i0, m1=k1 - i1, m2=k1 * k1 - i2)


def compute_constants(spec: KernelSpec, tau0: Tau0Model) -> KernelConstants:
    """Exact asymptotic constants for a kernel / tau0 pair.

    Polynomial kernels with fractal tau0 integrate in closed form. The
    dirac-at-one limit kills every integral (the integrand is multiplied
    by an a.e.-zero function), leaving m0 = m1 = K(1) and m2 = K(1)^2.
    Indicator and empirical models fall back to adaptive quadrature.
    """
    if tau0.family == "fractal":
        return _closed_form_fractal(spec.coefficients, float(tau0.gamma))
    if tau0.family == "dirac_at_one":
        k1 = spec.k_at_one
        return KernelConstants(m0=k1, m1=k1, m2=k1 * k1)
    return constants_by_quadrature(spec, tau0)


@dataclass(frozen=True)
class M0PositivityReport:
    """Verdict on m0 > 0 with the structural case that justifies it."""

    positive: bool
    m0: float
    case: str  # "differentiable_tau0", "dirac_with_k1_positive", or "numeric"


def check_m0_positive(spec: KernelSpec, tau0: Tau0Model) -> M0PositivityReport:
    """Decide whether m0 is structurally positive for this pair.

    Power-law tau0 models are continuously differentiable and distinct from
    the unit indicator, so m0 > 0 holds for any valid kernel; the dirac
    limit gives m0 = K(1), positive exactly when the strict boundary clause
    holds. Anything else gets a numeric-only verdict against a 1e-12
    threshold separating structural zeros from rounding.
    """
    constants = compute_constants(spec, tau0)
    positive = constants.m0 > _POSITIVITY_THRESHOLD
    if tau0.family == "fractal":
        case = "differentiable_tau0"
    elif tau0.family == "dirac_at_one" and spec.h2_strict:
        case = "dirac_with_k1_positive"
    else:
        case = "numeric"
    return M0PositivityReport(positive=positive, m0=constants.m0, case=case)
