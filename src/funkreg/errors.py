"""Exception hierarchy.

Two branches: ValidationError for malformed inputs or violated contracts
(CLI exit code 2), NumericError for computations that degenerate on valid
inputs (CLI exit code 3).
"""

import numpy as np


class FunkregError(Exception):
    """Base class for all package errors."""


class ValidationError(FunkregError):
    """Invalid input, specification, or configuration."""


def is_integer(value) -> bool:
    """Whether value is an integer: an int or a NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integers(**values) -> None:
    """Raise ValidationError naming the first of the keyword values that
    is not an integer (``is_integer``)."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def require_counts(low: int, high: int | None = None, **counts) -> None:
    """The count rule. Raise, naming the first of the keyword counts that
    breaks it, ValidationError if it is not an integer (``require_integers``)
    and TooFewPoints if it lies outside [low, high], or below low when high
    is None. An order between two counts is a second call whose bound is
    the first count."""
    for name, value in counts.items():
        if not is_integer(value):
            require_integers(**{name: value})
        if high is None and value < low:
            raise TooFewPoints(f"{name} must be at least {low}, got {value}")
        if high is not None and not low <= value <= high:
            raise TooFewPoints(f"{name} must lie in [{low}, {high}], got {value}")


def require_bandwidths(h) -> None:
    """Raise ValidationError naming the first bandwidth of the scalar or
    array ``h`` that is not positive and finite (NaN, 0, -0.0 and +-inf
    included)."""
    h = np.asarray(h, dtype=float)
    ok = np.isfinite(h) & (h > 0.0)
    if np.count_nonzero(ok) < h.size:
        raise ValidationError("bandwidth must be positive and finite, "
                              f"got {h.flat[np.flatnonzero(~ok)[0]]}")


class NumericError(FunkregError):
    """Computation degenerated on otherwise valid input."""


# -- curves -----------------------------------------------------------------

class GridTooShort(ValidationError):
    """Grid has too few points for the requested operation."""


class GridMismatch(ValidationError):
    """Curves do not share a sampling grid."""


# -- kernels ----------------------------------------------------------------

class InvalidKernel(ValidationError):
    """Kernel is negative or increasing on its support."""


class DomainError(ValidationError):
    """Argument outside the function's domain."""


# -- estimator --------------------------------------------------------------

class TooFewPoints(ValidationError):
    """A count outside its range (``require_counts``), or not enough
    observations for the requested computation."""


class EmptyNeighborhood(NumericError):
    """No observation receives positive kernel weight."""


class DegenerateBall(NumericError):
    """Empirical small-ball probability is zero at the given radius."""


class DegenerateGrid(NumericError):
    """A k-nearest-neighbor radius is zero; bandwidths must be positive."""


class KernelNotH2Strict(ValidationError):
    """Kernel has K(1) = 0; confidence intervals require K(1) > 0."""


class MissingSigma2(ValidationError):
    """Estimate carries no conditional-variance plug-in."""


class DegenerateConstants(NumericError):
    """Asymptotic constants degenerate (M1 <= 0)."""


# -- bootstrap --------------------------------------------------------------

class DegeneratePilot(NumericError):
    """Pilot bandwidth leaves some point or query without neighbors."""


class EmptyGrid(ValidationError):
    """Bandwidth grid contains no candidates."""


# -- dataset ingestion ------------------------------------------------------

class ParseError(ValidationError):
    """Dataset file contains a cell that cannot be parsed."""


class RaggedRows(ValidationError):
    """Dataset rows have inconsistent lengths."""


class NonMonotoneGrid(ValidationError):
    """Dataset header abscissae are not strictly increasing."""
