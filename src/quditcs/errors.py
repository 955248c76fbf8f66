"""Exception types shared across the package."""


class QuditError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QuditError, ValueError):
    """Two states disagree on the Hilbert-space dimension."""


class NullStateError(QuditError, ValueError):
    """A construction produced the zero vector, so there is nothing to normalize."""


class AmplitudeFormatError(QuditError, ValueError):
    """A complex-amplitude string could not be parsed."""


class ConvergenceError(QuditError, RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""
