"""Exception types shared across the package."""


class SchmidtLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SchmidtLabError, ValueError):
    """Shape mismatch, non-square operator, or configured dimension cap exceeded."""


class NumericalError(SchmidtLabError, RuntimeError):
    """A factorization or reconstruction failed its verification residual."""


class ProtocolError(SchmidtLabError, RuntimeError):
    """A protocol transcript is internally inconsistent."""
