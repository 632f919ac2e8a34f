"""Exception types shared across the package."""


class SchmidtLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SchmidtLabError, ValueError):
    """Shape mismatch, non-square operator, or configured dimension cap exceeded."""


class NumericalError(SchmidtLabError, RuntimeError):
    """A factorization or reconstruction failed its verification residual."""


class StructureError(SchmidtLabError, RuntimeError):
    """A structured-family precondition (normality, commutation) is violated.

    Only ``algebra.joint_diagonalize_commuting`` raises it; the detectors
    band their check values into verdicts and never see it.
    """


class ProtocolError(SchmidtLabError, RuntimeError):
    """A protocol transcript is internally inconsistent."""
