"""Runtime configuration knobs, and the fuzz suite names the CLI lists before it loads a detector."""

import os

DEFAULT_MAX_DIMENSION = 4096

# Environment override for the total-dimension cap enforced by constructors
# and tensor products.
ENV_MAX_DIMENSION = "SCHMIDT_LAB_MAX_DIM"

# the detection suites ``control.fuzz_theorem_checks`` runs, in the order the CLI lists them
FUZZ_SUITES = ("sch3", "sch2-diagonal", "multi", "even-qubit")


def max_total_dimension() -> int:
    """Largest total Hilbert-space dimension any operation will touch."""
    raw = os.environ.get(ENV_MAX_DIMENSION)
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{ENV_MAX_DIMENSION} must be a positive integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"{ENV_MAX_DIMENSION} must be positive, got {value}")
    return value
