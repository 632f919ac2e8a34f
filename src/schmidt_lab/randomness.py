"""Seeded, platform-stable randomness.

Every stochastic routine in the package draws from a numpy ``Generator``
backed by the Philox 4x64 bit generator, a counter-based generator whose
output is a pure function of (key, counter). Identical seeds therefore
reproduce identical streams across runs and platforms; nothing uses the
process-global numpy state.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import _is_int

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator keyed by ``(seed, stream)``.

    Distinct streams under one seed give independent sequences, which is how
    per-trial and per-restart substreams are derived without correlation.
    A seed or stream that is not an integer raises ValueError.
    """
    if not (_is_int(seed) and _is_int(stream)):
        raise ValueError(f"seed and stream must be integers, got {seed!r} and {stream!r}")
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def _checked_dim(dim) -> int:
    """``dim``, or ValueError when it is not a positive integer: a float or a bool is refused."""
    if not (_is_int(dim) and dim >= 1):
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return dim


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction removes the sign/phase ambiguity of QR;
    without it the distribution is not Haar.
    """
    z = random_complex_gaussian((_checked_dim(dim),) * 2, rng)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state vector, uniform on the unit sphere."""
    v = random_complex_gaussian((_checked_dim(dim),), rng)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian matrix, Frobenius-normalized to 1."""
    z = random_complex_gaussian((_checked_dim(dim),) * 2, rng)
    h = (z + z.conj().T) / 2.0
    return h / np.linalg.norm(h)
