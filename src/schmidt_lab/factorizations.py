"""Verified wrappers around the dense factorization backend.

The backend is numpy. The SVD is economy-size; only ``null_space`` forms a
full (right) factor, and an orthogonal complement is the kernel of the
adjoint, so no library path needs a pivoted QR or scipy.
``leading_svd`` returns only the leading singular triplets of a matrix whose
numerical rank is small against its shape, found by a randomized range
finder, together with the exact Frobenius norm ``tau`` of what they leave
out; it falls back to the dense SVD whenever it cannot certify the cut.
Every factorization used for a structural decision is re-verified by
reconstructing the input; a residual above ``RECONSTRUCTION_RTOL`` times the
input norm (plus ``tau`` for a leading SVD) raises ``NumericalError`` instead
of silently propagating a bad basis. Non-finite inputs are rejected up front
as invalid arguments.
"""

from __future__ import annotations

import numpy as np

from . import matrices as mx
from .errors import NumericalError
from .randomness import make_rng, random_complex_gaussian

RECONSTRUCTION_RTOL = 1e-10

# Relative singular-value cutoff used wherever a numerical rank is needed.
RANK_RTOL = 1e-9

# Sketch width of ``leading_svd``; a matrix is sketched only when its short
# side holds 4 widths.
SKETCH_WIDTH = 8
# A sketch is certified when the mass it leaves out is at most this fraction
# of the rank cutoff, so no singular value it misses could count toward a rank.
SKETCH_MARGIN = 1e-3


def _check_residual(error: np.ndarray, m: np.ndarray, what: str, slack: float = 0.0, note: str = "") -> None:
    """NumericalError naming ``what`` when ``||error||`` exceeds ``slack + RECONSTRUCTION_RTOL * ||m||``."""
    residual = np.linalg.norm(error)
    if residual > slack + RECONSTRUCTION_RTOL * max(np.linalg.norm(m), 1e-300):
        raise NumericalError(f"{what} reconstruction residual {residual:.3e} too large{note}")


def _checked_svd(m: np.ndarray, full_matrices: bool):
    u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
    k = s.shape[-1]
    error = u[..., :k] @ (s[..., :, None] * vh[..., :k, :]) - m
    if m.ndim > 2:  # each member against its own norm; the first failing one is named
        residuals = mx.frobenius_norms(error)
        bad = np.flatnonzero(residuals > RECONSTRUCTION_RTOL * np.maximum(mx.frobenius_norms(m), 1e-300))
        if bad.size:
            i = bad[0]
            raise NumericalError(f"svd reconstruction residual {residuals.flat[i]:.3e} too large in member {i}")
    else:
        _check_residual(error, m, "svd")
    return u, s, vh


def svd(m: np.ndarray):
    """Economy-size SVD ``m = u @ diag(s) @ vh``, reconstruction-checked per member of a stack."""
    return _checked_svd(mx._require_finite(m, "svd input"), full_matrices=False)


def leading_svd(m: np.ndarray, rtol: float):
    """Leading singular triplets ``(u, s, vh, tau)`` of ``m``, certified by ``tau``.

    ``tau`` is the mass the triplets leave out of ``m``, computed exactly as
    ``||m - Q Q^H m||_F``: every singular value of ``m`` not in ``s`` is at
    most ``tau``, and each one in ``s`` is within ``tau`` of the true one.
    A matrix whose short side is under ``4 * SKETCH_WIDTH`` goes straight to
    the dense ``svd`` (``tau = 0``). Otherwise one sketch of width
    ``SKETCH_WIDTH`` takes ``Q = qr(m W)`` for a Gaussian W from a fixed
    stream, ``B = Q^H m`` and the ``svd`` of B (Halko, Martinsson & Tropp,
    SIAM Review 53, 2011). The sketch is accepted when
    ``tau <= SKETCH_MARGIN * rtol * s_0`` and its smallest value is at or
    below ``rtol * s_0``, that is when it holds every value above the rank
    cutoff with room to spare; the accepted factors must rebuild ``m``
    within ``tau + RECONSTRUCTION_RTOL * ||m||``. Otherwise the dense
    ``svd`` of ``m`` is returned. Both SVDs go through ``svd``.
    """
    if 4 * SKETCH_WIDTH > min(np.shape(m)):
        return (*svd(m), 0.0)
    m = mx._require_finite(m, "svd input")
    w = random_complex_gaussian((m.shape[1], SKETCH_WIDTH), make_rng(0))
    q, _ = np.linalg.qr(m @ w)
    b = q.conj().T @ m
    tau = float(np.linalg.norm(m - q @ b))
    u_b, s, vh = svd(b)
    if tau <= SKETCH_MARGIN * rtol * s[0] and s[-1] <= rtol * s[0]:
        u = q @ u_b
        _check_residual(u @ (s[:, None] * vh) - m, m, "leading svd", slack=tau)
        return u, s, vh, tau
    return (*svd(m), 0.0)


def eigh(m: np.ndarray):
    """Hermitian eigendecomposition, eigenvalues ascending, verified."""
    m = mx._require_finite(m, "eigh input")
    w, v = np.linalg.eigh(m)
    _check_residual((v * w[None, :]) @ v.conj().T - m, m, "eigh", note="; input is likely not Hermitian")
    return w, v


# No library path calls ``qr_pivoted`` or ``orthonormal_columns``; both stay
# because ``bench/spans.py`` wraps them by name and ``tests/test_trace_names.py``
# checks that they exist.
def qr_pivoted(m: np.ndarray):
    """Column-pivoted QR ``m[:, piv] = q @ r``, verified."""
    # scipy is a test dependency, imported only when this QR is called.
    import scipy.linalg

    m = mx._require_finite(m, "qr input")
    q, r, piv = scipy.linalg.qr(m, pivoting=True)
    _check_residual(q @ r - m[:, piv], m, "qr")
    return q, r, piv


def numerical_rank(singular_values: np.ndarray, rtol: float = RANK_RTOL) -> int:
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def span_dimension(ops, rtol: float = RANK_RTOL) -> int:
    """Dimension of the linear span of ``ops``, each flattened to a vector."""
    stack = np.array([np.asarray(op, dtype=complex).reshape(-1) for op in ops])
    return numerical_rank(svd(stack)[1], rtol)


def _fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive."""
    q = q.copy()
    for j in range(q.shape[1]):
        col = q[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * max(np.linalg.norm(col), 1e-300))
        if idx.size:
            pivot = col[idx[0]]
            q[:, j] = col * (np.conj(pivot) / abs(pivot))
    return q


def orthonormal_columns(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``m`` (d x rank)."""
    m = mx._require_finite(m, "orthonormal_columns input")
    u, s, _ = svd(m)
    return u[:, : numerical_rank(s, rtol)]


def orthonormal_complement(m: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the orthogonal complement of col(m).

    The complement is the kernel of ``m^H`` (``null_space``: one checked SVD,
    ``d - rank(m)`` columns at ``RANK_RTOL``), with the column-phase
    convention (first significant entry real positive), so repeated calls on
    equal inputs return identical bases.
    """
    m = mx._require_finite(m, "orthonormal_complement input")
    return _fix_column_phases(null_space(m.conj().T))


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``{x : m @ x = 0}`` as columns.

    The SVD is economy-size: the left factor of a tall system (a stacked
    commutant system has thousands of rows) is never formed beyond its
    leading columns. The full right factor is kept only when ``m`` has fewer
    rows than columns: there the kernel needs right singular vectors that the
    economy factor leaves out. The reconstruction check runs on the factors
    computed.
    """
    m = mx._require_finite(m, "null_space input")
    _, s, vh = _checked_svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[numerical_rank(s):].conj().T
