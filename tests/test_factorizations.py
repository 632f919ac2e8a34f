"""Verified factorization wrappers."""

import numpy as np
import pytest

from schmidt_lab import factorizations as fx
from schmidt_lab.randomness import make_rng, random_complex_gaussian


def test_svd_reconstructs():
    m = random_complex_gaussian((4, 6), make_rng(1))
    u, s, vh = fx.svd(m)
    k = len(s)
    assert np.linalg.norm(u[:, :k] @ np.diag(s) @ vh[:k] - m) <= 1e-10 * np.linalg.norm(m)


def test_svd_rejects_non_finite():
    m = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        fx.svd(m)


def test_svd_of_a_stack_is_the_svd_of_each_member():
    stack = random_complex_gaussian((3, 4, 6), make_rng(5))
    u, s, vh = fx.svd(stack)
    for i, m in enumerate(stack):
        # a 2-D input gives numpy's economy factors unchanged
        for got, want in zip(fx.svd(m), np.linalg.svd(m, full_matrices=False)):
            assert np.array_equal(got, want)
        for got, want in zip((u[i], s[i], vh[i]), fx.svd(m)):
            assert np.array_equal(got, want)


def test_svd_of_a_stack_checks_each_member(monkeypatch):
    from schmidt_lab.errors import NumericalError

    stack = random_complex_gaussian((3, 4, 6), make_rng(6))
    stack[2] *= 1e6  # a member one million times larger must not mask member 1
    with pytest.raises(ValueError, match="non-finite"):
        fx.svd(np.where(np.arange(3)[:, None, None] == 1, np.nan, stack))
    exact = np.linalg.svd

    def corrupt_member_1(m, full_matrices=True):
        u, s, vh = exact(m, full_matrices=full_matrices)
        s = s.copy()
        rows = s.reshape(-1, s.shape[-1])  # a view: the first value of member 1, or of a lone matrix
        rows[min(1, len(rows) - 1), 0] *= 1.0 + 1e-6
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", corrupt_member_1)
    with pytest.raises(NumericalError, match="too large in member 1"):
        fx.svd(stack)
    with pytest.raises(NumericalError, match="too large$"):
        fx.svd(stack[:2].reshape(8, 6))


def test_eigh_reconstructs_and_flags_non_hermitian():
    rng = make_rng(2)
    z = random_complex_gaussian((5, 5), rng)
    h = z + z.conj().T
    w, v = fx.eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10 * np.linalg.norm(h)
    from schmidt_lab.errors import NumericalError

    with pytest.raises(NumericalError):
        fx.eigh(z)  # generic matrix: reconstruction from one triangle must fail


def test_qr_pivoted_reconstructs():
    m = random_complex_gaussian((5, 3), make_rng(3))
    q, r, piv = fx.qr_pivoted(m)
    assert np.linalg.norm(q @ r - m[:, piv]) <= 1e-10 * np.linalg.norm(m)


def test_numerical_rank():
    assert fx.numerical_rank(np.array([3.0, 1.0, 1e-12])) == 2
    assert fx.numerical_rank(np.array([0.0, 0.0])) == 0
    assert fx.numerical_rank(np.array([])) == 0


def test_orthonormal_complement_properties():
    rng = make_rng(4)
    m = random_complex_gaussian((6, 2), rng)
    comp = fx.orthonormal_complement(m)
    assert comp.shape == (6, 4)
    assert np.linalg.norm(comp.conj().T @ comp - np.eye(4)) <= 1e-12
    assert np.linalg.norm(m.conj().T @ comp) <= 1e-10
    # determinism and the sign convention: first significant entry real positive
    again = fx.orthonormal_complement(m)
    np.testing.assert_array_equal(comp, again)
    for j in range(comp.shape[1]):
        col = comp[:, j]
        first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(first.imag) <= 1e-12 and first.real > 0


def test_orthonormal_complement_of_full_space_is_empty():
    comp = fx.orthonormal_complement(np.eye(3, dtype=complex))
    assert comp.shape == (3, 0)


def test_null_space():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    ns = fx.null_space(m)
    assert ns.shape == (3, 1)
    assert np.linalg.norm(m @ ns) <= 1e-12


def check_null_space(m, nullity):
    ns = fx.null_space(m)
    assert ns.shape == (m.shape[1], nullity)
    assert np.allclose(ns.conj().T @ ns, np.eye(nullity), atol=1e-12)
    assert np.linalg.norm(m @ ns) <= 1e-12 * np.linalg.norm(m)


def test_null_space_of_tall_matrix():
    rng = make_rng(4)
    m = random_complex_gaussian((300, 4), rng) @ random_complex_gaussian((4, 7), rng)
    check_null_space(m, 3)


def test_null_space_of_wide_matrix_keeps_every_kernel_vector():
    rng = make_rng(5)
    m = random_complex_gaussian((3, 2), rng) @ random_complex_gaussian((2, 9), rng)
    check_null_space(m, 7)
    check_null_space(random_complex_gaussian((4, 9), rng), 5)
