"""Verified factorization wrappers."""

import numpy as np
import pytest
import scipy.linalg

from schmidt_lab import factorizations as fx
from schmidt_lab.randomness import make_rng, random_complex_gaussian


def test_svd_reconstructs():
    m = random_complex_gaussian((4, 6), make_rng(1))
    u, s, vh = fx.svd(m)
    k = len(s)
    assert np.linalg.norm(u[:, :k] @ np.diag(s) @ vh[:k] - m) <= 1e-10 * np.linalg.norm(m)


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


def _corrupting(exact, index):
    """``exact`` with output ``index`` scaled by 1 + 1e-6, which no reconstruction check may pass."""

    def corrupt(*args, **kwargs):
        out = list(exact(*args, **kwargs))
        out[index] = out[index] * (1.0 + 1e-6)
        return tuple(out)

    return corrupt


@pytest.mark.parametrize(
    "module, attr, index, call, message",
    [
        (np.linalg, "eigh", 0, lambda: fx.eigh(np.diag([1.0, 2.0, 3.0])), "eigh {}; input is likely not Hermitian"),
        (scipy.linalg, "qr", 1, lambda: fx.qr_pivoted(random_complex_gaussian((5, 3), make_rng(3))), "qr {}"),
        (np.linalg, "svd", 1, lambda: fx.null_space(random_complex_gaussian((3, 5), make_rng(3))), "svd {}"),
        # rank 2 at 64 x 64 takes the sketch; the corrupted svd is the one of B = Q^H m
        (fx, "svd", 1, lambda: fx.leading_svd(_rank_two_64(), fx.RANK_RTOL), "leading svd {}"),
    ],
    ids=["eigh", "qr_pivoted", "null_space", "leading_svd"],
)
def test_each_reconstruction_check_names_its_factorization(monkeypatch, module, attr, index, call, message):
    from schmidt_lab.errors import NumericalError

    monkeypatch.setattr(module, attr, _corrupting(getattr(module, attr), index))
    with pytest.raises(NumericalError, match="^" + message.format(r"reconstruction residual \S+ too large") + "$"):
        call()


def _rank_two_64():
    rng = make_rng(7)
    return random_complex_gaussian((64, 2), rng) @ random_complex_gaussian((2, 64), rng)


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
    cases = [
        (random_complex_gaussian((6, 2), rng), 4),
        # rank 2 in five columns: the complement follows the rank, not the width
        (random_complex_gaussian((8, 2), rng) @ random_complex_gaussian((2, 5), rng), 6),
        (np.zeros((5, 0), dtype=complex), 5),
    ]
    for m, width in cases:
        comp = fx.orthonormal_complement(m)
        assert comp.shape == (m.shape[0], width)
        assert np.linalg.norm(comp.conj().T @ comp - np.eye(width)) <= 1e-12
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
