"""Matrix-space toolbox: splittings, singular combinations, joint structure."""

import math
import re

import numpy as np
import pytest

import schmidt_lab.algebra as alg
import schmidt_lab.factorizations as fx
import schmidt_lab.gates as gates
import schmidt_lab.matrices as mx
from schmidt_lab.errors import DimensionError, StructureError
from schmidt_lab.randomness import haar_unitary, make_rng, random_complex_gaussian
from schmidt_lab.schmidt import operator_schmidt_decompose

SQ2 = math.sqrt(2.0)


def pauli(i):
    return gates.pauli(i)[0]


def random_normal_matrix(dim, rng, values=None):
    # unitary conjugation of a (possibly complex) diagonal is exactly normal
    if values is None:
        values = random_complex_gaussian((dim,), rng)
    w = haar_unitary(dim, rng)
    return w @ np.diag(values) @ w.conj().T


# ---------------------------------------------------------------- normal_split


def test_normal_split_of_unitary_is_single_cluster():
    u = haar_unitary(4, make_rng(1))
    dec, v = alg.normal_split(u)
    assert len(dec.values) == 1
    assert abs(dec.values[0] - 1.0) < 1e-10
    assert np.allclose(dec.projectors[0], np.eye(4), atol=1e-10)
    assert np.allclose(v, u, atol=1e-10)


def test_normal_split_frozen_diagonal():
    a = np.diag([2.0, 2.0, 0.0]).astype(complex)
    dec, v = alg.normal_split(a)
    assert np.allclose(dec.values, [4.0, 0.0], atol=1e-12)
    rebuilt = sum(
        math.sqrt(c) * p for c, p in zip(dec.values, dec.projectors)
    ) @ v
    assert np.allclose(rebuilt, a, atol=1e-10)
    # kernel completion keeps the factor unitary
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
    assert np.allclose(v, np.eye(3), atol=1e-10)


def test_normal_split_frozen_complex_diagonal():
    a = np.diag([2.0, 2.0j, 0.0]).astype(complex)
    dec, v = alg.normal_split(a)
    assert np.allclose(dec.values, [4.0, 0.0], atol=1e-12)
    assert np.allclose(v, np.diag([1.0, 1.0j, 1.0]), atol=1e-10)


def test_normal_split_projector_axioms_and_reconstruction():
    rng = make_rng(2)
    for trial in range(200):
        dim = 2 + trial % 4
        a = random_complex_gaussian((dim, dim), rng)
        if trial % 3 == 0:
            # plant a kernel so the completion path is exercised
            a[:, 0] = 0.0
        dec, v = alg.normal_split(a)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        total = np.zeros((dim, dim), dtype=complex)
        for c, p in zip(dec.values, dec.projectors):
            assert np.allclose(p, p.conj().T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-10)
            total += p
        assert np.allclose(total, np.eye(dim), atol=1e-10)
        for i in range(len(dec.values) - 1):
            assert dec.values[i] > dec.values[i + 1]
            for j in range(i + 1, len(dec.values)):
                assert np.allclose(
                    dec.projectors[i] @ dec.projectors[j], 0.0, atol=1e-10
                )
        rebuilt = sum(
            math.sqrt(max(c, 0.0)) * p for c, p in zip(dec.values, dec.projectors)
        ) @ v
        norm = mx.frobenius_norm(a)
        assert mx.frobenius_norm(rebuilt - a) <= 1e-10 * max(norm, 1.0)


def test_normal_split_of_normal_matrix_has_unitary_blocks():
    rng = make_rng(3)
    values = np.array([2.0, 2.0j, 2.0j, -1.0, 0.5])
    a = random_normal_matrix(5, rng, values)
    dec, _ = alg.normal_split(a)
    for c, p in zip(dec.values, dec.projectors):
        # off-block coupling vanishes and each block is sqrt(c) times a unitary
        others = sum(q for q in dec.projectors if q is not p)
        assert mx.frobenius_norm(others @ a @ p) < 1e-8
        block = p @ a @ p
        assert np.allclose(
            block.conj().T @ block, c * p, atol=1e-8
        )


def test_block_preserving_products_fix_the_weighted_sum():
    # W (sum c_i P_i) X = sum c_i P_i for W = (+) W_i, X = (+) W_i^dagger,
    # and an off-block perturbation breaks the equality detectably
    rng = make_rng(4)
    sizes = (2, 3)
    values = (3.0, 1.0)
    blocks = [haar_unitary(k, rng) for k in sizes]
    w = np.zeros((5, 5), dtype=complex)
    x = np.zeros((5, 5), dtype=complex)
    d = np.zeros((5, 5), dtype=complex)
    at = 0
    for size, c, b in zip(sizes, values, blocks):
        sl = slice(at, at + size)
        w[sl, sl] = b
        x[sl, sl] = b.conj().T
        d[sl, sl] = c * np.eye(size)
        at += size
    assert mx.frobenius_norm(w @ d @ x - d) < 1e-10
    rot = np.eye(5, dtype=complex)
    theta = 1e-4
    rot[1, 1] = rot[2, 2] = math.cos(theta)
    rot[1, 2], rot[2, 1] = -math.sin(theta), math.sin(theta)
    assert mx.frobenius_norm((w @ rot) @ d @ x - d) > 1e-8


def test_diagonal_positive_definite_sandwich_forces_adjoint_pair():
    # W D X = D with D diagonal positive definite forces W = X^dagger
    rng = make_rng(5)
    d_vals = np.array([2.0, 2.0, 0.5, 0.5, 0.5])
    blocks = [haar_unitary(2, rng), haar_unitary(3, rng)]
    x = np.zeros((5, 5), dtype=complex)
    x[:2, :2], x[2:, 2:] = blocks[0], blocks[1]
    d = np.diag(d_vals).astype(complex)
    w = d @ np.linalg.inv(x) @ np.linalg.inv(d)
    assert mx.frobenius_norm(w @ d @ x - d) < 1e-10
    assert mx.frobenius_norm(w - x.conj().T) < 1e-8


# ------------------------------------------------------- singular_combination


def test_singular_combination_frozen_diagonal_pair():
    alpha, beta, c = alg.singular_combination(np.eye(2, dtype=complex), np.diag([1.0, 2.0]).astype(complex))
    assert (alpha, beta) == (-1.0, 1.0)
    assert np.allclose(c, np.diag([0.0, 1.0]), atol=1e-12)


def test_singular_combination_returns_singular_input_directly():
    a = np.diag([1.0, 0.0]).astype(complex)
    alpha, beta, c = alg.singular_combination(a, np.eye(2, dtype=complex))
    assert (alpha, beta) == (1.0, 0.0)
    assert np.allclose(c, a)


def test_singular_combination_on_random_invertible_pairs():
    rng = make_rng(6)
    for _ in range(50):
        dim = 2 + int(rng.integers(0, 3))
        a = haar_unitary(dim, rng)
        b = random_complex_gaussian((dim, dim), rng)
        alpha, beta, c = alg.singular_combination(a, b)
        assert np.allclose(c, alpha * a + beta * b, atol=1e-12)
        s = np.linalg.svd(c, compute_uv=False)
        assert s[-1] < 1e-8 * mx.frobenius_norm(c)
        # oracle: the chosen combination matches an eigenvalue of a^-1 b
        evals = np.linalg.eigvals(np.linalg.inv(a) @ b)
        assert min(abs(-beta * ev - alpha) for ev in evals) < 1e-6


def _singular_combination_loop(a, b):
    # the per-eigenvalue loop that the stacked evaluation replaced
    evals = np.linalg.eigvals(np.linalg.solve(a, b))
    candidates = []
    for lam in evals:
        c = b - lam * a
        norm = mx.frobenius_norm(c)
        ratio = fx.svd(c)[1][-1] / norm if norm > 0 else 0.0
        candidates.append((ratio, lam, c))
    best = min(r for r, _, _ in candidates)
    tied = [candidate for candidate in candidates if candidate[0] <= best + 1e-12]
    _, lam, c = min(tied, key=lambda t: (round(t[1].real, 12), round(t[1].imag, 12)))
    return complex(-lam), 1.0, c


def test_singular_combination_matches_the_per_eigenvalue_loop_bitwise():
    for i in range(400):
        rng = make_rng(1000 + i)
        dim = 2 + i % 7
        a = random_complex_gaussian((dim, dim), rng)
        if i % 4 == 3 and dim > 2:
            # repeated pencil eigenvalues: the tie rule picks among equal ratios
            values = np.repeat(random_complex_gaussian((dim // 2 + 1,), rng), 2)[:dim]
            b = a @ random_normal_matrix(dim, rng, values)
        else:
            b = random_complex_gaussian((dim, dim), rng)
        alpha, beta, c = alg.singular_combination(a, b)
        ref_alpha, ref_beta, ref_c = _singular_combination_loop(a, b)
        assert (alpha, beta) == (ref_alpha, ref_beta)
        np.testing.assert_array_equal(c, ref_c)


def test_singular_combination_rejects_dependent_inputs():
    a = haar_unitary(3, make_rng(7))
    with pytest.raises(ValueError):
        alg.singular_combination(a, 2.0 * a)
    with pytest.raises(ValueError):
        alg.singular_combination(a, np.zeros((3, 3), dtype=complex))


# -------------------------------------------------------- find_singular_basis


def stack_rank(ops):
    stack = np.array([op.reshape(-1) for op in ops])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def test_singular_basis_of_full_pauli_span():
    space = [pauli(i).astype(complex) for i in range(4)]
    found = alg.find_singular_basis(space)
    assert len(found) == 3
    assert stack_rank(found) == 3
    for c in found:
        s = np.linalg.svd(c, compute_uv=False)
        assert s[-1] < 1e-8 * mx.frobenius_norm(c)
        # each element stays inside the span: paulis plus identity fill it, so
        # check it is reproduced by projecting onto the basis
        coeffs = [np.vdot(p, c) / 2.0 for p in space]
        rebuilt = sum(x * p for x, p in zip(coeffs, space))
        assert np.allclose(rebuilt, c, atol=1e-8)


def test_singular_basis_of_two_dimensional_span():
    found = alg.find_singular_basis(
        [np.eye(2, dtype=complex), np.diag([1.0, 2.0]).astype(complex)]
    )
    assert len(found) == 1
    s = np.linalg.svd(found[0], compute_uv=False)
    assert s[-1] < 1e-8 * mx.frobenius_norm(found[0])


def test_singular_basis_of_three_term_family_factors():
    space = [pauli(0).astype(complex), pauli(1).astype(complex), pauli(3).astype(complex)]
    found = alg.find_singular_basis(space)
    assert len(found) == 2
    assert stack_rank(found) == 2
    for c in found:
        assert abs(np.linalg.det(c)) < 1e-10 * mx.frobenius_norm(c) ** 2


def test_singular_basis_needs_independent_inputs():
    with pytest.raises(ValueError):
        alg.find_singular_basis([np.eye(2, dtype=complex)])
    with pytest.raises(ValueError):
        alg.find_singular_basis([np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex)])


# --------------------------------------------------------- orthogonalize_pair


def test_orthogonalize_projector_pair_frozen():
    a1 = np.diag([1.0, 0.0]).astype(complex)
    a2 = np.diag([0.0, 1.0]).astype(complex)
    b1, b2, a, b = alg.orthogonalize_pair(a1, a2, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(b1, (a1 + a2) / SQ2, atol=1e-12)
    assert np.allclose(b2, (a1 - a2) / SQ2, atol=1e-12)


def check_orthogonalized(b1, b2, a, b, dim):
    eye = np.eye(dim)
    assert mx.frobenius_norm(b1.conj().T @ b1 + b2.conj().T @ b2 - eye) <= 1e-8 * math.sqrt(dim)
    assert mx.frobenius_norm(a * b1 @ b1.conj().T + b * b2 @ b2.conj().T - eye) <= 1e-8 * math.sqrt(dim)
    assert a > 0 and b > 0
    assert stack_rank([b1, b2]) == 2


def test_orthogonalize_pair_on_harvested_instances():
    hits = 0
    for seed in range(12):
        u, layout = gates.random_controlled_unitary(3, 3, 3, seed=100 + seed)
        # harvest with the control side grouped second, so the analyzed side
        # is generic rather than a commuting family
        h = alg.orthogonalization_inputs_from_unitary(u, layout, (1,))
        b1, b2, a, b = alg.orthogonalize_pair(
            h.a1, h.a2, h.x1, h.y1, h.z1, h.x2, h.y2, h.z2
        )
        check_orthogonalized(b1, b2, a, b, h.a1.shape[0])
        # outputs stay in the span of the inputs
        assert stack_rank([h.a1, h.a2]) == 2
        assert stack_rank([h.a1, h.a2, b1, b2]) == 2
        # the recombined pair admits one diagonalizing frame
        res = alg.simultaneous_svd([b1, b2])
        assert res.ok
        hits += 1
    assert hits == 12


def test_orthogonalize_pair_unit_factors_when_not_unitary():
    # whenever one output is not proportional to a unitary, the two weights
    # collapse to exactly one
    for seed in (0, 1, 2, 3):
        u, layout = gates.random_controlled_unitary(3, 4, 3, seed=300 + seed)
        h = alg.orthogonalization_inputs_from_unitary(u, layout, (1,))
        b1, b2, a, b = alg.orthogonalize_pair(
            h.a1, h.a2, h.x1, h.y1, h.z1, h.x2, h.y2, h.z2
        )
        sing1 = np.linalg.svd(b1, compute_uv=False)
        sing2 = np.linalg.svd(b2, compute_uv=False)
        spread1 = sing1[0] - sing1[-1]
        spread2 = sing2[0] - sing2[-1]
        if max(spread1, spread2) > 1e-6:
            assert abs(a - 1.0) < 1e-6
            assert abs(b - 1.0) < 1e-6


def test_orthogonalize_pair_rejects_bad_inputs():
    a1 = np.diag([1.0, 0.0]).astype(complex)
    a2 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        # identity equations do not hold for these weights
        alg.orthogonalize_pair(a1, a2, 2.0, 1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        # Cauchy-Schwarz margin violated
        alg.orthogonalize_pair(a1, a2, 1.0, 1.0, 1.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        alg.orthogonalize_pair(a1, a2, -1.0, 1.0, 0.0, 1.0, 1.0, 0.0)


def test_harvest_requires_rank_three():
    u, layout = gates.swap_gate()
    with pytest.raises(ValueError):
        alg.orthogonalization_inputs_from_unitary(u, layout, (0,))


def test_harvest_identities_are_tight():
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=55)
    h = alg.orthogonalization_inputs_from_unitary(u, layout, (1,))
    d = h.a1.shape[0]
    eye = np.eye(d)
    lhs1 = (
        h.x1 * h.a1.conj().T @ h.a1
        + h.y1 * h.a2.conj().T @ h.a2
        + h.z1 * h.a1.conj().T @ h.a2
        + np.conj(h.z1) * h.a2.conj().T @ h.a1
    )
    lhs2 = (
        h.x2 * h.a1 @ h.a1.conj().T
        + h.y2 * h.a2 @ h.a2.conj().T
        + h.z2 * h.a1 @ h.a2.conj().T
        + np.conj(h.z2) * h.a2 @ h.a1.conj().T
    )
    assert mx.frobenius_norm(lhs1 - eye) <= 1e-8 * math.sqrt(d)
    assert mx.frobenius_norm(lhs2 - eye) <= 1e-8 * math.sqrt(d)
    assert h.x1 > 0 and h.y1 > 0 and h.x1 * h.y1 > abs(h.z1) ** 2


# ------------------------------------------- joint_diagonalize_commuting


def offdiag_mass(m):
    return mx.frobenius_norm(m - np.diag(np.diag(m)))


def test_joint_diagonalization_of_commuting_pair():
    family = [np.eye(2, dtype=complex), pauli(3).astype(complex)]
    q = alg.joint_diagonalize_commuting(family)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-10)
    for m in family:
        assert offdiag_mass(q.conj().T @ m @ q) <= 1e-8 * mx.frobenius_norm(m)


def test_joint_diagonalization_of_single_pauli():
    q = alg.joint_diagonalize_commuting([pauli(1).astype(complex)])
    d = q.conj().T @ pauli(1) @ q
    assert offdiag_mass(d) <= 1e-8
    assert sorted(np.round(np.diag(d).real, 8)) == [-1.0, 1.0]


def test_joint_diagonalization_shared_eigenvectors():
    # commuting pair with degenerate spectra on each member separately
    rng = make_rng(8)
    w = haar_unitary(4, rng)
    m1 = w @ np.diag([1.0, 1.0, 2.0, 2.0]) @ w.conj().T
    m2 = w @ np.diag([5.0, 3.0, 3.0, 7.0]) @ w.conj().T
    q = alg.joint_diagonalize_commuting([m1, m2])
    for m in (m1, m2):
        assert offdiag_mass(q.conj().T @ m @ q) <= 1e-8 * mx.frobenius_norm(m)


def test_joint_diagonalization_rejects_noncommuting():
    with pytest.raises(StructureError) as err:
        alg.joint_diagonalize_commuting([pauli(1).astype(complex), pauli(3).astype(complex)])
    assert "commut" in str(err.value)


def test_joint_diagonalization_rejects_nonnormal():
    # a Jordan block fails through its commutator with its own adjoint
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(StructureError) as err:
        alg.joint_diagonalize_commuting([jordan])
    assert "normal" in str(err.value)


def test_joint_diagonalization_is_deterministic():
    rng = make_rng(9)
    w = haar_unitary(3, rng)
    family = [w @ np.diag(d) @ w.conj().T for d in ([1.0, 2.0, 2.0], [4.0, 4.0, 1.0])]
    q1 = alg.joint_diagonalize_commuting(family)
    q2 = alg.joint_diagonalize_commuting(family)
    assert q1.tobytes() == q2.tobytes()


def _is_scalar_block(compressed, gap):
    k = compressed.shape[0]
    mu = np.trace(compressed) / k
    dev = mx.frobenius_norm(compressed - mu * np.eye(k))
    return dev <= gap * max(math.sqrt(k), mx.frobenius_norm(compressed))


def _refine_basis(family, basis, rng, gap):
    # the recursive cluster-by-cluster refinement the single random
    # combination replaced, kept as reference
    k = basis.shape[1]
    if k == 1:
        return basis
    compressed = [basis.conj().T @ m @ basis for m in family]
    if all(_is_scalar_block(c, gap) for c in compressed):
        return basis
    for _ in range(4):
        h = np.zeros((k, k), dtype=complex)
        for c in compressed:
            w_re, w_im = rng.normal(size=2)
            h += w_re * (c + c.conj().T) / 2.0
            h += w_im * (c - c.conj().T) / 2.0j
        evals, vecs = np.linalg.eigh(h)
        clusters = alg._cluster_ascending(evals, gap)
        if len(clusters) > 1:
            return np.hstack([_refine_basis(family, basis @ vecs[:, idx], rng, gap) for idx in clusters])
    return basis


def refined_joint_diagonalize(ops, seed):
    d = ops.shape[1]
    best = None
    for attempt in range(3):
        q = _refine_basis(ops, np.eye(d, dtype=complex), make_rng(seed, stream=attempt), alg.CLUSTER_GAP)
        residual = alg._diagonal_residual([q.conj().T @ m @ q for m in ops], ops)
        if best is None or residual < best[1]:
            best = (q, residual)
        if residual <= alg.COMMUTE_RTOL:
            break
    return best


def test_joint_diagonalize_matches_recursive_refinement_bytewise():
    families = 0
    for d in (2, 3, 4, 5, 8, 16):
        for r in range(1, min(d, 3) + 1):
            for seed in range(6):
                u, layout = gates.random_controlled_unitary(d, d, r, seed=seed)
                factors = operator_schmidt_decompose(u, layout, (0,)).left_factors
                left, _ = alg.product_families(factors)
                q, residual = alg._joint_diagonalize(left, seed)
                want_q, want_residual = refined_joint_diagonalize(left, seed)
                assert q.tobytes() == want_q.tobytes(), (d, r, seed)
                assert residual == want_residual
                assert residual <= alg.COMMUTE_RTOL
                families += 1
    assert families == 102


def test_joint_diagonalize_verifies_on_degenerate_rotated_diagonals():
    # eigenvalue multiplicities (3, 1, 4) shared by every member
    rng = make_rng(17)
    v = haar_unitary(8, rng)
    family = np.array([
        v @ np.diag(np.repeat(random_complex_gaussian((3,), rng), (3, 1, 4))) @ v.conj().T
        for _ in range(4)
    ])
    q, residual = alg._joint_diagonalize(family, 0)
    assert residual <= alg.COMMUTE_RTOL
    assert np.allclose(q.conj().T @ q, np.eye(8), atol=1e-12)
    for m in family:
        assert offdiag_mass(q.conj().T @ m @ q) <= alg.COMMUTE_RTOL * mx.frobenius_norm(m)


# ------------------------------------------------------- family_obstruction


def loop_commutator_mass(family):
    # the brute-force pair loop the span computation replaced, kept as reference
    ops = [np.asarray(m, dtype=complex) for m in family]
    scale = max(max(mx.frobenius_norm(m) for m in ops), 1e-300)
    total = 0.0
    for a in ops:
        for b in ops:
            total += mx.frobenius_norm(a @ b - b @ a) ** 2
    return math.sqrt(total) / (scale * scale)


def oracle_families():
    rng = make_rng(31)
    for d in (2, 3, 4):
        for n in (1, 2, 7, 23, 60):
            w = haar_unitary(d, rng)
            yield "commuting", [
                w @ np.diag(random_complex_gaussian((d,), rng)) @ w.conj().T for _ in range(n)
            ]
            yield "haar", [haar_unitary(d, rng) for _ in range(n)]
            family = [random_complex_gaussian((d, d), rng) for _ in range(n)]
            if n > 1:
                family[n // 2] = np.zeros((d, d), dtype=complex)
                yield "zero member", family
            # Weyl operators are unitary and their nonzero commutators share
            # one norm; copies scaled by 1 + k 1e-15 tie only up to roundoff
            clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
            weyl = [
                np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)
                for a in range(d) for b in range(d)
            ]
            family = [weyl[k % len(weyl)] * (1.0 + 1e-15 * (k // len(weyl))) for k in range(n)]
            yield "near-tied", family
            # left products of a Haar gate's Schmidt factors, as simultaneous_svd
            # scans them; at d = 2 many pairs tie at sqrt(2) times one scale
            dec = operator_schmidt_decompose(haar_unitary(d * d, rng), (d, d), (0,))
            factors = [c * f for c, f in zip(dec.coefficients, dec.left_factors)]
            yield "products", [a @ b.conj().T for a in factors for b in factors][:n]


def member_scale(family):
    return max(mx.frobenius_norm(m) for m in family)


@pytest.mark.parametrize("tol", [None, 1, 1000])
def test_family_obstruction_matches_pairwise_loop(tol):
    # None is the threshold the detectors use; 1 and 1000 cut through and
    # above the masses, so the comparison a caller makes is checked at each
    tol = alg.COMMUTE_RTOL if tol is None else tol
    kinds = set()
    longer_than_span = 0
    for kind, family in oracle_families():
        want = loop_commutator_mass(family)
        got = alg.family_obstruction(family)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)
        assert (got <= tol) == (want <= tol)
        kinds.add(kind)
        d = family[0].shape[0]
        longer_than_span += len(family) > d * d
    assert kinds == {"commuting", "haar", "zero member", "near-tied", "products"}
    assert longer_than_span >= 10


def test_family_obstruction_is_basis_independent():
    rng = make_rng(41)
    for d, n in ((2, 3), (3, 12), (4, 20)):
        family = np.array([random_complex_gaussian((d, d), rng) for _ in range(n)])
        mixing = haar_unitary(n, rng)
        mixed = np.einsum("ij,jab->iab", mixing, family)
        got = alg.family_obstruction(family)
        again = alg.family_obstruction(mixed)
        # the raw mass is invariant; the normalization follows the members
        assert again * member_scale(mixed) ** 2 == pytest.approx(
            got * member_scale(family) ** 2, rel=1e-12
        )
        # the failure text a caller reports names the family and its mass, no pair
        res = alg.simultaneous_svd(family)
        assert not res.ok
        assert "commutator mass" in res.failed_check
        assert not re.search(r"\d+ and \d+|matri(x|ces) \d", res.failed_check)


# ------------------------------------------------------------ simultaneous_svd


def check_witness(res, family):
    assert res.ok
    d = family[0].shape[0]
    assert np.allclose(res.s.conj().T @ res.s, np.eye(d), atol=1e-9)
    assert np.allclose(res.t.conj().T @ res.t, np.eye(d), atol=1e-9)
    for m, diag in zip(family, res.diagonals):
        prod = res.s @ m @ res.t
        assert offdiag_mass(prod) <= 1e-8 * max(mx.frobenius_norm(m), 1.0)
        assert np.allclose(np.diag(prod), diag, atol=1e-10)
        rebuilt = res.s.conj().T @ np.diag(diag) @ res.t.conj().T
        assert mx.frobenius_norm(rebuilt - m) <= 1e-8 * max(mx.frobenius_norm(m), 1.0)


def test_simultaneous_svd_identity_and_pauli():
    family = [np.eye(2, dtype=complex), pauli(1).astype(complex)]
    res = alg.simultaneous_svd(family)
    check_witness(res, family)
    assert np.allclose(np.sort(np.abs(res.diagonals[1])), [1.0, 1.0], atol=1e-10)


def test_simultaneous_svd_of_diagonal_family():
    family = [np.diag([1.0, 2.0, 3.0]).astype(complex), np.diag([1.0j, 0.0, 1.0]).astype(complex)]
    res = alg.simultaneous_svd(family)
    check_witness(res, family)


def test_simultaneous_svd_single_unitary():
    u = haar_unitary(4, make_rng(10))
    res = alg.simultaneous_svd([u])
    check_witness(res, [u])
    # a lone unitary diagonalizes with unimodular diagonal
    assert np.allclose(np.abs(res.diagonals[0]), 1.0, atol=1e-9)


def test_simultaneous_svd_single_generic_matrix_matches_svd():
    m = random_complex_gaussian((3, 3), make_rng(11))
    res = alg.simultaneous_svd([m])
    check_witness(res, [m])
    s_ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(np.sort(np.abs(res.diagonals[0]))[::-1], s_ref, atol=1e-8)


def test_simultaneous_svd_rejects_pauli_span_family():
    family = [pauli(0).astype(complex), pauli(1).astype(complex), pauli(3).astype(complex)]
    res = alg.simultaneous_svd(family)
    assert not res.ok
    assert "commut" in res.failed_check
    assert res.s is None and res.t is None


def test_simultaneous_svd_scrambled_diagonal_family():
    rng = make_rng(12)
    w, x = haar_unitary(4, rng), haar_unitary(4, rng)
    family = [
        w @ np.diag([1.0, 0.5, 0.5j, 0.0]) @ x,
        w @ np.diag([0.0, 1.0, 2.0, 1.0j]) @ x,
        w @ np.diag([1.0, 1.0, 1.0, 1.0]) @ x,
    ]
    res = alg.simultaneous_svd(family)
    check_witness(res, family)


def loop_diagonal_residual(rotated, ops):
    # the per-member formula the stacked residual replaced, kept as reference
    return max(
        mx.frobenius_norm(r - np.diag(np.diag(r))) / max(mx.frobenius_norm(m), 1.0)
        for r, m in zip(rotated, ops)
    )


def loop_joint_diagonalize(ops, seed):
    # the per-member draw, sum and rotation the stacked helper replaced
    d = ops.shape[1]
    if all(_is_scalar_block(m, alg.CLUSTER_GAP) for m in ops):
        return np.eye(d, dtype=complex), loop_diagonal_residual(ops, ops)
    best = None
    for attempt in range(3):
        rng = make_rng(seed, stream=attempt)
        h = np.zeros((d, d), dtype=complex)
        for m in ops:
            w_re, w_im = rng.normal(size=2)
            h += w_re * (m + m.conj().T) / 2.0
            h += w_im * (m - m.conj().T) / 2.0j
        q = np.linalg.eigh(h)[1] + 0.0
        residual = loop_diagonal_residual([q.conj().T @ m @ q for m in ops], ops)
        if best is None or residual < best[1]:
            best = (q, residual)
        if residual <= alg.COMMUTE_RTOL:
            break
    return best


def loop_simultaneous_svd(family):
    # simultaneous_svd member by member, as it read before its families were
    # stacks; returns (s, t, diagonals) or (failed_check, violation)
    ops = np.array(family, dtype=complex)
    d = ops.shape[1]
    left = [a @ b.conj().T for a in ops for b in ops]
    right = [a.conj().T @ b for a in ops for b in ops]
    for name, products in (("left", left), ("right", right)):
        mass = alg.family_obstruction(products)
        if mass > alg.COMMUTE_RTOL:
            return f"{name} products: {alg._obstruction_text(mass)}", mass
    q, residual = loop_joint_diagonalize(np.array(left), 0)
    if residual > alg.COMMUTE_RTOL:
        return "left basis", residual
    s = q.conj().T
    rotated = [s @ m for m in ops]
    scale = max(max(mx.frobenius_norm(m) for m in ops), 1e-300)
    t = np.zeros((d, d), dtype=complex)
    filled = []
    for r in range(d):
        rows = [k[r, :] for k in rotated]
        norms = [np.linalg.norm(row) for row in rows]
        best = int(np.argmax(norms))
        if norms[best] > 1e-9 * scale:
            t[:, r] = rows[best].conj() / norms[best]
            filled.append(r)
    missing = [r for r in range(d) if r not in filled]
    if missing:
        completion = alg.orthonormal_complement(t[:, filled])
        for col, r in enumerate(missing):
            t[:, r] = completion[:, col]
    diag = np.diag(s @ ops[0] @ t)
    idx = np.flatnonzero(np.abs(diag) > 1e-9 * max(scale, 1.0))
    if idx.size:
        t[:, idx[0]] *= np.conj(diag[idx[0]]) / abs(diag[idx[0]])
    products = [s @ m @ t for m in ops]
    assert loop_diagonal_residual(products, ops) <= alg.COMMUTE_RTOL
    return s, t, tuple(np.diag(prod) for prod in products)


def test_simultaneous_svd_matches_the_member_loop_bytewise():
    families = 0
    for d in (2, 3, 4, 5, 8, 16):
        for r in range(1, min(d, 3) + 1):
            for seed in range(6):
                u, layout = gates.random_controlled_unitary(d, d, r, seed=seed)
                dec = operator_schmidt_decompose(u, layout, (0,))
                res = alg.simultaneous_svd(dec.left_factors)
                s, t, diagonals = loop_simultaneous_svd(dec.left_factors)
                assert res.s.tobytes() == s.tobytes(), (d, r, seed)
                assert res.t.tobytes() == t.tobytes(), (d, r, seed)
                assert [x.tobytes() for x in res.diagonals] == [x.tobytes() for x in diagonals]
                families += 1
    assert families == 102
    # refuted families report the same check and mass
    for d in (2, 3):
        for seed in range(6):
            dec = operator_schmidt_decompose(haar_unitary(d * d, make_rng(seed)), (d, d), (0,))
            res = alg.simultaneous_svd(dec.left_factors)
            assert (res.failed_check, res.violation) == loop_simultaneous_svd(dec.left_factors)


def test_diagonal_residual_of_a_stack_matches_the_member_formula():
    rng = make_rng(23)
    for d, n in ((2, 1), (3, 9), (4, 16), (8, 5)):
        for scale in (1e-3, 1.0, 1e3):
            ops = scale * random_complex_gaussian((n, d, d), rng)
            w = haar_unitary(d, rng)
            rotated = w.conj().T @ ops @ w
            want = loop_diagonal_residual(list(rotated), ops)
            for given in (rotated, list(rotated)):
                assert alg._diagonal_residual(given, ops) == pytest.approx(want, rel=1e-15)


def test_stacked_scalar_test_agrees_with_the_block_test():
    checked = 0
    for _, family in oracle_families():
        stack = np.array(family, dtype=complex)
        d = stack.shape[1]
        # multiples of I, inside and just outside the gap, join each family
        extra = [
            c * np.eye(d) + e * c * random_complex_gaussian((d, d), make_rng(checked))
            for c in (1.0, 2j) for e in (0.0, 1e-9, 1e-6)
        ]
        stack = np.concatenate([stack, np.array(extra)])
        want = [_is_scalar_block(m, alg.CLUSTER_GAP) for m in stack]
        assert alg._is_scalar(stack).tolist() == want
        checked += 1
    assert checked >= 40


def test_simultaneous_svd_is_deterministic():
    family = [np.diag([1.0, 2.0]).astype(complex), pauli(3).astype(complex)]
    r1 = alg.simultaneous_svd(family)
    r2 = alg.simultaneous_svd(family)
    assert r1.s.tobytes() == r2.s.tobytes()
    assert r1.t.tobytes() == r2.t.tobytes()


# ------------------------------------------------------------ commutant_blocks


def test_commutant_of_distinct_diagonal_splits_standard_basis():
    blocks = alg.commutant_blocks([np.diag([1.0, 2.0]).astype(complex)])
    assert blocks is not None
    assert len(blocks) == 2
    total = sum(blocks)
    assert np.allclose(total, np.eye(2), atol=1e-8)
    for p in blocks:
        assert np.allclose(p @ p, p, atol=1e-8)
        assert abs(np.trace(p).real - 1.0) < 1e-8
    found = {tuple(np.round(np.diag(p).real, 6)) for p in blocks}
    assert found == {(1.0, 0.0), (0.0, 1.0)}


def test_commutant_of_pauli_pair_is_irreducible():
    assert alg.commutant_blocks([pauli(1).astype(complex), pauli(3).astype(complex)]) is None


def test_commutant_of_single_pauli_gives_its_eigenprojectors():
    blocks = alg.commutant_blocks([pauli(1).astype(complex)])
    assert blocks is not None and len(blocks) == 2
    for p in blocks:
        assert mx.frobenius_norm(p @ pauli(1) - pauli(1) @ p) < 1e-8
        assert np.allclose(p @ p, p, atol=1e-8)
    assert np.allclose(sum(blocks), np.eye(2), atol=1e-8)


def test_commutant_blocks_respect_nonhermitian_generators():
    blocks = alg.commutant_blocks([np.diag([1.0, 1.0j, 1.0j]).astype(complex)])
    assert blocks is not None
    assert len(blocks) >= 2
    # every block respects the split between level 0 and the degenerate pair
    g = np.diag([1.0, 1.0j, 1.0j])
    for p in blocks:
        assert mx.frobenius_norm(p @ g - g @ p) < 1e-8
        assert abs(p[0, 1]) < 1e-8 and abs(p[0, 2]) < 1e-8
    assert np.allclose(sum(blocks), np.eye(3), atol=1e-8)


def test_commutant_blocks_of_scrambled_direct_sum():
    rng = make_rng(13)
    w = haar_unitary(4, rng)
    gens = [
        w @ np.kron(np.eye(2), haar_unitary(2, rng)) @ w.conj().T for _ in range(3)
    ]
    gens += [g.conj().T for g in gens]
    blocks = alg.commutant_blocks(gens)
    assert blocks is not None
    for p in blocks:
        for g in gens:
            assert mx.frobenius_norm(p @ g - g @ p) < 1e-7
    assert np.allclose(sum(blocks), np.eye(4), atol=1e-8)


def test_commutant_blocks_of_scrambled_direct_sum_with_many_generators():
    rng = make_rng(14)
    w = haar_unitary(4, rng)
    gens = []
    for _ in range(120):
        block = np.zeros((4, 4), dtype=complex)
        block[:1, :1] = random_complex_gaussian((1, 1), rng)
        block[1:, 1:] = random_complex_gaussian((3, 3), rng)
        gens.append(w @ block @ w.conj().T)
    blocks = alg.commutant_blocks(gens)
    assert blocks is not None and len(blocks) == 2
    ranks = sorted(round(np.trace(p).real) for p in blocks)
    assert ranks == [1, 3]
    for p in blocks:
        assert np.allclose(p @ p, p, atol=1e-8)
        for g in gens:
            assert mx.frobenius_norm(p @ g - g @ p) < 1e-7 * mx.frobenius_norm(g)
    assert np.allclose(sum(blocks), np.eye(4), atol=1e-8)


def test_commutant_blocks_refuses_an_oversized_system_before_allocating():
    # nine 64 x 64 generators, as a rank-3 gate with a 64-dimensional
    # control side gives: the system would hold 2 * 9 * 64^4 entries (4.5 GiB)
    rng = make_rng(15)
    gens = np.array([random_complex_gaussian((64, 64), rng) for _ in range(9)])
    with pytest.raises(DimensionError, match="budget"):
        alg.commutant_blocks(gens)
