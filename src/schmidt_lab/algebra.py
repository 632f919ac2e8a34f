"""Matrix-space structure toolbox.

Polar-style splittings of arbitrary square matrices, singular elements of
two-dimensional matrix pencils, the two-matrix orthogonalization that turns
moment data into an orthogonal recombination, joint diagonalization of
commuting normal families, simultaneous singular value decompositions, and
commutant-based block detection. These are the primitives the controlled-gate
decision procedures are assembled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .config import max_total_dimension
from .errors import DimensionError, NumericalError, StructureError
from .factorizations import eigh, null_space, orthonormal_complement, span_dimension, svd
from .matrices import SystemLayout
from .randomness import make_rng
from .schmidt import _realigned_sum, operator_schmidt_decompose

# default tolerance for a family's relative commutator mass, and the fixed
# bound on the residuals of the bases simultaneous_svd builds
COMMUTE_RTOL = 1e-8
# singular means smallest singular value below this times the Frobenius norm
SINGULAR_RTOL = 1e-8
# eigenvalues closer than this (times scale) belong to one cluster
CLUSTER_GAP = 1e-7


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1)


def _adjoints(ops: np.ndarray) -> np.ndarray:
    return ops.conj().transpose(0, 2, 1)


def _as_square_family(ops, name: str):
    """The family as one finite complex ``(n, d, d)`` stack, and d."""
    if len(ops) == 0:
        raise ValueError(f"{name} must not be empty")
    if isinstance(ops, np.ndarray) and ops.ndim == 3:
        members = ops
    else:
        members = [np.asarray(op) for op in ops]
        if any(op.shape != members[0].shape for op in members):
            raise ValueError(f"{name} must share one square shape")
    stack = np.asarray(members, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(
            f"{name} must be square matrices, got shape {stack.shape[1:]}"
        )
    return mx._require_finite(stack, name), stack.shape[1]


def _moments(z, left, right) -> np.ndarray:
    """``sum_ij z[i][j] left[i] @ right[j]`` over two equal-length ``(n, d, d)`` stacks."""
    return np.tensordot(z, left[:, None] @ right[None], 2)


def _cluster_ascending(values: np.ndarray, gap: float):
    """Group an ascending real sequence into runs separated by more than the gap."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    threshold = gap * max(1.0, float(np.max(np.abs(values))))
    return np.split(np.arange(values.size), np.flatnonzero(np.diff(values) > threshold) + 1)


# ------------------------------------------------------------------ splittings


@dataclass(frozen=True)
class ProjectorDecomposition:
    """Distinct descending weights with pairwise orthogonal projectors summing to I."""

    values: np.ndarray
    projectors: tuple

    def weighted_sum(self, power: float = 1.0) -> np.ndarray:
        total = np.zeros_like(self.projectors[0])
        for c, p in zip(self.values, self.projectors):
            total = total + (max(c, 0.0) ** power) * p
        return total


def normal_split(a):
    """Split a as (sum_i sqrt(c_i) P_i) V with V unitary.

    The c_i are the eigenvalues of a a^dagger, clustered at CLUSTER_GAP,
    descending. On the kernel of a the unitary is completed deterministically
    from orthonormal complements, so equal inputs give identical output.
    """
    a = mx.as_operator(a, "normal_split input")
    d = a.shape[0]
    gram = a @ a.conj().T
    gram = (gram + gram.conj().T) / 2.0
    evals, vecs = eigh(gram)
    clusters = _cluster_ascending(evals, CLUSTER_GAP)[::-1]
    values = np.array([max(float(np.mean(evals[idx])), 0.0) for idx in clusters])
    projectors = tuple(vecs[:, idx] @ vecs[:, idx].conj().T for idx in clusters)

    # floor sits above hermitian-eigensolver roundoff (~eps * largest value),
    # so exact kernels land below it while genuine signal stays above
    kernel_floor = 1e-14 * values[0] if values[0] > 0 else 0.0
    values[values <= kernel_floor] = 0.0
    v0 = np.zeros((d, d), dtype=complex)
    for c, p in zip(values, projectors):
        if c > 0.0:
            v0 += (c ** -0.5) * (p @ a)
    n_out = orthonormal_complement(v0)
    n_in = orthonormal_complement(v0.conj().T)
    v = v0 + n_out @ n_in.conj().T

    dec = ProjectorDecomposition(values=values, projectors=projectors)
    norm = mx.frobenius_norm(a)
    if mx.frobenius_norm(dec.weighted_sum(0.5) @ v - a) > 1e-10 * max(norm, 1.0):
        raise NumericalError("polar-style split failed to reconstruct the input")
    if mx.frobenius_norm(v.conj().T @ v - np.eye(d)) > 1e-10 * math.sqrt(d):
        raise NumericalError("polar-style split produced a non-unitary factor")
    return dec, v


# ------------------------------------------------------- singular combinations


def singular_combination(a, b):
    """A nonzero singular element alpha*a + beta*b of an independent pencil.

    Singular inputs short-circuit to (1, 0, a); otherwise the combination comes
    from an eigenvalue of a^-1 b, chosen to minimize the normalized smallest
    singular value, ties broken by the smallest eigenvalue (real, then imag).
    """
    (a, b), _ = _as_square_family([a, b], "pencil")
    if span_dimension([a, b], rtol=1e-10) != 2:
        raise ValueError("pencil members must be linearly independent")

    s_a = svd(a)[1]
    if s_a[-1] < SINGULAR_RTOL * mx.frobenius_norm(a):
        return 1.0, 0.0, a.copy()

    evals = np.linalg.eigvals(np.linalg.solve(a, b))
    combos = b - evals[:, None, None] * a
    norms = mx.frobenius_norms(combos)
    smallest = svd(combos)[1][:, -1]
    ratios = np.divide(smallest, norms, out=np.zeros_like(norms), where=norms > 0)
    tied = np.flatnonzero(ratios <= ratios.min() + 1e-12)
    k = min(tied, key=lambda i: (round(evals[i].real, 12), round(evals[i].imag, 12)))
    if ratios[k] > SINGULAR_RTOL:
        raise NumericalError("pencil eigenvalue produced a non-singular combination")
    return complex(-evals[k]), 1.0, combos[k]


def find_singular_basis(space):
    """r-1 independent singular matrices inside an r-dimensional matrix span.

    Repeatedly extracts a singular combination of the first two working
    elements and drops the one it leans on most, which keeps the working set
    plus the found set independent.
    """
    ops, _ = _as_square_family(space, "matrix span")
    r = len(ops)
    if r < 2:
        raise ValueError(f"need at least two matrices, got {r}")
    if span_dimension(ops) != r:
        raise ValueError("matrix span inputs must be linearly independent")

    work = list(ops)
    found = []
    while len(work) >= 2:
        alpha, beta, c = singular_combination(work[0], work[1])
        found.append(c)
        keep = work[0] if abs(beta) >= abs(alpha) else work[1]
        work = [keep] + work[2:]
    if span_dimension(found) != r - 1:
        raise NumericalError("singular basis lost independence")
    return found


# ---------------------------------------------------------- orthogonalization


def _require_positive(value, name: str) -> float:
    value = complex(value)
    if abs(value.imag) > 1e-10 * max(abs(value.real), 1.0):
        raise ValueError(f"{name} must be real, got {value}")
    if value.real <= 0.0:
        raise ValueError(f"{name} must be positive, got {value.real}")
    return value.real


def orthogonalize_pair(a1, a2, x1, y1, z1, x2, y2, z2):
    """Recombine an independent pair with unit two-sided second moments.

    Given the moment identities
        x1 a1'a1 + y1 a2'a2 + z1 a1'a2 + z1* a2'a1 = I   (' is dagger)
        x2 a1 a1' + y2 a2 a2' + z2 a1 a2' + z2* a2 a1' = I
    with x_i, y_i > 0 and x_i y_i > |z_i|^2, returns (b1, b2, a, b) in the
    span of (a1, a2) with b1'b1 + b2'b2 = I and a b1 b1' + b b2 b2' = I,
    a, b > 0. Violated preconditions raise ValueError.
    """
    pair, d = _as_square_family([a1, a2], "pair")
    a1, a2 = pair
    x1 = _require_positive(x1, "x1")
    y1 = _require_positive(y1, "y1")
    x2 = _require_positive(x2, "x2")
    y2 = _require_positive(y2, "y2")
    z1 = complex(z1)
    z2 = complex(z2)
    if x1 * y1 <= abs(z1) ** 2:
        raise ValueError("first moment matrix is not positive definite")
    if x2 * y2 <= abs(z2) ** 2:
        raise ValueError("second moment matrix is not positive definite")
    if span_dimension([a1, a2], rtol=1e-10) != 2:
        raise ValueError("pair members must be linearly independent")

    eye = np.eye(d)
    tol = 1e-8 * math.sqrt(d)
    if mx.frobenius_norm(_moments([[x1, z1], [np.conj(z1), y1]], _adjoints(pair), pair) - eye) > tol:
        raise ValueError("first moment identity does not hold for these inputs")
    if mx.frobenius_norm(_moments([[x2, z2], [np.conj(z2), y2]], pair, _adjoints(pair)) - eye) > tol:
        raise ValueError("second moment identity does not hold for these inputs")

    # absorb the cross term of the first identity: a3, a4 satisfy
    # a3'a3 + a4'a4 = I with a3 proportional to a1
    p = math.sqrt(x1 - abs(z1) ** 2 / y1)
    s = math.sqrt(y1)
    q = np.conj(z1) / s
    a3 = p * a1
    a4 = s * a2 + q * a1
    # transport the second identity onto the new pair
    x = (x2 - 2.0 * (z2 * np.conj(q)).real / s + y2 * abs(q) ** 2 / s**2) / p**2
    y = y2 / s**2
    zc = (z2 / s - y2 * q / s**2) / p
    az = abs(zc)
    phi = -np.angle(zc) if az > 0 else 0.0
    phase = np.exp(1j * phi)

    if abs(x - y) <= 1e-12 * max(x, y, az, 1.0):
        b1 = (a3 + phase * a4) / math.sqrt(2.0)
        b2 = (a3 - phase * a4) / math.sqrt(2.0)
        a_w = x + az
        b_w = x - az
    else:
        theta = 0.5 * math.atan(2.0 * az / (x - y))
        b1 = math.cos(theta) * a3 + phase * math.sin(theta) * a4
        b2 = math.sin(theta) * a3 - phase * math.cos(theta) * a4
        root = math.sqrt((x - y) ** 2 + 4.0 * az**2)
        sign = 1.0 if x > y else -1.0
        a_w = 0.5 * (x + y + sign * root)
        b_w = 0.5 * (x + y - sign * root)

    if a_w <= 0.0 or b_w <= 0.0:
        raise NumericalError("orthogonalization weights collapsed")
    pair = np.stack([b1, b2])
    if mx.frobenius_norm(_moments(np.eye(2), _adjoints(pair), pair) - eye) > tol:
        raise NumericalError("orthogonalized pair lost the first identity")
    if mx.frobenius_norm(_moments(np.diag([a_w, b_w]), pair, _adjoints(pair)) - eye) > tol:
        raise NumericalError("orthogonalized pair lost the second identity")
    return b1, b2, float(a_w), float(b_w)


@dataclass(frozen=True)
class HarvestedPair:
    """Moment data read off a rank-3 unitary, ready for orthogonalize_pair.

    a1, a2 live on the side complementary to the analyzed cut; the moments
    are contractions of the cut-side factors with the kernel and cokernel
    vectors of a singular element of the cut-side span.
    """

    a1: np.ndarray
    a2: np.ndarray
    x1: float
    y1: float
    z1: complex
    x2: float
    y2: float
    z2: complex
    kernel_vector: np.ndarray
    cokernel_vector: np.ndarray


def orthogonalization_inputs_from_unitary(u, layout, cut) -> HarvestedPair:
    """Harvest orthogonalization inputs from a Schmidt-rank-3 unitary.

    Re-expands the rank-3 decomposition so the first cut-side factor is
    singular, then contracts unitarity against its kernel and cokernel
    vectors. The identities returned hold exactly by construction; the
    strict positivity margin fails only for degenerate instances (for
    example when the analyzed cut is itself a commuting family), which
    raise ValueError.
    """
    layout = SystemLayout.of(layout)
    u = mx.assert_unitary(u, "harvest input")
    dec = operator_schmidt_decompose(u, layout, cut)
    if dec.rank != 3:
        raise ValueError(f"harvest needs operator Schmidt rank 3, got {dec.rank}")

    a_ops = [s * f for s, f in zip(dec.coefficients, dec.left_factors)]
    b_ops = list(dec.right_factors)
    alpha, beta, c = singular_combination(a_ops[0], a_ops[1])
    kept = a_ops[0] if abs(beta) >= abs(alpha) else a_ops[1]
    new_a = [c, kept, a_ops[2]]

    old_stack = np.array([_vec(op) for op in a_ops])
    new_stack = np.array([_vec(op) for op in new_a])
    coeff = np.linalg.lstsq(new_stack.T, old_stack.T, rcond=None)[0]
    # old_j = sum_i coeff[i, j] new_i, so the complementary factors recombine as
    new_b = np.tensordot(coeff, b_ops, 1)

    # compared in the realigned frame, which only permutes entries
    grouped, dims = mx.group_systems(u, layout, dec.cut)
    rebuilt = _realigned_sum(1.0, new_a, new_b)
    if mx.frobenius_norm(rebuilt - mx.realign(grouped, dims)) > 1e-8 * mx.frobenius_norm(u):
        raise NumericalError("re-expanded decomposition failed to reconstruct")

    kernel = null_space(c)
    cokernel = null_space(c.conj().T)
    if kernel.shape[1] == 0 or cokernel.shape[1] == 0:
        raise NumericalError("singular element has no detectable kernel")
    w = kernel[:, 0]
    v = cokernel[:, 0]

    x1 = float(np.linalg.norm(new_a[1] @ w) ** 2)
    y1 = float(np.linalg.norm(new_a[2] @ w) ** 2)
    z1 = complex(np.vdot(new_a[1] @ w, new_a[2] @ w))
    x2 = float(np.linalg.norm(new_a[1].conj().T @ v) ** 2)
    y2 = float(np.linalg.norm(new_a[2].conj().T @ v) ** 2)
    z2 = complex(np.vdot(new_a[1].conj().T @ v, new_a[2].conj().T @ v))

    margin = 1e-10
    if min(x1, y1, x2, y2) <= margin:
        raise ValueError("degenerate instance: a recombined factor annihilates the kernel vector")
    if x1 * y1 - abs(z1) ** 2 <= margin * max(1.0, x1 * y1):
        raise ValueError("degenerate instance: kernel-side moments are rank deficient")
    if x2 * y2 - abs(z2) ** 2 <= margin * max(1.0, x2 * y2):
        raise ValueError("degenerate instance: cokernel-side moments are rank deficient")
    return HarvestedPair(
        a1=new_b[1],
        a2=new_b[2],
        x1=x1,
        y1=y1,
        z1=z1,
        x2=x2,
        y2=y2,
        z2=z2,
        kernel_vector=w,
        cokernel_vector=v,
    )


# ------------------------------------------------------- joint diagonalization


def _span_generators(stack: np.ndarray) -> np.ndarray:
    """The stack if n <= d^2, else ``W_k = s_k V_k`` from the SVD ``P = U S V``.

    All ``min(n, d^2)`` components are kept, none cut at a rank threshold.
    U has orthonormal columns, so ``sum_{i,j} ||[P_i, P_j]||^2 = sum_{k,l}
    ||[W_k, W_l]||^2`` exactly, and the W_k have the commutant of the P_i.
    """
    n, d, _ = stack.shape
    if n <= d * d:
        return stack
    _, s, vh = svd(stack.reshape(n, d * d))
    return (s[:, None] * vh).reshape(-1, d, d)


def family_obstruction(family) -> float:
    """The relative commutator mass ``sqrt(sum_{i,j} ||[P_i, P_j]||^2)`` of a family.

    The mass is relative to the squared largest member norm: a per-pair
    norm would read a numerically-zero member's roundoff as an O(1)
    obstruction. It is at least the worst pair and invariant under unitary
    mixing of the members. A family closed under adjoint (both product
    families are) holds ``[P_k, P_k^dagger]`` among its pairs, so its mass
    vanishes exactly when it is normal and commuting; callers compare it
    with their tolerance. The sum runs over the span generators one row of
    pairs at a time, in less working memory than the family itself.
    """
    return _commutator_mass(_as_square_family(family, "family")[0])


def _commutator_mass(stack: np.ndarray) -> float:
    """``family_obstruction`` of a checked ``(n, d, d)`` stack."""
    n = stack.shape[0]
    scale = max(float(np.max(np.linalg.norm(stack.reshape(n, -1), axis=1))), 1e-300)
    # an all-zero family would square its floor to 0 and divide 0 by 0
    denom = max(scale * scale, np.finfo(float).tiny)

    gens = _span_generators(stack)
    mass = 0.0
    for k in range(len(gens) - 1):
        commutators = gens[k] @ gens[k + 1 :] - gens[k + 1 :] @ gens[k]
        # each unordered pair stands for both orders
        mass += 2.0 * float(np.vdot(commutators, commutators).real)
    return math.sqrt(mass) / denom


def _obstruction_text(mass: float) -> str:
    return f"family is not normal and commuting (commutator mass {mass:.3e})"


def joint_diagonalize_commuting(family):
    """Unitary q with q^dagger M q diagonal for every member of the family.

    The commutator mass of the family with its adjoints over COMMUTE_RTOL
    (not a normal commuting family) raises StructureError, which detection
    treats as a verdict. q is built by ``_joint_diagonalize`` from seed 0; a
    residual over COMMUTE_RTOL on every attempt raises NumericalError.
    """
    ops, _ = _as_square_family(family, "family")
    mass = _commutator_mass(np.concatenate([ops, _adjoints(ops)]))
    if mass > COMMUTE_RTOL:
        raise StructureError(_obstruction_text(mass))
    q, residual = _joint_diagonalize(ops, 0)
    if residual > COMMUTE_RTOL:
        raise NumericalError(f"joint diagonalization failed verification (residual {residual:.3e})")
    return q


def _diagonal_residual(rotated, ops) -> float:
    """Largest off-diagonal mass of the rotated members, each over max(||M||, 1)."""
    off = np.asarray(rotated) * (1.0 - np.eye(np.shape(rotated)[-1]))
    scales = np.maximum(mx.frobenius_norms(np.asarray(ops)), 1.0)
    return float(np.max(mx.frobenius_norms(off) / scales))


def _is_scalar(stack: np.ndarray) -> np.ndarray:
    k = stack.shape[1]
    dev = mx.frobenius_norms(stack - (stack.trace(axis1=1, axis2=2) / k)[:, None, None] * np.eye(k))
    return dev <= CLUSTER_GAP * np.maximum(math.sqrt(k), mx.frobenius_norms(stack))


def _joint_diagonalize(ops: np.ndarray, seed: int):
    """(q, residual): eigenvectors of one random Hermitian combination per attempt.

    A generic element of a normal commuting family's span has the members'
    joint eigenbasis (He & Kressner, SIMAX 2024). Attempt k draws from stream k;
    the first of three within COMMUTE_RTOL is kept, else the best. Multiples of I keep q = I.
    """
    n, d, _ = ops.shape
    if _is_scalar(ops).all():
        return np.eye(d, dtype=complex), _diagonal_residual(ops, ops)
    hermitian = (ops + _adjoints(ops)) / 2.0
    antihermitian = (ops - _adjoints(ops)) / 2.0j
    best = None
    for attempt in range(3):
        weights = make_rng(seed, stream=attempt).normal(size=(n, 2))
        h = np.zeros((d, d), dtype=complex)
        # summed member by member: a reordered sum moves h, and q, at roundoff
        for (w_re, w_im), a, b in zip(weights, hermitian, antihermitian):
            h += w_re * a
            h += w_im * b
        # + 0.0 turns the eigensolver's -0.0 entries into +0.0, which witnesses print as 0.0
        q = np.linalg.eigh(h)[1] + 0.0
        residual = _diagonal_residual(q.conj().T @ ops @ q, ops)
        if best is None or residual < best[1]:
            best = (q, residual)
        if residual <= COMMUTE_RTOL:
            break
    return best


# --------------------------------------------------------- simultaneous svd


@dataclass(frozen=True)
class SimultaneousSvdResult:
    """Witness (s, t, diagonals) with s M_k t diagonal, or the failed check.

    On success ``M_k = s^dagger diag_k t^dagger`` within 1e-8 relative; on
    failure ``failed_check`` names the worst violated structure condition and
    ``violation`` carries its relative magnitude.
    """

    s: np.ndarray | None
    t: np.ndarray | None
    diagonals: tuple | None
    failed_check: str | None
    violation: float | None = None

    @property
    def ok(self) -> bool:
        return self.failed_check is None


def _failure(check: str, violation: float) -> SimultaneousSvdResult:
    return SimultaneousSvdResult(None, None, None, failed_check=check, violation=violation)


def _check_budget(what: str, entries: int) -> None:
    """Refuse more than ``2 cap^2`` entries, cap = ``max_total_dimension()``."""
    cap = max_total_dimension()
    if entries > 2 * cap * cap:
        raise DimensionError(f"{what} of {entries} entries exceeds the budget 2 * {cap}^2")


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_i @ b_j`` at index ``i * n + j``: one broadcast matmul, bitwise a pairwise loop."""
    return (a[:, None] @ b[None]).reshape(-1, *a.shape[1:])


def product_families(family):
    """The stacked products ``(M_i M_j^dagger, M_i^dagger M_j)``, index ``i * n + j``.

    More than ``2 cap^2`` entries in all (n d > cap) raise DimensionError first.
    """
    ops, d = _as_square_family(family, "family")
    _check_budget("product families", 2 * len(ops) ** 2 * d * d)
    return _products(ops, _adjoints(ops)), _products(_adjoints(ops), ops)


def _input_products(ops: np.ndarray) -> np.ndarray:
    """``M_i^dagger M_j`` of a checked stack; more than ``2 cap^2`` entries raise first."""
    _check_budget("product families (input side)", len(ops) * ops.size)
    return _products(_adjoints(ops), ops)


def simultaneous_svd(family, tol: float = COMMUTE_RTOL) -> SimultaneousSvdResult:
    """One pair of unitaries diagonalizing every family member at once.

    Exists exactly when both product families {M_i M_j'} and {M_i' M_j} are
    normal and commuting; a commutator mass (``family_obstruction``) over
    ``tol`` fails naming the family and its mass (the right products are
    formed once the left ones pass). The left basis is the eigenbasis of
    one random Hermitian combination of the left products
    (``_joint_diagonalize``); the right basis is derived row by row from the
    rotated family stack, which stays sound on degenerate families
    (repeated blocks, single members) where greedy eigenbasis pairing does
    not. A near miss whose left basis, right basis or joint diagonal form
    misses COMMUTE_RTOL (whatever ``tol`` is) fails with that residual.
    """
    ops, d = _as_square_family(family, "family")
    _check_budget("product families", 2 * len(ops) ** 2 * d * d)
    left_products = _products(ops, _adjoints(ops))
    mass = _commutator_mass(left_products)
    if mass > tol:
        return _failure(f"left products: {_obstruction_text(mass)}", mass)
    mass = _commutator_mass(_products(_adjoints(ops), ops))
    if mass > tol:
        return _failure(f"right products: {_obstruction_text(mass)}", mass)

    q, residual = _joint_diagonalize(left_products, 0)
    if residual > COMMUTE_RTOL:
        return _failure(f"left basis is not a joint eigenbasis (violation {residual:.3e})", residual)
    s = q.conj().T
    rotated = s @ ops
    scale = max(float(np.max(mx.frobenius_norms(ops))), 1e-300)

    # column r of t is the largest row r among the rotated members, conjugated and normalized
    t = np.zeros((d, d), dtype=complex)
    row_norms = mx.frobenius_norms(rotated[..., None])
    best = np.argmax(row_norms, axis=0)
    filled = row_norms[best, np.arange(d)] > 1e-9 * scale
    for r in np.flatnonzero(filled):
        t[:, r] = rotated[best[r], r].conj() / np.linalg.norm(rotated[best[r], r])
    if not filled.all():
        t[:, ~filled] = orthonormal_complement(t[:, filled])[:, : d - np.count_nonzero(filled)]

    residual = mx.frobenius_norm(t.conj().T @ t - np.eye(d)) / math.sqrt(d)
    if residual > COMMUTE_RTOL:
        return _failure(f"derived right basis is not unitary (violation {residual:.3e})", residual)

    # convention: first significant diagonal entry of s M_1 t real nonnegative
    diag = np.diag(rotated[0] @ t)
    idx = np.flatnonzero(np.abs(diag) > 1e-9 * max(scale, 1.0))
    if idx.size:
        pivot = diag[idx[0]]
        t[:, idx[0]] *= np.conj(pivot) / abs(pivot)

    products = rotated @ t
    residual = _diagonal_residual(products, ops)
    if residual > COMMUTE_RTOL:
        return _failure(f"family resists joint diagonal form (violation {residual:.3e})", residual)
    diagonals = tuple(np.diagonal(products, axis1=1, axis2=2).copy())
    return SimultaneousSvdResult(s=s, t=t, diagonals=diagonals, failed_check=None)


# ----------------------------------------------------------- commutant blocks


def commutant_blocks(generators):
    """Projectors splitting the space into common invariant blocks, or None.

    Solves [X, G] = 0 over the dagger-closure of the m = min(n, d^2) span
    generators (``_span_generators``), its kernel cut at the default
    ``null_space`` tolerance; a commutant richer than scalars yields the
    eigenprojectors of one random traceless Hermitian commutant element,
    drawn from seed 0. None means irreducible: no common block structure
    exists.

    The system has ``2 m d^2`` rows of ``d^2`` unknowns. Pre-flight: more
    than ``2 cap^2`` entries, cap = ``max_total_dimension()`` (512 MiB at the
    default 4096), raises DimensionError before anything is allocated. Its
    kernel comes from an economy-size SVD (see ``null_space``).
    """
    gens, d = _as_square_family(generators, "generators")
    _check_budget("commutant system", 2 * min(len(gens), d * d) * d**4)
    span = _span_generators(gens)
    closure = np.concatenate([span, _adjoints(span)])
    eye = np.eye(d, dtype=complex)
    # row block k is kron(I, G_k^T) - kron(G_k, I), the map X -> X G_k - G_k X
    system = (
        np.einsum("ac,keb->kabce", eye, closure) - np.einsum("kac,be->kabce", closure, eye)
    ).reshape(-1, d * d)
    basis = null_space(system)
    if basis.shape[1] <= 1:
        return None

    for attempt in range(2):
        rng = make_rng(0, stream=attempt)
        coeffs = rng.normal(size=basis.shape[1])
        x = (basis @ coeffs).reshape(d, d)
        x = (x + x.conj().T) / 2.0
        x -= (np.trace(x) / d) * eye
        if mx.frobenius_norm(x) < 1e-10:
            continue
        evals, vecs = np.linalg.eigh(x)
        clusters = _cluster_ascending(evals, CLUSTER_GAP)
        if len(clusters) < 2:
            continue
        return tuple(vecs[:, idx] @ vecs[:, idx].conj().T for idx in clusters)
    raise NumericalError("commutant is nontrivial but no block split materialized")
