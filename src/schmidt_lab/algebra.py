"""Matrix-space structure toolbox.

Polar-style splittings of arbitrary square matrices, singular elements of
two-dimensional matrix pencils, the two-matrix orthogonalization that turns
moment data into an orthogonal recombination, joint diagonalization of
commuting normal families, simultaneous singular value decompositions, and
commutant-based block detection. These are the primitives the controlled-gate
decision procedures are assembled from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .errors import NumericalError
from .factorizations import eigh, null_space, orthonormal_complement, span_dimension, svd
from .randomness import make_rng
from .schmidt import Cut

# default tolerance for a family's relative commutator mass, and the fixed
# bound on the residuals of the bases simultaneous_svd builds
COMMUTE_RTOL = 1e-8
# singular means smallest singular value below this times the Frobenius norm
SINGULAR_RTOL = 1e-8
# eigenvalues closer than this (times scale) belong to one cluster
CLUSTER_GAP = 1e-7
_TINY = np.finfo(float).tiny


def _adjoints(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


def _members(stack: np.ndarray, index) -> np.ndarray:
    """``stack[index]`` for ascending member indices; all of them take the stack itself, uncopied."""
    return stack if len(index) == len(stack) else stack[index]


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
    if mx.unitarity_residuals(v[None])[0] > 1e-10:
        raise NumericalError("polar-style split produced a non-unitary factor")
    return dec, v


# ------------------------------------------------------- singular combinations


def singular_combination(a, b):
    """A nonzero singular element alpha*a + beta*b of an independent pencil.

    Singular inputs short-circuit to (1, 0, a); otherwise the combination comes
    from an eigenvalue of a^-1 b, chosen to minimize the normalized smallest
    singular value, ties broken by the smallest eigenvalue (real, then imag).
    """
    (a, b), _ = mx._as_square_family([a, b], "pencil")
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
    ops, _ = mx._as_square_family(space, "matrix span")
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
    pair, d = mx._as_square_family([a1, a2], "pair")
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
    u, layout = mx.on_layout(u, layout, "harvest input", unitary=True)
    cut = Cut.of(u, layout, cut)
    coefficients, lefts, rights = cut.expansion
    if len(coefficients) != 3:
        raise ValueError(f"harvest needs operator Schmidt rank 3, got {len(coefficients)}")

    a_ops = coefficients[:, None, None] * lefts
    alpha, beta, c = singular_combination(a_ops[0], a_ops[1])
    kept = a_ops[0] if abs(beta) >= abs(alpha) else a_ops[1]
    new_a = np.stack([c, kept, a_ops[2]])
    coeff = np.linalg.lstsq(new_a.reshape(3, -1).T, a_ops.reshape(3, -1).T, rcond=None)[0]
    # old_j = sum_i coeff[i, j] new_i, so the complementary factors recombine as
    new_b = np.tensordot(coeff, rights, 1)

    # compared in the realigned frame, which only permutes entries
    if mx.frobenius_norm(mx._realigned_sum(1.0, new_a, new_b) - cut.realigned) > 1e-8 * mx.frobenius_norm(u):
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
    """Each family of a ``(k, n, d, d)`` stack if n <= d^2, else its ``W_k = s_k V_k`` from ``P = U S V``.

    All ``min(n, d^2)`` components are kept, none cut at a rank threshold.
    U has orthonormal columns, so ``sum_{i,j} ||[P_i, P_j]||^2 = sum_{k,l}
    ||[W_k, W_l]||^2`` exactly, and the W_k have the commutant of the P_i.
    """
    k, n, d, _ = stack.shape
    if n <= d * d:
        return stack
    _, s, vh = svd(stack.reshape(k, n, d * d))
    return (s[..., None] * vh).reshape(k, -1, d, d)


def family_obstruction(family) -> float:
    """The relative commutator mass ``sqrt(sum_{i,j} ||[P_i, P_j]||^2)`` of a family.

    The mass is relative to the squared largest member norm: a per-pair
    norm would read a numerically-zero member's roundoff as an O(1)
    obstruction. It is at least the worst pair and invariant under unitary
    mixing of the members. A family closed under adjoint (both product
    families are) holds ``[P_k, P_k^dagger]`` among its pairs, so its mass
    vanishes exactly when it is normal and commuting; callers compare it
    with their tolerance. The sum runs over the m span generators in row
    blocks: the commutators of a block of rows with every later generator
    come from two batched products holding at most ``max(m d^2, 2^16)``
    entries together (one row at least), so the working memory stays below
    twice the family's own size. Each row's squared norm is one ``vdot``,
    added in row order: the summation order of a row-by-row loop.
    """
    return _commutator_mass(mx._as_square_family(family, "family")[0][None])[0]


def _commutator_mass(stack: np.ndarray) -> list:
    """``family_obstruction`` of each family of a checked ``(k, n, d, d)`` stack, the row blocks over
    every family at once holding at most ``max(k m d^2, 2^16)`` entries."""
    k, n = stack.shape[:2]
    rows = stack.reshape(k, n, -1)  # each member's norm, evaluated as np.linalg.norm evaluates it along an axis
    scales = [max(x, 1e-300) for x in np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=2)).max(axis=1).tolist()]
    gens = _span_generators(stack)
    m, budget, masses, j = gens.shape[1], max(gens.size, 1 << 16), [0.0] * k, 0
    while j < m - 1:
        later = gens[:, None, j + 1 :]
        block = gens[:, j : min(j + max(1, budget // (2 * later.size)), m - 1), None]
        # commutators[:, i, l] = [G_{j+i}, G_{j+1+l}]: row i pairs G_{j+i} with its later generators from l = i on
        commutators = block @ later - later @ block
        for member in range(k):
            for i in range(block.shape[1]):
                # each unordered pair stands for both orders
                masses[member] += 2.0 * float(np.vdot(commutators[member, i, i:], commutators[member, i, i:]).real)
        j += block.shape[1]
        del commutators  # freed before the next block is formed
    # an all-zero family would square its floor to 0 and divide 0 by 0
    return [math.sqrt(mass) / max(scale * scale, _TINY) for mass, scale in zip(masses, scales)]


_OBSTRUCTION = "family is not normal and commuting (commutator mass {:.3e})"


def joint_diagonalize_commuting(family):
    """Unitary q with q^dagger M q diagonal for every member of the family.

    The commutator mass of the family with its adjoints over COMMUTE_RTOL
    (not a normal commuting family) raises ValueError; no detector calls
    this function. q is built by ``_joint_diagonalize`` from seed 0; a
    residual over COMMUTE_RTOL on every attempt raises NumericalError.
    """
    ops, _ = mx._as_square_family(family, "family")
    mass = _commutator_mass(np.concatenate([ops, _adjoints(ops)])[None])[0]
    if mass > COMMUTE_RTOL:
        raise ValueError(_OBSTRUCTION.format(mass))
    q, residual = _joint_diagonalize(ops[None], 0)
    if residual[0] > COMMUTE_RTOL:
        raise NumericalError(f"joint diagonalization failed verification (residual {residual[0]:.3e})")
    return q[0]


def _diagonal_residual(rotated, norms):
    """Largest off-diagonal mass of each family's rotated members, each over max(||M||, 1), ``norms`` the ||M||."""
    off = np.asarray(rotated) * (1.0 - np.eye(np.shape(rotated)[-1]))
    return (mx.frobenius_norms(off) / np.maximum(norms, 1.0)).max(axis=-1)


def _is_scalar(stack: np.ndarray, norms: np.ndarray) -> np.ndarray:
    d = stack.shape[-1]
    dev = mx.frobenius_norms(stack - (stack.trace(axis1=-2, axis2=-1) / d)[..., None, None] * np.eye(d))
    return dev <= CLUSTER_GAP * np.maximum(math.sqrt(d), norms)


@functools.lru_cache(maxsize=64)
def _combination_weights(seed: int, attempt: int, n: int) -> np.ndarray:
    """The ``(n, 2)`` normal weights of attempt ``attempt``, drawn once from stream ``attempt`` of ``seed``."""
    weights = make_rng(seed, stream=attempt).normal(size=(n, 2))
    weights.flags.writeable = False
    return weights


def _joint_diagonalize(ops: np.ndarray, seed: int):
    """(q, residuals) of each family of a ``(k, n, d, d)`` stack: eigenvectors of one random combination per attempt.

    A generic element of a normal commuting family's span has the members'
    joint eigenbasis (He & Kressner, SIMAX 2024). Attempt k weighs the
    Hermitian and anti-Hermitian parts of the members with normal draws from
    stream k of ``seed``, drawn once per ``(seed, attempt, n)``, kept
    read-only and shared by every family; the first of three attempts within
    COMMUTE_RTOL is kept, else the best. Families of multiples of I keep q = I.
    """
    k, n, d, _ = ops.shape
    norms = mx.frobenius_norms(ops)
    scalar = _is_scalar(ops, norms).all(axis=1).tolist()
    qs = [np.eye(d, dtype=complex) if scalar[i] else None for i in range(k)]
    residuals = [float(_diagonal_residual(ops[i], norms[i])) if scalar[i] else math.inf for i in range(k)]
    # parts[:, i] = ((M_i + M_i^dagger) / 2, (M_i - M_i^dagger) / 2i), interleaved member by member and
    # written in place, so no more than the parts, the adjoints and the members are held at once
    parts = np.empty((k, n, 2, d, d), dtype=complex)
    adjoints = _adjoints(ops)
    np.add(ops, adjoints, out=parts[:, :, 0])
    np.subtract(ops, adjoints, out=parts[:, :, 1])
    del adjoints
    parts[:, :, 0] /= 2.0
    parts[:, :, 1] /= 2.0j
    rows = [i for i in range(k) if qs[i] is None]
    for attempt in range(3):
        if not rows:
            break
        weighted = _combination_weights(seed, attempt, n)[:, :, None, None] * _members(parts, rows)
        # one ordered sum from 0, part by part: a reordered sum moves h, and q, at roundoff
        h = np.add.reduce(weighted.reshape(-1, 2 * n, d, d), axis=1, initial=0.0)
        del weighted
        # + 0.0 turns the eigensolver's -0.0 entries into +0.0, which witnesses print as 0.0
        q = np.linalg.eigh(h)[1] + 0.0
        rotated = q.conj().swapaxes(1, 2)[:, None] @ _members(ops, rows) @ q[:, None]
        for i, q_i, residual in zip(rows, q, _diagonal_residual(rotated, _members(norms, rows)).tolist()):
            if qs[i] is None or residual < residuals[i]:
                qs[i], residuals[i] = q_i, residual
        rows = [i for i in rows if not residuals[i] <= COMMUTE_RTOL]
    return mx._stacked(qs), residuals


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


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_i @ b_j`` at index ``i * n + j`` of each family: one broadcast matmul, bitwise a pairwise loop."""
    return (a[..., None, :, :] @ b[..., None, :, :, :]).reshape(*a.shape[:-3], -1, *a.shape[-2:])


def _input_products(ops: np.ndarray) -> np.ndarray:
    """``M_i^dagger M_j`` of a checked stack; more than ``2 cap^2`` entries raise first."""
    mx._check_budget("product families (input side)", len(ops) * ops.size)
    return _products(_adjoints(ops), ops)


def simultaneous_svd(family, tol: float = COMMUTE_RTOL) -> SimultaneousSvdResult:
    """One pair of unitaries diagonalizing every family member at once.

    Exists exactly when both product families {M_i M_j'} and {M_i' M_j} are normal and
    commuting; a commutator mass (``family_obstruction``) over ``tol`` fails naming the
    family and its mass (the right products are formed once the left ones pass). The left
    basis is the eigenbasis of one random Hermitian combination of the left products
    (``_joint_diagonalize``); the right basis is derived row by row from the rotated family
    stack, which stays sound on degenerate families (repeated blocks, single members) where
    greedy eigenbasis pairing does not. A near miss whose left basis, right basis or joint
    diagonal form misses COMMUTE_RTOL (whatever ``tol`` is) fails with that residual. A
    ``tol`` that is not a finite number in (0, 1) raises ValueError first.
    """
    mx.checked_tol(tol)
    return _simultaneous_svds(mx._as_square_family(family, "family")[0][None], tol)[0]


def _simultaneous_svds(stack: np.ndarray, tol: float) -> list:
    """``simultaneous_svd`` of each family of a checked ``(k, n, d, d)`` stack, bit for bit, each check run once
    over the families still open. One family's ``2 n^2 d^2`` product entries over ``2 cap^2`` raise
    DimensionError; a pass holds at most ``min(2 cap^2, 2^16)`` product entries, one family at least."""
    k, n, d, _ = stack.shape
    entries = 2 * n * n * d * d
    step = max(1, min(mx._check_budget("product families", entries), 1 << 16) // entries)
    if k > step:
        return [result for i in range(0, k, step) for result in _simultaneous_svds(stack[i : i + step], tol)]
    results = [None] * k

    def sift(open_, values, limit, check):
        # fail each open family whose value passes the limit; the positions in open_ of those still open
        for i, value in zip(open_, values):
            if results[i] is None and value > limit:
                results[i] = _failure(check.format(value), value)
        return [j for j, i in enumerate(open_) if results[i] is None]

    left_products = _products(stack, _adjoints(stack))
    open_ = sift(range(k), _commutator_mass(left_products), tol, "left products: " + _OBSTRUCTION)
    if open_:  # the right products of the families the left ones left open
        ops = _members(stack, open_)
        masses = _commutator_mass(_products(_adjoints(ops), ops))
        open_ = [open_[j] for j in sift(open_, masses, tol, "right products: " + _OBSTRUCTION)]
    q, residuals = _joint_diagonalize(_members(left_products, open_), 0) if open_ else (None, [])
    kept = sift(open_, residuals, COMMUTE_RTOL, "left basis is not a joint eigenbasis (violation {:.3e})")
    if not kept:
        return results
    open_, s = [open_[j] for j in kept], _adjoints(_members(q, kept))
    ops = _members(stack, open_)
    rotated = s[:, None] @ ops
    norms = mx.frobenius_norms(ops)
    scales = [max(x, 1e-300) for x in norms.max(axis=1).tolist()]

    # column r of t is the largest row r among the rotated members, conjugated and normalized;
    # the row norms are numpy's own, sqrt(re . re + im . im) from two BLAS dots
    row_norms = mx.frobenius_norms(rotated[..., None])
    t = np.zeros((len(open_), d, d), dtype=complex)
    for t_j, rotated_j, norms_j, best, scale in zip(t, rotated, row_norms, row_norms.argmax(axis=1), scales):
        filled = norms_j[best, np.arange(d)] > 1e-9 * scale
        rows = filled.nonzero()[0]
        t_j[:, rows] = (rotated_j[best[rows], rows].conj() / norms_j[best[rows], rows, None]).T
        if not filled.all():
            t_j[:, ~filled] = orthonormal_complement(t_j[:, filled])[:, : d - len(rows)]
    diag = (rotated[:, 0] @ t).diagonal(axis1=1, axis2=2)
    unitary = "derived right basis is not unitary (violation {:.3e})"
    for j in sift(open_, mx.unitarity_residuals(t).tolist(), COMMUTE_RTOL, unitary):
        # convention: first significant diagonal entry of s M_1 t real nonnegative
        idx = (np.abs(diag[j]) > 1e-9 * max(scales[j], 1.0)).nonzero()[0]
        if idx.size:
            t[j, :, idx[0]] *= np.conj(diag[j, idx[0]]) / abs(diag[j, idx[0]])

    products = rotated @ t[:, None]
    diagonal = "family resists joint diagonal form (violation {:.3e})"
    for j in sift(open_, _diagonal_residual(products, norms).tolist(), COMMUTE_RTOL, diagonal):
        diagonals = tuple(products[j].diagonal(axis1=1, axis2=2).copy())
        results[open_[j]] = SimultaneousSvdResult(s=s[j], t=t[j], diagonals=diagonals, failed_check=None)
    return results


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
    gens, d = mx._as_square_family(generators, "generators")
    mx._check_budget("commutant system", 2 * min(len(gens), d * d) * d**4)
    span = _span_generators(gens[None])[0]
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
