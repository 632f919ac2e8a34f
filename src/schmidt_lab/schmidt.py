"""Operator Schmidt decompositions, ranks across cuts, and rank inequalities.

A bipartite operator u on systems (A, B) expands as u = sum_i s_i A_i (x) B_i
with Hilbert-Schmidt orthonormal factor families on both sides. The expansion
is read off the singular value decomposition of the realigned matrix; the
number of nonzero coefficients is the operator Schmidt rank. For more than
two systems the true product-term count is only bracketed: a bipartition scan
gives a certified lower bound and alternating least squares gives a
constructive upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from . import matrices as mx
from .factorizations import RANK_RTOL, leading_svd, numerical_rank, span_dimension
from .matrices import SystemLayout
from .randomness import make_rng, random_complex_gaussian

ALS_RESIDUAL_TARGET = 1e-8
ALS_SWEEPS = 500
ALS_RANK_MARGIN = 8
ALS_RESTARTS = 32


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending coefficients with matched orthonormal factor pairs.

    Factors live on the grouped frame (cut systems merged on the left,
    complement merged on the right); ``reconstruct`` returns the operator in
    the original system order.
    """

    coefficients: np.ndarray
    left_factors: tuple
    right_factors: tuple
    cut: tuple
    layout: SystemLayout

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def grouped_operator(self) -> np.ndarray:
        """sum_i s_i A_i (x) B_i on the grouped frame, unrealigned from one matmul."""
        dims = (self.left_factors[0].shape[0], self.right_factors[0].shape[0])
        return mx.unrealign(
            _realigned_sum(self.coefficients, self.left_factors, self.right_factors), dims
        )

    def reconstruct(self) -> np.ndarray:
        grouped = self.grouped_operator()
        front = self.layout.validate_subset(self.cut)
        rest = self.layout.complement(front)
        perm = front + rest
        grouped_dims = tuple(self.layout.dims[i] for i in perm)
        inverse = tuple(perm.index(i) for i in range(len(perm)))
        return mx.permute_systems(grouped, grouped_dims, inverse)


@dataclass(frozen=True)
class RankReport:
    """Rank across a cut, the singular values it was read from, and the cutoff.

    ``singular_values`` are descending and certified, but may be only the
    leading ones: every value of the realigned operator left out lies below
    ``SKETCH_MARGIN * tolerance_used`` (see ``factorizations.leading_svd``).
    """

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


@dataclass(frozen=True)
class RankBounds:
    """Certified interval for the multipartite product-term count.

    ``confirmed`` is False when the upper-bound search hit its rank cap
    without converging; ``upper`` is then cap+1 and only the lower bound
    is trustworthy.
    """

    lower: int
    upper: int
    confirmed: bool


def _realigned_sum(c, lefts, rights) -> np.ndarray:
    """The realignment of sum_i c_i A_i (x) B_i: sum_i c_i vec(A_i) vec(B_i)^T."""
    lefts_vec = np.stack([np.reshape(a, -1) for a in lefts], axis=1)
    rights_vec = np.stack([np.reshape(b, -1) for b in rights])
    return (lefts_vec * c) @ rights_vec


def _lex_key(factor: np.ndarray):
    return tuple(np.round(factor.reshape(-1).view(float), 9))


def _cut_realigned(u, layout, cut, name: str):
    """(layout, cut, realigned operator, grouped dims); the one check of ``u`` on this path."""
    layout = SystemLayout.of(layout)
    u = mx.as_operator(u, name)
    cut = layout.validate_subset(cut)
    grouped, dims = mx.group_systems(u, layout, cut)
    return layout, cut, mx._realigned(grouped, dims), dims


def _expansion(realigned, dims, tol=RANK_RTOL):
    """``(coefficients, left factors, right factors)`` of a realigned operator, verified.

    The one Schmidt-expansion rule; ``operator_schmidt_decompose`` says what it keeps.
    """
    d_a, d_b = dims
    left, s, right_h, tau = leading_svd(realigned, tol)
    r = numerical_rank(s, tol)
    if r == 0:
        raise ValueError("decomposition input must be nonzero")

    coeffs = []
    lefts = []
    rights = []
    for i in range(r):
        # realignment splits as sum_i s_i vec(A_i) outer vec(B_i); numpy's svd
        # hands back exactly that with vec(B_i) as a row of right_h
        a = left[:, i].reshape(d_a, d_a)
        b = right_h[i, :].reshape(d_b, d_b)
        # rotate the pair so the left factor leads with a real positive entry
        v = a.reshape(-1)
        lead = v[np.abs(v) > 1e-12 * np.max(np.abs(v))][0]
        phase = lead / abs(lead)
        coeffs.append(s[i])
        lefts.append(a * phase.conjugate())
        rights.append(b * phase)
    order = sorted(range(r), key=lambda i: (-round(coeffs[i], 9), _lex_key(lefts[i])))
    coefficients = np.array([coeffs[i] for i in order])
    lefts = tuple(lefts[i] for i in order)
    rights = tuple(rights[i] for i in order)
    # realignment only permutes entries, so the residual of the returned
    # expansion is read in the realigned frame
    residual = mx.frobenius_norm(_realigned_sum(coefficients, lefts, rights) - realigned)
    # the spectrum the leading SVD left out weighs at most tau
    dropped = float(np.hypot(np.linalg.norm(s[r:]), tau))
    if residual > dropped + 1e-10 * max(mx.frobenius_norm(realigned), 1e-300):
        raise ValueError(
            f"decomposition dropped weight beyond tolerance: residual {residual:.3e}"
        )
    return coefficients, lefts, rights


def operator_schmidt_decompose(u, layout, cut, tol: float = RANK_RTOL) -> SchmidtDecomposition:
    """Expand u across the cut as sum_i s_i A_i (x) B_i, coefficients descending.

    Coefficients at or below ``tol`` times the leading one are dropped; the kept
    terms must rebuild u within the norm of all that was dropped (the cut
    coefficients and the mass ``tau`` that the leading SVD left out) plus
    1e-10 relative. Equal coefficients are ordered by the vectorized left factor
    so repeated calls and round-tripped inputs produce identical output. A
    ``tol`` that is not a finite number in (0, 1) raises ValueError.
    """
    layout, cut, realigned, dims = _cut_realigned(u, layout, cut, "decomposition input")
    return SchmidtDecomposition(*_expansion(realigned, dims, mx.checked_tol(tol)), cut=cut, layout=layout)


def schmidt_rank(u, layout, cut, tol: float = RANK_RTOL) -> RankReport:
    """Operator Schmidt rank across the cut, with the spectrum that produced it.

    The spectrum is what ``factorizations.leading_svd`` certifies: all of it
    on a cut too small to sketch, otherwise only the leading values (see
    ``RankReport``). A ``tol`` outside (0, 1) raises ValueError.
    """
    return _rank_report(_cut_realigned(u, layout, cut, "rank input")[2], tol)


def _rank_report(realigned, tol) -> RankReport:
    """The one operator-rank rule, on a realigned operator; ``schmidt_rank`` says what it reads."""
    _, s, _, _ = leading_svd(realigned, mx.checked_tol(tol))
    return RankReport(
        rank=numerical_rank(s, tol),
        singular_values=s,
        tolerance_used=tol * (s[0] if len(s) else 0.0),
    )


def _operator_tensor(u: np.ndarray, layout: SystemLayout) -> np.ndarray:
    """Reshape an n-party operator into an n-way tensor, one axis of d_i^2 per system."""
    dims = layout.dims
    n = len(dims)
    t = u.reshape(dims + dims)
    order = tuple(x for i in range(n) for x in (i, n + i))
    return t.transpose(order).reshape(tuple(d * d for d in dims))


def _khatri_rao(factors) -> np.ndarray:
    def pair(x, y):
        return (x[:, None, :] * y[None, :, :]).reshape(-1, x.shape[1])

    return reduce(pair, factors)


def _als_attempt(tensor, unfoldings, rank, rng, norm):
    dims = tensor.shape
    factors = [random_complex_gaussian((d, rank), rng) for d in dims]
    prev = np.inf
    for _ in range(ALS_SWEEPS):
        for i in range(len(dims)):
            z = _khatri_rao([factors[j] for j in range(len(dims)) if j != i])
            factors[i] = np.linalg.lstsq(z, unfoldings[i].T, rcond=None)[0].T
        recon = factors[0] @ _khatri_rao(factors[1:]).T
        residual = np.linalg.norm(unfoldings[0] - recon) / norm
        if residual <= ALS_RESIDUAL_TARGET:
            return True
        if prev - residual < 1e-13:
            return False
        prev = residual
    return False


def multipartite_rank_bounds(u, layout, tol: float = RANK_RTOL, seed: int = 0) -> RankBounds:
    """Bracket the smallest number of n-party product terms summing to u.

    The lower bound is the largest operator Schmidt rank over all
    bipartitions. The upper bound sweeps candidate ranks upward from there,
    accepting the first rank at which one of 32 seeded alternating least
    squares restarts reaches a relative residual of 1e-8. Ranks up to lower+8
    are tried; beyond that the result is flagged unconfirmed with upper = cap+1.
    """
    layout = SystemLayout.of(layout)
    u = mx.as_operator(u, "rank bounds input")
    n = len(layout)
    if n < 2:
        raise ValueError(f"rank bounds need at least two systems, got {n}")

    lower = 0
    for size in range(1, n):
        for rest in combinations(range(1, n), size - 1):
            cut = (0,) + rest
            lower = max(lower, schmidt_rank(u, layout, cut, tol).rank)

    tensor = _operator_tensor(u, layout)
    norm = np.linalg.norm(tensor)
    unfoldings = [
        np.moveaxis(tensor, i, 0).reshape(tensor.shape[i], -1) for i in range(n)
    ]
    cap = lower + ALS_RANK_MARGIN
    for rank in range(lower, cap + 1):
        for restart in range(ALS_RESTARTS):
            rng = make_rng(seed, stream=rank * 10_000 + restart)
            if _als_attempt(tensor, unfoldings, rank, rng, norm):
                return RankBounds(lower=lower, upper=rank, confirmed=True)
    return RankBounds(lower=lower, upper=cap + 1, confirmed=False)


@dataclass(frozen=True)
class SchineqReport:
    """Dimension counts for a product-term expansion sum_j A_j (x) B_j.

    delta_a and delta_b are the dimensions of the spanned operator spaces,
    n_terms the number of terms, rank the operator Schmidt rank of the sum.
    The three clauses: (i) delta_a + delta_b <= n_terms + rank,
    (ii) rank <= min(delta_a, delta_b) and max(delta_a, delta_b) <= n_terms,
    (iii) if max(delta_a, delta_b) = n_terms then min(delta_a, delta_b) = rank.
    """

    delta_a: int
    delta_b: int
    n_terms: int
    rank: int
    holds_i: bool
    holds_ii: bool
    holds_iii: bool

    @property
    def all_hold(self) -> bool:
        return self.holds_i and self.holds_ii and self.holds_iii


def schineq_check(a_ops, b_ops, tol: float = RANK_RTOL) -> SchineqReport:
    """Evaluate the span-dimension inequalities for a two-sided term list."""
    if len(a_ops) != len(b_ops):
        raise ValueError(
            f"term lists must match: {len(a_ops)} left vs {len(b_ops)} right"
        )
    if not a_ops:
        raise ValueError("need at least one term")
    a_ops = [mx.as_operator(a, "left factor") for a in a_ops]
    b_ops = [mx.as_operator(b, "right factor") for b in b_ops]
    d_a = a_ops[0].shape[0]
    d_b = b_ops[0].shape[0]
    if any(a.shape != (d_a, d_a) for a in a_ops):
        raise ValueError("left factors must share one dimension")
    if any(b.shape != (d_b, d_b) for b in b_ops):
        raise ValueError("right factors must share one dimension")

    SystemLayout.of((d_a, d_b))  # the cap, before the sum is formed
    rank = _rank_report(_realigned_sum(1.0, a_ops, b_ops), tol).rank
    delta_a = span_dimension(a_ops, tol)
    delta_b = span_dimension(b_ops, tol)
    n = len(a_ops)
    lo, hi = min(delta_a, delta_b), max(delta_a, delta_b)
    return SchineqReport(
        delta_a=delta_a,
        delta_b=delta_b,
        n_terms=n,
        rank=rank,
        holds_i=delta_a + delta_b <= n + rank,
        holds_ii=rank <= lo and hi <= n,
        holds_iii=(hi != n) or (lo == rank),
    )
