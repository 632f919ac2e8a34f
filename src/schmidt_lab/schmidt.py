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
from functools import cached_property, reduce
from itertools import combinations, groupby

import numpy as np

from . import matrices as mx
from .factorizations import RANK_RTOL, leading_svd, numerical_rank, sketches, span_dimension, svd
from .matrices import SystemLayout
from .randomness import make_rng, random_complex_gaussian

ALS_RESIDUAL_TARGET = 1e-8
ALS_SWEEPS = 500
ALS_RANK_MARGIN = 8
ALS_RESTARTS = 32


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending coefficients with matched orthonormal factor pairs.

    ``left_factors`` and ``right_factors`` are ``(rank, d, d)`` stacks, pair
    ``i`` at index ``i``. Factors live on the grouped frame (cut systems merged
    on the left, complement merged on the right); ``reconstruct`` returns the
    operator in the original system order.
    """

    coefficients: np.ndarray
    left_factors: np.ndarray
    right_factors: np.ndarray
    cut: tuple
    layout: SystemLayout

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def grouped_operator(self) -> np.ndarray:
        """sum_i s_i A_i (x) B_i on the grouped frame, unrealigned from one matmul."""
        dims = (self.left_factors.shape[1], self.right_factors.shape[1])
        return mx.unrealign(mx._realigned_sum(self.coefficients, self.left_factors, self.right_factors), dims)

    def reconstruct(self) -> np.ndarray:
        _, order, _ = mx.cut_order(self.layout, self.cut)
        inverse = tuple(order.index(i) for i in range(len(order)))
        return mx._permuted(self.grouped_operator(), tuple(self.layout.dims[i] for i in order), inverse)


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


@dataclass(frozen=True)
class Cut:
    """One cut of a checked gate, held as its realignment: its ``front`` systems grouped left, then realigned.

    ``order`` is the grouped frame's system order and ``dims`` its ``(d_front, d_rest)``; no grouped copy is kept.
    ``svd`` (the verified ``leading_svd`` of ``realigned`` at the rank cutoff ``tol``), ``report`` (its ``RankReport``)
    and ``expansion`` (its ``_expansions``) are computed on first read, or for many cuts at once by ``_stack_svds``
    and ``_stack_expansions``, and kept: at most one of each per cut.
    """

    front: tuple
    order: tuple
    dims: tuple
    realigned: np.ndarray
    tol: float

    @classmethod
    def of(cls, u, layout: SystemLayout, front, tol: float = RANK_RTOL) -> "Cut":
        """The cut ``front`` of a ``u`` and ``layout`` that ``mx.on_layout`` has checked, at a checked ``tol``."""
        front, order, dims = mx.cut_order(layout, front)
        return cls(front, order, dims, mx._realigned(u, layout.dims, (front, order[len(front) :])), tol)

    @cached_property
    def svd(self):
        return leading_svd(self.realigned, self.tol)

    @cached_property
    def report(self) -> RankReport:
        """The one operator-rank rule; ``schmidt_rank`` says what it reads."""
        s = self.svd[1]
        return RankReport(numerical_rank(s, self.tol), s, self.tol * (s[0] if len(s) else 0.0))

    @cached_property
    def expansion(self):
        return _expansions([self])[0]

    def dropped(self, kept: float = 0.0) -> float:
        """``hypot(kept + tau, ||s[r:]||)`` off ``svd``: the mass ``expansion`` leaves out (``kept = 0``), or a bound
        on the distance from ``realigned`` of ``expansion + D``, ``D`` of norm ``kept`` with rows in the kept right
        vectors' span. The tail is orthogonal to ``D`` by rows and to the sketch's error (``tau``) by columns.
        ``expansion`` lies within ``dropped() + 1e-10 ||realigned||`` of ``realigned``: that is ``svd``'s own
        reconstruction check, not a second one."""
        return float(np.hypot(kept + self.svd[3], mx.frobenius_norm(self.svd[1][self.report.rank :])))


def _grouped(items, key) -> list:
    """``items`` in lists of equal ``key``, each in the given order; one item is not keyed."""
    return [list(items)] if len(items) == 1 else [list(group) for _, group in groupby(sorted(items, key=key), key)]


def _stack_svds(cuts) -> None:
    """Keep as ``Cut.svd`` of cuts that share a realigned shape ``leading_svd`` would not sketch one
    stacked ``svd`` per shape, each member checked and its dense SVD bit for bit; a lone cut reads its own."""
    dense = _grouped([cut for cut in cuts if not sketches(cut.realigned.shape)], lambda cut: cut.realigned.shape)
    for group in (group for group in dense if len(group) > 1):
        for cut, *factors in zip(group, *svd(np.stack([cut.realigned for cut in group]))):
            cut.__dict__["svd"] = (*factors, 0.0)  # where ``cached_property`` keeps a first read


def _stack_expansions(cuts) -> None:
    """Keep as ``Cut.expansion`` of the cuts one ``_expansions`` pass per ``dims`` and rank."""
    for group in _grouped(cuts, lambda cut: (cut.dims, cut.report.rank)):
        for cut, expansion in zip(group, _expansions(group)):
            cut.__dict__["expansion"] = expansion


def _expansions(cuts) -> list:
    """``(coefficients, left factors, right factors)`` of each of cuts of one ``dims`` and rank, read off
    its ``Cut.svd`` alone, in one stacked pass. The one Schmidt-expansion rule;
    ``operator_schmidt_decompose`` says what it keeps. The terms are the SVD's kept triplets, rephased by
    unit phases and reordered, so they rebuild ``realigned`` within ``Cut.dropped() + 1e-10 ||realigned||``
    because the SVD passed its reconstruction check; no sum of them is formed to check it again. Its
    scalar steps (each phase and sort) run member by member, so each member is its one-cut pass bit for bit.
    """
    (d_a, d_b), r, k = cuts[0].dims, cuts[0].report.rank, len(cuts)
    if r == 0:
        raise ValueError("decomposition input must be nonzero")

    # realignment splits as sum_i s_i vec(A_i) outer vec(B_i); numpy's svd
    # hands back exactly that with vec(B_i) as a row of right_h
    vecs = np.ascontiguousarray(mx._stacked([cut.svd[0][:, :r] for cut in cuts]).transpose(0, 2, 1))
    # rotate each pair so the left factor leads with a real positive entry; the
    # phase is a scalar division per factor, which an array division does not match bitwise
    mags = np.abs(vecs)
    leads = vecs[np.arange(k)[:, None], np.arange(r), (mags > 1e-12 * mags.max(axis=2, keepdims=True)).argmax(axis=2)]
    phases = np.array([lead / abs(lead) for lead in leads.reshape(-1)]).reshape(-1, r, 1, 1)
    lefts = vecs.reshape(-1, r, d_a, d_a) * phases.conj()
    rights = mx._stacked([cut.svd[2][:r] for cut in cuts]).reshape(-1, r, d_b, d_b) * phases
    # ties at 9 digits go to the vectorized left factor, its entries rounded as plain floats
    keys = lefts.reshape(k, r, -1).view(float).round(9).tolist()
    spectra = [cut.svd[1] for cut in cuts]
    order = np.array([sorted(range(r), key=lambda i: (-round(s[i], 9), key[i])) for s, key in zip(spectra, keys)])
    coefficients = mx._stacked([s[o] for s, o in zip(spectra, order)])
    lefts, rights = lefts[np.arange(k)[:, None], order], rights[np.arange(k)[:, None], order]
    return list(zip(coefficients, lefts, rights))


def operator_schmidt_decompose(u, layout, cut, tol: float = RANK_RTOL) -> SchmidtDecomposition:
    """Expand u across the cut as sum_i s_i A_i (x) B_i, coefficients descending.

    Coefficients at or below ``tol`` times the leading one are dropped; the kept
    terms rebuild u within the norm of all that was dropped (the cut
    coefficients and the mass ``tau`` that the leading SVD left out) plus
    1e-10 relative, as the SVD they are read from is checked. Equal
    coefficients are ordered by the vectorized left factor so repeated calls
    and round-tripped inputs produce identical output. A ``tol`` that is not
    a finite number in (0, 1) raises ValueError.
    """
    mx.checked_tol(tol)
    u, layout = mx.on_layout(u, layout, "decomposition input")
    cut = Cut.of(u, layout, cut, tol)
    return SchmidtDecomposition(*cut.expansion, cut=cut.front, layout=layout)


def schmidt_rank(u, layout, cut, tol: float = RANK_RTOL) -> RankReport:
    """Operator Schmidt rank across the cut, with the spectrum that produced it.

    The spectrum is what ``factorizations.leading_svd`` certifies: all of it
    on a cut too small to sketch, otherwise only the leading values (see
    ``RankReport``). A ``tol`` outside (0, 1) raises ValueError.
    """
    mx.checked_tol(tol)
    u, layout = mx.on_layout(u, layout, "rank input")
    return Cut.of(u, layout, cut, tol).report


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
    A ``tol`` outside (0, 1) or a non-integer seed raises ValueError before the gate is read.
    """
    mx.checked_tol(tol)
    make_rng(seed)  # a non-integer seed is refused before any bipartition is scanned
    u, layout = mx.on_layout(u, layout, "rank bounds input")
    n = len(layout)
    if n < 2:
        raise ValueError(f"rank bounds need at least two systems, got {n}")

    lower = max(
        Cut.of(u, layout, (0,) + rest, tol).report.rank
        for size in range(1, n)
        for rest in combinations(range(1, n), size - 1)
    )

    tensor = mx._realigned(u, layout.dims)
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
    mx.checked_tol(tol)
    if len(a_ops) != len(b_ops):
        raise ValueError(
            f"term lists must match: {len(a_ops)} left vs {len(b_ops)} right"
        )
    a_ops, d_a = mx._as_square_family(a_ops, "left factors")
    b_ops, d_b = mx._as_square_family(b_ops, "right factors")
    SystemLayout.of((d_a, d_b))  # the cap, before the sum is formed
    rank = numerical_rank(leading_svd(mx._realigned_sum(1.0, a_ops, b_ops), tol)[1], tol)
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
