"""Controlled-unitary and block-structure detection.

A unitary is controlled from a subset of its systems when some basis of
that subset's space splits it into a direct sum of target-side unitaries.
The decision procedure works through the operator Schmidt factors on the
candidate control side: they admit a simultaneous singular value
decomposition exactly when the control basis exists, and the witness
(q, r, blocks) is assembled and re-verified on every positive verdict.

Weaker structure is covered by the block-split detector (invariant
subspace pairs instead of a full control basis), a multipartite report
that sweeps singletons and pairs, and randomized suites that drive the
detectors over freshly scrambled instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import algebra, gates, schmidt
from . import matrices as mx
from .config import FUZZ_SUITES
from .matrices import SystemLayout
from .randomness import make_rng
from .schmidt import Cut

# checks pass below this relative violation
VERDICT_RTOL = 1e-8
# violations up to here refuse to refute: the instance is within conditioning
# distance of a structured one, so the verdict is inconclusive, not negative
NEAR_MISS_CEILING = 1e-5
# Schmidt directions below this fraction of the leading coefficient are left
# out of the structure analysis; their weight lands in the final residual,
# which keeps borderline instances in the inconclusive band
SIGNIFICANT_FLOOR = 1e-5


@dataclass(frozen=True)
class ControlledForm:
    """Witness (q x I) . blockdiag(blocks) . (r x I) on the grouped frame.

    ``side`` records which systems form the control; the operator it
    reproduces is the input with those systems permuted to the front.
    ``blocks`` is one ``(d_c, d_t, d_t)`` array (a sequence of ``d_c`` blocks is accepted
    too); ``grouped_dims``, ``(d_c, d_t)``, is read off the shapes of ``q`` and ``blocks``.
    The form is ``sum_k (q e_k)(e_k^T r) (x) V_k``, so its realignment is ``mx._realigned_sum`` of those
    rank-one control factors and the blocks; ``operator`` unrealigns it, and ``residual`` and ``apply`` form none.
    """

    side: tuple
    q: np.ndarray
    r: np.ndarray
    blocks: np.ndarray

    @property
    def grouped_dims(self) -> tuple:
        return len(self.q), np.shape(self.blocks)[-1]

    def operator(self) -> np.ndarray:
        realigned = mx._realigned_sum(1.0, self.q.T[:, :, None] * self.r[:, None, :], self.blocks)
        return mx.unrealign(realigned, self.grouped_dims)

    def residual(self, cut: Cut) -> float:
        """``||operator() - grouped||_F`` for the gate ``cut`` groups, off its expansion (``_residuals``)."""
        if cut.dims != self.grouped_dims:
            raise ValueError(f"cut dims {cut.dims} differ from the form's grouped dims {self.grouped_dims}")
        form = self.q.T[None], self.r[None], np.asarray(self.blocks)[None]
        return _residuals([cut], [x[None] for x in cut.expansion], form)[0]

    def apply(self, psi) -> np.ndarray:
        """``operator() @ psi`` as ``q (V_k (r Psi)_k)``, with Psi the ``(d_c, d_t)`` view of psi."""
        d_c, d_t = self.grouped_dims
        rotated = (self.r @ np.reshape(psi, (d_c, d_t)))[:, :, None]
        return (self.q @ (np.reshape(self.blocks, (d_c, d_t, d_t)) @ rotated)[:, :, 0]).reshape(-1)


@dataclass(frozen=True)
class ControlVerdict:
    """Outcome of one controlled-structure decision.

    ``controlled`` is ``failed_check is None``; from ``is_controlled`` it holds exactly
    when ``form`` is present (a ``MultipartiteControlReport``'s verdicts carry no form, the
    report keeping its ``witness``). A refutation or a near-miss carries ``failed_check``,
    with ``violation`` giving the worst relative check value either way.
    """

    form: ControlledForm | None
    failed_check: str | None
    inconclusive: bool = False
    violation: float | None = None
    schmidt_rank: int = 0

    @property
    def controlled(self) -> bool:
        return self.failed_check is None


@dataclass(frozen=True)
class BcuVerdict:
    """Outcome of the invariant-block-split decision for one side.

    ``bcu`` is ``failed_check is None``; the projector pairs (P_k, Q_k) are present exactly then.
    ``violation`` is None only on a refutation by an irreducible input-product family.
    """

    side: tuple
    input_projectors: tuple | None
    output_projectors: tuple | None
    failed_check: str | None
    inconclusive: bool = False
    violation: float | None = None

    @property
    def bcu(self) -> bool:
        return self.failed_check is None


@dataclass
class MultipartiteControlReport:
    """Per-singleton and per-pair verdicts, without forms, and the first positive subset's form and side."""

    layout: SystemLayout
    singles: dict
    pairs: dict
    witness: ControlledForm | None

    @property
    def witness_subset(self) -> tuple | None:
        return None if self.witness is None else self.witness.side

    @property
    def controlled_subsets(self) -> tuple:
        return tuple(subset for subset, verdict in {**self.singles, **self.pairs}.items() if verdict.controlled)

    @property
    def low_rank_subsets(self) -> tuple:
        return tuple(subset for subset, verdict in {**self.singles, **self.pairs}.items() if verdict.schmidt_rank <= 2)


@dataclass(frozen=True)
class FuzzSummary:
    """Randomized-suite outcome; any failure keeps its first counterexample, and ``passes`` counts the rest."""

    suite: str
    trials: int
    failures: tuple
    first_counterexample: np.ndarray | None
    first_counterexample_dims: tuple | None
    seed: int

    @property
    def passes(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _cut_factors(cut: Cut):
    """The control-side factors of ``cut.expansion`` above SIGNIFICANT_FLOOR, one ``(n, d_c, d_c)`` stack."""
    coefficients, lefts, _ = cut.expansion
    return lefts[coefficients > SIGNIFICANT_FLOOR * coefficients[0]]


def _checked(u, layout, tol, name):
    """``(u, layout, norm of u)``: ``tol`` checked, then ``u`` checked unitary on the layout."""
    mx.checked_tol(tol)
    u, layout = mx.on_layout(u, layout, name, unitary=True)
    return u, layout, mx.frobenius_norm(u)


def _band(violation, description, tol, witnessed=True):
    """Band a worst relative check value: (passed, failed_check, inconclusive).

    At or below ``tol`` it passes, unless no witness was found; up to
    NEAR_MISS_CEILING (or ``tol``, for a value with no witness) it is a near
    miss, reported with an ``inconclusive: `` prefix; above that it refutes.
    """
    if violation <= tol and witnessed:
        return True, None, False
    if violation <= max(tol, NEAR_MISS_CEILING):
        return False, f"inconclusive: {description}", True
    return False, description, False


def is_controlled(u, layout, side, tol: float = VERDICT_RTOL) -> ControlVerdict:
    """Decide whether ``u`` is controlled from the ``side`` systems.

    The candidate control systems are grouped to the front and the realigned
    operator's spectrum is taken across that cut. With more significant
    values than control levels, a tail past ``d_c`` above the band refutes at
    once, before any Schmidt factor is formed: it bounds the relative distance
    to every controlled unitary (Eckart-Young). Otherwise the spectrum is
    expanded and the control-side factors are fed to the
    simultaneous singular value decomposition. Its witness pair (s, t) fixes
    the bases; with ``u = sum_i c_i A_i (x) B_i`` over every kept factor, block k is
    ``V_k = sum_i c_i (s A_i t)_kk B_i``. The assembled form is verified against the
    expansion and its left-out mass (``ControlledForm.residual``) before any positive verdict.
    A ``tol`` that is not a finite number in (0, 1) raises ValueError.
    """
    u, layout, norm_u = _checked(u, layout, tol, "detection input")
    return _decide_controls([Cut.of(u, layout, side)], norm_u, tol)[0]


def _decide_controls(cuts, norm_u, tol) -> list:
    """The verdict of ``is_controlled`` on each ``Cut`` of a ``u`` of norm ``norm_u``, bit for bit, cuts of one
    shape stacked at every stage. The distance rule reads only ``cut.svd``, so a cut it refutes forms no
    Schmidt factor; the others are expanded from that SVD, one ``_product_routes`` stack per factor count and rank.
    """
    schmidt._stack_svds(cuts)
    # a controlled unitary's realignment has rank at most d_c
    distances = [_tail_distance(cut, cut.dims[0], norm_u, tol) for cut in cuts]
    refuted = "Schmidt rank exceeds the control dimension (distance {:.3e})"
    routes = [None if d is None else (d, refuted.format(d), None) for d in distances]
    open_ = [i for i, route in enumerate(routes) if route is None]
    schmidt._stack_expansions([cuts[i] for i in open_])
    factors = {i: _cut_factors(cuts[i]) for i in open_}
    for group in schmidt._grouped(open_, lambda i: (cuts[i].dims, len(factors[i]), cuts[i].report.rank)):
        stack = mx._stacked([factors[i] for i in group])
        for i, route in zip(group, _product_routes([cuts[i] for i in group], stack, norm_u, tol)):
            routes[i] = route
    verdicts = []
    for cut, (violation, description, form) in zip(cuts, routes):
        passed, failed, inconclusive = _band(violation, description, tol, form is not None)
        verdicts.append(ControlVerdict(form if passed else None, failed, inconclusive, violation, cut.report.rank))
    return verdicts


def _tail_distance(cut: Cut, bound, norm_u, tol):
    """``||s[bound:r]|| / norm_u`` off ``cut.svd`` when more than ``bound`` values clear SIGNIFICANT_FLOOR
    and it lies past the band, else None: by Eckart-Young, with the mass left out of the kept spectrum,
    a lower bound on the relative distance to every unitary whose realignment has rank at most ``bound``.
    """
    s, r = cut.svd[1], cut.report.rank
    distance = mx.frobenius_norm(s[bound:r]) / norm_u
    if np.count_nonzero(s[:r] > SIGNIFICANT_FLOOR * s[0]) > bound and distance > max(tol, NEAR_MISS_CEILING):
        return distance
    return None


def _product_routes(cuts, factors, norm_u, tol) -> list:
    """``(violation, description, witness or None)`` of each of ``cuts`` (one ``dims`` and rank), from one simultaneous
    SVD of the ``(k, n, d_c, d_c)`` stack of their significant ``factors``; blocks ``sum_i c_i (s A_i t)_kk B_i``."""
    d_c, d_t = cuts[0].dims
    results = algebra._simultaneous_svds(factors, tol)
    routes = [(result.violation, result.failed_check, None) for result in results]
    passed = [i for i, result in enumerate(results) if result.ok]
    if not passed:
        return routes
    c, a, b = (mx._stacked(x) for x in zip(*(cuts[i].expansion for i in passed)))
    s, t = (mx._stacked([getattr(results[i], name) for i in passed]) for name in "st")
    weights = (s[:, None] @ a @ t[:, None]).diagonal(axis1=2, axis2=3) * c[:, :, None]
    blocks = (weights.swapaxes(1, 2) @ b.reshape(len(passed), len(c[0]), -1)).reshape(-1, d_c, d_t, d_t)
    deviations = mx.unitarity_residuals(blocks.reshape(-1, d_t, d_t)).reshape(len(passed), d_c).tolist()
    residuals = _residuals([cuts[i] for i in passed], (c, a, b), (s.conj(), t.conj().swapaxes(1, 2), blocks))
    for j, i in enumerate(passed):
        checks = [(f"target block {k} is not unitary", x) for k, x in enumerate(deviations[j])]
        checks.append(("assembled form does not reconstruct the input", residuals[j] / norm_u))
        name, violation = max(checks, key=lambda item: item[1])
        form = ControlledForm(side=cuts[i].front, q=results[i].s.conj().T, r=results[i].t.conj().T, blocks=blocks[j])
        routes[i] = violation, f"{name} (violation {violation:.3e})", form
    return routes


def _residuals(cuts, expansions, forms) -> list:
    """``ControlledForm.residual`` against each of ``cuts`` (one dims and rank), from stacks of their expansions
    ``(c, A, B)`` and of the forms' ``(q.T, r, blocks)``. The form's realignment minus the expansion's is ``L M^T``,
    ``L = [vec(q e_k e_k^T r), -c_i vec(A_i)]``, ``M = [vec(V_k), vec(B_i)]``; its rows lie in the kept right vectors'
    span, so ``Cut.dropped`` bounds the distance from that norm, the SVD tail and ``tau``."""
    (c, a, b), (q_t, r, blocks) = expansions, forms
    lefts = np.concatenate([q_t[..., None] * r[:, :, None], -c[..., None, None] * a], 1)
    kept = mx._realigned_sum_norms(lefts, np.concatenate([blocks, b], 1)).tolist()
    return [cut.dropped(x) for cut, x in zip(cuts, kept)]


def _split_attempt(cut: Cut, projectors):
    """Output partners ``Q = Tr_t[U (P x I) U^dagger] / d_t`` and two relative checks per projector ``P``: ``Q^2 = Q``,
    and ``U (P x I) = (Q x I) U (P x I)`` relative to ``||P x I||_F = sqrt(d_t tr P)``, a unitary's ``||U (P x I)||_F``.

    Off ``U = sum_i c_i A_i (x) B_i`` (``cut.expansion``, B_i orthonormal), ``Q = sum_i c_i^2 A_i P P^dagger A_i^dagger
    / d_t``. ``X -> ((Q - I) x I) X (P x I)`` acts on the realignment from the left with norm at most 1, so the capture
    is at most ``hypot(kept, ||s[r:]||) + tau`` off ``cut.svd``, ``kept`` its norm on the expansion: the tail is
    orthogonal to the expansion by rows, the sketch's error (``tau``) only by columns, which the left map does not keep.
    """
    (c, a, b), (_, s, _, tau), (d_c, d_t) = cut.expansion, cut.svd, cut.dims
    p = np.asarray(projectors)
    # c_i A_i P of every projector and factor, one (m, n, d_c, d_c) product
    moved = (c[:, None, None] * a) @ p[:, None]
    rows = moved.swapaxes(1, 2).reshape(len(p), d_c, -1)
    partners = rows @ rows.conj().swapaxes(1, 2) / d_t
    idempotency = mx.frobenius_norms(partners @ partners - partners) / np.maximum(1.0, mx.frobenius_norms(partners))
    kept = mx._realigned_sum_norms((partners - np.eye(d_c))[:, None] @ moved, b[None])
    capture = np.hypot(kept, mx.frobenius_norm(s[cut.report.rank :])) + tau
    return tuple(partners), idempotency, capture / np.sqrt(d_t * np.trace(p, axis1=1, axis2=2).real)


def is_bcu(u, layout, side, tol: float = VERDICT_RTOL) -> BcuVerdict:
    """Decide whether ``u`` splits into invariant blocks along ``side``.

    A split ``U (P_k x I) = (Q_k x I) U`` maps each P_k into Q_k, so its control-side Schmidt
    factors lie in the sum of Hom(P_k, Q_k), of dimension ``sum_k a_k^2 <= K = (d_c - 1)^2 + 1``
    for two or more blocks of sizes a_k. By Eckart-Young every split unitary thus lies at least
    ``||s[K:]|| / ||U||`` from u, and a tail past the band refutes before any factor is formed.

    Otherwise ``_commutant_route`` decides: a nontrivial commutant of the input products
    M_i^dagger M_j of the control-side Schmidt factors gives projectors P_k; their partners Q_k come
    from the cut's Schmidt expansion and must capture every block. (For a unitary the output products
    split exactly when these do.) Whether a split exists is a rank decision; the tolerance band applies
    to how well the blocks capture u, a bound that holds the expansion's left-out mass, relative to
    ``||P_k x I||`` (``tol`` as in ``is_controlled``). Only the input products are formed.
    """
    u, layout, norm_u = _checked(u, layout, tol, "detection input")
    cut = Cut.of(u, layout, side)
    bound = (cut.dims[0] - 1) ** 2 + 1
    distance = _tail_distance(cut, bound, norm_u, tol)
    if distance is None:
        return _commutant_route(cut, tol)
    check = f"Schmidt rank {cut.report.rank} exceeds the block-split bound {bound} (distance {distance:.3e})"
    return BcuVerdict(cut.front, None, None, check, violation=distance)


def _commutant_route(cut: Cut, tol) -> BcuVerdict:
    """The verdict of ``is_bcu`` from the commutant of the cut's input products, with no tail rule; the split is
    scored by ``_split_attempt`` off the cut's expansion and SVD, with no dense gate formed."""
    projectors = algebra.commutant_blocks(algebra._input_products(_cut_factors(cut)))
    if projectors is None:
        return BcuVerdict(
            side=cut.front,
            input_projectors=None,
            output_projectors=None,
            failed_check="factor products act irreducibly: no invariant split exists",
        )

    outs, *checks = _split_attempt(cut, projectors)
    worst = float(np.max(checks))
    passed, failed_check, inconclusive = _band(
        worst, f"input-commutant split does not capture the blocks (violation {worst:.3e})", tol
    )
    return BcuVerdict(
        side=cut.front,
        input_projectors=projectors if passed else None,
        output_projectors=outs if passed else None,
        failed_check=failed_check,
        inconclusive=inconclusive,
        violation=worst,
    )


def multipartite_control_analysis(u, layout, tol: float = VERDICT_RTOL) -> MultipartiteControlReport:
    """Sweep every singleton and pair as a candidate control subset.

    Rank-one and rank-two cuts are controlled on dimension grounds alone;
    they are listed separately so callers can see which positives needed no
    structure analysis. The witness is the first positive subset in order:
    singletons ascending, then pairs lexicographically (``tol`` as in ``is_controlled``).

    Each run of ``_batches`` is decided by ``_decide_controls``, bit for bit as by ``is_controlled``.
    """
    u, layout, norm_u = _checked(u, layout, tol, "analysis input")
    if len(layout) < 3:
        raise ValueError(f"multipartite analysis needs at least 3 systems, got {len(layout)}")

    singles = {}
    pairs = {}
    witness = None
    subsets = [(i,) for i in range(len(layout))] + list(combinations(range(len(layout)), 2))
    for batch in _batches(u, layout, subsets):
        for subset, verdict in zip(batch, _decide_controls([Cut.of(u, layout, s) for s in batch], norm_u, tol)):
            if witness is None:
                witness = verdict.form
            # one form per controlled subset would outgrow the gate itself near the cap
            (singles if len(subset) == 1 else pairs)[subset] = replace(verdict, form=None)
    return MultipartiteControlReport(layout=layout, singles=singles, pairs=pairs, witness=witness)


def _batches(u, layout, subsets):
    """``subsets`` in order, in runs whose cuts hold at most ``max(u.size, 2^16)`` entries, one at least: a cut
    holds its realignment and the stacked copy its SVD reads, and that SVD."""
    bound, batch, entries = max(u.size, 1 << 16), [], 0
    for subset in subsets:
        m, n = (d * d for d in mx.cut_order(layout, subset)[2])
        size = 2 * u.size + min(m, n) * (m + n + 1)
        if batch and entries + size > bound:
            yield batch
            batch, entries = [], 0
        batch.append(subset)
        entries += size
    yield batch


# ------------------------------------------------------------- fuzz suites


def _fuzz_sch3(trial, trial_seed):
    d_a, d_b = [(3, 3), (3, 4), (4, 5)][trial % 3]
    u, layout = gates.random_controlled_unitary(d_a, d_b, 3, seed=trial_seed)
    verdict = is_controlled(u, layout, (0,))
    if not verdict.controlled:
        return u, layout.dims, f"rank-3 instance not detected: {verdict.failed_check}"
    return u, layout.dims, None


def _fuzz_sch2_diagonal(trial, trial_seed):
    d_a, d_b = [(2, 2), (2, 3), (3, 3)][trial % 3]
    u, layout = gates.random_controlled_unitary(d_a, d_b, 2, seed=trial_seed)
    left = is_controlled(u, layout, (0,))
    right = is_controlled(u, layout, (1,))
    if not left.controlled:
        return u, layout.dims, f"not controlled from the first side: {left.failed_check}"
    if not right.controlled:
        return u, layout.dims, f"not controlled from the second side: {right.failed_check}"
    # (q_A^dagger (x) q_B^dagger) u (r_A^dagger (x) r_B^dagger), one system per axis
    qa, qb = left.form.q.conj().T, right.form.q.conj().T
    ra, rb = left.form.r.conj().T, right.form.r.conj().T
    rows = np.einsum("ai,bj,ijkl->abkl", qa, qb, u.reshape(d_a, d_b, d_a, d_b))
    flat = np.einsum("abkl,kc,ld->abcd", rows, ra, rb).reshape(u.shape)
    off = mx.frobenius_norm(flat - np.diag(np.diag(flat)))
    if off > 1e-8 * mx.frobenius_norm(u):
        return u, layout.dims, f"one-sided witnesses do not compose to a diagonal (off {off:.3e})"
    return u, layout.dims, None


def _fuzz_multi(trial, trial_seed):
    base, _ = gates.random_controlled_unitary(4, 2, 3, seed=trial_seed)
    perm = tuple(int(p) for p in make_rng(trial_seed, stream=777).permutation(3))
    u = mx.permute_systems(base, (2, 2, 2), perm)
    report = multipartite_control_analysis(u, (2, 2, 2))
    if report.witness_subset is None:
        return u, (2, 2, 2), "no singleton or pair controls a rank-3 three-qubit instance"
    return u, (2, 2, 2), None


def _fuzz_even_qubit(trial, trial_seed):
    base, layout = gates.even_qubit_rank3(4)
    u = gates.random_local_scramble(base, layout, seed=trial_seed)
    verdict = is_controlled(u, layout, (0,))
    if not verdict.controlled:
        return u, layout.dims, f"block-selecting qubit not detected: {verdict.failed_check}"
    return u, layout.dims, None


_FUZZ_RUNNERS = dict(zip(FUZZ_SUITES, (_fuzz_sch3, _fuzz_sch2_diagonal, _fuzz_multi, _fuzz_even_qubit), strict=True))


def fuzz_theorem_checks(theorem: str, trials: int, seed: int = 0) -> FuzzSummary:
    """Drive one detection suite over freshly scrambled random instances.

    Every instance is structured by construction, so the expected pass rate
    is 100%; anything else is reported with its first counterexample rather
    than raised. Deterministic for a fixed seed.
    """
    if theorem not in _FUZZ_RUNNERS:
        raise ValueError(f"unknown suite {theorem!r}; choose one of {FUZZ_SUITES}")
    if not mx._is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    make_rng(seed)  # a non-integer seed is refused before any trial
    runner = _FUZZ_RUNNERS[theorem]
    failures, first = [], (None, None)
    for trial in range(trials):
        u, dims, problem = runner(trial, seed * 1_000_003 + trial)
        if problem is not None:
            first = first if failures else (u, tuple(dims))
            failures.append(f"trial {trial}: {problem}")
    return FuzzSummary(theorem, trials, tuple(failures), *first, seed)
