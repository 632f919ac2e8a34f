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

from . import algebra, gates
from . import matrices as mx
from .matrices import SystemLayout
from .randomness import make_rng
from .schmidt import _expansion

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
    ``blocks`` is one ``(d_c, d_t, d_t)`` array (a sequence of ``d_c``
    blocks is accepted too). ``operator``, ``residual`` and ``apply`` share
    one expansion of the factors ``(q, r, blocks)``; ``residual`` holds one
    full-size array and ``apply`` none.
    """

    side: tuple
    q: np.ndarray
    r: np.ndarray
    blocks: np.ndarray
    grouped_dims: tuple

    def _slab(self) -> np.ndarray:
        """``slab[a, b] = sum_k q[a, k] r[k, b] V_k``: one ``(d_c^2, d_c) @ (d_c, d_t^2)`` matmul."""
        d_c, d_t = self.grouped_dims
        weights = (self.q[:, None, :] * self.r.T).reshape(d_c * d_c, d_c)
        return (weights @ np.reshape(self.blocks, (d_c, d_t * d_t))).reshape(d_c, d_c, d_t, d_t)

    def operator(self) -> np.ndarray:
        d_c, d_t = self.grouped_dims
        return self._slab().transpose(0, 2, 1, 3).reshape(d_c * d_t, d_c * d_t)

    def residual(self, grouped) -> float:
        """``||operator() - grouped||_F``, subtracted in place from the one slab."""
        d_c, d_t = self.grouped_dims
        slab = self._slab()
        slab -= np.reshape(grouped, (d_c, d_t, d_c, d_t)).transpose(0, 2, 1, 3)
        return mx.frobenius_norm(slab)

    def apply(self, psi) -> np.ndarray:
        """``operator() @ psi`` as ``q (V_k (r Psi)_k)``, with Psi the ``(d_c, d_t)`` view of psi."""
        d_c, d_t = self.grouped_dims
        rotated = (self.r @ np.reshape(psi, (d_c, d_t)))[:, :, None]
        return (self.q @ (np.reshape(self.blocks, (d_c, d_t, d_t)) @ rotated)[:, :, 0]).reshape(-1)


@dataclass(frozen=True)
class ControlVerdict:
    """Outcome of one controlled-structure decision.

    From ``is_controlled``, ``controlled`` holds exactly when ``form`` is
    present; the verdicts of a ``MultipartiteControlReport`` carry no form,
    the report's ``witness`` being the one it keeps. A refutation or a
    near-miss carries ``failed_check``, with ``violation`` giving the worst
    relative check value either way.
    """

    controlled: bool
    form: ControlledForm | None
    failed_check: str | None
    inconclusive: bool = False
    violation: float | None = None
    schmidt_rank: int = 0


@dataclass(frozen=True)
class BcuVerdict:
    """Outcome of the invariant-block-split decision for one side.

    The projector pairs (P_k, Q_k) are present exactly when ``bcu`` holds.
    """

    bcu: bool
    side: tuple
    input_projectors: tuple | None
    output_projectors: tuple | None
    failed_check: str | None
    inconclusive: bool = False
    violation: float | None = None


@dataclass
class MultipartiteControlReport:
    """Per-singleton and per-pair verdicts, without forms, and the first positive subset's form."""

    layout: SystemLayout
    singles: dict
    pairs: dict
    witness_subset: tuple | None
    witness: ControlledForm | None
    low_rank_subsets: tuple

    @property
    def controlled_subsets(self) -> tuple:
        ordered = list(self.singles.items()) + list(self.pairs.items())
        return tuple(subset for subset, verdict in ordered if verdict.controlled)


@dataclass(frozen=True)
class FuzzSummary:
    """Randomized-suite outcome; any failure keeps its first counterexample."""

    suite: str
    trials: int
    passes: int
    failures: tuple
    first_counterexample: np.ndarray | None
    first_counterexample_dims: tuple | None
    seed: int

    @property
    def ok(self) -> bool:
        return self.passes == self.trials


def _control_cut(u, layout, side):
    """Group a unitary's ``side`` to the front and keep its significant factors.

    Returns ``(side, grouped, (d_c, d_t), kept coefficients, factors)``, the factors
    as one ``(n, d_c, d_c)`` stack. ``u`` and ``layout`` come from ``_checked``.
    """
    side, _, grouped, dims = mx.cut_frame(u, layout, side)
    coefficients, lefts, _ = _expansion(mx._realigned(grouped, dims), dims)
    factors = lefts[coefficients > SIGNIFICANT_FLOOR * coefficients[0]]
    return side, grouped, dims, coefficients, factors


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

    The candidate control systems are grouped to the front and the operator is
    Schmidt-decomposed across that cut. With more significant factors than
    control levels, a coefficient tail past ``d_c`` above the band refutes at
    once: it bounds the relative distance to every controlled unitary
    (Eckart-Young). Otherwise the control-side factors are fed to the
    simultaneous singular value decomposition. Its witness pair fixes
    the bases; the target blocks are then read directly off the rotated
    operator, so rank-deficient factor spans still fill in correctly. The
    assembled form is verified against the input before any positive verdict.
    A ``tol`` that is not a finite number in (0, 1) raises ValueError.
    """
    u, layout, norm_u = _checked(u, layout, tol, "detection input")
    return _decide_control(_control_cut(u, layout, side), norm_u, tol)


def _decide_control(cut, norm_u, tol) -> ControlVerdict:
    """The verdict of ``is_controlled`` on a cut from ``_control_cut`` of a ``u`` of norm ``norm_u``."""
    side, grouped, (d_c, d_t), coefficients, factors = cut
    # a controlled unitary's realignment has rank at most d_c, so by Eckart-Young every one lies
    # at least this far from u; the mass left out of the kept coefficients makes it a lower bound
    distance = float(np.linalg.norm(coefficients[d_c:])) / norm_u
    if len(factors) > d_c and distance > max(tol, NEAR_MISS_CEILING):
        result = algebra._failure(f"Schmidt rank exceeds the control dimension (distance {distance:.3e})", distance)
    else:
        result = algebra.simultaneous_svd(factors, tol=tol)
    form = None
    if result.ok:
        s, t = result.s, result.t
        rotated = mx.control_sandwich(grouped, (d_c, d_t), s, t).reshape(d_c, d_t, d_c, d_t)
        diagonal = np.arange(d_c)
        blocks = rotated[diagonal, :, diagonal, :]
        deviations = mx.unitarity_residuals(blocks)
        checks = [(f"target block {k} is not unitary", float(x)) for k, x in enumerate(deviations)]
        form = ControlledForm(
            side=side, q=s.conj().T, r=t.conj().T, blocks=blocks, grouped_dims=(d_c, d_t)
        )
        residual = form.residual(grouped) / norm_u
        checks.append(("assembled form does not reconstruct the input", residual))
        name, violation = max(checks, key=lambda item: item[1])
        description = f"{name} (violation {violation:.3e})"
    else:
        violation, description = result.violation, result.failed_check
    passed, failed_check, inconclusive = _band(violation, description, tol, form is not None)
    return ControlVerdict(
        controlled=passed,
        form=form if passed else None,
        failed_check=failed_check,
        inconclusive=inconclusive,
        violation=violation,
        schmidt_rank=len(coefficients),
    )


def _split_attempt(grouped, dims, projectors, norm_u):
    """Output partners Q = Tr_t[U (P x I) U^dagger] / d_t and the worst check.

    The checks are Q^2 = Q and U (P x I) = (Q x I) U (P x I), relative, per P.
    """
    d_c, d_t = dims
    outs = []
    worst = 0.0
    for p in projectors:
        moved = mx.control_sandwich(grouped, dims, right=p)
        # the control-side partial trace of moved moved^dagger, one d_c x d_c product
        rows = moved.reshape(d_c, -1)
        partner = rows @ rows.conj().T / d_t
        outs.append(partner)
        idempotency = mx.frobenius_norm(partner @ partner - partner) / max(
            1.0, mx.frobenius_norm(partner)
        )
        capture = mx.frobenius_norm(mx.control_sandwich(moved, dims, left=partner) - moved) / max(
            mx.frobenius_norm(moved), 1e-300 * norm_u
        )
        worst = max(worst, idempotency, capture)
    return tuple(outs), worst


def is_bcu(u, layout, side, tol: float = VERDICT_RTOL) -> BcuVerdict:
    """Decide whether ``u`` splits into invariant blocks along ``side``.

    A nontrivial commutant of the input products M_i^dagger M_j of the
    control-side Schmidt factors gives projectors P_k; their partners Q_k come
    from the operator and must capture every block. (For a unitary the output
    products split exactly when these do.) Whether a split exists is a rank
    decision; the tolerance band applies to how well the blocks capture u
    (``tol`` as in ``is_controlled``). Only the input products are formed.
    """
    u, layout, norm_u = _checked(u, layout, tol, "detection input")
    side, grouped, dims, _, factors = _control_cut(u, layout, side)

    projectors = algebra.commutant_blocks(algebra._input_products(factors))
    if projectors is None:
        return BcuVerdict(
            bcu=False,
            side=side,
            input_projectors=None,
            output_projectors=None,
            failed_check="factor products act irreducibly: no invariant split exists",
        )

    outs, worst = _split_attempt(grouped, dims, projectors, norm_u)
    passed, failed_check, inconclusive = _band(
        worst, f"input-commutant split does not capture the blocks (violation {worst:.3e})", tol
    )
    return BcuVerdict(
        bcu=passed,
        side=side,
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
    """
    layout = SystemLayout.of(layout)
    if len(layout) < 3:
        raise ValueError(f"multipartite analysis needs at least 3 systems, got {len(layout)}")
    u, layout, norm_u = _checked(u, layout, tol, "analysis input")

    singles = {}
    pairs = {}
    low_rank = []
    witness_subset = None
    witness = None
    subsets = [(i,) for i in range(len(layout))] + list(combinations(range(len(layout)), 2))
    for subset in subsets:
        verdict = _decide_control(_control_cut(u, layout, subset), norm_u, tol)
        if verdict.controlled and witness_subset is None:
            witness_subset = subset
            witness = verdict.form
        # one form per controlled subset would outgrow the gate itself near the cap
        (singles if len(subset) == 1 else pairs)[subset] = replace(verdict, form=None)
        if verdict.schmidt_rank <= 2:
            low_rank.append(subset)
    return MultipartiteControlReport(
        layout=layout,
        singles=singles,
        pairs=pairs,
        witness_subset=witness_subset,
        witness=witness,
        low_rank_subsets=tuple(low_rank),
    )


# ------------------------------------------------------------- fuzz suites


def _criteria_agree(factors, verdict) -> str | None:
    """Cross-check: the product-family test and the witness must agree."""
    left, right = algebra.product_families(factors)
    clean = all(algebra.family_obstruction(f) <= algebra.COMMUTE_RTOL for f in (left, right))
    if clean != verdict.controlled:
        return (
            f"product-family criterion ({clean}) disagrees with "
            f"the witness verdict ({verdict.controlled})"
        )
    return None


def _fuzz_sch3(trial, trial_seed):
    d_a, d_b = [(3, 3), (3, 4), (4, 5)][trial % 3]
    u, layout = gates.random_controlled_unitary(d_a, d_b, 3, seed=trial_seed)
    cut = _control_cut(u, layout, (0,))
    verdict = _decide_control(cut, mx.frobenius_norm(u), VERDICT_RTOL)
    if not verdict.controlled:
        return u, layout.dims, f"rank-3 instance not detected: {verdict.failed_check}"
    disagreement = _criteria_agree(cut[-1], verdict)
    if disagreement:
        return u, layout.dims, disagreement
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


_FUZZ_RUNNERS = {
    "sch3": _fuzz_sch3,
    "sch2-diagonal": _fuzz_sch2_diagonal,
    "multi": _fuzz_multi,
    "even-qubit": _fuzz_even_qubit,
}
FUZZ_SUITES = tuple(_FUZZ_RUNNERS)


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
    runner = _FUZZ_RUNNERS[theorem]
    passes = 0
    failures = []
    first = None
    first_dims = None
    for trial in range(trials):
        u, dims, problem = runner(trial, seed * 1_000_003 + trial)
        if problem is None:
            passes += 1
        else:
            failures.append(f"trial {trial}: {problem}")
            if first is None:
                first = u
                first_dims = tuple(dims)
    return FuzzSummary(
        suite=theorem,
        trials=trials,
        passes=passes,
        failures=tuple(failures),
        first_counterexample=first,
        first_counterexample_dims=first_dims,
        seed=seed,
    )
