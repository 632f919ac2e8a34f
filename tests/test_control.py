"""Controlled-unitary and block-split detection.

Positive oracles are gates whose controlled structure is known by
construction (CNOT, padded products, the random controlled family);
negative oracles are SWAP and the odd-qubit family, whose Schmidt ranks
exceed every single-system control dimension, and gates whose factor algebras
obstruct every would-be control basis. Detection must recover both through
local scrambling, and perturbations too small to refute must come back
inconclusive rather than negative.
"""

import numpy as np
import pytest
import scipy.linalg

from schmidt_lab import control, gates, schmidt
from schmidt_lab import factorizations as fx
from schmidt_lab import matrices as mx
from schmidt_lab.control import (
    fuzz_theorem_checks,
    is_bcu,
    is_controlled,
    multipartite_control_analysis,
)
from schmidt_lab.errors import DimensionError
from schmidt_lab.randomness import (
    haar_unitary,
    make_rng,
    random_complex_gaussian,
    random_hermitian,
    random_state,
)

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def _phase_matched(candidate, target, tol=1e-8):
    """candidate equals target up to one global phase."""
    overlap = np.trace(target.conj().T @ candidate) / target.shape[0]
    if abs(abs(overlap) - 1.0) > tol:
        return False
    phase = overlap / abs(overlap)
    return mx.frobenius_norm(candidate - phase * target) <= tol * target.shape[0]


def _assert_sound_form(form, u, layout, side, tol=1e-8):
    grouped, (d_c, d_t) = mx.group_systems(u, layout, side)
    assert form.grouped_dims == (d_c, d_t)
    assert mx.frobenius_norm(form.operator() - grouped) <= tol * mx.frobenius_norm(u)
    eye_c = np.eye(d_c)
    eye_t = np.eye(d_t)
    assert mx.frobenius_norm(form.q.conj().T @ form.q - eye_c) <= tol * d_c
    assert mx.frobenius_norm(form.r.conj().T @ form.r - eye_c) <= tol * d_c
    assert len(form.blocks) == d_c
    for v in form.blocks:
        assert mx.frobenius_norm(v.conj().T @ v - eye_t) <= tol * d_t


# ------------------------------------------------------------- ControlledForm

FORM_DIMS = (2, 3, 5, 8, 16)


def _kron_loop_operator(form):
    """Reference sum_k (q e_k e_k^T r) (x) V_k, one dense kron per block."""
    return sum(
        np.kron(np.outer(form.q[:, k], form.r[k, :]), block) for k, block in enumerate(form.blocks)
    )


def _factor_form(d_c, d_t, r, seed):
    """A form shaped like a random-controlled witness: Haar q and r, r distinct blocks repeating."""
    rng = make_rng(seed, stream=40)
    q, rot = haar_unitary(d_c, rng), haar_unitary(d_c, rng)
    distinct = [haar_unitary(d_t, rng) for _ in range(r)]
    blocks = tuple(distinct[k % r] for k in range(d_c))
    return control.ControlledForm(side=(0,), q=q, r=rot, blocks=blocks, grouped_dims=(d_c, d_t))


def _forms(d_c, d_t):
    return [
        _factor_form(d_c, d_t, r, seed) for r in range(1, min(3, d_c) + 1) for seed in range(6)
    ]


@pytest.mark.parametrize("d_c", FORM_DIMS)
@pytest.mark.parametrize("d_t", FORM_DIMS)
def test_operator_matches_the_kron_loop(d_c, d_t):
    for form in _forms(d_c, d_t):
        reference = _kron_loop_operator(form)
        error = mx.frobenius_norm(form.operator() - reference)
        assert error <= 1e-14 * mx.frobenius_norm(reference)


@pytest.mark.parametrize("d_c", FORM_DIMS)
@pytest.mark.parametrize("d_t", FORM_DIMS)
def test_apply_matches_the_assembled_operator(d_c, d_t):
    for seed, form in enumerate(_forms(d_c, d_t)):
        psi = random_state(d_c * d_t, make_rng(seed, stream=41))
        assert mx.frobenius_norm(form.apply(psi) - form.operator() @ psi) <= 1e-14


@pytest.mark.parametrize("d_c", FORM_DIMS)
@pytest.mark.parametrize("d_t", FORM_DIMS)
def test_residual_matches_the_dense_formula(d_c, d_t):
    # another form and a 1e-3 perturbation keep the residual far above roundoff
    forms = _forms(d_c, d_t)
    for seed, form in enumerate(forms):
        operator = form.operator()
        noise = random_complex_gaussian(operator.shape, make_rng(seed, stream=42))
        for grouped in (forms[seed - 1].operator(), operator + 1e-3 * noise):
            dense = mx.frobenius_norm(operator - grouped)
            assert abs(form.residual(grouped) - dense) <= 1e-12 * dense


@pytest.mark.parametrize("d_c, d_t, r, seed", [(2, 3, 2, 0), (3, 5, 3, 1), (5, 2, 3, 2), (8, 3, 3, 3)])
def test_witness_residual_matches_the_dense_formula(d_c, d_t, r, seed):
    # on a detector's own witness the residual is roundoff; compare it on the input's scale
    u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
    verdict = is_controlled(u, layout, (0,))
    grouped, _ = mx.group_systems(u, layout, (0,))
    dense = mx.frobenius_norm(verdict.form.operator() - grouped)
    assert abs(verdict.form.residual(grouped) - dense) <= 1e-12 * mx.frobenius_norm(grouped)


# ------------------------------------------------------------- is_controlled


def test_cnot_controlled_with_identity_and_flip_blocks():
    verdict = is_controlled(CNOT, (2, 2), (0,))
    assert verdict.controlled
    assert verdict.failed_check is None
    assert not verdict.inconclusive
    assert verdict.schmidt_rank == 2
    assert verdict.violation <= 1e-8
    _assert_sound_form(verdict.form, CNOT, (2, 2), (0,))
    # the two target blocks are identity and flip, each up to a phase
    matches = sorted(
        [
            int(_phase_matched(b, I2)) * 1 + int(_phase_matched(b, X)) * 2
            for b in verdict.form.blocks
        ]
    )
    assert matches == [1, 2]


def test_cnot_controlled_from_target_side_too():
    # the flip side carries the commuting family {I, X}, so control works
    # from there as well, just in a rotated basis
    verdict = is_controlled(CNOT, (2, 2), (1,))
    assert verdict.controlled
    _assert_sound_form(verdict.form, CNOT, (2, 2), (1,))


def test_swap_not_controlled_from_either_side():
    # SWAP has four Schmidt coefficients of 1 and norm 2, so two of them lie
    # past either qubit's control dimension: distance sqrt(2) / 2
    swap, layout = gates.swap_gate()
    for side in ((0,), (1,)):
        verdict = is_controlled(swap, layout, side)
        assert not verdict.controlled
        assert verdict.form is None
        assert verdict.failed_check == "Schmidt rank exceeds the control dimension (distance 7.071e-01)"
        assert not verdict.inconclusive
        assert verdict.violation == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_scrambled_swap_still_not_controlled():
    swap, layout = gates.swap_gate()
    dressed = gates.random_local_scramble(swap, layout, seed=5)
    for side in ((0,), (1,)):
        assert not is_controlled(dressed, layout, side).controlled


def test_three_qubit_gate_has_no_single_control():
    # three equal coefficients across every single-qubit cut: one of them lies
    # past the two control levels, distance 1 / sqrt(3)
    u, layout = gates.u3()
    for i in range(3):
        verdict = is_controlled(u, layout, (i,))
        assert not verdict.controlled
        assert verdict.failed_check == "Schmidt rank exceeds the control dimension (distance 5.774e-01)"
        assert verdict.violation == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_three_qubit_gate_controlled_by_every_pair():
    u, layout = gates.u3()
    for side in ((0, 1), (0, 2), (1, 2)):
        verdict = is_controlled(u, layout, side)
        assert verdict.controlled
        assert verdict.schmidt_rank == 3
        _assert_sound_form(verdict.form, u, layout, side)


def test_product_unitary_is_controlled_trivially():
    a = gates.random_unitary(2, seed=31)[0]
    b = gates.random_unitary(4, seed=32)[0]
    u = np.kron(a, b)
    verdict = is_controlled(u, (2, 4), (0,))
    assert verdict.controlled
    assert verdict.schmidt_rank == 1
    _assert_sound_form(verdict.form, u, (2, 4), (0,))
    # every block is the same target unitary up to a phase
    assert _phase_matched(verdict.form.blocks[0], verdict.form.blocks[1])


def test_padded_three_qubit_gate_control_depends_on_the_pair():
    core, _ = gates.u3()
    u = np.kron(np.eye(4), core)
    dims = (2, 2, 2, 2, 2)
    # a pair straddling the padding and the active gate inherits the
    # anticommuting factor algebra of a single active qubit
    straddling = is_controlled(u, dims, (1, 2))
    assert not straddling.controlled
    assert "products" in straddling.failed_check
    # a pair inside the active gate controls it
    inside = is_controlled(u, dims, (3, 4))
    assert inside.controlled
    # the padding alone is a rank-one cut, controlled on dimension grounds
    padding = is_controlled(u, dims, (0, 1))
    assert padding.controlled
    assert padding.schmidt_rank == 1


def test_rank_two_instances_controlled_from_both_sides_and_jointly_diagonal():
    for trial, (d_a, d_b) in enumerate([(2, 2), (2, 3), (3, 3)]):
        u, layout = gates.random_controlled_unitary(d_a, d_b, 2, seed=210 + trial)
        left = is_controlled(u, layout, (0,))
        right = is_controlled(u, layout, (1,))
        assert left.controlled and right.controlled
        # composing the two one-sided witnesses must flatten the whole
        # operator to a diagonal matrix: the canonical rank-two form
        s_a = left.form.q.conj().T
        t_a = left.form.r.conj().T
        s_b = right.form.q.conj().T
        t_b = right.form.r.conj().T
        flat = np.kron(s_a, s_b) @ u @ np.kron(t_a, t_b)
        off = mx.frobenius_norm(flat - np.diag(np.diag(flat)))
        assert off <= 1e-8 * mx.frobenius_norm(u)


def test_tiny_global_perturbation_is_inconclusive_not_negative():
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=7)
    h = random_hermitian(9, make_rng(8))
    dressed = scipy.linalg.expm(1e-6j * h) @ u
    verdict = is_controlled(dressed, layout, (0,))
    assert not verdict.controlled
    assert verdict.inconclusive
    assert verdict.form is None
    assert "inconclusive" in verdict.failed_check
    assert 1e-8 < verdict.violation <= 1e-5


def test_a_check_within_tol_without_a_witness_is_a_near_miss():
    # a basis residual in (1e-8, tol] passes no verdict; with tol above the
    # near-miss ceiling it stays inconclusive up to tol
    assert control._band(1e-4, "x", 1e-3) == (True, None, False)
    assert control._band(1e-4, "x", 1e-3, witnessed=False) == (False, "inconclusive: x", True)
    assert control._band(1e-6, "x", 1e-8, witnessed=False) == (False, "inconclusive: x", True)
    assert control._band(1e-2, "x", 1e-3, witnessed=False) == (False, "x", False)


def _band(verdict):
    return 0 if verdict.controlled else 1 if verdict.inconclusive else 2


def _ladder_bands(u, layout, h, tol, top=-4):
    bands = []
    for exponent in range(-12, top + 1):
        dressed = scipy.linalg.expm(1j * 10.0**exponent * h) @ u
        verdict = is_controlled(dressed, layout, (0,), tol=tol)
        assert verdict.violation is not None
        bands.append(_band(verdict))
    assert bands == sorted(bands)
    assert bands[0] == 0 and bands[-1] == 2
    return bands


def test_near_miss_ladder_bands_every_decade_monotonically():
    # eps 1e-9 and 1e-8 leave a Schmidt tail between the rank cutoff and the
    # reconstruction tolerance; the decomposition must truncate it, not raise
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=7)
    _ladder_bands(u, layout, random_hermitian(9, make_rng(8)), control.VERDICT_RTOL)


@pytest.mark.parametrize(
    "tol, d, rank, seed",
    [(1e-5, 3, 3, 7)]
    + [(tol, *grid) for tol in (1e-8, 1e-5) for grid in ((3, 2, 4), (3, 3, 0), (4, 3, 3), (4, 2, 5))],
)
def test_near_miss_ladder_bands_every_decade_at_each_tol(tol, d, rank, seed):
    # near misses that pass the product-family checks but whose bases do not
    # verify come back inconclusive with the basis residual, never raise; the
    # test above is the (1e-8, 3, 3, 7) case
    u, layout = gates.random_controlled_unitary(d, d, rank, seed=seed)
    h = random_hermitian(d * d, make_rng(8 if seed == 7 else 100 + seed))
    bands = _ladder_bands(u, layout, h, tol)
    assert 1 in bands


@pytest.mark.parametrize("tol", [1e-8, 1e-5])
def test_near_miss_ladder_on_the_sketch_path_matches_the_dense_svd(monkeypatch, tol):
    # an 8x8 cut realigns to 64x64, which the leading SVD sketches; the
    # ladder must band exactly as with the dense SVD of every realignment.
    # At this size eps 1e-4 is still a near miss, so the ladder runs to 1e-3.
    u, layout = gates.random_controlled_unitary(8, 8, 3, seed=1)
    h = random_hermitian(64, make_rng(101))
    tiny = scipy.linalg.expm(1e-12j * h) @ u
    assert len(schmidt.schmidt_rank(tiny, layout, (0,)).singular_values) < 64
    sketched = _ladder_bands(u, layout, h, tol, top=-3)
    monkeypatch.setattr(schmidt, "leading_svd", lambda m, rtol: (*fx.svd(m), 0.0))
    assert len(schmidt.schmidt_rank(tiny, layout, (0,)).singular_values) == 64
    assert _ladder_bands(u, layout, h, tol, top=-3) == sketched
    assert 1 in sketched


def test_witness_checks_are_banded_against_tol():
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=33)
    dressed = scipy.linalg.expm(1e-10j * random_hermitian(9, make_rng(7))) @ u
    for tol in (3e-11, 1e-10, control.VERDICT_RTOL):
        verdict = is_controlled(dressed, layout, (0,), tol=tol)
        assert verdict.controlled == (verdict.violation <= tol)
    tight = is_controlled(dressed, layout, (0,), tol=3e-11)
    assert tight.inconclusive and tight.form is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_miss_names_the_reconstruction_residual(seed):
    # the off-diagonal mass of the rotated operator equals the reconstruction
    # residual for unitary bases, so only the residual is checked, and named
    u, layout = gates.random_controlled_unitary(4, 4, 2, seed=seed)
    dressed = scipy.linalg.expm(1e-7j * random_hermitian(16, make_rng(8))) @ u
    verdict = is_controlled(dressed, layout, (0,))
    assert verdict.inconclusive and not verdict.controlled
    assert verdict.failed_check.startswith("inconclusive: assembled form does not reconstruct the input")


# ------------------------------------------------------ distance refutation

DISTANCE_CHECK = "Schmidt rank exceeds the control dimension"


def _never_reached(*args, **kwargs):
    raise AssertionError("simultaneous_svd called")


@pytest.mark.parametrize("d", range(2, 17))
def test_haar_cuts_are_refuted_by_their_distance_before_any_product_family(d, monkeypatch):
    # every controlled unitary's realignment has rank at most d_c, so by
    # Eckart-Young it lies at least ||s[d_c:]|| / ||u|| from u
    monkeypatch.setattr(control.algebra, "simultaneous_svd", _never_reached)
    u = haar_unitary(d * d, make_rng(d))
    for side in ((0,), (1,)):
        realigned = mx.realign(*mx.group_systems(u, (d, d), side))
        s = np.linalg.svd(realigned, compute_uv=False)
        verdict = is_controlled(u, (d, d), side)
        assert not verdict.controlled and not verdict.inconclusive
        assert verdict.failed_check.startswith(DISTANCE_CHECK)
        assert abs(verdict.violation - np.linalg.norm(s[d:]) / np.linalg.norm(u)) <= 1e-12
        assert verdict.schmidt_rank == d * d


def test_a_tail_past_the_ceiling_with_few_significant_factors_runs_the_product_route():
    # two factors clear SIGNIFICANT_FLOOR, so the product families form and
    # the near miss stays inconclusive, although the tail past the six
    # control levels (1.24e-5 relative) is above the ceiling
    u, layout = gates.random_controlled_unitary(6, 6, 2, seed=0)
    dressed = scipy.linalg.expm(1e-4j * random_hermitian(36, make_rng(8))) @ u
    *_, coefficients, factors = control._control_cut(dressed, layout, (0,))
    assert len(factors) == 2
    assert np.linalg.norm(coefficients[6:]) / mx.frobenius_norm(dressed) == pytest.approx(1.24e-5, rel=1e-2)
    verdict = is_controlled(dressed, layout, (0,))
    assert verdict.inconclusive
    assert verdict.failed_check.startswith("inconclusive: left basis is not a joint eigenbasis")


@pytest.mark.parametrize("d_c, d_t", [(3, 3), (3, 4), (4, 4), (4, 5)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_the_distance_refutes_only_where_the_product_route_refutes(d_c, d_t, rank):
    # the route the rule skips is replayed on the same cut with its tail cut
    # off, which leaves nothing past d_c: wherever the rule fires, that route
    # refutes too, above the ceiling
    u, layout = gates.random_controlled_unitary(d_c, d_t, rank, seed=rank)
    h = random_hermitian(d_c * d_t, make_rng(100 + rank))
    norm_u = mx.frobenius_norm(u)
    fired = 0
    for eps in (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        dressed = scipy.linalg.expm(1j * eps * h) @ u
        for side, d_side in (((0,), d_c), ((1,), d_t)):
            *frame, coefficients, factors = control._control_cut(dressed, layout, side)
            verdict = control._decide_control((*frame, coefficients, factors), norm_u, control.VERDICT_RTOL)
            if not (verdict.failed_check or "").startswith(DISTANCE_CHECK):
                continue
            fired += 1
            skipped = control._decide_control(
                (*frame, coefficients[:d_side], factors), norm_u, control.VERDICT_RTOL
            )
            assert not skipped.controlled and not skipped.inconclusive
            assert skipped.violation > control.NEAR_MISS_CEILING
    assert fired


def test_clean_instance_is_not_inconclusive():
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=7)
    verdict = is_controlled(u, layout, (0,))
    assert verdict.controlled
    assert not verdict.inconclusive


def test_is_controlled_rejects_bad_arguments():
    with pytest.raises(ValueError):
        is_controlled(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2), (0,))
    with pytest.raises(ValueError):
        is_controlled(CNOT, (2, 2), ())
    with pytest.raises(ValueError):
        is_controlled(CNOT, (2, 2), (0, 1))
    with pytest.raises(ValueError):
        is_controlled(CNOT, (2, 2), (3,))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8, 1.0, 2.0])
def test_detectors_refuse_a_tol_outside_the_open_unit_interval(tol):
    # a nan or zero tol would band a clean gate inconclusive; 2 would pass anything
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=1)
    for detector in (is_controlled, is_bcu):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            detector(u, layout, (0,), tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number"):
        multipartite_control_analysis(*gates.u3(), tol=tol)
    assert is_controlled(u, layout, (0,), tol=1e-5).controlled


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return counts


def test_each_cut_is_grouped_once_and_its_input_checked_once(monkeypatch):
    # the unitarity check reads the entries once; every cut is grouped once
    # and its realignment and factors are passed down, not checked again
    u3, layout3 = gates.u3()
    u, layout = gates.random_controlled_unitary(4, 4, 3, seed=1)
    counts = _count_calls(monkeypatch, mx, ("group_systems", "as_operator"))
    multipartite_control_analysis(u3, layout3)
    assert counts == {"group_systems": 6, "as_operator": 1}
    counts.update(dict.fromkeys(counts, 0))
    assert is_controlled(u, layout, (0,)).controlled
    assert counts == {"group_systems": 1, "as_operator": 1}


def test_product_families_over_the_cap_are_refused_before_allocating(monkeypatch):
    # a full-rank 4x4 cut has 16 factors of side 4: 16 * 4 > 16. is_controlled
    # refutes that cut by its distance first, so it is given an 8x2 cut: 4
    # factors of side 8, no more than the 8 control levels, and 4 * 8 > 16
    monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
    haar = haar_unitary(16, make_rng(5))
    with pytest.raises(DimensionError, match="product families of 2048 entries"):
        is_controlled(haar, (8, 2), (0,))
    with pytest.raises(DimensionError, match="product families"):
        is_bcu(haar, (4, 4), (0,))
    u, layout = gates.random_controlled_unitary(4, 4, 3, seed=5)
    assert is_controlled(u, layout, (0,)).controlled


# --------------------------------------------------------------------- is_bcu


def test_cnot_is_bcu_with_two_one_dimensional_blocks():
    verdict = is_bcu(CNOT, (2, 2), (0,))
    assert verdict.bcu
    assert verdict.failed_check is None
    assert len(verdict.input_projectors) == 2
    assert len(verdict.output_projectors) == 2
    total_in = sum(verdict.input_projectors)
    assert np.allclose(total_in, np.eye(2), atol=1e-8)
    for p, q in zip(verdict.input_projectors, verdict.output_projectors):
        lifted = CNOT @ np.kron(p, I2)
        assert mx.frobenius_norm(np.kron(q, I2) @ lifted - lifted) <= 1e-8 * 2.0


def test_identity_is_bcu_under_any_split():
    verdict = is_bcu(np.eye(4), (2, 2), (0,))
    assert verdict.bcu


def test_swap_is_not_bcu_from_either_side():
    swap, layout = gates.swap_gate()
    for side in ((0,), (1,)):
        verdict = is_bcu(swap, layout, side)
        assert not verdict.bcu
        assert verdict.input_projectors is None
        assert verdict.output_projectors is None
        assert verdict.failed_check is not None


def test_direct_sum_of_swaps_is_bcu_but_not_controlled():
    swap, small = gates.swap_gate()
    dressed = gates.random_local_scramble(swap, small, seed=61)
    u = np.zeros((8, 8), dtype=complex)
    u[:4, :4] = swap
    u[4:, 4:] = dressed
    layout = (4, 2)

    bcu = is_bcu(u, layout, (0,))
    assert bcu.bcu
    assert len(bcu.input_projectors) >= 2
    # the two halves are locally equivalent copies, so more than one valid
    # split exists; whichever came back must be a genuine one
    total = sum(bcu.input_projectors)
    assert np.allclose(total, np.eye(4), atol=1e-8)
    for p, q in zip(bcu.input_projectors, bcu.output_projectors):
        assert mx.frobenius_norm(p @ p - p) <= 1e-8
        assert mx.frobenius_norm(q @ q - q) <= 1e-8
        lifted = u @ np.kron(p, I2)
        assert mx.frobenius_norm(np.kron(q, I2) @ lifted - lifted) <= 1e-7

    # each half is a SWAP, so no basis of the four-level side can control
    assert not is_controlled(u, layout, (0,)).controlled
    # and the two-level side has no block split at all
    assert not is_bcu(u, layout, (1,)).bcu


def test_haar_four_by_four_is_refuted_not_inconclusive():
    # 256 factor products: the commutant system has 8192 rows of 16 unknowns
    u = haar_unitary(16, make_rng(3))
    verdict = is_bcu(u, (4, 4), (0,))
    assert not verdict.bcu
    assert not verdict.inconclusive
    assert "irreducibly" in verdict.failed_check


@pytest.mark.parametrize("d, r, seed", [(4, 2, 1), (4, 2, 2), (8, 3, 2)])
def test_controlled_gates_pass_the_input_commutant_split(d, r, seed):
    # the split captures these at roundoff level (about 1e-15)
    u, layout = gates.random_controlled_unitary(d, d, r, seed=seed)
    verdict = is_bcu(u, layout, (0,))
    assert verdict.bcu
    assert verdict.violation <= control.VERDICT_RTOL


def test_is_bcu_solves_one_commutant(monkeypatch):
    # an irreducible input family decides alone: no second family is tried
    calls = []
    solve = control.algebra.commutant_blocks

    def spy(generators):
        calls.append(len(generators))
        return solve(generators)

    monkeypatch.setattr(control.algebra, "commutant_blocks", spy)
    verdict = is_bcu(haar_unitary(9, make_rng(0)), (3, 3), (0,))
    assert not verdict.bcu
    assert len(calls) == 1


def test_is_bcu_forms_only_the_input_products(monkeypatch):
    # the output products M_i M_j^dagger serve no decision of is_bcu
    u, layout = gates.random_controlled_unitary(4, 4, 3, seed=2)
    factors = control._control_cut(u, layout, (0,))[-1]
    _, want = control.algebra.product_families(factors)
    seen = []
    solve = control.algebra.commutant_blocks

    def spy(generators):
        seen.append(generators)
        return solve(generators)

    def refuse(family):
        raise AssertionError("is_bcu formed both product families")

    monkeypatch.setattr(control.algebra, "commutant_blocks", spy)
    monkeypatch.setattr(control.algebra, "product_families", refuse)
    assert is_bcu(u, layout, (0,)).bcu
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()


def test_near_miss_split_is_scored_on_the_input_commutant():
    # both product families derive the same split here, with violations that
    # agree to about 1e-10 relative; the verdict must not turn on which is smaller
    u, layout = gates.random_controlled_unitary(4, 4, 2, seed=5)
    h = random_hermitian(16, make_rng(8))
    verdict = is_bcu(scipy.linalg.expm(1e-6j * h) @ u, layout, (0,), tol=1e-8)
    assert verdict.inconclusive
    assert "input-commutant" in verdict.failed_check
    assert verdict.input_projectors is None


@pytest.mark.parametrize("d_c, d_t, r, seed", [(3, 3, 3, 1), (4, 2, 2, 3), (4, 3, 3, 2)])
def test_split_partners_match_the_partial_trace(d_c, d_t, r, seed):
    # the partner of a projector is the control-side partial trace of
    # lifted lifted^dagger over d_t, formed as one d_c x d_c product
    u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
    rng = make_rng(seed)
    projectors = []
    for k in (1, d_c - 1):
        q = haar_unitary(d_c, rng)[:, :k]
        projectors.append(q @ q.conj().T)
    partners, _ = control._split_attempt(u, (d_c, d_t), projectors, 1.0)
    for p, partner in zip(projectors, partners):
        lifted = u @ np.kron(p, np.eye(d_t))
        reference = mx.partial_trace(lifted @ lifted.conj().T, (d_c, d_t), keep=(0,)) / d_t
        assert np.max(np.abs(partner - reference)) <= 1e-13


def test_is_bcu_rejects_bad_arguments():
    with pytest.raises(ValueError):
        is_bcu(np.ones((4, 4)), (2, 2), (0,))


# ------------------------------------------------------- multipartite report


def test_multipartite_report_on_three_qubit_gate():
    u, layout = gates.u3()
    report = multipartite_control_analysis(u, layout)
    assert all(not v.controlled for v in report.singles.values())
    assert all(v.controlled for v in report.pairs.values())
    assert report.witness_subset == (0, 1)
    assert report.witness is not None
    assert report.controlled_subsets == ((0, 1), (0, 2), (1, 2))
    assert report.low_rank_subsets == ()


def test_multipartite_report_on_scrambled_even_qubit_gate():
    base, layout = gates.even_qubit_rank3(4)
    u = gates.random_local_scramble(base, layout, seed=17)
    report = multipartite_control_analysis(u, layout)
    # the first qubit selects the block; pairs avoiding it also control,
    # in the maximally entangled basis of the pair (the gate is a sum of
    # I(x)IIII, Z(x)XXX, Z(x)ZZZ terms up to locals, and any two-qubit
    # slice of the tails is the commuting pair {XX, ZZ}); pairs that
    # include the first qubit inherit the anticommuting {ZX, ZZ} slice
    assert report.witness_subset == (0,)
    assert report.controlled_subsets == ((0,), (1, 2), (1, 3), (2, 3))
    assert all(not report.pairs[(0, i)].controlled for i in (1, 2, 3))
    assert report.singles[(0,)].schmidt_rank == 2
    assert (0,) in report.low_rank_subsets


@pytest.mark.parametrize("build, n", [(gates.even_qubit_rank3, 6), (gates.u_odd_n, 5)])
def test_multipartite_report_keeps_only_the_witness_form(build, n):
    u, layout = build(n)
    report = multipartite_control_analysis(u, layout)
    verdicts = {**report.singles, **report.pairs}
    assert all(v.form is None for v in verdicts.values())
    assert report.controlled_subsets == tuple(
        subset for subset in verdicts if is_controlled(u, layout, subset).controlled
    )
    witness = report.witness
    direct = is_controlled(u, layout, report.witness_subset).form
    assert (witness.side, witness.grouped_dims) == (direct.side, direct.grouped_dims)
    assert np.array_equal(witness.q, direct.q) and np.array_equal(witness.r, direct.r)
    assert np.array_equal(witness.blocks, direct.blocks)


def test_multipartite_report_checks_unitarity_once(monkeypatch):
    u, layout = gates.u3()
    calls = []
    check = mx.assert_unitary

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return check(*args, **kwargs)

    monkeypatch.setattr(mx, "assert_unitary", counted)
    multipartite_control_analysis(u, layout)
    assert calls == [("analysis input",)]


def test_multipartite_report_needs_three_systems():
    with pytest.raises(ValueError):
        multipartite_control_analysis(CNOT, (2, 2))


def test_local_equivalence_of_verdicts_over_200_trials():
    layouts = [(2, 2), (2, 3), (3, 3)]
    swap, small = gates.swap_gate()
    for t in range(100):
        d_a, d_b = layouts[t % 3]
        u, layout = gates.random_controlled_unitary(d_a, d_b, 2, seed=3000 + t)
        dressed = gates.random_local_scramble(u, layout, seed=9000 + t)
        assert is_controlled(u, layout, (0,)).controlled
        assert is_controlled(dressed, layout, (0,)).controlled
    for t in range(100):
        dressed = gates.random_local_scramble(swap, small, seed=40000 + t)
        assert not is_controlled(swap, small, (0,)).controlled
        assert not is_controlled(dressed, small, (0,)).controlled


# ----------------------------------------------------------------------- fuzz


def test_fuzz_rank3_suite_smoke():
    summary = fuzz_theorem_checks("sch3", trials=6, seed=11)
    assert summary.ok
    assert summary.passes == 6
    assert summary.failures == ()
    assert summary.first_counterexample is None


def test_fuzz_rank2_diagonal_suite_smoke():
    summary = fuzz_theorem_checks("sch2-diagonal", trials=6, seed=12)
    assert summary.ok
    assert summary.passes == 6


def test_fuzz_multi_suite_smoke():
    summary = fuzz_theorem_checks("multi", trials=4, seed=13)
    assert summary.ok
    assert summary.passes == 4


def test_fuzz_even_qubit_suite_smoke():
    summary = fuzz_theorem_checks("even-qubit", trials=4, seed=14)
    assert summary.ok
    assert summary.passes == 4


def test_fuzz_is_deterministic():
    first = fuzz_theorem_checks("sch3", trials=5, seed=21)
    second = fuzz_theorem_checks("sch3", trials=5, seed=21)
    assert first.passes == second.passes
    assert first.failures == second.failures


def test_fuzz_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fuzz_theorem_checks("unknown-suite", trials=3, seed=0)
    with pytest.raises(ValueError):
        fuzz_theorem_checks("sch3", trials=0, seed=0)
    for trials in (2.7, "3", True):
        # int() used to run 2.7 as 2 trials and "3" as 3
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            fuzz_theorem_checks("sch3", trials=trials, seed=0)
    assert fuzz_theorem_checks("sch3", trials=np.int64(2), seed=0).passes == 2
