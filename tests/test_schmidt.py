"""Operator Schmidt structure: decompositions, ranks, bounds, rank inequalities."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import schmidt_lab.factorizations as fx
import schmidt_lab.gates as gates
import schmidt_lab.matrices as mx
import schmidt_lab.schmidt as sch
from schmidt_lab.errors import DimensionError
from schmidt_lab.randomness import (
    haar_unitary,
    make_rng,
    random_complex_gaussian,
    random_hermitian,
)

SQ2 = math.sqrt(2.0)
# three equal terms, each of squared weight (d_A d_B)/3 = 8/3
U3_COEFF = 2.0 * math.sqrt(2.0 / 3.0)


def reconstruct_bipartite(dec):
    total = np.zeros(
        (dec.left_factors[0].shape[0] * dec.right_factors[0].shape[0],) * 2,
        dtype=complex,
    )
    for s, a, b in zip(dec.coefficients, dec.left_factors, dec.right_factors):
        total += s * np.kron(a, b)
    return total


@pytest.mark.parametrize("d_a, d_b, r, seed", [(3, 3, 3, 1), (4, 2, 2, 2), (5, 2, 3, 3)])
def test_grouped_operator_matches_the_kron_loop(d_a, d_b, r, seed):
    # grouped_operator unrealigns one matmul; the kron loop is the reference
    u, layout = gates.random_controlled_unitary(d_a, d_b, r, seed=seed)
    dec = sch.operator_schmidt_decompose(u, layout, (0,))
    assert np.max(np.abs(dec.grouped_operator() - reconstruct_bipartite(dec))) <= 1e-13
    haar = haar_unitary(d_a * d_b, make_rng(seed))
    dec = sch.operator_schmidt_decompose(haar, (d_a, d_b), (0,))
    assert np.max(np.abs(dec.grouped_operator() - reconstruct_bipartite(dec))) <= 1e-13


def loop_expansion(u, layout, cut):
    """The expansion one factor at a time: slice, rotate by the lead phase, collect, sort."""
    grouped, (d_a, d_b) = mx.group_systems(u, layout, cut)
    left, s, right_h, _ = fx.leading_svd(mx.realign(grouped, (d_a, d_b)), fx.RANK_RTOL)
    pairs = []
    for i in range(fx.numerical_rank(s, fx.RANK_RTOL)):
        a = left[:, i].reshape(d_a, d_a)
        v = a.reshape(-1)
        lead = v[np.abs(v) > 1e-12 * np.max(np.abs(v))][0]
        phase = lead / abs(lead)
        pairs.append((s[i], a * phase.conjugate(), right_h[i, :].reshape(d_b, d_b) * phase))
    pairs.sort(key=lambda p: (-round(p[0], 9), tuple(np.round(p[1].reshape(-1).view(float), 9))))
    return pairs


@pytest.mark.parametrize(
    "u, layout, cut",
    [
        (*gates.random_controlled_unitary(d, d, r, seed=d + r), (0,))
        for d, r in ((2, 1), (3, 3), (4, 2), (8, 3))
    ]
    + [(haar_unitary(d * d, make_rng(d)), (d, d), (0,)) for d in (2, 3, 5)]
    + [(*gates.u_odd_n(5), (1,)), (*gates.even_qubit_rank3(6), (0,)), (*gates.four_qubit_example(), (0, 2))],
)
def test_factors_are_stacks_equal_to_the_per_factor_loop(u, layout, cut):
    dec = sch.operator_schmidt_decompose(u, layout, cut)
    d_a = dec.left_factors.shape[1]
    assert dec.left_factors.shape == (dec.rank, d_a, d_a)
    assert dec.right_factors.shape == (dec.rank, u.shape[0] // d_a, u.shape[0] // d_a)
    pairs = loop_expansion(u, layout, cut)
    assert dec.coefficients.tobytes() == np.array([c for c, _, _ in pairs]).tobytes()
    assert dec.left_factors.tobytes() == np.array([a for _, a, _ in pairs]).tobytes()
    assert dec.right_factors.tobytes() == np.array([b for _, _, b in pairs]).tobytes()


def test_identity_is_a_product_operator():
    u = np.eye(4, dtype=complex)
    dec = sch.operator_schmidt_decompose(u, (2, 2), (0,))
    assert dec.rank == 1
    assert np.allclose(dec.coefficients, [2.0])
    a = dec.left_factors[0]
    # factor is proportional to the identity with unit Frobenius norm
    assert np.allclose(a, a[0, 0] * np.eye(2), atol=1e-12)
    assert abs(abs(a[0, 0]) - 1.0 / SQ2) < 1e-12


def test_swap_has_rank_four_with_unit_coefficients():
    u, layout = gates.swap_gate()
    dec = sch.operator_schmidt_decompose(u, layout, (0,))
    assert dec.rank == 4
    assert np.allclose(dec.coefficients, [1.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(reconstruct_bipartite(dec), u, atol=1e-10)


def test_cnot_coefficients():
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = u[2, 3] = u[3, 2] = 1.0
    dec = sch.operator_schmidt_decompose(u, (2, 2), (0,))
    assert dec.rank == 2
    assert np.allclose(dec.coefficients, [SQ2, SQ2], atol=1e-12)


def test_three_qubit_family_coefficients_and_ranks():
    u, layout = gates.u3()
    for cut in [(0,), (1,), (2,)]:
        dec = sch.operator_schmidt_decompose(u, layout, cut)
        assert dec.rank == 3
        assert np.allclose(dec.coefficients, [U3_COEFF] * 3, atol=1e-12)
        rep = sch.schmidt_rank(u, layout, cut)
        assert rep.rank == 3


def test_four_qubit_example_ranks():
    u, layout = gates.four_qubit_example()
    assert sch.schmidt_rank(u, layout, (0,)).rank == 4
    assert sch.schmidt_rank(u, layout, (1,)).rank == 4
    assert sch.schmidt_rank(u, layout, (0, 1)).rank == 2
    # the interleaved pair cut is maximally entangling: all 16 coefficients equal
    rep = sch.schmidt_rank(u, layout, (0, 2))
    assert rep.rank == 16
    assert np.allclose(rep.singular_values, 1.0, atol=1e-12)


def test_decomposition_invariants_on_random_unitaries():
    for trial, dims in enumerate([(2, 2), (2, 3), (3, 3), (2, 2, 3)]):
        total = math.prod(dims)
        u = haar_unitary(total, make_rng(90 + trial))
        cut = (0,)
        dec = sch.operator_schmidt_decompose(u, dims, cut)
        # sum of squared coefficients carries the full Frobenius weight
        assert abs(np.sum(dec.coefficients**2) - total) < 1e-9 * total
        # factors orthonormal on each side
        for factors in (dec.left_factors, dec.right_factors):
            g = np.array(
                [[np.vdot(x, y) for y in factors] for x in factors]
            )
            assert np.allclose(g, np.eye(dec.rank), atol=1e-10)
        assert np.allclose(dec.reconstruct(), u, atol=1e-10 * math.sqrt(total))


def test_reconstruct_restores_original_system_order():
    u, layout = gates.u3()
    dec = sch.operator_schmidt_decompose(u, layout, (1,))
    assert np.allclose(dec.reconstruct(), u, atol=1e-10)


def test_rank_is_local_unitary_invariant():
    rng = make_rng(7)
    u = haar_unitary(6, rng)
    base = sch.schmidt_rank(u, (2, 3), (0,)).rank
    for _ in range(200):
        wa, wb = haar_unitary(2, rng), haar_unitary(3, rng)
        xa, xb = haar_unitary(2, rng), haar_unitary(3, rng)
        moved = np.kron(wa, wb) @ u @ np.kron(xa, xb)
        assert sch.schmidt_rank(moved, (2, 3), (0,)).rank == base


def test_decomposition_is_deterministic_and_tie_ordered():
    u, layout = gates.swap_gate()
    d1 = sch.operator_schmidt_decompose(u, layout, (0,))
    d2 = sch.operator_schmidt_decompose(u, layout, (0,))
    for a, b in zip(d1.left_factors, d2.left_factors):
        assert a.tobytes() == b.tobytes()
    # every left factor leads with a real nonnegative significant entry
    for a in d1.left_factors:
        v = a.reshape(-1)
        lead = v[np.abs(v) > 1e-8][0]
        assert abs(lead.imag) < 1e-10 and lead.real > 0
    # equal coefficients are ordered by the vectorized left factor
    keys = [tuple(np.round(a.reshape(-1).view(float), 9)) for a in d1.left_factors]
    assert keys == sorted(keys)


def test_rank_report_tolerance_semantics():
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = u[2, 3] = u[3, 2] = 1.0
    rep = sch.schmidt_rank(u, (2, 2), (0,), tol=1e-6)
    assert rep.tolerance_used == pytest.approx(1e-6 * rep.singular_values[0])
    assert rep.rank == int(np.sum(rep.singular_values > rep.tolerance_used))
    assert list(rep.singular_values) == sorted(rep.singular_values, reverse=True)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 1.0, 2.0, float("inf")])
@pytest.mark.parametrize("call", [sch.schmidt_rank, sch.operator_schmidt_decompose])
def test_schmidt_layer_refuses_a_tol_outside_the_open_unit_interval(call, tol):
    # nan and 2 would count rank 0 for a unitary, 0 would count roundoff as rank
    u, layout = gates.random_controlled_unitary(3, 3, 3, seed=1)
    with pytest.raises(ValueError, match="tol must be a finite number in \\(0, 1\\)"):
        call(u, layout, (0,), tol=tol)
    assert call(u, layout, (0,), tol=1e-5).rank == 3


def test_a_cut_takes_its_one_spectrum_at_the_callers_tol(monkeypatch):
    # a sketched 64 x 64 realignment: its rank report and its expansion read one SVD, at the cut's tol
    u, layout = gates.random_controlled_unitary(8, 8, 3, seed=1)
    rtols = []

    def spy(m, rtol, _original=fx.leading_svd):
        rtols.append(rtol)
        return _original(m, rtol)

    monkeypatch.setattr(sch, "leading_svd", spy)
    cut = sch.Cut.of(u, layout, (0,), tol=1e-5)
    report, (coefficients, _, _) = cut.report, cut.expansion
    assert cut.report is report and cut.svd[3] > 0.0
    assert rtols == [1e-5]
    assert report.rank == len(coefficients) == 3
    assert report.tolerance_used == 1e-5 * report.singular_values[0]
    rtols.clear()
    # the public entry points read the same Cut, one SVD each
    assert sch.schmidt_rank(u, layout, (0,), tol=1e-5).singular_values.tobytes() == report.singular_values.tobytes()
    assert sch.operator_schmidt_decompose(u, layout, (0,), tol=1e-5).coefficients.tobytes() == coefficients.tobytes()
    assert rtols == [1e-5, 1e-5]


def test_truncation_leaves_exactly_the_dropped_tail():
    # tol 1e-3 keeps only the product term; the rest of the spectrum is
    # dropped and the residual is its norm (Eckart-Young), not an error
    rng = make_rng(12)
    u = np.kron(haar_unitary(2, rng), haar_unitary(3, rng)) + 1e-6 * haar_unitary(6, rng)
    dec = sch.operator_schmidt_decompose(u, (2, 3), (0,), tol=1e-3)
    assert dec.rank == 1
    tail = np.linalg.norm(sch.schmidt_rank(u, (2, 3), (0,)).singular_values[1:])
    assert np.linalg.norm(dec.reconstruct() - u) == pytest.approx(tail, rel=1e-6)


@pytest.mark.parametrize("d", [6, 8, 16])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_certified_leading_svd_matches_the_dense_svd(d, r):
    u, layout = gates.random_controlled_unitary(d, d, r, seed=d + r)
    m = mx.realign(u, layout)
    left, s, right_h, tau = fx.leading_svd(m, fx.RANK_RTOL)
    dense = fx.svd(m)[1]
    # the sketch was taken and certified: it returns a few values, and all
    # it leaves out weighs under the rank cutoff
    assert len(s) < d * d
    assert tau <= fx.SKETCH_MARGIN * fx.RANK_RTOL * s[0]
    assert np.linalg.norm(left @ (s[:, None] * right_h) - m) <= tau + 1e-10 * np.linalg.norm(m)
    assert fx.numerical_rank(s) == fx.numerical_rank(dense) == r
    assert np.max(np.abs(s[:r] - dense[:r])) <= 1e-12 * dense[0]
    dec = sch.operator_schmidt_decompose(u, layout, (0,))
    assert dec.rank == r
    assert np.linalg.norm(dec.reconstruct() - u) <= 1e-10 * np.linalg.norm(u)


def test_truncation_on_the_sketch_path_counts_the_mass_left_out():
    # at tol 1e-3 an 8x8 near miss is sketched although the sketch leaves
    # out a tail far above roundoff; that tail still bounds the residual
    u, layout = gates.random_controlled_unitary(8, 8, 3, seed=1)
    u = scipy.linalg.expm(1e-7j * random_hermitian(64, make_rng(3))) @ u
    m = mx.realign(u, layout)
    _, s, _, tau = fx.leading_svd(m, 1e-3)
    assert len(s) < 64 and tau > 1e-10 * np.linalg.norm(m)
    dec = sch.operator_schmidt_decompose(u, layout, (0,), tol=1e-3)
    assert dec.rank == 3
    residual = np.linalg.norm(dec.reconstruct() - u)
    assert residual == pytest.approx(np.hypot(np.linalg.norm(s[3:]), tau), rel=1e-6)
    # no rank-3 expansion beats the Eckart-Young tail of the dense spectrum
    assert residual >= np.linalg.norm(fx.svd(m)[1][3:])


def test_an_expansion_rebuilds_its_cut_within_the_dropped_mass():
    # the expansion is its checked SVD's kept triplets, rephased and reordered, so its dense residual
    # stays within Cut.dropped() plus roundoff; the slack is 100 times under the SVD check's 1e-10
    sketched = 0
    for d_c, d_t in itertools.product((2, 3, 4, 5, 8), (2, 3, 5, 8)):
        h = random_hermitian(d_c * d_t, make_rng(8))
        for r, seed in itertools.product(range(1, min(3, d_c) + 1), range(3)):
            u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
            for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                gate = u @ scipy.linalg.expm(1j * eps * h)
                for side, tol in itertools.product(((0,), (1,)), (1e-9, 1e-3)):
                    cut = sch.Cut.of(gate, layout, side, tol)
                    m = cut.realigned
                    residual = mx.frobenius_norm(mx._realigned_sum(*cut.expansion) - m)
                    assert residual <= cut.dropped() + 1e-12 * mx.frobenius_norm(m)
                    sketched += cut.svd[3] > 0
    assert sketched


def _of_rank_sketch_width(n):
    rng = make_rng(5)
    width = fx.SKETCH_WIDTH
    return random_complex_gaussian((n, width), rng) @ random_complex_gaussian((width, n), rng)


@pytest.mark.parametrize(
    "m",
    [mx.realign(haar_unitary(64, make_rng(4)), (8, 8)), _of_rank_sketch_width(64)],
    ids=["haar-8x8", "saturated-sketch"],
)
def test_uncertified_sketch_falls_back_to_the_dense_svd(m):
    # a full-rank realignment leaves mass out of every sketch; a rank equal
    # to the sketch width leaves none, but fills the sketch, so it is not certified
    *factors, tau = fx.leading_svd(m, fx.RANK_RTOL)
    assert tau == 0.0
    for got, want in zip(factors, fx.svd(m)):
        assert got.tobytes() == want.tobytes()


def test_zero_operator_on_the_sketch_path_is_rejected():
    # a 6x6 cut realigns to 36x36, wide enough to sketch
    with pytest.raises(ValueError, match="must be nonzero"):
        sch.operator_schmidt_decompose(np.zeros((36, 36)), (6, 6), (0,))


def test_rank_three_cut_is_sketched_and_full_rank_cut_factored_once(monkeypatch):
    # the traced benchmark wraps factorizations.svd by name; both the sketch
    # and the dense round must go through it
    rc, rc_layout = gates.random_controlled_unitary(16, 16, 3, seed=1)
    haar = haar_unitary(16, make_rng(2))
    shapes = []
    original = fx.svd
    monkeypatch.setattr(fx, "svd", lambda m: shapes.append(np.shape(m)) or original(m))
    assert sch.schmidt_rank(rc, rc_layout, (0,)).rank == 3
    assert shapes and all(rows != 256 for rows, _ in shapes)
    shapes.clear()
    assert sch.schmidt_rank(haar, (4, 4), (0,)).rank == 16
    assert shapes == [(16, 16)]


def test_invalid_cuts_rejected():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        sch.operator_schmidt_decompose(u, (2, 2), ())
    with pytest.raises(ValueError):
        sch.operator_schmidt_decompose(u, (2, 2), (0, 1))
    with pytest.raises(ValueError):
        sch.operator_schmidt_decompose(u, (2, 2), (2,))
    with pytest.raises(ValueError):
        sch.operator_schmidt_decompose(np.ones((4, 3)), (2, 2), (0,))


def test_rank_bounds_product_unitary():
    rng = make_rng(11)
    u = np.kron(np.kron(haar_unitary(2, rng), haar_unitary(3, rng)), haar_unitary(2, rng))
    bounds = sch.multipartite_rank_bounds(u, (2, 3, 2), seed=1)
    assert (bounds.lower, bounds.upper) == (1, 1)
    assert bounds.confirmed


def test_rank_bounds_three_qubit_family():
    u, layout = gates.u3()
    bounds = sch.multipartite_rank_bounds(u, layout, seed=2)
    assert (bounds.lower, bounds.upper) == (3, 3)
    assert bounds.confirmed


def test_rank_bounds_five_qubit_family():
    u, layout = gates.u_odd_n(5)
    bounds = sch.multipartite_rank_bounds(u, layout, seed=3)
    assert (bounds.lower, bounds.upper) == (3, 3)
    assert bounds.confirmed


def test_rank_bounds_even_four_qubit():
    u, layout = gates.even_qubit_rank3(4)
    bounds = sch.multipartite_rank_bounds(u, layout, seed=4)
    assert (bounds.lower, bounds.upper) == (3, 3)
    assert bounds.confirmed


def test_rank_bounds_check_the_gate_once_for_every_bipartition(monkeypatch):
    # seven bipartitions of four qubits, each realigned once from the one checked gate, and the
    # rank-bound tensor
    u, layout = gates.four_qubit_example()
    counts = dict.fromkeys(("as_operator", "_realigned"), 0)
    for name in counts:

        def spy(*args, _name=name, _original=getattr(mx, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mx, name, spy)
    assert sch.multipartite_rank_bounds(u, layout).lower == 16
    assert counts == {"as_operator": 1, "_realigned": 8}


def test_rank_bounds_needs_multiple_systems():
    with pytest.raises(ValueError):
        sch.multipartite_rank_bounds(np.eye(4, dtype=complex), (4,), seed=0)


def pauli(i):
    return gates.pauli(i)[0]


def test_rank_inequalities_on_three_term_split():
    # the three-qubit family split as qubit 0 against qubits 1, 2
    a_ops = [pauli(0) / SQ2, 1j * pauli(1) / SQ2, 1j * pauli(3) / SQ2]
    b_ops = [np.kron(pauli(i), pauli(i)) * math.sqrt(2.0 / 3.0) for i in (0, 1, 3)]
    rep = sch.schineq_check(a_ops, b_ops)
    assert (rep.delta_a, rep.delta_b, rep.n_terms, rep.rank) == (3, 3, 3, 3)
    assert rep.holds_i and rep.holds_ii and rep.holds_iii and rep.all_hold
    # the clauses are theorems, so only a report built by hand fails one
    for clause in ("holds_i", "holds_ii", "holds_iii"):
        assert not dataclasses.replace(rep, **{clause: False}).all_hold
    assert rep.delta_a + rep.delta_b == rep.n_terms + rep.rank


def test_rank_inequalities_with_repeated_left_factor():
    rng = make_rng(21)
    b1, b2 = haar_unitary(3, rng), haar_unitary(3, rng)
    rep = sch.schineq_check([np.eye(2), np.eye(2)], [b1, b2])
    assert (rep.delta_a, rep.delta_b, rep.n_terms, rep.rank) == (1, 2, 2, 1)
    assert rep.holds_i and rep.holds_ii and rep.holds_iii


def test_rank_inequalities_on_random_terms():
    rng = make_rng(22)
    for _ in range(25):
        a_ops = [haar_unitary(2, rng) for _ in range(3)]
        b_ops = [haar_unitary(3, rng) for _ in range(3)]
        rep = sch.schineq_check(a_ops, b_ops)
        assert rep.holds_i and rep.holds_ii


def test_rank_inequalities_take_stacks_and_lists_alike():
    z = np.diag([1.0, -1.0])
    lists = sch.schineq_check([np.eye(2), z], [np.eye(3), np.eye(3)])
    stacks = sch.schineq_check(np.stack([np.eye(2), z]), np.stack([np.eye(3), np.eye(3)]))
    assert stacks == lists
    assert (lists.delta_a, lists.delta_b, lists.n_terms, lists.rank) == (2, 1, 2, 1)
    with pytest.raises(ValueError, match="left factors must not be empty"):
        sch.schineq_check(np.zeros((0, 2, 2)), np.zeros((0, 3, 3)))


def test_rank_inequalities_reject_mismatched_lists():
    # the lengths are matched here; each list is the family rule's to check
    with pytest.raises(ValueError, match="term lists must match: 1 left vs 2 right"):
        sch.schineq_check([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="left factors must not be empty"):
        sch.schineq_check([], [])
    with pytest.raises(ValueError, match="left factors must share one square shape"):
        sch.schineq_check([np.eye(2), np.eye(3)], [np.eye(2), np.eye(2)])
    with pytest.raises(DimensionError, match=r"right factors must be square matrices, got shape \(2, 3\)"):
        sch.schineq_check([np.eye(2)], [np.ones((2, 3))])
    with pytest.raises(ValueError, match="right factors contains non-finite entries"):
        sch.schineq_check([np.eye(2)], [np.full((2, 2), np.nan)])


def _tol_checks():
    from schmidt_lab import schmidt_number as sn

    swap = gates.swap_gate()[0]
    psi = np.eye(4, dtype=complex)[0]
    product = ([1.0, 0.0], [0.0, 1.0])
    return {
        "decompose": lambda cut, tol: sch.operator_schmidt_decompose(swap, (2, 2), cut, tol=tol),
        "schmidt_rank": lambda cut, tol: sch.schmidt_rank(swap, (2, 2), cut, tol=tol),
        "state_rank": lambda cut, tol: sn.state_schmidt_rank(psi, (2, 2), cut, tol=tol),
        "output_rank": lambda cut, tol: sn.output_schmidt_rank(swap, (2, 2), product, cut, tol=tol),
        "search": lambda cut, tol: sn.max_output_schmidt_rank_search(swap, (2, 2), cut, restarts=1, tol=tol),
        "ancilla": lambda cut, tol: sn.ancilla_extended_check(swap, (2, 2), cut, tol=tol),
    }


@pytest.mark.parametrize("name", sorted(_tol_checks()))
def test_a_bad_tol_is_named_before_the_cut_is_grouped(name, monkeypatch):
    call = _tol_checks()[name]
    with pytest.raises(ValueError, match="tol must be a finite number"):
        call((5,), 2.0)

    def never(*args, **kwargs):
        raise AssertionError("grouped before the tol check")

    monkeypatch.setattr(mx, "_realigned", never)
    monkeypatch.setattr(mx, "group_states", never)
    for tol in (0.0, 1.0, float("nan"), "0.5", None, 1j):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            call((0,), tol)


def test_schineq_check_names_a_bad_tol_before_its_term_lists():
    with pytest.raises(ValueError, match="tol must be a finite number"):
        sch.schineq_check([np.eye(2)], [], tol=2.0)
