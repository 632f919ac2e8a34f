"""Entanglement of gate outputs on product inputs.

The operator Schmidt rank caps the Schmidt rank of any output produced
from a product input; the cap is reached by doubling both sides with
maximally entangled ancillas, and for low-rank gates already by plain
product inputs found through randomized search.  Oracles here are gates
whose output ranks are known in closed form: SWAP outputs stay product,
diagonal clock-block gates reach full rank on uniform inputs, and
ancilla extension always reproduces the operator rank.
"""

import math
from functools import reduce

import numpy as np
import pytest

from schmidt_lab import gates
from schmidt_lab import matrices as mx
from schmidt_lab import schmidt_number
from schmidt_lab.control import is_controlled
from schmidt_lab.errors import DimensionError
from schmidt_lab.factorizations import RANK_RTOL, numerical_rank, svd
from schmidt_lab.randomness import haar_unitary, make_rng, random_state
from schmidt_lab.schmidt import Cut, schmidt_rank
from schmidt_lab.schmidt_number import (
    ProductInput,
    ancilla_extended_check,
    max_output_schmidt_rank_search,
    output_schmidt_rank,
    random_product_input,
    state_schmidt_rank,
)

ZERO = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1.0 / math.sqrt(2.0)

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def _clock_blocks_gate(d: int = 3):
    """Diagonal gate on (d, d) whose target blocks are the d clock powers.

    The blocks {I, Z, ..., Z^(d-1)} are linearly independent, so the
    operator Schmidt rank is exactly d.
    """
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    u = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        u[j * d : (j + 1) * d, j * d : (j + 1) * d] = np.linalg.matrix_power(z, j)
    return u


def _plain_controlled(d_c: int, d_t: int, r: int, seed: int):
    """Unscrambled block-diagonal controlled gate with r distinct blocks."""
    rng = make_rng(seed)
    blocks = [haar_unitary(d_t, rng) for _ in range(r)]
    u = np.zeros((d_c * d_t, d_c * d_t), dtype=complex)
    for k in range(d_c):
        u[k * d_t : (k + 1) * d_t, k * d_t : (k + 1) * d_t] = blocks[k % r]
    return u


def _sequential_search(u, layout, cut, seed, restarts, tol=1e-9):
    """The search evaluated one candidate at a time: ``(max_rank, witness states, spectrum)``.

    Every candidate step is tried from the current point in the order
    directions x steps, and the first improving one is taken.
    """
    dims = tuple(layout)
    rest = [a for a in range(len(dims)) if a not in cut]
    d_cut = math.prod(dims[a] for a in cut)
    cap = min(d_cut, math.prod(dims) // d_cut, schmidt_rank(u, layout, cut, tol).rank)
    rng = make_rng(seed, stream=17)

    def spectrum(states):
        tensor = (u @ reduce(np.kron, states)).reshape(dims)
        return svd(tensor.transpose(list(cut) + rest).reshape(d_cut, -1))[1]

    def tail_weight(s):
        return float(np.sum(s * s)) - float(s[0] * s[0])

    best = (-1, -1.0, None, None)
    for _ in range(restarts):
        states = [random_state(d, rng) for d in dims]
        tail = tail_weight(spectrum(states))
        for _ in range(2):
            for party in range(len(dims)):
                for _ in range(3):
                    direction = random_state(dims[party], rng)
                    for step in (1.0, 0.5, 0.2, 0.05):
                        candidate = states[party] + step * direction
                        trial = list(states)
                        trial[party] = candidate / np.linalg.norm(candidate)
                        trial_tail = tail_weight(spectrum(trial))
                        if trial_tail > tail + 1e-15:
                            states, tail = trial, trial_tail
        s = spectrum(states)
        rank = numerical_rank(s, tol)
        if rank > best[0] or (rank == best[0] and tail > best[1]):
            best = (rank, tail, states, s)
        if best[0] >= cap:
            break
    return best[0], best[2], best[3]


def _search_cases():
    swap, swap_layout = gates.swap_gate()
    u3, u3_layout = gates.u3()
    odd, odd_layout = gates.u_odd_n(5)
    even, even_layout = gates.even_qubit_rank3(4)
    cases = [("swap", swap, swap_layout.dims, (0,)), ("cnot", CNOT, (2, 2), (0,))]
    for d in range(2, 6):
        for r in range(1, min(d, 3) + 1):
            u, layout = gates.random_controlled_unitary(d, d + 1, r, seed=10 * d + r)
            cases.append((f"rc-{d}x{d + 1}-r{r}", u, layout.dims, (0,)))
    cases += [
        ("u3-0", u3, u3_layout.dims, (0,)),
        ("u3-01", u3, u3_layout.dims, (0, 1)),
        ("u_odd_n5-02", odd, odd_layout.dims, (0, 2)),
        ("even4-1", even, even_layout.dims, (1,)),
    ]
    return cases


_SEARCH_CASES = _search_cases()


class TestStateRank:
    def test_known_states(self):
        assert state_schmidt_rank(BELL, (2, 2), (0,)) == 2
        assert state_schmidt_rank(np.kron(PLUS, ZERO), (2, 2), (0,)) == 1
        assert state_schmidt_rank(GHZ, (2, 2, 2), (0,)) == 2
        assert state_schmidt_rank(GHZ, (2, 2, 2), (0, 1)) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            state_schmidt_rank(BELL, (2, 2), (0, 1))
        with pytest.raises(ValueError):
            state_schmidt_rank(BELL[:3], (2, 2), (0,))

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, 1.0, 2.0, math.inf])
    def test_rejects_a_tol_outside_the_unit_interval(self, tol):
        # CNOT (|+> (x) |0>) is a Bell state: a nan or 2 would count nothing,
        # a 0 or -1 every roundoff value
        with pytest.raises(ValueError, match="tol must be a finite number in"):
            state_schmidt_rank(BELL, (2, 2), (0,), tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number in"):
            output_schmidt_rank(CNOT, (2, 2), ProductInput.of([PLUS, ZERO]), (0,), tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number in"):
            max_output_schmidt_rank_search(CNOT, (2, 2), (0,), restarts=1, tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number in"):
            ancilla_extended_check(CNOT, (2, 2), tol=tol)


class TestProductInput:
    def test_builds_and_flattens(self):
        inp = ProductInput.of([PLUS, ZERO])
        assert inp.dims == (2, 2)
        assert np.allclose(inp.vector(), np.kron(PLUS, ZERO))

    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValueError):
            ProductInput.of([PLUS, 2.0 * ZERO])
        with pytest.raises(ValueError):
            ProductInput.of([])

    def test_random_inputs_match_the_layout(self):
        inp = random_product_input((2, 3, 4), make_rng(3))
        assert inp.dims == (2, 3, 4)
        for state in inp.local_states:
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


class TestOutputRank:
    def test_swap_outputs_stay_product(self):
        swap, layout = gates.swap_gate()
        rng = make_rng(20)
        for _ in range(200):
            inp = random_product_input(layout, rng)
            assert output_schmidt_rank(swap, layout, inp, (0,)) == 1

    def test_identity_outputs_stay_product(self):
        inp = random_product_input((2, 3), make_rng(21))
        assert output_schmidt_rank(np.eye(6, dtype=complex), (2, 3), inp, (0,)) == 1

    def test_clock_blocks_gate_reaches_full_rank_on_uniform_input(self):
        u = _clock_blocks_gate(3)
        assert schmidt_rank(u, (3, 3), (0,)).rank == 3
        plus3 = np.ones(3, dtype=complex) / math.sqrt(3.0)
        assert output_schmidt_rank(u, (3, 3), ProductInput.of([plus3, plus3]), (0,)) == 3

    def test_cnot_output_ranks(self):
        assert output_schmidt_rank(CNOT, (2, 2), ProductInput.of([PLUS, ZERO]), (0,)) == 2
        assert output_schmidt_rank(CNOT, (2, 2), ProductInput.of([ZERO, ZERO]), (0,)) == 1
        # a plain list of local states is read as the product input it lists
        assert output_schmidt_rank(CNOT, (2, 2), [PLUS, ZERO], (0,)) == 2
        assert output_schmidt_rank(CNOT, (2, 2), [ZERO, ZERO], (0,)) == 1

    def test_output_rank_never_exceeds_operator_rank(self):
        swap, swap_layout = gates.swap_gate()
        u3, u3_layout = gates.u3()
        ctrl, ctrl_layout = gates.random_controlled_unitary(2, 3, 2, seed=5)
        cases = [
            (CNOT, (2, 2), (0,)),
            (swap, swap_layout, (0,)),
            (u3, u3_layout, (0,)),
            (ctrl, ctrl_layout, (0,)),
        ]
        rng = make_rng(22)
        for u, layout, cut in cases:
            cap = schmidt_rank(u, layout, cut).rank
            for _ in range(100):
                inp = random_product_input(layout, rng)
                assert output_schmidt_rank(u, layout, inp, cut) <= cap

    def test_multipartite_cuts(self):
        u3, layout = gates.u3()
        inp = random_product_input(layout, make_rng(23))
        for cut in [(0,), (1,), (2,), (0, 1)]:
            rank = output_schmidt_rank(u3, layout, inp, cut)
            assert 1 <= rank <= 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            output_schmidt_rank(CNOT, (2, 2), ProductInput.of([PLUS]), (0,))
        with pytest.raises(ValueError, match="product input dims"):
            output_schmidt_rank(CNOT, (2, 2), [PLUS], (0,))
        with pytest.raises(ValueError):
            output_schmidt_rank(CNOT, (2, 2), ProductInput.of([np.ones(3, dtype=complex) / math.sqrt(3), ZERO]), (0,))
        with pytest.raises(ValueError):
            output_schmidt_rank(CNOT, (2, 2), ProductInput.of([PLUS, ZERO]), (0, 1))


class TestSearch:
    def test_cnot_search_reaches_two_with_a_verifying_witness(self):
        result = max_output_schmidt_rank_search(CNOT, (2, 2), (0,), seed=1)
        assert result.max_rank == 2
        assert output_schmidt_rank(CNOT, (2, 2), result.witness, (0,)) == 2

    def test_swap_search_stays_at_one(self):
        swap, layout = gates.swap_gate()
        result = max_output_schmidt_rank_search(swap, layout, (0,), seed=2)
        assert result.max_rank == 1

    def test_rank_two_gates_always_reach_two(self):
        for i in range(3):
            u, layout = gates.random_controlled_unitary(2, 2, 2, seed=100 + i)
            result = max_output_schmidt_rank_search(u, layout, (0,), seed=3 + i)
            assert result.max_rank == 2

    def test_rank_three_gate_with_qubit_target_is_capped_at_two(self):
        u, layout = gates.random_controlled_unitary(4, 2, 3, seed=9)
        result = max_output_schmidt_rank_search(u, layout, (0,), seed=4)
        assert result.max_rank == 2

    def test_search_is_deterministic(self):
        first = max_output_schmidt_rank_search(CNOT, (2, 2), (0,), seed=7)
        second = max_output_schmidt_rank_search(CNOT, (2, 2), (0,), seed=7)
        assert first.max_rank == second.max_rank
        for a, b in zip(first.witness.local_states, second.witness.local_states):
            assert np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            max_output_schmidt_rank_search(CNOT, (2, 2), (0, 1), seed=1)
        with pytest.raises(ValueError):
            max_output_schmidt_rank_search(CNOT, (2, 2), (0,), restarts=0)
        for restarts in (True, False, 2.0, "3", None):
            with pytest.raises(ValueError, match="restarts must be a positive integer"):
                max_output_schmidt_rank_search(CNOT, (2, 2), (0,), restarts=restarts)
        with pytest.raises(ValueError, match="not unitary"):
            max_output_schmidt_rank_search(2.0 * CNOT, (2, 2), (0,))

    def test_accepts_integral_restarts(self):
        plain = max_output_schmidt_rank_search(CNOT, (2, 2), (0,), restarts=3, seed=5)
        numpy = max_output_schmidt_rank_search(CNOT, (2, 2), (0,), restarts=np.int64(3), seed=5)
        assert numpy.max_rank == plain.max_rank
        assert np.array_equal(numpy.singular_values, plain.singular_values)

    @pytest.mark.parametrize("name, u, layout, cut", _SEARCH_CASES, ids=[c[0] for c in _SEARCH_CASES])
    def test_search_matches_the_sequential_loop_bytewise(self, name, u, layout, cut):
        for seed in range(6):
            got = max_output_schmidt_rank_search(u, layout, cut, restarts=16, seed=seed)
            rank, states, spectrum = _sequential_search(u, layout, cut, seed, restarts=16)
            assert got.max_rank == rank
            assert np.array_equal(got.singular_values, spectrum)
            assert len(got.witness.local_states) == len(states)
            for a, b in zip(got.witness.local_states, states):
                assert np.array_equal(a, b)

    @staticmethod
    def _stack_sizes(monkeypatch):
        sizes = []
        original = schmidt_number._state_singular_values

        def spy(vectors, dims, cut):
            sizes.append(len(vectors))
            return original(vectors, dims, cut)

        monkeypatch.setattr(schmidt_number, "_state_singular_values", spy)
        return sizes

    def test_each_candidate_sweep_is_one_stacked_spectrum(self, monkeypatch):
        # no step ever improves a product output of SWAP, so each restart is
        # one start and one stack of all 12 candidates per (sweep, party)
        swap, layout = gates.swap_gate()
        calls = self._stack_sizes(monkeypatch)
        result = max_output_schmidt_rank_search(swap, layout, (0,), restarts=8, seed=2)
        assert result.max_rank == 1
        assert len(calls) <= 6 * 8
        assert sum(calls) == 8 * (1 + 2 * 2 * 12)

    def test_an_accepted_step_tries_again_one_direction_at_a_time(self, monkeypatch):
        # steps are accepted here in every (sweep, party); past each, a stack holds the
        # rest of that direction or one later direction, never all the remaining moves
        u, layout = gates.random_controlled_unitary(4, 5, 3, seed=1)
        calls = self._stack_sizes(monkeypatch)
        result = max_output_schmidt_rank_search(u, layout, (0,), restarts=16, seed=0)
        assert result.max_rank == 3  # the cap, reached in the first restart
        assert calls[0] == 1 and calls.count(12) == 2 * 2
        assert len(calls) > 1 + 2 * 2
        assert set(calls[1:]) <= {1, 2, 3, 4, 12}

    def test_each_entry_point_groups_and_checks_its_gate_once(self, monkeypatch):
        # the unitarity check reads the entries once; the operator rank is read
        # off the grouped operator, not through a second grouping and scan
        u, layout = gates.random_controlled_unitary(3, 4, 3, seed=1)
        counts = dict.fromkeys(("_realigned", "as_operator"), 0)
        for name in counts:
            original = getattr(mx, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(mx, name, spy)
        for entry in (ancilla_extended_check, max_output_schmidt_rank_search):
            counts.update(dict.fromkeys(counts, 0))
            entry(u, layout, (0,))
            assert counts == {"_realigned": 1, "as_operator": 1}, entry.__name__


class TestAncillaExtension:
    def test_swap_reaches_four(self):
        swap, layout = gates.swap_gate()
        report = ancilla_extended_check(swap, layout)
        assert report.rank_with_ancillas == 4
        assert report.operator_schmidt_rank == 4
        assert report.matches

    def test_cnot_reaches_two(self):
        report = ancilla_extended_check(CNOT, (2, 2))
        assert report.rank_with_ancillas == 2
        assert report.matches

    def test_product_gate_stays_at_one(self):
        rng = make_rng(30)
        u = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        report = ancilla_extended_check(u, (2, 3))
        assert report.rank_with_ancillas == 1
        assert report.matches

    def test_three_qubit_gate_at_every_cut(self):
        u3, layout = gates.u3()
        for cut in [(0,), (1,), (2,)]:
            report = ancilla_extended_check(u3, layout, cut)
            assert report.rank_with_ancillas == 3
            assert report.matches

    def test_gates_above_the_square_root_of_the_cap_are_checked(self):
        # the four-party output holds n^2 entries, as many as the gate: only
        # the gate's total dimension n = 72 is held against the cap 4096
        u, layout = gates.random_controlled_unitary(8, 9, 3, seed=1)
        report = ancilla_extended_check(u, layout)
        assert report.rank_with_ancillas == 3
        assert report.operator_schmidt_rank == 3

    def test_a_gate_above_the_cap_is_refused_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the ancilla state was built before the gate's layout was checked")

        u, _ = gates.random_controlled_unitary(4, 5, 2, seed=2)
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
        monkeypatch.setattr(Cut, "of", refuse)
        monkeypatch.setattr(schmidt_number, "svd", refuse)
        with pytest.raises(DimensionError, match="total dimension 20 exceeds"):
            ancilla_extended_check(u, (4, 5))

    def test_a_layout_built_under_a_larger_cap_is_checked_again(self, monkeypatch):
        u, layout = gates.random_controlled_unitary(4, 5, 2, seed=2)
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
        with pytest.raises(DimensionError, match="total dimension 20 exceeds"):
            is_controlled(u, layout, (0,))
        with pytest.raises(DimensionError, match="total dimension 20 exceeds"):
            ancilla_extended_check(u, layout)

    def test_matches_constructed_ranks(self):
        for r in (1, 2, 3):
            u, layout = gates.random_controlled_unitary(3, 3, r, seed=50 + r)
            report = ancilla_extended_check(u, layout)
            assert report.rank_with_ancillas == r
            assert report.matches


def _kron_and_tensordot_state(grouped, d_a, d_b):
    """The gate on the primary halves of two maximally entangled pairs, as a (A A') x (B B') matrix."""
    pair_a = np.eye(d_a, dtype=complex).reshape(-1) / math.sqrt(d_a)
    pair_b = np.eye(d_b, dtype=complex).reshape(-1) / math.sqrt(d_b)
    # systems (A, A-ancilla, B, B-ancilla); the gate acts on (A, B)
    state = np.kron(pair_a, pair_b).reshape(d_a, d_a, d_b, d_b)
    output = np.tensordot(grouped.reshape(d_a, d_b, d_a, d_b), state, axes=((2, 3), (0, 2)))
    # tensordot leaves (A, B, A-ancilla, B-ancilla)
    return output.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)


def _ancilla_cases():
    for d_c in (2, 3, 5, 8):
        for d_t in (2, 3, 5):
            for r in range(1, min(3, d_c) + 1):
                for seed in (0, 1):
                    u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
                    yield u, layout, ((0,), (1,))
    for build in (gates.u3, gates.four_qubit_example, lambda: gates.even_qubit_rank3(4)):
        u, layout = build()
        yield u, layout, ((0,), (1,), (0, 1))


def test_the_ancilla_state_is_the_scaled_realignment_bytewise():
    cuts = 0
    for u, layout, sides in _ancilla_cases():
        for side in sides:
            cut = Cut.of(u, layout, side)
            d_a, d_b = cut.dims
            reference = _kron_and_tensordot_state(mx.group_systems(u, layout, side)[0], d_a, d_b)
            assert (cut.realigned * ((1 / math.sqrt(d_a)) * (1 / math.sqrt(d_b)))).tobytes() == reference.tobytes()
            report = ancilla_extended_check(u, layout, side)
            assert report.rank_with_ancillas == numerical_rank(svd(reference[None])[1][0], RANK_RTOL)
            cuts += 1
    assert cuts == 141


class TestControlSideWithoutAncilla:
    def test_plain_control_input_still_reaches_the_rank(self):
        # doubling only the target side: a uniform control state plus a
        # maximally entangled target pair already reaches the operator rank
        # for block-diagonal gates of rank up to three
        d_c, d_t = 3, 4
        phi = np.eye(d_t, dtype=complex).reshape(-1) / math.sqrt(d_t)
        plus_c = np.ones(d_c, dtype=complex) / math.sqrt(d_c)
        for r in (1, 2, 3):
            u = _plain_controlled(d_c, d_t, r, seed=60 + r)
            extended = np.kron(u, np.eye(d_t, dtype=complex))
            out = extended @ np.kron(plus_c, phi)
            assert state_schmidt_rank(out, (d_c, d_t, d_t), (0,)) == r
