"""LOCC implementation routes for bipartite gates.

Both routes are simulated on full state vectors as one batched table of
every measurement branch, and each branch is compared against direct
application of the gate, so the oracle is exact linear algebra: the
double-teleportation route must reproduce any unitary on every measurement
outcome at a cost of two maximally entangled pairs, and the
block-controlled route must do the same with a resource whose rank is the
number of distinct target blocks.  Cost formulas are pinned against
hand-computed values, and the recorded outcomes of fixed seeds are pinned
so the random-number contract (streams 11 and 13) cannot drift.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from schmidt_lab import cli, gates, protocols
from schmidt_lab import matrices as mx
from schmidt_lab.control import ControlledForm, is_controlled
from schmidt_lab.errors import DimensionError, ProtocolError
from schmidt_lab.protocols import (
    FIDELITY_FLOOR,
    ProtocolStep,
    controlled_gate_protocol,
    entanglement_cost_upper,
    teleport_unitary_protocol,
    verify_protocol,
)
from schmidt_lab.randomness import haar_unitary, make_rng, random_hermitian, random_state

I2 = np.eye(2, dtype=complex)
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
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
ZERO = np.array([1.0, 0.0], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _fid(a, b):
    """Overlap magnitude between two states, global phase quotiented out."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return abs(np.vdot(a / np.linalg.norm(a), b / np.linalg.norm(b)))


class TestCostCalculator:
    def test_small_target_prefers_the_controlled_route(self):
        rep = entanglement_cost_upper(2, 3)
        assert rep.k == 3
        assert rep.ebits == pytest.approx(1.584962500721156, abs=1e-15)
        assert rep.route == "controlled"

    def test_large_target_prefers_teleportation(self):
        rep = entanglement_cost_upper(2, 8)
        assert rep.k == 4
        assert rep.ebits == 2.0
        assert rep.route == "teleportation"

    def test_one_dimensional_side_costs_nothing(self):
        rep = entanglement_cost_upper(1, 5)
        assert rep.k == 1
        assert rep.ebits == 0.0

    def test_block_count_caps_the_resource(self):
        rep = entanglement_cost_upper(2, 3, controlled_terms=2)
        assert rep.k == 2
        assert rep.ebits == 1.0
        assert rep.route == "controlled"
        # once the block count reaches d_a^2, teleporting is no worse
        rep = entanglement_cost_upper(2, 3, controlled_terms=5)
        assert rep.k == 4
        assert rep.route == "teleportation"

    def test_route_is_never_the_more_expensive_option(self):
        for d_a in range(1, 5):
            for d_b in range(d_a, 9):
                rep = entanglement_cost_upper(d_a, d_b)
                assert rep.k == min(d_a * d_a, d_b)
                assert rep.ebits == pytest.approx(math.log2(rep.k), abs=1e-15)
                if rep.route == "teleportation":
                    assert rep.k == d_a * d_a
                else:
                    assert rep.k == d_b
                    assert d_b < d_a * d_a

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            entanglement_cost_upper(3, 2)
        with pytest.raises(ValueError):
            entanglement_cost_upper(0, 2)
        with pytest.raises(ValueError):
            entanglement_cost_upper(2, 3, controlled_terms=7)
        with pytest.raises(ValueError):
            entanglement_cost_upper(2, 3, controlled_terms=0)

    def test_integer_arguments_follow_one_rule(self):
        # numpy integers pass; bools and floats do not (True used to run as k = 1)
        rep = entanglement_cost_upper(np.int64(2), np.int32(3), controlled_terms=np.int64(2))
        assert (rep.k, rep.ebits, rep.route) == (2, 1.0, "controlled")
        for args, kwargs in [((True, 4), {}), ((2, 3.0), {}), ((2, 3), {"controlled_terms": True})]:
            with pytest.raises(ValueError, match="must be positive integers|must be a positive integer"):
                entanglement_cost_upper(*args, **kwargs)


class TestTeleportationRoute:
    def test_identity_round_trip_is_the_identity_channel(self):
        psi = random_state(4, make_rng(5))
        transcript, out = teleport_unitary_protocol(np.eye(4, dtype=complex), (2, 2), psi, seed=0)
        assert _fid(psi, out) >= 1.0 - 1e-12
        assert transcript.route == "teleportation"
        assert transcript.resources == (2, 2)
        assert transcript.resource_rank == 4
        assert transcript.ebits_consumed == 2.0
        assert transcript.branches_checked == 16
        assert transcript.min_branch_fidelity >= 1.0 - 1e-12

    def test_cnot_on_plus_zero_yields_a_bell_pair(self):
        psi = np.kron(PLUS, ZERO)
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=1)
        assert _fid(BELL, out) >= 1.0 - 1e-10
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10

    def test_random_qutrit_pair_checks_every_branch(self):
        u = haar_unitary(9, make_rng(31))
        psi = random_state(9, make_rng(32))
        transcript, out = teleport_unitary_protocol(u, (3, 3), psi, seed=2)
        assert transcript.branches_checked == 81
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10
        assert transcript.ebits_consumed == pytest.approx(2.0 * math.log2(3.0), abs=1e-12)
        assert _fid(u @ psi, out) >= 1.0 - 1e-10

    def test_sampled_branch_mode(self):
        u = haar_unitary(9, make_rng(31))
        psi = random_state(9, make_rng(32))
        transcript, out = teleport_unitary_protocol(u, (3, 3), psi, seed=3, branches=50)
        assert transcript.branches_checked == 50
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10
        assert _fid(u @ psi, out) >= 1.0 - 1e-10

    def test_transcript_shape_and_message_ordering(self):
        psi = random_state(4, make_rng(8))
        transcript, _ = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        kinds = [(s.actor, s.kind) for s in transcript.steps]
        assert kinds == [
            ("Alice", "measurement"),
            ("Alice", "classical-message"),
            ("Bob", "local-unitary"),
            ("Bob", "local-unitary"),
            ("Bob", "measurement"),
            ("Bob", "classical-message"),
            ("Alice", "local-unitary"),
        ]
        assert transcript.steps[1].payload["content"] == transcript.steps[0].payload["outcome"]
        assert transcript.steps[5].payload["content"] == transcript.steps[4].payload["outcome"]

    def test_transcript_json_is_deterministic(self):
        psi = random_state(4, make_rng(8))
        first, _ = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=9)
        second, _ = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=9)
        assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(second.to_json(), sort_keys=True)

    def test_ledger_cannot_disagree_with_the_resources(self):
        psi = random_state(4, make_rng(8))
        transcript, _ = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        for field in ("ebits_consumed", "resource_rank"):
            with pytest.raises(TypeError):
                dataclasses.replace(transcript, **{field: 2.5})
        with pytest.raises(TypeError):
            dataclasses.replace(entanglement_cost_upper(2, 3), ebits=0.0)

    def test_transcript_json_reads_the_ledger_off_the_resources(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        runs = [teleport_unitary_protocol(np.eye(d * d), (d, d), random_state(d * d, make_rng(d)))[0] for d in (2, 3)]
        for blocks in ((I2, I2, I2), (I2, X, X), (I2, X, z)):
            form = ControlledForm(side=(0,), q=np.eye(3), r=np.eye(3), blocks=blocks)
            runs.append(controlled_gate_protocol(form, random_state(6, make_rng(6)))[0])
        assert [t.resources for t in runs] == [(2, 2), (3, 3), (), (2,), (3,)]
        for transcript in runs:
            payload = transcript.to_json()
            assert set(payload) == {
                "steps", "resources", "ebits_consumed", "resource_rank", "route",
                "min_branch_fidelity", "max_branch_fidelity", "branches_checked",
            }
            assert payload["resource_rank"] == math.prod(transcript.resources)
            assert payload["ebits_consumed"] == float(sum(math.log2(r) for r in transcript.resources))

    def test_rejects_bad_arguments(self):
        psi = random_state(4, make_rng(1))
        with pytest.raises(ValueError):
            teleport_unitary_protocol(np.eye(4, dtype=complex), (4,), psi)
        with pytest.raises(ValueError):
            teleport_unitary_protocol(np.eye(4, dtype=complex), (2, 2), random_state(6, make_rng(2)))
        with pytest.raises(ValueError):
            teleport_unitary_protocol(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex), (2, 2), psi)
        with pytest.raises(ValueError):
            teleport_unitary_protocol(np.eye(4, dtype=complex), (2, 2), psi, branches=0)


class TestControlledRoute:
    def test_cnot_detected_form_consumes_one_ebit(self):
        verdict = is_controlled(CNOT, (2, 2), (0,))
        assert verdict.controlled
        psi = np.kron(PLUS, ZERO)
        transcript, out = controlled_gate_protocol(verdict.form, psi, seed=0)
        assert transcript.route == "controlled"
        assert transcript.resources == (2,)
        assert transcript.resource_rank == 2
        assert transcript.ebits_consumed == 1.0
        assert transcript.branches_checked == 4
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10
        assert transcript.max_branch_fidelity - transcript.min_branch_fidelity <= 1e-10
        assert _fid(BELL, out) >= 1.0 - 1e-8

    def test_hand_built_form_runs_exactly(self):
        form = ControlledForm(side=(0,), q=I2, r=I2, blocks=(I2, X))
        psi = random_state(4, make_rng(12))
        transcript, out = controlled_gate_protocol(form, psi, seed=1)
        assert _fid(CNOT @ psi, out) >= 1.0 - 1e-12
        kinds = [(s.actor, s.kind) for s in transcript.steps]
        assert kinds == [
            ("Alice", "local-unitary"),
            ("Alice", "local-unitary"),
            ("Alice", "measurement"),
            ("Alice", "classical-message"),
            ("Bob", "local-unitary"),
            ("Bob", "local-unitary"),
            ("Bob", "measurement"),
            ("Bob", "classical-message"),
            ("Alice", "local-unitary"),
            ("Alice", "local-unitary"),
        ]

    def test_three_qubit_gate_controlled_by_a_pair(self):
        u, layout = gates.u3()
        verdict = is_controlled(u, layout, (0, 1))
        assert verdict.controlled
        psi = random_state(8, make_rng(7))
        transcript, out = controlled_gate_protocol(verdict.form, psi, seed=2)
        assert transcript.resource_rank == 4
        assert transcript.ebits_consumed == 2.0
        assert transcript.branches_checked == 16
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10
        assert _fid(u @ psi, out) >= 1.0 - 1e-8

    def test_product_form_needs_no_communication(self):
        rng = make_rng(40)
        v = haar_unitary(3, rng)
        form = ControlledForm(
            side=(0,),
            q=haar_unitary(2, rng),
            r=haar_unitary(2, rng),
            blocks=(v, v),
        )
        psi = random_state(6, make_rng(41))
        transcript, out = controlled_gate_protocol(form, psi, seed=3)
        assert transcript.ebits_consumed == 0.0
        assert transcript.resource_rank == 1
        assert transcript.resources == ()
        assert transcript.branches_checked == 1
        assert not [s for s in transcript.steps if s.kind in ("measurement", "classical-message")]
        assert _fid(form.operator() @ psi, out) >= 1.0 - 1e-10

    def test_rank_one_forms_read_branches_like_every_form(self, tmp_path, capsys):
        # one group runs through the same branch table, so branches is checked and sampled there too
        v = haar_unitary(3, make_rng(44))
        form = ControlledForm(side=(0,), q=I2, r=I2, blocks=(v, 1j * v))
        psi = random_state(6, make_rng(45))
        for bad in (0, -3, "bogus", True):
            with pytest.raises(ValueError, match="branches must be"):
                controlled_gate_protocol(form, psi, branches=bad)
        transcript, out = controlled_gate_protocol(form, psi, seed=2, branches=3)
        assert transcript.branches_checked == 3
        assert transcript.resources == ()
        assert [step.kind for step in transcript.steps] == ["local-unitary"] * 4
        assert transcript.min_branch_fidelity >= FIDELITY_FLOOR
        assert _fid(form.operator() @ psi, out) >= FIDELITY_FLOOR
        u, layout = gates.random_controlled_unitary(3, 3, 1, seed=0)
        path = tmp_path / "rank-one.json"
        path.write_text(json.dumps(mx.matrix_to_json(u, layout.dims)))
        assert cli.main(["protocol", str(path), "--route", "controlled", "--branches", "0"]) == 2
        capsys.readouterr()

    def test_phase_proportional_blocks_share_a_group(self):
        # blocks v and i*v span one direction; the phase is a free local
        # correction on the control side, so no entanglement is needed
        v = haar_unitary(2, make_rng(42))
        form = ControlledForm(side=(0,), q=I2, r=I2, blocks=(v, 1j * v))
        psi = random_state(4, make_rng(43))
        transcript, out = controlled_gate_protocol(form, psi, seed=4)
        assert transcript.resource_rank == 1
        assert transcript.ebits_consumed == 0.0
        assert _fid(form.operator() @ psi, out) >= 1.0 - 1e-10

    def test_sampled_branch_mode(self):
        u, layout = gates.random_controlled_unitary(3, 3, 3, seed=77)
        verdict = is_controlled(u, layout, (0,))
        assert verdict.controlled
        psi = random_state(9, make_rng(78))
        transcript, out = controlled_gate_protocol(verdict.form, psi, seed=5, branches=5)
        assert transcript.branches_checked == 5
        assert transcript.resource_rank == 3
        assert transcript.ebits_consumed == pytest.approx(math.log2(3.0), abs=1e-12)
        assert transcript.min_branch_fidelity >= 1.0 - 1e-10
        assert _fid(verdict.form.operator() @ psi, out) >= 1.0 - 1e-10

    @pytest.mark.parametrize("d_c, d_t, r, seed", [(2, 5, 2, 0), (3, 8, 3, 1), (5, 3, 3, 2), (8, 2, 2, 3)])
    def test_factored_application_matches_the_assembled_operator(self, d_c, d_t, r, seed):
        # the protocol's reference state comes from the factors, not the dense operator
        u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
        form = is_controlled(u, layout, (0,)).form
        psi = random_state(d_c * d_t, make_rng(seed, stream=43))
        assert np.linalg.norm(form.apply(psi) - form.operator() @ psi) <= 1e-14
        transcript, out = controlled_gate_protocol(form, psi)
        assert transcript.min_branch_fidelity >= 1.0 - 1e-12
        assert _fid(form.operator() @ psi, out) >= 1.0 - 1e-12

    def test_rejects_invalid_forms(self):
        psi = random_state(4, make_rng(1))
        bad_block = ControlledForm(
            side=(0,), q=I2, r=I2, blocks=(I2, np.diag([1.0, 2.0]).astype(complex))
        )
        with pytest.raises(ValueError):
            controlled_gate_protocol(bad_block, psi)
        bad_q = ControlledForm(
            side=(0,), q=np.ones((2, 2), dtype=complex), r=I2, blocks=(I2, X)
        )
        with pytest.raises(ValueError):
            controlled_gate_protocol(bad_q, psi)
        # the blocks are checked as one stack; the message names the first bad one
        for block, text in (
            (np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex), "non-finite"),
            (np.diag([1.0, 1.5]).astype(complex), "not unitary"),
        ):
            form = ControlledForm(side=(0,), q=I2, r=I2, blocks=(X, block))
            with pytest.raises(ValueError, match=f"form block 1 (contains|is) {text}"):
                controlled_gate_protocol(form, psi)
        short = ControlledForm(side=(0,), q=I2, r=I2, blocks=(I2,))
        with pytest.raises(ValueError):
            controlled_gate_protocol(short, psi)
        # the form's dims are read off q and the blocks, so an empty or ragged stack is refused too,
        # and so is an r on another dimension than q
        for blocks in ((), (I2, np.eye(3))):
            with pytest.raises(ValueError):
                controlled_gate_protocol(ControlledForm(side=(0,), q=I2, r=I2, blocks=blocks), psi)
        with pytest.raises(ValueError, match="form.r must act on dimension 2"):
            controlled_gate_protocol(ControlledForm(side=(0,), q=I2, r=np.eye(3), blocks=(I2, X)), psi)
        good = ControlledForm(side=(0,), q=I2, r=I2, blocks=(I2, X))
        with pytest.raises(ValueError):
            controlled_gate_protocol(good, random_state(6, make_rng(2)))
        with pytest.raises(ValueError):
            controlled_gate_protocol(good, psi, branches=0)


def _diagonal_form(d_c, d_t, m):
    """``q = r = I`` and ``d_c`` diagonal blocks in ``m`` groups: block k is ``diag(w^(j (k mod m)))``, w = e^(2 pi i / m)."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(d_c) % m, np.arange(d_t)) / m)
    blocks = phases[:, :, None] * np.eye(d_t)
    return ControlledForm(side=(0,), q=np.eye(d_c, dtype=complex), r=np.eye(d_c, dtype=complex), blocks=blocks)


def _refused_unbuilt(call, match):
    """``call`` raises DimensionError matching ``match`` with a traced peak under 64 MiB: no table array was made."""
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestBranchBudget:
    """A table whose largest array, outcomes^2 * d_c * d_t entries, passes ``2 cap^2`` is refused before it is built."""

    @pytest.mark.parametrize("branches", ["all", 10])
    @pytest.mark.parametrize("dims", [(32, 32), (32, 4)])
    def test_teleportation_past_the_budget_is_refused_before_its_table(self, dims, branches):
        d_a, d_b = dims
        u = haar_unitary(d_a * d_b, make_rng(3))
        psi = random_state(d_a * d_b, make_rng(4))
        entries = d_a**5 * d_b
        protocols._weyl_operators.cache_clear()
        _refused_unbuilt(
            lambda: teleport_unitary_protocol(u, dims, psi, branches=branches),
            rf"^teleportation branch table of {entries} entries exceeds the budget 2 \* 4096\^2$",
        )
        # the Weyl operators of a refused dimension are never built
        assert protocols._weyl_operators.cache_info().currsize == 0

    def test_controlled_past_the_budget_is_refused_before_its_table(self):
        form = _diagonal_form(128, 32, 128)
        psi = random_state(128 * 32, make_rng(5))
        _refused_unbuilt(
            lambda: controlled_gate_protocol(form, psi, branches=4),
            r"^controlled branch table of 67108864 entries exceeds the budget 2 \* 4096\^2$",
        )

    @pytest.mark.parametrize("cap, admitted, refused", [(16, (2, 8), (4, 4)), (8, (2, 4), (4, 2))])
    def test_teleportation_at_a_lowered_cap(self, monkeypatch, cap, admitted, refused):
        # at cap 8 the (2, 4) table's 2^5 * 4 = 128 entries are the budget 2 * 8^2 itself
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", str(cap))

        def run(dims):
            total = math.prod(dims)
            return teleport_unitary_protocol(haar_unitary(total, make_rng(6)), dims, random_state(total, make_rng(7)))[0]

        transcript = run(admitted)
        assert transcript.branches_checked == admitted[0] ** 4
        assert transcript.min_branch_fidelity >= FIDELITY_FLOOR
        with pytest.raises(DimensionError, match=rf"^teleportation branch table .* 2 \* {cap}\^2$"):
            run(refused)

    @pytest.mark.parametrize("cap, admitted, refused", [(16, (4, 4, 4), (8, 2, 8)), (32, (8, 4, 8), (16, 2, 16))])
    def test_controlled_at_a_lowered_cap(self, monkeypatch, cap, admitted, refused):
        # at cap 32 the (8, 4) table with 8 groups holds 8^2 * 32 = 2048 entries, the budget 2 * 32^2 itself
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", str(cap))

        def run(d_c, d_t, m):
            return controlled_gate_protocol(_diagonal_form(d_c, d_t, m), random_state(d_c * d_t, make_rng(8)))[0]

        transcript = run(*admitted)
        m = admitted[2]
        assert transcript.resources == (m,) and transcript.branches_checked == m * m
        assert transcript.min_branch_fidelity >= FIDELITY_FLOOR
        with pytest.raises(DimensionError, match=rf"^controlled branch table .* 2 \* {cap}\^2$"):
            run(*refused)


def _near_miss_ladder(eps):
    """``(u, layout)`` of every rc d x d rank-r gate times ``exp(i eps H)``, H a fixed Hermitian of side d^2."""
    for d, r in ((4, 2), (4, 3), (8, 3)):
        w, v = np.linalg.eigh(random_hermitian(d * d, make_rng(8)))
        for seed in range(6):
            u, layout = gates.random_controlled_unitary(d, d, r, seed=seed)
            yield (v * np.exp(1j * eps * w)) @ v.conj().T @ u, layout


class TestCertifiedWitnesses:
    """Every form ``is_controlled`` certifies runs: the protocol bounds form unitarity by the same band."""

    @pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-8, 3e-8])
    def test_near_miss_witnesses_run_on_every_branch(self, eps, tmp_path, capsys):
        positives = 0
        for k, (u, layout) in enumerate(_near_miss_ladder(eps)):
            verdict = is_controlled(u, layout, (0,))
            if not verdict.controlled:
                continue
            positives += 1
            psi = random_state(layout.total, make_rng(k, stream=5))
            for branches in ("all", 3):
                transcript, out = controlled_gate_protocol(verdict.form, psi, branches=branches)
                assert abs(transcript.min_branch_fidelity - 1.0) <= 1e-12
                assert abs(transcript.max_branch_fidelity - 1.0) <= 1e-12
                assert verify_protocol(transcript, u, psi, out).fidelity >= FIDELITY_FLOOR
            path = tmp_path / f"gate-{k}.json"
            path.write_text(json.dumps(mx.matrix_to_json(u, layout.dims)))
            assert cli.main(["protocol", str(path), "--route", "controlled"]) == 0
            capsys.readouterr()
        assert positives > 0

    def test_a_detector_built_form_runs_on_its_own_block_stack(self):
        u, layout = gates.random_controlled_unitary(4, 4, 2, seed=1)
        form = is_controlled(u, layout, (0,)).form
        _, _, stack = protocols._validate_form(form, layout.total)
        assert np.shares_memory(stack, form.blocks)


class TestRandomNumberContract:
    """Recorded outcomes of fixed seeds, and what the sampled mode checks.

    The outcome pairs (first measurement, then second) are pinned for seeds
    0-4.  The exhaustive sweep draws nothing, so its recorded run and the
    first sampled run both start from a fresh stream and report the same
    pair.
    """

    TELEPORT = {
        2: [((0, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1)), ((1, 1), (1, 0))],
        3: [((0, 1), (0, 2)), ((1, 2), (2, 0)), ((0, 2), (1, 0)), ((2, 2), (2, 2)), ((2, 1), (2, 0))],
        4: [((0, 3), (1, 0)), ((2, 1), (2, 3)), ((1, 0), (1, 2)), ((3, 2), (3, 2)), ((3, 1), (2, 2))],
    }
    CONTROLLED = {
        2: [(0, 0), (1, 1), (1, 1), (1, 0), (1, 1)],
        3: [(1, 0), (2, 2), (2, 2), (1, 0), (2, 1)],
    }
    # every run of an 8-sample call, seeds 0 and 1, as (first, second) table indices
    EIGHT_SAMPLES = {
        ("teleport", 2): [
            [(0, 1), (2, 2), (2, 3), (2, 2), (1, 0), (0, 0), (0, 1), (2, 2)],
            [(2, 2), (2, 3), (1, 1), (3, 3), (1, 2), (1, 2), (3, 0), (2, 2)],
        ],
        ("teleport", 3): [
            [(1, 2), (6, 5), (5, 6), (6, 5), (4, 1), (1, 1), (1, 2), (5, 5)],
            [(5, 6), (5, 7), (2, 4), (6, 7), (3, 5), (3, 5), (8, 0), (5, 6)],
        ],
        ("teleport", 4): [
            [(3, 4), (11, 9), (9, 12), (10, 9), (7, 1), (3, 3), (2, 4), (8, 9)],
            [(9, 11), (9, 12), (5, 7), (12, 14), (6, 10), (5, 10), (15, 0), (9, 11)],
        ],
        ("controlled", 2): [
            [(0, 0), (1, 1), (1, 0), (0, 1), (0, 0), (1, 1), (1, 1), (1, 1)],
            [(1, 1), (1, 1), (1, 0), (1, 1), (0, 1), (0, 1), (0, 0), (0, 1)],
        ],
        ("controlled", 3): [
            [(1, 0), (1, 1), (2, 0), (0, 2), (1, 0), (2, 2), (2, 2), (2, 2)],
            [(2, 2), (2, 1), (2, 0), (1, 2), (1, 2), (0, 2), (0, 0), (0, 2)],
        ],
    }

    @staticmethod
    def _teleport_case(d):
        return haar_unitary(d * d, make_rng(600 + d)), random_state(d * d, make_rng(610 + d))

    @staticmethod
    def _controlled_case(r):
        u, layout = gates.random_controlled_unitary(3, 3, r, seed=620 + r)
        verdict = is_controlled(u, layout, (0,))
        assert verdict.controlled
        return verdict.form, random_state(9, make_rng(630 + r))

    @staticmethod
    def _outcomes(transcript):
        return [s.payload["outcome"] for s in transcript.steps if s.kind == "measurement"]

    @staticmethod
    def _sampled_outcomes(table, seed, stream, samples=8):
        """Every recorded run's outcome pair, read back through outputs that encode their own index."""
        marginal, joint, _ = table
        n1, n2 = joint.shape
        labels = np.sqrt(joint)[:, :, None] * np.eye(n1 * n2).reshape(n1, n2, n1 * n2)
        index = np.arange(n1 * n2, dtype=complex)
        fidelities, _ = protocols._run_branches(
            (marginal, joint, labels), index, samples, make_rng(seed, stream=stream)
        )
        return [divmod(int(round(f)), n2) for f in fidelities]

    @staticmethod
    def _assert_samples_are_branches(table, expected, seed, stream, transcript):
        sweep, _ = protocols._run_branches(table, expected, None, make_rng(seed, stream=stream))
        sampled, _ = protocols._run_branches(table, expected, 3, make_rng(seed, stream=stream))
        assert len(sampled) == 3
        for fidelity in sampled:
            assert np.min(np.abs(np.asarray(sweep) - fidelity)) <= 1e-12
        assert transcript.min_branch_fidelity == pytest.approx(min(sampled), abs=1e-12)
        assert transcript.max_branch_fidelity == pytest.approx(max(sampled), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_teleport_outcomes_are_pinned(self, d, seed):
        u, psi = self._teleport_case(d)
        first, second = self.TELEPORT[d][seed]
        for branches in ("all", 3):
            transcript, _ = teleport_unitary_protocol(u, (d, d), psi, seed=seed, branches=branches)
            assert self._outcomes(transcript) == [list(first), list(second)]
        # transcript now holds the three-sample run
        table = protocols._teleport_table(psi, u, d, d)
        self._assert_samples_are_branches(table, u @ psi, seed, 11, transcript)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_controlled_outcomes_are_pinned(self, r, seed):
        form, psi = self._controlled_case(r)
        for branches in ("all", 3):
            transcript, _ = controlled_gate_protocol(form, psi, seed=seed, branches=branches)
            assert tuple(self._outcomes(transcript)) == self.CONTROLLED[r][seed]
        # transcript now holds the three-sample run
        reps, group, phases = protocols._merge_blocks(form.blocks, 3)
        assert len(reps) == r
        table = protocols._controlled_table(psi, form, reps, group, phases)
        self._assert_samples_are_branches(table, form.operator() @ psi, seed, 13, transcript)

    @pytest.mark.parametrize("route, size", sorted(EIGHT_SAMPLES))
    def test_eight_sample_runs_are_pinned(self, route, size):
        if route == "teleport":
            u, psi = self._teleport_case(size)
            table, stream = protocols._teleport_table(psi, u, size, size), 11
        else:
            form, psi = self._controlled_case(size)
            table, stream = protocols._controlled_table(psi, form, *protocols._merge_blocks(form.blocks, 3)), 13
        for seed, pinned in enumerate(self.EIGHT_SAMPLES[route, size]):
            assert self._sampled_outcomes(table, seed, stream) == pinned


def _random_table(rng, n1, n2, d):
    """A branch table with random weights, some of them zero, and random outputs."""
    joint = rng.random((n1, n2)) * (rng.random((n1, n2)) > 0.3)
    joint[:, 0] += 1e-3
    marginal = joint.sum(axis=1) * (1.0 + 1e-12 * rng.standard_normal(n1))
    outputs = rng.standard_normal((n1, n2, d)) + 1j * rng.standard_normal((n1, n2, d))
    return marginal, joint, outputs


def _reference_run_branches(table, expected, samples, rng):
    """The per-run loop over ``Generator.choice`` that the batched draws reproduce."""
    marginal, joint, outputs = table

    def recorded():
        first = int(rng.choice(len(marginal), p=marginal / marginal.sum()))
        row = joint[first]
        second = int(rng.choice(len(row), p=row / row.sum()))
        return first, second, outputs[first, second] / math.sqrt(row[second])

    if samples is None:
        live = joint > 1e-30
        fidelities = np.abs(outputs[live] @ expected.conj()) / np.sqrt(joint[live])
        runs = [recorded()]
    else:
        runs = [recorded() for _ in range(samples)]
        fidelities = [abs(np.vdot(expected, out)) for _, _, out in runs]
    return fidelities, runs[0]


class TestBatchedConstruction:
    """The stacked operators and the batched draws, byte for byte against the constructions they replace."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_weyl_stack_matches_each_power_product(self, d):
        shift, clock = protocols._shift(d), protocols._clock(d)
        reference = np.stack(
            [
                np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                for a in range(d)
                for b in range(d)
            ]
        )
        assert protocols._weyl_stack(d).tobytes() == reference.tobytes()

    @staticmethod
    def _reference_teleport_table(psi, u, d_a, d_b):
        """The table from a fresh Weyl stack and one broadcast matmul per outcome pair."""
        weyl = protocols._weyl_stack(d_a)
        bras = weyl.conj().transpose(0, 2, 1) / d_a
        n = len(weyl)
        first = bras @ psi.reshape(d_a, d_b)
        marginal = np.sum(np.abs(first) ** 2, axis=(1, 2))
        moved = ((weyl @ first).reshape(n, -1) @ u.T).reshape(n, 1, d_a, d_b)
        second = bras @ moved
        joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
        return marginal, joint, (weyl @ second).reshape(n, n, -1)

    # every shape whose largest table array, d_a^5 d_b entries, stays under 2^22, so the test stays small
    TELEPORT_SHAPES = [(d_a, d_b) for d_a in range(2, 18) for d_b in (1, 2, 3, 5, 8) if d_a**5 * d_b <= 2**22]

    @pytest.mark.parametrize("d_a, d_b", TELEPORT_SHAPES)
    def test_teleport_table_matches_the_broadcast_products(self, d_a, d_b):
        u = haar_unitary(d_a * d_b, make_rng(d_a, stream=d_b))
        psi = random_state(d_a * d_b, make_rng(d_b, stream=d_a))
        table = protocols._teleport_table(psi, u, d_a, d_b)
        for got, want in zip(table, self._reference_teleport_table(psi, u, d_a, d_b)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (5, 1), (3, 5), (6, 6)])
    def test_teleport_runs_match_the_broadcast_products(self, monkeypatch, dims):
        total = math.prod(dims)
        u, psi = haar_unitary(total, make_rng(total)), random_state(total, make_rng(total, stream=1))

        def runs():
            for branches in ("all", 1, 10, 1000):
                transcript, output = teleport_unitary_protocol(u, dims, psi, seed=7, branches=branches)
                yield json.dumps(transcript.to_json()), output.tobytes()

        got = list(runs())
        monkeypatch.setattr(protocols, "_teleport_table", self._reference_teleport_table)
        assert got == list(runs())

    def test_weyl_operators_are_cached_read_only(self):
        weyl, rows = protocols._weyl_operators(3)
        assert protocols._weyl_operators(3)[0] is weyl
        assert weyl.tobytes() == protocols._weyl_stack(3).tobytes()
        assert rows.shape == (27, 3)
        for operator in (weyl, rows):
            with pytest.raises(ValueError, match="read-only"):
                operator[0, 0] = 1.0

    def test_a_rebuilt_cache_gives_the_same_transcript(self):
        u, psi = haar_unitary(16, make_rng(40)), random_state(16, make_rng(41))

        def run():
            transcript, output = teleport_unitary_protocol(u, (4, 4), psi, seed=2, branches=5)
            return json.dumps(transcript.to_json()), output.tobytes()

        run()
        hit = run()
        protocols._weyl_operators.cache_clear()
        assert run() == hit
        assert protocols._weyl_operators.cache_info().misses == 1

    @staticmethod
    def _reference_controlled_table(psi, form, reps, group, phases):
        d_c, d_t = form.grouped_dims
        m = len(reps)
        outcomes = np.arange(m)
        group = np.asarray(group)
        shifts = np.stack([np.linalg.matrix_power(protocols._shift(m), g) for g in outcomes])
        resource = shifts[group] / math.sqrt(m)
        state = (form.r @ psi.reshape(d_c, d_t))[:, :, None, None] * resource[:, None]
        first = np.einsum("sa,ctab->sctb", np.eye(m), state)
        marginal = np.sum(np.abs(first) ** 2, axis=(1, 2, 3))
        recoil = np.zeros((m, m, m), dtype=complex)
        for s in range(m):
            for x in range(m):
                recoil[s, (s - x) % m, x] = 1.0
        first = np.einsum("syb,sctb->scty", recoil, first)
        first = np.einsum("bxt,sctb->scxb", np.stack(reps), first)
        fourier_rows = np.exp(2j * np.pi * outcomes[:, None] * outcomes[None, :] / m).conj() / math.sqrt(m)
        second = np.einsum("tb,scxb->stcx", fourier_rows, first)
        joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
        correction = np.exp(2j * np.pi * outcomes[:, None] * group[None, :] / m) * np.asarray(phases)
        outputs = np.einsum("yc,stcx->styx", form.q, second * correction[None, :, :, None])
        return marginal, joint, outputs.reshape(m, m, -1)

    @pytest.mark.parametrize(
        "d_c, d_t, r", [(2, 2, 2), (3, 3, 3), (4, 4, 2), (5, 3, 3), (8, 8, 3), (9, 4, 3), (16, 16, 2)]
    )
    def test_controlled_table_matches_the_looped_recoil_and_identity_contraction(self, d_c, d_t, r):
        for seed in range(2):
            u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
            form = is_controlled(u, layout, (0,)).form
            psi = random_state(d_c * d_t, make_rng(seed, stream=5))
            merged = protocols._merge_blocks(np.stack(form.blocks), d_t)
            table = protocols._controlled_table(psi, form, *merged)
            reference = self._reference_controlled_table(psi, form, *merged)
            for got, want in zip(table, reference):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_match_a_loop_over_generator_choice(self, seed):
        tables = make_rng(seed, stream=7)
        for trial in range(40):
            n1, n2 = (int(k) for k in tables.integers(1, 7, size=2))
            table = _random_table(tables, n1, n2, 5)
            expected = tables.standard_normal(5) + 1j * tables.standard_normal(5)
            for samples in (None, *range(1, 10)):
                got = protocols._run_branches(table, expected, samples, make_rng(trial, stream=11))
                want = _reference_run_branches(table, expected, samples, make_rng(trial, stream=11))
                assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
                assert got[1][:2] == want[1][:2]
                assert got[1][2].tobytes() == want[1][2].tobytes()

    def test_weights_that_choice_would_refuse_raise(self):
        marginal, joint, outputs = _random_table(make_rng(3), 2, 3, 4)
        expected = np.ones(4, dtype=complex)
        for bad in (np.nan, np.inf, -0.5):
            broken = marginal.copy()
            broken[1] = bad
            with pytest.raises(ValueError, match="finite and non-negative"):
                protocols._run_branches((broken, joint, outputs), expected, 2, make_rng(0))
        # a row of zeros sums to nothing to draw from, as ``Generator.choice`` refuses
        with pytest.raises(ValueError, match="finite and non-negative"):
            protocols._run_branches((np.zeros(2), joint, outputs), expected, 2, make_rng(0))
        with pytest.raises(ValueError, match="finite and non-negative"):
            protocols._draws(np.zeros((2, 3)), np.array([0.5, 0.1]))


class TestVerification:
    def test_reports_fidelity_and_ledger(self):
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        report = verify_protocol(transcript, CNOT, psi, out)
        assert report.fidelity >= 1.0 - 1e-10
        assert report.ok
        assert report.measurements == 2
        assert report.messages == 2
        assert (transcript.resource_rank, transcript.ebits_consumed) == (4, 2.0)

    def test_controlled_route_passes_verification(self):
        form = ControlledForm(side=(0,), q=I2, r=I2, blocks=(I2, X))
        psi = random_state(4, make_rng(9))
        transcript, out = controlled_gate_protocol(form, psi, seed=6)
        report = verify_protocol(transcript, CNOT, psi, out)
        assert report.ok
        assert report.measurements == 2
        assert report.messages == 2

    def test_flags_message_before_measurement(self):
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        steps = list(transcript.steps)
        steps[0], steps[1] = steps[1], steps[0]
        corrupted = dataclasses.replace(transcript, steps=tuple(steps))
        with pytest.raises(ProtocolError):
            verify_protocol(corrupted, CNOT, psi, out)

    def test_flags_resource_ranks_that_are_not_positive_integers(self):
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        for resources in ((2, 0), (2, 2.0), (-3,)):
            with pytest.raises(ProtocolError, match="positive integers"):
                verify_protocol(dataclasses.replace(transcript, resources=resources), CNOT, psi, out)

    def test_resource_ranks_follow_the_library_integer_rule(self):
        # a bool is not a rank; a numpy integer is
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        with pytest.raises(ProtocolError, match="positive integers, got True"):
            verify_protocol(dataclasses.replace(transcript, resources=(True, 2)), CNOT, psi, out)
        numpy_ranks = dataclasses.replace(transcript, resources=(np.int64(2), 2))
        assert verify_protocol(numpy_ranks, CNOT, psi, out).ok

    def test_flags_unknown_actor_and_outcome_free_measurement(self):
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        index = [step.kind for step in transcript.steps].index("measurement")
        measurement = transcript.steps[index]
        for step, message in (
            (dataclasses.replace(measurement, actor="Eve"), f"step {index} has unknown actor 'Eve'"),
            (dataclasses.replace(measurement, payload={}), f"measurement step {index} carries no outcome"),
        ):
            steps = (*transcript.steps[:index], step, *transcript.steps[index + 1 :])
            with pytest.raises(ProtocolError, match=message):
                verify_protocol(dataclasses.replace(transcript, steps=steps), CNOT, psi, out)

    def test_flags_unknown_step_kind(self):
        psi = random_state(4, make_rng(8))
        transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
        steps = list(transcript.steps)
        steps[2] = ProtocolStep(actor="Bob", kind="quantum-message", payload={})
        corrupted = dataclasses.replace(transcript, steps=tuple(steps))
        with pytest.raises(ProtocolError):
            verify_protocol(corrupted, CNOT, psi, out)
