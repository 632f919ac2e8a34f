"""The analysis layers apply local operators without dense Kronecker factors.

``schmidt``, ``algebra``, ``control`` and ``protocols`` work through the
realignment rule and reshaped contractions that ``matrices`` owns, and form
no full-size product only to trace it down. Each call below runs with
``np.kron`` refusing those four modules and ``matrices.partial_trace``
refusing everyone; gates are built first, and gate construction keeps its
krons.

A controlled form is likewise verified and applied through its factors
``(q, r, blocks)``: with ``ControlledForm.operator`` refusing, every
detector, sweep, fuzz suite, protocol run and CLI command below still runs.
``ControlledForm.residual`` and the witness route read a cut's Schmidt
expansion and hold no full-size array; so does ``is_bcu``'s split check,
whose partners and capture bound come from the same expansion and SVD.
An expansion reads only its cut's SVD and holds no full-size array.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from schmidt_lab import algebra, cli, control, gates, protocols, schmidt
from schmidt_lab import matrices as mx
from schmidt_lab.randomness import haar_unitary, make_rng, random_state

ANALYSIS_MODULES = {f"schmidt_lab.{name}" for name in ("schmidt", "algebra", "control", "protocols")}


def _forbid_dense_kron(monkeypatch):
    real_kron = np.kron

    def kron(a, b):
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller in ANALYSIS_MODULES:
            raise AssertionError(f"np.kron called from {caller}")
        return real_kron(a, b)

    def partial_trace(*args, **kwargs):
        raise AssertionError("partial_trace called")

    monkeypatch.setattr(np, "kron", kron)
    monkeypatch.setattr(mx, "partial_trace", partial_trace)


def _rc(d_ctrl, d_tgt, r, seed):
    return gates.random_controlled_unitary(d_ctrl, d_tgt, r, seed=seed)


def _terms(seed):
    rng = make_rng(seed)
    return [haar_unitary(3, rng) for _ in range(4)], [haar_unitary(2, rng) for _ in range(4)]


def _rank_one_form():
    u, layout = _rc(3, 2, 1, 4)
    verdict = control.is_controlled(u, layout, (0,))
    psi = haar_unitary(6, make_rng(5))[:, 0]
    return verdict.form, psi


CALLS = {
    "is_controlled": (lambda: _rc(4, 4, 3, 1), lambda u_lay: control.is_controlled(*u_lay, (0,))),
    "is_bcu": (lambda: _rc(4, 4, 3, 1), lambda u_lay: control.is_bcu(*u_lay, (0,))),
    "grouped_operator": (
        lambda: _rc(3, 4, 3, 2),
        lambda u_lay: schmidt.operator_schmidt_decompose(*u_lay, (0,)).grouped_operator(),
    ),
    "schineq_check": (lambda: _terms(6), lambda terms: schmidt.schineq_check(*terms)),
    "harvest": (
        lambda: _rc(3, 3, 3, 55),
        lambda u_lay: algebra.orthogonalization_inputs_from_unitary(*u_lay, (1,)),
    ),
    "sch2-fuzz": (lambda: None, lambda _: control.fuzz_theorem_checks("sch2-diagonal", 3)),
    "rank-one protocol": (
        _rank_one_form,
        lambda form_psi: protocols.controlled_gate_protocol(*form_psi),
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_analysis_runs_without_dense_kron_or_partial_trace(name, monkeypatch):
    build, call = CALLS[name]
    inputs = build()
    _forbid_dense_kron(monkeypatch)
    result = call(inputs)
    if name == "is_controlled":
        assert result.controlled
    elif name == "is_bcu":
        assert result.bcu
    elif name == "sch2-fuzz":
        assert result.ok
    elif name == "rank-one protocol":
        assert result[0].min_branch_fidelity == pytest.approx(1.0, abs=1e-12)


def _forbid_dense_form(monkeypatch):
    def operator(self):
        raise AssertionError("ControlledForm.operator called")

    monkeypatch.setattr(control.ControlledForm, "operator", operator)


def _rc_witness(d_ctrl, d_tgt, r, seed):
    u, layout = _rc(d_ctrl, d_tgt, r, seed)
    return control.is_controlled(u, layout, (0,)).form, random_state(d_ctrl * d_tgt, make_rng(seed))


def _cli_run(tmp_path, *argv):
    u, layout = _rc(4, 4, 3, 1)
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(mx.matrix_to_json(u, layout.dims)))
    return cli.main([argv[0], str(path), *argv[1:]])


FORM_CALLS = {
    "is_controlled 4x4": (lambda: _rc(4, 4, 3, 1), lambda u_lay: control.is_controlled(*u_lay, (0,))),
    "is_controlled 16x16": (lambda: _rc(16, 16, 3, 2), lambda u_lay: control.is_controlled(*u_lay, (0,))),
    "multipartite u3": (gates.u3, lambda u_lay: control.multipartite_control_analysis(*u_lay)),
    "protocol rc 8x8": (
        lambda: _rc_witness(8, 8, 3, 1),
        lambda form_psi: protocols.controlled_gate_protocol(*form_psi),
    ),
    **{
        f"fuzz {suite}": (lambda: None, lambda _, suite=suite: control.fuzz_theorem_checks(suite, 2))
        for suite in control.FUZZ_SUITES
    },
    "cli detect": (lambda: None, lambda _, tmp: _cli_run(tmp, "detect", "--side", "A")),
    "cli protocol": (lambda: None, lambda _, tmp: _cli_run(tmp, "protocol", "--route", "controlled")),
}


@pytest.mark.parametrize("name", sorted(FORM_CALLS))
def test_controlled_forms_are_checked_and_applied_through_their_factors(
    name, monkeypatch, tmp_path, capsys
):
    build, call = FORM_CALLS[name]
    inputs = build()
    _forbid_dense_form(monkeypatch)
    result = call(inputs, tmp_path) if name.startswith("cli") else call(inputs)
    if name.startswith("is_controlled"):
        assert result.controlled
    elif name.startswith("multipartite"):
        assert result.witness_subset == (0, 1)
    elif name.startswith("protocol"):
        assert result[0].min_branch_fidelity == pytest.approx(1.0, abs=1e-12)
    elif name.startswith("fuzz"):
        assert result.ok
    else:
        assert result == 0, capsys.readouterr().out


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residual_holds_no_full_size_array():
    # the dense formula operator() - grouped peaks at three gate-sized arrays; the cut's expansion
    # and SVD are read before the trace starts
    u, layout = _rc(24, 24, 3, 5)
    form = control.is_controlled(u, layout, (0,)).form
    cut = schmidt.Cut.of(u, layout, (0,))
    cut.expansion
    assert _peak(lambda: form.residual(cut)) <= 0.25 * u.nbytes


def test_product_routes_hold_no_full_size_array():
    # blocks, their check and the residual of a 32x32 rank-3 cut, from its expansion alone
    u, layout = _rc(32, 32, 3, 1)
    cut = schmidt.Cut.of(u, layout, (0,))
    factors = mx._stacked([control._cut_factors(cut)])
    norm_u = mx.frobenius_norm(u)
    routes = []
    assert _peak(lambda: routes.extend(control._product_routes([cut], factors, norm_u, 1e-8))) < 0.25 * u.nbytes
    assert routes[0][2] is not None and routes[0][0] <= 1e-8


def test_split_check_holds_no_full_size_array():
    # partners, idempotency and capture bound of a 24x24 rank-3 cut, from its expansion and SVD alone
    u, layout = _rc(24, 24, 3, 5)
    cut = schmidt.Cut.of(u, layout, (0,))
    cut.expansion
    basis = haar_unitary(24, make_rng(6))
    projectors = [basis[:, :12] @ basis[:, :12].conj().T, basis[:, 12:] @ basis[:, 12:].conj().T]
    assert _peak(lambda: control._split_attempt(cut, projectors)) < 0.25 * u.nbytes


def test_an_expansion_holds_no_full_size_array():
    # the expansion reads the cut's SVD alone: with the realignment gone it gives a fresh cut's bytes
    u, layout = _rc(24, 24, 3, 5)
    cut = schmidt.Cut.of(u, layout, (0,))
    cut.svd
    object.__setattr__(cut, "realigned", None)
    assert _peak(lambda: cut.expansion) < 0.25 * u.nbytes
    fresh = schmidt.Cut.of(u, layout, (0,)).expansion
    assert [a.tobytes() for a in cut.expansion] == [a.tobytes() for a in fresh]
