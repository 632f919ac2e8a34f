"""The analysis layers apply local operators without dense Kronecker factors.

``schmidt``, ``algebra``, ``control`` and ``protocols`` work through the
realignment rule and reshaped contractions that ``matrices`` owns, and form
no full-size product only to trace it down. Each call below runs with
``np.kron`` refusing those four modules and ``matrices.partial_trace``
refusing everyone; gates are built first, and gate construction keeps its
krons.
"""

import sys

import numpy as np
import pytest

from schmidt_lab import algebra, control, gates, protocols, schmidt
from schmidt_lab import matrices as mx
from schmidt_lab.randomness import haar_unitary, make_rng

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
