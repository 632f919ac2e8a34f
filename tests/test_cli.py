"""Command-line surface: JSON out, human text on stderr, exit codes as verdicts.

Exit codes separate "the math says no" (1) from "the input is bad" (2),
with 4 reserved for near-miss verdicts and 3 for numerical failures, so
pipelines can branch on outcomes without parsing.  Standard output must
be a single JSON object, byte-identical across runs for fixed seeds.
"""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

import schmidt_lab
from schmidt_lab import cli, control, gates, schmidt, schmidt_number
from schmidt_lab import matrices as mx
from schmidt_lab.cli import main
from schmidt_lab.errors import NumericalError
from schmidt_lab.randomness import haar_unitary, make_rng, random_hermitian, random_state

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


def _assert_str_keys(value, where="payload"):
    if isinstance(value, dict):
        for key, item in value.items():
            assert isinstance(key, str), f"{where} has a non-str key {key!r}"
            _assert_str_keys(item, f"{where}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _assert_str_keys(item, f"{where}[{i}]")


@pytest.fixture(autouse=True)
def payload_keys_are_str(monkeypatch):
    """Every payload a command emits keys its dicts by str.

    ``json`` sorts keys before it converts them, so a non-str key would sort
    differently from its string form.
    """
    emit = cli._emit

    def checked_emit(result):
        _assert_str_keys(result.payload)
        return emit(result)

    monkeypatch.setattr(cli, "_emit", checked_emit)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(out):
    data = json.loads(out)
    return data, data.get("payload")


def _write_matrix(tmp_path, name, m, dims):
    path = tmp_path / name
    path.write_text(json.dumps(mx.matrix_to_json(m, dims)))
    return str(path)


def _write_state(tmp_path, name, v, dims):
    path = tmp_path / name
    path.write_text(json.dumps(mx.state_to_json(v, dims)))
    return str(path)


@pytest.fixture
def cnot_path(tmp_path):
    return _write_matrix(tmp_path, "cnot.json", CNOT, (2, 2))


@pytest.fixture
def swap_path(tmp_path):
    swap, layout = gates.swap_gate()
    return _write_matrix(tmp_path, "swap.json", swap, layout.dims)


@pytest.fixture
def u3_path(tmp_path):
    u, layout = gates.u3()
    return _write_matrix(tmp_path, "u3.json", u, layout.dims)


class TestDecompose:
    def test_swap_has_rank_four(self, capsys, swap_path):
        code, out, err = _run(capsys, "decompose", swap_path, "--cut", "0")
        assert code == 0
        data, payload = _payload(out)
        assert data["status"] == "ok"
        assert payload["rank"] == 4
        squares = sum(c * c for c in payload["coefficients"])
        assert squares == pytest.approx(4.0, abs=1e-9)
        assert "rank 4" in err

    def test_full_cut_is_invalid(self, capsys, swap_path):
        code, out, _ = _run(capsys, "decompose", swap_path, "--cut", "0,1")
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "error"
        assert "payload" not in data

    def test_missing_file_is_invalid(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "decompose", str(tmp_path / "nope.json"))
        assert code == 2
        assert json.loads(out)["status"] == "error"

    def test_loose_tol_truncates_a_near_low_rank_gate(self, capsys, tmp_path):
        h = random_hermitian(4, make_rng(5))
        dressed = scipy.linalg.expm(1e-6j * h) @ CNOT
        path = _write_matrix(tmp_path, "near.json", dressed, (2, 2))
        code, out, _ = _run(capsys, "decompose", path, "--tol", "1e-3")
        assert code == 0
        data, payload = _payload(out)
        assert data["status"] == "ok"
        assert payload["rank"] == 2

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("data", [None, 0.0], "data[5]"),
            ("data", [[1.0, 0.0], 0.0], "data[5]"),
            ("data", {"re": 1.0, "im": 0.0}, "data[5]"),
            ("rows", None, "rows"),
            ("dims", 4, "dims"),
            ("dims", [2, None], "dims"),
            ("dims", "22", "dims"),
            ("dims", [2.9, 2.2], "dims"),
            ("dims", [True, 4], "dims"),
            ("rows", 4.5, "rows and cols"),
            ("cols", "4", "rows and cols"),
        ],
    )
    def test_malformed_file_is_invalid(self, capsys, tmp_path, field, value, named):
        obj = mx.matrix_to_json(CNOT, (2, 2))
        if field == "data":
            obj["data"][5] = value
        else:
            obj[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = _run(capsys, "decompose", str(path))
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "error"
        assert data["diagnostics"][0].startswith(f"invalid input: {named}")
        assert "invalid input" in err


@pytest.mark.parametrize(
    "cut, message",
    [
        ("", "system subset must be nonempty"),
        ("3", "system index 3 out of range for 3 systems"),
        ("0,1,2", "grouped subset must be a strict subset of the systems"),
    ],
    ids=["empty", "out-of-range", "full"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["decompose", "--cut"],
        ["detect", "--side"],
        ["detect", "--bcu", "--side"],
        ["schmidt-number", "--restarts", "1", "--cut"],
        ["schmidt-number", "--ancilla", "--cut"],
        ["protocol", "--route", "controlled", "--side"],
    ],
    ids=["decompose", "detect", "detect-bcu", "schmidt-number", "schmidt-number-ancilla", "protocol"],
)
def test_every_cut_command_refuses_an_invalid_cut(capsys, u3_path, command, cut, message):
    code, out, _ = _run(capsys, command[0], u3_path, *command[1:], cut)
    assert code == 2
    assert json.loads(out)["diagnostics"] == [f"invalid input: {message}"]


class TestDetect:
    def test_cnot_side_a_is_controlled(self, capsys, cnot_path):
        code, out, _ = _run(capsys, "detect", cnot_path, "--side", "A")
        assert code == 0
        data, payload = _payload(out)
        assert data["status"] == "ok"
        assert payload["controlled"] is True
        assert payload["schmidt_rank"] == 2
        blocks = [mx.matrix_from_json(b)[0] for b in payload["blocks"]]
        assert len(blocks) == 2
        # the two blocks are the identity and the flip, up to phases
        patterns = sorted(tuple(np.argmax(np.abs(b), axis=1)) for b in blocks)
        assert patterns == [(0, 1), (1, 0)]

    def test_three_qubit_singleton_is_negative(self, capsys, u3_path):
        code, out, _ = _run(capsys, "detect", u3_path, "--side", "1")
        assert code == 1
        data, payload = _payload(out)
        assert data["status"] == "verdict-negative"
        assert payload["controlled"] is False
        # one of u3's three equal Schmidt coefficients lies past the two control levels
        assert payload["failed_check"] == "Schmidt rank exceeds the control dimension (distance 5.774e-01)"
        assert payload["violation"] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_three_qubit_pair_is_positive(self, capsys, u3_path):
        code, out, _ = _run(capsys, "detect", u3_path, "--side", "0,1")
        assert code == 0
        _, payload = _payload(out)
        assert payload["schmidt_rank"] == 3

    def test_near_miss_is_inconclusive(self, capsys, tmp_path):
        h = random_hermitian(4, make_rng(99))
        dressed = scipy.linalg.expm(1e-6j * h) @ CNOT
        path = _write_matrix(tmp_path, "near.json", dressed, (2, 2))
        code, out, _ = _run(capsys, "detect", path, "--side", "0")
        assert code == 4
        data, payload = _payload(out)
        assert data["status"] == "inconclusive"
        assert payload["inconclusive"] is True

    def test_bcu_flag(self, capsys, swap_path, cnot_path):
        code, out, _ = _run(capsys, "detect", swap_path, "--bcu", "--side", "0")
        assert code == 1
        _, payload = _payload(out)
        assert payload["bcu"] is False
        code, out, _ = _run(capsys, "detect", cnot_path, "--bcu", "--side", "0")
        assert code == 0
        _, payload = _payload(out)
        assert payload["bcu"] is True

    def test_product_families_over_the_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        # on an 8x2 cut the 4 factors fit the 8 control levels, so the families form
        path = _write_matrix(tmp_path, "haar.json", haar_unitary(16, make_rng(5)), (8, 2))
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
        code, out, _ = _run(capsys, "detect", path, "--side", "0")
        assert code == 2
        data, _ = _payload(out)
        assert data["status"] == "error"
        assert "product families of 2048 entries" in data["diagnostics"][0]

    def test_out_of_memory_is_a_failure_not_a_verdict(self, capsys, cnot_path, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 3.00 GiB")

        monkeypatch.setattr(cli, "_cmd_detect", exhausted)
        code, out, _ = _run(capsys, "detect", cnot_path, "--side", "0")
        assert code == 3
        data, payload = _payload(out)
        assert data["status"] == "error" and payload is None
        assert "out of memory" in data["diagnostics"][0]

    @pytest.mark.parametrize(
        "argv, side",
        [
            (("detect", "--side", "1,0"), [0, 1]),
            (("detect", "--bcu", "--side", "1,0"), [0, 1]),
            (("detect", "--side", "0,0"), [0]),
            (("detect", "--bcu", "--side", "0,0"), [0]),
            (("protocol", "--route", "controlled", "--side", "0,0"), [0]),
        ],
    )
    def test_prints_the_cut_it_analyzed(self, capsys, u3_path, argv, side):
        code, out, err = _run(capsys, argv[0], u3_path, *argv[1:])
        assert code in (0, 1)
        data, payload = _payload(out)
        assert payload["side"] == side
        assert data["diagnostics"][0].startswith(f"side {side}: ")
        assert err.startswith(f"side {side}: ")

    def test_verbose_echoes_the_input(self, capsys, cnot_path):
        code, out, _ = _run(capsys, "detect", cnot_path, "--side", "0", "--verbose")
        assert code == 0
        _, payload = _payload(out)
        assert "input" in payload
        code, out, _ = _run(capsys, "detect", cnot_path, "--side", "0")
        _, payload = _payload(out)
        assert "input" not in payload


class TestConstruct:
    def test_roundtrip_reproduces_the_rank(self, capsys, tmp_path):
        target = str(tmp_path / "gate.json")
        code, out, _ = _run(capsys, "construct", "--gate", "u3", "--out", target)
        assert code == 0
        _, payload = _payload(out)
        assert payload["matrix"]["dims"] == [2, 2, 2]
        code, out, _ = _run(capsys, "decompose", target, "--cut", "0")
        assert code == 0
        _, payload = _payload(out)
        assert payload["rank"] == 3

    def test_params_are_forwarded(self, capsys):
        code, out, _ = _run(
            capsys,
            "construct",
            "--gate",
            "random-controlled",
            "--params",
            '{"d_ctrl": 2, "d_tgt": 2, "r": 2, "seed": 5}',
        )
        assert code == 0
        _, payload = _payload(out)
        assert payload["matrix"]["dims"] == [2, 2]

    def test_an_oversized_family_is_refused_before_its_layout_grows(self, capsys, monkeypatch):
        monkeypatch.delenv("SCHMIDT_LAB_MAX_DIM", raising=False)
        start = time.perf_counter()
        code, out, err = _run(capsys, "construct", "--gate", "u-odd-n", "--params", '{"n": 200001}')
        assert time.perf_counter() - start < 0.5
        assert code == 2
        diagnostic = json.loads(out)["diagnostics"][0]
        assert "exceeds the configured cap 4096" in diagnostic
        assert "integer string conversion" not in out + err

    @pytest.mark.parametrize(
        "gate, params", [("pauli", '{"i": true}'), ("u-odd-n", '{"n": 5.0}'), ("u-odd-n", '{"n": "5"}')]
    )
    def test_a_parameter_that_is_not_an_integer_is_invalid(self, capsys, gate, params):
        # a bool would build sigma_1 from {"i": true}; a float or a string would fail deep in the builder
        code, out, _ = _run(capsys, "construct", "--gate", gate, "--params", params)
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "error"
        assert "gate parameters must be integers" in data["diagnostics"][0]

    def test_unknown_gate_is_invalid(self, capsys):
        code, out, _ = _run(capsys, "construct", "--gate", "warp-drive")
        assert code == 2
        assert json.loads(out)["status"] == "error"


class TestProtocol:
    def test_teleport_route(self, capsys, cnot_path, tmp_path):
        state = _write_state(tmp_path, "in.json", np.kron(PLUS, ZERO), (2, 2))
        code, out, _ = _run(capsys, "protocol", "--route", "teleport", cnot_path, "--input", state)
        assert code == 0
        _, payload = _payload(out)
        assert payload["transcript"]["ebits_consumed"] == 2.0
        assert payload["transcript"]["min_branch_fidelity"] >= 1.0 - 1e-10
        assert payload["verification"]["ok"] is True

    def test_controlled_route(self, capsys, cnot_path, tmp_path):
        state = _write_state(tmp_path, "in.json", np.kron(PLUS, ZERO), (2, 2))
        code, out, _ = _run(capsys, "protocol", "--route", "controlled", cnot_path, "--input", state)
        assert code == 0
        _, payload = _payload(out)
        assert payload["transcript"]["resource_rank"] == 2
        assert payload["transcript"]["ebits_consumed"] == 1.0

    def test_malformed_state_entry_is_invalid(self, capsys, cnot_path, tmp_path):
        obj = mx.state_to_json(np.kron(PLUS, ZERO), (2, 2))
        obj["amplitudes"][1] = [None, 0.0]
        path = tmp_path / "bad-state.json"
        path.write_text(json.dumps(obj))
        code, out, _ = _run(capsys, "protocol", cnot_path, "--route", "teleport", "--input", str(path))
        assert code == 2
        assert json.loads(out)["diagnostics"][0].startswith("invalid input: amplitudes[1]")

    @pytest.mark.parametrize("dims", ["22", [2.9, 2.2], [True, 4]])
    def test_malformed_state_dims_are_invalid(self, capsys, cnot_path, tmp_path, dims):
        obj = dict(mx.state_to_json(np.kron(PLUS, ZERO), (2, 2)), dims=dims)
        path = tmp_path / "bad-state.json"
        path.write_text(json.dumps(obj))
        code, out, _ = _run(capsys, "protocol", cnot_path, "--route", "teleport", "--input", str(path))
        assert code == 2
        assert json.loads(out)["diagnostics"][0].startswith("invalid input: dims")

    @pytest.mark.parametrize("route", ["teleport", "controlled"])
    def test_a_state_on_other_dims_is_invalid(self, capsys, tmp_path, route):
        # a [3, 2] state has the total of a [2, 3] gate; its amplitudes were read in the gate's layout
        u, layout = gates.random_controlled_unitary(2, 3, 2, seed=0)
        gate = _write_matrix(tmp_path, "g.json", u, layout.dims)
        state = _write_state(tmp_path, "in.json", random_state(6, make_rng(1)), (3, 2))
        code, out, _ = _run(capsys, "protocol", gate, "--route", route, "--input", state)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            "invalid input: input state dims (3, 2) do not match gate dims (2, 3)"
        ]
        state = _write_state(tmp_path, "in.json", random_state(6, make_rng(1)), (2, 3))
        assert _run(capsys, "protocol", gate, "--route", route, "--input", state)[0] == 0

    def test_a_teleportation_table_past_the_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        # a 4x4 gate's table holds 4^5 * 4 entries, past the budget 2 * 16^2 of cap 16
        path = _write_matrix(tmp_path, "haar.json", haar_unitary(16, make_rng(3)), (4, 4))
        monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
        for sampled in ((), ("--branches", "10")):
            code, out, _ = _run(capsys, "protocol", path, "--route", "teleport", *sampled)
            assert code == 2
            assert json.loads(out) == {
                "status": "error",
                "diagnostics": ["invalid input: teleportation branch table of 4096 entries exceeds the budget 2 * 16^2"],
            }

    def test_controlled_route_refuses_uncontrolled_gates(self, capsys, swap_path, tmp_path):
        code, out, _ = _run(capsys, "protocol", "--route", "controlled", swap_path)
        assert code == 1
        data, payload = _payload(out)
        assert data["status"] == "verdict-negative"
        assert payload["controlled"] is False
        # the refusal is detect's verdict, envelope and exit code included, on a refuted gate and a near miss
        dressed = scipy.linalg.expm(1e-6j * random_hermitian(4, make_rng(99))) @ CNOT
        near = _write_matrix(tmp_path, "near.json", dressed, (2, 2))
        for path, exit_code in ((swap_path, 1), (near, 4)):
            refused = _run(capsys, "protocol", "--route", "controlled", path)
            assert refused[:2] == _run(capsys, "detect", path, "--side", "0")[:2]
            assert refused[0] == exit_code and "violation" in _payload(refused[1])[1]

    def test_cost_route(self, capsys, tmp_path):
        path = _write_matrix(tmp_path, "eye.json", np.eye(6, dtype=complex), (2, 3))
        code, out, _ = _run(capsys, "protocol", "--route", "cost", path)
        assert code == 0
        _, payload = _payload(out)
        assert payload["k"] == 3
        assert payload["route"] == "controlled"
        assert payload["ebits"] == pytest.approx(1.584962500721156, abs=1e-15)
        code, out, _ = _run(capsys, "protocol", "--route", "cost", path, "--terms", "2")
        assert code == 0
        _, payload = _payload(out)
        assert payload["k"] == 2


class TestSchmidtNumber:
    def test_search_finds_two_for_cnot(self, capsys, cnot_path):
        code, out, _ = _run(capsys, "schmidt-number", cnot_path, "--seed", "3")
        assert code == 0
        _, payload = _payload(out)
        assert payload["max_rank"] == 2
        assert len(payload["witness"]) == 2

    def test_an_absent_restarts_flag_runs_the_library_default(self, capsys, cnot_path, monkeypatch):
        # the search reads one rank per restart; reading 0 keeps it below its cap, so no restart stops it early
        ranks = []
        monkeypatch.setattr(schmidt_number, "numerical_rank", lambda s, tol: ranks.append(tol) or 0)
        for argv, restarts in (((), schmidt_number.SEARCH_RESTARTS), (("--restarts", "3"), 3)):
            ranks.clear()
            assert _run(capsys, "schmidt-number", cnot_path, *argv)[0] == 0
            assert len(ranks) == restarts
        assert schmidt_number.SEARCH_RESTARTS == 64

    def test_ancilla_mode(self, capsys, cnot_path):
        code, out, _ = _run(capsys, "schmidt-number", cnot_path, "--ancilla")
        assert code == 0
        _, payload = _payload(out)
        assert payload["rank_with_ancillas"] == 2
        assert payload["matches"] is True


class TestFuzz:
    def test_small_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "fuzz", "--theorem", "sch3", "--trials", "3", "--seed", "11")
        assert code == 0
        _, payload = _payload(out)
        assert payload["passes"] == 3
        assert payload["ok"] is True

    def test_the_help_lists_every_suite_in_order(self, capsys):
        code, out, _ = _run(capsys, "fuzz", "--help")
        assert code == 0
        assert f"one of {', '.join(control.FUZZ_SUITES)}" in " ".join(out.split())
        assert tuple(control._FUZZ_RUNNERS) == control.FUZZ_SUITES == ("sch3", "sch2-diagonal", "multi", "even-qubit")

    def test_unknown_suite_is_invalid(self, capsys):
        code, out, _ = _run(capsys, "fuzz", "--theorem", "perpetual-motion", "--trials", "1")
        assert code == 2

    def test_a_failing_trial_is_a_negative_verdict_with_its_counterexample(self, capsys, monkeypatch):
        def odd_trials_fail(trial, trial_seed):
            return (CNOT, (2, 2), "forced") if trial % 2 else (np.eye(4, dtype=complex), (2, 2), None)

        monkeypatch.setitem(control._FUZZ_RUNNERS, "sch3", odd_trials_fail)
        code, out, _ = _run(capsys, "fuzz", "--theorem", "sch3", "--trials", "5")
        assert code == 1
        data, payload = _payload(out)
        assert data["status"] == "verdict-negative"
        assert payload["failures"] == ["trial 1: forced", "trial 3: forced"]
        assert payload["passes"] == payload["trials"] - len(payload["failures"]) == 3
        assert payload["ok"] is False
        assert payload["first_counterexample_dims"] == [2, 2]
        assert "first_counterexample" not in payload
        code, out, _ = _run(capsys, "fuzz", "--theorem", "sch3", "--trials", "5", "--verbose")
        assert code == 1
        assert _payload(out)[1]["first_counterexample"] == mx.matrix_to_json(CNOT, (2, 2))


class TestPlumbing:
    def test_fixed_seeds_give_byte_identical_output(self, capsys, cnot_path):
        _, out1, _ = _run(capsys, "detect", cnot_path, "--side", "0")
        _, out2, _ = _run(capsys, "detect", cnot_path, "--side", "0")
        assert out1 == out2
        _, out1, _ = _run(capsys, "fuzz", "--theorem", "sch2-diagonal", "--trials", "2", "--seed", "4")
        _, out2, _ = _run(capsys, "fuzz", "--theorem", "sch2-diagonal", "--trials", "2", "--seed", "4")
        assert out1 == out2
        for route_args in (("teleport", "--branches", "3"), ("controlled",)):
            argv = ("protocol", cnot_path, "--route", *route_args, "--seed", "4")
            _, out1, _ = _run(capsys, *argv)
            _, out2, _ = _run(capsys, *argv)
            assert out1 == out2

    def test_unknown_flags_are_rejected(self, capsys, cnot_path):
        code, _, _ = _run(capsys, "decompose", cnot_path, "--warp")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decompose", "CNOT", "--warp"), "unrecognized arguments: --warp"),
            (("protocol", "CNOT"), "the following arguments are required: --route"),
            (("fuzz", "--trials", "x"), "argument --trials: invalid int value: 'x'"),
            ((), "the following arguments are required: command"),
        ],
    )
    def test_a_usage_error_prints_one_envelope(self, capsys, cnot_path, argv, message):
        code, out, err = _run(capsys, *[cnot_path if arg == "CNOT" else arg for arg in argv])
        assert code == 2
        assert json.loads(out) == {"status": "error", "diagnostics": [f"invalid input: {message}"]}
        assert err == f"invalid input: {message}\n"

    def test_help_keeps_its_text_on_stdout(self, capsys):
        for argv in (("--help",), ("detect", "--help")):
            code, out, _ = _run(capsys, *argv)
            assert code == 0
            assert out.startswith("usage: schmidt-lab")

    def test_a_library_failure_inside_a_command_exits_3(self, capsys, cnot_path, monkeypatch):
        def fails(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(schmidt, "operator_schmidt_decompose", fails)
        code, out, err = _run(capsys, "decompose", cnot_path)
        assert code == 3
        data, payload = _payload(out)
        assert data == {"status": "error", "diagnostics": ["computation failed: forced"]}
        assert payload is None
        assert err == "computation failed: forced\n"

    def test_a_result_status_is_read_off_its_exit_code(self):
        assert "status" not in {field.name for field in dataclasses.fields(cli.CommandResult)}
        statuses = [cli.CommandResult(None, [], code).status for code in range(5)]
        assert statuses == ["ok", "verdict-negative", "error", "error", "inconclusive"]

    @pytest.mark.parametrize("argv", [("construct", "--gate", "u3"), ("schmidt-number", "CNOT", "--ancilla")])
    def test_verbose_is_refused_where_nothing_reads_it(self, capsys, cnot_path, argv):
        argv = [cnot_path if arg == "CNOT" else arg for arg in argv]
        assert _run(capsys, *argv)[0] == 0
        assert _run(capsys, *argv, "--verbose")[0] == 2

    def test_side_letters_require_two_systems(self, capsys, u3_path):
        code, out, _ = _run(capsys, "detect", u3_path, "--side", "A")
        assert code == 2
        assert json.loads(out)["status"] == "error"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1"])
    @pytest.mark.parametrize(
        "command", ["decompose", "detect", "detect --bcu", "schmidt-number --ancilla"]
    )
    def test_tol_outside_the_unit_interval_is_invalid(self, capsys, tmp_path, command, tol):
        # each of these once gave a wrong answer instead of an error: a clean
        # gate inconclusive, rank 0 "matching", or rank 9 from roundoff
        u, layout = gates.random_controlled_unitary(3, 3, 3, seed=1)
        path = _write_matrix(tmp_path, "rc.json", u, layout.dims)
        name, *flags = command.split()
        code, out, _ = _run(capsys, name, path, *flags, "--tol", tol)
        assert code == 2
        data = json.loads(out)
        assert data["status"] == "error"
        assert "--tol" in data["diagnostics"][0]


def _reference_json_ready(value):
    """The recursive payload walk the CLI used before its ``json`` hook."""
    if isinstance(value, dict):
        return {str(k): _reference_json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_json_ready(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.17g}")
    if isinstance(value, complex):
        return [_reference_json_ready(value.real), _reference_json_ready(value.imag)]
    if isinstance(value, np.ndarray):
        return [_reference_json_ready(v) for v in value.tolist()]
    return value


class TestEmission:
    PAYLOADS = [
        {"x": np.float64(0.1), "y": np.float32(0.1), "n": np.int64(-7), "b": True, "none": None},
        {"z": 1.5 - 2.25j, "w": np.complex128(-0.0 + 1e-300j), "s": "text"},
        {"real1": np.linspace(-1.0, 1.0, 7), "real2": np.arange(6.0).reshape(2, 3) / 7.0},
        {"cplx1": np.exp(1j * np.arange(5)), "cplx2": np.exp(1j * np.arange(6)).reshape(3, 2)},
        {"ints": np.arange(4), "tuple": (1, 2.5, (np.float64(3.0), "a")), "list": [np.int64(1), 0.5]},
        {"outer": {"inner": {"deep": [np.float64(1 / 3), {"k": np.float32(2.5)}]}}, "a": {"b": []}},
        {"neg_zero": -0.0, "np_neg_zero": np.float64(-0.0), "cplx_neg_zero": complex(-0.0, -0.0)},
        {"subnormal": 5e-324, "np_subnormal": np.float64(2.2250738585072e-310)},
        {"nan": float("nan"), "np_nan": np.float64("nan"), "nan_array": np.array([np.nan, 1.0])},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_matches_the_reference_walk(self, payload):
        assert cli._dumps(payload) == json.dumps(_reference_json_ready(payload), sort_keys=True)

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError):
            cli._dumps({"x": object()})


def _run_python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(schmidt_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cold_import_leaves_scipy_unloaded():
    assert _run_python("import sys, schmidt_lab, schmidt_lab.cli; print('scipy' in sys.modules)") == "False"


# what ``import schmidt_lab.cli`` loads, and what each command adds to it
CLI_MODULES = {"schmidt_lab", "schmidt_lab.cli", "schmidt_lab.config", "schmidt_lab.errors", "schmidt_lab.matrices"}
SCHMIDT_MODULES = {"randomness", "factorizations", "schmidt"}
DETECTOR_MODULES = SCHMIDT_MODULES | {"gates", "algebra", "control"}
COMMAND_MODULES = {
    ("construct", "--gate", "u3"): {"randomness", "factorizations", "gates"},
    ("decompose", "CNOT"): SCHMIDT_MODULES,
    ("detect", "CNOT"): DETECTOR_MODULES,
    ("detect", "CNOT", "--bcu"): DETECTOR_MODULES,
    ("protocol", "CNOT", "--route", "cost"): {"randomness", "protocols"},
    ("protocol", "CNOT", "--route", "teleport"): {"randomness", "protocols"},
    ("protocol", "CNOT", "--route", "controlled"): DETECTOR_MODULES | {"protocols"},
    ("schmidt-number", "CNOT"): SCHMIDT_MODULES | {"schmidt_number"},
    ("schmidt-number", "CNOT", "--ancilla"): SCHMIDT_MODULES | {"schmidt_number"},
    ("fuzz", "--theorem", "sch3", "--trials", "1"): DETECTOR_MODULES,
}


def _loaded_after(statements: str) -> set:
    """The ``schmidt_lab`` modules a fresh interpreter holds after it runs ``statements`` with stdout sunk."""
    code = f"""
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec({statements!r})
print(*(name for name in sys.modules if name.startswith("schmidt_lab")))
"""
    return set(_run_python(code).split())


def test_a_bare_import_loads_no_submodule():
    assert _loaded_after("import schmidt_lab") == {"schmidt_lab"}
    assert _loaded_after("import schmidt_lab.cli") == CLI_MODULES


def test_each_command_loads_only_the_modules_it_runs(cnot_path):
    runs = [
        f"from schmidt_lab import cli\nassert cli.main({[cnot_path if arg == 'CNOT' else arg for arg in argv]!r}) == 0"
        for argv in COMMAND_MODULES
    ]
    with ThreadPoolExecutor(2) as pool:  # one fresh interpreter per command, two at a time
        loaded = dict(zip(COMMAND_MODULES, pool.map(_loaded_after, runs)))
    assert loaded == {argv: CLI_MODULES | {f"schmidt_lab.{name}" for name in modules} for argv, modules in COMMAND_MODULES.items()}


def test_the_library_runs_with_scipy_blocked():
    # scipy is a test dependency: every library path, completions included, runs without it
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from schmidt_lab import algebra, control, gates, protocols

dec, v = algebra.normal_split(np.diag([1.0, 2.0, 0.0]).astype(complex))
assert np.allclose(v.conj().T @ v, np.eye(3))
# no member reaches the last row, so the right basis needs a completion
assert algebra.simultaneous_svd([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 2.0, 0.0])]).ok
u, layout = gates.random_controlled_unitary(3, 3, 3, seed=1)
verdict = control.is_controlled(u, layout, (0,))
assert verdict.controlled and control.is_bcu(u, layout, (0,)).bcu
u3, layout3 = gates.u3()
assert control.multipartite_control_analysis(u3, layout3).witness_subset == (0, 1)
psi = np.zeros(9, dtype=complex)
psi[0] = 1.0
transcript, _ = protocols.controlled_gate_protocol(verdict.form, psi, seed=0)
assert transcript.min_branch_fidelity >= 1.0 - 1e-10
print("ok")
"""
    assert _run_python(code) == "ok"


def _stdout_set():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "cli_stdout_set.py")
    spec = importlib.util.spec_from_file_location("cli_stdout_set", path)
    stdout_set = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stdout_set)
    return stdout_set


def test_the_stdout_set_covers_every_subcommand_and_route():
    # tools/cli_stdout_set.py is the command list that byte-identical output is checked over
    stdout_set = _stdout_set()
    argvs = stdout_set.commands()
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in argvs} - {"--help"} == set(commands.choices)
    # every help text, so the golden pins it byte for byte
    assert [argv for argv in argvs if "--help" in argv] == [["--help"]] + [[command, "--help"] for command in commands.choices]
    (route,) = [a for a in commands.choices["protocol"]._actions if a.dest == "route"]
    routes = {argv[argv.index("--route") + 1] for argv in argvs if "--route" in argv}
    assert routes == set(route.choices)
    written = [*stdout_set.gate_files(), *stdout_set.state_files(), *stdout_set.refused_entry_files()]
    files = {f"$T/{name}" for name in written}
    # a file no command writes, one that construct --out writes, and one that does not parse
    unlisted = {"$T/missing.json", "$T/u3-out.json", f"$T/{stdout_set.INVALID_JSON}"}
    assert {arg for argv in argvs for arg in argv if arg.startswith("$T/")} - files == unlisted
    # a Haar gate refuted by its Schmidt tail, and a far gate with too few factors for that rule
    for name in ("haar-4x4", "few-factors-far-6x6"):
        assert ["detect", f"$T/{name}.json", "--side", "A"] in argvs
    assert f"{len(argvs)} commands." in stdout_set.__doc__


@pytest.fixture(scope="module")
def stdout_set_run(tmp_path_factory):
    """The stdout set's rows, run in a child on one BLAS thread, as its golden was written."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(schmidt_lab.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, _stdout_set().__file__], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    path = tmp_path_factory.mktemp("stdout-set") / "set.jsonl"
    path.write_text(done.stdout)
    return path


def test_every_stdout_and_exit_code_matches_the_golden(stdout_set_run, capsys):
    stdout_set = _stdout_set()
    code = stdout_set.main(["--compare", str(stdout_set.GOLDEN), str(stdout_set_run)])
    report = capsys.readouterr().out
    assert code == 0, report
    assert report == f"0 of {len(stdout_set.commands())} commands differ\n"


def test_the_golden_check_names_a_moved_stdout_and_exit_code(stdout_set_run, tmp_path, capsys):
    stdout_set = _stdout_set()
    rows = [json.loads(line) for line in stdout_set_run.read_text().splitlines()]
    detect, decompose = (next(row for row in rows if row[0][0] == command) for command in ("detect", "decompose"))
    decompose[2] = decompose[2].replace('"rank": ', '"rank": 1', 1)
    detect[1] = 4
    moved = tmp_path / "moved.jsonl"
    moved.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert stdout_set.main(["--compare", str(stdout_set.GOLDEN), str(moved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{' '.join(detect[0])}: exit 0 -> 4",
        f"{' '.join(decompose[0])}: stdout differs",
        f"2 of {len(rows)} commands differ",
    ]


def test_the_stdout_set_comparison_names_each_moved_command(tmp_path, capsys):
    stdout_set = _stdout_set()
    parent = [
        [["detect", "$T/a.json"], 0, '{"violation": 0.5, "rank": 3}\n'],
        [["detect", "$T/b.json"], 1, "refuted (distance 6.402e-01)\n"],
        [["decompose", "$T/a.json"], 0, "rank 3\n"],
        [["fuzz"], 0, "ok\n"],
        [["construct"], 0, "u3\n"],
        [["detect", "$T/c.json"], 0, '{"payload": {"blocks": [[1.0, 2.0]], "q": [1], "violation": 1e-15}}\n'],
    ]
    change = [
        [["detect", "$T/a.json"], 0, '{"violation": 0.5000000000000001, "rank": 3}\n'],
        [["detect", "$T/b.json"], 4, "refuted (distance 6.402e-01)\n"],
        [["decompose", "$T/a.json"], 0, "rank three\n"],
        [["fuzz"], 0, "ok\n"],
        [["schmidt-number"], 0, "1\n"],
        [["detect", "$T/c.json"], 0, '{"payload": {"blocks": [[1.0, 2.5]], "q": [1], "violation": 2e-15}}\n'],
    ]
    paths = []
    for name, lines in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert stdout_set.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "0 of 6 commands differ\n"
    assert stdout_set.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "detect $T/a.json: largest change 1.110e-16 absolute, 2.220e-16 relative; at violation",
        "detect $T/b.json: exit 1 -> 4",
        "decompose $T/a.json: text differs",
        f"construct: only in {paths[0]}",
        "detect $T/c.json: largest change 5.000e-01 absolute, 5.000e-01 relative; at payload.blocks, payload.violation",
        f"schmidt-number: only in {paths[1]}",
        "6 of 7 commands differ",
    ]
