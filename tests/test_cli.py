"""Command-line surface: JSON out, human text on stderr, exit codes as verdicts.

Exit codes separate "the math says no" (1) from "the input is bad" (2),
with 4 reserved for near-miss verdicts and 3 for numerical failures, so
pipelines can branch on outcomes without parsing.  Standard output must
be a single JSON object, byte-identical across runs for fixed seeds.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from schmidt_lab import gates
from schmidt_lab import matrices as mx
from schmidt_lab.cli import main
from schmidt_lab.randomness import make_rng, random_hermitian

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
        assert "products" in payload["failed_check"]

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

    def test_controlled_route_refuses_uncontrolled_gates(self, capsys, swap_path):
        code, out, _ = _run(capsys, "protocol", "--route", "controlled", swap_path)
        assert code == 1
        data, payload = _payload(out)
        assert data["status"] == "verdict-negative"
        assert payload["controlled"] is False

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

    def test_unknown_suite_is_invalid(self, capsys):
        code, out, _ = _run(capsys, "fuzz", "--theorem", "perpetual-motion", "--trials", "1")
        assert code == 2


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

    def test_side_letters_require_two_systems(self, capsys, u3_path):
        code, out, _ = _run(capsys, "detect", u3_path, "--side", "A")
        assert code == 2
        assert json.loads(out)["status"] == "error"
