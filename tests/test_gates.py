"""Gate constructors: frozen matrices, unitarity, and structural ranks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from schmidt_lab import gates
from schmidt_lab import matrices as mx
from schmidt_lab.errors import DimensionError
from schmidt_lab.randomness import make_rng, random_state


SWAP = gates.swap_gate()[0]


def realign_rank(u, dims, tol=1e-9):
    """Independent rank oracle: SVD of the realignment, done with raw numpy."""
    s = np.linalg.svd(mx.realign(u, dims), compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0]))


def assert_unitary(u, scale=1e-12):
    d = u.shape[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= scale * math.sqrt(d)


def test_pauli_frozen():
    s0, s1, s2, s3 = (gates.pauli(i)[0] for i in range(4))
    np.testing.assert_array_equal(s0, np.eye(2))
    np.testing.assert_array_equal(s1, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(s2, [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(s3, [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        gates.pauli(4)


def test_swap_frozen():
    u, layout = gates.swap_gate()
    assert layout.dims == (2, 2)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    np.testing.assert_allclose(u, expected, atol=1e-15)
    # half the sum of matching Pauli pairs, recomputed from scratch
    paulis = [gates.pauli(i)[0] for i in range(4)]
    direct = sum(np.kron(p, p) for p in paulis) / 2.0
    np.testing.assert_allclose(u, direct, atol=1e-15)
    assert realign_rank(u, (2, 2)) == 4


def test_u3_frozen_entries_and_rank():
    u, layout = gates.u3()
    assert layout.dims == (2, 2, 2)
    assert_unitary(u)
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    assert u[0, 0] == pytest.approx((1 + 1j) * inv_sqrt3)
    # sigma_1^(x3) contributes only to the anti-diagonal
    assert u[0, 7] == pytest.approx(1j * inv_sqrt3)
    assert realign_rank(u, (2, 4)) == 3
    assert realign_rank(mx.group_systems(u, (2, 2, 2), (2,))[0], (2, 4)) == 3


def test_u_odd_n():
    u3m, _ = gates.u3()
    u, layout = gates.u_odd_n(3)
    np.testing.assert_array_equal(u, u3m)
    u5, layout5 = gates.u_odd_n(5)
    assert layout5.dims == (2,) * 5
    assert_unitary(u5)
    for bad in (1, 2, 4):
        with pytest.raises(ValueError):
            gates.u_odd_n(bad)


def test_four_qubit_example():
    u, layout = gates.four_qubit_example()
    assert layout.dims == (2, 2, 2, 2)
    assert_unitary(u)
    # re-derive from the definition with raw numpy
    swap, _ = gates.swap_gate()
    s3 = gates.pauli(3)[0]
    mask = np.kron(np.eye(2), s3)
    w = mask @ swap @ mask
    direct = (np.kron(swap, swap) + 1j * np.kron(w, w)) / math.sqrt(2.0)
    np.testing.assert_allclose(u, direct, atol=1e-15)
    # single-system cuts have full rank 4, the paired cut has rank 2
    grouped, dims = mx.group_systems(u, layout.dims, (0,))
    assert realign_rank(grouped, dims) == 4
    grouped, dims = mx.group_systems(u, layout.dims, (0, 1))
    assert realign_rank(grouped, dims) == 2


def test_padded_2x2xn():
    u, layout = gates.padded_2x2xn(4)
    assert layout.dims == (2, 2, 4)
    assert_unitary(u)
    u3m, _ = gates.u3()
    # the third system's first two levels carry the three-qubit gate
    sel = [(i * 2 + j) * 4 + k for i in range(2) for j in range(2) for k in range(2)]
    np.testing.assert_allclose(u[np.ix_(sel, sel)], u3m, atol=1e-15)
    # the remaining levels are padded with the identity
    pad = [(i * 2 + j) * 4 + k for i in range(2) for j in range(2) for k in (2, 3)]
    np.testing.assert_allclose(u[np.ix_(pad, pad)], np.eye(8), atol=1e-15)
    np.testing.assert_allclose(u[np.ix_(sel, pad)], 0, atol=1e-15)
    grouped, dims = mx.group_systems(u, layout.dims, (0,))
    assert realign_rank(grouped, dims) == 3
    with pytest.raises(ValueError):
        gates.padded_2x2xn(2)


def test_even_qubit_rank3():
    u, layout = gates.even_qubit_rank3(4)
    assert layout.dims == (2, 2, 2, 2)
    assert_unitary(u)
    u3m, _ = gates.u3()
    np.testing.assert_allclose(u[:8, :8], u3m, atol=1e-15)
    np.testing.assert_allclose(u[8:, 8:], u3m.conj().T, atol=1e-15)
    np.testing.assert_allclose(u[:8, 8:], 0, atol=1e-15)
    grouped, dims = mx.group_systems(u, layout.dims, (0,))
    assert realign_rank(grouped, dims) == 2
    grouped, dims = mx.group_systems(u, layout.dims, (1,))
    assert realign_rank(grouped, dims) == 3
    with pytest.raises(ValueError):
        gates.even_qubit_rank3(3)
    with pytest.raises(ValueError):
        gates.even_qubit_rank3(2)


def test_even_qubit_rank3_checks_only_the_assembled_gate(monkeypatch):
    references = {}
    for n in range(4, 11, 2):
        core, _ = gates.u_odd_n(n - 1)
        references[n] = np.block([[core, np.zeros_like(core)], [np.zeros_like(core), core.conj().T]])
    checked = []
    check = mx.assert_unitary

    def counted(u, *args, **kwargs):
        checked.append(np.shape(u))
        return check(u, *args, **kwargs)

    monkeypatch.setattr(mx, "assert_unitary", counted)
    for n, reference in references.items():
        checked.clear()
        u, _ = gates.even_qubit_rank3(n)
        assert checked == [(2**n, 2**n)]
        assert u.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "build, cap",
    [
        (lambda: gates.random_unitary(65, seed=0), 64),
        (lambda: gates.u_odd_n(7), 64),
        (lambda: gates.padded_2x2xn(17), 64),
        (lambda: gates.even_qubit_rank3(8), 64),
        (lambda: gates.even_qubit_rank3(200_000), 64),
        # the 32 x 32 core fits under the cap, the 64 x 64 gate does not
        (lambda: gates.even_qubit_rank3(6), 48),
        # the 4 x 4 input fits, its 2000 x 2 extension does not
        (lambda: gates.tensor_extension(SWAP, (2, 2), (1000, 1)), 16),
    ],
    ids=[
        "random-unitary", "u-odd-n", "padded-2x2xn", "even-qubit-rank3", "even-qubit-rank3-huge",
        "even-qubit-rank3-core-fits", "tensor-extension",
    ],
)
def test_builders_refuse_over_cap_sizes_before_allocating(monkeypatch, build, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("the gate was built before its layout was checked")

    monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", str(cap))
    monkeypatch.setattr(gates, "haar_unitary", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(DimensionError):
        build()


def test_tensor_extension_refuses_an_input_off_its_layout():
    with pytest.raises(DimensionError, match=r"tensor_extension input has side 4 but layout \(2, 3\) implies 6"):
        gates.tensor_extension(SWAP, (2, 3), (1, 1))


def test_tensor_extension_action():
    cnot = gates.build_gate("random-controlled", d_ctrl=2, d_tgt=2, r=2, seed=5)[0]
    ext, layout = gates.tensor_extension(cnot, (2, 2), (2, 2))
    assert layout.dims == (4, 4)
    assert_unitary(ext)
    rng = make_rng(31)
    x1, x1p, x2, x2p = (random_state(2, rng) for _ in range(4))
    c = cnot.reshape(2, 2, 2, 2)
    expected = np.einsum("abcd,c,d,e,f->aebf", c, x1, x2, x1p, x2p).reshape(16)
    inp = np.kron(np.kron(x1, x1p), np.kron(x2, x2p))
    np.testing.assert_allclose(ext @ inp, expected, atol=1e-12)
    # ranks across matching cuts unchanged
    assert realign_rank(ext, (4, 4)) == realign_rank(cnot, (2, 2))


def test_tensor_extension_trivial_dims():
    u3m, layout3 = gates.u3()
    ext, layout = gates.tensor_extension(u3m, (2, 2, 2), (1, 1, 1))
    assert layout.dims == (2, 2, 2)
    np.testing.assert_allclose(ext, u3m, atol=0)


def test_random_controlled_unitary_rank_and_determinism():
    for r in (1, 2, 3):
        u, layout = gates.random_controlled_unitary(3, 3, r, seed=17)
        assert layout.dims == (3, 3)
        assert_unitary(u)
        assert realign_rank(u, (3, 3)) == r
        again, _ = gates.random_controlled_unitary(3, 3, r, seed=17)
        np.testing.assert_array_equal(u, again)
    other, _ = gates.random_controlled_unitary(3, 3, 2, seed=18)
    assert np.linalg.norm(other - gates.random_controlled_unitary(3, 3, 2, seed=17)[0]) > 1e-3


def test_random_controlled_unitary_rejects_impossible_rank():
    with pytest.raises(ValueError):
        gates.random_controlled_unitary(2, 3, 3, seed=1)  # rank 3 needs d_ctrl >= 3
    with pytest.raises(ValueError):
        gates.random_controlled_unitary(3, 1, 2, seed=1)  # 1x1 blocks span dim 1
    with pytest.raises(ValueError):
        gates.random_controlled_unitary(3, 3, 0, seed=1)
    with pytest.raises(ValueError):
        gates.random_controlled_unitary(3, 3, 4, seed=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gates.pauli(True), "pauli index must be 0..3"),
        (lambda: gates.pauli(2.0), "pauli index must be 0..3"),
        (lambda: gates.u_odd_n(5.0), "this family needs odd n >= 3"),
        (lambda: gates.u_odd_n(True), "this family needs odd n >= 3"),
        (lambda: gates.even_qubit_rank3(4.0), "this family needs even n >= 4"),
        (lambda: gates.random_controlled_unitary(3, 3, 3.0, 0), "rank must be 1, 2, or 3"),
        (lambda: gates.random_controlled_unitary(3, 3, True, 0), "rank must be 1, 2, or 3"),
        (lambda: gates.padded_2x2xn("3"), "the padded third system needs n >= 3, got 3"),
        (lambda: gates.random_controlled_unitary("3", 3, 1, 0), "dimensions must be positive integers"),
        (lambda: gates.random_controlled_unitary(3, "3", 1, 0), "dimensions must be positive integers"),
    ],
    ids=[
        "pauli-bool", "pauli-float", "u-odd-n-float", "u-odd-n-bool", "even-float", "rcu-float", "rcu-bool",
        "padded-str", "rcu-control-str", "rcu-target-str",
    ],
)
def test_builders_refuse_a_parameter_that_is_not_an_integer(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_random_controlled_unitary_refuses_a_degenerate_draw_without_redrawing(monkeypatch):
    drawn = []
    real_haar = gates.haar_unitary

    def haar(d, rng):
        drawn.append(d)
        return real_haar(d, rng)

    monkeypatch.setattr(gates, "haar_unitary", haar)
    monkeypatch.setattr(gates, "span_dimension", lambda *args: 2)
    with pytest.raises(ValueError, match=r"the draw did not realize rank 3 on \(3, 2\)"):
        gates.random_controlled_unitary(3, 2, 3, seed=0)
    assert drawn == [2, 2, 2]


def test_random_local_scramble_preserves_rank():
    u, layout = gates.random_controlled_unitary(3, 4, 3, seed=2)
    scrambled = gates.random_local_scramble(u, layout, seed=3)
    assert_unitary(scrambled)
    assert realign_rank(scrambled, (3, 4)) == 3
    np.testing.assert_array_equal(
        scrambled, gates.random_local_scramble(u, layout, seed=3)
    )
    # multipartite scramble acts per system
    u3m, layout3 = gates.u3()
    s3 = gates.random_local_scramble(u3m, layout3, seed=4)
    grouped, dims = mx.group_systems(s3, layout3.dims, (0,))
    assert realign_rank(grouped, dims) == 3


def test_gate_registry():
    names = set(gates.GATE_BUILDERS)
    assert {"swap", "u3", "u-odd-n", "four-qubit", "padded-2x2xn",
            "even-qubit-rank3", "pauli", "random-controlled", "random-unitary"} <= names
    u, layout = gates.build_gate("u-odd-n", n=5)
    assert layout.dims == (2,) * 5
    with pytest.raises(ValueError):
        gates.build_gate("no-such-gate")
    with pytest.raises(ValueError):
        gates.build_gate("u-odd-n")  # missing required parameter
    with pytest.raises(ValueError):
        gates.build_gate("swap", n=3)  # unexpected parameter
