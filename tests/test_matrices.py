"""Matrix kernel: frozen oracles and algebraic identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schmidt_lab import factorizations as fx
from schmidt_lab import matrices as mx
from schmidt_lab.algebra import family_obstruction, simultaneous_svd
from schmidt_lab.control import ControlledForm, is_controlled
from schmidt_lab.errors import DimensionError
from schmidt_lab.protocols import controlled_gate_protocol, teleport_unitary_protocol, verify_protocol
from schmidt_lab.randomness import make_rng, random_complex_gaussian, random_state
from schmidt_lab.schmidt import operator_schmidt_decompose
from schmidt_lab.schmidt_number import ProductInput

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_tensor_product_frozen():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = np.array(
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(mx.tensor_product(a, b), expected)


def test_tensor_product_associative_and_bilinear():
    rng = make_rng(42)
    a = random_complex_gaussian((2, 2), rng)
    b = random_complex_gaussian((3, 3), rng)
    c = random_complex_gaussian((2, 2), rng)
    left = mx.tensor_product(mx.tensor_product(a, b), c)
    right = mx.tensor_product(a, mx.tensor_product(b, c))
    assert np.linalg.norm(left - right) <= 1e-13 * np.linalg.norm(left)
    lin = mx.tensor_product(2.0 * a + c, b)
    lin_expanded = 2.0 * mx.tensor_product(a, b) + mx.tensor_product(c, b)
    assert np.linalg.norm(lin - lin_expanded) <= 1e-13 * np.linalg.norm(lin)


def test_tensor_chain_matches_repeated_product():
    rng = make_rng(7)
    factors = [random_complex_gaussian((2, 2), rng) for _ in range(3)]
    chained = mx.tensor_chain(factors)
    manual = mx.tensor_product(mx.tensor_product(factors[0], factors[1]), factors[2])
    np.testing.assert_allclose(chained, manual, atol=0)


def test_tensor_product_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "8")
    a = np.eye(4, dtype=complex)
    with pytest.raises(DimensionError):
        mx.tensor_product(a, a)
    # 4 * 2 = 8 is still allowed
    mx.tensor_product(a, np.eye(2, dtype=complex))


def test_system_layout_validation():
    layout = mx.SystemLayout.of([2, 3, 2])
    assert layout.total == 12
    assert layout.complement((1,)) == (0, 2)
    with pytest.raises(ValueError):
        mx.SystemLayout.of([2, 0])
    with pytest.raises(ValueError):
        layout.validate_subset((3,))
    with pytest.raises(ValueError):
        layout.validate_subset(())


def test_layouts_over_the_cap_stop_at_the_first_partial_product(monkeypatch):
    monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "16")
    with pytest.raises(DimensionError, match="^total dimension 20 exceeds the configured cap 16$"):
        mx.SystemLayout.of((4, 5))
    with pytest.raises(DimensionError, match="^total dimension at least 20 exceeds the configured cap 16$"):
        mx.SystemLayout.of((4, 5, 10**4000))


def _poisoned(m, index, bad):
    m = np.array(m, dtype=complex)
    m[index] = bad
    return m


def _verified_with_poisoned(name, bad):
    psi = random_state(4, make_rng(8))
    transcript, out = teleport_unitary_protocol(CNOT, (2, 2), psi, seed=4)
    states = {"input": psi, "output": out}
    states[name] = _poisoned(states[name], 1, bad)
    verify_protocol(transcript, CNOT, states["input"], states["output"])


_RNG = make_rng(30)
_M = random_complex_gaussian((4, 6), _RNG)
_STACK = random_complex_gaussian((3, 4, 6), _RNG)
# 40 x 40 of rank 2: leading_svd sketches it instead of taking the dense svd
_LOW_RANK = random_complex_gaussian((40, 2), _RNG) @ random_complex_gaussian((2, 40), _RNG)
_PSI = random_state(4, _RNG)
_FORM = ControlledForm(side=(0,), q=np.eye(2), r=np.eye(2), blocks=(np.eye(2), CNOT[2:, 2:]), grouped_dims=(2, 2))
_ZERO = np.array([1.0, 0.0], dtype=complex)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("svd input", lambda bad: fx.svd(_poisoned(_M, (1, 2), bad))),
        ("svd input", lambda bad: fx.svd(_poisoned(_STACK, (1, 2, 3), bad))),
        ("svd input", lambda bad: fx.leading_svd(_poisoned(_LOW_RANK, (5, 7), bad), fx.RANK_RTOL)),
        ("eigh input", lambda bad: fx.eigh(_poisoned(np.eye(3), (1, 1), bad))),
        ("null_space input", lambda bad: fx.null_space(_poisoned(_M, (0, 0), bad))),
        ("orthonormal_complement input", lambda bad: fx.orthonormal_complement(_poisoned(_M.T, (2, 1), bad))),
        ("family", lambda bad: family_obstruction(_poisoned(_STACK[:, :, :4], (2, 0, 0), bad))),
        ("family", lambda bad: simultaneous_svd(_poisoned(_STACK[:, :, :4], (0, 3, 3), bad))),
        ("detection input", lambda bad: is_controlled(_poisoned(CNOT, (3, 2), bad), (2, 2), (0,))),
        ("decomposition input", lambda bad: operator_schmidt_decompose(_poisoned(CNOT, (0, 0), bad), (2, 2), (0,))),
        ("input", lambda bad: teleport_unitary_protocol(CNOT, (2, 2), _poisoned(_PSI, 2, bad))),
        ("input", lambda bad: controlled_gate_protocol(_FORM, _poisoned(_PSI, 0, bad))),
        ("input", lambda bad: _verified_with_poisoned("input", bad)),
        ("output", lambda bad: _verified_with_poisoned("output", bad)),
        # abs(nan - 1) > 1e-12 is False, so the norm test alone lets nan through
        ("local state 1", lambda bad: ProductInput.of([_ZERO, _poisoned(_ZERO, 0, bad)])),
    ],
    ids=[
        "svd", "svd-stack", "leading_svd", "eigh", "null_space", "orthonormal_complement",
        "family_obstruction", "simultaneous_svd", "is_controlled", "operator_schmidt_decompose",
        "teleport-input", "controlled-input", "verify-input", "verify-output", "ProductInput",
    ],
)
def test_non_finite_entries_are_refused_by_name(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        call(bad)


def test_realign_cnot_frozen():
    m = mx.realign(CNOT, (2, 2))
    expected = np.array(
        [
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(m, expected)
    s = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(s, [math.sqrt(2), math.sqrt(2), 0, 0], atol=1e-12)


def test_realign_of_product_is_outer_product():
    rng = make_rng(3)
    a = random_complex_gaussian((3, 3), rng)
    b = random_complex_gaussian((2, 2), rng)
    m = mx.realign(mx.tensor_product(a, b), (3, 2))
    np.testing.assert_allclose(m, np.outer(a.ravel(), b.ravel()), atol=1e-14)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    da=st.integers(min_value=2, max_value=3),
    db=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_realign_is_an_isometry(da, db, seed):
    u = random_complex_gaussian((da * db, da * db), make_rng(seed))
    m = mx.realign(u, (da, db))
    assert m.shape == (da * da, db * db)
    assert abs(np.linalg.norm(m) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)
    back = mx.unrealign(m, (da, db))
    np.testing.assert_allclose(back, u, atol=0)


def test_permute_systems_swaps_factors():
    rng = make_rng(11)
    a = random_complex_gaussian((2, 2), rng)
    b = random_complex_gaussian((3, 3), rng)
    swapped = mx.permute_systems(mx.tensor_product(a, b), (2, 3), (1, 0))
    np.testing.assert_allclose(swapped, mx.tensor_product(b, a), atol=0)


def test_permute_systems_three_factors():
    rng = make_rng(12)
    fs = [random_complex_gaussian((d, d), rng) for d in (2, 3, 2)]
    u = mx.tensor_chain(fs)
    perm = (2, 0, 1)
    permuted = mx.permute_systems(u, (2, 3, 2), perm)
    np.testing.assert_allclose(
        permuted, mx.tensor_chain([fs[p] for p in perm]), atol=0
    )


def test_permute_systems_rejects_non_bijection():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        mx.permute_systems(u, (2, 2), (0, 0))


def test_group_systems_brings_subset_to_front():
    rng = make_rng(13)
    fs = [random_complex_gaussian((d, d), rng) for d in (2, 3, 2)]
    u = mx.tensor_chain(fs)
    grouped, dims = mx.group_systems(u, (2, 3, 2), (1,))
    assert dims == (3, 4)
    np.testing.assert_allclose(
        grouped, mx.tensor_product(fs[1], mx.tensor_product(fs[0], fs[2])), atol=0
    )
    # the shape is checked here; the entries are the caller's to check
    for bad in (u[:, :6], u[:6, :6], u.reshape(1, 12, 12)):
        with pytest.raises(DimensionError):
            mx.group_systems(bad, (2, 3, 2), (1,))


def test_partial_trace_of_product():
    rng = make_rng(5)
    a = random_complex_gaussian((2, 2), rng)
    b = random_complex_gaussian((3, 3), rng)
    u = mx.tensor_product(a, b)
    np.testing.assert_allclose(
        mx.partial_trace(u, (2, 3), keep=(0,)), np.trace(b) * a, atol=1e-14
    )
    np.testing.assert_allclose(
        mx.partial_trace(u, (2, 3), keep=(1,)), np.trace(a) * b, atol=1e-14
    )
    np.testing.assert_allclose(mx.partial_trace(u, (2, 3), keep=(0, 1)), u, atol=0)


def test_partial_trace_three_systems():
    rng = make_rng(6)
    fs = [random_complex_gaussian((d, d), rng) for d in (2, 2, 3)]
    u = mx.tensor_chain(fs)
    got = mx.partial_trace(u, (2, 2, 3), keep=(0, 2))
    np.testing.assert_allclose(
        got, np.trace(fs[1]) * mx.tensor_product(fs[0], fs[2]), atol=1e-13
    )


@pytest.mark.parametrize("d_c, d_t", [(2, 3), (3, 2), (4, 4)])
def test_control_sandwich_matches_the_kron_products(d_c, d_t):
    rng = make_rng(17)
    n = d_c * d_t
    g = random_complex_gaussian((n, n), rng)
    a = random_complex_gaussian((d_c, d_c), rng)
    b = random_complex_gaussian((d_c, d_c), rng)
    eye = np.eye(d_t)
    cases = [
        (a, None, np.kron(a, eye) @ g),
        (None, b, g @ np.kron(b, eye)),
        (a, b, np.kron(a, eye) @ g @ np.kron(b, eye)),
    ]
    for left, right, want in cases:
        got = mx.control_sandwich(g, (d_c, d_t), left, right)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_frobenius_norm():
    rng = make_rng(9)
    a = random_complex_gaussian((3, 3), rng)
    assert mx.frobenius_norm(a) == pytest.approx(np.linalg.norm(a))


def test_frobenius_norms_match_each_member_bitwise():
    # witnesses and violations read these norms, so the stacked form must not
    # move them: each is the same pair of dots as the norm of one matrix
    rng = make_rng(9)
    for shape in ((1, 1, 1), (5, 3, 3), (2, 4, 6, 6), (3, 4, 1)):
        stack = 10.0 ** rng.integers(-8, 8) * random_complex_gaussian(shape, rng)
        want = [mx.frobenius_norm(m) for m in stack.reshape(-1, *shape[-2:])]
        assert mx.frobenius_norms(stack).reshape(-1).tolist() == want


def test_assert_unitary():
    mx.assert_unitary(np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        mx.assert_unitary(np.diag([1.0, 2.0]).astype(complex))


def test_matrix_json_round_trip_is_exact():
    rng = make_rng(21)
    m = random_complex_gaussian((6, 6), rng)
    obj = mx.matrix_to_json(m, dims=(2, 3))
    back, layout = mx.matrix_from_json(obj)
    assert layout.dims == (2, 3)
    assert np.array_equal(back, m)  # bit-exact, no rounding through JSON floats


def test_matrix_json_rejects_malformed():
    good = mx.matrix_to_json(np.eye(2, dtype=complex), dims=(2,))
    bad_len = dict(good, data=good["data"][:-1])
    with pytest.raises(ValueError):
        mx.matrix_from_json(bad_len)
    bad_dims = dict(good, dims=[3])
    with pytest.raises(ValueError):
        mx.matrix_from_json(bad_dims)
    bad_entry = dict(good, data=[[float("nan"), 0.0]] + good["data"][1:])
    with pytest.raises(ValueError):
        mx.matrix_from_json(bad_entry)
    with pytest.raises(ValueError):
        mx.matrix_from_json({"rows": 2, "cols": 2})
    # entries that are not a pair of numbers: named by index, never a TypeError
    for entry in ([None, 0.0], [[1.0, 0.0], 0.0], {"re": 1.0, "im": 0.0}, [1.0], None, [10**400, 0]):
        data = good["data"][:2] + [entry] + good["data"][3:]
        with pytest.raises(ValueError, match=r"data\[2\]"):
            mx.matrix_from_json(dict(good, data=data))
    # malformed headers: a ValueError naming the field, never a TypeError
    for field, value in (("rows", None), ("cols", [2]), ("dims", 2), ("dims", [None]), ("dims", [1e400])):
        with pytest.raises(ValueError, match=field):
            mx.matrix_from_json(dict(good, **{field: value}))
    # headers that are not JSON integers are refused, never coerced: with
    # int() each of these would decode as a valid 4x4 header
    four = mx.matrix_to_json(np.eye(4, dtype=complex), dims=(2, 2))
    for field, value in (
        ("dims", "22"), ("dims", [2.9, 2.2]), ("dims", [True, 4]), ("rows", 4.5), ("cols", "4"),
    ):
        with pytest.raises(ValueError, match=field):
            mx.matrix_from_json(dict(four, **{field: value}))


def test_matrix_json_keeps_signed_zeros():
    m = np.array([[complex(-0.0, -0.0), 1.0], [1.0, complex(0.0, -0.0)]])
    back, _ = mx.matrix_from_json(mx.matrix_to_json(m, dims=(2,)))
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))


def test_matrix_json_respects_dimension_cap(monkeypatch):
    obj = mx.matrix_to_json(np.eye(8, dtype=complex), dims=(8,))
    monkeypatch.setenv("SCHMIDT_LAB_MAX_DIM", "4")
    with pytest.raises(DimensionError):
        mx.matrix_from_json(obj)


def test_state_json_round_trip():
    rng = make_rng(22)
    v = random_complex_gaussian((6,), rng)
    v = v / np.linalg.norm(v)
    obj = mx.state_to_json(v, dims=(2, 3))
    back, layout = mx.state_from_json(obj)
    assert layout.dims == (2, 3)
    assert np.array_equal(back, v)
    with pytest.raises(ValueError):
        mx.state_from_json(dict(obj, amplitudes=obj["amplitudes"][:-1]))
    for entry in ([None, 0.0], [[1.0, 0.0], 0.0], {"re": 1.0, "im": 0.0}, [float("inf"), 0.0]):
        amplitudes = obj["amplitudes"][:4] + [entry] + obj["amplitudes"][5:]
        with pytest.raises(ValueError, match=r"amplitudes\[4\]"):
            mx.state_from_json(dict(obj, amplitudes=amplitudes))
    with pytest.raises(ValueError, match="dims"):
        mx.state_from_json(dict(obj, dims=None))
    four = mx.state_to_json(np.eye(4, dtype=complex)[0], dims=(2, 2))
    for dims in ("22", [2.9, 2.2], [True, 4]):
        with pytest.raises(ValueError, match="dims"):
            mx.state_from_json(dict(four, dims=dims))
