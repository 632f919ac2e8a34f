"""Seeded randomness: determinism and distribution sanity."""

import numpy as np
import pytest

from schmidt_lab import gates, schmidt
from schmidt_lab.control import FUZZ_SUITES, fuzz_theorem_checks
from schmidt_lab.protocols import teleport_unitary_protocol
from schmidt_lab.randomness import (
    haar_unitary,
    make_rng,
    random_hermitian,
    random_state,
)
from schmidt_lab.schmidt import multipartite_rank_bounds
from schmidt_lab.schmidt_number import max_output_schmidt_rank_search


def test_same_key_reproduces_stream():
    a = make_rng(123).standard_normal(16)
    b = make_rng(123).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_streams_are_distinct():
    a = make_rng(123, stream=0).standard_normal(16)
    b = make_rng(123, stream=1).standard_normal(16)
    assert np.linalg.norm(a - b) > 1e-3


def test_haar_unitary_is_unitary_and_deterministic():
    for d in (2, 3, 5):
        u = haar_unitary(d, make_rng(7))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-12 * d
        again = haar_unitary(d, make_rng(7))
        np.testing.assert_array_equal(u, again)


def test_haar_first_moment():
    # E |tr U|^2 = 1 for Haar; a seeded average should land near it.
    rng = make_rng(99)
    vals = [abs(np.trace(haar_unitary(3, rng))) ** 2 for _ in range(400)]
    assert 0.75 <= float(np.mean(vals)) <= 1.3


def test_random_state_normalized():
    v = random_state(7, make_rng(4))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_random_hermitian_properties():
    h = random_hermitian(4, make_rng(5))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12


def test_bad_dimension_rejected():
    # a float or bool dim used to reach numpy's TypeError, and random_hermitian(0) returned an empty array
    for draw in (haar_unitary, random_state, random_hermitian):
        for dim in (0, 2.0, True):
            with pytest.raises(ValueError, match="^dimension must be a positive integer"):
                draw(dim, make_rng(1))


@pytest.mark.parametrize("seed, stream", [(0.5, 0), (1, 1.5), ("a", 0), (True, 0), (None, 0)])
def test_seeds_and_streams_must_be_integers(seed, stream):
    with pytest.raises(ValueError, match="seed and stream must be integers"):
        make_rng(seed, stream)


def test_seeded_entry_points_refuse_a_non_integer_seed():
    u, layout = gates.random_controlled_unitary(2, 2, 2, seed=0)
    psi = random_state(4, make_rng(1))
    calls = [
        lambda: fuzz_theorem_checks("sch3", 2, seed=0.5),
        lambda: max_output_schmidt_rank_search(u, layout, (0,), restarts=1, seed=1.5),
        lambda: teleport_unitary_protocol(u, layout, psi, seed="a"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed and stream must be integers"):
            call()


def test_a_non_integer_seed_is_named_before_any_gate_or_spectrum(monkeypatch):
    # refused as given: no trial builds a gate and no bipartition takes an SVD first
    u, layout = gates.four_qubit_example()

    def never(*args, **kwargs):
        raise AssertionError("reached past the seed check")

    for module, name in ((gates, "random_controlled_unitary"), (gates, "even_qubit_rank3"), (schmidt, "leading_svd")):
        monkeypatch.setattr(module, name, never)
    calls = [lambda suite=suite: fuzz_theorem_checks(suite, 2, seed=0.5) for suite in FUZZ_SUITES]
    for call in calls + [lambda: multipartite_rank_bounds(u, layout, seed=0.5)]:
        with pytest.raises(ValueError, match=r"^seed and stream must be integers, got 0\.5 and 0$"):
            call()
