"""Gate constructors.

Each constructor returns ``(matrix, SystemLayout)`` and is verified unitary
before being handed back. The named constructions are exactly the structured
families used by the detection and protocol layers: the swap gate, the odd-n
three-term family and its paddings/extensions, the paired four-qubit example,
the even-n rank-3 family, and seeded random controlled instances.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from . import matrices as mx
from .config import max_total_dimension
from .factorizations import span_dimension
from .matrices import SystemLayout
from .randomness import haar_unitary, make_rng

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _finish(u: np.ndarray, layout):
    layout = SystemLayout.of(layout)
    mx.assert_unitary(u, "constructed gate", rtol=1e-12)
    return u, layout


def pauli(i: int):
    """Pauli matrix sigma_i, i in 0..3 (0 is the identity)."""
    if not mx._is_int(i) or i not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {i}")
    return _PAULI[i].copy(), SystemLayout.of((2,))


def swap_gate():
    """Two-qubit swap, written as half the sum of matching Pauli pairs."""
    u = sum(np.kron(p, p) for p in _PAULI) / 2.0
    return _finish(u, (2, 2))


def _qubits(n: int) -> SystemLayout:
    """The layout of n qubits; one above the cap is refused before anything of size n is built."""
    # the layout stops where 2^k passes the cap, at k = cap.bit_length(); one entry past k gives the
    # message (2,) * n would give, and the n-entry tuple is never built
    return SystemLayout.of((2,) * min(n, max_total_dimension().bit_length() + 1))


def _odd_n_core(n: int):
    """``(u, layout)`` of the odd-n family on n qubits, unchecked; a layout above the cap is refused first."""
    layout = _qubits(n)
    terms = [
        phase * reduce(np.kron, [_PAULI[idx]] * n) for idx, phase in ((0, 1.0), (1, 1j), (3, 1j))
    ]
    return sum(terms) / math.sqrt(3.0), layout


def u_odd_n(n: int):
    """(1/sqrt 3) (s0^(xn) + i s1^(xn) + i s3^(xn)); unitary exactly when n is odd.

    Every single-system cut of this gate has operator Schmidt rank 3, yet no
    single system can control it.
    """
    if not mx._is_int(n) or n < 3 or n % 2 == 0:
        raise ValueError(f"this family needs odd n >= 3, got {n}")
    return _finish(*_odd_n_core(n))


def u3():
    """The three-qubit member of the odd-n family."""
    return u_odd_n(3)


def four_qubit_example():
    """(1/sqrt 2)(V (x) V + i W (x) W) with V the swap and W a masked swap.

    Rank 4 across every single-qubit cut, rank 2 across the (1,2):(3,4) cut.
    """
    v, _ = swap_gate()
    mask = np.kron(_PAULI[0], _PAULI[3])
    w = mask @ v @ mask
    u = (np.kron(v, v) + 1j * np.kron(w, w)) / math.sqrt(2.0)
    return _finish(u, (2, 2, 2, 2))


def padded_2x2xn(n: int):
    """Three-qubit gate embedded in 2 x 2 x n, identity on the extra levels."""
    if not mx._is_int(n) or n < 3:
        raise ValueError(f"the padded third system needs n >= 3, got {n}")
    layout = SystemLayout.of((2, 2, n))
    core, _ = u3()
    u = np.eye(4 * n, dtype=complex)
    emb = [(i * 2 + j) * n + k for i in range(2) for j in range(2) for k in range(2)]
    u[np.ix_(emb, emb)] = core
    return _finish(u, layout)


def even_qubit_rank3(n: int):
    """Rank-3 gate on an even number of qubits, controlled by the first one; only the whole gate is checked unitary."""
    if not mx._is_int(n) or n < 4 or n % 2 == 1:
        raise ValueError(f"this family needs even n >= 4, got {n}")
    layout = _qubits(n)
    core, _ = _odd_n_core(n - 1)
    zero = np.zeros_like(core)
    return _finish(np.block([[core, zero], [zero, core.conj().T]]), layout)


def tensor_extension(u: np.ndarray, layout, extra_dims):
    """Extend each system with an untouched ancilla: system i becomes d_i * e_i.

    Schmidt ranks across matching cuts are unchanged, which is how rank
    statements lift from small layouts to padded ones.
    """
    layout = SystemLayout.of(layout)
    extra = tuple(extra_dims) if np.iterable(extra_dims) else extra_dims
    if isinstance(extra, tuple) and len(extra) != len(layout):
        raise ValueError(f"need one ancilla dimension per system: got {len(extra)} for {len(layout)}")
    if not (isinstance(extra, tuple) and all(mx._is_int(e) and e >= 1 for e in extra)):
        raise ValueError(f"ancilla dimensions must be positive integers, got {extra}")
    u, layout = mx.on_layout(u, layout, "tensor_extension input")
    merged = SystemLayout.of(tuple(d * e for d, e in zip(layout.dims, extra)))  # the cap, before the kron
    big = np.kron(u, np.eye(math.prod(extra), dtype=complex))
    # systems are ordered (A_1 .. A_n, E_1 .. E_n); interleave to (A_1, E_1, ...)
    n = len(layout)
    interleave = tuple(x for i in range(n) for x in (i, n + i))
    return _finish(mx._permuted(big, layout.dims + extra, interleave), merged)


def random_unitary(dim: int, seed: int):
    """Haar-random unitary on one system."""
    layout = SystemLayout.of((dim,))
    return haar_unitary(dim, make_rng(seed)), layout


def random_local_scramble(u: np.ndarray, layout, seed: int) -> np.ndarray:
    """Dress an operator with independent Haar locals on every system, both sides."""
    u, layout = mx.on_layout(u, layout, "scramble input")
    left = reduce(np.kron, [haar_unitary(d, make_rng(seed, stream=2 * i)) for i, d in enumerate(layout.dims)])
    right = reduce(np.kron, [haar_unitary(d, make_rng(seed, stream=2 * i + 1)) for i, d in enumerate(layout.dims)])
    return left @ u @ right


def random_controlled_unitary(d_ctrl: int, d_tgt: int, r: int, seed: int):
    """Locally scrambled sum_k |k><k| (x) V_k with operator Schmidt rank exactly r.

    Blocks are Haar-drawn; block k >= r reuses block k mod r, so the target-side
    span has dimension r. For r <= min(3, d_tgt^2) Haar blocks are linearly
    independent with probability 1, so one draw is taken; the span of its blocks,
    which is the rank of the unscrambled sum, is verified, and a degenerate draw
    raises ValueError.
    """
    if not mx._is_int(r) or r not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2, or 3, got {r}")
    layout = SystemLayout.of((d_ctrl, d_tgt))  # integer sizes, before they are compared
    if r > d_ctrl:
        raise ValueError(f"rank {r} needs at least {r} control levels, got {d_ctrl}")
    if r > d_tgt * d_tgt:
        raise ValueError(f"rank {r} exceeds the target operator space {d_tgt * d_tgt}")
    rng = make_rng(seed, stream=1000)
    blocks = [haar_unitary(d_tgt, rng) for _ in range(r)]
    if span_dimension(blocks) != r:
        raise ValueError(f"the draw did not realize rank {r} on ({d_ctrl}, {d_tgt})")
    u = np.zeros((d_ctrl * d_tgt,) * 2, dtype=complex)
    for k in range(d_ctrl):
        u[k * d_tgt : (k + 1) * d_tgt, k * d_tgt : (k + 1) * d_tgt] = blocks[k % r]
    return _finish(random_local_scramble(u, layout, seed), layout)


GATE_BUILDERS = {
    "pauli": pauli,
    "swap": swap_gate,
    "u3": u3,
    "u-odd-n": u_odd_n,
    "four-qubit": four_qubit_example,
    "padded-2x2xn": padded_2x2xn,
    "even-qubit-rank3": even_qubit_rank3,
    "random-controlled": random_controlled_unitary,
    "random-unitary": random_unitary,
}


def build_gate(name: str, **params):
    """Construct a registered gate; unknown names or bad parameters (each must be an integer) raise ValueError."""
    try:
        builder = GATE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(GATE_BUILDERS))
        raise ValueError(f"unknown gate {name!r}; known gates: {known}") from None
    if not all(map(mx._is_int, params.values())):
        raise ValueError(f"gate parameters must be integers, got {params}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for gate {name!r}: {exc}") from None
