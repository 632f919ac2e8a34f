"""Entanglement of gate outputs fed with product inputs.

The operator Schmidt rank of a gate bounds the Schmidt rank of every
output it can produce from a product input, and the bound is tight once
both sides are extended with maximally entangled ancillas.  This module
measures the output side of that story: Schmidt ranks of concrete output
states, a randomized search for the most entangling product input, and
the ancilla-extended check that reproduces the operator rank as a state
rank.

The search is a heuristic lower-bounder.  It reports the best rank it
found and the input that achieved it; it never claims the value is the
true maximum.  Mixed separable inputs add nothing here: the rank of a
mixture is set by its best pure component, so only pure product inputs
are enumerated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import matrices as mx
from . import schmidt
from .factorizations import RANK_RTOL, numerical_rank, svd
from .matrices import SystemLayout
from .randomness import make_rng, random_state

SEARCH_RESTARTS = 64

# refinement schedule: sweeps over the parties; each tries a few random local
# directions at decreasing steps and moves at the first step that improves
SEARCH_SWEEPS = 2
SEARCH_DIRECTIONS = 3
SEARCH_STEPS = (1.0, 0.5, 0.2, 0.05)


@dataclass(frozen=True)
class ProductInput:
    """Pure product state, one normalized local state per system."""

    local_states: tuple

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=complex).reshape(-1) for s in self.local_states)
        if not states:
            raise ValueError("product input needs at least one local state")
        for i, state in enumerate(states):
            mx._require_finite(state, f"local state {i}")
            if abs(np.linalg.norm(state) - 1.0) > 1e-12:
                raise ValueError(f"local state {i} is not normalized")
        object.__setattr__(self, "local_states", states)

    @classmethod
    def of(cls, states) -> "ProductInput":
        return cls(local_states=tuple(states))

    @property
    def dims(self) -> tuple:
        return tuple(s.shape[0] for s in self.local_states)

    def vector(self) -> np.ndarray:
        return reduce(np.kron, self.local_states)


def random_product_input(layout, rng) -> ProductInput:
    layout = SystemLayout.of(layout)
    return ProductInput.of([random_state(d, rng) for d in layout.dims])


def _strict_cut(layout: SystemLayout, cut) -> tuple:
    cut = layout.validate_subset(cut)
    if len(cut) == len(layout):
        raise ValueError("cut must leave at least one system on the other side")
    return cut


def _state_singular_values(vectors: np.ndarray, dims, cut) -> np.ndarray:
    """Schmidt spectra across the cut of a ``(k, D)`` stack of state vectors, one row each."""
    rest = [a for a in range(len(dims)) if a not in cut]
    d_cut = math.prod(dims[a] for a in cut)
    axes = [0] + [1 + a for a in list(cut) + rest]
    matrices = vectors.reshape(-1, *dims).transpose(axes).reshape(len(vectors), d_cut, -1)
    return svd(matrices)[1]


def _output_spectra(u: np.ndarray, factors, dims, cut) -> np.ndarray:
    """Spectra across the cut of ``u`` on the row-wise products of the factors (states or stacks)."""
    stacks = [np.reshape(f, (-1, d)) for f, d in zip(factors, dims)]
    # row-wise np.kron, the same products in the same association; one row broadcasts
    vectors = reduce(lambda a, b: (a[:, :, None] * b[:, None]).reshape(-1, a.shape[1] * b.shape[1]), stacks)
    return _state_singular_values((u[None] @ vectors[:, :, None])[:, :, 0], dims, cut)


def state_schmidt_rank(vector, layout, cut, tol: float = RANK_RTOL) -> int:
    """Schmidt rank of a state vector across the cut.

    Counts singular values above tol times the largest, the same rule the
    operator-rank computation uses; a ``tol`` outside (0, 1) raises ValueError.
    """
    layout = SystemLayout.of(layout)
    cut = _strict_cut(layout, cut)
    vector = np.asarray(vector, dtype=complex).reshape(1, -1)
    if vector.shape[1] != layout.total:
        raise ValueError(f"state must have dimension {layout.total}, got {vector.shape[1]}")
    return numerical_rank(_state_singular_values(vector, layout.dims, cut)[0], mx.checked_tol(tol))


def _checked_product_input(input, layout: SystemLayout) -> ProductInput:
    if not isinstance(input, ProductInput):
        input = ProductInput.of(input)
    if input.dims != layout.dims:
        raise ValueError(f"product input dims {input.dims} do not match layout {layout.dims}")
    return input


def output_schmidt_rank(u, layout, input, cut, tol: float = RANK_RTOL) -> int:
    """Schmidt rank of u applied to a product input, across the cut; ``tol`` as for a state."""
    layout = SystemLayout.of(layout)
    u = mx.as_operator(u, "gate")
    mx._check_layout(u, layout, "gate")
    cut = _strict_cut(layout, cut)
    input = _checked_product_input(input, layout)
    return numerical_rank(_output_spectra(u, input.local_states, layout.dims, cut)[0], mx.checked_tol(tol))


@dataclass(frozen=True)
class SearchResult:
    """Best output rank found by the randomized search, with its witness."""

    max_rank: int
    witness: ProductInput
    singular_values: np.ndarray


def _tail_weight(s: np.ndarray) -> float:
    # mass beyond the leading Schmidt direction; zero iff the output is product
    if s.size == 0:
        return 0.0
    total = float(np.sum(s * s))
    return total - float(s[0] * s[0])


def _checked_gate(u, layout: SystemLayout, cut, tol):
    """``(u, cut, grouped u, grouped dims, operator Schmidt rank)``: one check and one grouping."""
    u = mx.assert_unitary(u, "gate")
    mx._check_layout(u, layout, "gate")
    cut = _strict_cut(layout, cut)
    grouped, dims = mx.group_systems(u, layout, cut)
    return u, cut, grouped, dims, schmidt._rank_report(mx._realigned(grouped, dims), tol).rank


def max_output_schmidt_rank_search(
    u, layout, cut, restarts: int = SEARCH_RESTARTS, seed: int = 0, tol: float = RANK_RTOL
) -> SearchResult:
    """Search product inputs for the largest output Schmidt rank.

    Each restart draws a random product input and refines it by
    coordinate sweeps: one party at a time, a handful of random local
    directions, each tried at decreasing steps.  The first step that
    increases the Schmidt mass beyond the leading direction is taken, and
    the remaining steps and directions continue from the point it reached.
    The result is a lower bound on the achievable maximum; restarts stop
    early once the dimension or operator-rank cap is reached.
    """
    if not isinstance(restarts, numbers.Integral) or isinstance(restarts, bool) or restarts < 1:
        raise ValueError(f"restarts must be a positive integer, got {restarts!r}")
    layout = SystemLayout.of(layout)
    u, cut, _, grouped_dims, operator_rank = _checked_gate(u, layout, cut, tol)
    dims = layout.dims
    cap = min(*grouped_dims, operator_rank)
    rng = make_rng(seed, stream=17)

    best_states = None
    best_rank = -1
    best_tail = -1.0
    best_spectrum = None
    for _ in range(restarts):
        states = [random_state(d, rng) for d in dims]
        s = _output_spectra(u, states, dims, cut)[0]
        tail = _tail_weight(s)
        for _ in range(SEARCH_SWEEPS):
            for party in range(len(dims)):
                directions = [random_state(dims[party], rng) for _ in range(SEARCH_DIRECTIONS)]
                moves = [(direction, step) for direction in directions for step in SEARCH_STEPS]
                # all moves are tried from the current point as one stack; past the first improving
                # one, the rest of its direction, then each later direction, go again from there
                size = len(moves)
                while moves:
                    candidates = [states[party] + step * direction for direction, step in moves[:size]]
                    candidates = np.array([c / np.linalg.norm(c) for c in candidates])
                    trial = states[:party] + [candidates] + states[party + 1 :]
                    spectra = _output_spectra(u, trial, dims, cut)
                    tails = [_tail_weight(x) for x in spectra]
                    better = [j for j, trial_tail in enumerate(tails) if trial_tail > tail + 1e-15]
                    if better:
                        j = better[0]
                        states[party], s, tail = candidates[j], spectra[j], tails[j]
                        size = j + 1
                    moves = moves[size:]
                    size = len(moves) % len(SEARCH_STEPS) or len(SEARCH_STEPS)
        rank = numerical_rank(s, tol)
        if rank > best_rank or (rank == best_rank and tail > best_tail):
            best_states, best_rank, best_tail, best_spectrum = states, rank, tail, s
        if best_rank >= cap:
            break
    return SearchResult(
        max_rank=best_rank,
        witness=ProductInput.of(best_states),
        singular_values=best_spectrum,
    )


@dataclass(frozen=True)
class AncillaExtensionReport:
    """State rank reached with both sides doubled, next to the operator rank."""

    rank_with_ancillas: int
    operator_schmidt_rank: int

    @property
    def matches(self) -> bool:
        return self.rank_with_ancillas == self.operator_schmidt_rank


def ancilla_extended_check(u, layout, cut=(0,), tol: float = RANK_RTOL) -> AncillaExtensionReport:
    """Feed the gate maximally entangled pairs on both sides of the cut.

    The gate acts on the primary halves of two maximally entangled pairs;
    the Schmidt rank of the resulting four-party state across the
    (side, its ancilla) : (other side, its ancilla) split is computed as
    a plain state rank and reported next to the operator Schmidt rank it
    must reproduce.
    """
    _, _, grouped, (d_a, d_b), operator_rank = _checked_gate(u, SystemLayout.of(layout), cut, tol)

    pair_a = np.eye(d_a, dtype=complex).reshape(-1) / math.sqrt(d_a)
    pair_b = np.eye(d_b, dtype=complex).reshape(-1) / math.sqrt(d_b)
    # systems (A, A-ancilla, B, B-ancilla); the gate acts on (A, B)
    state = np.kron(pair_a, pair_b).reshape(d_a, d_a, d_b, d_b)
    gate = grouped.reshape(d_a, d_b, d_a, d_b)
    output = np.tensordot(gate, state, axes=((2, 3), (0, 2)))
    # tensordot leaves (A, B, A-ancilla, B-ancilla); restore ancilla order
    output = output.transpose(0, 2, 1, 3).reshape(-1)

    # the state holds no more entries than the gate, which has passed the cap check
    rank = numerical_rank(_state_singular_values(output[None], (d_a, d_a, d_b, d_b), (0, 1))[0], tol)
    return AncillaExtensionReport(rank_with_ancillas=rank, operator_schmidt_rank=operator_rank)
