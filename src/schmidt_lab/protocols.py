"""LOCC implementation of bipartite gates and the entanglement ledger.

Two routes are simulated on full state vectors.  The teleportation route
moves the smaller system across, applies the gate where both halves now
live, and moves it back, spending two maximally entangled pairs of the
moved dimension.  The controlled route exploits block structure: a gate
whose target blocks fall into m distinct groups needs only a rank-m
resource, one computational-basis measurement on each side, and exact
shift or phase corrections.

Measurement branches are enumerated exhaustively by default (the branch
counts here are tiny) and every branch is compared against direct
application of the gate, so the reported fidelity floor is a verified
quantity rather than an estimate.  Global phase is quotiented out of all
fidelities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from .control import ControlledForm
from .errors import ProtocolError
from .matrices import SystemLayout
from .randomness import make_rng

FIDELITY_FLOOR = 1.0 - 1e-10

# blocks closer than this (in Frobenius norm, up to one global phase) are
# implemented as a single group with a local phase correction
BLOCK_MERGE_RTOL = 1e-10

ACTORS = ("Alice", "Bob")


@dataclass(frozen=True)
class ProtocolStep:
    """One transcript entry: who acted, what kind of action, and its data."""

    actor: str
    kind: str
    payload: dict


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one protocol run plus the branch sweep that validated it.

    ``steps`` lists the actions of a single recorded run, with concrete
    measurement outcomes.  ``resources`` holds the Schmidt rank of each
    maximally entangled pair consumed; the ledger invariants are
    ``resource_rank = prod(resources)`` and
    ``ebits_consumed = sum(log2(r))``.  The fidelity fields summarize the
    sweep over ``branches_checked`` measurement branches.
    """

    steps: tuple
    resources: tuple
    ebits_consumed: float
    resource_rank: int
    route: str
    min_branch_fidelity: float
    max_branch_fidelity: float
    branches_checked: int

    def to_json(self) -> dict:
        return {
            "route": self.route,
            "resources": list(self.resources),
            "ebits_consumed": self.ebits_consumed,
            "resource_rank": self.resource_rank,
            "min_branch_fidelity": self.min_branch_fidelity,
            "max_branch_fidelity": self.max_branch_fidelity,
            "branches_checked": self.branches_checked,
            "steps": [
                {"actor": s.actor, "kind": s.kind, "payload": s.payload} for s in self.steps
            ],
        }


@dataclass(frozen=True)
class CostReport:
    """Entanglement needed by the cheaper of the two routes."""

    k: int
    ebits: float
    route: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a transcript against the gate it claims to implement."""

    fidelity: float
    measurements: int
    messages: int
    ebits_consumed: float
    resource_rank: int

    @property
    def ok(self) -> bool:
        return self.fidelity >= FIDELITY_FLOOR


def entanglement_cost_upper(d_a: int, d_b: int, controlled_terms: int | None = None) -> CostReport:
    """Resource rank sufficient to implement any gate on d_a x d_b by LOCC.

    The teleportation route always works and costs a rank-(d_a^2)
    resource; when the gate is controlled with m target blocks (or, with
    no block count given, in the worst case m = d_b), the controlled
    route costs rank m.  The report picks the cheaper option,
    k = min(d_a^2, m), with ties going to teleportation.

    Callers must label the smaller side d_a; d_a > d_b raises ValueError.
    """
    if not isinstance(d_a, int) or not isinstance(d_b, int) or d_a < 1 or d_b < 1:
        raise ValueError(f"dimensions must be positive integers, got ({d_a}, {d_b})")
    if d_a > d_b:
        raise ValueError(f"label the smaller side first: got d_a={d_a} > d_b={d_b}")
    candidate = d_b
    if controlled_terms is not None:
        if not isinstance(controlled_terms, int) or controlled_terms < 1:
            raise ValueError(f"controlled_terms must be a positive integer, got {controlled_terms}")
        if controlled_terms > d_a * d_b:
            raise ValueError(
                f"controlled_terms={controlled_terms} exceeds the dimension bound {d_a * d_b}"
            )
        candidate = controlled_terms
    k = min(d_a * d_a, candidate)
    route = "teleportation" if d_a * d_a <= candidate else "controlled"
    return CostReport(k=k, ebits=math.log2(k), route=route)


# ---------------------------------------------------------------------------
# state-vector plumbing


def _as_state(v, dim: int, name: str = "input") -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise ValueError(f"{name} must be a nonzero state vector")
    return arr / norm


class _Register:
    """State vector over named subsystems.

    Gates are applied in place; projective measurements return branch
    copies with the measured subsystems removed, so the bookkeeping of
    which tensor factor is which stays with the names, not with axis
    arithmetic at the call sites.
    """

    def __init__(self, state, dims, names):
        self.state = np.asarray(state, dtype=complex).reshape(-1)
        self.dims = list(dims)
        self.names = list(names)

    def _axes(self, names):
        return [self.names.index(n) for n in names]

    def apply(self, op, names) -> None:
        axes = self._axes(names)
        target_dims = [self.dims[a] for a in axes]
        tensor = self.state.reshape(self.dims)
        op_tensor = np.asarray(op, dtype=complex).reshape(target_dims + target_dims)
        contracted = np.tensordot(
            op_tensor,
            tensor,
            axes=(tuple(range(len(axes), 2 * len(axes))), tuple(axes)),
        )
        rest = [a for a in range(len(self.dims)) if a not in axes]
        order = [0] * len(self.dims)
        for pos, a in enumerate(axes):
            order[a] = pos
        for pos, a in enumerate(rest):
            order[a] = len(axes) + pos
        self.state = contracted.transpose(order).reshape(-1)

    def project(self, names, bra) -> tuple[float, "_Register"]:
        """Probability of the outcome <bra| on the named subsystems and the
        normalized post-measurement register with those subsystems removed."""
        axes = self._axes(names)
        target_dims = [self.dims[a] for a in axes]
        tensor = self.state.reshape(self.dims)
        bra_tensor = np.asarray(bra, dtype=complex).conj().reshape(target_dims)
        reduced = np.tensordot(bra_tensor, tensor, axes=(tuple(range(len(axes))), tuple(axes)))
        prob = float(np.vdot(reduced, reduced).real)
        rest = [a for a in range(len(self.dims)) if a not in axes]
        branch = _Register(
            reduced.reshape(-1),
            [self.dims[a] for a in rest],
            [self.names[a] for a in rest],
        )
        if prob > 0.0:
            branch.state = branch.state / math.sqrt(prob)
        return prob, branch

    def sample(self, names, basis, rng) -> tuple[int, "_Register"]:
        """Measure in the given basis, choosing the outcome by its probability."""
        probs = []
        branches = []
        for vec in basis:
            prob, branch = self.project(names, vec)
            probs.append(prob)
            branches.append(branch)
        weights = np.maximum(np.asarray(probs), 0.0)
        weights = weights / weights.sum()
        index = int(rng.choice(len(basis), p=weights))
        return index, branches[index]

    def vector(self, names) -> np.ndarray:
        """Flattened state with the subsystems ordered as given (must list all)."""
        axes = self._axes(names)
        return self.state.reshape(self.dims).transpose(axes).reshape(-1)


def _max_entangled(rank: int) -> np.ndarray:
    return np.eye(rank, dtype=complex).reshape(-1) / math.sqrt(rank)


def _shift(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[(np.arange(dim) + 1) % dim, np.arange(dim)] = 1.0
    return m


def _clock(dim: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))


def _weyl(a: int, b: int, dim: int) -> np.ndarray:
    return np.linalg.matrix_power(_shift(dim), a) @ np.linalg.matrix_power(_clock(dim), b)


def _bell_vector(a: int, b: int, dim: int) -> np.ndarray:
    # (X^a Z^b x I) |Phi>; flattening row-major puts the acted-on factor first
    return _weyl(a, b, dim).reshape(-1) / math.sqrt(dim)


def _fourier_vector(t: int, dim: int) -> np.ndarray:
    return np.exp(2j * np.pi * t * np.arange(dim) / dim) / math.sqrt(dim)


def _basis_vector(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _check_branches(branches, exhaustive_count: int) -> tuple[bool, int]:
    if branches == "all":
        return True, exhaustive_count
    if isinstance(branches, int) and not isinstance(branches, bool) and branches >= 1:
        return False, branches
    raise ValueError(f"branches must be 'all' or a positive integer, got {branches!r}")


# ---------------------------------------------------------------------------
# teleportation route


def _teleport_register(psi: np.ndarray, d_a: int, d_b: int) -> _Register:
    state = np.kron(np.kron(psi, _max_entangled(d_a)), _max_entangled(d_a))
    return _Register(
        state,
        [d_a, d_b, d_a, d_a, d_a, d_a],
        ["A", "B", "e1", "f1", "e2", "f2"],
    )


def _teleport_branch(psi, u, d_a, d_b, first, second) -> tuple[float, np.ndarray]:
    """Run one fixed pair of measurement outcomes; returns (probability, output)."""
    reg = _teleport_register(psi, d_a, d_b)
    p1, reg = reg.project(["A", "e1"], _bell_vector(*first, d_a))
    reg.apply(_weyl(*first, d_a), ["f1"])
    reg.apply(u, ["f1", "B"])
    p2, reg = reg.project(["f1", "e2"], _bell_vector(*second, d_a))
    reg.apply(_weyl(*second, d_a), ["f2"])
    return p1 * p2, reg.vector(["f2", "B"])


def _teleport_recorded(psi, u, d_a, d_b, rng) -> tuple[tuple, tuple, np.ndarray]:
    """Run once with outcomes drawn by their probabilities."""
    outcomes = [(a, b) for a in range(d_a) for b in range(d_a)]
    basis = [_bell_vector(a, b, d_a) for a, b in outcomes]
    reg = _teleport_register(psi, d_a, d_b)
    i1, reg = reg.sample(["A", "e1"], basis, rng)
    reg.apply(_weyl(*outcomes[i1], d_a), ["f1"])
    reg.apply(u, ["f1", "B"])
    i2, reg = reg.sample(["f1", "e2"], basis, rng)
    reg.apply(_weyl(*outcomes[i2], d_a), ["f2"])
    return outcomes[i1], outcomes[i2], reg.vector(["f2", "B"])


def teleport_unitary_protocol(u, layout, input, seed: int = 0, branches="all"):
    """Implement u by teleporting the first system over and back.

    Alice teleports her side to Bob with a generalized Bell measurement
    and shift/clock corrections, Bob applies u locally, and the carrier
    is teleported back the same way.  Returns the transcript of one
    recorded run and its output state; the transcript's fidelity fields
    cover all d_a^4 measurement branches (or ``branches`` sampled runs).
    """
    lay = SystemLayout.of(layout)
    if len(lay) != 2:
        raise ValueError(f"teleportation route needs a bipartite layout, got {len(lay)} systems")
    d_a, d_b = lay.dims
    u = mx.assert_unitary(u, "gate")
    if u.shape[0] != d_a * d_b:
        raise ValueError(f"gate dimension {u.shape[0]} does not match layout {lay.dims}")
    psi = _as_state(input, d_a * d_b)
    expected = u @ psi
    exhaustive, count = _check_branches(branches, d_a ** 4)
    rng = make_rng(seed, stream=11)

    fidelities = []
    if exhaustive:
        pairs = [(a, b) for a in range(d_a) for b in range(d_a)]
        for first in pairs:
            for second in pairs:
                prob, out = _teleport_branch(psi, u, d_a, d_b, first, second)
                if prob <= 1e-30:
                    continue
                fidelities.append(abs(np.vdot(expected, out)))
        first, second, output = _teleport_recorded(psi, u, d_a, d_b, rng)
    else:
        first = second = output = None
        for _ in range(count):
            o1, o2, out = _teleport_recorded(psi, u, d_a, d_b, rng)
            fidelities.append(abs(np.vdot(expected, out)))
            if output is None:
                first, second, output = o1, o2, out

    steps = (
        ProtocolStep(
            "Alice",
            "measurement",
            {
                "basis": "generalized-bell",
                "systems": ["input-A", "resource1-alice"],
                "outcome": [first[0], first[1]],
                "dimension": d_a,
            },
        ),
        ProtocolStep("Alice", "classical-message", {"to": "Bob", "content": [first[0], first[1]]}),
        ProtocolStep(
            "Bob",
            "local-unitary",
            {"name": "shift-clock correction", "exponents": [first[0], first[1]], "system": "resource1-bob"},
        ),
        ProtocolStep("Bob", "local-unitary", {"name": "apply gate", "systems": ["resource1-bob", "input-B"]}),
        ProtocolStep(
            "Bob",
            "measurement",
            {
                "basis": "generalized-bell",
                "systems": ["resource1-bob", "resource2-bob"],
                "outcome": [second[0], second[1]],
                "dimension": d_a,
            },
        ),
        ProtocolStep("Bob", "classical-message", {"to": "Alice", "content": [second[0], second[1]]}),
        ProtocolStep(
            "Alice",
            "local-unitary",
            {"name": "shift-clock correction", "exponents": [second[0], second[1]], "system": "resource2-alice"},
        ),
    )
    transcript = ProtocolTranscript(
        steps=steps,
        resources=(d_a, d_a),
        ebits_consumed=2.0 * math.log2(d_a),
        resource_rank=d_a * d_a,
        route="teleportation",
        min_branch_fidelity=float(min(fidelities)),
        max_branch_fidelity=float(max(fidelities)),
        branches_checked=len(fidelities),
    )
    return transcript, output


# ---------------------------------------------------------------------------
# controlled route


def _validate_form(form: ControlledForm, input_dim: int) -> tuple[int, int]:
    if len(form.grouped_dims) != 2:
        raise ValueError(f"form must describe a control/target split, got dims {form.grouped_dims}")
    d_c, d_t = form.grouped_dims
    if d_c * d_t != input_dim:
        raise ValueError(f"input must have dimension {d_c * d_t}, got {input_dim}")
    if len(form.blocks) != d_c:
        raise ValueError(f"form needs {d_c} blocks, got {len(form.blocks)}")
    q = mx.assert_unitary(form.q, "form.q")
    r = mx.assert_unitary(form.r, "form.r")
    if q.shape[0] != d_c or r.shape[0] != d_c:
        raise ValueError(f"form rotations must act on dimension {d_c}")
    for k, block in enumerate(form.blocks):
        block = mx.assert_unitary(block, f"form block {k}")
        if block.shape[0] != d_t:
            raise ValueError(f"form block {k} must act on dimension {d_t}")
    return d_c, d_t


def _merge_blocks(blocks, d_t: int):
    """Group blocks equal up to one global phase.

    Returns (representatives, group index per block, phase per block) with
    block_k = phase_k * representatives[group_k] within BLOCK_MERGE_RTOL.
    """
    reps: list[np.ndarray] = []
    group = []
    phases = []
    scale = math.sqrt(d_t)
    for block in blocks:
        block = np.asarray(block, dtype=complex)
        for g, rep in enumerate(reps):
            overlap = np.trace(rep.conj().T @ block) / d_t
            magnitude = abs(overlap)
            if magnitude < 0.5:
                continue
            phase = overlap / magnitude
            if mx.frobenius_norm(block - phase * rep) <= BLOCK_MERGE_RTOL * scale:
                group.append(g)
                phases.append(phase)
                break
        else:
            reps.append(block)
            group.append(len(reps) - 1)
            phases.append(1.0 + 0.0j)
    return reps, group, phases


def _group_entangler(group, d_c: int, m: int) -> np.ndarray:
    # |k, j> -> |k, j + g(k) mod m>
    op = np.zeros((d_c * m, d_c * m), dtype=complex)
    for k in range(d_c):
        for j in range(m):
            op[k * m + (j + group[k]) % m, k * m + j] = 1.0
    return op


def _recoil_shift(outcome: int, m: int) -> np.ndarray:
    # |x> -> |outcome - x mod m>
    op = np.zeros((m, m), dtype=complex)
    for x in range(m):
        op[(outcome - x) % m, x] = 1.0
    return op


def _block_core(reps, d_t: int) -> np.ndarray:
    m = len(reps)
    core = np.zeros((m * d_t, m * d_t), dtype=complex)
    for g, rep in enumerate(reps):
        core[g * d_t : (g + 1) * d_t, g * d_t : (g + 1) * d_t] = rep
    return core


def _phase_correction(outcome: int, group, phases, m: int) -> np.ndarray:
    omega = np.exp(2j * np.pi * outcome * np.asarray(group) / m)
    return np.diag(omega * np.asarray(phases))


def _controlled_register(psi: np.ndarray, d_c: int, d_t: int, m: int) -> _Register:
    state = np.kron(psi, _max_entangled(m))
    return _Register(state, [d_c, d_t, m, m], ["C", "T", "a", "b"])


def _controlled_branch(psi, parts, s: int, t: int) -> tuple[float, np.ndarray]:
    d_c, d_t, m, reps, group, phases, q, r = parts
    reg = _controlled_register(psi, d_c, d_t, m)
    reg.apply(r, ["C"])
    reg.apply(_group_entangler(group, d_c, m), ["C", "a"])
    p1, reg = reg.project(["a"], _basis_vector(s, m))
    reg.apply(_recoil_shift(s, m), ["b"])
    reg.apply(_block_core(reps, d_t), ["b", "T"])
    p2, reg = reg.project(["b"], _fourier_vector(t, m))
    reg.apply(_phase_correction(t, group, phases, m), ["C"])
    reg.apply(q, ["C"])
    return p1 * p2, reg.vector(["C", "T"])


def _controlled_recorded(psi, parts, rng) -> tuple[int, int, np.ndarray]:
    d_c, d_t, m, reps, group, phases, q, r = parts
    reg = _controlled_register(psi, d_c, d_t, m)
    reg.apply(r, ["C"])
    reg.apply(_group_entangler(group, d_c, m), ["C", "a"])
    s, reg = reg.sample(["a"], [_basis_vector(i, m) for i in range(m)], rng)
    reg.apply(_recoil_shift(s, m), ["b"])
    reg.apply(_block_core(reps, d_t), ["b", "T"])
    t, reg = reg.sample(["b"], [_fourier_vector(i, m) for i in range(m)], rng)
    reg.apply(_phase_correction(t, group, phases, m), ["C"])
    reg.apply(q, ["C"])
    return s, t, reg.vector(["C", "T"])


def controlled_gate_protocol(form: ControlledForm, input, seed: int = 0, branches="all"):
    """Implement a controlled form with a rank-m resource, m = distinct blocks.

    Alice rotates by r, entangles her control's block-group index onto her
    resource half with a modular shift, and measures it; Bob undoes the
    shift, applies the grouped blocks conditioned on his half, and
    measures that half in the Fourier basis; Alice closes with a diagonal
    phase correction and q.  Blocks equal up to a global phase share a
    group, the phase being part of Alice's final correction.  With one
    group the gate is a product and runs with no resource and no
    messages.
    """
    psi_dim = np.asarray(input, dtype=complex).reshape(-1).shape[0]
    d_c, d_t = _validate_form(form, psi_dim)
    psi = _as_state(input, d_c * d_t)
    reps, group, phases = _merge_blocks(form.blocks, d_t)
    m = len(reps)
    expected = form.operator() @ psi
    rng = make_rng(seed, stream=13)

    if m == 1:
        reg = _Register(psi, [d_c, d_t], ["C", "T"])
        reg.apply(form.r, ["C"])
        reg.apply(np.diag(np.asarray(phases)), ["C"])
        reg.apply(reps[0], ["T"])
        reg.apply(form.q, ["C"])
        output = reg.vector(["C", "T"])
        fidelity = abs(np.vdot(expected, output))
        steps = (
            ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "r", "system": "control"}),
            ProtocolStep("Alice", "local-unitary", {"name": "diagonal phase correction", "system": "control"}),
            ProtocolStep("Bob", "local-unitary", {"name": "apply target block", "system": "target"}),
            ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "q", "system": "control"}),
        )
        transcript = ProtocolTranscript(
            steps=steps,
            resources=(),
            ebits_consumed=0.0,
            resource_rank=1,
            route="controlled",
            min_branch_fidelity=fidelity,
            max_branch_fidelity=fidelity,
            branches_checked=1,
        )
        return transcript, output

    parts = (d_c, d_t, m, reps, group, phases, form.q, form.r)
    exhaustive, count = _check_branches(branches, m * m)

    fidelities = []
    if exhaustive:
        for s in range(m):
            for t in range(m):
                prob, out = _controlled_branch(psi, parts, s, t)
                if prob <= 1e-30:
                    continue
                fidelities.append(abs(np.vdot(expected, out)))
        s, t, output = _controlled_recorded(psi, parts, rng)
    else:
        s = t = output = None
        for _ in range(count):
            s_i, t_i, out = _controlled_recorded(psi, parts, rng)
            fidelities.append(abs(np.vdot(expected, out)))
            if output is None:
                s, t, output = s_i, t_i, out

    steps = (
        ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "r", "system": "control"}),
        ProtocolStep("Alice", "local-unitary", {"name": "group-index shift entangler", "systems": ["control", "resource-alice"]}),
        ProtocolStep(
            "Alice",
            "measurement",
            {"basis": "computational", "systems": ["resource-alice"], "outcome": s, "dimension": m},
        ),
        ProtocolStep("Alice", "classical-message", {"to": "Bob", "content": s}),
        ProtocolStep("Bob", "local-unitary", {"name": "shift correction", "shift": s, "system": "resource-bob"}),
        ProtocolStep("Bob", "local-unitary", {"name": "apply grouped target blocks", "systems": ["resource-bob", "target"]}),
        ProtocolStep(
            "Bob",
            "measurement",
            {"basis": "fourier", "systems": ["resource-bob"], "outcome": t, "dimension": m},
        ),
        ProtocolStep("Bob", "classical-message", {"to": "Alice", "content": t}),
        ProtocolStep(
            "Alice",
            "local-unitary",
            {"name": "diagonal phase correction", "fourier-outcome": t, "system": "control"},
        ),
        ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "q", "system": "control"}),
    )
    transcript = ProtocolTranscript(
        steps=steps,
        resources=(m,),
        ebits_consumed=math.log2(m),
        resource_rank=m,
        route="controlled",
        min_branch_fidelity=float(min(fidelities)),
        max_branch_fidelity=float(max(fidelities)),
        branches_checked=len(fidelities),
    )
    return transcript, output


# ---------------------------------------------------------------------------
# verification


def verify_protocol(transcript: ProtocolTranscript, u, input, output) -> VerificationReport:
    """Replay a transcript's claims against the gate itself.

    Checks the ebit ledger (resource ranks, their product, their log sum),
    that every classical message announces an outcome its sender has
    already measured, and that step actors and kinds are well formed;
    any inconsistency raises ProtocolError.  The returned report carries
    the fidelity between the transcript's output and u applied directly.
    """
    expected_rank = 1
    expected_ebits = 0.0
    for rank in transcript.resources:
        if not isinstance(rank, int) or rank < 1:
            raise ProtocolError(f"resource ranks must be positive integers, got {rank!r}")
        expected_rank *= rank
        expected_ebits += math.log2(rank)
    if transcript.resource_rank != expected_rank:
        raise ProtocolError(
            f"resource rank {transcript.resource_rank} does not match resources {transcript.resources}"
        )
    if abs(transcript.ebits_consumed - expected_ebits) > 1e-9:
        raise ProtocolError(
            f"ebit ledger {transcript.ebits_consumed} does not match resources {transcript.resources}"
        )

    unannounced = {actor: [] for actor in ACTORS}
    measurements = 0
    messages = 0
    for index, step in enumerate(transcript.steps):
        if step.actor not in ACTORS:
            raise ProtocolError(f"step {index} has unknown actor {step.actor!r}")
        if step.kind == "measurement":
            if "outcome" not in step.payload:
                raise ProtocolError(f"measurement step {index} carries no outcome")
            unannounced[step.actor].append(step.payload["outcome"])
            measurements += 1
        elif step.kind == "classical-message":
            content = step.payload.get("content")
            pool = unannounced[step.actor]
            if content not in pool:
                raise ProtocolError(
                    f"step {index}: classical message announces an outcome its sender has not measured"
                )
            pool.remove(content)
            messages += 1
        elif step.kind != "local-unitary":
            raise ProtocolError(f"step {index} has unknown kind {step.kind!r}")

    u = mx.as_operator(u, "gate")
    psi = _as_state(input, u.shape[0])
    out = _as_state(output, u.shape[0], name="output")
    expected = u @ psi
    expected = expected / np.linalg.norm(expected)
    fidelity = float(abs(np.vdot(expected, out)))
    return VerificationReport(
        fidelity=fidelity,
        measurements=measurements,
        messages=messages,
        ebits_consumed=transcript.ebits_consumed,
        resource_rank=transcript.resource_rank,
    )
