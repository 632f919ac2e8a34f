"""LOCC implementation of bipartite gates and the entanglement ledger.

Two routes are simulated on full state vectors.  The teleportation route
moves the smaller system across, applies the gate where both halves now
live, and moves it back, spending two maximally entangled pairs of the
moved dimension.  The controlled route exploits block structure: a gate
whose target blocks fall into m distinct groups needs only a rank-m
resource, a computational-basis measurement by Alice and a Fourier-basis
one by Bob, and exact shift or phase corrections.

Each route is simulated once as a branch table: every measurement
contracts the state with the stacked rows of its basis and keeps the
outcome as a batch axis, so a few contractions give the probability and
output of every branch.  By default every branch is checked against the
gate applied directly, so the fidelity floor is verified, not estimated.
The recorded run and the sampled mode draw from the same table: one
uniform per outcome, in ``Generator.choice``'s order, through the
table's cdfs.  Global phase is quotiented out of all fidelities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import matrices as mx
from .control import ControlledForm
from .errors import DimensionError, ProtocolError
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
        return asdict(self)


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
    mx._require_finite(arr, name)
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise ValueError(f"{name} must be a nonzero state vector")
    return arr / norm


def _shift(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[(np.arange(dim) + 1) % dim, np.arange(dim)] = 1.0
    return m


def _clock(dim: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))


def _powers(base: np.ndarray) -> np.ndarray:
    """``base^k`` for k = 0 .. len(base) - 1, stacked, each from ``matrix_power``."""
    return np.stack([np.linalg.matrix_power(base, k) for k in range(len(base))])


def _weyl_stack(dim: int) -> np.ndarray:
    """X^a Z^b for every (a, b), stacked at index a * dim + b."""
    return (_powers(_shift(dim))[:, None] @ _powers(_clock(dim))[None]).reshape(-1, dim, dim)


def _sample_count(branches) -> int | None:
    """None for the exhaustive sweep, else the number of Born-sampled runs."""
    if branches == "all":
        return None
    if isinstance(branches, int) and not isinstance(branches, bool) and branches >= 1:
        return branches
    raise ValueError(f"branches must be 'all' or a positive integer, got {branches!r}")


def _draws(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index each uniform draws from its row of ``weights`` (or the one row), as ``Generator.choice`` does."""
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ValueError("branch weights must be finite and non-negative")
    cdf = (weights / weights.sum(axis=-1, keepdims=True)).cumsum(axis=-1)
    return np.sum(cdf / cdf[..., -1:] <= uniforms[:, None], axis=-1)


def _ledger(resources) -> tuple:
    """``(resource rank, ebits)`` of maximally entangled pairs of the given ranks: their product and log2 sum."""
    return math.prod(resources), float(sum(math.log2(r) for r in resources))


def _transcript(route, steps, resources, fidelities) -> ProtocolTranscript:
    """A transcript whose ledger is derived from ``resources`` and whose fidelity fields summarize ``fidelities``."""
    rank, ebits = _ledger(resources)
    return ProtocolTranscript(
        steps=steps,
        resources=resources,
        ebits_consumed=ebits,
        resource_rank=rank,
        route=route,
        min_branch_fidelity=float(np.min(fidelities)),
        max_branch_fidelity=float(np.max(fidelities)),
        branches_checked=len(fidelities),
    )


def _run_branches(table, expected, samples, rng):
    """Branch-fidelity sweep and recorded runs, all read off one branch table.

    ``table`` is ``(marginal, joint, outputs)``: the probability of each first
    outcome, of each (first, second) pair, and the unnormalized output of each
    pair.  A run draws the first outcome from the marginal, then the second
    from its conditional, one uniform each, in ``Generator.choice``'s order.
    With ``samples`` None every branch of nonzero weight is checked and one
    run is recorded; otherwise ``samples`` recorded runs are checked.  Returns
    the fidelities and ``(first, second, output)`` of the first run.
    """
    marginal, joint, outputs = table
    uniforms = rng.random(2 * (samples or 1))
    firsts = _draws(marginal, uniforms[0::2])
    seconds = _draws(joint[firsts], uniforms[1::2])
    runs = outputs[firsts, seconds] / np.sqrt(joint[firsts, seconds])[:, None]
    if samples is None:
        live = joint > 1e-30
        fidelities = np.abs(outputs[live] @ expected.conj()) / np.sqrt(joint[live])
    else:
        fidelities = [abs(np.vdot(expected, out)) for out in runs]
    return fidelities, (int(firsts[0]), int(seconds[0]), runs[0])


# ---------------------------------------------------------------------------
# teleportation route


def _teleport_table(psi, u, d_a: int, d_b: int):
    """Branch table of the double teleportation; outcome (a, b) sits at a * d_a + b.

    Measuring the carried system and one half of a fresh |Phi> against the
    generalized-Bell row of (X^a Z^b x I)|Phi> leaves (X^a Z^b)^dagger / d_a
    applied to the carried state, now held by the other half, so each
    measurement is one stacked matmul over the outcome axis.  The carried
    state's axes are (outcome..., carrier, B); the shift/clock corrections
    X^a Z^b are stacked along the same outcome axis.
    """
    weyl = _weyl_stack(d_a)
    bras = weyl.conj().transpose(0, 2, 1) / d_a
    n = len(weyl)
    first = bras @ psi.reshape(d_a, d_b)
    marginal = np.sum(np.abs(first) ** 2, axis=(1, 2))
    moved = ((weyl @ first).reshape(n, -1) @ u.T).reshape(n, 1, d_a, d_b)
    second = bras @ moved
    joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
    return marginal, joint, (weyl @ second).reshape(n, n, -1)


def _teleport_leg(sender, receiver, measured, corrected, outcome, dim):
    """Steps of one teleportation leg: Bell measurement, its announcement, the X^a Z^b correction."""
    a, b = outcome
    return (
        ProtocolStep(
            sender,
            "measurement",
            {"basis": "generalized-bell", "systems": measured, "outcome": [a, b], "dimension": dim},
        ),
        ProtocolStep(sender, "classical-message", {"to": receiver, "content": [a, b]}),
        ProtocolStep(
            receiver,
            "local-unitary",
            {"name": "shift-clock correction", "exponents": [a, b], "system": corrected},
        ),
    )


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
    mx._check_layout(u, lay, "gate")
    psi = _as_state(input, d_a * d_b)
    expected = u @ psi
    samples = _sample_count(branches)
    fidelities, (i, j, output) = _run_branches(
        _teleport_table(psi, u, d_a, d_b), expected, samples, make_rng(seed, stream=11)
    )
    steps = (
        *_teleport_leg("Alice", "Bob", ["input-A", "resource1-alice"], "resource1-bob", divmod(i, d_a), d_a),
        ProtocolStep("Bob", "local-unitary", {"name": "apply gate", "systems": ["resource1-bob", "input-B"]}),
        *_teleport_leg("Bob", "Alice", ["resource1-bob", "resource2-bob"], "resource2-alice", divmod(j, d_a), d_a),
    )
    return _transcript("teleportation", steps, (d_a, d_a), fidelities), output


# ---------------------------------------------------------------------------
# controlled route


def _validate_form(form: ControlledForm, input_dim: int):
    """``(d_c, d_t, blocks as one stack)`` of a form whose every factor is unitary."""
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
    blocks = [np.asarray(block, dtype=complex) for block in form.blocks]
    for k, block in enumerate(blocks):
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise DimensionError(f"form block {k} must be a square matrix, got shape {block.shape}")
        if block.shape[0] != d_t:
            raise ValueError(f"form block {k} must act on dimension {d_t}")
    stack = np.stack(blocks)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"form block {np.argmin(finite)} contains non-finite entries")
    residuals = mx.unitarity_residuals(stack)
    bad = np.flatnonzero(residuals > 1e-10)
    if bad.size:
        raise ValueError(f"form block {bad[0]} is not unitary (residual {residuals[bad[0]]:.3e})")
    return d_c, d_t, stack


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
        for g, rep in enumerate(reps):
            overlap = np.vdot(rep, block) / d_t
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


def _controlled_table(psi, form: ControlledForm, reps, group, phases):
    """Branch table of the controlled route; outcomes (s, t) index the rank-m resource.

    Axes of the working state are (outcome..., control, target, resource);
    Alice's computational-row and Bob's Fourier-row measurements each add an
    outcome axis, and the recoil shift and the diagonal phase correction are
    stacked along it.
    """
    d_c, d_t = form.grouped_dims
    m = len(reps)
    outcomes = np.arange(m)
    group = np.asarray(group)
    # Alice's entangler |k, j> -> |k, j + g(k) mod m> applied to |Phi> on (a, b)
    resource = _powers(_shift(m))[group] / math.sqrt(m)
    state = (form.r @ psi.reshape(d_c, d_t))[:, :, None, None] * resource[:, None]
    # row s keeps Alice's half at a = s; contiguous, so the sums below keep one order
    first = np.ascontiguousarray(state.transpose(2, 0, 1, 3))
    marginal = np.sum(np.abs(first) ** 2, axis=(1, 2, 3))
    # Bob's recoil shift |x> -> |s - x mod m>
    recoil = np.zeros((m, m, m), dtype=complex)
    recoil[outcomes[:, None], (outcomes[:, None] - outcomes) % m, outcomes] = 1.0
    first = np.einsum("syb,sctb->scty", recoil, first)
    # Bob's half selects the target block: block g acts when it reads g
    first = np.einsum("bxt,sctb->scxb", np.stack(reps), first)
    fourier_rows = np.exp(2j * np.pi * outcomes[:, None] * outcomes[None, :] / m).conj() / math.sqrt(m)
    second = np.einsum("tb,scxb->stcx", fourier_rows, first)
    joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
    correction = np.exp(2j * np.pi * outcomes[:, None] * group[None, :] / m) * np.asarray(phases)
    outputs = np.einsum("yc,stcx->styx", form.q, second * correction[None, :, :, None])
    return marginal, joint, outputs.reshape(m, m, -1)


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
    d_c, d_t, blocks = _validate_form(form, np.size(input))
    psi = _as_state(input, d_c * d_t)
    reps, group, phases = _merge_blocks(blocks, d_t)
    m = len(reps)
    expected = form.apply(psi)

    if m == 1:
        output = ((form.q * phases) @ form.r @ psi.reshape(d_c, d_t) @ reps[0].T).reshape(-1)
        steps = (
            ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "r", "system": "control"}),
            ProtocolStep("Alice", "local-unitary", {"name": "diagonal phase correction", "system": "control"}),
            ProtocolStep("Bob", "local-unitary", {"name": "apply target block", "system": "target"}),
            ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": "q", "system": "control"}),
        )
        return _transcript("controlled", steps, (), [abs(np.vdot(expected, output))]), output

    samples = _sample_count(branches)
    fidelities, (s, t, output) = _run_branches(
        _controlled_table(psi, form, reps, group, phases), expected, samples, make_rng(seed, stream=13)
    )

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
    return _transcript("controlled", steps, (m,), fidelities), output


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
    for rank in transcript.resources:
        if not isinstance(rank, int) or rank < 1:
            raise ProtocolError(f"resource ranks must be positive integers, got {rank!r}")
    expected_rank, expected_ebits = _ledger(transcript.resources)
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
