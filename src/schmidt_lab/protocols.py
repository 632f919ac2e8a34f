"""LOCC implementation of bipartite gates and the entanglement ledger.

Two routes are simulated on full state vectors.  The teleportation route
moves the first system across, applies the gate where both halves now
live, and moves it back, spending two maximally entangled pairs of the
moved dimension.  The controlled route exploits block structure: a gate
whose target blocks fall into m distinct groups needs only a rank-m
resource, a computational-basis measurement by Alice and a Fourier-basis
one by Bob, and exact shift or phase corrections.  Both routes run leg,
local gate, leg, a leg being one party's measurement, its announcement and
the other party's correction.

Each route is simulated once as a branch table: every measurement
contracts the state with the stacked rows of its basis and keeps the
outcome as a batch axis, so a few contractions give the probability and
output of every branch.  Teleportation's Weyl operators are built once
per dimension, read-only, in a bounded cache of at most 32 MiB an entry;
its products with a shared right operand run as one GEMM over stacked
rows, bit for bit, since rows keep each entry's ordered inner sum.  Past
``matrices``' entry budget a table is refused before it is built.  By
default every branch is checked against the gate applied directly, so
the fidelity floor is verified, not estimated.  The recorded run and the
sampled mode draw from the same table: one uniform per outcome, in
``Generator.choice``'s order, through the table's cdfs.  Global phase is
quotiented out of all fidelities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import matrices as mx
from .errors import ProtocolError
from .randomness import make_rng

# ``ControlledForm`` in the annotations is ``control.ControlledForm``; annotations are not
# evaluated, so importing this module loads no detector

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
    maximally entangled pair consumed; the ledger is read off it:
    ``resource_rank = prod(resources)`` and
    ``ebits_consumed = sum(log2(r))``.  The fidelity fields summarize the
    sweep over ``branches_checked`` measurement branches.
    """

    steps: tuple
    resources: tuple
    route: str
    min_branch_fidelity: float
    max_branch_fidelity: float
    branches_checked: int

    @property
    def resource_rank(self) -> int:
        return math.prod(self.resources)

    @property
    def ebits_consumed(self) -> float:
        return float(sum(math.log2(r) for r in self.resources))

    def to_json(self) -> dict:
        return {**asdict(self), "resource_rank": self.resource_rank, "ebits_consumed": self.ebits_consumed}


@dataclass(frozen=True)
class CostReport:
    """Entanglement needed by the cheaper of the two routes."""

    k: int
    route: str

    @property
    def ebits(self) -> float:
        return math.log2(self.k)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a transcript against the gate it claims to implement."""

    fidelity: float
    measurements: int
    messages: int

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
    if not (mx._is_int(d_a) and mx._is_int(d_b)) or d_a < 1 or d_b < 1:
        raise ValueError(f"dimensions must be positive integers, got ({d_a}, {d_b})")
    if d_a > d_b:
        raise ValueError(f"label the smaller side first: got d_a={d_a} > d_b={d_b}")
    candidate = d_b
    if controlled_terms is not None:
        if not mx._is_int(controlled_terms) or controlled_terms < 1:
            raise ValueError(f"controlled_terms must be a positive integer, got {controlled_terms}")
        if controlled_terms > d_a * d_b:
            raise ValueError(
                f"controlled_terms={controlled_terms} exceeds the dimension bound {d_a * d_b}"
            )
        candidate = controlled_terms
    k = min(d_a * d_a, candidate)
    route = "teleportation" if d_a * d_a <= candidate else "controlled"
    return CostReport(k=k, route=route)


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


@functools.lru_cache(maxsize=4)
def _weyl_operators(dim: int):
    """Read-only ``_weyl_stack(dim)`` and its column-major generalized-Bell rows, each (X^a Z^b)^dagger / dim."""
    weyl = _weyl_stack(dim)
    rows = (weyl.conj() / dim).transpose(1, 0, 2).reshape(dim, -1).T
    weyl.flags.writeable = rows.flags.writeable = False
    return weyl, rows


def _sample_count(branches) -> int | None:
    """None for the exhaustive sweep, else the number of Born-sampled runs."""
    if branches == "all":
        return None
    if mx._is_int(branches) and branches >= 1:
        return branches
    raise ValueError(f"branches must be 'all' or a positive integer, got {branches!r}")


def _draws(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index each uniform draws from its row of ``weights`` (or the one row), as ``Generator.choice`` does."""
    valid = np.isfinite(weights).all() and (weights >= 0).all()
    if not (valid and (totals := weights.sum(axis=-1, keepdims=True)).all()):
        raise ValueError("branch weights must be finite and non-negative, with a positive sum in each row")
    cdf = (weights / totals).cumsum(axis=-1)
    return np.sum(cdf / cdf[..., -1:] <= uniforms[:, None], axis=-1)


def _transcript(route, steps, resources, fidelities) -> ProtocolTranscript:
    """A transcript whose fidelity fields summarize ``fidelities``."""
    return ProtocolTranscript(
        steps=steps,
        resources=resources,
        route=route,
        min_branch_fidelity=float(np.min(fidelities)),
        max_branch_fidelity=float(np.max(fidelities)),
        branches_checked=len(fidelities),
    )


def _leg(sender, measured, basis, dim, outcome, correction):
    """Steps of one leg: ``sender`` measures, announces ``outcome``, and the other party corrects.

    ``correction`` is ``(name, key, system)``: the receiver's local unitary,
    which carries the outcome under ``key``.
    """
    receiver = ACTORS[1 - ACTORS.index(sender)]
    name, key, system = correction
    return (
        ProtocolStep(sender, "measurement", {"basis": basis, "systems": measured, "outcome": outcome, "dimension": dim}),
        ProtocolStep(sender, "classical-message", {"to": receiver, "content": outcome}),
        ProtocolStep(receiver, "local-unitary", {"name": name, key: outcome, "system": system}),
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
    measurement is one GEMM over every outcome's stacked rows (one per first
    outcome for the second), bit for bit as rows keep each entry's ordered
    inner sum; matrix-vector products do not, so d_b = 1 keeps one per
    outcome.  The carried state's axes are (outcome..., carrier, B); the
    shift/clock corrections X^a Z^b are stacked along the same outcome axis.
    The operators come from ``_weyl_operators``' read-only cache (at most
    32 MiB an entry) once the budget admits the table.
    """
    mx._check_budget("teleportation branch table", d_a**4 * d_a * d_b)
    weyl, rows = _weyl_operators(d_a)
    n = len(weyl)
    bras = rows.reshape(n, d_a, d_a) if d_b == 1 else rows
    first = (bras @ psi.reshape(d_a, d_b)).reshape(n, d_a, d_b)
    marginal = np.sum(np.abs(first) ** 2, axis=(1, 2))
    moved = ((weyl @ first).reshape(n, -1) @ u.T).reshape(n, d_a, d_b)
    second = np.empty((n, n, d_a, d_b), dtype=complex)
    for carried, out in zip(moved, second):
        np.matmul(bras, carried, out=out.reshape(*bras.shape[:-1], d_b))
    joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
    return marginal, joint, (weyl @ second).reshape(n, n, -1)


def teleport_unitary_protocol(u, layout, input, seed: int = 0, branches="all"):
    """Implement u by teleporting the first system over and back.

    Alice teleports her side to Bob with a generalized Bell measurement
    and shift/clock corrections, Bob applies u locally, and the carrier
    is teleported back the same way.  Returns the transcript of one
    recorded run and its output state; the transcript's fidelity fields
    cover all d_a^4 measurement branches (or ``branches`` sampled runs).
    """
    samples, rng = _sample_count(branches), make_rng(seed, stream=11)
    u, layout = mx.on_layout(u, layout, "gate", unitary=True)
    if len(layout) != 2:
        raise ValueError(f"teleportation route needs a bipartite layout, got {len(layout)} systems")
    d_a, d_b = layout.dims
    psi = _as_state(input, d_a * d_b)
    fidelities, (i, j, output) = _run_branches(_teleport_table(psi, u, d_a, d_b), u @ psi, samples, rng)
    steps = (
        *_leg("Alice", ["input-A", "resource1-alice"], "generalized-bell", d_a, [*divmod(i, d_a)],
              ("shift-clock correction", "exponents", "resource1-bob")),
        ProtocolStep("Bob", "local-unitary", {"name": "apply gate", "systems": ["resource1-bob", "input-B"]}),
        *_leg("Bob", ["resource1-bob", "resource2-bob"], "generalized-bell", d_a, [*divmod(j, d_a)],
              ("shift-clock correction", "exponents", "resource2-alice")),
    )
    return _transcript("teleportation", steps, (d_a, d_a), fidelities), output


# ---------------------------------------------------------------------------
# controlled route


def _validate_form(form: ControlledForm, input_dim: int):
    """``(d_c, d_t, blocks as one stack)`` of a form whose every factor is unitary within ``VERDICT_RTOL``.

    That is the band ``is_controlled`` certifies its witnesses in by default,
    so every form it returns runs; ``d_c`` and ``d_t`` are read off ``q`` and the blocks.
    A block array of the right shape and dtype is the stack itself, not a copy.
    """
    from .control import VERDICT_RTOL  # the detectors that made the form are loaded by now

    # grouped_dims reads the length of q and the blocks' last axis
    mx.assert_unitary(form.q, "form.q", rtol=VERDICT_RTOL)
    if np.ndim(form.blocks) == 0:
        raise ValueError(f"form blocks must be a sequence of blocks, got {form.blocks!r}")
    d_c, d_t = form.grouped_dims
    if d_c * d_t != input_dim:
        raise ValueError(f"input must have dimension {d_c * d_t}, got {input_dim}")
    if mx.assert_unitary(form.r, "form.r", rtol=VERDICT_RTOL).shape[0] != d_c:
        raise ValueError(f"form.r must act on dimension {d_c}")
    stack = np.asarray(form.blocks, dtype=complex)
    if stack.shape != (d_c, d_t, d_t):
        raise ValueError(f"form blocks must stack to shape {(d_c, d_t, d_t)}, got {stack.shape}")
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"form block {np.argmin(finite)} contains non-finite entries")
    residuals = mx.unitarity_residuals(stack)
    bad = np.flatnonzero(residuals > VERDICT_RTOL)
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
    mx._check_budget("controlled branch table", m * m * d_c * d_t)
    outcomes = np.arange(m)
    group = np.asarray(group)
    # Alice's entangler |k, j> -> |k, j + g(k) mod m> applied to |Phi> on (a, b)
    resource = _powers(_shift(m))[group] / math.sqrt(m)
    state = (form.r @ psi.reshape(d_c, d_t))[:, :, None, None] * resource[:, None]
    # row s keeps Alice's half at a = s; contiguous, so the sums below keep one order
    first = np.ascontiguousarray(state.transpose(2, 0, 1, 3))
    marginal = np.sum(np.abs(first) ** 2, axis=(1, 2, 3))
    # Bob's recoil shift |x> -> |s - x mod m>, a gather: entry y of row s reads entry s - y mod m
    first = np.take_along_axis(first, ((outcomes[:, None] - outcomes) % m)[:, None, None], axis=3)
    # Bob's half selects the target block: block g acts when it reads g
    first = np.einsum("bxt,sctb->scxb", np.stack(reps), first)
    fourier_rows = np.exp(2j * np.pi * outcomes[:, None] * outcomes[None, :] / m).conj() / math.sqrt(m)
    second = np.einsum("tb,scxb->stcx", fourier_rows, first)
    joint = np.sum(np.abs(second) ** 2, axis=(2, 3))
    correction = np.exp(2j * np.pi * outcomes[:, None] * group[None, :] / m) * np.asarray(phases)
    outputs = np.einsum("yc,stcx->styx", form.q, second * correction[None, :, :, None])
    return marginal, joint, outputs.reshape(m, m, -1)


def _rotation(operand: str) -> ProtocolStep:
    """Alice's control-side rotation by the form's ``q`` or ``r``."""
    return ProtocolStep("Alice", "local-unitary", {"name": "control-side rotation", "operand": operand, "system": "control"})


def controlled_gate_protocol(form: ControlledForm, input, seed: int = 0, branches="all"):
    """Implement a controlled form with a rank-m resource, m = distinct blocks.

    Alice rotates by r, entangles her control's block-group index onto her
    resource half with a modular shift, and measures it; Bob undoes the
    shift, applies the grouped blocks conditioned on his half, and
    measures that half in the Fourier basis; Alice closes with a diagonal
    phase correction and q.  Blocks equal up to a global phase share a
    group, the phase being part of Alice's final correction.  With one
    group the gate is a product: the same table runs it with no resource
    and no messages, and ``branches`` applies to it too.
    """
    samples, rng = _sample_count(branches), make_rng(seed, stream=13)
    d_c, d_t, blocks = _validate_form(form, np.size(input))
    psi = _as_state(input, d_c * d_t)
    reps, group, phases = _merge_blocks(blocks, d_t)
    m = len(reps)
    # a form within VERDICT_RTOL of unitary moves the norm of form.apply(psi) by as much
    expected = form.apply(psi)
    expected /= np.linalg.norm(expected)
    table = _controlled_table(psi, form, reps, group, phases)
    fidelities, (s, t, output) = _run_branches(table, expected, samples, rng)
    if m == 1:
        steps = (
            _rotation("r"),
            ProtocolStep("Alice", "local-unitary", {"name": "diagonal phase correction", "system": "control"}),
            ProtocolStep("Bob", "local-unitary", {"name": "apply target block", "system": "target"}),
            _rotation("q"),
        )
        return _transcript("controlled", steps, (), fidelities), output

    steps = (
        _rotation("r"),
        ProtocolStep("Alice", "local-unitary", {"name": "group-index shift entangler", "systems": ["control", "resource-alice"]}),
        *_leg("Alice", ["resource-alice"], "computational", m, s, ("shift correction", "shift", "resource-bob")),
        ProtocolStep("Bob", "local-unitary", {"name": "apply grouped target blocks", "systems": ["resource-bob", "target"]}),
        *_leg("Bob", ["resource-bob"], "fourier", m, t, ("diagonal phase correction", "fourier-outcome", "control")),
        _rotation("q"),
    )
    return _transcript("controlled", steps, (m,), fidelities), output


# ---------------------------------------------------------------------------
# verification


def verify_protocol(transcript: ProtocolTranscript, u, input, output) -> VerificationReport:
    """Replay a transcript's claims against the gate itself.

    Checks that the resource ranks, which the ledger is read off, are
    positive integers, that every classical message announces an outcome
    its sender has already measured, and that step actors and kinds are
    well formed; any inconsistency raises ProtocolError.  The returned
    report carries the fidelity between the transcript's output and u
    applied directly.
    """
    for rank in transcript.resources:
        if not mx._is_int(rank) or rank < 1:
            raise ProtocolError(f"resource ranks must be positive integers, got {rank!r}")

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
    return VerificationReport(fidelity=fidelity, measurements=measurements, messages=messages)
