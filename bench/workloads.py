"""The benchmark's four workloads, built from a seed.

Each builder returns a ``Workload``: a fixed, ordered case list that the
closed loop replays in whole cycles, a few cheap warm-up cases, and the
untimed operations: a call too slow to repeat many times in a run, and
operations that are known to fail at the parent commit (cap probes and the
near-miss band sweep). Every case carries a check against the truth
the instance was built with or against an independent computation. The
library receives only the generated inputs. README.md in this directory
says why each workload exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.linalg

from schmidt_lab import control, gates, protocols, schmidt, schmidt_number
from schmidt_lab import matrices as mx
from schmidt_lab.errors import SchmidtLabError
from schmidt_lab.factorizations import RANK_RTOL
from schmidt_lab.randomness import haar_unitary, make_rng, random_hermitian, random_state

# originals, bound before any tracer rewires the modules, so that the
# benchmark's own checks never call a traced function
_realign = mx.realign
_FIDELITY_FLOOR = protocols.FIDELITY_FLOOR

# band index of a verdict: controlled, inconclusive, refuted
CONTROLLED, INCONCLUSIVE, REFUTED = 0, 1, 2
NEAR_MISS_EPS = tuple(10.0 ** -k for k in range(12, 1, -1))


@dataclass
class Case:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda result: None


@dataclass
class Probe:
    """An operation that fails at the parent commit, run untimed in a child."""

    name: str
    function: str  # traced name of the call, for the failure span


@dataclass
class Workload:
    cases: list
    warmup: list
    # checked once after the timed loop: one call takes seconds, too long to
    # repeat often enough in a run for a steady median
    untimed: list = field(default_factory=list)
    probes: tuple = ()
    sweep: Callable[[], dict] | None = None
    # a run keeps cycling until it holds at least this many timed calls
    min_calls: int = 100


# fixed inputs of the reference kernel; never derived from a workload seed
_REF_RNG = np.random.default_rng(20140721)
_REF_MATRICES = [_REF_RNG.normal(size=(n, n)) + 1j * _REF_RNG.normal(size=(n, n)) for n in (4, 8, 16, 32)]


def reference() -> float:
    """The reference kernel: a fixed mix of small complex SVDs, products,
    Kronecker products and interpreter work, about 1 ms on an idle core.

    It calls numpy and the interpreter only, never the library, so that no
    change to the library can change its time; the timed loop runs it
    around every call and reports costs in units of its time.
    """
    acc = 0.0
    for m in _REF_MATRICES + _REF_MATRICES:
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        acc += float(np.abs(np.kron(m[:4, :4], m[:4, :4])).sum())
        acc += float(np.trace(m @ m.conj().T).real)
    total = 0
    for i in range(4000):
        total += i * i
    return acc + total


def _sub(seed: int, k: int) -> int:
    """Instance seed k of a workload seed."""
    return seed * 10_007 + k


def _band(verdict) -> int:
    if verdict.controlled:
        return CONTROLLED
    return INCONCLUSIVE if verdict.inconclusive else REFUTED


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# ---------------------------------------------------------------- checks


def _check_decomposition(u, dims, rank):
    def check(dec):
        reference = np.linalg.svd(_realign(u, dims), compute_uv=False)
        ref_rank = int(np.count_nonzero(reference > RANK_RTOL * reference[0]))
        if dec.rank != rank or ref_rank != rank:
            return f"rank {dec.rank} (numpy {ref_rank}), built with {rank}"
        gap = np.max(np.abs(dec.coefficients - reference[:rank]))
        if gap > RANK_RTOL * reference[0]:
            return f"coefficients differ from numpy svd by {gap:.3e}"
        if _rel(dec.grouped_operator(), u) > 1e-9:
            return "factors do not rebuild the input"
        return None
    return check


def _check_rank(rank):
    def check(report):
        return None if report.rank == rank else f"rank {report.rank}, built with {rank}"
    return check


def _check_controlled(u):
    def check(verdict):
        if not verdict.controlled:
            return f"structured instance not controlled: {verdict.failed_check}"
        if _rel(verdict.form.operator(), u) > 1e-8:
            return "ControlledForm.operator() does not rebuild the grouped input"
        return None
    return check


def _check_band(band):
    def check(verdict):
        got = _band(verdict)
        return None if got == band else f"band {got}, expected {band}"
    return check


def _check_not_controlled(verdict):
    return "perturbed instance came back controlled" if verdict.controlled else None


def _check_bcu(verdict):
    return None if verdict.bcu else f"controlled instance not BCU: {verdict.failed_check}"


def _check_refuted(verdict):
    positive = getattr(verdict, "controlled", None) or getattr(verdict, "bcu", None)
    if positive:
        return "Haar instance came back positive"
    if verdict.inconclusive:
        return "Haar instance came back inconclusive, not refuted"
    return None


def _check_ancilla(rank):
    def check(report):
        if report.rank_with_ancillas != rank or report.operator_schmidt_rank != rank:
            return (f"ancilla rank {report.rank_with_ancillas}, operator rank "
                    f"{report.operator_schmidt_rank}, built with {rank}")
        return None
    return check


def _check_fuzz(summary):
    return None if summary.passes == summary.trials else f"{summary.passes}/{summary.trials} passed"


def _check_subsets(expected):
    def check(report):
        got = report.controlled_subsets
        return None if got == expected else f"controlled subsets {got}, expected {expected}"
    return check


# ------------------------------------------------------------- low-rank

LADDER = (3, 4, 8, 16)


def _schineq_terms(seed, d_a, d_b, delta_a, n_terms):
    """Term lists whose left span has dimension delta_a and right span n_terms."""
    rng = make_rng(seed)
    basis = [haar_unitary(d_a, rng) for _ in range(delta_a)]
    a_ops = [sum(rng.normal() * b for b in basis) for _ in range(n_terms)]
    b_ops = [haar_unitary(d_b, rng) for _ in range(n_terms)]
    return a_ops, b_ops


def _check_schineq(a_ops, b_ops):
    def rank(stack):
        s = np.linalg.svd(np.array(stack), compute_uv=False)
        return int(np.count_nonzero(s > RANK_RTOL * s[0]))

    d_a, d_b = a_ops[0].shape[0], b_ops[0].shape[0]
    total = sum(np.kron(a, b) for a, b in zip(a_ops, b_ops))
    expected = (
        rank([a.reshape(-1) for a in a_ops]),
        rank([b.reshape(-1) for b in b_ops]),
        rank(_realign(total, (d_a, d_b))),
    )

    def check(report):
        got = (report.delta_a, report.delta_b, report.rank)
        if got != expected:
            return f"(delta_a, delta_b, rank) {got}, numpy gives {expected}"
        return None if report.all_hold else "span-dimension inequality reported broken"
    return check


def _near_miss(u, eps, seed):
    h = random_hermitian(u.shape[0], make_rng(seed))
    return scipy.linalg.expm(1j * eps * h) @ u


def low_rank(seed: int) -> Workload:
    cases = []

    def add(name, call, check):
        cases.append(Case(name, call, check))

    rc = {}
    for d in LADDER:
        for r in (2, 3):
            u, lay = gates.random_controlled_unitary(d, d, r, seed=_sub(seed, 10 * d + r))
            rc[d, r] = (u, lay)
            tag = f"rc-r{r}-{d}x{d}"
            add(f"decompose {tag}", lambda u=u, lay=lay: schmidt.operator_schmidt_decompose(u, lay, (0,)),
                _check_decomposition(u, (d, d), r))
            add(f"schmidt_rank {tag}", lambda u=u, lay=lay: schmidt.schmidt_rank(u, lay, (0,)),
                _check_rank(r))
            add(f"is_controlled {tag}", lambda u=u, lay=lay: control.is_controlled(u, lay, (0,)),
                _check_controlled(u))
            if d <= 4:
                add(f"is_bcu {tag}", lambda u=u, lay=lay: control.is_bcu(u, lay, (0,)), _check_bcu)
            if d <= 8:
                add(f"ancilla {tag}", lambda u=u, lay=lay: schmidt_number.ancilla_extended_check(u, lay, (0,)),
                    _check_ancilla(r))

    # even-qubit family: the first qubit controls, rank 2 across that cut
    for n in (4, 6):
        base, lay = gates.even_qubit_rank3(n)
        u = gates.random_local_scramble(base, lay, seed=_sub(seed, 400 + n))
        dims = (2, 2 ** (n - 1))
        add(f"decompose even-qubit-{n}", lambda u=u, lay=lay: schmidt.operator_schmidt_decompose(u, lay, (0,)),
            _check_decomposition(u, dims, 2))
        add(f"is_controlled even-qubit-{n}", lambda u=u, lay=lay: control.is_controlled(u, lay, (0,)),
            _check_controlled(u))

    # odd family: rank 3 across every single-system cut, controlled by pairs only
    for n in (3, 5):
        base, lay = gates.u_odd_n(n)
        u = gates.random_local_scramble(base, lay, seed=_sub(seed, 500 + n))
        add(f"schmidt_rank u-odd-{n}", lambda u=u, lay=lay: schmidt.schmidt_rank(u, lay, (0,)), _check_rank(3))
        add(f"is_controlled u-odd-{n} side 0", lambda u=u, lay=lay: control.is_controlled(u, lay, (0,)),
            _check_band(REFUTED))
        add(f"is_controlled u-odd-{n} side 0,1", lambda u=u, lay=lay: control.is_controlled(u, lay, (0, 1)),
            _check_controlled(u))

    for k, (d_a, d_b, delta_a, n_terms) in enumerate(((3, 3, 2, 4), (4, 2, 3, 5))):
        a_ops, b_ops = _schineq_terms(_sub(seed, 600 + k), d_a, d_b, delta_a, n_terms)
        add(f"schineq {d_a}x{d_b}", lambda a=a_ops, b=b_ops: schmidt.schineq_check(a, b),
            _check_schineq(a_ops, b_ops))

    # timed near-miss cases sit on both sides of the inconclusive band; the
    # whole decade sweep runs untimed in ``sweep`` below
    for d, r in ((3, 3), (4, 2)):
        u, lay = rc[d, r]
        for eps, check in ((1e-12, _check_controlled(u)), (1e-4, _check_not_controlled)):
            dressed = _near_miss(u, eps, _sub(seed, 700 + d))
            add(f"is_controlled near-miss rc-r{r}-{d}x{d} eps {eps:.0e}",
                lambda v=dressed, lay=lay: control.is_controlled(v, lay, (0,)), check)

    swap, swap_lay = gates.swap_gate()
    search_seed = _sub(seed, 800)
    add("search swap", lambda: schmidt_number.max_output_schmidt_rank_search(
        swap, swap_lay, (0,), restarts=8, seed=search_seed),
        lambda res: None if res.max_rank == 1 else f"swap output rank {res.max_rank}, expected 1")

    for suite in control.FUZZ_SUITES:
        add(f"fuzz {suite}", lambda suite=suite: control.fuzz_theorem_checks(suite, 2, seed=_sub(seed, 900)),
            _check_fuzz)

    def sweep():
        return near_miss_sweep(seed, rc)

    warm = [c for c in cases if "3x3" in c.name and "near-miss" not in c.name]
    return Workload(cases=cases, warmup=warm, sweep=sweep)


def near_miss_sweep(seed, rc):
    """Verdicts of expm(i eps H) U over eps across decades, each call guarded.

    Bands must never move back toward controlled as eps grows, the smallest
    eps must stay controlled and the largest must be refuted. Calls that
    raise are failed operations, not wrong results.
    """
    attempted = failed = 0
    wrong = []
    errors = []
    for d, r in ((3, 3), (4, 2), (4, 3)):
        u, lay = rc[d, r]
        bands = []
        for eps in NEAR_MISS_EPS:
            attempted += 1
            dressed = _near_miss(u, eps, _sub(seed, 700 + d + r))
            try:
                verdict = control.is_controlled(dressed, lay, (0,))
            except (SchmidtLabError, ValueError, np.linalg.LinAlgError) as exc:
                failed += 1
                errors.append(f"rc-r{r}-{d}x{d} eps {eps:.0e}: {type(exc).__name__}")
                continue
            bands.append((eps, _band(verdict)))
        tag = f"rc-r{r}-{d}x{d}"
        for (e1, b1), (e2, b2) in zip(bands, bands[1:]):
            if b2 < b1:
                wrong.append(f"{tag}: band {b1} at eps {e1:.0e} fell to {b2} at {e2:.0e}")
        ends = dict(bands)
        if ends.get(NEAR_MISS_EPS[0], CONTROLLED) != CONTROLLED:
            wrong.append(f"{tag}: eps {NEAR_MISS_EPS[0]:.0e} not controlled")
        if ends.get(NEAR_MISS_EPS[-1], REFUTED) != REFUTED:
            wrong.append(f"{tag}: eps {NEAR_MISS_EPS[-1]:.0e} not refuted")
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "errors": errors}


# ------------------------------------------------------------ full-rank


def _haar(seed, d):
    return haar_unitary(d * d, make_rng(seed)), (d, d)


def _permuted_u3(seed):
    base, lay = gates.u3()
    u = gates.random_local_scramble(base, lay, seed=seed)
    perm = tuple(int(i) for i in make_rng(seed, stream=99).permutation(3))
    return mx.permute_systems(u, lay, perm), lay


ALL_PAIRS_3 = ((0, 1), (0, 2), (1, 2))


def full_rank(seed: int) -> Workload:
    # Sorted by cost, a cycle holds 12 cheap 2x2 calls, 19 multipartite
    # sweeps of three-qubit gates, 6 is_controlled on 3x3 and 2 heavy calls
    # (is_bcu 3x3, is_controlled 4x4). The median then falls in the middle
    # of the multipartite sweeps and p90 among the 3x3 pair scans, both
    # CPU-bound clusters with little run-to-run spread. The four-qubit
    # sweep takes 1.2 to 1.8 s and runs untimed.
    cases = []
    for d, count, bcu in ((2, 6, 6), (3, 6, 1), (4, 1, 0)):
        for k in range(count):
            u, lay = _haar(_sub(seed, 100 * d + k), d)
            cases.append(Case(f"is_controlled haar-{d}x{d}-{k}",
                              lambda u=u, lay=lay: control.is_controlled(u, lay, (0,)), _check_refuted))
            if k < bcu:
                cases.append(Case(f"is_bcu haar-{d}x{d}-{k}",
                                  lambda u=u, lay=lay: control.is_bcu(u, lay, (0,)), _check_refuted))
    named = [
        ("u3", gates.u3(), ALL_PAIRS_3),
        ("padded-2x2x3", gates.padded_2x2xn(3), ALL_PAIRS_3),
        ("padded-2x2x4", gates.padded_2x2xn(4), ALL_PAIRS_3),
    ] + [(f"permuted-u3-{k}", _permuted_u3(_sub(seed, 500 + k)), ALL_PAIRS_3) for k in range(16)]
    for name, (u, lay), expected in named:
        cases.append(Case(f"multipartite {name}",
                          lambda u=u, lay=lay: control.multipartite_control_analysis(u, lay),
                          _check_subsets(expected)))
    u, lay = gates.four_qubit_example()
    untimed = [Case("multipartite four-qubit",
                    lambda u=u, lay=lay: control.multipartite_control_analysis(u, lay),
                    _check_subsets(((0, 1), (2, 3))))]
    probes = (
        Probe("is_controlled haar-8x8", "control.is_controlled"),
        Probe("is_bcu rc-r3-16x16", "control.is_bcu"),
        Probe("is_bcu rc-r3-32x32", "control.is_bcu"),
        Probe("is_bcu haar-4x4", "control.is_bcu"),
        Probe("is_bcu haar-8x8", "control.is_bcu"),
    )
    warm = [cases[0], cases[1], next(c for c in cases if c.name == "multipartite u3")]
    return Workload(cases=cases, warmup=warm, untimed=untimed, probes=probes)


def probe_call(name: str, seed: int):
    """Instance and call for one cap probe, plus the check of a finished result."""
    kind, instance = name.split(" ")
    d = int(instance.split("-")[-1].split("x")[0])
    if instance.startswith("haar-"):
        u, lay = _haar(_sub(seed, 1000 + d), d)
        check = _check_refuted
    else:
        u, lay = gates.random_controlled_unitary(d, d, 3, seed=_sub(seed, 1100 + d))
        check = _check_bcu
    detector = getattr(control, kind)
    return (lambda: detector(u, lay, (0,))), check


# ------------------------------------------------------------ protocols


def _check_protocol(u, psi, branches):
    expected = u @ psi
    expected = expected / np.linalg.norm(expected)

    def check(result):
        transcript, output, report = result
        fidelity = abs(np.vdot(expected, output))
        if fidelity < _FIDELITY_FLOOR or not report.ok:
            return f"output fidelity {fidelity:.15f} below the floor"
        if transcript.min_branch_fidelity < _FIDELITY_FLOOR:
            return f"branch fidelity {transcript.min_branch_fidelity:.15f} below the floor"
        if transcript.branches_checked != branches:
            return f"{transcript.branches_checked} branches checked, expected {branches}"
        return None
    return check


def _teleport(u, lay, psi, seed, branches):
    transcript, output = protocols.teleport_unitary_protocol(u, lay, psi, seed=seed, branches=branches)
    return transcript, output, protocols.verify_protocol(transcript, u, psi, output)


def _controlled(form, u, psi, seed, branches):
    transcript, output = protocols.controlled_gate_protocol(form, psi, seed=seed, branches=branches)
    return transcript, output, protocols.verify_protocol(transcript, u, psi, output)


def protocol_workload(seed: int) -> Workload:
    # Sampled runs are 22 of the 34 calls, and the median falls in the middle
    # of the four 4-branch runs at d_a = 3. The four d_a = 3 sweeps sit just
    # below the single d_a = 4 sweep, so p90 falls among the exhaustive sweeps.
    exhaustive, sampled = [], []
    run_seed = _sub(seed, 1)
    for k, d in enumerate((2, 3, 3, 3, 3, 4)):
        u, lay = _haar(_sub(seed, 100 + k), d)
        psi = random_state(d * d, make_rng(_sub(seed, 200 + k)))
        tag = f"haar-{d}x{d}-{k}"
        exhaustive.append(Case(f"teleport all {tag}",
                               lambda u=u, lay=lay, psi=psi: _teleport(u, lay, psi, run_seed, "all"),
                               _check_protocol(u, psi, d ** 4)))
        for n in (2, 4, 8) if d == 3 else (2, 4):
            sampled.append(Case(f"teleport {n} {tag}",
                                lambda u=u, lay=lay, psi=psi, n=n: _teleport(u, lay, psi, run_seed, n),
                                _check_protocol(u, psi, n)))
    for d in (4, 8, 16):
        for r in (2, 3):
            u, lay = gates.random_controlled_unitary(d, d, r, seed=_sub(seed, 300 + 10 * d + r))
            # the witness is built here so no detection runs in the timed loop
            form = control.is_controlled(u, lay, (0,)).form
            psi = random_state(d * d, make_rng(_sub(seed, 400 + 10 * d + r)))
            tag = f"rc-r{r}-{d}x{d}"
            exhaustive.append(Case(f"controlled all {tag}",
                                   lambda f=form, u=u, psi=psi: _controlled(f, u, psi, run_seed, "all"),
                                   _check_protocol(u, psi, r * r)))
            sampled.append(Case(f"controlled 4 {tag}",
                                lambda f=form, u=u, psi=psi: _controlled(f, u, psi, run_seed, 4),
                                _check_protocol(u, psi, 4)))
    cases = exhaustive + sampled
    warm = [exhaustive[0], sampled[0], exhaustive[6], sampled[-1]]
    return Workload(cases=cases, warmup=warm)


# ------------------------------------------------------------------ cli


def _write_gate(path, u, lay):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(mx.matrix_to_json(u, lay.dims), handle, sort_keys=True)
    return path


def cli_workload(seed: int, workdir: str, run_cli) -> Workload:
    """Cold CLI processes, one per command; ``run_cli(argv)`` returns (code, stdout)."""
    s = str(_sub(seed, 1))
    rc_params = {"d_ctrl": 8, "d_tgt": 8, "r": 3, "seed": _sub(seed, 2)}
    u, lay = gates.random_controlled_unitary(**rc_params)
    rc = _write_gate(os.path.join(workdir, "rc-8x8.json"), u, lay)
    # a 256x256 gate: about 3 MB of JSON to read, and to write from construct
    rc16_params = {"d_ctrl": 16, "d_tgt": 16, "r": 2, "seed": _sub(seed, 4)}
    rc16 = _write_gate(os.path.join(workdir, "rc-16x16.json"), *gates.random_controlled_unitary(**rc16_params))
    u2, lay2 = gates.random_controlled_unitary(2, 2, 2, seed=_sub(seed, 3))
    rc2 = _write_gate(os.path.join(workdir, "rc-2x2.json"), u2, lay2)
    u3 = _write_gate(os.path.join(workdir, "u3.json"), *gates.u3())
    swap = _write_gate(os.path.join(workdir, "swap.json"), *gates.swap_gate())

    def payload_is(key, value):
        def check(payload):
            got = payload.get(key)
            return None if got == value else f"payload {key} = {got!r}, expected {value!r}"
        return check

    commands = [
        (["construct", "--gate", "u3"], 0, payload_is("gate", "u3")),
        (["construct", "--gate", "random-controlled", "--params", json.dumps(rc16_params, sort_keys=True)],
         0, payload_is("gate", "random-controlled")),
        (["decompose", rc, "--cut", "0"], 0, payload_is("rank", 3)),
        (["detect", rc, "--side", "A"], 0, payload_is("controlled", True)),
        (["detect", rc16, "--side", "A"], 0, payload_is("controlled", True)),
        (["detect", rc, "--side", "A", "--bcu"], 0, payload_is("bcu", True)),
        (["detect", u3, "--side", "0"], 1, payload_is("controlled", False)),
        (["protocol", rc, "--route", "controlled", "--seed", s], 0, payload_is("controlled", True)),
        (["protocol", rc, "--route", "cost", "--terms", "3"], 0, lambda p: None),
        (["protocol", rc2, "--route", "teleport", "--seed", s], 0, lambda p: None),
        (["schmidt-number", swap, "--cut", "0", "--restarts", "8", "--seed", s], 0, payload_is("max_rank", 1)),
        (["schmidt-number", rc, "--cut", "0", "--ancilla"], 0, payload_is("rank_with_ancillas", 3)),
        (["fuzz", "--theorem", "sch3", "--trials", "3", "--seed", s], 0, payload_is("passes", 3)),
    ]
    first_stdout = {}
    cases = []
    for argv, code, payload_check in commands:
        key = " ".join(argv)

        def check(result, key=key, code=code, payload_check=payload_check):
            got_code, stdout = result
            if got_code != code:
                return f"exit code {got_code}, expected {code}"
            if first_stdout.setdefault(key, stdout) != stdout:
                return "stdout differs from the first run of the same command"
            return payload_check(json.loads(stdout).get("payload") or {})

        name = "cli " + " ".join(a if not a.startswith(workdir) else os.path.basename(a) for a in argv)
        cases.append(Case(name, lambda argv=argv: run_cli(argv), check))
    # A cold process costs 0.6 to 1.5 s: three cycles are always at least as
    # long as a 20 s run, so every run takes each command's median of three.
    # The three commands of over a second (the 256x256 construct and detect,
    # and detect --bcu) are nine of 39 calls, so p90 falls among them.
    return Workload(cases=cases, warmup=[cases[7]], min_calls=3 * len(cases))


BUILDERS = {
    "low-rank": low_rank,
    "full-rank": full_rank,
    "protocols": protocol_workload,
    "cli": cli_workload,
}
