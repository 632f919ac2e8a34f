"""Batch command-line surface over the analysis and construction toolkit.

Each invocation runs one command and writes a single JSON object to
standard output (machine channel) plus short human-readable lines to
standard error.  Exit codes are part of the contract:

    0  success, or a positive verdict
    1  negative verdict (the math says no)
    2  invalid input (bad files, flags, dimensions)
    3  numerical or structural failure, or out of memory
    4  inconclusive verdict (near-miss band)

Floats are serialized at the shortest representation that round-trips a
double, so identical seeds give byte-identical output.  Input matrices
are echoed back only under --verbose to keep outputs diffable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import control, gates, protocols, schmidt, schmidt_number
from . import matrices as mx
from .errors import NumericalError, ProtocolError, StructureError
from .randomness import make_rng, random_state

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4


@dataclass(frozen=True)
class CommandResult:
    """One command's outcome: a status, its JSON payload, and human lines."""

    status: str
    payload: dict | None
    diagnostics: list
    exit_code: int


def _json_default(value):
    """``json`` hook for the numpy and complex values a payload may hold."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=_json_default)


def _emit(result: CommandResult) -> int:
    envelope = {"status": result.status, "diagnostics": list(result.diagnostics)}
    if result.payload is not None:
        envelope["payload"] = result.payload
    sys.stdout.write(_dumps(envelope) + "\n")
    for line in result.diagnostics:
        sys.stderr.write(line + "\n")
    return result.exit_code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _parse_indices(raw: str, what: str):
    try:
        return tuple(int(token) for token in raw.split(",") if token.strip() != "")
    except ValueError:
        raise ValueError(f"{what} must be comma-separated system indices, got {raw!r}") from None


def _parse_side(raw: str, layout):
    text = raw.strip().upper()
    if text in ("A", "B"):
        if len(layout) != 2:
            raise ValueError("side letters A/B only apply to bipartite layouts")
        return (0,) if text == "A" else (1,)
    return _parse_indices(raw, "side")


def _tol_kwargs(args) -> dict:
    tol = getattr(args, "tol", None)
    return {} if tol is None else {"tol": mx.checked_tol(tol, "--tol")}


def _single_system_json(m: np.ndarray) -> dict:
    return mx.matrix_to_json(m, (m.shape[0],))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_decompose(args) -> CommandResult:
    u, layout = mx.matrix_from_json(_load_json(args.path))
    cut = _parse_indices(args.cut, "cut")
    dec = schmidt.operator_schmidt_decompose(u, layout, cut, **_tol_kwargs(args))
    payload = {
        "dims": list(layout.dims),
        "cut": list(dec.cut),
        "rank": dec.rank,
        "coefficients": [float(c) for c in dec.coefficients],
    }
    if args.verbose:
        payload["left_factors"] = [_single_system_json(f) for f in dec.left_factors]
        payload["right_factors"] = [_single_system_json(f) for f in dec.right_factors]
        payload["input"] = mx.matrix_to_json(u, layout.dims)
    diagnostics = [f"rank {dec.rank} across cut {list(dec.cut)} of dims {list(layout.dims)}"]
    return CommandResult("ok", payload, diagnostics, EXIT_OK)


def _verdict_result(payload: dict, positive: bool, inconclusive: bool, summary: str) -> CommandResult:
    if positive:
        return CommandResult("ok", payload, [summary], EXIT_OK)
    if inconclusive:
        return CommandResult("inconclusive", payload, [summary], EXIT_INCONCLUSIVE)
    return CommandResult("verdict-negative", payload, [summary], EXIT_NEGATIVE)


def _cmd_detect(args) -> CommandResult:
    u, layout = mx.matrix_from_json(_load_json(args.path))
    side = _parse_side(args.side, layout)
    if args.bcu:
        verdict = control.is_bcu(u, layout, side, **_tol_kwargs(args))
        payload = {
            "bcu": verdict.bcu,
            "side": list(verdict.side),
            "failed_check": verdict.failed_check,
            "inconclusive": verdict.inconclusive,
            "violation": verdict.violation,
        }
        if verdict.input_projectors is not None:
            payload["input_projectors"] = [_single_system_json(p) for p in verdict.input_projectors]
            payload["output_projectors"] = [_single_system_json(p) for p in verdict.output_projectors]
        summary = f"side {list(side)}: " + (
            "block-controlled" if verdict.bcu else f"not block-controlled ({verdict.failed_check})"
        )
        result = _verdict_result(payload, verdict.bcu, verdict.inconclusive, summary)
    else:
        verdict = control.is_controlled(u, layout, side, **_tol_kwargs(args))
        payload = {
            "controlled": verdict.controlled,
            "side": list(side),
            "schmidt_rank": verdict.schmidt_rank,
            "failed_check": verdict.failed_check,
            "inconclusive": verdict.inconclusive,
            "violation": verdict.violation,
        }
        if verdict.form is not None:
            payload["grouped_dims"] = list(verdict.form.grouped_dims)
            payload["blocks"] = [_single_system_json(b) for b in verdict.form.blocks]
            payload["q"] = _single_system_json(verdict.form.q)
            payload["r"] = _single_system_json(verdict.form.r)
        summary = f"side {list(side)}: " + (
            f"controlled with {len(verdict.form.blocks)} blocks"
            if verdict.controlled
            else f"not controlled ({verdict.failed_check})"
        )
        result = _verdict_result(payload, verdict.controlled, verdict.inconclusive, summary)
    if args.verbose:
        result.payload["input"] = mx.matrix_to_json(u, layout.dims)
    return result


def _cmd_construct(args) -> CommandResult:
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--params is not valid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise ValueError("--params must be a JSON object")
    m, layout = gates.build_gate(args.gate, **params)
    matrix_json = mx.matrix_to_json(m, layout.dims)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_dumps(matrix_json))
    payload = {"gate": args.gate, "params": params, "matrix": matrix_json}
    diagnostics = [f"built {args.gate} on dims {list(layout.dims)}"]
    return CommandResult("ok", payload, diagnostics, EXIT_OK)


def _cmd_protocol(args) -> CommandResult:
    u, layout = mx.matrix_from_json(_load_json(args.path))
    branches = "all" if args.branches is None else args.branches

    if args.route == "cost":
        if len(layout) != 2:
            raise ValueError("cost route needs a bipartite layout")
        d_a, d_b = sorted(layout.dims)
        report = protocols.entanglement_cost_upper(d_a, d_b, controlled_terms=args.terms)
        payload = {"k": report.k, "ebits": report.ebits, "route": report.route}
        diagnostics = [f"resource rank {report.k} ({report.ebits:.6f} ebits) via {report.route}"]
        return CommandResult("ok", payload, diagnostics, EXIT_OK)

    if args.input:
        psi, state_layout = mx.state_from_json(_load_json(args.input))
        if state_layout.dims != layout.dims:
            raise ValueError(f"input state dims {state_layout.dims} do not match gate dims {layout.dims}")
    else:
        psi = random_state(layout.total, make_rng(args.seed, stream=23))

    if args.route == "teleport":
        transcript, output = protocols.teleport_unitary_protocol(
            u, layout, psi, seed=args.seed, branches=branches
        )
        payload, route, dims = {}, "teleportation", layout.dims
        summary = (
            f"teleportation: {transcript.branches_checked} branches, "
            f"min fidelity {transcript.min_branch_fidelity:.12f}, "
            f"{transcript.ebits_consumed:.6f} ebits"
        )
    else:
        # controlled route: detect first, then run the protocol on the witness
        side = _parse_side(args.side, layout)
        verdict = control.is_controlled(u, layout, side)
        if not verdict.controlled:
            payload = {
                "controlled": False,
                "side": list(side),
                "failed_check": verdict.failed_check,
                "inconclusive": verdict.inconclusive,
            }
            summary = f"side {list(side)}: not controlled ({verdict.failed_check})"
            return _verdict_result(payload, False, verdict.inconclusive, summary)
        side = verdict.form.side
        psi = mx.group_states(psi[None], layout, *mx.cut_order(layout, side)[1:]).reshape(-1)
        transcript, output = protocols.controlled_gate_protocol(
            verdict.form, psi, seed=args.seed, branches=branches
        )
        u, _ = mx.group_systems(u, layout, side)
        payload = {"controlled": True, "side": list(side)}
        route, dims = "controlled-route", verdict.form.grouped_dims
        summary = (
            f"controlled route: resource rank {transcript.resource_rank}, "
            f"{transcript.ebits_consumed:.6f} ebits, min fidelity {transcript.min_branch_fidelity:.12f}"
        )
    # u and psi are in the frame the route ran in: grouped, on the controlled route
    report = protocols.verify_protocol(transcript, u, psi, output)
    payload["transcript"] = transcript.to_json()
    payload["verification"] = {
        "fidelity": report.fidelity,
        "ok": report.ok,
        "measurements": report.measurements,
        "messages": report.messages,
    }
    if args.verbose:
        payload["output"] = mx.state_to_json(output, dims)
    if not report.ok:
        raise NumericalError(f"{route} branch fidelity dropped to {report.fidelity}")
    return CommandResult("ok", payload, [summary], EXIT_OK)


def _cmd_schmidt_number(args) -> CommandResult:
    u, layout = mx.matrix_from_json(_load_json(args.path))
    cut = _parse_indices(args.cut, "cut")
    if args.ancilla:
        report = schmidt_number.ancilla_extended_check(u, layout, cut, **_tol_kwargs(args))
        if not report.matches:
            raise NumericalError(
                f"ancilla-extended rank {report.rank_with_ancillas} missed the operator rank "
                f"{report.operator_schmidt_rank}"
            )
        payload = {
            "rank_with_ancillas": report.rank_with_ancillas,
            "operator_schmidt_rank": report.operator_schmidt_rank,
            "matches": report.matches,
        }
        diagnostics = [f"ancilla-extended rank {report.rank_with_ancillas} matches the operator rank"]
        return CommandResult("ok", payload, diagnostics, EXIT_OK)
    result = schmidt_number.max_output_schmidt_rank_search(
        u, layout, cut, restarts=args.restarts, seed=args.seed, **_tol_kwargs(args)
    )
    payload = {
        "max_rank": result.max_rank,
        "witness": [mx.state_to_json(s, (s.shape[0],)) for s in result.witness.local_states],
        "singular_values": [float(s) for s in result.singular_values],
    }
    diagnostics = [f"best output rank found: {result.max_rank}"]
    return CommandResult("ok", payload, diagnostics, EXIT_OK)


def _cmd_fuzz(args) -> CommandResult:
    summary = control.fuzz_theorem_checks(args.theorem, args.trials, seed=args.seed)
    payload = {
        "suite": summary.suite,
        "trials": summary.trials,
        "passes": summary.passes,
        "failures": list(summary.failures),
        "seed": summary.seed,
        "ok": summary.ok,
    }
    if summary.first_counterexample_dims is not None:
        payload["first_counterexample_dims"] = list(summary.first_counterexample_dims)
        if args.verbose and summary.first_counterexample is not None:
            payload["first_counterexample"] = mx.matrix_to_json(
                summary.first_counterexample, summary.first_counterexample_dims
            )
    return _verdict_result(payload, summary.ok, False, f"{summary.suite}: {summary.passes}/{summary.trials} passed")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt-lab",
        description=(
            "Operator Schmidt structure, controlled-unitary detection, gate "
            "construction, LOCC protocol simulation, and randomized checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="operator Schmidt decomposition across a cut")
    p.add_argument("path", help="matrix JSON file")
    p.add_argument("--cut", default="0", help="comma-separated systems forming one side")
    p.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("detect", help="controlled-unitary or block-split detection")
    p.add_argument("path", help="matrix JSON file")
    p.add_argument("--side", default="0", help="control side: A, B, or comma-separated indices")
    p.add_argument("--bcu", action="store_true", help="detect invariant block splits instead")
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("construct", help="build a registered gate")
    p.add_argument("--gate", required=True, help="registry name")
    p.add_argument("--params", default=None, help="JSON object of builder parameters")
    p.add_argument("--out", default=None, help="write the matrix JSON to this file")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("protocol", help="simulate an implementation route or compute its cost")
    p.add_argument("path", help="matrix JSON file")
    p.add_argument("--route", required=True, choices=("teleport", "controlled", "cost"))
    p.add_argument("--input", default=None, help="state JSON file (default: seeded random state)")
    p.add_argument("--side", default="0", help="control side for the controlled route")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--branches", type=int, default=None, help="sample this many branches instead of all")
    p.add_argument("--terms", type=int, default=None, help="known block count for the cost route")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_protocol)

    p = sub.add_parser("schmidt-number", help="output-rank search or ancilla-extended check")
    p.add_argument("path", help="matrix JSON file")
    p.add_argument("--cut", default="0", help="comma-separated systems forming one side")
    p.add_argument("--restarts", type=int, default=schmidt_number.SEARCH_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ancilla", action="store_true", help="run the ancilla-extended check instead")
    p.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
    p.set_defaults(handler=_cmd_schmidt_number)

    p = sub.add_parser("fuzz", help="randomized detection suites over structured instances")
    p.add_argument("--theorem", required=True, help=f"one of {', '.join(control.FUZZ_SUITES)}")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        result = args.handler(args)
    except (ValueError, OSError) as exc:
        result = CommandResult("error", None, [f"invalid input: {exc}"], EXIT_INVALID)
    except (NumericalError, StructureError, ProtocolError) as exc:
        result = CommandResult("error", None, [f"computation failed: {exc}"], EXIT_NUMERICAL)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        result = CommandResult("error", None, [f"computation failed: out of memory{detail}"], EXIT_NUMERICAL)
    return _emit(result)


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
