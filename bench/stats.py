"""Arithmetic behind the reported numbers: percentiles, per-layer metrics
from spans, and the rerun check that compares two sets of runs."""

from __future__ import annotations

import math
import statistics

from spans import self_times

# svd callers that read only the singular values and drop U and V
VALUES_ONLY_PARENTS = frozenset({
    "schmidt.schmidt_rank",
    "schmidt.schineq_check",
    "schmidt_number.max_output_schmidt_rank_search",
    "schmidt_number.state_schmidt_rank",
    "schmidt_number.output_schmidt_rank",
    "gates.random_controlled_unitary",
    "algebra.singular_combination",
    "algebra.find_singular_basis",
    "algebra.orthogonalize_pair",
})

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    ("control.is_controlled.calls", "count", "lower"),
    ("control.is_controlled.self_s", "s", "lower"),
    ("control.is_controlled.failed", "count", "lower"),
    ("control.is_bcu.calls", "count", "lower"),
    ("control.is_bcu.self_s", "s", "lower"),
    ("control.is_bcu.failed", "count", "lower"),
    ("control.multipartite_control_analysis.self_s", "s", "lower"),
    ("control.fuzz_theorem_checks.self_s", "s", "lower"),
    ("algebra.family_obstruction.calls", "count", "lower"),
    ("algebra.family_obstruction.self_s", "s", "lower"),
    ("algebra.family_obstruction.pairs", "count", "lower"),
    ("algebra.simultaneous_svd.self_s", "s", "lower"),
    ("algebra.joint_diagonalize_commuting.self_s", "s", "lower"),
    ("algebra.commutant_blocks.calls", "count", "lower"),
    ("algebra.commutant_blocks.self_s", "s", "lower"),
    ("algebra.commutant_blocks.failed", "count", "lower"),
    ("algebra.commutant_blocks.stack_bytes", "bytes", "lower"),
    ("factorizations.svd.calls", "count", "lower"),
    ("factorizations.svd.self_s", "s", "lower"),
    ("factorizations.svd.bytes_out", "bytes", "lower"),
    ("factorizations.svd.values_only_frac", "fraction", "lower"),
    ("factorizations.eigh.self_s", "s", "lower"),
    ("factorizations.qr_pivoted.self_s", "s", "lower"),
    ("schmidt.operator_schmidt_decompose.calls", "count", "lower"),
    ("schmidt.operator_schmidt_decompose.self_s", "s", "lower"),
    ("schmidt.schmidt_rank.calls", "count", "lower"),
    ("schmidt.schmidt_rank.self_s", "s", "lower"),
    ("schmidt_number.max_output_schmidt_rank_search.self_s", "s", "lower"),
    ("schmidt_number.search.spectra", "count", "lower"),
    ("schmidt_number.search.cap_hit_frac", "fraction", "higher"),
    ("schmidt_number.ancilla_extended_check.self_s", "s", "lower"),
    ("matrices.group_systems.self_s", "s", "lower"),
    ("matrices.realign.self_s", "s", "lower"),
    ("matrices.matrix_from_json.self_s", "s", "lower"),
    ("matrices.matrix_to_json.self_s", "s", "lower"),
    ("gates.random_controlled_unitary.self_s", "s", "lower"),
    ("gates.random_local_scramble.self_s", "s", "lower"),
    ("randomness.haar_unitary.calls", "count", "lower"),
    ("protocols.teleport_unitary_protocol.self_s", "s", "lower"),
    ("protocols.controlled_gate_protocol.self_s", "s", "lower"),
    ("protocols.verify_protocol.self_s", "s", "lower"),
    ("protocols.branches_checked", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("failed_frac", "fraction", "lower"),
    ("wrong_results", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100] (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _weight(span, cycles):
    case = span["case"]
    if case == "setup":
        return 1.0
    if case.startswith("loop"):
        return 1.0 / cycles
    return 0.0


def layer_metrics(spans, cycles, cli_imports=(), cli_processes=()):
    """Per-layer numbers for one traced set-up plus one cycle of the case list.

    Spans tagged ``setup`` count once, spans tagged ``loop...`` are averaged
    over the traced cycles, and probe spans count only toward ``.failed``.
    """
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    totals = {}

    def add(key, amount):
        totals[key] = totals.get(key, 0.0) + amount

    svd_all = svd_values_only = 0.0
    searches = hits = 0.0
    for span in spans:
        name = span["name"]
        w = _weight(span, cycles)
        if span["error"] is not None:
            add(f"{name}.failed", w if w else 1.0)
        if not w:
            continue
        add(f"{name}.calls", w)
        add(f"{name}.self_s", w * own[span["id"]])
        add(f"{name}.total_s", w * (span["end"] - span["start"]))
        for attr in ("pairs", "stack_bytes", "bytes_out"):
            if attr in span:
                add(f"{name}.{attr}", w * span[attr])
        if "branches" in span:
            add("protocols.branches_checked", w * span["branches"])
        if name == "factorizations.svd":
            svd_all += w
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] in VALUES_ONLY_PARENTS:
                svd_values_only += w
            ancestor = parent
            while ancestor is not None:
                if ancestor["name"] == "schmidt_number.max_output_schmidt_rank_search":
                    add("schmidt_number.search.spectra", w)
                    break
                ancestor = by_id.get(ancestor["parent"])
        if name == "schmidt_number.max_output_schmidt_rank_search" and "max_rank" in span:
            ranks = [
                s["rank"] for s in spans
                if s["parent"] == span["id"] and s["name"] == "schmidt.schmidt_rank"
            ]
            cap = min([span["d_cut"], span["d_rest"]] + ranks)
            searches += w
            hits += w * (span["max_rank"] >= cap)
    totals["factorizations.svd.values_only_frac"] = (
        svd_values_only / svd_all if svd_all else 0.0
    )
    totals["schmidt_number.search.cap_hit_frac"] = hits / searches if searches else 0.0
    totals["cli.import_s"] = statistics.median(cli_imports) if cli_imports else 0.0
    totals["cli.process_s"] = statistics.median(cli_processes) if cli_processes else 0.0
    return {
        name: float(totals.get(name, 0.0))
        for name, _, _ in PER_LAYER
        if name not in ("failed_frac", "wrong_results", "trace.overhead_frac")
    }


def spread(values):
    """Interquartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    m1, m2 = statistics.median(first), statistics.median(second)
    change = (m2 - m1) / abs(m1) if m1 else (0.0 if m2 == m1 else math.inf)
    return change if better == "lower" else -change


def rerun_check(first, second, bounds):
    """Compare two sets of runs of the same code against the benchmark's bounds.

    ``first`` and ``second`` map metric name -> list of values; ``bounds``
    maps metric name -> (bound, better). Returns one problem string per
    metric whose spread (``setup_s`` exempt) or median drift exceeds its
    bound; an empty list means the two sets agree.
    """
    problems = []
    for name, (bound, better) in bounds.items():
        for label, values in (("first", first[name]), ("second", second[name])):
            if name != "setup_s" and spread(values) > bound:
                problems.append(
                    f"{name}: {label} set spread {spread(values):.3f} exceeds bound {bound}"
                )
        drift = worse_by(first[name], second[name], better)
        if drift > bound:
            problems.append(f"{name}: second median worse by {drift:.3f} > bound {bound}")
    return problems
