"""Spans around calls into the library's public functions, kept in memory.

The tracer never edits the library: it replaces module attributes with
wrappers, including the names that ``from .module import name`` bound in
other modules of the package, so every call path through a traced function
records a span. Spans form a tree through their ``parent`` ids; a layer's
self time is its span's duration minus the part covered by its child spans.

Only functions that do real work at a layer boundary are wrapped. Small
helpers (``frobenius_norm``, ``as_operator``, ``make_rng``, ...) run
thousands of times per call and would mostly measure the tracer itself;
their time stays in their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# module -> functions wrapped in that module
TRACED = {
    "factorizations": (
        "svd", "eigh", "qr_pivoted", "orthonormal_columns",
        "orthonormal_complement", "null_space",
    ),
    "matrices": (
        "group_systems", "realign", "unrealign", "permute_systems", "partial_trace",
        "matrix_to_json", "matrix_from_json", "state_to_json", "state_from_json",
    ),
    "randomness": ("haar_unitary", "random_state"),
    "schmidt": (
        "operator_schmidt_decompose", "schmidt_rank", "schineq_check",
        "multipartite_rank_bounds",
    ),
    "algebra": (
        "family_obstruction", "simultaneous_svd", "joint_diagonalize_commuting",
        "commutant_blocks", "singular_combination", "find_singular_basis",
        "orthogonalize_pair", "normal_split", "orthogonalization_inputs_from_unitary",
    ),
    "gates": (
        "swap_gate", "u_odd_n", "u3", "four_qubit_example", "padded_2x2xn",
        "even_qubit_rank3", "tensor_extension", "random_unitary",
        "random_local_scramble", "random_controlled_unitary", "build_gate",
    ),
    "control": (
        "is_controlled", "is_bcu", "multipartite_control_analysis", "fuzz_theorem_checks",
    ),
    "schmidt_number": (
        "max_output_schmidt_rank_search", "ancilla_extended_check",
        "output_schmidt_rank", "state_schmidt_rank",
    ),
    "protocols": (
        "teleport_unitary_protocol", "controlled_gate_protocol", "verify_protocol",
        "entanglement_cost_upper",
    ),
    "cli": ("main",),
}


def _family_pairs(args, kwargs, result):
    family = args[0] if args else kwargs["family"]
    n = len(family)
    return {"pairs": n * (n - 1) // 2}


def _commutant_stack(args, kwargs, result):
    # the stacked system holds one d^2 x d^2 kron block per generator and per
    # adjoint, complex128: computed from the argument shapes, not measured
    gens = args[0] if args else kwargs["generators"]
    d = gens[0].shape[0] if len(gens) else 0
    return {"stack_bytes": 16 * 2 * len(gens) * d ** 4}


def _svd_bytes(args, kwargs, result):
    return {"bytes_out": sum(int(part.nbytes) for part in result)}


def _rank(args, kwargs, result):
    return {"rank": int(result.rank)}


def _search(args, kwargs, result):
    layout, cut = args[1], args[2]
    dims = tuple(getattr(layout, "dims", layout))
    d_cut = 1
    for axis in cut:
        d_cut *= dims[axis]
    total = 1
    for d in dims:
        total *= d
    return {"max_rank": int(result.max_rank), "d_cut": d_cut, "d_rest": total // d_cut}


def _branches(args, kwargs, result):
    return {"branches": int(result[0].branches_checked)}


# computed counts recorded on a span from its arguments and result
ANNOTATE = {
    "algebra.family_obstruction": _family_pairs,
    "algebra.commutant_blocks": _commutant_stack,
    "factorizations.svd": _svd_bytes,
    "schmidt.schmidt_rank": _rank,
    "schmidt_number.max_output_schmidt_rank_search": _search,
    "protocols.teleport_unitary_protocol": _branches,
    "protocols.controlled_gate_protocol": _branches,
}


class Tracer:
    """Collects spans ``{id, name, parent, case, start, end, error, ...}``.

    ``case`` labels every span opened until it is changed, so spans of one
    benchmark call share an identifier. Spans stay in memory until ``dump``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.case = "setup"
        self._stack = []
        self._paused = 0
        self._wrappers = None
        self._bound = []

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "case": self.case,
                "start": self.clock(),
                "end": None,
                "error": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def install(self, package="schmidt_lab"):
        """Wrap the traced functions and rebind every name that refers to them."""
        if self._wrappers is None:
            self._wrappers = {}
            for module_name, names in TRACED.items():
                module = sys.modules.get(f"{package}.{module_name}")
                if module is None:
                    continue
                for fn_name in names:
                    fn = getattr(module, fn_name)
                    self._wrappers[id(fn)] = (fn, self.wrap(f"{module_name}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for namespace in [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]:
                for key, value in list(namespace.items()):
                    if id(value) in self._wrappers and value is self._wrappers[id(value)][0]:
                        namespace[key] = self._wrappers[id(value)][1]
                        self._bound.append((namespace, key, value))

    def uninstall(self):
        """Put every original function back where ``install`` replaced it."""
        for namespace, key, original in reversed(self._bound):
            namespace[key] = original
        self._bound = []

    def add_failure(self, name, case, error, start, end):
        """Record a span for a call whose process was ended from outside."""
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": None, "case": case,
            "start": start, "end": end, "error": error,
        })

    def merge(self, spans, case):
        """Adopt spans recorded by a child process, renumbering their ids."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            span["case"] = case
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = None
        for lo, hi in sorted(children.get(span["id"], ())):
            lo = max(lo, span["start"])
            hi = min(hi, span["end"])
            if cursor is not None:
                lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
