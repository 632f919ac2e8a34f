"""Operator Schmidt structure, controlled-unitary detection, gate constructions,
and entanglement-assisted protocol simulation for bipartite and multipartite
unitaries.

``import schmidt_lab`` loads no submodule: each exported name loads the
module that defines it on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", "family_obstruction find_singular_basis orthogonalization_inputs_from_unitary "
         "orthogonalize_pair simultaneous_svd singular_combination"),
        ("control", "BcuVerdict ControlVerdict ControlledForm FuzzSummary MultipartiteControlReport "
         "fuzz_theorem_checks is_bcu is_controlled multipartite_control_analysis"),
        ("errors", "DimensionError NumericalError ProtocolError SchmidtLabError"),
        ("gates", "GATE_BUILDERS build_gate"),
        ("matrices", "SystemLayout matrix_from_json matrix_to_json state_from_json state_to_json"),
        ("protocols", "CostReport ProtocolTranscript VerificationReport controlled_gate_protocol "
         "entanglement_cost_upper teleport_unitary_protocol verify_protocol"),
        ("randomness", "haar_unitary make_rng random_state"),
        ("schmidt", "SchmidtDecomposition operator_schmidt_decompose schineq_check schmidt_rank"),
        ("schmidt_number", "AncillaExtensionReport ProductInput SearchResult ancilla_extended_check "
         "max_output_schmidt_rank_search output_schmidt_rank state_schmidt_rank"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
