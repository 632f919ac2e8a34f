"""Operator Schmidt structure, controlled-unitary detection, gate constructions,
and entanglement-assisted protocol simulation for bipartite and multipartite
unitaries."""

from .algebra import (
    family_obstruction,
    find_singular_basis,
    orthogonalization_inputs_from_unitary,
    orthogonalize_pair,
    simultaneous_svd,
    singular_combination,
)
from .control import (
    BcuVerdict,
    ControlVerdict,
    ControlledForm,
    FuzzSummary,
    MultipartiteControlReport,
    fuzz_theorem_checks,
    is_bcu,
    is_controlled,
    multipartite_control_analysis,
)
from .errors import (
    DimensionError,
    NumericalError,
    ProtocolError,
    SchmidtLabError,
)
from .gates import GATE_BUILDERS, build_gate
from .matrices import (
    SystemLayout,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
)
from .protocols import (
    CostReport,
    ProtocolTranscript,
    VerificationReport,
    controlled_gate_protocol,
    entanglement_cost_upper,
    teleport_unitary_protocol,
    verify_protocol,
)
from .randomness import haar_unitary, make_rng, random_state
from .schmidt import (
    SchmidtDecomposition,
    operator_schmidt_decompose,
    schineq_check,
    schmidt_rank,
)
from .schmidt_number import (
    AncillaExtensionReport,
    ProductInput,
    SearchResult,
    ancilla_extended_check,
    max_output_schmidt_rank_search,
    output_schmidt_rank,
    state_schmidt_rank,
)

__version__ = "0.1.0"

__all__ = [
    "AncillaExtensionReport",
    "BcuVerdict",
    "ControlVerdict",
    "ControlledForm",
    "CostReport",
    "DimensionError",
    "FuzzSummary",
    "GATE_BUILDERS",
    "MultipartiteControlReport",
    "NumericalError",
    "ProductInput",
    "ProtocolError",
    "ProtocolTranscript",
    "SchmidtDecomposition",
    "SchmidtLabError",
    "SearchResult",
    "SystemLayout",
    "VerificationReport",
    "ancilla_extended_check",
    "build_gate",
    "controlled_gate_protocol",
    "entanglement_cost_upper",
    "family_obstruction",
    "find_singular_basis",
    "fuzz_theorem_checks",
    "haar_unitary",
    "is_bcu",
    "is_controlled",
    "make_rng",
    "matrix_from_json",
    "matrix_to_json",
    "max_output_schmidt_rank_search",
    "multipartite_control_analysis",
    "operator_schmidt_decompose",
    "orthogonalization_inputs_from_unitary",
    "orthogonalize_pair",
    "output_schmidt_rank",
    "random_state",
    "schineq_check",
    "schmidt_rank",
    "simultaneous_svd",
    "singular_combination",
    "state_from_json",
    "state_schmidt_rank",
    "state_to_json",
    "teleport_unitary_protocol",
    "verify_protocol",
]
