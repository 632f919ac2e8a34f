"""The package surface: ``import schmidt_lab`` exports the same names and objects, each loaded on first use."""

import importlib

import pytest

import schmidt_lab

# each submodule and the names the package exports from it
EXPORTED = {
    "algebra": [
        "family_obstruction",
        "find_singular_basis",
        "orthogonalization_inputs_from_unitary",
        "orthogonalize_pair",
        "simultaneous_svd",
        "singular_combination",
    ],
    "control": [
        "BcuVerdict",
        "ControlVerdict",
        "ControlledForm",
        "FuzzSummary",
        "MultipartiteControlReport",
        "fuzz_theorem_checks",
        "is_bcu",
        "is_controlled",
        "multipartite_control_analysis",
    ],
    "errors": ["DimensionError", "NumericalError", "ProtocolError", "SchmidtLabError"],
    "gates": ["GATE_BUILDERS", "build_gate"],
    "matrices": ["SystemLayout", "matrix_from_json", "matrix_to_json", "state_from_json", "state_to_json"],
    "protocols": [
        "CostReport",
        "ProtocolTranscript",
        "VerificationReport",
        "controlled_gate_protocol",
        "entanglement_cost_upper",
        "teleport_unitary_protocol",
        "verify_protocol",
    ],
    "randomness": ["haar_unitary", "make_rng", "random_state"],
    "schmidt": ["SchmidtDecomposition", "operator_schmidt_decompose", "schineq_check", "schmidt_rank"],
    "schmidt_number": [
        "AncillaExtensionReport",
        "ProductInput",
        "SearchResult",
        "ancilla_extended_check",
        "max_output_schmidt_rank_search",
        "output_schmidt_rank",
        "state_schmidt_rank",
    ],
}


def test_all_lists_every_exported_name_in_sorted_order():
    names = [name for names in EXPORTED.values() for name in names]
    assert len(names) == 47
    assert schmidt_lab.__all__ == sorted(names)


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTED.items() for name in names])
def test_each_name_is_the_object_its_module_defines(module, name):
    assert getattr(schmidt_lab, name) is getattr(importlib.import_module(f"schmidt_lab.{module}"), name)


def test_a_star_import_binds_every_name():
    namespace = {}
    exec("from schmidt_lab import *", namespace)
    assert {name: namespace[name] for name in schmidt_lab.__all__} == {
        name: getattr(schmidt_lab, name) for name in schmidt_lab.__all__
    }


def test_dir_lists_every_name():
    assert set(schmidt_lab.__all__) | {"__version__"} <= set(dir(schmidt_lab))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'perpetual_motion'"):
        schmidt_lab.perpetual_motion
    assert not hasattr(schmidt_lab, "VERDICT_RTOL")


def test_the_version_is_unchanged():
    assert schmidt_lab.__version__ == "0.1.0"
