"""Old import paths: ``classify``, ``liealg`` and ``verify`` keep every name
they had before the code moved into one module per concern.

Each name must be the very object of the module that defines it, not a copy
or a wrapper: a caller that patches or rebinds a function where it is defined
(a test's monkeypatch, the benchmark tracer) must reach every path to it.
"""

import importlib
import sys

import pytest

# every module-level definition and every torofree import of the three
# modules before the split
NAMES = {
    "classify": """
        Rat Vector Row mat_vec Echelon nullspace weyl_dim_A IrrepA _gt_patterns
        build_irrep_A irrep_A ActionOracle oracle_from_spec inject_defect simplicity_rule
        simplicity_predict _h_only principal_witness_search _first_chain _chain_holds
        _normalize_factors witness_verify QuotientCert _at_weights
        quotient_certificate_search _quotient_scan_applies _base_condition_rows
        _common_zeros _weight_key _has_weight _dominant_weights verify_quotient_certificate
        MAX_DEFAULT_DIM_BOUND MAX_DIM_BOUND WitnessReport submodule_witness_search
        cyclicity_check RecoveredParams check_assertion_A check_assertion_B recover_lambda
        _scalar_ratio recover_witt_a recover_parameters _decode_base _h_degree _decode_key
        _trial_spec _poly_sqrt _isqrt_exact build_spec_from_recovery iso_test
        repmods ClassificationError DomainError StructureError AlgebraDesc window_degrees
        MAX_EXPONENT SLOT_BITS Poly VarId _over_common_denominator deg_in divides
        unpack_exponent Generator ModuleSpec base_action_polys CheckReport _check_samples
        random_poly
    """,
    "liealg": """
        Rat Symbol Sparse VARIANTS _set _exact _sparse_comm FiniteAlgebra finite_algebra
        AlgebraDesc LieElt _new_object _set_desc _set_terms _symbol_sort_key symbol_text
        _canon_symbol _central_terms elt chevalley_x chevalley_y cartan_h central_k
        derivation coroot _deg bracket _add_central _loop_loop _der_loop _der_central
        _witt_into _cocycle_into _derivation_pairs cocycle witt_bracket_part
        invariant_form degree_box window_degrees basis_of
        DomainError Frozen StructureError
    """,
    "verify": """
        Rat CheckReport _COEFFS random_poly _check_samples _record_unexposed _Memo
        bracket_compat_check _pair_text _compat_failure central_identity_check
        freeness_check eva_twist_check degree_reduction_check LEMMA_PA_K LEMMA_PA_KPRIME
        lemma_pa_property BracketFn jacobi_check cocycle_identity_check suite_for_spec
        liealg repmods DomainError StructureError AlgebraDesc LieElt basis_of bracket
        degree_box window_degrees MAX_SLOT_EXPONENT SLOT_BITS Poly ShiftOperator VarId
        deg_in shift_difference shift_sigma shift_tau ActionFn Generator ModuleSpec
    """,
}

# the home of every name that moved out of liealg and verify, and of the
# values that name no defining module of their own (constants and aliases)
HOMES = {
    "classify": {
        "Rat": "search", "Vector": "search", "Row": "search", "MAX_DEFAULT_DIM_BOUND": "search",
        "MAX_DIM_BOUND": "search", "MAX_EXPONENT": "polyalg", "SLOT_BITS": "polyalg",
    },
    "liealg": dict.fromkeys(
        "Rat Sparse VARIANTS _set _exact _sparse_comm FiniteAlgebra finite_algebra AlgebraDesc"
        " degree_box window_degrees".split(), "algebras"),
    "verify": {
        **dict.fromkeys("CheckReport _COEFFS random_poly _check_samples".split(), "checks"),
        "MAX_SLOT_EXPONENT": "polyalg", "SLOT_BITS": "polyalg", "ActionFn": "repmods",
    },
}


def _torofree(name: str):
    return importlib.import_module(f"torofree.{name}")


def _home(facade: str, name: str, value):
    """The module that defines ``value``: the one HOMES names, else a
    torofree module itself, or the ``__module__`` of a function or class of
    that name, or the facade, which still defines the rest."""
    if name in HOMES[facade]:
        return _torofree(HOMES[facade][name])
    if type(value) is type(sys):
        return value
    owner = getattr(value, "__module__", None)
    if isinstance(owner, str) and owner.startswith("torofree.") and \
            getattr(value, "__name__", None) == name:
        return sys.modules[owner]
    return _torofree(facade)


@pytest.mark.parametrize("facade", sorted(NAMES))
def test_every_old_name_is_the_object_of_its_defining_module(facade):
    module = _torofree(facade)
    for name in NAMES[facade].split():
        value = getattr(module, name)
        home = _home(facade, name, value)
        if type(value) is type(sys):
            assert value is _torofree(name)
        else:
            assert vars(home)[name] is value, (facade, name, home.__name__)


def test_classify_defines_nothing():
    classify = _torofree("classify")
    own = [name for name, value in vars(classify).items()
           if getattr(value, "__module__", None) == "torofree.classify"]
    assert own == []
