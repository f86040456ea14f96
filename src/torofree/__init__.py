"""Exact-arithmetic construction and verification of rank-1 Cartan-free
modules over finite-type (A_l, C_l), toroidal, Witt and full toroidal Lie
algebras on the polynomial carrier Q[H_1..H_l, d_1..d_n]."""

__version__ = "0.1.0"

from .classify import (
    ActionOracle,
    RecoveredParams,
    WitnessReport,
    cyclicity_check,
    iso_test,
    oracle_from_spec,
    recover_parameters,
    simplicity_predict,
    submodule_witness_search,
    witness_verify,
)
from .errors import ClassificationError, DomainError, StructureError
from .liealg import AlgebraDesc, LieElt, basis_of, bracket
from .polyalg import (
    Poly,
    ShiftOperator,
    VarId,
    deg_in,
    shift_difference,
    shift_sigma,
    shift_tau,
)
from .repmods import (
    Generator,
    ModuleSpec,
    act,
    act_element,
    act_word,
    base_action_polys,
    element_operator,
    generator_operator,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "ActionOracle",
    "AlgebraDesc",
    "ClassificationError",
    "DomainError",
    "Generator",
    "LieElt",
    "ModuleSpec",
    "Poly",
    "RecoveredParams",
    "ShiftOperator",
    "StructureError",
    "VarId",
    "WitnessReport",
    "act",
    "act_element",
    "act_word",
    "base_action_polys",
    "basis_of",
    "bracket",
    "cyclicity_check",
    "deg_in",
    "element_operator",
    "generator_operator",
    "iso_test",
    "oracle_from_spec",
    "recover_parameters",
    "shift_difference",
    "shift_sigma",
    "shift_tau",
    "simplicity_predict",
    "spec_from_json",
    "spec_to_json",
    "submodule_witness_search",
    "witness_verify",
    "__version__",
]
