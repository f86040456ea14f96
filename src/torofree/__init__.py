"""Exact-arithmetic construction and verification of rank-1 Cartan-free
modules over finite-type (A_l, C_l), toroidal, Witt and full toroidal Lie
algebras on the polynomial carrier Q[H_1..H_l, d_1..d_n].

The public names below are imported on first access from the submodule
that defines each, so ``import torofree`` loads no submodule and a name
loads only its own module and what that imports.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("algebras", ("AlgebraDesc",)),
        ("errors", ("ClassificationError", "DomainError", "StructureError")),
        ("liealg", ("LieElt", "basis_of", "bracket")),
        ("polyalg", (
            "Poly", "ShiftOperator", "VarId", "deg_in", "shift_difference", "shift_sigma",
            "shift_tau",
        )),
        ("recovery", ("ActionOracle", "RecoveredParams", "oracle_from_spec", "recover_parameters")),
        ("repmods", (
            "Generator", "ModuleSpec", "act", "act_element", "act_word", "base_action_polys",
            "element_operator", "generator_operator", "iso_test", "simplicity_predict",
            "spec_from_json", "spec_to_json",
        )),
        ("search", ("WitnessReport", "cyclicity_check", "submodule_witness_search",
                    "witness_verify")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
