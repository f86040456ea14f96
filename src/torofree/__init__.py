"""Exact-arithmetic construction and verification of rank-1 Cartan-free
modules over finite-type (A_l, C_l), toroidal, Witt and full toroidal Lie
algebras on the polynomial carrier Q[H_1..H_l, d_1..d_n].

The public names below are imported from their submodules on first access,
so ``import torofree`` (and each CLI command) loads only what it uses.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("classify", (
            "ActionOracle", "RecoveredParams", "WitnessReport", "cyclicity_check",
            "iso_test", "oracle_from_spec", "recover_parameters", "simplicity_predict",
            "submodule_witness_search", "witness_verify",
        )),
        ("errors", ("ClassificationError", "DomainError", "StructureError")),
        ("liealg", ("AlgebraDesc", "LieElt", "basis_of", "bracket")),
        ("polyalg", (
            "Poly", "ShiftOperator", "VarId", "deg_in", "shift_difference", "shift_sigma",
            "shift_tau",
        )),
        ("repmods", (
            "Generator", "ModuleSpec", "act", "act_element", "act_word", "base_action_polys",
            "element_operator", "generator_operator", "spec_from_json", "spec_to_json",
        )),
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
