"""The classification API under its old import path.

The code lives in one module per concern, and each CLI command imports only
the one it runs:

* ``repmods`` — the simplicity rule (``simplicity_rule``,
  ``simplicity_predict``) and the isomorphism test (``iso_test``), which
  read only a spec and its x_i.1, y_i.1;
* ``search`` — the submodule witness search with its principal and
  quotient certificates, the Gelfand-Tsetlin irreps, the exact linear
  algebra and the cyclicity search;
* ``recovery`` — action oracles, defect injection and parameter recovery.

This module defines nothing: every name it had is re-exported from there as
the same object, so code written against ``torofree.classify`` (and a
tracer that rebinds a function wherever it is held) sees the same functions.
"""

from __future__ import annotations

from . import repmods
from .algebras import AlgebraDesc, window_degrees
from .checks import CheckReport, _check_samples, random_poly
from .errors import ClassificationError, DomainError, StructureError
from .polyalg import (
    MAX_EXPONENT,
    SLOT_BITS,
    Poly,
    VarId,
    _over_common_denominator,
    deg_in,
    divides,
    unpack_exponent,
)
from .recovery import (
    ActionOracle,
    RecoveredParams,
    _decode_base,
    _decode_key,
    _h_degree,
    _isqrt_exact,
    _poly_sqrt,
    _scalar_ratio,
    _trial_spec,
    build_spec_from_recovery,
    check_assertion_A,
    check_assertion_B,
    inject_defect,
    oracle_from_spec,
    recover_lambda,
    recover_parameters,
    recover_witt_a,
)
from .repmods import (
    Generator,
    ModuleSpec,
    base_action_polys,
    iso_test,
    simplicity_predict,
    simplicity_rule,
)
from .search import (
    MAX_DEFAULT_DIM_BOUND,
    MAX_DIM_BOUND,
    Echelon,
    IrrepA,
    QuotientCert,
    Rat,
    Row,
    Vector,
    WitnessReport,
    _at_weights,
    _base_condition_rows,
    _chain_holds,
    _common_zeros,
    _dominant_weights,
    _first_chain,
    _gt_patterns,
    _h_only,
    _has_weight,
    _normalize_factors,
    _quotient_scan_applies,
    _weight_key,
    build_irrep_A,
    cyclicity_check,
    irrep_A,
    mat_vec,
    nullspace,
    principal_witness_search,
    quotient_certificate_search,
    submodule_witness_search,
    verify_quotient_certificate,
    weyl_dim_A,
    witness_verify,
)
