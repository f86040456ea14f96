"""The names the benchmark in ``perfbench/`` reaches through this path.

Its tracer's layer table and its workloads name these functions as
``torofree.classify`` attributes.  This module defines nothing: each name is
the very object of the module that defines it, so a tracer that rebinds a
function wherever it is held traces every caller.  Every other caller
imports a name from its defining module.
"""

# repmods first: the order of imports moves the benchmark's peak RSS
from .repmods import iso_test, simplicity_predict
from .polyalg import divides
from .recovery import build_spec_from_recovery, inject_defect, oracle_from_spec, recover_parameters
from .search import (
    build_irrep_A,
    cyclicity_check,
    irrep_A,
    mat_vec,
    nullspace,
    principal_witness_search,
    quotient_certificate_search,
    submodule_witness_search,
    verify_quotient_certificate,
    witness_verify,
)
