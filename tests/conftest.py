from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from torofree.liealg import AlgebraDesc
from torofree.polyalg import Poly, shift_sigma
from torofree.repmods import ModuleSpec


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for subprocesses that
    run torofree (pytest's own pythonpath setting does not reach them)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def mk_spec(
    family="A",
    rank=1,
    loop_vars=0,
    variant="finite",
    cocycle=(0, 0),
    lam=(),
    witt_a=None,
    base_a=None,
    base_b=0,
    S=(),
):
    """Compact ModuleSpec builder used across the test modules."""
    desc = AlgebraDesc(family, rank, loop_vars, variant, tuple(Fraction(c) for c in cocycle))
    l, n = (0, loop_vars) if variant == "witt" else (rank, loop_vars)
    if variant == "witt":
        return ModuleSpec(algebra=desc, lam=tuple(Fraction(x) for x in lam), witt_a=witt_a)
    if base_a is None:
        base_a = tuple(Fraction(1) for _ in range(rank))
    if isinstance(base_b, Poly):
        b = base_b
    else:
        b = Poly.const(l, n, Fraction(base_b))
    return ModuleSpec(
        algebra=desc,
        lam=tuple(Fraction(x) for x in lam),
        witt_a=witt_a,
        base_a=tuple(Fraction(x) for x in base_a),
        base_b=b,
        S=frozenset(S),
    )


# -- dense reference matrix arithmetic ------------------------------------------
#
# The library works on sparse integer tables; these plain Fraction loops over
# square matrices (sequences of rows) are the independent reference the tests
# compare it with.


def _mat_mul(a, b):
    size = len(a)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        row = out[i]
        for k, c in enumerate(a[i]):
            if c:
                for j, x in enumerate(b[k]):
                    if x:
                        row[j] += c * x
    return tuple(tuple(r) for r in out)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_comm(a, b):
    return mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def mat_trace_prod(a, b):
    return sum((a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a))), Fraction(0))


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


@lru_cache(maxsize=None)
def dense_basis(fin) -> list:
    """The basis matrices of a FiniteAlgebra as dense Fraction rows, fin.sparse
    over fin.scale; cached per algebra, since the references that read it run
    once per pair of symbols."""
    return [
        tuple(tuple(Fraction(mat.get((p, q), 0), fin.scale) for q in range(fin.size))
              for p in range(fin.size))
        for mat in fin.sparse
    ]


# -- reference shift differences ------------------------------------------------
#
# polyalg.shift_difference works in one pass; this is its definition, applied
# one shift at a time.


def iterated_shift_difference(mode, k, i, p):
    """(sigma_i^k - Id)(p) by |k| one-step shifts and one subtraction, or
    (sigma_i - Id)^k (p) by k shift-and-subtract passes."""
    if mode == "power_minus_id":
        out = p
        for _ in range(abs(k)):
            out = shift_sigma(i, 1 if k > 0 else -1, out)
        return out - p
    out = p
    for _ in range(k):
        out = shift_sigma(i, 1, out) - out
    return out


@pytest.fixture
def sl2_finite():
    # the worked example: a = (2), b = 3, S = {1}
    return mk_spec(rank=1, base_a=(2,), base_b=3, S={1})


@pytest.fixture
def sl2_toroidal():
    return mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(5,), base_a=(2,), base_b=3, S={1})
