from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from functools import lru_cache
from math import comb
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


@lru_cache(maxsize=None)
def _coordinate_solver(fin) -> tuple:
    """(positions, inverse): dim matrix positions at which the basis matrices
    are independent, and the inverse of the dim x dim matrix of their
    entries there, both found by Gauss-Jordan elimination over Fractions."""
    basis = [[x for row in mat for x in row] for mat in dense_basis(fin)]
    rows = [list(b) for b in basis]
    positions = []
    for col in range(fin.size * fin.size):
        pivot = next((r for r in range(len(positions), fin.dim) if rows[r][col]), None)
        if pivot is None:
            continue
        top = len(positions)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        for r in range(fin.dim):
            if r != top and rows[r][col]:
                f = rows[r][col] / rows[top][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        positions.append(col)
    assert len(positions) == fin.dim, "the basis matrices are dependent"
    # invert a[m][k] = entry of basis m at positions[k], augmented by the identity
    aug = [[basis[m][pos] for pos in positions] + [Fraction(int(m == j)) for j in range(fin.dim)]
           for m in range(fin.dim)]
    for k in range(fin.dim):
        pivot = next(r for r in range(k, fin.dim) if aug[r][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        lead = aug[k][k]
        aug[k] = [x / lead for x in aug[k]]
        for r in range(fin.dim):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return tuple(positions), [row[fin.dim:] for row in aug]


def decompose(fin, mat) -> dict:
    """Coordinates {m: c} (ascending m, zeros dropped) of a dense square
    matrix in the basis of a FiniteAlgebra, by a dense Fraction solve that
    shares nothing with the library's own coordinates; raises ValueError
    when the matrix is not in the span of the basis."""
    positions, inverse = _coordinate_solver(fin)
    flat = [x for row in mat for x in row]
    # sum_m c_m a[m][k] = flat[positions[k]] for each k, so c = v a^-1
    coords = [sum((flat[pos] * inverse[k][m] for k, pos in enumerate(positions) if flat[pos]),
                  Fraction(0)) for m in range(fin.dim)]
    out = {m: c for m, c in enumerate(coords) if c}
    back = [Fraction(0)] * len(flat)
    for m, c in out.items():
        for t, x in enumerate(dense_basis(fin)[m]):
            for q, y in enumerate(x):
                if y:
                    back[t * fin.size + q] += c * y
    if back != flat:
        raise ValueError("matrix is not in the span of the basis")
    return out


# -- reference elimination ---------------------------------------------------------


class RescalingEchelon:
    """classify.Echelon with the row multiplied by the pivot's cofactor p at
    every elimination step, p = 1 included: the plain fraction-free step the
    library's shortcut must agree with."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        den = math.lcm(*[Fraction(c).denominator for c in row.values()])
        vec = {k: int(c * den) for k, c in row.items() if c}
        while vec and min(vec) in self.pivots:
            j = min(vec)
            prow = self.pivots[j]
            g = math.gcd(vec[j], prow[j])
            a, p = vec[j] // g, prow[j] // g
            vec = {k: p * x for k, x in vec.items()}
            for k, y in prow.items():
                vec[k] = vec.get(k, 0) - a * y
            vec = {k: x for k, x in vec.items() if x}
        return vec

    def add(self, row):
        vec = self.reduce(row)
        if not vec:
            return False
        g = math.gcd(*vec.values())
        self.pivots[min(vec)] = {k: x // g for k, x in vec.items()}
        return True


# -- tuple-keyed reference polynomial arithmetic ---------------------------------
#
# The library stores a monomial as one packed int key; these plain Fraction
# loops over {exponent tuple: coefficient} maps are the reference it is
# compared with.


def reference_shift(terms, u):
    """{exp: Fraction} of the shift by u of a {exp: Fraction} map: each
    variable v is replaced by v - u_v term by term."""
    shifted = {}
    for exp, c in terms.items():
        choices = [[(j, Fraction(comb(e, j)) * Fraction(-d) ** (e - j)) for j in range(e + 1)]
                   for e, d in zip(exp, u)]
        for picks in itertools.product(*choices):
            key = tuple(j for j, _ in picks)
            value = c
            for _, w in picks:
                value *= w
            shifted[key] = shifted.get(key, Fraction(0)) + value
    return {e: c for e, c in shifted.items() if c}


def reference_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def reference_divide(a, b):
    """a / b by Fraction long division in graded-lex order, None when inexact."""
    def order(e):
        return (-sum(e), tuple(-x for x in e))

    lead = min(b, key=order)
    quot, rem = {}, dict(a)
    while rem:
        rexp = min(rem, key=order)
        diff = tuple(x - y for x, y in zip(rexp, lead))
        if min(diff) < 0:
            return None
        c = rem[rexp] / b[lead]
        quot[diff] = c
        rem = reference_add(rem, reference_mul({diff: c}, b), -1)
    return quot


def reference_apply(A, p):
    """sum_u f_u * p.shift(u) by plain Fraction arithmetic, the sum built
    through the public constructor."""
    total = {}
    for u, f in A.terms.items():
        total = reference_add(total, reference_mul(reference_shift(dict(p.terms), u),
                                                   dict(f.terms)))
    return Poly(A.l, A.n, total)


def reference_compose(A, B):
    """{shift tuple: {exp: Fraction}} of A after B: sum f_u T_u(g_v) T_(u+v)."""
    out = {}
    for u, f in A.terms.items():
        for v, g in B.terms.items():
            w = tuple(x + y for x, y in zip(u, v))
            out[w] = reference_add(out.get(w, {}),
                                   reference_mul(dict(f.terms), reference_shift(dict(g.terms), u)))
    return {w: t for w, t in out.items() if t}


def reference_shift_difference(mode, k, i, terms, width):
    """(sigma_i^k - Id) or (sigma_i - Id)^k of a {exp: Fraction} map, by
    reference shifts of the H_i slot (slot i - 1)."""
    def sigma(t, steps):
        return reference_shift(t, tuple(steps if p == i - 1 else 0 for p in range(width)))

    if mode == "power_minus_id":
        return reference_add(sigma(terms, k), terms, -1)
    out = dict(terms)
    for _ in range(k):
        out = reference_add(sigma(out, 1), out, -1)
    return out


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
