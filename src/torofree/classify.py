"""Simplicity prediction, submodule witness search, cyclicity, recovery, iso.

Simplicity rule (A-family).  Write FULL = {1..l+1}.  The module is non-simple
iff S is an edge pattern (empty or FULL) and the integrality test holds for
the pattern's effective parameter:

    S = FULL : (l+1) * b        is a non-negative integer
    S = {}   : (l+1) * (-b - 1) is a non-negative integer

The two patterns are exchanged by the diagram flip (for l = 1 the modules
M(a, b, FULL) and M(-a, -b-1, {}) are literally equal), which is why a
single unsigned reading of the integrality test cannot serve both; the
witness search below arbitrates every grid point independently.  C-family
modules are always simple.  A Witt-variant module is simple iff
witt_a != -1 (at witt_a = -1 the ideal generated by the d-variables is
invariant).  The toroidal/full variants inherit the answer of the finite
part: a base witness p works verbatim for the lift because sigma/tau twists
fix H-only polynomials up to the recorded shifts.

Witness certificates come in two exact, independently verified kinds:

* principal: a monic polynomial p in the H-variables with
  p | (x_i.1) sigma_i(p) and p | (y_i.1) sigma_i^{-1}(p) for all i, so the
  ideal (p) is invariant.  Complete for l = 1 once maxdeg reaches the
  quotient's dimension (invariant-ideal factor chains terminate on both
  sides only along integer-shift intervals, and a chain's length is the
  codimension of its ideal); below that the quotient scan still certifies,
  e.g. l = 1, b = 5, S = FULL at maxdeg 6 has only the dim-11 quotient, so
  the scan runs at l = 1 too.

* quotient: an irreducible V(m) of sl_{l+1} in its Gelfand-Tsetlin basis
  (H diagonal, h_j the weight of basis vector j) plus v0 != 0, given in
  those coordinates, such that f -> f(H) v0 has an invariant kernel, which
  is then a nonzero proper invariant ideal.  verify_quotient_certificate
  proves the invariance for every polynomial on every windowed generator
  from the generators' shift operators; nothing is sampled.  For l >= 2 the
  edge-pattern submodules have finite codimension and are never principal
  (their generators share no common factor), so this second kind is what a
  witness search must produce.  In two H-variables every proper invariant
  ideal has either a nontrivial gcd (principal witness) or finite
  codimension (quotient witness), so the two kinds jointly cover l <= 2 at
  the searched bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from . import repmods
from .errors import ClassificationError, DomainError, StructureError
from .liealg import AlgebraDesc, window_degrees
from .polyalg import Poly, VarId, _nonzero_fractions, _over_common_denominator, deg_in, divides
from .repmods import Generator, ModuleSpec, base_action_polys
from .verify import CheckReport, random_poly

Rat = Fraction
Vector = list[Rat]
Row = dict[int, Rat]


# -- exact sparse linear algebra ----------------------------------------------


def mat_vec(m: list[Row], v: Vector) -> Vector:
    return [sum((x * v[c] for c, x in row.items() if v[c]), Fraction(0)) for row in m]


class Echelon:
    """Fraction-free echelon form of sparse rows {key: value} with ordered keys.

    Keys are int columns or exponent tuples.  A row is scaled to integers and
    reduced on its lowest key by the pivot row of that key; a nonzero
    remainder, divided by its content, becomes the pivot row of its lowest key.
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict) -> dict:
        """The integer remainder of a row after elimination; empty iff in the span."""
        vec = {k: x for k, x in _over_common_denominator(row)[1] if x}
        while vec:
            j = min(vec)
            prow = self.pivots.get(j)
            if prow is None:
                break
            g = math.gcd(vec[j], prow[j])
            a, p = vec[j] // g, prow[j] // g
            vec = {k: p * x for k, x in vec.items()}
            for k, y in prow.items():
                x = vec.get(k, 0) - a * y
                if x:
                    vec[k] = x
                else:
                    del vec[k]
        return vec

    def add(self, row: dict) -> bool:
        """Insert a row; True when it enlarges the span."""
        vec = self.reduce(row)
        if not vec:
            return False
        g = math.gcd(*vec.values())
        self.pivots[min(vec)] = {k: x // g for k, x in vec.items()} if g > 1 else vec
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def nullspace(rows: Iterable[Row], cols: int) -> list[Vector]:
    """Basis of the kernel of the linear map given by stacked sparse rows.

    The rows go into an Echelon, and the scan stops once every column has a
    pivot.  The pivot columns depend only on the row space, and the basis
    vector of a free column j is the kernel vector that is 1 at j and 0 at
    every other free column, so the basis is the reduced-row-echelon one
    whatever the order of the rows.
    """
    echelon = Echelon()
    pivots = echelon.pivots
    for row in rows:
        if len(pivots) == cols:
            return []
        echelon.add(row)
    basis: list[Vector] = []
    order = sorted(pivots, reverse=True)
    for j in range(cols):
        if j in pivots:
            continue
        v: dict[int, Rat] = {j: Fraction(1)}
        # back substitute pivot coordinates, highest pivot column first
        for pj in order:
            prow = pivots[pj]
            s = sum(y * v[k] for k, y in prow.items() if k in v)
            if s:
                v[pj] = -s / prow[pj]
        basis.append([v.get(k, Fraction(0)) for k in range(cols)])
    return basis


# -- finite-dimensional irreducibles of sl_{l+1} ------------------------------


def weyl_dim_A(weights: Sequence[int]) -> int:
    l = len(weights)
    num = 1
    den = 1
    for i in range(l):
        for j in range(i, l):
            num *= sum(weights[i : j + 1]) + (j - i + 1)
            den *= j - i + 1
    return num // den


@dataclass
class IrrepA:
    """Explicit irreducible of sl_{l+1} in its Gelfand-Tsetlin basis.

    x_mats[i] and y_mats[i] are X_{i+1} and Y_{i+1} as sparse rows: row r maps
    each column c with a nonzero entry to that entry.  The H_i act diagonally
    and are kept only as h_diag: h_diag[j] holds the eigenvalues (H_1..H_l)
    on basis vector j, so p(H) multiplies coordinate j by p(h_j).  Their
    denominators divide l + 1, and h_int[j] is the integer tuple (l + 1) h_j.
    """

    rank: int
    weights: tuple[int, ...]
    dim: int
    x_mats: list[list[Row]]
    y_mats: list[list[Row]]
    h_diag: list[tuple[Rat, ...]]
    h_int: list[tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        size = self.rank + 1
        self.h_int = [tuple(x.numerator * (size // x.denominator) for x in w) for w in self.h_diag]


def _gt_patterns(top: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Gelfand-Tsetlin patterns with the given top row, as (row_1, .., row_n).

    Row k-1 interlaces row k: row_k[i] >= row_{k-1}[i] >= row_k[i+1].  Rows
    are chosen from the top down, largest entries first, so the
    highest-weight pattern comes first.
    """
    out: list[tuple[tuple[int, ...], ...]] = []

    def descend(rows: list[tuple[int, ...]]):
        row = rows[0]
        if len(row) == 1:
            out.append(tuple(rows))
            return
        ranges = [range(row[i], row[i + 1] - 1, -1) for i in range(len(row) - 1)]
        for below in itertools.product(*ranges):
            descend([below] + rows)

    descend([tuple(top)])
    return out


def build_irrep_A(rank: int, weights: Sequence[int]) -> IrrepA:
    """Highest-weight module V(m_1 w_1 + .. + m_l w_l) on Gelfand-Tsetlin patterns.

    The gl_{l+1} highest weight is lambda_i = m_i + .. + m_l (lambda_{l+1} = 0).
    With l_ki = lambda_ki - i + 1, the generators act by the rational,
    non-unitary formulas (Molev, "Gelfand-Tsetlin bases for classical Lie
    algebras", Thm 2.3)

        E_{k,k+1} xi = - sum_i prod_j (l_ki - l_{k+1,j}) / prod_{j!=i} (l_ki - l_kj) xi[+d_ki]
        E_{k+1,k} xi =   sum_i prod_j (l_ki - l_{k-1,j}) / prod_{j!=i} (l_ki - l_kj) xi[-d_ki]

    where a shifted array that is not a pattern is zero.  H_i = E_11 + .. +
    E_ii - i/(l+1) * (E_11 + .. + E_{l+1,l+1}) is diagonal with eigenvalue
    (sum of row i) - i * |lambda| / (l+1).  Every entry is an exact rational
    and the cost is polynomial in the dimension.
    """
    l = rank
    size = l + 1
    weights = tuple(int(m) for m in weights)
    if len(weights) != l or any(m < 0 for m in weights):
        raise StructureError("weights must be l non-negative integers")
    top = tuple(sum(weights[i:]) for i in range(size))
    patterns = _gt_patterns(top)
    dim = len(patterns)
    expected = weyl_dim_A(weights)
    if dim != expected:
        raise StructureError(
            f"irrep construction dimension {dim} != Weyl dimension {expected}"
        )
    index = {pat: j for j, pat in enumerate(patterns)}
    total = Fraction(sum(top), size)

    h_diag = [
        tuple(sum(pat[i - 1]) - i * total for i in range(1, l + 1)) for pat in patterns
    ]
    x_mats: list[list[Row]] = [[{} for _ in range(dim)] for _ in range(l)]
    y_mats: list[list[Row]] = [[{} for _ in range(dim)] for _ in range(l)]
    for col, pat in enumerate(patterns):
        # ls[k-1][i-1] = l_ki; rows k = 1..l carry the E_{k,k+1}, E_{k+1,k} moves
        ls = [[lam - i for i, lam in enumerate(row)] for row in pat]
        for k in range(1, size):
            row = ls[k - 1]
            for i, lki in enumerate(row):
                den = math.prod(lki - lkj for j, lkj in enumerate(row) if j != i)
                for step, mats, rows_j, sign in (
                    (1, x_mats, ls[k], -1),
                    (-1, y_mats, ls[k - 2] if k > 1 else [], 1),
                ):
                    moved = pat[k - 1][:i] + (pat[k - 1][i] + step,) + pat[k - 1][i + 1 :]
                    target = index.get(pat[: k - 1] + (moved,) + pat[k:])
                    num = sign * math.prod(lki - lj for lj in rows_j)
                    if target is not None and num:
                        mats[k - 1][target][col] = Fraction(num, den)
    return IrrepA(l, weights, dim, x_mats, y_mats, h_diag)


@lru_cache(maxsize=256)
def irrep_A(rank: int, weights: tuple[int, ...]) -> IrrepA:
    """build_irrep_A through a bounded cache; weights must be a tuple."""
    return build_irrep_A(rank, weights)


# -- action oracles -----------------------------------------------------------


@dataclass
class ActionOracle:
    """Black-box generator action with declared shape."""

    rank: int
    loop_vars: int
    variant: str
    eval: Callable[[Generator, Poly], Poly]

    @property
    def ranks(self) -> tuple[int, int]:
        if self.variant == "witt":
            return (0, self.loop_vars)
        return (self.rank, self.loop_vars)

    def one(self) -> Poly:
        return Poly.const(*self.ranks, 1)


def oracle_from_spec(spec: ModuleSpec) -> ActionOracle:
    return ActionOracle(
        rank=spec.algebra.rank,
        loop_vars=spec.algebra.loop_vars,
        variant=spec.algebra.variant,
        eval=lambda gen, p: repmods.act(spec, gen, p),
    )


def inject_defect(oracle: ActionOracle, defect: str) -> ActionOracle:
    """Deliberately corrupted oracles for harness power tests.

    "center":        K_1 . p gains a constant term
    "loop-scaling":  x_1(e_1) . p gains a constant term
    "lambda-mismatch": h generators scale direction 1 inconsistently by row
    """
    base = oracle.eval

    def eval_fn(gen: Generator, p: Poly):
        out = base(gen, p)
        if defect == "center" and gen.kind == "K" and gen.index == 1:
            return out + Poly.const(*oracle.ranks, 1)
        if (
            defect == "loop-scaling"
            and gen.kind == "x"
            and gen.index == 1
            and any(gen.r)
        ):
            return out + Poly.const(*oracle.ranks, 1)
        if (
            defect == "lambda-mismatch"
            and gen.kind == "h"
            and gen.index == oracle.rank
            and any(gen.r)
        ):
            return out.scale(2)
        return out

    return ActionOracle(oracle.rank, oracle.loop_vars, oracle.variant, eval_fn)


# -- simplicity prediction -----------------------------------------------------


def simplicity_rule(spec: ModuleSpec) -> tuple[bool, str]:
    alg = spec.algebra
    if alg.variant == "witt":
        simple = spec.witt_a != -1
        return simple, "Witt module simple iff a != -1"
    if alg.family == "C":
        return True, "C-family always simple"
    b = spec.base_b.as_scalar()
    if b is None:
        raise DomainError("simplicity prediction requires a scalar b")
    l = alg.rank
    full = frozenset(range(1, l + 2))
    if spec.S == full:
        eff = (l + 1) * b
        tag = "(l+1)*b"
    elif not spec.S:
        eff = (l + 1) * (-b - 1)
        tag = "(l+1)*(-b-1)"
    else:
        return True, "mixed S: some generator acts invertibly"
    if eff.denominator == 1 and eff >= 0:
        return False, f"edge S with {tag} = {eff} a non-negative integer"
    return True, f"edge S but {tag} = {eff} is not a non-negative integer"


def simplicity_predict(spec: ModuleSpec) -> bool:
    return simplicity_rule(spec)[0]


# -- principal witness search ---------------------------------------------------


def _h_only(p: Poly) -> bool:
    l = p.l
    return all(all(e == 0 for e in exp[l:]) for exp in p.terms)


def principal_witness_search(spec: ModuleSpec, maxdeg: int) -> Poly | None:
    """Search monic H-only products of shifted linear factors, per shift orbit.

    Candidates are chains prod_{t < L} (key + s + t)^m of one normalized
    linear form key, tried by multiplicity m, then length L, then start s.
    The invariance conditions p | (x_i.1) sigma_i(p), p | (y_i.1)
    sigma_i^(-1)(p) are decided combinatorially on the factor multisets (the
    factors are irreducible and shifts act on their constant terms), so the
    loop runs no polynomial division.  Each of x_i.1 and y_i.1 is a row that
    shifts a constant c to c + d; element s + t of the chain is covered by
    the shifted chain when s + t - d is in it, and otherwise needs the factor
    key + s + t at least m times in that row.  So only a boundary is checked:
    t < d for an integer d > 0, t >= L + d for an integer d < 0, every t for
    a non-integer d, and no t for d = 0.  Constants are keyed as
    (c mod 1, floor c): a chain stays in one class, and each check is an
    integer dict lookup.  A found candidate is re-verified through the module
    action by witness_verify.
    """
    if maxdeg < 1:
        return None
    l, n = spec.ranks
    if l == 0:
        return None
    xs_f, ys_f = repmods.base_action_factor_lists(spec)
    x_norm = [_normalize_factors(fs) for fs in xs_f]
    y_norm = [_normalize_factors(fs) for fs in ys_f]
    orbits: dict = {}
    for norm in x_norm + y_norm:
        for key, consts in norm.items():
            # d-carrying orbits fall outside the H-only witness contract
            if _h_only(key):
                orbits.setdefault(key, set()).update(consts)
    for key in sorted(orbits, key=lambda k: k.text()):
        # one row per x_i.1 and y_i.1 whose shift on this orbit is nonzero
        rows = []
        for i in range(l):
            delta = key.coeff(_unit_exp(l, n, i))
            for norm, d in ((x_norm[i], -delta), (y_norm[i], delta)):
                if d:
                    rows.append(_shift_row(d, norm.get(key, {})))
        starts = sorted(
            {(k + m, r) for r, k in map(_split, orbits[key])
             for m in range(-(maxdeg + 1), maxdeg + 2)}
        )
        checks = [(k, r, [(d, absorbers.get(r, {})) for d, absorbers in rows]) for k, r in starts]
        for mult in (1, 2):
            for length in range(1, maxdeg // mult + 1):
                for k, r, row_checks in checks:
                    if _chain_holds(k, length, mult, row_checks):
                        p = Poly.const(l, n, 1)
                        for t in range(length):
                            p = p * (key + Poly.const(l, n, r + k + t)) ** mult
                        return p
    return None


def _split(c: Rat) -> tuple[Rat, int]:
    """(c mod 1, floor c)."""
    k = math.floor(c)
    return c - k, k


def _shift_row(d: Rat, consts: dict) -> tuple[int | None, dict]:
    """A row's nonzero shift d as an int (None when fractional), and its
    {constant: mult} as {c mod 1: {floor c: mult}}."""
    classes: dict = {}
    for c, m in consts.items():
        r, k = _split(c)
        classes.setdefault(r, {})[k] = m
    return (int(d) if d.denominator == 1 else None), classes


def _chain_holds(k: int, length: int, mult: int, rows: list) -> bool:
    """The invariance conditions for the chain of floors k .. k + length - 1."""
    for d, absorbers in rows:
        if d is None:
            ts = range(length)
        elif d > 0:
            ts = range(min(d, length))
        else:
            ts = range(max(length + d, 0), length)
        for t in ts:
            if absorbers.get(k + t, 0) < mult:
                return False
    return True


def _unit_exp(l: int, n: int, pos: int) -> tuple:
    exp = [0] * (l + n)
    exp[pos] = 1
    return tuple(exp)


def _normalize_factors(factors: list[Poly]) -> dict:
    """{orbit key: {constant: multiplicity}} for a factor list."""
    out: dict = {}
    for f in factors:
        if f.is_constant():
            continue
        _, lead = f.leading()
        norm = f.scale(1 / lead)
        const = norm.constant_term()
        consts = out.setdefault(norm - Poly.const(norm.l, norm.n, const), {})
        consts[const] = consts.get(const, 0) + 1
    return out


def witness_verify(spec: ModuleSpec, p: Poly, loop_window: Iterable | None = None) -> bool:
    """True iff the principal ideal (p) is stable under every windowed generator."""
    l, n = spec.ranks
    if not p.is_monic() or p.total_degree() < 1 or not _h_only(p):
        raise DomainError("witness must be a monic polynomial of degree >= 1 in the H-variables")
    window = window_degrees(spec.algebra, loop_window)
    for gen in repmods.generators_for(spec, window):
        if not divides(p, repmods.act(spec, gen, p)):
            return False
    return True


# -- quotient certificates -------------------------------------------------------


@dataclass
class QuotientCert:
    """Finite-dimensional quotient data certifying non-simplicity."""

    weights: tuple[int, ...]
    dim: int
    v0: tuple[Rat, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "finite_quotient",
            "weights": list(self.weights),
            "dim": self.dim,
            "v0": [str(c) for c in self.v0],
        }


def _at_weights(p: Poly, rep: IrrepA) -> list[Poly]:
    """p(h_j, d) for each basis weight h_j: the H-block evaluated, d kept.

    With D the common denominator of p's coefficients, e the largest degree
    of an H-monomial and w_j = (l + 1) h_j the integer weights, each value is
    an integer sum over D (l + 1)^e.
    """
    l = rep.rank
    size = l + 1
    den, nums = _over_common_denominator(p.terms)
    top = max((sum(exp[:l]) for exp, _ in nums), default=0)
    monomials = [
        (exp[l:], [(k, e) for k, e in enumerate(exp[:l]) if e], c * size ** (top - sum(exp[:l])))
        for exp, c in nums
    ]
    den *= size**top
    out = []
    for w in rep.h_int:
        acc: dict = {}
        for beta, powers, c in monomials:
            value = math.prod((w[k] ** e for k, e in powers), start=c)
            acc[beta] = acc.get(beta, 0) + value
        out.append(Poly._raw(0, p.n, _nonzero_fractions(acc, den)))
    return out


def quotient_certificate_search(
    spec: ModuleSpec, dim_bound: int, loop_window: Iterable | None = None
) -> QuotientCert | None:
    """Scan irreducibles of dimension <= dim_bound for an intertwining vector.

    A kernel vector of the base conditions is returned only once
    verify_quotient_certificate accepts it at loop_window.
    """
    alg = spec.algebra
    if alg.variant == "witt" or alg.family != "A":
        return None
    if spec.base_b is not None and spec.base_b.as_scalar() is None:
        return None
    l = alg.rank
    xs, ys = base_action_polys(spec)

    def rows(rep: IrrepA) -> Iterator[dict[int, Rat]]:
        # rows of (op - poly(H)) as a matrix on V, built as nullspace asks for
        # them; poly(H) is diagonal and d-free, since b is a scalar here
        for i in range(l):
            for op, poly in ((rep.x_mats[i], xs[i]), (rep.y_mats[i], ys[i])):
                for r, value in enumerate(_at_weights(poly, rep)):
                    row = dict(op[r])
                    row[r] = row.get(r, 0) - value.constant_term()
                    yield row

    for weights in _dominant_weights(l, dim_bound):
        rep = irrep_A(l, weights)
        kernel = nullspace(rows(rep), rep.dim)
        if kernel:
            cert = QuotientCert(weights=tuple(weights), dim=rep.dim, v0=tuple(kernel[0]))
            if verify_quotient_certificate(spec, cert, loop_window):
                return cert
    return None


def _dominant_weights(l: int, dim_bound: int) -> list[tuple[int, ...]]:
    """Highest weights of dimension <= dim_bound, by dimension then weight.

    The Weyl dimension grows strictly in each m_i, so an entry stops rising
    once the weight with zeros after it exceeds the bound.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]):
        if len(prefix) == l:
            out.append(prefix)
            return
        pad = (0,) * (l - len(prefix) - 1)
        m = 0
        while weyl_dim_A(prefix + (m,) + pad) <= dim_bound:
            extend(prefix + (m,))
            m += 1

    if dim_bound >= 1:
        extend(())
    out.sort(key=lambda w: (weyl_dim_A(w), w))
    return out


def verify_quotient_certificate(
    spec: ModuleSpec, cert: QuotientCert, loop_window: Iterable | None = None
) -> bool:
    """Exact proof that f -> f(H) v0 has an invariant kernel, for every f.

    Phi(f) has coordinates f(h_j, d) v0_j.  First every nonzero entry (j, c)
    of X_i (of Y_i) must have h_j - h_c = e_i (-e_i): this is the ladder
    relation [H_k, X_i] = delta_ki X_i, as [H_k, M]_jc = (h_j - h_c)_k M_jc.
    Then each term F T_u, u = (u_H, r), of each windowed generator operator
    (``repmods.generator_operator``) must factor through Phi.  With u_H = 0
    (h, K, D) it does by construction: on coordinate j it acts as
    F(h_j, d) T_r.  With u_H = +e_i (-e_i) and M = X_i (Y_i), coordinate j
    of Phi(F T_u f) is F(h_j, d) f(h_j - u_H, d - r) v0_j and that of
    lambda^r M T_r Phi(f) is lambda^r f(h_j - u_H, d - r) (M v0)_j, so the
    term factors iff F(h_j, d) v0_j = lambda^r (M v0)_j for every j; at
    r = 0 these are the base conditions X_i v0 = (x_i.1)(H) v0 and
    Y_i v0 = (y_i.1)(H) v0.  Any other H-shift fails.
    """
    l, n = spec.ranks
    if all(c == 0 for c in cert.v0):
        return False
    rep = irrep_A(l, tuple(cert.weights))
    if rep.dim != cert.dim or len(cert.v0) != rep.dim:
        return False
    v0 = list(cert.v0)
    images: dict[tuple[int, ...], Vector] = {}
    for i in range(l):
        for mats, step in ((rep.x_mats, 1), (rep.y_mats, -1)):
            for r, row in enumerate(mats[i]):
                for c, x in row.items():
                    if x and any(
                        a - b != (step if j == i else 0)
                        for j, (a, b) in enumerate(zip(rep.h_diag[r], rep.h_diag[c]))
                    ):
                        return False
            shift = tuple(step if j == i else 0 for j in range(l))
            images[shift] = mat_vec(mats[i], v0)
    window = window_degrees(spec.algebra, loop_window)
    for gen in repmods.generators_for(spec, window):
        for u, f in repmods.generator_operator(spec, gen).terms.items():
            if not any(u[:l]):
                continue
            image = images.get(u[:l])
            if image is None:
                return False
            lam_r = spec.lam_pow(u[l:])
            for fj, x, mx in zip(_at_weights(f, rep), v0, image):
                if fj.scale(x) != Poly.const(0, n, lam_r * mx):
                    return False
    return True


# -- witness report and combined search ---------------------------------------


@dataclass
class WitnessReport:
    found: bool
    witness: Poly | None = None
    quotient_cert: QuotientCert | None = None
    checked_degree_bound: int = 0
    checked_dim_bound: int = 0
    checked_loop_window: list = field(default_factory=list)
    verified: bool = False
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "witness": self.witness.text() if self.witness is not None else None,
            "quotient_cert": self.quotient_cert.to_dict() if self.quotient_cert else None,
            "checked_degree_bound": self.checked_degree_bound,
            "checked_dim_bound": self.checked_dim_bound,
            "checked_loop_window": [list(r) for r in self.checked_loop_window],
            "verified": self.verified,
            "notes": self.notes,
        }


def submodule_witness_search(
    spec: ModuleSpec,
    maxdeg: int,
    loop_window: Iterable | None = None,
    dim_bound: int | None = None,
) -> WitnessReport:
    """Search for an invariant-ideal certificate at the given bounds.

    A bound of 0 skips that search (maxdeg for the principal one, dim_bound
    for the quotient scan); a negative bound is a DomainError.
    """
    if spec.algebra.variant == "witt":
        raise DomainError("witness search applies to finite/toroidal/full variants")
    if maxdeg < 0:
        raise DomainError(f"maxdeg must be non-negative, got {maxdeg}")
    if dim_bound is not None and dim_bound < 0:
        raise DomainError(f"dim_bound must be non-negative, got {dim_bound}")
    window = window_degrees(spec.algebra, loop_window)
    if dim_bound is None:
        # the edge-pattern quotients at degree budget m have dimension
        # m(m+2)/8 (e.g. V(0, 3b) for l = 2), so this bound tracks maxdeg
        dim_bound = min(max(6, maxdeg * (maxdeg + 2) // 8 + 4), 64)
    p = principal_witness_search(spec, maxdeg)
    if p is not None:
        ok = witness_verify(spec, p, window)
        return WitnessReport(
            found=ok,
            witness=p if ok else None,
            checked_degree_bound=maxdeg,
            checked_dim_bound=dim_bound,
            checked_loop_window=window,
            verified=ok,
            notes="principal invariant ideal",
        )
    cert = quotient_certificate_search(spec, dim_bound, window)
    if cert is not None:
        return WitnessReport(
            found=True,
            quotient_cert=cert,
            checked_degree_bound=maxdeg,
            checked_dim_bound=dim_bound,
            checked_loop_window=window,
            verified=True,
            notes="finite-codimension invariant ideal (module-map kernel)",
        )
    return WitnessReport(
        found=False,
        checked_degree_bound=maxdeg,
        checked_dim_bound=dim_bound,
        checked_loop_window=window,
        notes="no witness at the searched bounds",
    )


# -- cyclicity -----------------------------------------------------------------


def cyclicity_check(
    spec: ModuleSpec,
    w: Poly,
    max_word_len: int = 12,
    loop_window: Iterable | None = None,
) -> bool:
    """Try to reach a nonzero constant from w inside the generated submodule.

    Phase 1 kills the d-degrees with (h_1(e_j) - lambda_j h_1); phase 2 closes
    the span under the finite-type generators breadth-first (each round is one
    more letter of enveloping-algebra filtration).  False means "not within
    budget", never a proof of non-cyclicity.
    """
    if w.is_zero():
        raise DomainError("cyclicity seed must be nonzero")
    if spec.algebra.variant == "witt":
        raise DomainError("cyclicity check applies to finite/toroidal/full variants")
    l, n = spec.ranks
    hvar = Poly.H(l, n, 1)
    current = w
    if spec.algebra.variant != "finite":
        for j in range(1, n + 1):
            var = VarId("d", j)
            e_j = tuple(1 if t == j - 1 else 0 for t in range(n))
            while deg_in(var, current) > 0:
                current = repmods.act(spec, Generator("h", 1, e_j), current) - (
                    hvar * current
                ).scale(spec.lam[j - 1])
                if current.is_zero():
                    raise StructureError("degree reduction annihilated the seed")
    degbound = current.total_degree() + max_word_len + 2
    gens = []
    zero = spec.algebra.zero_degree()
    for i in range(1, l + 1):
        gens += [Generator("x", i, zero), Generator("y", i, zero), Generator("h", i, zero)]
    target = {(0,) * (l + n): Fraction(1)}
    span = Echelon()
    span.add(current.terms)
    if span.contains(target):
        return True
    frontier = [current]
    for _ in range(max_word_len):
        new_frontier = []
        for vec in frontier:
            for gen in gens:
                img = repmods.act(spec, gen, vec)
                if img.is_zero() or img.total_degree() > degbound:
                    continue
                if span.add(img.terms):
                    new_frontier.append(img)
        if span.contains(target):
            return True
        if not new_frontier:
            return False
        frontier = new_frontier
    return span.contains(target)


# -- recovery ------------------------------------------------------------------


@dataclass
class RecoveredParams:
    """Parameters read off a black-box rank-1 module, canonical decode first."""

    family: str | None
    lam: tuple[Rat, ...]
    witt_a: Rat | None
    x_polys: list[Poly]
    y_polys: list[Poly]
    base_a: tuple[Rat, ...] = ()
    base_b: Poly | None = None
    S: frozenset[int] = frozenset()
    alternates: list[tuple] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "lambda": [str(x) for x in self.lam],
            "witt_a": str(self.witt_a) if self.witt_a is not None else None,
            "x_polys": [p.text() for p in self.x_polys],
            "y_polys": [p.text() for p in self.y_polys],
            "base_a": [str(x) for x in self.base_a],
            "base_b": self.base_b.text() if self.base_b is not None else None,
            "S": sorted(self.S),
            "alternates": [
                {
                    "family": fam,
                    "S": sorted(S),
                    "base_a": [str(x) for x in a],
                    "base_b": b.text(),
                }
                for fam, S, a, b in self.alternates
            ],
        }


def check_assertion_A(oracle: ActionOracle, loop_window: Iterable | None = None):
    """t^a K_j . 1 = 0 for every window degree a and central index j."""
    report = CheckReport("graded_center_annihilation")
    if oracle.variant not in ("toroidal", "full"):
        return report
    one = oracle.one()
    for a in window_degrees(oracle, loop_window):
        for j in range(1, oracle.loop_vars + 1):
            got = oracle.eval(Generator("K", j, a), one)
            report.record(
                got.is_zero(), generator=Generator("K", j, a).text(), input=one,
                lhs=got, rhs=Poly.zero(*oracle.ranks), difference=got,
            )
    return report


def check_assertion_B(oracle: ActionOracle, loop_window: Iterable | None, lam: Sequence[Rat]):
    """X(a) . 1 = lambda^a (X . 1) for X among x_i, y_i, h_i."""
    report = CheckReport("graded_loop_scaling")
    if oracle.variant not in ("toroidal", "full"):
        return report
    one = oracle.one()
    zero = (0,) * oracle.loop_vars
    base = {}
    for i in range(1, oracle.rank + 1):
        for kind in ("x", "y", "h"):
            base[kind, i] = oracle.eval(Generator(kind, i, zero), one)
    for a in window_degrees(oracle, loop_window):
        factor = Fraction(1)
        for lam_j, aj in zip(lam, a):
            factor *= Fraction(lam_j) ** aj
        for (kind, i), b0 in base.items():
            got = oracle.eval(Generator(kind, i, a), one)
            want = b0.scale(factor)
            report.record(
                got == want,
                generator=Generator(kind, i, a).text(),
                input=one,
                lhs=got,
                rhs=want,
                difference=got - want,
            )
    return report


def recover_lambda(oracle: ActionOracle) -> tuple[Rat, ...]:
    """lambda_j from h_i(e_j).1 = lambda_j H_i, cross-checked over rows and signs."""
    l, n = oracle.rank, oracle.loop_vars
    one = oracle.one()
    lams: list[Rat] = []
    for j in range(1, n + 1):
        e_j = tuple(1 if t == j - 1 else 0 for t in range(n))
        neg = tuple(-x for x in e_j)
        value: Rat | None = None
        for i in range(1, l + 1):
            hvar = Poly.H(*oracle.ranks, i)
            got = oracle.eval(Generator("h", i, e_j), one)
            ratio = _scalar_ratio(got, hvar)
            if ratio is None or ratio == 0:
                raise ClassificationError(
                    "loop-scaling", f"h{i}(e{j}).1 is not a nonzero multiple of H{i}"
                )
            if value is None:
                value = ratio
            elif value != ratio:
                raise ClassificationError(
                    "shift-scalar-consistency",
                    f"direction {j}: rows give {value} and {ratio}",
                )
            back = oracle.eval(Generator("h", i, neg), one)
            if back != hvar.scale(1 / ratio):
                raise ClassificationError(
                    "shift-scalar-consistency",
                    f"h{i}(-e{j}).1 does not invert the scalar {ratio}",
                )
        lams.append(value)
    return tuple(lams)


def _scalar_ratio(p: Poly, q: Poly) -> Rat | None:
    """c with p = c q, else None."""
    if q.is_zero():
        return None
    if p.is_zero():
        return Fraction(0)
    exp, coeff = q.leading()
    c = p.coeff(exp) / coeff
    return c if p == q.scale(c) else None


def recover_witt_a(oracle: ActionOracle, lam: Sequence[Rat]) -> tuple[tuple[Rat, ...], Rat]:
    """(lambda, a) from t^{e_j} d_j . 1 = lambda_j (d_j - (a+1)), all directions.

    The witt variant has no h-probes and passes an empty lam: lambda_j is the
    d_j coefficient of t^{e_j} d_j . 1.  The full variant passes the lambda
    of the h-probes, which that coefficient must match.
    """
    n = oracle.loop_vars
    one = oracle.one()
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    ups = [oracle.eval(Generator("D", j, e_j), one) for j, e_j in enumerate(units, 1)]
    leads = [
        _scalar_ratio(got - got.constant_term() * one, Poly.d(*oracle.ranks, j))
        for j, got in enumerate(ups, 1)
    ]
    if not lam:
        for j, lead in enumerate(leads, 1):
            if not lead:
                raise ClassificationError(
                    "witt-scalar-consistency", f"t^(e{j}) d{j}.1 is not affine in d{j}"
                )
        lam = leads
    lam = tuple(Fraction(x) for x in lam)
    value: Rat | None = None
    for j, (e_j, got, lead, lam_j) in enumerate(zip(units, ups, leads, lam), 1):
        if lead is None or lead != lam_j:
            raise ClassificationError(
                "witt-scalar-consistency",
                f"t^(e{j}) d{j}.1 leading coefficient disagrees with lambda_{j}",
            )
        a = -got.constant_term() / lam_j - 1
        if value is None:
            value = a
        elif value != a:
            raise ClassificationError(
                "witt-scalar-consistency", f"directions give a = {value} and {a}"
            )
        back = oracle.eval(Generator("D", j, tuple(-x for x in e_j)), one)
        want = (Poly.d(*oracle.ranks, j) + Poly.const(*oracle.ranks, value + 1)).scale(
            1 / lam_j
        )
        if back != want:
            raise ClassificationError(
                "witt-scalar-consistency", f"t^(-e{j}) d{j}.1 inconsistent with a = {value}"
            )
    return lam, value


def recover_parameters(
    oracle: ActionOracle,
    loop_window: Iterable | None = None,
    samples: int = 8,
    seed: int = 0,
) -> RecoveredParams:
    """Read the full parameter tuple off a black-box module and cross-check it."""
    l, n = oracle.ranks
    rng = random.Random(seed)
    one = oracle.one()
    window = window_degrees(oracle, loop_window)

    # Cartan freeness first (checked, not assumed)
    probes = [one] + [random_poly(rng, l, n) for _ in range(samples)]
    zero = (0,) * n if oracle.variant != "finite" else ()
    for p in probes:
        for i in range(1, l + 1):
            if oracle.eval(Generator("h", i, zero), p) != Poly.H(l, n, i) * p:
                raise ClassificationError("cartan-freeness", f"H{i} is not multiplication")
        for j in range(1, n + 1):
            if oracle.eval(Generator("D", j, zero), p) != Poly.d(l, n, j) * p:
                raise ClassificationError("cartan-freeness", f"d{j} is not multiplication")

    lam: tuple[Rat, ...] = ()
    witt_a: Rat | None = None
    if oracle.variant in ("toroidal", "full"):
        lam = recover_lambda(oracle)
    if oracle.variant in ("witt", "full"):
        # the witt variant has no h-probes: its lambda comes from the derivation sector
        lam, witt_a = recover_witt_a(oracle, lam)
    if oracle.variant in ("toroidal", "full"):
        repA = check_assertion_A(oracle, window)
        if not repA.passed:
            f = repA.failures[0]
            raise ClassificationError("center-annihilation", f["generator"])
        repB = check_assertion_B(oracle, window, lam)
        if not repB.passed:
            f = repB.failures[0]
            raise ClassificationError("loop-scaling", f["generator"])
    if oracle.variant == "witt":
        return RecoveredParams(None, lam, witt_a, [], [])

    x_polys = [oracle.eval(Generator("x", i, zero), one) for i in range(1, l + 1)]
    y_polys = [oracle.eval(Generator("y", i, zero), one) for i in range(1, l + 1)]
    decodings = _decode_base(oracle, x_polys, y_polys, lam, witt_a)
    if not decodings:
        raise ClassificationError(
            "generator-pattern", "x_i.1 / y_i.1 match no admissible factor pattern"
        )
    family, S, base_a, base_b = decodings[0]
    return RecoveredParams(
        family=family,
        lam=lam,
        witt_a=witt_a,
        x_polys=x_polys,
        y_polys=y_polys,
        base_a=base_a,
        base_b=base_b,
        S=S,
        alternates=decodings[1:],
    )


def _decode_base(oracle, x_polys, y_polys, lam, witt_a) -> list[tuple]:
    """All (family, S, a, b) tuples whose rebuilt module reproduces the oracle.

    u_i and v_i vanish at H = 0, so in the A family
    (x_i.1 * y_i.1)|_{H=0} = (b + e_i)(b + e_{i+1}) with e_k = [k not in S],
    whatever a is.  Slot 1 gives at most two b per S, the roots of
    (2b + e_1 + e_2)^2 = 4 P_1 + (e_1 - e_2)^2, and the other slots prune S;
    the C family has b = 0.  Each surviving (S, b) is rebuilt once with unit
    a: x_i.1 and y_i.1 are a_i and 1/a_i times products fixed by (family, S,
    b), so a_i is the ratio x_i.1 / X_i and the tuple holds iff
    y_i.1 = Y_i / a_i for every i.
    """
    l, n = oracle.ranks
    at_zero = [
        Poly(l, n, {e: c for e, c in (x * y).terms.items() if not any(e[:l])})
        for x, y in zip(x_polys, y_polys)
    ]
    roots = [_poly_sqrt(at_zero[0].scale(4) + delta) for delta in (0, 1)]
    slot1: dict = {}
    for e1, e2 in itertools.product((0, 1), repeat=2):
        root = roots[(e1 - e2) ** 2]
        signs = () if root is None else (1, -1) if root else (1,)
        slot1[e1, e2] = [(root.scale(s) - e1 - e2).scale(Fraction(1, 2)) for s in signs]
    products: dict = {}

    def slot_product(b: Poly, e: int, f: int) -> Poly:
        key = (b, e + f)
        if key not in products:
            products[key] = (b + e) * (b + f)
        return products[key]

    ones = (Fraction(1),) * l
    found: list[tuple] = []
    for family in ("A",) if l == 1 else ("A", "C"):
        smax = l + 1 if family == "A" else l
        for bits in itertools.product((False, True), repeat=smax):
            S = frozenset(i + 1 for i, in_s in enumerate(bits) if in_s)
            if family == "C":
                bs = [Poly.zero(l, n)]
            else:
                e = [int(not in_s) for in_s in bits]
                bs = [
                    b
                    for b in slot1[e[0], e[1]]
                    if all(at_zero[i] == slot_product(b, e[i], e[i + 1]) for i in range(1, l))
                ]
            for b in bs:
                trial = _trial_spec(oracle, family, ones, b, S, lam, witt_a)
                if trial is None:
                    continue
                xs, ys = base_action_polys(trial)
                a = tuple(_scalar_ratio(x, X) for x, X in zip(x_polys, xs))
                if all(a) and all(y == Y.scale(1 / a_i) for y, Y, a_i in zip(y_polys, ys, a)):
                    entry = (family, S, a, b)
                    if entry not in found:
                        found.append(entry)
    found.sort(key=_decode_key)
    return found


def _decode_key(entry):
    family, S, a, b = entry
    return (family, tuple(sorted(S)), b.sorted_terms(), tuple(a))


def _trial_spec(oracle, family, base_a, base_b, S, lam, witt_a) -> ModuleSpec | None:
    try:
        desc = AlgebraDesc(
            family=family,
            rank=oracle.rank,
            loop_vars=oracle.loop_vars,
            variant=oracle.variant,
            cocycle=(Fraction(0), Fraction(0)),
        )
        return ModuleSpec(
            algebra=desc, lam=lam, witt_a=witt_a, base_a=base_a, base_b=base_b, S=S
        )
    except (StructureError, DomainError):
        return None


def _poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a polynomial, or None."""
    if p.is_zero():
        return Poly.zero(p.l, p.n)
    exp, lead = p.leading()
    if any(e % 2 for e in exp):
        return None
    if lead < 0:
        return None
    num, den = lead.numerator, lead.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    half = tuple(e // 2 for e in exp)
    root = Poly(p.l, p.n, {half: Fraction(rn, rd)})
    rem = p - root * root
    # peel lower-order terms: root += rem_lead / (2 * root_lead)
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 10000:
            return None
        rexp, rc = rem.leading()
        diff = tuple(a - b for a, b in zip(rexp, half))
        if any(e < 0 for e in diff):
            return None
        term = Poly(p.l, p.n, {diff: rc / (2 * Fraction(rn, rd))})
        root = root + term
        rem = p - root * root
    return root


def _isqrt_exact(x: int) -> int | None:
    """The integer square root of x when x is a perfect square, else None."""
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def build_spec_from_recovery(
    rec: RecoveredParams, oracle: ActionOracle
) -> ModuleSpec:
    """ModuleSpec for the canonical decoding (round-trip entry point)."""
    if rec.family is None:
        desc = AlgebraDesc("A", 0, oracle.loop_vars, "witt")
        return ModuleSpec(algebra=desc, lam=rec.lam, witt_a=rec.witt_a)
    desc = AlgebraDesc(
        family=rec.family,
        rank=oracle.rank,
        loop_vars=oracle.loop_vars,
        variant=oracle.variant,
    )
    return ModuleSpec(
        algebra=desc,
        lam=rec.lam,
        witt_a=rec.witt_a,
        base_a=rec.base_a,
        base_b=rec.base_b,
        S=rec.S,
    )


# -- isomorphism test ------------------------------------------------------------


def iso_test(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism of two modules over the same algebra shape.

    An isomorphism of rank-1 U(h)-free modules commutes with multiplication
    by h, so it is multiplication by a unit of the carrier, a nonzero scalar.
    Two modules are therefore isomorphic exactly when they act identically:
    equal lambda, equal witt_a and equal x_i.1, y_i.1.  Different parameters can give the same action
    (at l = 1, M(a, b, FULL) = M(-a, -b-1, {}), and b <-> -b-1 for mixed S).
    """
    a1, a2 = s1.algebra, s2.algebra
    if (a1.family, a1.rank, a1.loop_vars, a1.variant) != (
        a2.family,
        a2.rank,
        a2.loop_vars,
        a2.variant,
    ):
        raise DomainError("isomorphism test requires matching algebra shapes")
    return (
        s1.lam == s2.lam
        and s1.witt_a == s2.witt_a
        and base_action_polys(s1) == base_action_polys(s2)
    )
