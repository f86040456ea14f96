"""Submodule witness search, exact certificates and the cyclicity search.

A witness certifies that a module is not simple: a nonzero proper invariant
ideal of the carrier.  Certificates come in three exact, independently
verified kinds:

* principal: a monic polynomial p in the H-variables with
  p | (x_i.1) sigma_i(p) and p | (y_i.1) sigma_i^{-1}(p) for all i, so the
  ideal (p) is invariant.  Complete for l = 1 once maxdeg reaches the
  codimension (invariant-ideal factor chains terminate on both sides only
  along integer-shift intervals, and a chain's length is the codimension of
  its ideal); below that a point set still certifies.

* point set: a finite set Z of integer weights w = (l + 1) h that obeys the
  closure rule of point_set_search, so I(Z) is invariant
  (verify_point_set).  I(Z) is H-only, so every T_tau^r fixes it: it holds
  at every loop degree.  For l >= 2 the edge-pattern submodules have finite
  codimension and are never principal, so this is what
  submodule_witness_search reports where the principal search finds none.

* quotient: an irreducible V(m) of sl_{l+1} in its Gelfand-Tsetlin basis
  plus v0 != 0 such that f -> f(H) v0 has an invariant kernel
  (verify_quotient_certificate).  The weight support of v0 obeys the
  closure rule, and Q[H]/I(Z) of a closed Z has an irreducible quotient of
  dimension at most |Z|, so a point set of at most k points exists iff such
  a quotient of dimension at most k does; the scan, which reads neither the
  affine factors nor the closure, stays as the point sets' reference.
  In two H-variables every proper invariant ideal has a nontrivial gcd or
  finite codimension, so the kinds jointly cover l <= 2 at the bounds.

The rule these searches arbitrate is ``repmods.simplicity_rule``.  The
exact linear algebra (``Echelon``, ``nullspace``) serves both the quotient
scan and ``cyclicity_check`` and eliminates on integers.  The witness
searches read the factors of x_i.1 and y_i.1 as the integer rows of
``repmods.affine_factors``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

from . import repmods
from .algebras import window_degrees
from .errors import DomainError, StructureError
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
from .repmods import ModuleSpec, _generator, base_action_polys

Rat = Fraction
Vector = list[Rat]
Row = dict[int, Rat]


# -- exact sparse linear algebra ----------------------------------------------


def mat_vec(m: list[Row], v: Vector) -> Vector:
    return [sum((x * v[c] for c, x in row.items() if v[c]), Fraction(0)) for row in m]


class Echelon:
    """Fraction-free echelon form of sparse rows {key: value} with ordered keys.

    Keys are int columns or packed monomial keys.  Values are ints or
    Fractions; a row of ints, such as a polynomial's integer ``nums``, is
    passed with ``integral=True`` and skips the pass over the common
    denominator that brings the others to integers.  A row is reduced on its
    lowest key by the pivot row of that key; a nonzero remainder, divided by
    its content, becomes the pivot row of its lowest key.
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict, integral: bool = False) -> dict:
        """The integer remainder of a row after elimination; empty iff in the span."""
        vec = dict(row) if integral else _over_common_denominator(row)[1]
        while vec:
            j = min(vec)
            prow = self.pivots.get(j)
            if prow is None:
                break
            g = math.gcd(vec[j], prow[j])
            a, p = vec[j] // g, prow[j] // g
            if p != 1:
                vec = {k: p * x for k, x in vec.items()}
            for k, y in prow.items():
                x = vec.get(k, 0) - a * y
                if x:
                    vec[k] = x
                else:
                    del vec[k]
        return vec

    def add(self, row: dict, integral: bool = False) -> bool:
        """Insert a row; True when it enlarges the span."""
        vec = self.reduce(row, integral)
        if not vec:
            return False
        g = math.gcd(*vec.values())
        self.pivots[min(vec)] = {k: x // g for k, x in vec.items()} if g > 1 else vec
        return True


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


class IrrepA:
    """Explicit irreducible of sl_{l+1} in its Gelfand-Tsetlin basis.

    x_mats[i] and y_mats[i] are X_{i+1} and Y_{i+1} as sparse rows: row r maps
    each column c with a nonzero entry to that entry.  The H_i act diagonally
    and are kept only as h_int: the eigenvalues h_j = (H_1..H_l) on basis
    vector j have denominators dividing l + 1, and h_int[j] is the integer
    tuple (l + 1) h_j, so p(H) multiplies coordinate j by p(h_int[j] / (l + 1)).
    """

    def __init__(self, rank: int, weights: tuple[int, ...], dim: int, x_mats: list[list[Row]],
                 y_mats: list[list[Row]], h_int: list[tuple[int, ...]]):
        self.rank = rank
        self.weights = weights
        self.dim = dim
        self.x_mats = x_mats
        self.y_mats = y_mats
        self.h_int = h_int


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
    (sum of row i) - i * |lambda| / (l+1), kept times l + 1 as an integer.
    Every entry is an exact rational and the cost is polynomial in the
    dimension.
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
    total = sum(top)
    h_int = [
        tuple(size * sum(pat[i - 1]) - i * total for i in range(1, l + 1)) for pat in patterns
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
                for step, ops, rows_j, sign in (
                    (1, x_mats, ls[k], -1),
                    (-1, y_mats, ls[k - 2] if k > 1 else [], 1),
                ):
                    moved = pat[k - 1][:i] + (pat[k - 1][i] + step,) + pat[k - 1][i + 1 :]
                    target = index.get(pat[: k - 1] + (moved,) + pat[k:])
                    num = sign * math.prod(lki - lj for lj in rows_j)
                    if target is not None and num:
                        ops[k - 1][target][col] = Fraction(num, den)
    return IrrepA(l, weights, dim, x_mats, y_mats, h_int)


@lru_cache(maxsize=256)
def irrep_A(rank: int, weights: tuple[int, ...]) -> IrrepA:
    """build_irrep_A through a bounded cache; weights must be a tuple."""
    return build_irrep_A(rank, weights)


# -- principal witness search ---------------------------------------------------


def _h_only(p: Poly) -> bool:
    # the d-block fills the slots above the H-block
    return max(p.nums, default=0) >> SLOT_BITS * p.l == 0


def principal_witness_search(spec: ModuleSpec, maxdeg: int) -> Poly | None:
    """Search monic H-only products of shifted linear factors, per shift orbit.

    Made monic, a factor (row, c) of ``repmods.affine_factors`` is
    form + c / lead, with lead the row's first nonzero entry and form the
    monic form of its orbit key: the row over its gcd with a positive first
    entry (a d-carrying factor, None, is skipped).  Orbits are tried in the
    order of their keys' (variable, coefficient) pairs (_orbit_order), the
    text order of the forms on every reachable key; the first with a chain
    decides.  Candidates are chains prod_{t < L} (form + s + t)^m, tried by
    multiplicity m, then length L, then start s.  The invariance conditions
    p | (x_i.1) sigma_i(p), p | (y_i.1) sigma_i^(-1)(p) are decided on the
    factor multisets, with no polynomial division: x_i.1 and y_i.1 are rows
    that shift a constant c to c + d, and element s + t of the chain needs
    the factor form + s + t at least m times in a row unless s + t - d is in
    the chain (_chain_holds).  Every delta_i != 0 gives a row with
    d = -delta_i and one with d = +delta_i, so the start is absorbed by a row
    with d > 0 or a fractional d and the end by a row with d < 0 or a
    fractional d: both ends are constants of the rows, and only chains
    between two of them are tried (_first_chain).  A found candidate is
    re-verified through the module action by witness_verify.
    """
    l, n = spec.ranks
    if maxdeg < 1 or l == 0:
        return None
    # {key: {constant over the lead: multiplicity}} for each x_i.1, then each y_i.1
    orbits = []
    for forms in itertools.chain(*repmods.affine_factors(spec)):
        out: dict = {}
        for row, c in filter(None, forms):  # None: a d-carrying factor
            lead = next(x for x in row if x)
            g = math.gcd(*row) if lead > 0 else -math.gcd(*row)
            consts = out.setdefault(tuple(x // g for x in row), {})
            const = Fraction(c, lead)
            consts[const] = consts.get(const, 0) + 1
        orbits.append(out)
    x_orb, y_orb = orbits[:l], orbits[l:]
    for key in sorted({key for out in orbits for key in out}, key=_orbit_order):
        lead = next(x for x in key if x)
        # one row per x_i.1 and y_i.1 whose shift on this orbit is nonzero
        rows = []
        for i, delta in enumerate(key):
            if delta:
                d = delta // lead if delta % lead == 0 else None
                rows.append((None if d is None else -d, x_orb[i].get(key, {})))
                rows.append((d, y_orb[i].get(key, {})))
        found = _first_chain(rows, maxdeg)
        if found is not None:
            mult, length, start = found
            form = Poly(l, n, {tuple(int(j == k) for j in range(l + n)): Fraction(x, lead)
                               for k, x in enumerate(key) if x})
            p = Poly.const(l, n, 1)
            for t in range(length):
                p = p * (form + Poly.const(l, n, start + t)) ** mult
            return p
    return None


def _orbit_order(key: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (variable, coefficient) pairs of an orbit key, in variable order."""
    return [(k, x) for k, x in enumerate(key) if x]


def _first_chain(rows: list, maxdeg: int) -> tuple[int, int, Rat] | None:
    """(mult, length, start) of the least chain that holds, or None.

    Rows are (d, {constant: mult}), d an int or None when fractional.  The
    constants are brought over their common denominator D once, so the chains
    are tried on integer numerators, stepping by D.
    """
    den = math.lcm(*[c.denominator for _, absorbers in rows for c in absorbers])
    rows = [(d, {c.numerator * (den // c.denominator): m for c, m in absorbers.items()})
            for d, absorbers in rows]
    consts = {c for _, absorbers in rows for c in absorbers}
    for mult in (1, 2):
        limit = maxdeg // mult * den
        chains = sorted(((e - s) // den + 1, s) for s in consts for e in consts
                        if 0 <= e - s < limit and (e - s) % den == 0)
        for length, start in chains:
            if _chain_holds(start, length, mult, rows, den):
                return mult, length, Fraction(start, den)
    return None


def _chain_holds(start: int, length: int, mult: int, rows: list, den: int) -> bool:
    """The invariance conditions for the chain of numerators start, start +
    den, .., start + (length - 1) den over den: t < d for d > 0, t >= length
    + d for d < 0, every t for a fractional d."""
    for d, absorbers in rows:
        if d is None:
            ts = range(length)
        elif d > 0:
            ts = range(min(d, length))
        else:
            ts = range(max(length + d, 0), length)
        for t in ts:
            if absorbers.get(start + t * den, 0) < mult:
                return False
    return True


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


# -- invariant point sets -------------------------------------------------------


def point_set_search(spec: ModuleSpec, max_points: int) -> frozenset | None:
    """A finite invariant point set of at most max_points points, or None.

    With x_i.p = f_i p(H - e_i) and y_i.p = g_i p(H + e_i), a finite set Z
    of points has an invariant ideal I(Z) iff it obeys the closure rule:
    for z in Z, f_i(z) != 0 => z - e_i in Z and g_i(z) != 0 => z + e_i in Z.
    The least point of Z for a generic positive functional is a seed, a
    common zero of the f_i, and Z holds the seed's closure, the least set
    through it that obeys the rule.  The seeds are the _integer_zeros of the
    x_i.1; each closure is built on the integer weights w = (l + 1) h and is
    given up once it passes max_points, or at a ray: a step along -e_i
    (+e_i) after which no factor of f_i (g_i) vanishes at any whole number
    of further steps (one integer division per factor) makes it infinite.

    Z is the first closure of at most max_points points, as integer weights.
    None proves that no seed of integer weight has one.
    """
    if not _quotient_scan_applies(spec):
        raise DomainError("point sets are searched for the A family with a scalar b")
    x_forms, y_forms = repmods.affine_factors(spec)
    for seed in _integer_zeros(x_forms):
        points = _closure(seed, x_forms, y_forms, max_points)
        if points is not None:
            return frozenset(points)
    return None


def _closure(seed: tuple[int, ...], x_forms: Sequence, y_forms: Sequence,
             max_points: int) -> set | None:
    """The closure of one seed in integer weights; None at a ray or once it
    holds more than max_points points."""
    if max_points < 1:
        return None
    size = len(seed) + 1
    points = {seed}
    todo = [seed]
    while todo:
        w = todo.pop()
        for i in range(size - 1):
            for step, forms in ((-size, x_forms[i]), (size, y_forms[i])):
                # size times each factor's value at h = w / size
                values = [sum(a * x for a, x in zip(row, w)) + size * c for row, c in forms]
                if 0 in values:
                    continue
                # a factor vanishes t >= 1 steps on iff v + t step row_i = 0
                if not any(v * row[i] * step < 0 and v % (step * row[i]) == 0
                           for (row, _), v in zip(forms, values)):
                    return None
                moved = w[:i] + (w[i] + step,) + w[i + 1:]
                if moved not in points:
                    points.add(moved)
                    if len(points) > max_points:
                        return None
                    todo.append(moved)
    return points


def verify_point_set(spec: ModuleSpec, points: Iterable[Sequence[int]]) -> bool:
    """True iff the integer weights w = (l + 1) h are a nonempty set that
    obeys the closure rule of point_set_search, with x_i.1 and y_i.1
    evaluated as polynomials (base_action_polys) at each w by
    _weight_numerators.  StructureError on a point that is not l ints."""
    if not _quotient_scan_applies(spec):
        raise DomainError("point sets are checked for the A family with a scalar b")
    l = spec.ranks[0]
    size = l + 1
    members = {tuple(w) for w in points}
    if any(len(w) != l or not all(isinstance(x, int) for x in w) for w in members):
        raise StructureError(f"a point must be {l} integer weights")
    z = list(members)
    xs, ys = base_action_polys(spec)
    for i in range(l):
        for poly, step in ((xs[i], -size), (ys[i], size)):
            # b is a scalar, so the value at w is its d-free numerator
            for w, acc in zip(z, _weight_numerators(poly, z)[1]):
                if acc.get(0, 0) and w[:i] + (w[i] + step,) + w[i + 1:] not in members:
                    return False
    return bool(z)


class PointSetCert:
    """An invariant point set Z as sorted integer weights w = scale * h."""

    def __init__(self, scale: int, points: Iterable[Sequence[int]]):
        self.scale = scale
        self.points = sorted(tuple(w) for w in points)

    def to_dict(self) -> dict:
        return {"kind": "point_set", "scale": self.scale,
                "points": [list(w) for w in self.points], "size": len(self.points)}


# -- quotient certificates -------------------------------------------------------


class QuotientCert:
    """Finite-dimensional quotient data certifying non-simplicity."""

    def __init__(self, weights: tuple[int, ...], dim: int, v0: tuple[Rat, ...]):
        self.weights = weights
        self.dim = dim
        self.v0 = v0

    def to_dict(self) -> dict:
        return {
            "kind": "finite_quotient",
            "weights": list(self.weights),
            "dim": self.dim,
            "v0": [str(c) for c in self.v0],
        }


def _weight_numerators(p: Poly, weights: Iterable[Sequence[int]]) -> tuple[int, list[dict]]:
    """(D, [{d-part key: numerator} for each integer weight w_j = (l + 1) h_j]):
    p(h_j, d) is the sum of numerator / D times the monomial of Q[d] with
    that key.

    With e the largest degree of an H-monomial of p, D is the denominator of
    p times (l + 1)^e.  Numerators that cancel are kept as 0.
    """
    l = p.l
    size = l + 1
    low = SLOT_BITS * l
    h_block = (1 << low) - 1
    # (key of the d-part in Q[d], H-exponents, numerator) once per monomial
    split = [(key >> low, unpack_exponent(key & h_block, l), c) for key, c in p.nums.items()]
    top = max((sum(h) for _, h, _ in split), default=0)
    monomials = [
        (beta, [(k, e) for k, e in enumerate(h) if e], c * size ** (top - sum(h)))
        for beta, h, c in split
    ]
    out = []
    for w in weights:
        acc: dict = {}
        for beta, powers, c in monomials:
            for k, e in powers:
                c *= w[k] ** e
            acc[beta] = acc.get(beta, 0) + c
        out.append(acc)
    return p.den * size**top, out


def quotient_certificate_search(
    spec: ModuleSpec, dim_bound: int, loop_window: Iterable | None = None
) -> QuotientCert | None:
    """Scan irreducibles of dimension <= dim_bound for an intertwining vector.

    Every V(m) up to dim_bound is built in _dominant_weights order, and the
    first kernel vector v0 of the base conditions X_i v0 = (x_i.1)(H) v0,
    Y_i v0 = (y_i.1)(H) v0 that verify_quotient_certificate accepts at
    loop_window is returned.  Nothing is pruned: the scan is the reference
    that the point sets are held against.
    """
    if not _quotient_scan_applies(spec):
        return None
    l = spec.algebra.rank
    xs, ys = base_action_polys(spec)
    for weights in _dominant_weights(l, dim_bound):
        rep = irrep_A(l, weights)
        kernel = nullspace(_base_condition_rows(xs, ys, rep), rep.dim)
        if kernel:
            cert = QuotientCert(weights=tuple(weights), dim=rep.dim, v0=tuple(kernel[0]))
            if verify_quotient_certificate(spec, cert, loop_window):
                return cert
    return None


def _quotient_scan_applies(spec: ModuleSpec) -> bool:
    """The quotient scan covers the A family with a scalar b."""
    alg = spec.algebra
    if alg.variant == "witt" or alg.family != "A":
        return False
    return spec.base_b is None or spec.base_b.as_scalar() is not None


def _base_condition_rows(xs: list[Poly], ys: list[Poly], rep: IrrepA) -> Iterator[Row]:
    """Rows of each X_i - (x_i.1)(H) and Y_i - (y_i.1)(H) as matrices on rep.

    They are built as nullspace asks for them.  poly(H) is diagonal and
    d-free, since b is a scalar here, so its value at weight h_j is one
    integer numerator over the denominator D of _weight_numerators, and each
    row is scaled by D, which keeps the kernel.
    """
    for i in range(rep.rank):
        for op, poly in ((rep.x_mats[i], xs[i]), (rep.y_mats[i], ys[i])):
            den, values = _weight_numerators(poly, rep.h_int)
            for r, acc in enumerate(values):
                row = {c: den * x for c, x in op[r].items()}
                row[r] = row.get(r, 0) - acc.get(0, 0)
                yield row


def _integer_zeros(form_lists: Sequence[Sequence[tuple]]) -> list[tuple[int, ...]]:
    """Integer weights w = (l + 1) h of the points h where every list has a
    vanishing factor, each once, in the order the systems are solved.

    The lists are one side of ``repmods.affine_factors``, one per x_i.1 or
    per y_i.1; a factor (row, c) is the equation row . H = -c.  Each choice
    of one factor per list is a system of l equations, solved by integer
    elimination; a unique solution h is kept when (l + 1) h is an integer
    vector (every weight of every V(m) is one).  StructureError when a
    consistent system has more than one solution, as the zeros are then no
    finite list; no A-family spec reaches it, since each system picks l
    distinct forms H_k - H_(k-1), k = 1..l + 1, and any l of them are
    independent.  The systems are l x l and many, so the elimination is
    kept here rather than routed through nullspace, which gives the same
    zeros on the 120 scalar-A specs of the search workload's seeds 1-5 at
    ~92 us per spec against ~24 us (2-core machine, Python 3.11).
    """
    l = len(form_lists)
    size = l + 1
    lists = [[(*row, -c) for row, c in forms] for forms in form_lists]
    zeros: dict[tuple[int, ...], None] = {}
    for system in itertools.product(*lists):
        m = list(system)
        rank = 0
        for col in range(l):
            pivot = next((r for r in range(rank, l) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            prow = m[rank]
            for r in range(l):
                a = m[r][col]
                if r != rank and a:
                    m[r] = [prow[col] * x - a * y for x, y in zip(m[r], prow)]
            rank += 1
        if any(eq[l] for eq in m[rank:]):
            continue
        if rank < l:
            raise StructureError("the common zeros of the x_i.1 are no finite list")
        # pivots sit on the diagonal: (l + 1) h_k = (l + 1) c_k / a_kk
        if all(size * eq[l] % eq[k] == 0 for k, eq in enumerate(m)):
            zeros[tuple(size * eq[l] // eq[k] for k, eq in enumerate(m))] = None
    return list(zeros)


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
    relation [H_k, X_i] = delta_ki X_i, as [H_k, M]_jc = (h_j - h_c)_k M_jc
    (checked on the integer weights (l + 1) h, which step by (l + 1) e_i).
    Then each term F T_u, u = (u_H, r), of each windowed generator operator
    (``repmods.generator_operator``) must factor through Phi.  With u_H = 0
    (h, K, D) it does by construction: on coordinate j it acts as
    F(h_j, d) T_r.  With u_H = +e_i (-e_i) and M = X_i (Y_i), coordinate j
    of Phi(F T_u f) is F(h_j, d) f(h_j - u_H, d - r) v0_j and that of
    lambda^r M T_r Phi(f) is lambda^r f(h_j - u_H, d - r) (M v0)_j, so the
    term factors iff (F / lambda^r)(h_j, d) v0_j = (M v0)_j for every j; at
    r = 0 these are the base conditions X_i v0 = (x_i.1)(H) v0 and
    Y_i v0 = (y_i.1)(H) v0.  Any other H-shift fails.  Every windowed
    operator is read, and the terms that share (u_H, F / lambda^r), such as
    those of x_i(r) for every loop degree r, are evaluated once.
    """
    l = spec.ranks[0]
    if all(c == 0 for c in cert.v0):
        return False
    rep = irrep_A(l, tuple(cert.weights))
    if rep.dim != cert.dim or len(cert.v0) != rep.dim:
        return False
    v0 = list(cert.v0)
    images: dict[tuple[int, ...], Vector] = {}
    for i in range(l):
        for ops, step in ((rep.x_mats, 1), (rep.y_mats, -1)):
            for r, row in enumerate(ops[i]):
                for c, x in row.items():
                    if x and any(
                        a - b != (step * (l + 1) if j == i else 0)
                        for j, (a, b) in enumerate(zip(rep.h_int[r], rep.h_int[c]))
                    ):
                        return False
            shift = tuple(step if j == i else 0 for j in range(l))
            images[shift] = mat_vec(ops[i], v0)
    window = window_degrees(spec.algebra, loop_window)
    held = set()  # (u_H, F / lambda^r) of the terms shown to factor
    inverse: dict[tuple[int, ...], Rat] = {}  # 1 / lambda^r by loop degree r
    for gen in repmods.generators_for(spec, window):
        for u, f in repmods.generator_operator(spec, gen).terms.items():
            if not any(u[:l]):
                continue
            image = images.get(u[:l])
            if image is None:
                return False
            r = u[l:]
            if r not in inverse:
                inverse[r] = 1 / spec.lam_pow(r)
            key = (u[:l], f.scale(inverse[r]))
            if key in held:
                continue
            den, values = _weight_numerators(key[1], rep.h_int)
            for acc, x, mx in zip(values, v0, image):
                # (F / lambda^r)(h_j, d) v0_j is the constant (M v0)_j
                if acc.get(0, 0) * x != den * mx or (x and any(c for e, c in acc.items() if e)):
                    return False
            held.add(key)
    return True


# -- witness report and combined search ---------------------------------------


# the default quotient bound from rank 3 on stops here, and reports carry it
# as checked_dim_bound: the point sets rule out every irrep of the simple
# point M(b = 1, S = {}) in ~20 us at l = 3 and 4, at 220 or 1000 alike
# (2-core machine, Python 3.11)
MAX_DEFAULT_DIM_BOUND = 220
# the largest bound a search accepts: a closure is given up once it passes
# the bound, and the 495-point set of M(l = 4, b = 8/5, S = FULL) (the weights
# of V(8 w_4)) is reported in ~11 ms, ~3 ms of it in verify_point_set
# (2-core machine, Python 3.11)
MAX_DIM_BOUND = 500


class WitnessReport:
    def __init__(
        self,
        found: bool,
        witness: Poly | None = None,
        quotient_cert: PointSetCert | QuotientCert | None = None,
        checked_degree_bound: int = 0,
        checked_dim_bound: int = 0,
        checked_loop_window: list | None = None,
        verified: bool = False,
        notes: str = "",
    ):
        self.found = found
        self.witness = witness
        self.quotient_cert = quotient_cert
        self.checked_degree_bound = checked_degree_bound
        self.checked_dim_bound = checked_dim_bound
        self.checked_loop_window = [] if checked_loop_window is None else checked_loop_window
        self.verified = verified
        self.notes = notes

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
    for the point sets); a negative bound is a DomainError, and so is a
    maxdeg above MAX_EXPONENT, since an l = 1 witness that long could not be
    parsed back, and so is a dim_bound above MAX_DIM_BOUND (see its
    comment).  A principal witness ends the search, so its report says
    checked_dim_bound 0; else a closure of at most dim_bound points is
    reported as a PointSetCert.
    """
    if spec.algebra.variant == "witt":
        raise DomainError("witness search applies to finite/toroidal/full variants")
    if not 0 <= maxdeg <= MAX_EXPONENT:
        raise DomainError(f"maxdeg must be in 0..{MAX_EXPONENT}, got {maxdeg}")
    if dim_bound is not None and not 0 <= dim_bound <= MAX_DIM_BOUND:
        raise DomainError(f"dim_bound must be in 0..{MAX_DIM_BOUND}, got {dim_bound}")
    window = window_degrees(spec.algebra, loop_window)
    if dim_bound is None:
        # the edge-pattern quotients at degree budget m have dimension
        # m(m+2)/8 (e.g. V(0, 3b) for l = 2), so this bound tracks maxdeg
        dim_bound = min(max(6, maxdeg * (maxdeg + 2) // 8 + 4), 64)
        l = spec.algebra.rank
        if l >= 3:
            # from rank 3 on they are V(k w_l) or V(k w_1), of dimension
            # C(k + l, l), with k up to (maxdeg - 2) / 2
            k = (maxdeg - 2) // 2
            dim_bound = min(max(dim_bound, math.comb(k + l, l)), MAX_DEFAULT_DIM_BOUND)
    if not _quotient_scan_applies(spec):
        # no irrep is scanned, so none is claimed
        dim_bound = 0
    p = principal_witness_search(spec, maxdeg)
    if p is not None:
        ok = witness_verify(spec, p, window)
        return WitnessReport(
            found=ok,
            witness=p if ok else None,
            checked_degree_bound=maxdeg,
            checked_loop_window=window,
            verified=ok,
            notes="principal invariant ideal",
        )
    points = point_set_search(spec, dim_bound) if dim_bound else None
    if points is not None:
        ok = verify_point_set(spec, points)
        return WitnessReport(
            found=ok,
            quotient_cert=PointSetCert(spec.algebra.rank + 1, points) if ok else None,
            checked_degree_bound=maxdeg,
            checked_dim_bound=dim_bound,
            checked_loop_window=window,
            verified=ok,
            notes="finite-codimension invariant ideal I(Z); H-only, so T_tau^r "
                  "fixes it at every loop degree",
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
    more letter of enveloping-algebra filtration), up to max_word_len rounds.
    The span only grows, so the check returns True at the first insert after
    which it holds 1; the rest of that round could not change the verdict.
    The span takes each image's integer ``nums`` as its row.  The remainder
    of 1 is kept and reduced further only when a new pivot lands on its
    lowest key: a reduction stops at the first lowest key without a pivot,
    so a pivot on any other key leaves it as it is.
    False means "not within budget", never a proof of non-cyclicity.
    loop_window is accepted but unused: phase 2 uses degree-zero generators
    only.  A negative max_word_len is a DomainError.
    """
    if w.is_zero():
        raise DomainError("cyclicity seed must be nonzero")
    if max_word_len < 0:
        raise DomainError(f"max_word_len must be non-negative, got {max_word_len}")
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
                current = repmods.act(spec, _generator("h", 1, e_j), current) - (
                    hvar * current
                ).scale(spec.lam[j - 1])
                if current.is_zero():
                    raise StructureError("degree reduction annihilated the seed")
    degbound = current.total_degree() + max_word_len + 2
    gens = []
    zero = spec.algebra.zero_degree()
    for i in range(1, l + 1):
        gens += [_generator("x", i, zero), _generator("y", i, zero), _generator("h", i, zero)]
    span = Echelon()
    span.add(current.nums, integral=True)
    rest = span.reduce({0: 1}, integral=True)  # the remainder of the constant 1
    if not rest:
        return True
    low = min(rest)
    frontier = [current]
    for _ in range(max_word_len):
        new_frontier = []
        for vec in frontier:
            for gen in gens:
                img = repmods.act(spec, gen, vec)
                if img.is_zero() or img.total_degree() > degbound:
                    continue
                if span.add(img.nums, integral=True):
                    if low in span.pivots:
                        rest = span.reduce(rest, integral=True)
                        if not rest:
                            return True
                        low = min(rest)
                    new_frontier.append(img)
        if not new_frontier:
            return False
        frontier = new_frontier
    return False
