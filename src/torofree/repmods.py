"""The rank-1 Cartan-free modules and their actions on Q[H_1..H_l, d_1..d_n].

A ModuleSpec pins down one module:

* family A, rank l: base parameters a in (Q*)^l, b (a scalar, or a polynomial
  in the d-variables for the finite variant), and S a subset of {1..l+1};
* family C, rank l >= 2: base parameters a in (Q*)^l and S a subset of {1..l}
  (no b parameter; the C-family formulas carry fixed half-integer offsets);
* loop data: lambda in (Q*)^n for the loop directions, and for the witt/full
  variants the derivation parameter witt_a.

Cartan generators act by multiplication; x_i acts by (x_i . 1) * sigma_i,
y_i by (y_i . 1) * sigma_i^{-1}; loop degree a twists by lambda^a tau^a;
t^r K_j acts by zero; t^r d_i acts by lambda^r tau^r(.) * (d_i - r_i(a+1)).

Operator form.  The modules are free of rank 1 over U(h), so every
generator acts as one term f * T_u of the skew group ring
(``polyalg.ShiftOperator``): T_u is the shift p -> p.shift(u) of (H, d) and
f = lambda^r * (X . 1) is a polynomial.  The factors of x_i.1 and y_i.1 are
written in one place, ``factor_table``, as integers per (family, l, S).
``generator_operator`` builds each term once per (spec, generator) on
integers, from the numerators of X . 1 and lambda^r as a numerator and
denominator, keeps it in a bounded cache, and ``act`` applies it as
f * p.shift(u).  Terms compose in closed form,
(f T_u)(g T_v) = f * T_u(g) * T_(u+v), so the operator of a root vector is
the commutator of its generator word (``FiniteAlgebra.generator_word``),
built once per (spec, basis element, degree), and ``element_operator`` sums
them for any algebra element.  ``ShiftOperator.bracket`` forms each
commutator in one integer pass per pair of terms, f * T_u(g) - g * T_v(f)
over den(f) * den(g), rather than as two compositions and a difference.  Two
equal operators act equally on every polynomial, which is what lets
``verify`` prove an identity once instead of sampling it.  A black-box
action (any callable other than ``act``) has no operator form;
``act_element`` evaluates its generator words directly, each resolved once
per (algebra, basis symbol) to the same Generator objects that
``generators_for`` lists.

The simplicity rule and the isomorphism test read only a spec and its
x_i.1, y_i.1, so they are here too.  The Lie bracket (``liealg``) is loaded
only by ``generator_bracket``, on first use: a spec, its action and its
operators need just the algebra descriptor (``algebras``).

The C-family x_l / y_l polynomials below are the bracket-compatible reading
of an ambiguously grouped source; ``c_family_formula_notes`` renders the
resolved formulas, and the sp_4 compatibility suite is the arbiter.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .algebras import AlgebraDesc
from .errors import DomainError, Frozen, StructureError
from .polyalg import SLOT_BITS, Poly, ShiftOperator, _check_products, _mul_into, _nonzero

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing
if TYPE_CHECKING:
    from .liealg import LieElt

Rat = Fraction
_set = object.__setattr__  # writes a field past Frozen's immutability guard

# the largest rank and loop_vars a JSON spec may declare: the carrier and the
# algebra tables grow with both, so larger values are refused before any is built
MAX_RANK = 16
MAX_LOOP_VARS = 8
# the largest rank c_family_formula_notes renders: it lists the action of
# every one of the 2^l subsets S, which at rank 8 is about a second of work
MAX_FORMULA_RANK = 8

_GEN_RE = re.compile(r"^(x|y|h|K|D|d)(\d+)\s*(?:\(\s*(-?\d+(?:\s*,\s*-?\d+)*)?\s*\))?$")


class Generator(Frozen):
    """A graded generator symbol: kind in {x, y, h, K, D}, 1-based index, degree r."""

    __slots__ = ("kind", "index", "r", "_hash")
    _fields = __slots__[:-1]
    kind: str
    index: int
    r: tuple[int, ...]

    def __init__(self, kind: str, index: int, r: Sequence[int] = ()):
        if kind not in ("x", "y", "h", "K", "D"):
            raise StructureError(f"unknown generator kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "index", index)
        _set(self, "r", tuple(int(x) for x in r))
        _set(self, "_hash", None)

    # the operator caches and the black-box memo hash a generator on every call
    __hash__ = Frozen._cached_hash

    def text(self) -> str:
        deg = "(" + ",".join(str(x) for x in self.r) + ")" if self.r else ""
        return f"{self.kind}{self.index}{deg}"


@lru_cache(maxsize=1 << 16)
def _generator(kind: str, index: int, r: tuple[int, ...]) -> Generator:
    """The one Generator of (kind, index, r) that the operator words, the
    checks, the searches and recovery share, so a memo keyed by generators
    finds them by identity, without comparing fields.  The bound is far
    above the generators of any window a check can finish, so a word cached
    elsewhere keeps holding this cache's object; past it, equal generators
    still compare equal, field by field."""
    return Generator(kind, index, r)


def _literal_int(text: str) -> int:
    """int(text) for a digit string, a StructureError past Python's digit limit."""
    try:
        return int(text)
    except ValueError:
        raise StructureError(
            f"integer in a generator literal exceeds the {sys.get_int_max_str_digits()}-digit"
            " limit for integer string conversion"
        ) from None


def parse_generator(text: str, n: int) -> Generator:
    """Parse "x1(2,0)", "h2(1)", "K1(0)", "D1(2,1)", "d1", bare "x1"..."""
    m = _GEN_RE.match(text.strip())
    if not m:
        raise StructureError(f"bad generator literal {text!r}")
    kind, idx, deg = m.group(1), _literal_int(m.group(2)), m.group(3)
    if deg is None:
        r = (0,) * n
    else:
        r = tuple(_literal_int(x) for x in deg.split(","))
        if len(r) != n:
            raise StructureError(f"loop degree {deg!r} has wrong length (n={n})")
    if kind == "d":
        if any(r):
            raise StructureError("d<i> takes no loop degree; use D<i>(r)")
        kind = "D"
    return Generator(kind, idx, r)


class ModuleSpec(Frozen):
    """Full parameter record for one Cartan-free module."""

    __slots__ = ("algebra", "lam", "witt_a", "base_a", "base_b", "S", "_hash")
    _fields = __slots__[:-1]
    algebra: AlgebraDesc
    lam: tuple[Rat, ...]
    witt_a: Rat | None
    base_a: tuple[Rat, ...]
    base_b: Poly | None
    S: frozenset[int]

    def __init__(
        self,
        algebra: AlgebraDesc,
        lam: Sequence[Rat] = (),
        witt_a: Rat | None = None,
        base_a: Sequence[Rat] = (),
        base_b: Poly | Rat | None = None,
        S: Iterable[int] = frozenset(),
    ):
        _set(self, "algebra", algebra)
        alg = algebra
        l, n = self.ranks
        lam = tuple(Fraction(x) for x in lam)
        base_a = tuple(Fraction(x) for x in base_a)
        S = frozenset(int(s) for s in S)
        if alg.variant == "finite":
            if lam:
                raise StructureError("finite variant takes no lambda vector")
        else:
            if len(lam) != n:
                raise StructureError(f"lambda must have length n={n}")
            if any(x == 0 for x in lam):
                raise StructureError("lambda entries must be nonzero")
        if alg.variant in ("witt", "full"):
            if witt_a is None:
                raise StructureError(f"variant {alg.variant} requires witt_a")
            witt_a = Fraction(witt_a)
        elif witt_a is not None:
            raise StructureError(f"variant {alg.variant} takes no witt_a")
        if alg.variant == "witt":
            if base_a or S or (base_b is not None and base_b):
                raise StructureError("witt variant takes no base-module parameters")
            base_b = None
        else:
            if len(base_a) != l:
                raise StructureError(f"base_a must have length l={l}")
            if any(x == 0 for x in base_a):
                raise StructureError("base_a entries must be nonzero")
            b = base_b if base_b is not None else Poly.zero(l, n)
            if isinstance(b, (int, Fraction)):
                b = Poly.const(l, n, b)
            if b.ranks != (l, n):
                raise StructureError("base_b has wrong ranks")
            if any(key & ((1 << SLOT_BITS * l) - 1) for key in b.nums):  # the low slots are H's
                raise StructureError("base_b must have zero degree in every H-variable")
            if alg.family == "C" and not b.is_zero():
                raise StructureError("the C-family modules carry no b parameter")
            if alg.variant in ("toroidal", "full") and b.as_scalar() is None:
                raise StructureError("b must be a scalar for the toroidal/full variants")
            base_b = b
            smax = l + 1 if alg.family == "A" else l
            if not S <= set(range(1, smax + 1)):
                raise StructureError(f"S must be a subset of 1..{smax}")
        _set(self, "lam", lam)
        _set(self, "witt_a", witt_a)
        _set(self, "base_a", base_a)
        _set(self, "base_b", base_b)
        _set(self, "S", S)
        _set(self, "_hash", None)

    __hash__ = Frozen._cached_hash  # a key of the operator caches on every act call

    @property
    def ranks(self) -> tuple[int, int]:
        """Carrier polynomial ranks (l, n): H-variables and d-variables."""
        if self.algebra.variant == "witt":
            return (0, self.algebra.loop_vars)
        return (self.algebra.rank, self.algebra.loop_vars)

    def one(self) -> Poly:
        return Poly.const(*self.ranks, 1)

    def lam_pow(self, r: Sequence[int]) -> Rat:
        """lambda^r, a DomainError when a factor would have more digits than
        Python prints (sys.get_int_max_str_digits(); 0 means no limit)."""
        return Fraction(*lam_ratio(self.lam, r))


def lam_ratio(lam: Sequence[Rat], r: Sequence[int]) -> tuple[int, int]:
    """lambda^r for nonzero rationals lambda as an integer numerator and
    positive denominator, not always in lowest terms, with the DomainError
    of ``ModuleSpec.lam_pow``."""
    if not any(r):
        return 1, 1
    num = den = 1
    limit = sys.get_int_max_str_digits()
    for j, (lam_j, rj) in enumerate(zip(lam, r), 1):
        # lambda_j^{r_j} has floor(|r_j| log10 m) + 1 digits (none to
        # bound at m = 1, lambda_j = +-1); every m >= 2 passes the limit
        # by |r_j| = 4 * limit, and capping |r_j| there keeps the
        # product a float
        p, q = lam_j.numerator, lam_j.denominator
        if limit and min(abs(rj), 4 * limit) * math.log10(max(abs(p), q)) >= limit:
            raise DomainError(
                f"lambda_{j}^r_{j} exceeds the {limit}-digit limit"
                " for integer string conversion"
            )
        if rj < 0:
            p, q, rj = q, p, -rj
        num, den = num * p**rj, den * q**rj
    return (num, den) if den > 0 else (-num, -den)


# -- base action polynomials x_i.1 and y_i.1 ---------------------------------


@lru_cache(maxsize=256)
def factor_table(family: str, l: int, S: frozenset[int]) -> tuple[tuple[tuple, ...], ...]:
    """The linear factors of each x_i.1 and y_i.1 (unit scalars omitted) of
    the family-l modules with pattern S: the one place they are written.

    A factor (row, c0, cb, den) of integers, den > 0, is (row . H + c0) / den
    + cb * b, with a nonzero row over H_1..H_l (b carries no H), so x_i.1 and
    y_i.1 have H-degree equal to their factor counts.  The A-family factors
    are u_i - b - 1, v_i - b (x_i) and u_i - b, v_i - b - 1 (y_i), with u_i =
    H_i - H_(i-1) and v_i = H_(i+1) - H_i; the C family's are those of
    ``c_family_formula_notes``.
    """
    def e(*pairs):  # the row of sum c H_k over the pairs (k, c), H_0 = H_(l+1) = 0
        return tuple(sum(c for k, c in pairs if k == j) for j in range(1, l + 1))

    xs, ys = [], []
    top = l if family == "A" else l - 1
    for i in range(1, top + 1):
        if family == "A":
            u, v = e((i, 1), (i - 1, -1)), e((i + 1, 1), (i, -1))
            xu, xv, yu, yv = (u, -1, -1, 1), (v, 0, -1, 1), (u, 0, -1, 1), (v, -1, -1, 1)
        else:  # 2 u_k and 2 B_k
            u, B = e((i, 2), (i - 1, -2)), e((i + 1, 4 if i == l - 1 else 2), (i, -2))
            xu, xv, yu, yv = (u, -1, 0, 2), (B, 1, 0, 2), (u, 1, 0, 2), (B, -1, 0, 2)
        xs.append(((xu,) if i not in S else ()) + ((xv,) if i + 1 in S else ()))
        ys.append(((yu,) if i in S else ()) + ((yv,) if i + 1 not in S else ()))
    if family == "C":  # 4 A
        A = e((l, 4), (l - 1, -2))
        xs.append(() if l in S else ((A, -3, 0, 4), (A, -1, 0, 4)))
        ys.append(((A, 3, 0, 4), (A, 1, 0, 4)) if l in S else ())
    return tuple(xs), tuple(ys)


def _instances(spec: ModuleSpec) -> tuple[tuple[tuple, ...], ...]:
    """The factors of ``factor_table`` at the spec's b, per x_i.1 then per
    y_i.1: (D, row, c), the reduced integer form (row . H + c) / D, at a
    scalar b = p / q, and the polynomial where a non-scalar b enters.
    ``base_action_factor_lists``, ``affine_factors`` and ``base_action_polys``
    read them."""
    alg = spec.algebra
    if alg.variant == "witt":
        return (), ()
    return _factor_instances(alg.family, alg.rank, spec.S, spec.base_b)


@lru_cache(maxsize=256)
def _factor_instances(family: str, l: int, S: frozenset[int], b: Poly) -> tuple:
    """``_instances``, built once per (family, l, S, b): a key that hashes
    no Fraction, so a spec that is only instantiated, as recovery's trial
    specs are, is never hashed."""
    scalar = b.as_scalar()
    p, q = (scalar.numerator, scalar.denominator) if scalar is not None else (0, 1)
    out = []
    for side in factor_table(family, l, S):
        instances = []
        for fs in side:
            forms = []
            for row, c0, cb, den in fs:
                c, D = c0 * q + cb * p * den, den * q
                if q != 1:
                    row = tuple(x * q for x in row)
                g = math.gcd(D, c, *row)
                if g != 1:
                    D, row, c = D // g, tuple(x // g for x in row), c // g
                forms.append((D, row, c) if scalar is not None or not cb
                             else _poly(b.ranks, (D, row, c)) + b.scale(cb))
            instances.append(tuple(forms))
        out.append(tuple(instances))
    return tuple(out)


def _poly(ranks: tuple[int, int], form) -> Poly:
    """The polynomial of one factor of ``_instances``, in ``ranks`` = (l, n)."""
    if form.__class__ is Poly:
        return form
    return Poly._raw(*ranks, form[0], form_nums(form)[0])


def form_nums(form) -> tuple[dict[int, int], int]:
    """One factor of ``_instances`` as its integer numerators and denominator."""
    if form.__class__ is Poly:
        return form.nums, form.den
    D, row, c = form
    nums = {1 << SLOT_BITS * k: x for k, x in enumerate(row) if x}
    if c:
        nums[0] = c
    return nums, D


def form_product(family: str, l: int, i: int, forms: tuple) -> tuple[dict[int, int], int]:
    """x_i.1 or y_i.1 at unit a on integers: the ``factor_sign`` times the
    product, in order, of its factors ``forms`` of ``_instances``, as
    (numerators without zeros, denominator), not reduced.  A factor that
    carries d (a non-scalar b) is multiplied only after ``_check_products``;
    the H-only factors, at most two per slot, cannot spill one."""
    nums, den = {0: factor_sign(family, l, i, forms)}, 1
    for form in forms:
        f_nums, f_den = form_nums(form)
        if form.__class__ is Poly:
            _check_products(nums, f_nums, form.l + form.n)
        out: dict[int, int] = {}
        _mul_into(out, nums, f_nums)
        nums, den = _nonzero(out), den * f_den
    return nums, den


@lru_cache(maxsize=256)
def base_action_factor_lists(spec: ModuleSpec) -> tuple[tuple[tuple[Poly, ...], ...], ...]:
    """The factors of ``factor_table`` at the spec's b as polynomials, in tuples."""
    ranks = spec.ranks
    return tuple(tuple(tuple(_poly(ranks, f) for f in fs) for fs in side)
                 for side in _instances(spec))


@lru_cache(maxsize=256)
def affine_factors(spec: ModuleSpec) -> tuple[tuple[tuple, ...], ...]:
    """``factor_table`` at the spec's b with each factor f as (row, c): the
    integer numerators of its coefficients of H_1..H_l and of its constant,
    so f is row . H + c up to a unit.  A factor that carries d (a non-scalar
    b) is None: it stays outside the H-only contract of the witness searches."""
    return tuple(tuple(tuple([None if f.__class__ is Poly else f[1:] for f in fs]) for fs in side)
                 for side in _instances(spec))


def factor_sign(family: str, l: int, i: int, factors: tuple) -> int:
    """The sign of x_i.1 or y_i.1 at unit a over the product of its factors
    (``factors``, the ``factor_table`` list or its instances; only whether
    it is empty matters): -1 for the C_l quadratic -(A -+ 3/4)(A -+ 1/4) of
    slot l, else 1."""
    return -1 if family == "C" and i == l and factors else 1


def factor_counts(family: str, l: int, S: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The number of linear factors of each x_i.1 and of each y_i.1 of the
    family-l modules with pattern S (len() of the ``factor_table`` lists)."""
    return tuple(tuple(map(len, side)) for side in factor_table(family, l, frozenset(S)))


def base_action_polys(spec: ModuleSpec) -> tuple[list[Poly], list[Poly]]:
    """([x_1.1, .., x_l.1], [y_1.1, .., y_l.1]) for the finite part: a_i (for
    x_i) or 1/a_i (for y_i) times the ``form_product`` of its factors."""
    xs_f, ys_f = _instances(spec)
    l, n = spec.ranks
    family = spec.algebra.family
    xs: list[Poly] = []
    ys: list[Poly] = []
    for i, a in enumerate(spec.base_a, start=1):
        for out, forms, num, den in ((xs, xs_f[i - 1], a.numerator, a.denominator),
                                     (ys, ys_f[i - 1], a.denominator, a.numerator)):
            nums, f_den = form_product(family, l, i, forms)
            if den < 0:
                num, den = -num, -den
            out.append(Poly._reduced(l, n, f_den * den, {k: num * v for k, v in nums.items()}))
    return xs, ys


@lru_cache(maxsize=256)
def _base(spec: ModuleSpec) -> tuple[list[Poly], list[Poly]]:
    return base_action_polys(spec)


# -- simplicity rule and isomorphism ------------------------------------------


def simplicity_rule(spec: ModuleSpec) -> tuple[bool, str]:
    """(simple, reason) for the module, read off its parameters.

    A-family rule: write FULL = {1..l+1}.  The module is non-simple iff S is
    an edge pattern (empty or FULL) and the integrality test holds for the
    pattern's effective parameter:

        S = FULL : (l+1) * b        is a non-negative integer
        S = {}   : (l+1) * (-b - 1) is a non-negative integer

    The two patterns are exchanged by the diagram flip (for l = 1 the
    modules M(a, b, FULL) and M(-a, -b-1, {}) are literally equal), which is
    why a single unsigned reading of the integrality test cannot serve both;
    the witness search (``search``) arbitrates every grid point
    independently.  C-family modules are always simple.  A Witt-variant
    module is simple iff witt_a != -1 (at witt_a = -1 the ideal generated by
    the d-variables is invariant).  The toroidal/full variants inherit the
    answer of the finite part: a base witness p works verbatim for the lift
    because sigma/tau twists fix H-only polynomials up to the recorded
    shifts.
    """
    alg = spec.algebra
    if alg.variant == "witt":
        simple = spec.witt_a != -1
        return simple, "Witt module simple iff a != -1"
    if alg.variant == "finite" and alg.loop_vars:
        # x, y and h shift no d-variable and D_j multiplies by d_j, so every
        # generator maps (d_1) into itself, whatever b in Q[d] is
        return False, "finite variant with loop variables: (d1) is a proper invariant ideal"
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


def iso_test(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism of two modules over the same algebra shape.

    An isomorphism of rank-1 U(h)-free modules commutes with multiplication
    by h, so it is multiplication by a unit of the carrier, a nonzero scalar.
    Two modules are therefore isomorphic exactly when they act identically:
    equal lambda, equal witt_a and equal x_i.1, y_i.1.  Different parameters can give the same action
    (at l = 1, M(a, b, FULL) = M(-a, -b-1, {}), and b <-> -b-1 for mixed S).
    """
    shape = [(a.family, a.rank, a.loop_vars, a.variant) for a in (s1.algebra, s2.algebra)]
    if shape[0] != shape[1]:
        raise DomainError("isomorphism test requires matching algebra shapes")
    return (s1.lam == s2.lam and s1.witt_a == s2.witt_a
            and base_action_polys(s1) == base_action_polys(s2))


def c_family_formula_notes(l: int) -> str:
    """Render the resolved C_l action polynomials (audit trail for the fix)."""
    if l > MAX_FORMULA_RANK:
        raise StructureError(
            f"formulas list all 2^l subsets S: rank must be at most {MAX_FORMULA_RANK}, got {l}"
        )
    desc = AlgebraDesc("C", l)
    lines = [
        f"Resolved C_{l} generator action polynomials (b = 0 throughout).",
        "Notation: u_k = H_k - H_(k-1) with H_0 = 0,",
        "          B_k = (1 + [k = l-1]) * H_(k+1) - H_k,",
        "          A   = H_l - (1/2) H_(l-1).",
        "",
        "For k < l:",
        "  x_k . g = a_k * {1 if k in S else (u_k - 1/2)}",
        "                * {(B_k + 1/2) if k+1 in S else 1} * sigma_k(g)",
        "  y_k . g = (1/a_k) * {(u_k + 1/2) if k in S else 1}",
        "                * {1 if k+1 in S else (B_k - 1/2)} * sigma_k^(-1)(g)",
        "",
        "For k = l:",
        "  x_l . g = a_l * {1 if l in S else -(A - 3/4)(A - 1/4)} * sigma_l(g)",
        "  y_l . g = (1/a_l) * {-(A + 3/4)(A + 1/4) if l in S else 1}"
        " * sigma_l^(-1)(g)",
        "",
        "Resolution notes (mechanically arbitrated by the sp_4 bracket-",
        "compatibility suite, which passes exactly with these readings):",
        "  * the in-branch constant of y_k is +1/2 (a printed -1/2 is",
        "    inconsistent: the four S-pattern constants must satisfy",
        "    p' = q = p + 1 and q' = p for [x_k, y_k] = h_k to hold);",
        "  * the x_l out-branch groups as (A - 3/4)(A - 1/4), mirroring the",
        "    well-formed y_l branch; any pair of constants summing to -1",
        "    satisfies the diagonal relation, and the cross relations with",
        "    x_(l-1), y_(l-1) pin the product form;",
        "  * the stray b in the printed x_k line is 0: these modules have",
        "    no b parameter, and two other printed constants force b = 0.",
        "",
        f"Concrete sp_{2 * l} values with a = ({', '.join(['1'] * l)}):",
    ]
    for S in (tuple(i + 1 for i in range(l) if mask >> i & 1) for mask in range(1 << l)):
        spec = ModuleSpec(algebra=desc, base_a=(Fraction(1),) * l, S=S)
        xs, ys = base_action_polys(spec)
        sname = "{" + ",".join(str(s) for s in sorted(S)) + "}"
        for k in range(1, l + 1):
            lines.append(f"  S={sname or '{}'}: x_{k}.1 = {xs[k - 1].text()}")
            lines.append(f"  S={sname or '{}'}: y_{k}.1 = {ys[k - 1].text()}")
    return "\n".join(lines) + "\n"


# -- the action --------------------------------------------------------------


ActionFn = Callable[[ModuleSpec, Generator, Poly], Poly]


@lru_cache(maxsize=256)
def generator_operator(spec: ModuleSpec, gen: Generator) -> ShiftOperator:
    """The action of one graded generator as a shift operator f * T_u.

    The center acts by the zero operator; every other generator is a single
    term: h_i(r) is lambda^r H_i T_tau^r, x_i(r) is lambda^r (x_i.1)
    T_sigma_i tau^r, y_i(r) is lambda^r (y_i.1) T_sigma_i^-1 tau^r, and
    t^r d_j is lambda^r (d_j - r_j(a+1)) T_tau^r, with sigma_i^(+-1) and
    tau^r the shift vectors (+-e_i, 0) and (0, r).  An invalid generator
    raises here, whatever polynomial it would act on.
    """
    l, n = spec.ranks
    variant = spec.algebra.variant
    r = gen.r if gen.r else (0,) * n
    if len(r) != n:
        raise StructureError(f"generator degree {gen.r} has wrong length (n={n})")
    if variant == "finite" and any(r):
        raise DomainError("finite variant generators carry no loop degree")
    u = (0,) * l + r
    num, den = lam_ratio(spec.lam, r)
    if gen.kind == "K":
        if variant not in ("toroidal", "full"):
            raise DomainError(f"variant {variant} has no central generators")
        if not 1 <= gen.index <= n:
            raise StructureError("central index out of range")
        return ShiftOperator(l, n)
    if gen.kind == "D":
        if not 1 <= gen.index <= n:
            raise StructureError("derivation index out of range")
        d_j = 1 << SLOT_BITS * (l + gen.index - 1)
        if variant in ("finite", "toroidal") and any(r):
            raise DomainError(f"variant {variant} has degree-zero derivations only")
        c = r[gen.index - 1] * (spec.witt_a + 1) if variant in ("witt", "full") else 0
        f = Poly._raw(l, n, c.denominator, {d_j: c.denominator, 0: -c.numerator} if c else {d_j: 1})
    elif variant == "witt":
        raise DomainError("witt variant has derivation generators only")
    elif not 1 <= gen.index <= l:
        raise StructureError("generator index out of range")
    elif gen.kind == "h":
        f = Poly._raw(l, n, 1, {1 << SLOT_BITS * (gen.index - 1): 1})
    else:  # sigma_i^{+-1} and tau^r move disjoint variables: one shift does both
        i, y = gen.index - 1, gen.kind == "y"
        u, f = u[:i] + (-1 if y else 1,) + u[i + 1:], _base(spec)[y][i]
    return ShiftOperator._term(u, f._times(num, den))  # lambda^r f T_u


def act(spec: ModuleSpec, gen: Generator, p: Poly) -> Poly:
    """Action of one graded generator on a carrier polynomial: f * p.shift(u)."""
    return generator_operator(spec, gen).apply(p)


# -- arbitrary elements ------------------------------------------------------


def _fold_word(word: tuple, r: tuple, letter: Callable, commutator: Callable):
    """Evaluate a generator word of ``FiniteAlgebra.generator_word``: each
    letter through ``letter(Generator)``, each bracket through
    ``commutator(left, right)``; the loop degree r sits on the leftmost letter."""
    if word[0] != "br":
        return letter(_generator(word[0], word[1], r))
    _, left, right = word
    zero = (0,) * len(r)
    return commutator(
        _fold_word(left, r, letter, commutator), _fold_word(right, zero, letter, commutator)
    )


@lru_cache(maxsize=256)
def _root_operator(spec: ModuleSpec, m: int, r: tuple) -> ShiftOperator:
    """The operator of the finite basis element m at loop degree r."""
    word, scalar = spec.algebra.fin.generator_word(m)
    op = _fold_word(
        word, r, lambda g: generator_operator(spec, g), ShiftOperator.bracket
    )
    return op.scale(1 / scalar)


def element_operator(spec: ModuleSpec, X: LieElt) -> ShiftOperator:
    """The action of an arbitrary algebra element as one shift operator."""
    if X.desc is not spec.algebra and X.desc != spec.algebra:
        raise StructureError("element belongs to a different algebra")
    out = None
    for (kind, idx, r), c in X.terms.items():
        if kind in ("K", "D"):
            op = generator_operator(spec, _generator(kind, idx, r))
        else:
            op = _root_operator(spec, idx, r)
        if c != 1:
            op = op.scale(c)
        out = op if out is None else out + op
    return ShiftOperator(*spec.ranks) if out is None else out


def act_element(spec: ModuleSpec, X: LieElt, p: Poly, action: ActionFn = act) -> Poly:
    """Action of an arbitrary algebra element.

    With the module's own action (``act``, looked up at call time) this
    applies ``element_operator``.  Any other ``action`` is a black box: each
    root vector is evaluated through its fixed generator word and every
    symbol, central ones included, goes through ``action``, so a corrupted
    generator action is seen wherever the element uses it.
    """
    if action is act:
        return element_operator(spec, X).apply(p)
    if X.desc is not spec.algebra and X.desc != spec.algebra:
        raise StructureError("element belongs to a different algebra")

    def evaluate(word, q):
        if word.__class__ is Generator:
            return action(spec, word, q)
        left, right = word
        return evaluate(left, evaluate(right, q)) - evaluate(right, evaluate(left, q))

    out = None
    for sym, c in X.terms.items():
        word, scalar = _symbol_word(X.desc, sym)
        term = evaluate(word, p).scale(c / scalar)
        out = term if out is None else out + term
    return Poly.zero(*spec.ranks) if out is None else out


@lru_cache(maxsize=1024)
def _symbol_word(desc: AlgebraDesc, sym: tuple) -> tuple:
    """(word, scalar) with the basis symbol ``sym`` equal to word / scalar: a
    central or derivation symbol is its own Generator, a root vector its
    ``generator_word`` as nested (left, right) commutator pairs of
    Generators.  Made once per (desc, symbol), so a black-box element builds
    no Generator per evaluation."""
    kind, idx, r = sym
    if kind in ("K", "D"):
        return _generator(kind, idx, r), Fraction(1)
    word, scalar = desc.fin.generator_word(idx)
    return _fold_word(word, r, lambda g: g, lambda a, b: (a, b)), scalar


def act_word(spec: ModuleSpec, word: Iterable[Generator], p: Poly) -> Poly:
    """Right-to-left composition of generator actions (empty word = identity)."""
    gens = list(word)
    out = p
    for gen in reversed(gens):
        out = act(spec, gen, out)
    return out


def generators_for(spec: ModuleSpec, window: Iterable[tuple[int, ...]]) -> list[Generator]:
    """Every generator symbol of the algebra with loop degree in the window."""
    l, n = spec.algebra.rank, spec.algebra.loop_vars
    variant = spec.algebra.variant
    degrees = [tuple(r) for r in window]
    gen = _generator
    out: list[Generator] = []
    if variant == "finite":
        for i in range(1, l + 1):
            out += [gen("x", i, ()), gen("y", i, ()), gen("h", i, ())]
        for j in range(1, n + 1):
            out.append(gen("D", j, ()))
        return out
    zero = (0,) * n
    if variant != "witt":
        for r in degrees:
            for i in range(1, l + 1):
                out += [gen("x", i, r), gen("y", i, r), gen("h", i, r)]
        for r in degrees:
            for j in range(1, n + 1):
                out.append(gen("K", j, r))
    if variant == "toroidal":
        for j in range(1, n + 1):
            out.append(gen("D", j, zero))
    else:
        for r in degrees:
            for j in range(1, n + 1):
                out.append(gen("D", j, r))
    return out


# the Lie bracket module, imported by the first generator_bracket or _as_elt,
# so that a spec, its action and its operators load no bracket
liealg = None


def _lie():
    global liealg
    if liealg is None:
        from . import liealg
    return liealg


def generator_bracket(spec: ModuleSpec, g1: Generator, g2: Generator) -> LieElt:
    """The Lie bracket [g1, g2] as an element of the algebra."""
    lie = liealg or _lie()
    return lie.bracket(spec.algebra, _as_elt(spec.algebra, g1), _as_elt(spec.algebra, g2))


@lru_cache(maxsize=1024)
def _as_elt(desc: AlgebraDesc, g: Generator) -> LieElt:
    """The element of one generator symbol, made once per (desc, generator)."""
    lie = _lie()
    r = g.r if desc.variant != "finite" else ()
    if g.kind == "x":
        return lie.chevalley_x(desc, g.index, r)
    if g.kind == "y":
        return lie.chevalley_y(desc, g.index, r)
    if g.kind == "h":
        return lie.cartan_h(desc, g.index, r)
    if g.kind == "K":
        return lie.central_k(desc, g.index, r)
    sym = ("D", g.index, r if desc.variant != "finite" else ())
    return lie.elt(desc, sym)


# -- JSON serialization ------------------------------------------------------


def _rat_str(x: Rat) -> str:
    return str(Fraction(x))


def _rat_from(v) -> Rat:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise StructureError(f"cannot read rational from {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise StructureError(f"cannot read rational from {v!r}") from None


def _int_from(v, what: str) -> int:
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise StructureError(f"{what} must be an integer, got {v!r}")
    try:
        return int(v)
    except ValueError:
        raise StructureError(f"{what} must be an integer, got {v!r}") from None


def _bounded_int(v, what: str, cap: int) -> int:
    out = _int_from(v, what)
    if out > cap:
        raise StructureError(f"{what} must be at most {cap}, got {out}")
    return out


def _list_from(data: dict, key: str) -> list:
    v = data.get(key, [])
    if not isinstance(v, list):
        raise StructureError(f"{key!r} must be a list, got {v!r}")
    return v


def spec_to_json(spec: ModuleSpec) -> dict:
    alg = spec.algebra
    out: dict = {
        "algebra": {
            "family": alg.family,
            "rank": alg.rank,
            "loop_vars": alg.loop_vars,
            "variant": alg.variant,
        }
    }
    if alg.variant == "full":
        out["algebra"]["cocycle"] = [
            int(c) if c.denominator == 1 else _rat_str(c) for c in alg.cocycle
        ]
    if alg.variant != "finite":
        out["lambda"] = [_rat_str(x) for x in spec.lam]
    if spec.witt_a is not None:
        out["witt_a"] = _rat_str(spec.witt_a)
    if alg.variant != "witt":
        out["base_a"] = [_rat_str(x) for x in spec.base_a]
        out["base_b"] = spec.base_b.text()
        out["S"] = sorted(spec.S)
    return out


def spec_from_json(data: dict) -> ModuleSpec:
    """Inverse of spec_to_json; every malformed field is a StructureError."""
    if not isinstance(data, dict) or not isinstance(data.get("algebra"), dict):
        raise StructureError("spec JSON must be an object with an 'algebra' object")
    a = data["algebra"]
    for key in ("family", "rank", "variant"):
        if key not in a:
            raise StructureError(f"algebra description is missing {key!r}")
    for key in ("family", "variant"):
        if not isinstance(a[key], str):
            raise StructureError(f"algebra {key} must be a string, got {a[key]!r}")
    cocycle = a.get("cocycle", [0, 0])
    if not isinstance(cocycle, (list, tuple)) or len(cocycle) != 2:
        raise StructureError("cocycle must be a pair")
    desc = AlgebraDesc(
        family=a["family"],
        rank=_bounded_int(a["rank"], "rank", MAX_RANK),
        loop_vars=_bounded_int(a.get("loop_vars", 0), "loop_vars", MAX_LOOP_VARS),
        variant=a["variant"],
        cocycle=(_rat_from(cocycle[0]), _rat_from(cocycle[1])),
    )
    lam = tuple(_rat_from(x) for x in _list_from(data, "lambda"))
    witt_a = data.get("witt_a")
    if witt_a is not None:
        witt_a = _rat_from(witt_a)
    if desc.variant == "witt":
        return ModuleSpec(algebra=desc, lam=lam, witt_a=witt_a)
    l, n = (desc.rank, desc.loop_vars)
    base_a = tuple(_rat_from(x) for x in _list_from(data, "base_a"))
    raw_b = data.get("base_b", "0")
    if isinstance(raw_b, (int, str)) and not isinstance(raw_b, bool):
        b_text = str(raw_b)
    else:
        raise StructureError("base_b must be a polynomial string")
    base_b = Poly.parse(b_text, l, n)
    S = frozenset(_int_from(s, "S entry") for s in _list_from(data, "S"))
    return ModuleSpec(
        algebra=desc, lam=lam, witt_a=witt_a, base_a=base_a, base_b=base_b, S=S
    )
