"""Graded elements of the finite, toroidal, Witt and full toroidal Lie
algebras, with the exact bracket.

Which algebra an element lives in is an ``AlgebraDesc``, defined with the
finite-type realizations in ``algebras``.

Loop/toroidal elements are rational combinations of graded symbols

    ("f", m, r)   basis element m of g at loop degree r in Z^n
    ("K", j, r)   central symbol t^r K_j, reduced modulo dA
    ("D", i, r)   derivation t^r d_i (general D(u, r) = sum_i u_i ("D", i, r))

The center is the quotient Omega_A / dA: for every r != 0 the relation
sum_j r_j K_j(r) = 0 holds; canonical form eliminates K_{j*}(r) where j* is
the smallest index with r_{j*} != 0.

Brackets: structure constants of the finite part, read from a table that
each FiniteAlgebra builds once, on first use, by integer arithmetic on its
matrix realization; the toroidal central term (x,y) * sum_i r_i K_i(r+s)
with (.,.) the trace form of the defining matrix realization (not the
Killing form; the two differ by a scalar that only rescales the K_j, and
the modules kill the center anyway); the Witt bracket
[D(u,r), D(v,s)] = D((u,s)v - (v,r)u, r+s); the derivation action on the
center; and, in the full variant, the 2-cocycle c1*phi1 + c2*phi2.
Coefficients are ints where they are integral and Fractions otherwise.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import add

from .algebras import (
    AlgebraDesc,
    FiniteAlgebra,
    Rat,
    _exact,
    finite_algebra,  # unused here: the benchmark traces it as ``liealg.finite_algebra``
    window_degrees,
)
from .errors import DomainError, StructureError

Symbol = tuple  # ("f", m, r) | ("K", j, r) | ("D", i, r)


# -- graded elements ---------------------------------------------------------


class LieElt:
    """Rational linear combination of graded basis symbols, canonical mod dA.

    ``terms`` maps canonical symbols to nonzero coefficients.  The
    constructor validates every symbol and reduces it modulo dA; results of
    the algebra's own operations, canonical by construction, come through
    ``_raw`` without that pass.
    """

    __slots__ = ("desc", "terms")

    def __init__(self, desc: AlgebraDesc, terms: dict[Symbol, Rat] | None = None):
        clean: dict[Symbol, Rat] = {}
        if terms:
            for sym, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                for rsym, rc in _canon_symbol(desc, sym):
                    v = clean.get(rsym, 0) + c * rc
                    if v:
                        clean[rsym] = v
                    else:
                        clean.pop(rsym, None)
        _set_desc(self, desc)
        _set_terms(self, {s: c.numerator if c.denominator == 1 else c for s, c in clean.items()})

    @staticmethod
    def _raw(desc: AlgebraDesc, terms: dict[Symbol, Rat]) -> "LieElt":
        """Trusted constructor: terms are canonical symbols with nonzero coefficients."""
        self = _new_object(LieElt)
        _set_desc(self, desc)
        _set_terms(self, terms)
        return self

    def __setattr__(self, *_):
        raise AttributeError("LieElt is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElt)
            and self.desc == other.desc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.desc, frozenset(self.terms.items())))

    def __add__(self, other: "LieElt") -> "LieElt":
        if self.desc is not other.desc and self.desc != other.desc:
            raise StructureError("cannot add elements of different algebras")
        return LieElt._raw(self.desc, add_terms(self.terms, other.terms))

    def __sub__(self, other: "LieElt") -> "LieElt":
        return self + other.scale(-1)

    def scale(self, c) -> "LieElt":
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        if not c:
            return LieElt._raw(self.desc, {})
        return LieElt._raw(self.desc, {s: c * k for s, k in self.terms.items()})

    def __repr__(self):
        return f"LieElt({self.text()})"

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for sym in sorted(self.terms, key=_symbol_sort_key):
            c = self.terms[sym]
            body = symbol_text(self.desc, sym)
            mag = abs(c)
            piece = body if mag == 1 else f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if c > 0 else "-" + piece)
            else:
                chunks.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(chunks)


def add_terms(first: dict[Symbol, Rat], *rest: dict[Symbol, Rat]) -> dict[Symbol, Rat]:
    """The term maps added symbol by symbol into a copy of ``first``; a sum
    that reaches zero drops its symbol."""
    out = dict(first)
    for terms in rest:
        for sym, c in terms.items():
            v = out.get(sym, 0) + c
            if v:
                out[sym] = v
            else:
                del out[sym]
    return out


# the slot setters, which bypass the immutability guard of __setattr__
_new_object = object.__new__
_set_desc = LieElt.desc.__set__
_set_terms = LieElt.terms.__set__


def _symbol_sort_key(sym: Symbol):
    kind = {"f": 0, "K": 1, "D": 2}[sym[0]]
    return (kind, sym[1], sym[2])


def symbol_text(desc: AlgebraDesc, sym: Symbol) -> str:
    kind, idx, r = sym
    deg = "(" + ",".join(str(x) for x in r) + ")" if r else ""
    if kind == "K":
        return f"K{idx}{deg}"
    if kind == "D":
        return f"D{idx}{deg}"
    fin = desc.fin
    for i, j in fin.x_index.items():
        if j == idx:
            return f"x{i}{deg}"
    for i, j in fin.y_index.items():
        if j == idx:
            return f"y{i}{deg}"
    return f"{fin.labels[idx]}{deg}"


def _canon_symbol(desc: AlgebraDesc, sym: Symbol) -> tuple[tuple[Symbol, Rat], ...]:
    """Validate a symbol for the variant and reduce central symbols mod dA."""
    kind, idx, r = sym
    n = desc.loop_vars
    variant = desc.variant
    if kind not in ("f", "K", "D"):
        raise StructureError(f"unknown symbol kind {kind!r}")
    r = tuple(int(x) for x in r)
    if variant == "finite":
        if r != ():
            raise StructureError("finite variant carries no loop degree")
        if kind == "K":
            raise StructureError("finite variant has no central symbols")
        if kind == "D" and not 1 <= idx <= n:
            raise StructureError(f"z-element index {idx} out of range")
    else:
        if len(r) != n:
            raise StructureError(f"loop degree {r} has wrong length (n={n})")
    if kind == "f":
        if variant == "witt":
            raise DomainError("witt variant has no finite part")
        if not 0 <= idx < desc.fin.dim:
            raise StructureError(f"finite basis index {idx} out of range")
        return (((kind, idx, r), 1),)
    if kind == "K":
        if variant not in ("toroidal", "full"):
            raise DomainError(f"variant {variant} has no central symbols")
        if not 1 <= idx <= n:
            raise StructureError(f"central index {idx} out of range")
        return _central_terms(idx, r)
    # kind == "D"
    if variant == "toroidal" and any(r):
        raise DomainError("toroidal variant has degree-zero derivations only")
    if variant != "finite" and not 1 <= idx <= n:
        raise StructureError(f"derivation index {idx} out of range")
    return (((kind, idx, r), 1),)


@lru_cache(maxsize=4096)
def _central_terms(j: int, r: tuple[int, ...]) -> tuple[tuple[Symbol, Rat], ...]:
    """K_j(r) in canonical form: K_{j*}(r) = -sum_{p != j*} (r_p / r_{j*}) K_p(r),
    with j* the first index where r is nonzero."""
    jstar = next((p for p, x in enumerate(r, 1) if x), None)
    if j != jstar:
        return ((("K", j, r), 1),)
    return tuple(
        (("K", p, r), _exact(-x, r[jstar - 1]))
        for p, x in enumerate(r, 1)
        if x and p != jstar
    )


# element constructors


def elt(desc: AlgebraDesc, sym: Symbol, coeff=1) -> LieElt:
    return LieElt(desc, {sym: Fraction(coeff)})


def chevalley_x(desc: AlgebraDesc, i: int, r: Sequence[int] = ()) -> LieElt:
    return elt(desc, ("f", desc.fin.x_index[i], _deg(desc, r)))


def chevalley_y(desc: AlgebraDesc, i: int, r: Sequence[int] = ()) -> LieElt:
    return elt(desc, ("f", desc.fin.y_index[i], _deg(desc, r)))


def cartan_h(desc: AlgebraDesc, i: int, r: Sequence[int] = ()) -> LieElt:
    return elt(desc, ("f", desc.fin.h_index[i], _deg(desc, r)))


def central_k(desc: AlgebraDesc, j: int, r: Sequence[int] = ()) -> LieElt:
    return elt(desc, ("K", j, _deg(desc, r)))


def derivation(desc: AlgebraDesc, u: Sequence, r: Sequence[int] = ()) -> LieElt:
    """D(u, r) = sum_i u_i t^r d_i."""
    deg = _deg(desc, r)
    return LieElt(
        desc,
        {("D", i + 1, deg): Fraction(c) for i, c in enumerate(u) if Fraction(c) != 0},
    )


def coroot(desc: AlgebraDesc, i: int, r: Sequence[int] = ()) -> LieElt:
    deg = _deg(desc, r)
    return LieElt(
        desc, {("f", m, deg): c for m, c in desc.fin.coroot_coords(i).items()}
    )


def _deg(desc: AlgebraDesc, r: Sequence[int]) -> tuple[int, ...]:
    if desc.variant == "finite":
        if r and any(r):
            raise StructureError("finite variant carries no loop degree")
        return ()
    r = tuple(int(x) for x in r)
    if not r:
        return desc.zero_degree()
    return r


# -- the bracket -------------------------------------------------------------
#
# Each pair of symbols adds its bracket into one accumulator ``out`` with
# the product of the two coefficients; central symbols are reduced modulo
# dA as they are added, so the result is canonical once its zeros are gone.


def bracket(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> LieElt:
    """Bilinear bracket, canonical modulo dA."""
    if not (X.terms and Y.terms):
        return LieElt._raw(desc, {})
    variant = desc.variant
    fin = None if variant == "witt" else desc.fin
    central = variant in ("toroidal", "full")
    out: dict[Symbol, Rat] = {}
    for s1, a in X.terms.items():
        k1 = s1[0]
        for s2, b in Y.terms.items():
            k2 = s2[0]
            if k1 == "f" and k2 == "f":
                _loop_loop(fin, central, out, s1, s2, a * b)
            elif k1 == "K" or k2 == "K":
                if k1 == "D":
                    _der_central(out, s1, s2, a * b)
                elif k2 == "D":
                    _der_central(out, s2, s1, -a * b)
            elif variant == "finite":
                continue  # z-elements are central in the trivial extension
            elif k1 == "D" and k2 == "D":
                _witt_into(out, s1, s2, a * b)
                if variant == "full":
                    _cocycle_into(out, _algebra_cocycle(desc), s1, s2, a * b)
            elif k1 == "D":
                _der_loop(out, s1, s2, a * b)
            else:
                _der_loop(out, s2, s1, -a * b)
    return LieElt._raw(desc, {s: c for s, c in out.items() if c})


def _add_central(out: dict[Symbol, Rat], j: int, deg: tuple, c: Rat) -> None:
    for sym, k in _central_terms(j, deg):
        out[sym] = out.get(sym, 0) + c * k


def _loop_loop(fin: FiniteAlgebra, central: bool, out: dict, s1: Symbol, s2: Symbol,
               c: Rat) -> None:
    """[x(r), y(s)] = [x, y](r + s) + (x, y) sum_i r_i K_i(r + s)."""
    _, m1, r = s1
    _, m2, s = s2
    deg = tuple(map(add, r, s))
    for m, k in fin.table[m1][m2]:
        sym = ("f", m, deg)
        out[sym] = out.get(sym, 0) + c * k
    if central:
        pairing = fin.forms[m1][m2]
        if pairing:
            for i, ri in enumerate(r, 1):
                if ri:
                    _add_central(out, i, deg, c * pairing * ri)


def _der_loop(out: dict, sd: Symbol, sf: Symbol, c: Rat) -> None:
    """[D_i(r), x(s)] = s_i x(r + s)."""
    _, i, r = sd
    _, m, s = sf
    if s[i - 1]:
        sym = ("f", m, tuple(map(add, r, s)))
        out[sym] = out.get(sym, 0) + c * s[i - 1]


def _der_central(out: dict, sd: Symbol, sk: Symbol, c: Rat) -> None:
    """[D_i(r), K_j(s)] = s_i K_j(r + s) + delta_ij sum_p r_p K_p(r + s)."""
    _, i, r = sd
    _, j, s = sk
    deg = tuple(map(add, r, s))
    if s[i - 1]:
        _add_central(out, j, deg, c * s[i - 1])
    if i == j:
        for p, rp in enumerate(r, 1):
            if rp:
                _add_central(out, p, deg, c * rp)


def _witt_into(out: dict, s1: Symbol, s2: Symbol, c: Rat) -> None:
    """[D_i(r), D_j(s)]_0 = s_i D_j(r + s) - r_j D_i(r + s)."""
    _, i, r = s1
    _, j, s = s2
    deg = tuple(map(add, r, s))
    if s[i - 1]:
        sym = ("D", j, deg)
        out[sym] = out.get(sym, 0) + c * s[i - 1]
    if r[j - 1]:
        sym = ("D", i, deg)
        out[sym] = out.get(sym, 0) - c * r[j - 1]


def _cocycle_into(out: dict, cc: tuple, s1: Symbol, s2: Symbol, c: Rat) -> None:
    """(c1 phi1 + c2 phi2)(D_i(r), D_j(s))
    = (-c1 s_i r_j + c2 r_i s_j) sum_p r_p K_p(r + s)."""
    _, i, r = s1
    _, j, s = s2
    c1, c2 = cc
    weight = -c1 * (s[i - 1] * r[j - 1]) + c2 * (r[i - 1] * s[j - 1])
    if not weight:
        return
    if weight.__class__ is not int and weight.denominator == 1:
        weight = weight.numerator
    deg = tuple(map(add, r, s))
    for p, rp in enumerate(r, 1):
        if rp:
            _add_central(out, p, deg, c * weight * rp)


def cocycle_coefficients(c: tuple) -> tuple[Rat, Rat]:
    """The cocycle coefficients (c1, c2), each an int where it is integral;
    anything but an int is read by ``Fraction``, so "-3/2" is accepted too."""
    return _rat(c[0]), _rat(c[1])


def _rat(x) -> Rat:
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@lru_cache(maxsize=256)
def _algebra_cocycle(desc: AlgebraDesc) -> tuple[Rat, Rat]:
    """``desc.cocycle`` as ``cocycle_coefficients``, converted once per algebra:
    the full bracket's D-D term then multiplies ints where it can."""
    return cocycle_coefficients(desc.cocycle)


def _derivation_pairs(X: LieElt, Y: LieElt, what: str):
    """Every (s1, s2, a * b) over the terms of X and Y, all derivations."""
    for s1, a in X.terms.items():
        for s2, b in Y.terms.items():
            if s1[0] != "D" or s2[0] != "D":
                raise DomainError(f"{what} arguments must be derivation elements")
            yield s1, s2, a * b


def cocycle(
    desc: AlgebraDesc, c: tuple, X: LieElt, Y: LieElt
) -> LieElt:
    """Evaluate c[0]*phi1 + c[1]*phi2 on derivation elements (central result)."""
    if desc.loop_vars < 1:
        raise DomainError("cocycles require loop_vars >= 1")
    cc = cocycle_coefficients(c)
    out: dict[Symbol, Rat] = {}
    for s1, s2, ab in _derivation_pairs(X, Y, "cocycle"):
        _cocycle_into(out, cc, s1, s2, ab)
    out = {s: v for s, v in out.items() if v}
    if out and desc.variant not in ("toroidal", "full"):
        raise DomainError(f"variant {desc.variant} has no central symbols")
    return LieElt._raw(desc, out)


def witt_bracket_part(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> LieElt:
    """The derivation part [X, Y]_0 without any central contribution."""
    out: dict[Symbol, Rat] = {}
    for s1, s2, ab in _derivation_pairs(X, Y, "witt bracket"):
        _witt_into(out, s1, s2, ab)
    return LieElt._raw(desc, {s: v for s, v in out.items() if v})


def invariant_form(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> Rat:
    """Trace form of the defining realization, on finite-part elements."""
    forms = desc.fin.forms
    total = Fraction(0)
    for s1, a in X.terms.items():
        for s2, b in Y.terms.items():
            if s1[0] != "f" or s2[0] != "f":
                raise DomainError("invariant_form applies to finite-part elements")
            total += a * b * forms[s1[1]][s2[1]]
    return total


# -- basis enumeration -------------------------------------------------------


def basis_of(desc: AlgebraDesc, window: Iterable) -> list[LieElt]:
    """All canonical basis symbols with loop degree in the window."""
    degrees = window_degrees(desc, window)
    n = desc.loop_vars
    variant = desc.variant
    syms: list[Symbol] = []
    if variant != "witt":
        syms += [("f", m, r) for r in degrees for m in range(desc.fin.dim)]
    if variant in ("toroidal", "full"):
        for r in degrees:
            jstar = next((j for j, x in enumerate(r, 1) if x), None)
            syms += [("K", j, r) for j in range(1, n + 1) if j != jstar]
    if variant == "toroidal":
        syms += [("D", i, desc.zero_degree()) for i in range(1, n + 1)]
    elif variant in ("witt", "full"):
        syms += [("D", i, r) for r in degrees for i in range(1, n + 1)]
    return [LieElt._raw(desc, {sym: 1}) for sym in syms]
