"""Finite, toroidal, Witt and full toroidal Lie algebras with exact brackets.

Finite part: g(A_l) = sl_{l+1} with basis {E_pq : p != q} + {H_1..H_l}, and
g(C_l) = sp_{2l} with the standard symplectic basis.  The Cartan basis H_i is
dual to the simple roots: [H_i, x_j] = delta_ij x_j, [H_i, y_j] = -delta_ij y_j.

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

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, sub
from typing import Iterable, Sequence

from .errors import DomainError, Frozen, StructureError

Rat = Fraction  # an int where a coefficient is integral
Symbol = tuple  # ("f", m, r) | ("K", j, r) | ("D", i, r)
Sparse = dict[tuple[int, int], Rat]  # nonzero matrix entries by (row, column)

VARIANTS = ("finite", "toroidal", "witt", "full")
_set = object.__setattr__  # writes a field past Frozen's immutability guard


def _exact(num, den: int) -> Rat:
    """num / den, as an int when den divides num."""
    if isinstance(num, int) and num % den == 0:
        return num // den
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


# -- finite-type realizations ------------------------------------------------


def _sparse_comm(a: Sparse, b: Sparse) -> Sparse:
    """[a, b] of two sparse matrices."""
    out: Sparse = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (p, k), u in x.items():
            for (k2, q), v in y.items():
                if k == k2:
                    out[p, q] = out.get((p, q), 0) + sign * u * v
    return {pos: v for pos, v in out.items() if v}


class FiniteAlgebra:
    """The matrix realization of g(A_l) or g(C_l), with Chevalley data.

    ``sparse[m]`` holds the nonzero entries of ``scale`` times basis matrix
    m, as ints; ``scale`` is l + 1 for A_l and 2 for C_l, the least that
    makes every entry integral.  The structure constants (``table``), the
    trace form (``forms``) and the generator words are derived from it once,
    on first use, by integer arithmetic.
    """

    def __init__(self, family: str, rank: int):
        if family == "A":
            if rank < 1:
                raise StructureError("A_l requires l >= 1")
        elif family == "C":
            if rank < 2:
                raise StructureError("C_l requires l >= 2")
        else:
            raise StructureError(
                f"family {family!r} unsupported: rank-1 Cartan-free modules exist "
                "only for families A (l >= 1) and C (l >= 2)"
            )
        self.family = family
        self.rank = rank
        self.labels: list[str] = []
        self.sparse: list[Sparse] = []
        self.x_index: dict[int, int] = {}
        self.y_index: dict[int, int] = {}
        self.h_index: dict[int, int] = {}
        if family == "A":
            self.scale = self.size = rank + 1
            self._build_sl(rank)
        else:
            self.scale, self.size = 2, 2 * rank
            self._build_sp(rank)
        self.dim = len(self.sparse)

    # construction ----------------------------------------------------------

    def _add(self, label: str, entries: Sparse) -> int:
        self.labels.append(label)
        self.sparse.append(entries)
        return len(self.sparse) - 1

    def _build_sl(self, l: int):
        s = self.scale
        for p in range(s):
            for q in range(s):
                if p == q:
                    continue
                idx = self._add(f"E({p + 1},{q + 1})", {(p, q): s})
                if q == p + 1:
                    self.x_index[p + 1] = idx
                if q == p - 1:
                    self.y_index[q + 1] = idx
        # H_i = E_11 + .. + E_ii - i/(l+1) Id: no diagonal entry is zero
        for i in range(1, l + 1):
            diag = {(k, k): (s if k < i else 0) - i for k in range(s)}
            self.h_index[i] = self._add(f"h{i}", diag)

    def _build_sp(self, l: int):
        # B(i,j) = E_{i,l+j} + E_{j,l+i} and C(i,j) = E_{l+i,j} + E_{l+j,i} for
        # i < j; at i = j the two keys coincide, so B(i,i) = E_{i,l+i}, C(i,i) = E_{l+i,i}
        for i in range(l):
            for j in range(l):
                if i == j:
                    continue
                idx = self._add(f"M({i + 1},{j + 1})", {(i, j): 2, (l + j, l + i): -2})
                if j == i + 1:
                    self.x_index[i + 1] = idx
                if j == i - 1:
                    self.y_index[j + 1] = idx
        for i in range(l):
            for j in range(i, l):
                idx = self._add(f"B({i + 1},{j + 1})", {(i, l + j): 2, (j, l + i): 2})
                if i == j == l - 1:
                    self.x_index[l] = idx
        for i in range(l):
            for j in range(i, l):
                idx = self._add(f"C({i + 1},{j + 1})", {(l + i, j): 2, (l + j, i): 2})
                if i == j == l - 1:
                    self.y_index[l] = idx
        # H_i dual to the simple roots: diag(t, -t), t = (1,..,1,0,..,0) (i ones), H_l halved
        for i in range(1, l + 1):
            t = [1] * l if i == l else [2] * i
            diag = {(k, k): x for k, x in enumerate(t)}
            diag.update({(l + k, l + k): -x for k, x in enumerate(t)})
            self.h_index[i] = self._add(f"h{i}", diag)

    # structure -------------------------------------------------------------

    @cached_property
    def _leads(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Position of the first entry of each root vector, private to it,
        mapped to (basis index, scaled entry)."""
        cartan = set(self.h_index.values())
        return {
            min(mat): (m, mat[min(mat)])
            for m, mat in enumerate(self.sparse)
            if m not in cartan
        }

    def _coords(self, mat: Sparse, den: int) -> dict[int, Rat]:
        """Basis coordinates of the sparse matrix mat / den, by ascending index."""
        scale, sparse = self.scale, self.sparse
        coords: dict[int, Rat] = {}
        for pos, v in mat.items():
            if pos in self._leads:
                m, b = self._leads[pos]
                coords[m] = _exact(v * scale, den * b)
        # Cartan part: alpha_i evaluated on the diagonal
        diag = [mat.get((k, k), 0) for k in range(self.size)]
        for i in range(1, self.rank + 1):
            if self.family == "C" and i == self.rank:
                c = 2 * diag[i - 1]
            else:
                c = diag[i - 1] - diag[i]
            if c:
                coords[self.h_index[i]] = _exact(c, den)
        back: Sparse = {}
        for m, c in coords.items():
            for pos, b in sparse[m].items():
                back[pos] = back.get(pos, 0) + c * b
        if any(back.get(pos, 0) * den != mat.get(pos, 0) * scale for pos in back.keys() | mat):
            raise StructureError("matrix is not in the algebra span")
        return dict(sorted(coords.items()))

    @cached_property
    def table(self) -> list[list[tuple[tuple[int, Rat], ...]]]:
        """Structure constants: table[m1][m2] = ((m, c), ...), ascending in m,
        with [basis m1, basis m2] = sum c * basis m."""
        scale, sparse = self.scale, self.sparse
        rows: list[list[tuple]] = [[()] * self.dim for _ in range(self.dim)]
        for m1, m2 in itertools.combinations(range(self.dim), 2):
            coords = self._coords(_sparse_comm(sparse[m1], sparse[m2]), scale * scale)
            rows[m1][m2] = tuple(coords.items())
            rows[m2][m1] = tuple((m, -c) for m, c in coords.items())
        return rows

    @cached_property
    def forms(self) -> list[list[Rat]]:
        """The normalized invariant form, forms[m1][m2] = trace(basis m1 basis m2)
        (the trace form of the defining realization)."""
        scale, sparse = self.scale, self.sparse
        return [
            [_exact(sum(u * b.get((q, p), 0) for (p, q), u in a.items()), scale * scale)
             for b in sparse]
            for a in sparse
        ]

    def coroot_coords(self, i: int) -> dict[int, Rat]:
        """The coroot h_i^vee = [x_i, y_i] in basis coordinates."""
        return dict(self.table[self.x_index[i]][self.y_index[i]])

    def generator_word(self, m: int) -> tuple[tuple, Rat]:
        """Fixed bracket word over {x_i, y_i, h_i} equal to basis elt m / scalar.

        Returns (word, scalar) with word one of ("x", i), ("y", i), ("h", i) or
        ("br", w1, w2), such that evaluating the word in the matrix realization
        gives scalar times basis matrix m; the scalar is a Fraction.
        """
        return self._words[m]

    @cached_property
    def _words(self) -> list[tuple[tuple, Rat]]:
        words: dict[int, tuple[tuple, Rat]] = {}
        for kind, index in (("h", self.h_index), ("x", self.x_index), ("y", self.y_index)):
            for i, m in index.items():
                words[m] = ((kind, i), Fraction(1))
        # alpha-coordinates of each basis element's weight under ad(H_i)
        hs = [self.table[self.h_index[i]] for i in range(1, self.rank + 1)]
        weights = [tuple(dict(h[m]).get(m, 0) for h in hs) for m in range(self.dim)]
        by_weight = {w: m for m, w in enumerate(weights) if any(w)}

        def word(m: int) -> tuple[tuple, Rat]:
            if m in words:
                return words[m]
            positive = sum(weights[m]) > 0
            for i in range(1, self.rank + 1):
                gen = (self.x_index if positive else self.y_index)[i]
                base = by_weight.get(tuple(map(sub, weights[m], weights[gen])))
                if base is None:
                    continue
                coords = dict(self.table[gen][base])
                if set(coords) != {m}:
                    continue
                word_base, scalar_base = word(base)
                letter = ("x" if positive else "y", i)
                words[m] = (("br", letter, word_base), coords[m] * scalar_base)
                return words[m]
            raise StructureError(f"no generator word found for basis element {m}")

        return [word(m) for m in range(self.dim)]


@lru_cache(maxsize=None)
def finite_algebra(family: str, rank: int) -> FiniteAlgebra:
    return FiniteAlgebra(family, rank)


# -- algebra descriptor ------------------------------------------------------


class AlgebraDesc(Frozen):
    """Which Lie algebra: family/rank of the finite part, loop variables, variant."""

    __slots__ = ("family", "rank", "loop_vars", "variant", "cocycle", "_hash")
    _fields = __slots__[:-1]
    family: str
    rank: int
    loop_vars: int
    variant: str
    cocycle: tuple[Rat, Rat]

    def __init__(self, family: str, rank: int, loop_vars: int = 0,
                 variant: str = "finite", cocycle: tuple[Rat, Rat] = (0, 0)):
        if variant not in VARIANTS:
            raise StructureError(f"unknown variant {variant!r}")
        if variant != "witt":
            finite_algebra(family, rank)  # validates the family gate
        if variant != "finite" and loop_vars < 1:
            raise StructureError(f"variant {variant} requires loop_vars >= 1")
        if loop_vars < 0:
            raise StructureError("loop_vars must be >= 0")
        cocycle = (Fraction(cocycle[0]), Fraction(cocycle[1]))
        if variant != "full" and any(cocycle):
            raise StructureError("cocycle coefficients only apply to the full variant")
        _set(self, "family", family)
        _set(self, "rank", rank)
        _set(self, "loop_vars", loop_vars)
        _set(self, "variant", variant)
        _set(self, "cocycle", cocycle)
        _set(self, "_hash", None)

    # a key of the element and operator caches, and hashing it hashes two Fractions
    __hash__ = Frozen._cached_hash

    @property
    def fin(self) -> FiniteAlgebra:
        return finite_algebra(self.family, self.rank)

    def zero_degree(self) -> tuple[int, ...]:
        return (0,) * self.loop_vars if self.variant != "finite" else ()


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
        out = dict(self.terms)
        for sym, c in other.terms.items():
            v = out.get(sym, 0) + c
            if v:
                out[sym] = v
            else:
                del out[sym]
        return LieElt._raw(self.desc, out)

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
                    _cocycle_into(out, desc.cocycle, s1, s2, a * b)
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
    if weight.denominator == 1:
        weight = weight.numerator
    deg = tuple(map(add, r, s))
    for p, rp in enumerate(r, 1):
        if rp:
            _add_central(out, p, deg, c * weight * rp)


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
    cc = (Fraction(c[0]), Fraction(c[1]))
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


def degree_box(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    return [tuple(t) for t in itertools.product(range(lo, hi + 1), repeat=n)]


def window_degrees(shape, window=None) -> list[tuple[int, ...]]:
    """The loop degrees a window names for ``shape`` (an AlgebraDesc, or any
    object with its ``variant`` and ``loop_vars``, such as an action oracle):
    [()] for the finite variant, the box {-2..2}^n for None,
    degree_box(n, lo, hi) for a (lo, hi) pair of ints, else the listed
    degrees, each of length n."""
    n = shape.loop_vars
    if shape.variant == "finite":
        return [()]
    if window is None:
        return degree_box(n, -2, 2)
    if (
        isinstance(window, tuple)
        and len(window) == 2
        and all(isinstance(x, int) for x in window)
    ):
        return degree_box(n, window[0], window[1])
    degrees = [tuple(int(x) for x in r) for r in window]
    for r in degrees:
        if len(r) != n:
            raise StructureError(f"degree {r} has wrong length")
    return degrees


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
