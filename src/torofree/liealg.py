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

Brackets: commutators of matrices for the finite part; the toroidal central
term (x,y) * sum_i r_i K_i(r+s) with (.,.) the trace form of the defining
matrix realization (not the Killing form; the two differ by a scalar that
only rescales the K_j, and the modules kill the center anyway); the Witt
bracket [D(u,r), D(v,s)] = D((u,s)v - (v,r)u, r+s); the derivation action on
the center; and, in the full variant, the 2-cocycle c1*phi1 + c2*phi2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, StructureError

Rat = Fraction
Matrix = tuple[tuple[Rat, ...], ...]
Symbol = tuple  # ("f", m, r) | ("K", j, r) | ("D", i, r)

VARIANTS = ("finite", "toroidal", "witt", "full")


# -- exact matrix helpers ----------------------------------------------------


def _zeros(size: int) -> list[list[Rat]]:
    return [[Fraction(0)] * size for _ in range(size)]


def _freeze(rows: list[list[Rat]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    out = _zeros(size)
    for i in range(size):
        ai = a[i]
        for k in range(size):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(size):
                if bk[j]:
                    row[j] += c * bk[j]
    return _freeze(out)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _freeze([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_comm(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace_prod(a: Matrix, b: Matrix) -> Rat:
    return sum(
        (a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a))),
        Fraction(0),
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


# -- finite-type realizations ------------------------------------------------


class FiniteAlgebra:
    """Matrix realization of g(A_l) or g(C_l) with Chevalley data."""

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
        self.mats: list[Matrix] = []
        self.x_index: dict[int, int] = {}
        self.y_index: dict[int, int] = {}
        self.h_index: dict[int, int] = {}
        if family == "A":
            self._build_sl(rank)
        else:
            self._build_sp(rank)
        self.dim = len(self.mats)
        self.size = len(self.mats[0])
        # alpha-coordinates of each basis element's weight under ad(H_i)
        self._weights: list[tuple[Rat, ...]] = []
        for m in self.mats:
            self._weights.append(self._weight_of(m))
        self._by_weight: dict[tuple[Rat, ...], int] = {}
        for idx, w in enumerate(self._weights):
            if any(w):
                self._by_weight[w] = idx
        self._bracket_cache: dict[tuple[int, int], dict[int, Rat]] = {}
        self._form_cache: dict[tuple[int, int], Rat] = {}
        self._word_cache: dict[int, tuple[tuple, Rat]] = {}

    # construction ----------------------------------------------------------

    def _unit(self, size: int, p: int, q: int) -> Matrix:
        rows = _zeros(size)
        rows[p][q] = Fraction(1)
        return _freeze(rows)

    def _add(self, label: str, mat: Matrix) -> int:
        self.labels.append(label)
        self.mats.append(mat)
        return len(self.mats) - 1

    def _build_sl(self, l: int):
        size = l + 1
        for p in range(size):
            for q in range(size):
                if p == q:
                    continue
                idx = self._add(f"E({p + 1},{q + 1})", self._unit(size, p, q))
                if q == p + 1:
                    self.x_index[p + 1] = idx
                if q == p - 1:
                    self.y_index[q + 1] = idx
        for i in range(1, l + 1):
            rows = _zeros(size)
            for k in range(size):
                rows[k][k] = Fraction(1 if k < i else 0) - Fraction(i, size)
            self.h_index[i] = self._add(f"h{i}", _freeze(rows))

    def _build_sp(self, l: int):
        size = 2 * l

        def m_mat(i, j):
            rows = _zeros(size)
            rows[i][j] += 1
            rows[l + j][l + i] -= 1
            return _freeze(rows)

        def b_mat(i, j):
            rows = _zeros(size)
            rows[i][l + j] += 1
            rows[j][l + i] += 1
            return _freeze(rows) if i != j else _freeze(rows)

        def b_diag(i):
            rows = _zeros(size)
            rows[i][l + i] += 1
            return _freeze(rows)

        def c_mat(i, j):
            rows = _zeros(size)
            rows[l + j][i] += 1
            rows[l + i][j] += 1
            return _freeze(rows)

        def c_diag(i):
            rows = _zeros(size)
            rows[l + i][i] += 1
            return _freeze(rows)

        for i in range(l):
            for j in range(l):
                if i == j:
                    continue
                idx = self._add(f"M({i + 1},{j + 1})", m_mat(i, j))
                if j == i + 1:
                    self.x_index[i + 1] = idx
                if j == i - 1:
                    self.y_index[j + 1] = idx
        for i in range(l):
            for j in range(i, l):
                mat = b_diag(i) if i == j else b_mat(i, j)
                idx = self._add(f"B({i + 1},{j + 1})", mat)
                if i == j == l - 1:
                    self.x_index[l] = idx
        for i in range(l):
            for j in range(i, l):
                mat = c_diag(i) if i == j else c_mat(i, j)
                idx = self._add(f"C({i + 1},{j + 1})", mat)
                if i == j == l - 1:
                    self.y_index[l] = idx
        # H_i dual to the simple roots: t = (1,..,1,0,..,0) (i ones), H_l halved
        for i in range(1, l + 1):
            rows = _zeros(size)
            t = [Fraction(1) if k < i else Fraction(0) for k in range(l)]
            if i == l:
                t = [Fraction(1, 2)] * l
            for k in range(l):
                rows[k][k] = t[k]
                rows[l + k][l + k] = -t[k]
            self.h_index[i] = self._add(f"h{i}", _freeze(rows))

    # structure -------------------------------------------------------------

    def _weight_of(self, mat: Matrix) -> tuple[Rat, ...]:
        out = []
        for i in range(1, self.rank + 1):
            h = self.mats[self.h_index[i]]
            c = mat_comm(h, mat)
            if mat_is_zero(c):
                out.append(Fraction(0))
                continue
            ratio = None
            for p in range(self.size):
                for q in range(self.size):
                    if mat[p][q]:
                        ratio = c[p][q] / mat[p][q]
                        break
                if ratio is not None:
                    break
            if not mat_is_zero(mat_sub(c, self._scale(mat, ratio))):
                raise StructureError("basis element is not an ad(H)-weight vector")
            out.append(ratio)
        return tuple(out)

    @staticmethod
    def _scale(mat: Matrix, c: Rat) -> Matrix:
        return _freeze([[c * x for x in row] for row in mat])

    def decompose(self, mat: Matrix) -> dict[int, Rat]:
        """Coordinates of a g-matrix in the chosen basis (exact)."""
        coords: dict[int, Rat] = {}
        rem = mat
        for idx, b in enumerate(self.mats):
            if idx in self.h_index.values():
                continue
            # off-diagonal basis elements have a private leading entry
            p, q = next(
                (p, q)
                for p in range(self.size)
                for q in range(self.size)
                if b[p][q]
            )
            c = rem[p][q] / b[p][q]
            if c:
                coords[idx] = c
                rem = mat_sub(rem, self._scale(b, c))
        # Cartan part: alpha_i evaluation on the remaining diagonal
        diag = [rem[k][k] for k in range(self.size)]
        for i in range(1, self.rank + 1):
            if self.family == "A":
                c = diag[i - 1] - diag[i]
            else:
                c = diag[i - 1] - diag[i] if i < self.rank else 2 * diag[self.rank - 1]
            if c:
                coords[self.h_index[i]] = coords.get(self.h_index[i], Fraction(0)) + c
                rem = mat_sub(rem, self._scale(self.mats[self.h_index[i]], c))
        if not mat_is_zero(rem):
            raise StructureError("matrix is not in the algebra span")
        return coords

    def bracket_coords(self, m1: int, m2: int) -> dict[int, Rat]:
        key = (m1, m2)
        if key not in self._bracket_cache:
            comm = mat_comm(self.mats[m1], self.mats[m2])
            self._bracket_cache[key] = self.decompose(comm)
        return self._bracket_cache[key]

    def form(self, m1: int, m2: int) -> Rat:
        """Normalized invariant form: trace form of the defining realization."""
        key = (m1, m2)
        if key not in self._form_cache:
            self._form_cache[key] = mat_trace_prod(self.mats[m1], self.mats[m2])
        return self._form_cache[key]

    def coroot_coords(self, i: int) -> dict[int, Rat]:
        """The coroot h_i^vee = [x_i, y_i] in basis coordinates."""
        return self.bracket_coords(self.x_index[i], self.y_index[i])

    def generator_word(self, m: int) -> tuple[tuple, Rat]:
        """Fixed bracket word over {x_i, y_i, h_i} equal to basis elt m / scalar.

        Returns (word, scalar) with word one of ("x", i), ("y", i), ("h", i) or
        ("br", w1, w2), such that evaluating the word in the matrix realization
        gives scalar * mats[m].
        """
        if m in self._word_cache:
            return self._word_cache[m]
        for i, idx in self.h_index.items():
            if idx == m:
                self._word_cache[m] = (("h", i), Fraction(1))
                return self._word_cache[m]
        for i, idx in self.x_index.items():
            if idx == m:
                self._word_cache[m] = (("x", i), Fraction(1))
                return self._word_cache[m]
        for i, idx in self.y_index.items():
            if idx == m:
                self._word_cache[m] = (("y", i), Fraction(1))
                return self._word_cache[m]
        w = self._weights[m]
        positive = sum(w) > 0
        for i in range(1, self.rank + 1):
            step = self._weights[self.x_index[i] if positive else self.y_index[i]]
            lower = tuple(a - b for a, b in zip(w, step))
            if lower not in self._by_weight:
                continue
            base = self._by_weight[lower]
            gen_idx = self.x_index[i] if positive else self.y_index[i]
            comm = mat_comm(self.mats[gen_idx], self.mats[base])
            coords = self.decompose(comm)
            if set(coords) != {m}:
                continue
            word_base, scalar_base = self.generator_word(base)
            gen_word = ("x", i) if positive else ("y", i)
            word = ("br", gen_word, word_base)
            self._word_cache[m] = (word, coords[m] * scalar_base)
            return self._word_cache[m]
        raise StructureError(f"no generator word found for basis element {m}")


@lru_cache(maxsize=None)
def finite_algebra(family: str, rank: int) -> FiniteAlgebra:
    return FiniteAlgebra(family, rank)


# -- algebra descriptor ------------------------------------------------------


@dataclass(frozen=True)
class AlgebraDesc:
    """Which Lie algebra: family/rank of the finite part, loop variables, variant."""

    family: str
    rank: int
    loop_vars: int = 0
    variant: str = "finite"
    cocycle: tuple[Rat, Rat] = (Fraction(0), Fraction(0))

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise StructureError(f"unknown variant {self.variant!r}")
        if self.variant != "witt":
            finite_algebra(self.family, self.rank)  # validates the family gate
        if self.variant != "finite" and self.loop_vars < 1:
            raise StructureError(f"variant {self.variant} requires loop_vars >= 1")
        if self.loop_vars < 0:
            raise StructureError("loop_vars must be >= 0")
        object.__setattr__(
            self, "cocycle", (Fraction(self.cocycle[0]), Fraction(self.cocycle[1]))
        )
        if self.variant != "full" and any(self.cocycle):
            raise StructureError("cocycle coefficients only apply to the full variant")

    @property
    def fin(self) -> FiniteAlgebra:
        return finite_algebra(self.family, self.rank)

    def zero_degree(self) -> tuple[int, ...]:
        return (0,) * self.loop_vars if self.variant != "finite" else ()


# -- graded elements ---------------------------------------------------------


class LieElt:
    """Rational linear combination of graded basis symbols, canonical mod dA."""

    __slots__ = ("desc", "terms")

    def __init__(self, desc: AlgebraDesc, terms: dict[Symbol, Rat] | None = None):
        object.__setattr__(self, "desc", desc)
        clean: dict[Symbol, Rat] = {}
        if terms:
            for sym, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                for rsym, rc in _canon_symbol(desc, sym).items():
                    v = clean.get(rsym, Fraction(0)) + c * rc
                    if v:
                        clean[rsym] = v
                    else:
                        clean.pop(rsym, None)
        object.__setattr__(self, "terms", clean)

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
        if self.desc != other.desc:
            raise StructureError("cannot add elements of different algebras")
        out = dict(self.terms)
        for sym, c in other.terms.items():
            out[sym] = out.get(sym, Fraction(0)) + c
        return LieElt(self.desc, out)

    def __sub__(self, other: "LieElt") -> "LieElt":
        return self + other.scale(-1)

    def scale(self, c) -> "LieElt":
        c = Fraction(c)
        return LieElt(self.desc, {s: c * k for s, k in self.terms.items()})

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


def _canon_symbol(desc: AlgebraDesc, sym: Symbol) -> dict[Symbol, Rat]:
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
        return {(kind, idx, r): Fraction(1)}
    if kind == "K":
        if variant not in ("toroidal", "full"):
            raise DomainError(f"variant {variant} has no central symbols")
        if not 1 <= idx <= n:
            raise StructureError(f"central index {idx} out of range")
        if any(r):
            jstar = next(j for j in range(n) if r[j] != 0) + 1
            if idx == jstar:
                out: dict[Symbol, Rat] = {}
                for p in range(1, n + 1):
                    if p == jstar or r[p - 1] == 0:
                        continue
                    out[("K", p, r)] = Fraction(-r[p - 1], r[jstar - 1])
                return out
        return {(kind, idx, r): Fraction(1)}
    # kind == "D"
    if variant == "toroidal" and any(r):
        raise DomainError("toroidal variant has degree-zero derivations only")
    if variant != "finite" and not 1 <= idx <= n:
        raise StructureError(f"derivation index {idx} out of range")
    return {(kind, idx, r): Fraction(1)}


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


def bracket(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> LieElt:
    """Bilinear bracket, canonicalized modulo dA."""
    out: dict[Symbol, Rat] = {}
    for s1, c1 in X.terms.items():
        for s2, c2 in Y.terms.items():
            for sym, c in _bracket_symbols(desc, s1, s2).items():
                out[sym] = out.get(sym, Fraction(0)) + c1 * c2 * c
    return LieElt(desc, out)


def _bracket_symbols(desc: AlgebraDesc, s1: Symbol, s2: Symbol) -> dict[Symbol, Rat]:
    k1, k2 = s1[0], s2[0]
    if k1 == "K" or k2 == "K":
        if k1 == "D":
            return _der_central(desc, s1, s2)
        if k2 == "D":
            return {s: -c for s, c in _der_central(desc, s2, s1).items()}
        return {}
    if k1 == "f" and k2 == "f":
        return _loop_loop(desc, s1, s2)
    if k1 == "D" and k2 == "f":
        return _der_loop(desc, s1, s2)
    if k1 == "f" and k2 == "D":
        return {s: -c for s, c in _der_loop(desc, s2, s1).items()}
    return _der_der(desc, s1, s2)


def _loop_loop(desc: AlgebraDesc, s1: Symbol, s2: Symbol) -> dict[Symbol, Rat]:
    _, m1, r = s1
    _, m2, s = s2
    deg = tuple(a + b for a, b in zip(r, s)) if r else ()
    out: dict[Symbol, Rat] = {
        ("f", m, deg): c for m, c in desc.fin.bracket_coords(m1, m2).items()
    }
    if desc.variant in ("toroidal", "full"):
        pairing = desc.fin.form(m1, m2)
        if pairing:
            for i, ri in enumerate(r):
                if ri:
                    sym = ("K", i + 1, deg)
                    out[sym] = out.get(sym, Fraction(0)) + pairing * ri
    return out


def _der_loop(desc: AlgebraDesc, sd: Symbol, sf: Symbol) -> dict[Symbol, Rat]:
    _, i, r = sd
    _, m, s = sf
    if desc.variant == "finite":
        return {}  # z-elements are central in the trivial extension
    coeff = Fraction(s[i - 1])
    if coeff == 0:
        return {}
    deg = tuple(a + b for a, b in zip(r, s))
    return {("f", m, deg): coeff}


def _der_central(desc: AlgebraDesc, sd: Symbol, sk: Symbol) -> dict[Symbol, Rat]:
    _, i, r = sd
    _, j, s = sk
    deg = tuple(a + b for a, b in zip(r, s))
    out: dict[Symbol, Rat] = {}
    si = Fraction(s[i - 1])
    if si:
        out[("K", j, deg)] = si
    if i == j:
        for p, rp in enumerate(r):
            if rp:
                sym = ("K", p + 1, deg)
                out[sym] = out.get(sym, Fraction(0)) + rp
    return out


def _der_der(desc: AlgebraDesc, s1: Symbol, s2: Symbol) -> dict[Symbol, Rat]:
    _, i, r = s1
    _, j, s = s2
    if desc.variant == "finite":
        return {}
    deg = tuple(a + b for a, b in zip(r, s))
    out: dict[Symbol, Rat] = {}
    # D(w, r+s) with w = (e_i, s) e_j - (e_j, r) e_i
    si, rj = Fraction(s[i - 1]), Fraction(r[j - 1])
    if si:
        out[("D", j, deg)] = out.get(("D", j, deg), Fraction(0)) + si
    if rj:
        out[("D", i, deg)] = out.get(("D", i, deg), Fraction(0)) - rj
    if desc.variant == "full":
        c1, c2 = desc.cocycle
        weight = -c1 * si * rj + c2 * Fraction(r[i - 1]) * Fraction(s[j - 1])
        if weight:
            for p, rp in enumerate(r):
                if rp:
                    sym = ("K", p + 1, deg)
                    out[sym] = out.get(sym, Fraction(0)) + weight * rp
    return out


def cocycle(
    desc: AlgebraDesc, c: tuple, X: LieElt, Y: LieElt
) -> LieElt:
    """Evaluate c[0]*phi1 + c[1]*phi2 on derivation elements (central result)."""
    if desc.loop_vars < 1:
        raise DomainError("cocycles require loop_vars >= 1")
    c1, c2 = Fraction(c[0]), Fraction(c[1])
    out: dict[Symbol, Rat] = {}
    for s1, a in X.terms.items():
        for s2, b in Y.terms.items():
            if s1[0] != "D" or s2[0] != "D":
                raise DomainError("cocycle arguments must be derivation elements")
            _, i, r = s1
            _, j, s = s2
            deg = tuple(x + y for x, y in zip(r, s))
            weight = -c1 * Fraction(s[i - 1]) * Fraction(r[j - 1])
            weight += c2 * Fraction(r[i - 1]) * Fraction(s[j - 1])
            if not weight:
                continue
            for p, rp in enumerate(r):
                if rp:
                    sym = ("K", p + 1, deg)
                    out[sym] = out.get(sym, Fraction(0)) + a * b * weight * rp
    return LieElt(desc, out)


def witt_bracket_part(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> LieElt:
    """The derivation part [X, Y]_0 without any central contribution."""
    out: dict[Symbol, Rat] = {}
    for s1, a in X.terms.items():
        for s2, b in Y.terms.items():
            if s1[0] != "D" or s2[0] != "D":
                raise DomainError("witt bracket arguments must be derivations")
            _, i, r = s1
            _, j, s = s2
            deg = tuple(x + y for x, y in zip(r, s))
            si, rj = Fraction(s[i - 1]), Fraction(r[j - 1])
            if si:
                out[("D", j, deg)] = out.get(("D", j, deg), Fraction(0)) + a * b * si
            if rj:
                out[("D", i, deg)] = out.get(("D", i, deg), Fraction(0)) - a * b * rj
    return LieElt(desc, out)


def invariant_form(desc: AlgebraDesc, X: LieElt, Y: LieElt) -> Rat:
    """Trace form of the defining realization, on finite-part elements."""
    total = Fraction(0)
    for s1, a in X.terms.items():
        for s2, b in Y.terms.items():
            if s1[0] != "f" or s2[0] != "f":
                raise DomainError("invariant_form applies to finite-part elements")
            total += a * b * desc.fin.form(s1[1], s2[1])
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
    out: list[LieElt] = []
    if desc.variant == "finite":
        for m in range(desc.fin.dim):
            out.append(elt(desc, ("f", m, ())))
        return out
    n = desc.loop_vars
    if desc.variant in ("toroidal", "full"):
        for r in degrees:
            for m in range(desc.fin.dim):
                out.append(elt(desc, ("f", m, r)))
        for r in degrees:
            if not any(r):
                for j in range(1, n + 1):
                    out.append(elt(desc, ("K", j, r)))
            else:
                jstar = next(j for j in range(n) if r[j] != 0) + 1
                for j in range(1, n + 1):
                    if j != jstar:
                        out.append(elt(desc, ("K", j, r)))
    if desc.variant == "toroidal":
        for i in range(1, n + 1):
            out.append(elt(desc, ("D", i, desc.zero_degree())))
    elif desc.variant in ("witt", "full"):
        for r in degrees:
            for i in range(1, n + 1):
                out.append(elt(desc, ("D", i, r)))
    return out
