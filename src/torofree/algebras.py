"""Which Lie algebra: descriptors, finite-type realizations and loop windows.

An ``AlgebraDesc`` names the family and rank of the finite part, the number
of loop variables and the variant (finite, toroidal, Witt or full, with the
full variant's 2-cocycle).  Its finite part is a ``FiniteAlgebra``: the
matrix realization of g(A_l) = sl_{l+1}, with basis {E_pq : p != q} +
{H_1..H_l}, or of g(C_l) = sp_{2l} with the standard symplectic basis.  The
Cartan basis H_i is dual to the simple roots: [H_i, x_j] = delta_ij x_j,
[H_i, y_j] = -delta_ij y_j.  Each ``FiniteAlgebra`` derives its structure
constants, its trace form and the generator words of its root vectors
once, on first use, by integer arithmetic on that realization.

The graded elements and the bracket are in ``liealg``; module specs, the
CLI and the searches need only this module, so they load no bracket.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import sub

from .errors import Frozen, StructureError

Rat = Fraction  # an int where a coefficient is integral
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


# -- loop-degree windows ------------------------------------------------------


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
