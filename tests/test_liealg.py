import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decompose, dense_basis, mat_comm, mat_trace_prod, src_env
from torofree import liealg as L
from torofree.algebras import AlgebraDesc, FiniteAlgebra, degree_box
from torofree.errors import DomainError, StructureError
from torofree.verify import cocycle_identity_check, jacobi_check

A1T = AlgebraDesc("A", 1, 1, "toroidal")
A1F = AlgebraDesc("A", 1, 1, "full", (Fraction(1), Fraction(0)))
C2 = AlgebraDesc("C", 2)


class TestDescriptors:
    def test_family_gate(self):
        with pytest.raises(StructureError, match="families A"):
            AlgebraDesc("B", 3)
        with pytest.raises(StructureError):
            AlgebraDesc("C", 1)  # C needs l >= 2
        with pytest.raises(StructureError):
            AlgebraDesc("A", 0)

    def test_loop_vars_required(self):
        with pytest.raises(StructureError):
            AlgebraDesc("A", 1, 0, "toroidal")

    def test_cocycle_only_for_full(self):
        with pytest.raises(StructureError):
            AlgebraDesc("A", 1, 1, "toroidal", (Fraction(1), Fraction(0)))


class TestBasis:
    def test_finite_sl2(self):
        basis = L.basis_of(AlgebraDesc("A", 1), (0, 0))
        assert len(basis) == 3

    def test_sl2_toroidal_window(self):
        # 3 finite symbols x 3 degrees, plus K_1(0) (K_1(+-1) die mod dA), plus d_1
        basis = L.basis_of(A1T, (-1, 1))
        assert len(basis) == 11

    def test_witt_degree_zero(self):
        basis = L.basis_of(AlgebraDesc("A", 1, 2, "witt"), [(0, 0)])
        assert [b.text() for b in basis] == ["D1(0,0)", "D2(0,0)"]

    def test_da_relation_collapses(self):
        t2 = AlgebraDesc("A", 1, 2, "toroidal")
        r = (2, -1)
        z = L.central_k(t2, 1, r).scale(2) + L.central_k(t2, 2, r).scale(-1)
        assert z.is_zero()
        # one central survivor per nonzero degree for n = 2
        per_degree = [b for b in L.basis_of(t2, [r]) if b.text().startswith("K")]
        assert len(per_degree) == 1


class TestBracket:
    def test_affine_pairing(self):
        x = L.chevalley_x(A1T, 1, (1,))
        y = L.chevalley_y(A1T, 1, (-1,))
        got = L.bracket(A1T, x, y)
        assert got == L.coroot(A1T, 1) + L.central_k(A1T, 1)
        # and the coroot of sl2 is 2 H_1
        assert L.coroot(A1T, 1) == L.cartan_h(A1T, 1).scale(2)

    def test_degree_derivations_commute(self):
        t2 = AlgebraDesc("A", 1, 2, "toroidal")
        d1 = L.elt(t2, ("D", 1, (0, 0)))
        d2 = L.elt(t2, ("D", 2, (0, 0)))
        assert L.bracket(t2, d1, d2).is_zero()

    def test_derivation_loop_pairing_vanishes(self):
        fd = AlgebraDesc("A", 1, 2, "full", (Fraction(0), Fraction(0)))
        D = L.derivation(fd, (1, 0), (1, 0))
        x = L.chevalley_x(fd, 1, (0, 2))
        assert L.bracket(fd, D, x).is_zero()  # (e_1, (0,2)) = 0

    def test_degree_derivation_grades(self):
        d1 = L.elt(A1T, ("D", 1, (0,)))
        x = L.chevalley_x(A1T, 1, (3,))
        assert L.bracket(A1T, d1, x) == x.scale(3)

    def test_central_is_central(self):
        k = L.central_k(A1T, 1, (1,))
        x = L.chevalley_x(A1T, 1, (-1,))
        assert L.bracket(A1T, k, x).is_zero()

    def test_variant_gate(self):
        with pytest.raises(DomainError):
            L.elt(A1T, ("D", 1, (2,)))  # toroidal derivations sit in degree 0

    def test_cartan_pairing_feeds_center(self):
        h1 = L.cartan_h(A1T, 1, (1,))
        h2 = L.cartan_h(A1T, 1, (-1,))
        got = L.bracket(A1T, h1, h2)
        # (H_1, H_1) = 1/2 in the trace form of sl_2
        assert got == L.central_k(A1T, 1).scale(Fraction(1, 2))


class TestInvariantForm:
    def test_xy_pairing(self):
        d = AlgebraDesc("A", 1)
        assert L.invariant_form(d, L.chevalley_x(d, 1), L.chevalley_y(d, 1)) == 1

    def test_coroot_norm(self):
        d = AlgebraDesc("A", 1)
        assert L.invariant_form(d, L.coroot(d, 1), L.coroot(d, 1)) == 2

    def test_nilpotent_isotropic(self):
        d = AlgebraDesc("A", 1)
        assert L.invariant_form(d, L.chevalley_x(d, 1), L.chevalley_x(d, 1)) == 0


class TestCocycles:
    def test_phi1_example(self):
        got = L.cocycle(A1F, (1, 0), L.elt(A1F, ("D", 1, (1,))), L.elt(A1F, ("D", 1, (-1,))))
        assert got == L.central_k(A1F, 1)

    def test_phi2_vanishes_at_degree_zero_first_slot(self):
        fd = AlgebraDesc("A", 1, 2, "full", (Fraction(0), Fraction(1)))
        got = L.cocycle(fd, (0, 1), L.elt(fd, ("D", 1, (0, 0))), L.elt(fd, ("D", 2, (3, 1))))
        assert got.is_zero()

    def test_zero_combination(self):
        got = L.cocycle(A1F, (0, 0), L.elt(A1F, ("D", 1, (2,))), L.elt(A1F, ("D", 1, (-1,))))
        assert got.is_zero()

    @pytest.mark.parametrize("spellings", [
        ((2, -3), (Fraction(2), Fraction(-3)), ("2", "-3")),
        ((Fraction(1, 2), 3), (Fraction(1, 2), Fraction(3)), ("1/2", "3")),
    ])
    def test_int_fraction_and_string_coefficients_agree(self, spellings):
        fd = AlgebraDesc("A", 1, 2, "full", spellings[1])
        ders = [L.elt(fd, ("D", i, r)) for r in degree_box(2, -1, 2) for i in (1, 2)]
        for X in ders[::3]:
            for Y in ders[1::2]:
                got = [L.cocycle(fd, c, X, Y) for c in spellings]
                assert got[0] == got[1] == got[2], (X, Y)
                assert got[0].text() == got[1].text() == got[2].text()

    def test_cocycle_identity_phi1(self):
        assert cocycle_identity_check((1, 0), 1, samples=40, seed=3).passed

    def test_cocycle_identity_phi2_n2(self):
        assert cocycle_identity_check((0, 1), 2, samples=40, seed=4).passed

    def test_cocycle_identity_combination(self):
        assert cocycle_identity_check((2, -3), 2, samples=40, seed=5).passed


class TestLieAxioms:
    @pytest.mark.parametrize(
        "desc",
        [
            A1T,
            AlgebraDesc("C", 2, 1, "toroidal"),
            A1F,
            AlgebraDesc("A", 1, 1, "full", (Fraction(2), Fraction(-3))),
        ],
    )
    def test_exhaustive_window(self, desc):
        report = jacobi_check(desc, degree_box(1, -1, 1))
        assert report.passed, report.failures[:1]

    def test_finite_sp4(self):
        assert jacobi_check(C2, [()]).passed

    def test_sampled_n2(self):
        fd = AlgebraDesc("A", 1, 2, "full", (Fraction(1), Fraction(1)))
        assert jacobi_check(fd, degree_box(2, -1, 1), samples=250, seed=9).passed

    def test_defect_injection_has_power(self):
        # perturb one structure constant: the suite must notice
        def bad_bracket(desc, X, Y):
            out = L.bracket(desc, X, Y)
            key = ("f", 0, (0,))
            if key in X.terms and key in Y.terms:
                return out
            if ("f", 0, (1,)) in X.terms and ("f", 1, (-1,)) in Y.terms:
                out = out + L.cartan_h(desc, 1)
            return out

        report = jacobi_check(A1T, degree_box(1, -1, 1), bracket_fn=bad_bracket)
        assert not report.passed


class TestGeneratorWords:
    def test_sl3_word(self):
        fin = AlgebraDesc("A", 2).fin
        word, scalar = fin.generator_word(fin.labels.index("E(1,3)"))
        assert word == ("br", ("x", 1), ("x", 2))
        assert scalar == 1

    def test_single_letters(self):
        fin = AlgebraDesc("A", 2).fin
        assert fin.generator_word(fin.x_index[1]) == (("x", 1), 1)
        assert fin.generator_word(fin.h_index[2]) == (("h", 2), 1)

    def test_sp4_long_root(self):
        fin = C2.fin
        word, scalar = fin.generator_word(fin.labels.index("B(1,1)"))
        assert word == ("br", ("x", 1), ("br", ("x", 1), ("x", 2)))
        assert scalar == 2

    @pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                             ("C", 2), ("C", 3), ("C", 4)])
    def test_words_evaluate_back(self, family, rank):
        fin = FiniteAlgebra(family, rank)
        mats = dense_basis(fin)
        letters = {"x": fin.x_index, "y": fin.y_index, "h": fin.h_index}

        def evaluate(word):
            if word[0] == "br":
                return mat_comm(evaluate(word[1]), evaluate(word[2]))
            return mats[letters[word[0]][word[1]]]

        for m in range(fin.dim):
            word, scalar = fin.generator_word(m)
            # consumers divide by the scalar: it stays a Fraction
            assert isinstance(scalar, Fraction) and scalar
            assert evaluate(word) == tuple(tuple(scalar * x for x in row) for row in mats[m])


class TestTextForms:
    def test_symbol_rendering(self):
        assert L.chevalley_x(A1T, 1, (1,)).text() == "x1(1)"
        assert L.central_k(A1T, 1, (0,)).text() == "K1(0)"
        assert L.cartan_h(A1T, 1, (0,)).text() == "h1(0)"
        t2 = AlgebraDesc("A", 1, 2, "full")
        assert L.derivation(t2, (1, 0), (2, 1)).text() == "D1(2,1)"
        combo = L.derivation(t2, (1, -2), (0, 0))
        assert combo.text() == "D1(0,0) - 2*D2(0,0)"


def _combination(fin, coords):
    """sum c * (basis matrix m) over the (m, c) pairs, in dense Fraction arithmetic."""
    rows = [[Fraction(0)] * fin.size for _ in range(fin.size)]
    for m, c in coords:
        for p, row in enumerate(dense_basis(fin)[m]):
            for q, x in enumerate(row):
                rows[p][q] += c * x
    return tuple(tuple(row) for row in rows)


class TestStructureTables:
    """The integer tables are exactly the matrix realization they come from."""

    @pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                             ("C", 2), ("C", 3), ("C", 4)])
    def test_tables_match_the_realization(self, family, rank):
        fin = FiniteAlgebra(family, rank)
        mats = dense_basis(fin)
        for m1 in range(fin.dim):
            for m2 in range(fin.dim):
                comm = mat_comm(mats[m1], mats[m2])
                entry = fin.table[m1][m2]
                assert dict(entry) == decompose(fin, comm)
                assert _combination(fin, entry) == comm
                assert [m for m, _ in entry] == sorted(m for m, _ in entry)
                # integral constants are stored as ints
                assert all(type(c) is int for _, c in entry if c.denominator == 1)
                assert fin.forms[m1][m2] == mat_trace_prod(mats[m1], mats[m2])

    def test_coords_refuse_a_matrix_outside_the_algebra(self):
        # E_11 has trace 1, so it is not in sl_2
        fin = FiniteAlgebra("A", 1)
        with pytest.raises(StructureError, match="not in the algebra span"):
            fin._coords({(0, 0): 1}, 1)
        with pytest.raises(ValueError, match="not in the span"):
            decompose(fin, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))

    def test_tables_are_built_on_first_use(self):
        fin = FiniteAlgebra("C", 3)
        assert not {"table", "forms", "_words"} & set(vars(fin))
        fin.generator_word(0)
        assert {"table", "_words"} <= set(vars(fin))

    def test_importing_the_cli_builds_no_algebra(self):
        code = ("import torofree.cli; from torofree import algebras; "
                "print(algebras.finite_algebra.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestFrozenRealization:
    """Digests of the realization and of everything derived from it, frozen
    from the dense Fraction builders the sparse integer ones replaced: with
    the table tests and their dense reference now read from one source,
    these pin each basis matrix and each constant entry by entry."""

    REALIZED = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)]

    def test_realization_digest(self):
        h = hashlib.sha256()
        for family, rank in self.REALIZED:
            fin = FiniteAlgebra(family, rank)
            h.update(repr((family, rank, fin.labels, sorted(fin.x_index.items()),
                           sorted(fin.y_index.items()), sorted(fin.h_index.items()))).encode())
            for mat in dense_basis(fin):
                h.update(" ".join(str(x) for row in mat for x in row).encode() + b"\n")
        assert h.hexdigest() == \
            "ae5577846c7ac429ddd76adf39f6cb18f6d0867a77d10662fd640e1501dad8b7"

    def test_constants_digest(self):
        def typed(c):
            return f"{type(c).__name__}:{c}"

        h = hashlib.sha256()
        for family, rank in self.REALIZED + [("A", 8), ("C", 6)]:
            fin = FiniteAlgebra(family, rank)
            h.update(f"{family}{rank}\n".encode())
            for row in fin.table:
                h.update(repr([[(m, typed(c)) for m, c in entry] for entry in row]).encode())
            for row in fin.forms:
                h.update(repr([typed(c) for c in row]).encode())
            for m in range(fin.dim):
                word, scalar = fin.generator_word(m)
                h.update(repr((word, typed(scalar))).encode())
        assert h.hexdigest() == \
            "81a39d339121edd3020b085933cbe7783c8740e0b66a0a61fd05e0fc5b3631dc"


# -- the bracket against the formulas, through the validating constructor -----

PROPERTY_DESCS = [
    AlgebraDesc("A", 1, 1, "toroidal"),
    AlgebraDesc("C", 2, 2, "toroidal"),
    AlgebraDesc("A", 2, 1, "full", (Fraction(2), Fraction(-3))),
    AlgebraDesc("A", 1, 2, "full", (Fraction(1, 2), Fraction(1))),
    AlgebraDesc("A", 0, 1, "witt"),
    AlgebraDesc("A", 0, 2, "witt"),
]


def _reference_bracket(desc, X, Y):
    """[X, Y] summed symbol pair by symbol pair from the defining formulas
    (matrix commutators and trace forms for the finite part), then
    canonicalized by the public constructor."""
    out = {}

    def put(sym, c):
        out[sym] = out.get(sym, 0) + c

    for (k1, i, r), a in X.terms.items():
        for (k2, j, s), b in Y.terms.items():
            c = Fraction(a) * Fraction(b)
            deg = tuple(x + y for x, y in zip(r, s))
            if k1 == k2 == "f":
                fin = desc.fin
                mats = dense_basis(fin)
                comm = mat_comm(mats[i], mats[j])
                for m, v in decompose(fin, comm).items():
                    put(("f", m, deg), c * v)
                form = mat_trace_prod(mats[i], mats[j])
                for p, rp in enumerate(r, 1):
                    put(("K", p, deg), c * form * rp)
            elif k1 == "D" and k2 == "K":
                put(("K", j, deg), c * s[i - 1])
                for p, rp in enumerate(r, 1):
                    put(("K", p, deg), c * rp * (i == j))
            elif k1 == "K" and k2 == "D":
                put(("K", i, deg), -c * r[j - 1])
                for p, sp in enumerate(s, 1):
                    put(("K", p, deg), -c * sp * (i == j))
            elif k1 == k2 == "D":
                put(("D", j, deg), c * s[i - 1])
                put(("D", i, deg), -c * r[j - 1])
                c1, c2 = desc.cocycle
                weight = -c1 * s[i - 1] * r[j - 1] + c2 * r[i - 1] * s[j - 1]
                for p, rp in enumerate(r, 1):
                    put(("K", p, deg), c * weight * rp)
            elif k1 == "D" and k2 == "f":
                put(("f", j, deg), c * s[i - 1])
            elif k1 == "f" and k2 == "D":
                put(("f", i, deg), -c * r[j - 1])
    return L.LieElt(desc, out)


@st.composite
def _elements(draw, desc):
    """A random element: up to four symbols of degree in {-2..2}^n, central
    ones in any index (so K_{j*}(r) is reduced too), rational coefficients."""
    n = desc.loop_vars
    degree = st.tuples(*[st.integers(-2, 2)] * n)
    kinds = {"toroidal": "fKD", "full": "fKD", "witt": "D"}[desc.variant]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "f":
            sym = ("f", draw(st.integers(0, desc.fin.dim - 1)), draw(degree))
        elif kind == "K":
            sym = ("K", draw(st.integers(1, n)), draw(degree))
        else:
            r = desc.zero_degree() if desc.variant == "toroidal" else draw(degree)
            sym = ("D", draw(st.integers(1, n)), r)
        terms[sym] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
    return L.LieElt(desc, terms)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bracket_matches_the_reference_bracket(data):
    desc = data.draw(st.sampled_from(PROPERTY_DESCS))
    X = data.draw(_elements(desc))
    Y = data.draw(_elements(desc))
    got = L.bracket(desc, X, Y)
    assert got == _reference_bracket(desc, X, Y)
    assert got + L.bracket(desc, Y, X) == L.LieElt(desc)
