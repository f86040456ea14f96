import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import base_action_factor_lists, factor_counts, mk_spec
from torofree import liealg, repmods as R
from torofree.algebras import AlgebraDesc, window_degrees
from torofree.checks import random_poly
from torofree.errors import DomainError, StructureError
from torofree.polyalg import SLOT_BITS, Poly, ShiftOperator, shift_sigma, shift_tau
from torofree.repmods import Generator, ModuleSpec, act, parse_generator


class TestSpecValidation:
    def test_lambda_must_be_nonzero(self):
        with pytest.raises(StructureError):
            mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(0,))

    def test_base_a_nonzero(self):
        with pytest.raises(StructureError):
            mk_spec(rank=1, base_a=(0,))

    def test_b_must_be_d_only(self):
        bad = Poly.H(1, 1, 1)
        with pytest.raises(StructureError):
            mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(2,), base_b=bad)

    def test_b_scalar_for_loop_variants(self):
        b = Poly.d(1, 1, 1)
        with pytest.raises(StructureError, match="scalar"):
            mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(2,), base_b=b)
        # allowed for the trivial extension
        mk_spec(rank=1, loop_vars=1, variant="finite", base_b=b)

    def test_c_family_has_no_b(self):
        with pytest.raises(StructureError):
            mk_spec(family="C", rank=2, base_a=(1, 1), base_b=1)

    def test_witt_a_presence(self):
        with pytest.raises(StructureError):
            mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,))
        with pytest.raises(StructureError):
            mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(2,), witt_a=1)

    def test_s_range(self):
        with pytest.raises(StructureError):
            mk_spec(rank=1, S={3})
        with pytest.raises(StructureError):
            mk_spec(family="C", rank=2, base_a=(1, 1), S={3})


class TestBaseActionA:
    def test_x1_on_one(self, sl2_finite):
        xs, ys = R.base_action_polys(sl2_finite)
        assert xs[0] == Poly.const(1, 0, 2)

    def test_y1_on_one(self, sl2_finite):
        # a^{-1} (H_1 - 3)(-H_1 - 4), frozen from direct substitution
        _, ys = R.base_action_polys(sl2_finite)
        assert ys[0] == Poly.parse("-1/2*H1^2 - 1/2*H1 + 6", 1, 0)

    def test_cartan_multiplies(self, sl2_finite):
        H = Poly.H(1, 0, 1)
        assert act(sl2_finite, Generator("h", 1), H) == H * H

    def test_bracket_gives_coroot(self, sl2_finite):
        desc = sl2_finite.algebra
        br = liealg.bracket(desc, liealg.chevalley_x(desc, 1), liealg.chevalley_y(desc, 1))
        got = R.act_element(sl2_finite, br, sl2_finite.one())
        assert got == 2 * Poly.H(1, 0, 1)


class TestBaseActionC:
    def setup_method(self):
        self.spec = mk_spec(family="C", rank=2, base_a=(1, 1), S={1, 2})

    def test_x1_resolved_value(self):
        xs, _ = R.base_action_polys(self.spec)
        assert xs[0] == Poly.parse("2*H2 - H1 + 1/2", 2, 0)

    def test_x2_in_branch(self):
        xs, _ = R.base_action_polys(self.spec)
        assert xs[1] == Poly.const(2, 0, 1)

    def test_cartan_multiplies(self):
        H1, H2 = Poly.H(2, 0, 1), Poly.H(2, 0, 2)
        assert act(self.spec, Generator("h", 2), H1) == H1 * H2

    def test_coroots_from_brackets(self):
        desc = self.spec.algebra
        one = self.spec.one()
        H1, H2 = Poly.H(2, 0, 1), Poly.H(2, 0, 2)
        for i, coroot in ((1, 2 * H1 - 2 * H2), (2, 2 * H2 - H1)):
            br = liealg.bracket(
                desc, liealg.chevalley_x(desc, i), liealg.chevalley_y(desc, i)
            )
            assert R.act_element(self.spec, br, one) == coroot

    @pytest.mark.parametrize("S", [(), (1,), (2,), (1, 2)])
    def test_all_patterns_bracket_compatible(self, S):
        from torofree.verify import bracket_compat_check

        spec = mk_spec(family="C", rank=2, base_a=(3, -2), S=S)
        assert bracket_compat_check(spec, samples=6, seed=1).passed


class TestFactorLists:
    @staticmethod
    def _specs():
        for l in (1, 2, 3, 4):
            for k in range(l + 2):
                for S in itertools.combinations(range(1, l + 2), k):
                    yield "A", l, S, mk_spec(rank=l, base_b=Fraction(1, 3), S=S)
        for l in (2, 3, 4):
            for k in range(l + 1):
                for S in itertools.combinations(range(1, l + 1), k):
                    yield "C", l, S, mk_spec(family="C", rank=l, S=S)

    def test_counts_are_the_list_lengths(self):
        for family, l, S, spec in self._specs():
            xs_f, ys_f = base_action_factor_lists(spec)
            want = (tuple(map(len, xs_f)), tuple(map(len, ys_f)))
            assert factor_counts(family, l, S) == want, (family, l, S)

    def test_counts_are_the_h_degrees(self):
        # each factor is affine in H with a nonzero H part
        for family, l, S, spec in self._specs():
            xs, ys = R.base_action_polys(spec)
            degrees = tuple(tuple(p.total_degree() for p in side) for side in (xs, ys))
            assert factor_counts(family, l, S) == degrees, (family, l, S)

    def test_the_factors_are_instantiated_once_per_spec(self, monkeypatch):
        # the factor lists, the affine forms and the base action polynomials
        # read one instantiation of the table
        reads = []
        table = R.factor_table

        def counted(*args):
            reads.append(args)
            return table(*args)

        monkeypatch.setattr(R, "factor_table", counted)
        spec = mk_spec(rank=3, base_b=Fraction(5, 11), S={2})
        for _ in range(2):
            base_action_factor_lists(spec)
            R.affine_factors(spec)
            R.base_action_polys(spec)
        assert reads == [("A", 3, frozenset({2}))]

    def test_lists_are_immutable_tuples(self):
        spec = mk_spec(rank=2, base_b=1, S={1})
        lists = base_action_factor_lists(spec)
        assert all(isinstance(fs, tuple) for side in lists for fs in (side, *side))


class TestAffineFactors:
    """affine_factors holds each factor as an integer row over H and an
    integer constant; the d-carrying factors are None."""

    @staticmethod
    def _specs():
        for l in range(1, 6):
            for k in range(l + 2):
                for S in itertools.combinations(range(1, l + 2), k):
                    for b in (0, 1, Fraction(1, 2), -3):
                        yield mk_spec(rank=l, base_b=b, S=S)
        for l in range(2, 6):
            for k in range(l + 1):
                for S in itertools.combinations(range(1, l + 1), k):
                    yield mk_spec(family="C", rank=l, S=S)

    def test_each_form_is_its_factor_up_to_a_unit(self):
        for spec in self._specs():
            l, n = spec.ranks
            lists = base_action_factor_lists(spec)
            forms = R.affine_factors(spec)
            assert [list(map(len, side)) for side in forms] \
                == [list(map(len, side)) for side in lists]
            for f, (row, c) in zip(itertools.chain(*lists[0], *lists[1]),
                                   itertools.chain(*forms[0], *forms[1])):
                assert len(row) == l and any(row)
                assert all(type(x) is int for x in (*row, c))
                g = Poly.const(l, n, c)
                for k, x in enumerate(row, 1):
                    g = g + Poly.H(l, n, k).scale(x)
                unit = g.leading()[1] / f.leading()[1]
                assert g == f.scale(unit), (spec.algebra, spec.S, f)

    def test_an_equal_spec_returns_the_cached_forms(self):
        forms = R.affine_factors(mk_spec(rank=2, base_b=1, S={1}))
        assert R.affine_factors(mk_spec(rank=2, base_b=1, S={1})) is forms

    def test_exactly_the_d_carrying_factors_are_marked(self):
        # on finite A_2 with a loop variable, b = d1 enters every factor and a
        # scalar b none
        d1, half = Poly.d(2, 1, 1), Poly.const(2, 1, Fraction(1, 2))
        marked = kept = 0
        for k in range(4):
            for S in itertools.combinations(range(1, 4), k):
                for b in (d1, half):
                    spec = mk_spec(rank=2, loop_vars=1, base_b=b, S=S)
                    lists = base_action_factor_lists(spec)
                    forms = R.affine_factors(spec)
                    for f, form in zip(itertools.chain(*lists[0], *lists[1]),
                                       itertools.chain(*forms[0], *forms[1])):
                        carries_d = any(exp[2] for exp in f.terms)
                        assert (form is None) == carries_d == (b is d1), (S, f)
                        marked += form is None
                        kept += form is not None
        assert marked and kept


# -- the Poly-arithmetic reference for factor_table --------------------------------


def _hvar(l, n, i):
    """H_i with the convention H_0 = H_(l+1) = 0."""
    return Poly.H(l, n, i) if 1 <= i <= l else Poly.zero(l, n)


def reference_factor_lists(spec):
    """The linear factors of each x_i.1 and y_i.1 (unit scalars omitted),
    built by Poly arithmetic from the printed formulas, independently of
    repmods.factor_table."""
    if spec.algebra.variant == "witt":
        return ((), ())
    l, n = spec.ranks
    b, S, half = spec.base_b, spec.S, Fraction(1, 2)
    xs, ys = [], []
    if spec.algebra.family == "A":
        for i in range(1, l + 1):
            u = _hvar(l, n, i) - _hvar(l, n, i - 1)
            v = _hvar(l, n, i + 1) - _hvar(l, n, i)
            xs.append(([] if i in S else [u - b - 1]) + ([v - b] if i + 1 in S else []))
            ys.append(([u - b] if i in S else []) + ([] if i + 1 in S else [v - b - 1]))
        return tuple(map(tuple, xs)), tuple(map(tuple, ys))
    for k in range(1, l):
        u = _hvar(l, n, k) - _hvar(l, n, k - 1)
        B = _hvar(l, n, k + 1).scale(2 if k == l - 1 else 1) - _hvar(l, n, k)
        xs.append(([] if k in S else [u - half]) + ([B + half] if k + 1 in S else []))
        ys.append(([u + half] if k in S else []) + ([] if k + 1 in S else [B - half]))
    A = _hvar(l, n, l) - _hvar(l, n, l - 1).scale(half)
    xs.append([] if l in S else [A - Fraction(3, 4), A - Fraction(1, 4)])
    ys.append([A + Fraction(3, 4), A + Fraction(1, 4)] if l in S else [])
    return tuple(map(tuple, xs)), tuple(map(tuple, ys))


def reference_affine_factors(spec):
    """The reference factors as (row, c), read off their numerator keys; None
    for a factor that carries d."""
    units = [1 << SLOT_BITS * k for k in range(spec.ranks[0])]

    def form(f):
        if f.nums.keys() <= {0, *units}:
            return tuple(f.nums.get(u, 0) for u in units), f.nums.get(0, 0)
        return None

    return tuple(tuple(tuple(map(form, fs)) for fs in side)
                 for side in reference_factor_lists(spec))


def reference_base_action_polys(spec):
    """a_i (1/a_i) times the product of the reference factors of x_i.1 (y_i.1),
    the C_l quadratic negated."""
    xs_f, ys_f = reference_factor_lists(spec)
    quad_row = spec.ranks[0] if spec.algebra.family == "C" else 0
    xs, ys = [], []
    for i, a_i in enumerate(spec.base_a, start=1):
        for out, factors, scalar in ((xs, xs_f[i - 1], a_i), (ys, ys_f[i - 1], 1 / a_i)):
            p = spec.one()
            for f in factors:
                p = p * f
            out.append(p.scale(-scalar if i == quad_row and factors else scalar))
    return xs, ys


def _subsets(top):
    return [S for k in range(top + 1) for S in itertools.combinations(range(1, top + 1), k)]


TABLE_BS = (0, 1, -2, Fraction(1, 3), Fraction(-4, 3), Fraction(5, 7),
            Fraction(10**20 + 1, 7), Fraction(-1, 2))


def _table_grid():
    """A_1-A_4 over every S and TABLE_BS, finite (n = 0), toroidal (n = 1) and
    finite at n = 2 with a d-polynomial b; C_2-C_5 over every S."""
    specs = []
    for l in range(1, 5):
        a = tuple(Fraction(-3, 2) ** k for k in range(l))
        d1, d2 = Poly.d(l, 2, 1), Poly.d(l, 2, 2)
        for S in _subsets(l + 1):
            for b in TABLE_BS:
                specs.append(mk_spec(rank=l, base_a=a, base_b=b, S=S))
                specs.append(mk_spec(rank=l, loop_vars=1, variant="toroidal", lam=(3,),
                                     base_a=a, base_b=b, S=S))
                specs.append(mk_spec(rank=l, loop_vars=2, base_a=a, S=S,
                                     base_b=(d1 - d1 * d2.scale(Fraction(2, 3))) + b))
    for l in range(2, 6):
        for S in _subsets(l):
            specs.append(mk_spec(family="C", rank=l, base_a=(Fraction(5, 4),) * l, S=S))
    return specs


TABLE_GRID = _table_grid()


def _integer_forms(lists):
    return [[[(f.den, f.nums) for f in fs] for fs in side] for side in lists]


class TestFactorTable:
    """factor_table, instantiated at each spec's b, against the Poly-arithmetic
    reference."""

    def test_factor_lists_match_the_reference(self):
        for spec in TABLE_GRID:
            assert _integer_forms(base_action_factor_lists(spec)) \
                == _integer_forms(reference_factor_lists(spec)), (spec.algebra, spec.S)

    def test_affine_factors_match_the_reference_keys(self):
        for spec in TABLE_GRID:
            assert R.affine_factors(spec) == reference_affine_factors(spec), (spec.algebra, spec.S)

    def test_base_action_polys_match_the_reference_products(self):
        for spec in TABLE_GRID:
            got, want = R.base_action_polys(spec), reference_base_action_polys(spec)
            assert [[(p.den, p.nums) for p in side] for side in got] \
                == [[(p.den, p.nums) for p in side] for side in want], (spec.algebra, spec.S)

    def test_a_spilling_d_factor_product_is_refused(self):
        # b = d^40000: two d-carrying factors in one x_1.1 or y_1.1 would hold
        # d^80000, past the exponent limit; one factor per side fits
        b = Poly(1, 1, {(0, 40000): 1})
        x1 = Generator("x", 1)
        for S in ({1}, {2}):
            spec = mk_spec(rank=1, loop_vars=1, base_b=b, S=S)
            with pytest.raises(DomainError):
                R.base_action_polys(spec)
            with pytest.raises(DomainError):
                act(spec, x1, spec.one())
        for S in ((), {1, 2}):
            spec = mk_spec(rank=1, loop_vars=1, base_b=b, S=S)
            xs, ys = R.base_action_polys(spec)
            assert xs[0].total_degree() == ys[0].total_degree() == 40000, S
            assert act(spec, x1, spec.one()).total_degree() == 40000, S

    def test_factor_counts_are_the_reference_lengths(self):
        for spec in TABLE_GRID:
            alg = spec.algebra
            want = tuple(tuple(map(len, side)) for side in reference_factor_lists(spec))
            assert factor_counts(alg.family, alg.rank, spec.S) == want, (alg, spec.S)
            assert factor_counts(alg.family, alg.rank, sorted(spec.S)) == want

    def test_entries_are_integers_and_the_table_is_shared(self):
        for family, l, S in [("A", l, S) for l in range(1, 5) for S in _subsets(l + 1)] \
                + [("C", l, S) for l in range(2, 6) for S in _subsets(l)]:
            table = R.factor_table(family, l, frozenset(S))
            assert R.factor_table(family, l, frozenset(S)) is table
            for row, c0, cb, den in itertools.chain(*table[0], *table[1]):
                assert len(row) == l and any(row) and den > 0
                assert all(type(x) is int for x in (*row, c0, cb, den))
                assert cb == (-1 if family == "A" else 0)


class TestToroidal:
    def test_cartan_loop_action(self, sl2_toroidal):
        H, d = Poly.H(1, 1, 1), Poly.d(1, 1, 1)
        got = act(sl2_toroidal, Generator("h", 1, (1,)), d)
        assert got == 5 * H * (d - 1)

    def test_center_kills(self, sl2_toroidal):
        p = Poly.parse("H1^2*d1 - 3", 1, 1)
        assert act(sl2_toroidal, Generator("K", 1, (2,)), p).is_zero()

    def test_x_at_degree_two(self, sl2_toroidal):
        got = act(sl2_toroidal, Generator("x", 1, (2,)), sl2_toroidal.one())
        assert got == Poly.const(1, 1, 50)

    def test_degree_zero_derivation_multiplies(self, sl2_toroidal):
        p = Poly.parse("H1*d1", 1, 1)
        assert act(sl2_toroidal, Generator("D", 1, (0,)), p) == Poly.d(1, 1, 1) * p

    def test_nonzero_derivation_rejected(self, sl2_toroidal):
        with pytest.raises(DomainError):
            act(sl2_toroidal, Generator("D", 1, (1,)), sl2_toroidal.one())

    def test_lam_pow_is_the_product_of_powers(self):
        spec = mk_spec(rank=1, loop_vars=3, variant="toroidal", lam=(Fraction(-7, 2), 3, 1),
                       base_a=(2,), base_b=3, S={1})
        for r in itertools.product(range(-3, 4), repeat=3):
            want = Fraction(-7, 2) ** r[0] * Fraction(3) ** r[1]
            assert spec.lam_pow(r) == want, r
        assert spec.lam_pow((0, 0, 0)) == 1

    def test_lam_pow_oversized_degree_raises(self, sl2_toroidal):
        with pytest.raises(DomainError):
            sl2_toroidal.lam_pow((10**6,))


class TestWittAndFull:
    def test_witt_shift(self):
        spec = mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=0)
        d = Poly.d(0, 1, 1)
        assert act(spec, Generator("D", 1, (1,)), spec.one()) == 2 * (d - 1)

    def test_witt_zero_shift_multiplies(self):
        spec = mk_spec(rank=0, loop_vars=2, variant="witt", lam=(2, 3), witt_a=5)
        f = Poly.parse("d1^2*d2", 0, 2)
        assert act(spec, Generator("D", 2, (0, 0)), f) == Poly.d(0, 2, 2) * f

    def test_witt_affine_term_vanishes(self):
        spec = mk_spec(rank=0, loop_vars=2, variant="witt", lam=(1, 1), witt_a=-1)
        d1, d2 = Poly.d(0, 2, 1), Poly.d(0, 2, 2)
        f = d1 * d2
        got = act(spec, Generator("D", 1, (1, 1)), f)
        assert got == d1 * (d1 - 1) * (d2 - 1)

    def test_full_negative_degree(self):
        spec = mk_spec(
            rank=1, loop_vars=1, variant="full", cocycle=(1, 0),
            lam=(2,), witt_a=1, base_a=(2,), base_b=3, S={1},
        )
        d = Poly.d(1, 1, 1)
        got = act(spec, Generator("D", 1, (-1,)), d)
        assert got == ((d + 1) * (d + 2)).scale(Fraction(1, 2))

    def test_full_center_kills(self):
        spec = mk_spec(
            rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0, base_a=(2,), S={1},
        )
        assert act(spec, Generator("K", 1, (3,)), spec.one()).is_zero()

    def test_witt_carrier_is_d_only(self):
        spec = mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=0)
        with pytest.raises(StructureError):
            act(spec, Generator("D", 1, (1,)), Poly.H(1, 1, 1))


class TestElementsAndWords:
    def test_empty_word_is_identity(self, sl2_toroidal):
        p = Poly.parse("H1*d1 - 2", 1, 1)
        assert R.act_word(sl2_toroidal, [], p) == p

    def test_cartan_word_squares(self, sl2_toroidal):
        H = Poly.H(1, 1, 1)
        got = R.act_word(
            sl2_toroidal, [Generator("h", 1, (0,)), Generator("h", 1, (0,))],
            sl2_toroidal.one(),
        )
        assert got == H * H

    def test_word_matches_bracket(self, sl2_toroidal):
        desc = sl2_toroidal.algebra
        one = sl2_toroidal.one()
        gx, gy = Generator("x", 1, (0,)), Generator("y", 1, (0,))
        direct = R.act_word(sl2_toroidal, [gx, gy], one) - R.act_word(
            sl2_toroidal, [gy, gx], one
        )
        br = liealg.bracket(
            desc, liealg.chevalley_x(desc, 1), liealg.chevalley_y(desc, 1)
        )
        assert direct == R.act_element(sl2_toroidal, br, one)

    def test_root_vector_via_word(self):
        spec = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(3,),
                       base_a=(2, -1), base_b=Fraction(1, 3), S={1, 3})
        desc = spec.algebra
        fin = desc.fin
        idx = fin.labels.index("E(1,3)")
        p = Poly.parse("H1*d1 + H2", 2, 1)
        via_elt = R.act_element(spec, liealg.elt(desc, ("f", idx, (1,))), p)
        # E(1,3) = [x_1, x_2] with scalar 1; put the loop degree on the first letter
        gx1 = Generator("x", 1, (1,))
        gx2 = Generator("x", 2, (0,))
        direct = act(spec, gx1, act(spec, gx2, p)) - act(spec, gx2, act(spec, gx1, p))
        assert via_elt == direct

    def test_linearity_zero(self, sl2_toroidal):
        zero_elt = liealg.LieElt(sl2_toroidal.algebra)
        assert R.act_element(sl2_toroidal, zero_elt, sl2_toroidal.one()).is_zero()


class TestStructuralProperties:
    def test_eva_twist_consistency(self, sl2_toroidal):
        from torofree.verify import eva_twist_check

        assert eva_twist_check(sl2_toroidal, samples=5, seed=2).passed

    def test_tensor_factorization(self, sl2_toroidal):
        # act on g(H) * q(d): x_i(r) / y_i(r) touch g only via sigma_i^{+-1} and
        # q only via tau^r and lambda^r
        a2_full = mk_spec(rank=2, loop_vars=2, variant="full", cocycle=(1, 0),
                          lam=(Fraction(2, 3), -5), witt_a=Fraction(1, 2),
                          base_a=(3, Fraction(-1, 2)), base_b=Fraction(5, 3), S={1, 3})
        cases = [
            (sl2_toroidal, "H1^2 - 3*H1", "d1^3 + 2*d1",
             [Generator("x", 1, (2,)), Generator("y", 1, (2,))]),
            (a2_full, "H1^2*H2 - 3/2*H2 + 7", "d1^2*d2 - d2 + 1/3",
             [Generator("x", 2, (1, -2)), Generator("y", 1, (-1, 3)),
              Generator("y", 2, (0, 2)), Generator("x", 1, (0, 0))]),
        ]
        for spec, g_text, q_text, gens in cases:
            g, q = (Poly.parse(t, *spec.ranks) for t in (g_text, q_text))
            xs, ys = R.base_action_polys(spec)
            for gen in gens:
                base, k = (xs, 1) if gen.kind == "x" else (ys, -1)
                expect = shift_sigma(gen.index, k, g) * shift_tau(gen.r, q) * base[gen.index - 1]
                assert act(spec, gen, g * q) == expect.scale(spec.lam_pow(gen.r)), gen

    def test_freeness(self, sl2_toroidal):
        from torofree.verify import freeness_check

        assert freeness_check(sl2_toroidal, samples=10, seed=0).passed


OPERATOR_PANEL = [
    mk_spec(rank=1, base_a=(2,), base_b=3, S={1}),
    mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(5,), base_a=(2,), base_b=3, S={1}),
    mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(2, -3), lam=(2,), witt_a=1,
            base_a=(2,), base_b=1, S={1, 2}),
    mk_spec(rank=2, base_a=(2, -1), base_b=Fraction(1, 3), S={2}),
    mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(3,), base_a=(2, -1),
            base_b=Fraction(1, 3), S=()),
    mk_spec(rank=2, loop_vars=1, variant="full", cocycle=(1, 0), lam=(Fraction(2, 3),),
            witt_a=0, base_a=(1, 1), base_b=2, S={1, 3}),
    mk_spec(family="C", rank=2, base_a=(1, 1), S={1, 2}),
    mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal", lam=(2,),
            base_a=(3, -2), S={1}),
    mk_spec(family="C", rank=2, loop_vars=1, variant="full", cocycle=(0, 1), lam=(-2,),
            witt_a=5, base_a=(1, 1), S=()),
    mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=Fraction(-1, 2)),
]


def _panel_id(spec):
    alg = spec.algebra
    return f"{alg.family}{alg.rank}-{alg.variant}"


class TestOperators:
    WINDOW = [(-1,), (0,), (1,)]

    @pytest.mark.parametrize("spec", OPERATOR_PANEL, ids=_panel_id)
    def test_composition_is_acting_twice(self, spec):
        rng = random.Random(7)
        window = window_degrees(spec.algebra, self.WINDOW)
        ops = [R.generator_operator(spec, g) for g in R.generators_for(spec, window)]
        polys = [random_poly(rng, *spec.ranks, max_total_deg=3, max_terms=4) for _ in range(3)]
        for k, (A, B) in enumerate(itertools.product(ops, ops)):
            p = polys[k % len(polys)]
            assert A.compose(B).apply(p) == A.apply(B.apply(p))

    @pytest.mark.parametrize("spec", OPERATOR_PANEL, ids=_panel_id)
    def test_generator_operators_are_single_terms(self, spec):
        window = window_degrees(spec.algebra, self.WINDOW)
        for gen in R.generators_for(spec, window):
            op = R.generator_operator(spec, gen)
            assert len(op.terms) == (0 if gen.kind == "K" else 1), gen

    @pytest.mark.parametrize("spec", OPERATOR_PANEL, ids=_panel_id)
    def test_word_letters_are_the_listed_generators(self, spec):
        # a black-box memo keyed by generators then finds each by identity
        window = window_degrees(spec.algebra, self.WINDOW)
        listed = {id(g) for g in R.generators_for(spec, window)}

        def letters(word):
            if isinstance(word, Generator):
                yield word
            else:
                for part in word:
                    yield from letters(part)

        for X in liealg.basis_of(spec.algebra, self.WINDOW):
            (sym,) = X.terms
            for g in letters(R._symbol_word(spec.algebra, sym)[0]):
                assert id(g) in listed, (sym, g)
        assert R.generators_for(spec, window) == R.generators_for(spec, list(window))

    @pytest.mark.parametrize("spec", OPERATOR_PANEL, ids=_panel_id)
    def test_basis_operators_match_the_word_walker(self, spec):
        rng = random.Random(11)

        def walker(spec_, gen, p):  # not repmods.act itself: forces the word walker
            return R.act(spec_, gen, p)

        for X in liealg.basis_of(spec.algebra, self.WINDOW):
            p = random_poly(rng, *spec.ranks, max_total_deg=3, max_terms=4)
            assert R.element_operator(spec, X).apply(p) == R.act_element(spec, X, p, walker), X

    @pytest.mark.parametrize("spec", OPERATOR_PANEL, ids=_panel_id)
    def test_element_operator_is_the_sum_of_scaled_basis_operators(self, spec):
        basis = liealg.basis_of(spec.algebra, self.WINDOW)
        l, n = spec.ranks
        assert R.element_operator(spec, liealg.LieElt(spec.algebra)) == ShiftOperator(l, n)
        X = liealg.LieElt(spec.algebra)
        want = ShiftOperator(l, n)
        for k, B in enumerate(basis):
            c = (1, Fraction(-2, 3), 5)[k % 3]
            X = X + B.scale(c)
            want = want + R.element_operator(spec, B).scale(c)
        assert R.element_operator(spec, X) == want

    def test_generator_elements_are_built_once(self, sl2_toroidal):
        desc = sl2_toroidal.algebra
        g = Generator("x", 1, (1,))
        elt = R._as_elt(desc, g)
        assert elt == liealg.chevalley_x(desc, 1, (1,))
        assert R._as_elt(AlgebraDesc("A", 1, 1, "toroidal"), parse_generator("x1(1)", 1)) is elt
        # the bracket is a new element each time: the cached ones are never handed out
        br = R.generator_bracket(sl2_toroidal, g, Generator("y", 1, (0,)))
        assert br is not elt and br == liealg.bracket(desc, elt, liealg.chevalley_y(desc, 1, (0,)))

    def test_invalid_generators_raise_without_a_polynomial(self, sl2_toroidal):
        with pytest.raises(DomainError):
            R.generator_operator(sl2_toroidal, Generator("D", 1, (1,)))
        with pytest.raises(StructureError):
            R.generator_operator(sl2_toroidal, Generator("x", 2, (0,)))
        with pytest.raises(StructureError):
            R.generator_operator(sl2_toroidal, Generator("x", 1, (0, 0)))


def reference_operator(spec, gen):
    """The operator of one generator through the validating ShiftOperator
    constructor: lambda^r as a Fraction times the reference x_i.1, y_i.1,
    H_i or d_j - r_j(a + 1), and zero for the center."""
    l, n = spec.ranks
    r = gen.r or (0,) * n
    lam = Fraction(1)
    for lam_j, r_j in zip(spec.lam, r):
        lam *= lam_j**r_j
    tau = (0,) * l + tuple(r)
    if gen.kind == "K":
        return ShiftOperator(l, n)
    if gen.kind == "D":
        f = Poly.d(l, n, gen.index)
        if spec.algebra.variant in ("witt", "full"):
            f = f - r[gen.index - 1] * (spec.witt_a + 1)
        return ShiftOperator(l, n, {tau: f.scale(lam)})
    if gen.kind == "h":
        return ShiftOperator(l, n, {tau: Poly.H(l, n, gen.index).scale(lam)})
    xs, ys = reference_base_action_polys(spec)
    u = list(tau)
    u[gen.index - 1] = 1 if gen.kind == "x" else -1
    return ShiftOperator(l, n, {tuple(u): (xs if gen.kind == "x" else ys)[gen.index - 1].scale(lam)})


def _height_panel():
    """The shapes of the axioms workload's panel (A_1, A_2, C_2 finite, toroidal
    and full, and Witt) with lambda, a, b and witt_a near 10, 1e8 and 1e20."""
    specs = []
    for height, h in (("10", Fraction(10, 3)), ("1e8", Fraction(10**8 + 7, 9)),
                      ("1e20", Fraction(-(10**20 + 3), 7))):
        at = len(specs)
        for family, rank, S in (("A", 1, {1}), ("A", 2, {1, 3}), ("C", 2, {2})):
            a = tuple(h / (k + 2) for k in range(rank))
            b = h / 5 if family == "A" else 0
            specs.append(mk_spec(family=family, rank=rank, base_a=a, base_b=b, S=S))
            specs.append(mk_spec(family=family, rank=rank, loop_vars=1, variant="toroidal",
                                 lam=(h,), base_a=a, base_b=b, S=S))
            specs.append(mk_spec(family=family, rank=rank, loop_vars=1, variant="full",
                                 cocycle=(1, -2), lam=(-1 / h,), witt_a=h / 3, base_a=a,
                                 base_b=b, S=S))
        specs.append(mk_spec(rank=0, loop_vars=1, variant="witt", lam=(h,), witt_a=h / 7))
        specs[at:] = [pytest.param(s, id=f"{_panel_id(s)}-{height}") for s in specs[at:]]
    return specs


class TestOperatorReference:
    """generator_operator's trusted one-term operators against the validating
    constructor, at every generator kind, heights up to 1e20 and r in -2..2."""

    @pytest.mark.parametrize("spec", _height_panel())
    def test_operators_and_their_action_match_the_reference(self, spec):
        rng = random.Random(5)
        window = window_degrees(spec.algebra, [(r,) for r in range(-2, 3)])
        gens = R.generators_for(spec, window)
        variant, n = spec.algebra.variant, spec.algebra.loop_vars
        kinds = ({"D"} if n else set()) | (set() if variant == "witt" else {"x", "y", "h"})
        assert {g.kind for g in gens} == kinds | ({"K"} if variant in ("toroidal", "full") else set())
        polys = [random_poly(rng, *spec.ranks, max_total_deg=3, max_terms=4) for _ in range(2)]
        for gen in gens:
            op, want = R.generator_operator(spec, gen), reference_operator(spec, gen)
            assert op == want, gen
            for p in polys:
                assert op.apply(p) == want.apply(p) == act(spec, gen, p), gen

    @pytest.mark.parametrize("lam", [(2, Fraction(1, 2)), (Fraction(-4, 9), Fraction(3, 2))])
    def test_two_loop_variables(self, lam):
        # lambda^r as a numerator and denominator that need not be coprime
        spec = mk_spec(rank=2, loop_vars=2, variant="full", cocycle=(1, 1), lam=lam,
                       witt_a=Fraction(-5, 3), base_a=(3, Fraction(-1, 2)), base_b=Fraction(2, 7),
                       S={2})
        window = [(r1, r2) for r1 in range(-2, 3) for r2 in range(-2, 3)]
        p = Poly.parse("H1*H2*d1 - 2/3*d2^2 + H2", 2, 2)
        for gen in R.generators_for(spec, window):
            op, want = R.generator_operator(spec, gen), reference_operator(spec, gen)
            assert op == want and op.apply(p) == want.apply(p), gen

    @pytest.mark.parametrize("kind", ["x", "y", "h", "K"])
    def test_digit_limit_reaches_the_operator_and_the_action(self, sl2_toroidal, kind):
        gen = Generator(kind, 1, (10**6,))
        with pytest.raises(DomainError, match="digit limit"):
            R.generator_operator(sl2_toroidal, gen)
        with pytest.raises(DomainError, match="digit limit"):
            act(sl2_toroidal, Generator(kind, 1, (-(10**6),)), sl2_toroidal.one())

    def test_unit_lambda_has_no_digit_limit(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(-1,), base_a=(2,),
                       base_b=3, S={1})
        for r in (10**6, 10**6 + 1):
            gen = Generator("x", 1, (r,))
            assert R.generator_operator(spec, gen) == reference_operator(spec, gen)


class TestGeneratorLiterals:
    def test_parse_forms(self):
        assert parse_generator("x1(2,0)", 2) == Generator("x", 1, (2, 0))
        assert parse_generator("h2(1)", 1) == Generator("h", 2, (1,))
        assert parse_generator("K1(0)", 1) == Generator("K", 1, (0,))
        assert parse_generator("D1(2,1)", 2) == Generator("D", 1, (2, 1))
        assert parse_generator("d2", 3) == Generator("D", 2, (0, 0, 0))
        assert parse_generator("x1", 1) == Generator("x", 1, (0,))
        assert parse_generator("d1(0,0)", 2) == Generator("D", 1, (0, 0))
        assert parse_generator("d1()", 2) == Generator("D", 1, (0, 0))

    def test_bad_literals(self):
        with pytest.raises(StructureError):
            parse_generator("z1(0)", 1)
        with pytest.raises(StructureError):
            parse_generator("x1(1,2)", 1)  # wrong degree length
        for text in ("d1(0)", "d1(00)", "d1(1,0)"):  # d<i> degree: n zeros
            with pytest.raises(StructureError):
                parse_generator(text, 2)


class TestJson:
    def test_round_trip_examples(self):
        specs = [
            mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(1, 0),
                    lam=(2,), witt_a=0, base_a=(2,), base_b=3, S={1}),
            mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                    lam=(Fraction(-2, 3),), base_a=(1, 5), S={2}),
            mk_spec(rank=0, loop_vars=2, variant="witt", lam=(2, -3), witt_a=-1),
            mk_spec(rank=2, loop_vars=1, base_a=(1, 1),
                    base_b=Poly.parse("d1^2 - 1/2", 2, 1), S=()),
        ]
        for spec in specs:
            blob = json.dumps(R.spec_to_json(spec), sort_keys=True)
            back = R.spec_from_json(json.loads(blob))
            assert back == spec

    def test_wire_format_matches_documented_shape(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(1, 0),
                       lam=(2,), witt_a=0, base_a=(2,), base_b=3, S={1})
        data = R.spec_to_json(spec)
        assert data == {
            "algebra": {
                "family": "A", "rank": 1, "loop_vars": 1, "variant": "full",
                "cocycle": [1, 0],
            },
            "lambda": ["2"], "witt_a": "0", "base_a": ["2"], "base_b": "3", "S": [1],
        }

    def test_rationals_as_strings(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="toroidal",
                       lam=(Fraction(3, 2),), base_a=(Fraction(-1, 7),), base_b=0, S=())
        data = R.spec_to_json(spec)
        assert data["lambda"] == ["3/2"] and data["base_a"] == ["-1/7"]

    def test_malformed(self):
        with pytest.raises(StructureError):
            R.spec_from_json({})
        with pytest.raises(StructureError):
            R.spec_from_json({"algebra": {"family": "A", "rank": 1}})
        with pytest.raises(StructureError):
            R.spec_from_json(
                {"algebra": {"family": "A", "rank": 1, "variant": "finite"},
                 "base_a": ["1"], "base_b": 1.5, "S": []}
            )
