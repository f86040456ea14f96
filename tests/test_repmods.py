import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import mk_spec
from torofree import liealg, repmods as R
from torofree.algebras import AlgebraDesc, window_degrees
from torofree.checks import random_poly
from torofree.errors import DomainError, StructureError
from torofree.polyalg import Poly, ShiftOperator, shift_sigma, shift_tau
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
            xs_f, ys_f = R.base_action_factor_lists(spec)
            want = (tuple(map(len, xs_f)), tuple(map(len, ys_f)))
            assert R.factor_counts(family, l, S) == want, (family, l, S)

    def test_counts_are_the_h_degrees(self):
        # each factor is affine in H with a nonzero H part
        for family, l, S, spec in self._specs():
            xs, ys = R.base_action_polys(spec)
            degrees = tuple(tuple(p.total_degree() for p in side) for side in (xs, ys))
            assert R.factor_counts(family, l, S) == degrees, (family, l, S)

    def test_lists_are_shared_immutable_tuples(self):
        spec = mk_spec(rank=2, base_b=1, S={1})
        lists = R.base_action_factor_lists(spec)
        assert R.base_action_factor_lists(mk_spec(rank=2, base_b=1, S={1})) is lists
        assert all(isinstance(fs, tuple) for side in lists for fs in (side, *side))


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
