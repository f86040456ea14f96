from fractions import Fraction

import pytest

from conftest import mk_spec
from torofree import classify as C, repmods as R, verify as V
from torofree.liealg import AlgebraDesc, central_k, degree_box
from torofree.polyalg import Poly
from torofree.repmods import Generator

F = Fraction


def _corrupt(spec, kinds):
    """Wrap the action so that matching generators gain a constant term."""

    def action(spec_, gen, p):
        out = R.act(spec_, gen, p)
        if (gen.kind, gen.index) in kinds and any(gen.r):
            out = out + Poly.const(*spec_.ranks, 1)
        return out

    return action


class TestBracketCompat:
    def test_sl2_toroidal(self, sl2_toroidal):
        rep = V.bracket_compat_check(sl2_toroidal, samples=8, seed=7)
        assert rep.passed and rep.cases_run > 0

    def test_diagonal_pairs_trivial(self, sl2_toroidal):
        # X = Y gives zero bracket and zero commutator; included in the sweep
        g = Generator("x", 1, (1,))
        elt = R.generator_bracket(sl2_toroidal, g, g)
        assert elt.is_zero()

    def test_defect_detected(self, sl2_toroidal):
        rep = V.bracket_compat_check(
            sl2_toroidal, samples=4, seed=1, action=_corrupt(sl2_toroidal, {("x", 1)})
        )
        assert not rep.passed
        assert rep.failures[0]["difference"] != "0"

    def test_center_defect_oracle_detected(self, sl2_toroidal):
        bad = C.inject_defect(C.oracle_from_spec(sl2_toroidal), "center")

        def action(spec_, gen, p):
            return bad.eval(gen, p)

        # central symbols of a bracket go through the given action too
        k1 = central_k(sl2_toroidal.algebra, 1, (0,))
        one = sl2_toroidal.one()
        assert R.act_element(sl2_toroidal, k1, one).is_zero()
        assert R.act_element(sl2_toroidal, k1, one, action) == one
        rep = V.bracket_compat_check(sl2_toroidal, [(0,), (1,)], samples=2, seed=0,
                                     action=action)
        assert not rep.passed

    def test_full_variant_with_witt_sector(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(2, -3),
                       lam=(2,), witt_a=5, base_a=(2,), base_b=1, S={1})
        rep = V.bracket_compat_check(spec, degree_box(1, -1, 1), samples=6, seed=3)
        assert rep.passed


class TestCentralIdentity:
    def test_holds_on_window(self, sl2_toroidal):
        rep = V.central_identity_check(sl2_toroidal, seed=0)
        # one case per (window degree, center index, row): 5 * 1 * 1
        assert rep.passed and rep.cases_run == 5

    def test_detects_center_defect(self, sl2_toroidal):
        rep = V.central_identity_check(
            sl2_toroidal, seed=0, action=_corrupt(sl2_toroidal, {("x", 1), ("y", 1)})
        )
        assert not rep.passed


class TestFreeness:
    def test_passes(self, sl2_toroidal):
        assert V.freeness_check(sl2_toroidal, samples=10, seed=4).passed

    def test_detects_broken_cartan(self, sl2_toroidal):
        def action(spec_, gen, p):
            out = R.act(spec_, gen, p)
            if gen.kind == "h" and not any(gen.r):
                out = out + Poly.const(*spec_.ranks, 1)
            return out

        assert not V.freeness_check(sl2_toroidal, samples=4, seed=4, action=action).passed


class TestDegreeReduction:
    def test_toroidal_n1(self, sl2_toroidal):
        rep = V.degree_reduction_check(sl2_toroidal, samples=30, seed=5)
        assert rep.passed and rep.cases_run == 30

    def test_full_n2(self):
        spec = mk_spec(rank=1, loop_vars=2, variant="full", lam=(5, 3), witt_a=0,
                       base_a=(2,), base_b=3, S={1})
        rep = V.degree_reduction_check(spec, samples=30, seed=6)
        assert rep.passed and rep.cases_run == 60  # both d-directions

    def test_example_value(self, sl2_toroidal):
        # (H_1(e_1) - 5 H_1) . (d_1 H_1) = -5 H_1^2
        H, d = Poly.H(1, 1, 1), Poly.d(1, 1, 1)
        w = d * H
        got = R.act(sl2_toroidal, Generator("h", 1, (1,)), w) - (H * w).scale(5)
        assert got == -5 * H * H

    def test_defect_detected(self, sl2_toroidal):
        def action(spec_, gen, p):
            out = R.act(spec_, gen, p)
            if gen.kind == "h" and gen.r == (1,):
                out = out + Poly.d(1, 1, 1) ** 5
            return out

        assert not V.degree_reduction_check(sl2_toroidal, samples=6, seed=6, action=action).passed


class TestLemmaPa:
    def test_two_hundred_samples(self):
        rep = V.lemma_pa_property(samples=200, ranks=(2, 1), seed=11)
        assert rep.passed
        assert rep.cases_run == 200 * 16

    def test_specific_degrees(self):
        from torofree.polyalg import VarId, deg_in, shift_difference

        H = Poly.H(1, 0, 1)
        out = shift_difference("power_minus_id", 2, 1, H**3)
        assert deg_in(VarId("H", 1), out) == 2
        assert shift_difference("difference_power", 3, 1, H * H - 7).is_zero()


class TestDeterminism:
    def test_same_seed_same_report(self, sl2_toroidal):
        a = V.bracket_compat_check(sl2_toroidal, samples=5, seed=42).to_dict()
        b = V.bracket_compat_check(sl2_toroidal, samples=5, seed=42).to_dict()
        assert a == b

    def test_different_seed_different_samples(self, sl2_toroidal):
        a = V.suite_for_spec(sl2_toroidal, samples=4, seed=1)
        b = V.suite_for_spec(sl2_toroidal, samples=4, seed=2)
        assert all(r.passed for r in a + b)


class TestSuiteForSpec:
    def test_all_suites_pass_for_panel(self):
        panel = [
            mk_spec(rank=1, base_a=(2,), base_b=3, S={1}),
            mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                    lam=(2,), base_a=(1, 1), S={1, 2}),
            mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=0),
        ]
        for spec in panel:
            window = degree_box(spec.algebra.loop_vars, -1, 1) if spec.algebra.variant != "finite" else None
            for rep in V.suite_for_spec(spec, window, samples=4, seed=9):
                assert rep.passed, (spec.algebra, rep.name, rep.failures[:1])
