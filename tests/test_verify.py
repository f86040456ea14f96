import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import mk_spec
from torofree import liealg as L, recovery as RC, repmods as R, verify as V
from torofree.algebras import AlgebraDesc, degree_box
from torofree.checks import random_poly
from torofree.errors import DomainError, Frozen, StructureError
from torofree.liealg import LieElt, bracket, central_k
from torofree.polyalg import Poly, ShiftOperator
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
        bad = RC.inject_defect(RC.oracle_from_spec(sl2_toroidal), "center")

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


def _walker(spec_, gen, p):
    """The module's own action behind a wrapper: forces the sampled path."""
    return R.act(spec_, gen, p)


@pytest.fixture
def fresh_operators():
    """Empty the operator caches around a test that patches the action."""
    caches = (R.generator_operator, R._root_operator)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


C2_FINITE = mk_spec(family="C", rank=2, base_a=(1, 1), S={1, 2})
C2_TOROIDAL = mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal", lam=(2,),
                      base_a=(3, -2), S={1})


class TestOperatorProofs:
    def test_criterion_2_panel_same_report_on_both_paths(self):
        from test_acceptance import WIN1, _module_axiom_panel

        for spec in _module_axiom_panel():
            window = None if spec.algebra.variant == "finite" else WIN1
            proven = V.bracket_compat_check(spec, window, samples=1, seed=11)
            sampled = V.bracket_compat_check(spec, window, samples=1, seed=11, action=_walker)
            assert proven.to_dict() == sampled.to_dict(), spec.algebra
            assert proven.passed and proven.cases_run > 0

    @pytest.mark.parametrize("spec,window", [(C2_FINITE, None),
                                             (C2_TOROIDAL, degree_box(1, -1, 1))])
    def test_defective_y1_same_failures_on_both_paths(self, monkeypatch, fresh_operators,
                                                      spec, window):
        good = R.base_action_polys

        def bad_base(spec_):
            xs, ys = good(spec_)
            return xs, [ys[0] + Poly.H(*spec_.ranks, 1)] + ys[1:]

        monkeypatch.setattr(R, "_base", bad_base)
        proven = V.bracket_compat_check(spec, window, samples=3, seed=11)
        sampled = V.bracket_compat_check(spec, window, samples=3, seed=11, action=_walker)
        assert not proven.passed
        assert proven.to_dict() == sampled.to_dict()
        # with no samples only the operator identity can expose the defect
        unsampled = V.bracket_compat_check(spec, window, samples=0, seed=11)
        assert not unsampled.passed
        assert not V.bracket_compat_check(spec, window, samples=0, seed=11,
                                          action=_walker).failures
        pairs = {f["generator_pair"] for f in proven.failures}
        assert {f["generator_pair"] for f in unsampled.failures} == pairs
        assert all(f["input"] == "every polynomial" for f in unsampled.failures)

    # SHA-256 of the samples=0 and samples=3 reports of the defective-y_1
    # check, frozen before the white box compared operators before
    # subtracting them; the samples=0 failures print the gap operator
    DEFECTIVE_Y1_DIGESTS = {
        "finite": "46f37237976477d7c12cbf39ec52f1df863279d568a2b3e11608fd4bb3dcd6b6",
        "toroidal": "d7d4b69c872cca5d4e8811f49d918e61a776324ede75528365eb5f838e85c3fb",
    }

    @pytest.mark.parametrize("spec,window", [(C2_FINITE, None),
                                             (C2_TOROIDAL, degree_box(1, -1, 1))])
    def test_defective_y1_reports_are_frozen(self, monkeypatch, fresh_operators, spec, window):
        good = R.base_action_polys

        def bad_base(spec_):
            xs, ys = good(spec_)
            return xs, [ys[0] + Poly.H(*spec_.ranks, 1)] + ys[1:]

        monkeypatch.setattr(R, "_base", bad_base)
        data = [V.bracket_compat_check(spec, window, samples=s, seed=11).to_dict() for s in (0, 3)]
        assert _digest(data) == self.DEFECTIVE_Y1_DIGESTS[spec.algebra.variant]

    @pytest.mark.parametrize("suite,gen,shift", [
        ("freeness_check", Generator("h", 1, (0,)), (0, 0)),
        ("freeness_check", Generator("D", 1, (0,)), (0, 1)),
        ("eva_twist_check", Generator("x", 1, (1,)), (0, 1)),
        ("eva_twist_check", Generator("K", 1, (-1,)), (1, -1)),
    ])
    def test_false_identity_never_passes(self, monkeypatch, fresh_operators, sl2_toroidal,
                                         suite, gen, shift):
        good = R.generator_operator

        def bad_operator(spec_, gen_):
            op = good(spec_, gen_)
            if gen_ == gen:
                op = op + ShiftOperator(1, 1, {shift: Poly.const(1, 1, 1)})
            return op

        monkeypatch.setattr(R, "generator_operator", bad_operator)
        check = getattr(V, suite)
        proven = check(sl2_toroidal, samples=3, seed=2)
        assert not proven.passed
        assert {f["generator"] for f in proven.failures} == {gen.text()}
        if suite == "freeness_check":
            assert proven.to_dict() == check(sl2_toroidal, samples=3, seed=2,
                                             action=_walker).to_dict()
        unsampled = check(sl2_toroidal, samples=0, seed=2)
        assert [f["input"] for f in unsampled.failures] == ["every polynomial"]


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


FULL_N2 = mk_spec(rank=1, loop_vars=2, variant="full", lam=(5, 3), witt_a=0,
                  base_a=(2,), base_b=3, S={1})


class TestDegreeReduction:
    def test_toroidal_n1(self, sl2_toroidal):
        rep = V.degree_reduction_check(sl2_toroidal, samples=30, seed=5)
        assert rep.passed and rep.cases_run == 30

    def test_full_n2(self):
        rep = V.degree_reduction_check(FULL_N2, samples=30, seed=6)
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

    def test_proof_reports_what_sampling_reports(self, sl2_toroidal):
        for spec in (sl2_toroidal, FULL_N2):
            proven = V.degree_reduction_check(spec, samples=30, seed=6)
            sampled = V.degree_reduction_check(spec, samples=30, seed=6, action=_walker)
            assert proven.to_dict() == sampled.to_dict()
            assert proven.passed and proven.cases_run == 30 * spec.algebra.loop_vars

    H1E1 = Generator("h", 1, (1,))

    def _patch_h1e1(self, monkeypatch, change) -> list:
        """Make the operator of h_1(e_1) ``change(op)``; returns the list of
        generators whose operator was asked for."""
        good = R.generator_operator
        asked = []

        def operator(spec_, gen_):
            asked.append(gen_)
            op = good(spec_, gen_)
            return change(op) if gen_ == self.H1E1 else op

        monkeypatch.setattr(R, "generator_operator", operator)
        return asked

    def test_non_lowering_operator_fails_as_the_black_box_does(
            self, monkeypatch, fresh_operators, sl2_toroidal):
        d1 = Poly.d(1, 1, 1)

        def black_box(spec_, gen, p):  # h_1(e_1) + d_1^5 T_0 through an opaque action
            out = R.act(spec_, gen, p)
            return out + d1**5 * p if gen == self.H1E1 else out

        def constant_defect(spec_, gen, p):  # the defect of test_defect_detected
            out = R.act(spec_, gen, p)
            return out + d1**5 if gen == self.H1E1 else out

        expected = V.degree_reduction_check(sl2_toroidal, samples=6, seed=6, action=black_box)
        constant = V.degree_reduction_check(sl2_toroidal, samples=6, seed=6,
                                            action=constant_defect)
        self._patch_h1e1(monkeypatch, lambda op: op + ShiftOperator(1, 1, {(0, 0): d1**5}))
        got = V.degree_reduction_check(sl2_toroidal, samples=6, seed=6)
        assert not got.passed and got.to_dict() == expected.to_dict()
        assert [f["input"] for f in got.failures] == [f["input"] for f in constant.failures]
        assert len(got.failures) == 6

    def test_fallback_adds_no_failure_of_its_own(self, monkeypatch, fresh_operators,
                                                 sl2_toroidal):
        # h_1(e_1) - 5 h_1 doubled, 10 H_1 (T_(e_1) - 1), still lowers the d_1-degree;
        # h_1(e_1) doubled alone would not: 10 H_1 T_(e_1) - 5 H_1 keeps it
        five_h = ShiftOperator(1, 1, {(0, 0): Poly.H(1, 1, 1).scale(5)})
        asked = self._patch_h1e1(monkeypatch, lambda op: op.scale(2) - five_h)
        got = V.degree_reduction_check(sl2_toroidal, samples=6, seed=6)
        assert asked.count(self.H1E1) == 1 + 6  # the comparison, then one per sample
        assert got.passed and got.to_dict() == V.degree_reduction_check(
            sl2_toroidal, samples=6, seed=6, action=_walker).to_dict()


class TestLemmaPa:
    def test_two_hundred_samples(self):
        rep = V.lemma_pa_property(samples=200, ranks=(2, 1), seed=11)
        assert rep.passed
        assert rep.cases_run == 200 * 16

    def test_passing_reports_are_frozen(self):
        # frozen while every case was recorded one by one
        reports = [V.lemma_pa_property(samples=40, ranks=ranks, seed=seed).to_dict()
                   for ranks in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 2)) for seed in range(30)]
        assert all(r["passed"] and r["cases_run"] == 40 * 16 for r in reports)
        assert _digest(reports) == \
            "1c51064a5e935eaaee407b91967a8fdbda2e99e08eca0c39d6618f2b31ee867b"

    @pytest.mark.parametrize("ranks,seed,samples,digest,first_input", [
        ((2, 1), 5, 30, "7beff6bf0dc583a5d792e73436bff3b961ab94fd6e15c52ed0bfeb2c6dda1b14",
         "7*H1^4*H2*d1 - 9*H1^3*H2*d1^2 - 4*H1^2*H2^3 + 8*H2*d1 + 6"),
        ((1, 0), 3, 20, "dbbf62d9158af4669452b34797ddea08a3dd550e79bfdaba4b63cd9ed1829516",
         "4*H1^6 - 9*H1^4"),
        ((3, 2), 9, 25, "1e05f8ed8f42f11da8716d4eeb63c53cbead517ba9a1211e1456be849d971f36",
         "-4*H2^2*d1^3 - 9*H2^2*H3^2 - 7*d1*d2 - 8*d2^2"),
    ])
    def test_planted_defect_report_is_frozen(self, monkeypatch, ranks, seed, samples,
                                             digest, first_input):
        # (sigma_i - Id)^2 answered with p added: one failing case in each
        # sample's sixteen, between passing ones; frozen while every case was
        # recorded one by one, so the counting of passes cannot move it
        real = V.shift_difference

        def planted(mode, k, i, p):
            out = real(mode, k, i, p)
            return out + p if mode == "difference_power" and k == 2 else out

        monkeypatch.setattr(V, "shift_difference", planted)
        data = V.lemma_pa_property(samples=samples, ranks=ranks, seed=seed).to_dict()
        assert data["cases_run"] == samples * 16 and len(data["failures"]) == samples
        assert all(list(f) == ["mode", "input", "lhs", "rhs", "difference"]
                   and f["mode"] == "difference_power k'=2" for f in data["failures"])
        assert data["failures"][0]["input"] == first_input
        assert _digest(data) == digest

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


class TestJacobiReport:
    @staticmethod
    def _bad_bracket(desc, X, Y):
        """Doubles every bracket of a degree-1 finite symbol that has a central part."""
        out = bracket(desc, X, Y)
        if any(s[0] == "f" and s[2] == (1,) for s in X.terms) and any(
            s[0] == "K" for s in out.terms
        ):
            return out.scale(2)
        return out

    @pytest.mark.parametrize("kwargs,cases,failures,digest,last", [
        ({}, 352, 22, "fdf2cd83dfbfd10bc656a2b7cfd6cc1f5b6b197917e10a4b6d315e62aa727730",
         {"law": "jacobi", "inputs": "(h1(-1), h1(1), D1(0))",
          "difference": "LieElt(-1/2*K1(0))"}),
        ({"samples": 200, "seed": 5}, 266, 16,
         "71a9d7fdfb20ecde60967c86d71feca32580fbd677c27cbe009c4bebc6321eef",
         {"law": "jacobi", "inputs": "(x1(1), y1(-1), y1(-1))",
          "difference": "LieElt(2*y1(-1))"}),
    ])
    def test_injected_bracket_defect_report_is_unchanged(self, kwargs, cases, failures,
                                                         digest, last):
        # the failure text is built only for failing cases; the frozen report
        # (taken when every case built it) must not move
        desc = AlgebraDesc("A", 1, 1, "toroidal")
        rep = V.jacobi_check(desc, degree_box(1, -1, 1), bracket_fn=self._bad_bracket, **kwargs)
        data = rep.to_dict()
        assert data["cases_run"] == cases and len(data["failures"]) == failures
        assert data["failures"][0] == {"law": "antisymmetry", "inputs": "(x1(-1), y1(1))",
                                       "difference": "LieElt(-2*h1(0) + K1(0))"}
        assert data["failures"][-1] == last
        blob = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_sampled_report_on_two_loop_variables_is_frozen(self):
        # frozen while the sampled mode still stored every basis pair's bracket
        def bad_bracket(desc, X, Y):
            out = bracket(desc, X, Y)
            if any(s[0] == "f" and s[2][0] == 1 for s in X.terms) and any(
                s[0] == "K" for s in out.terms
            ):
                return out.scale(2)
            return out

        desc = AlgebraDesc("A", 1, 2, "full", (F(1), F(1, 2)))
        data = V.jacobi_check(desc, degree_box(2, -1, 1), samples=400, seed=7,
                              bracket_fn=bad_bracket).to_dict()
        assert data["cases_run"] == 1940 and len(data["failures"]) == 65
        assert sum(f["law"] == "jacobi" for f in data["failures"]) == 20
        assert _digest(data) == "26c7cdd716b378da3254edc31c094e5765d2a50263c09646e74f4374c6fbd759"


    def test_explicit_zero_coefficient_report_is_unchanged(self):
        # a bracket that adds D1(0) with coefficient 0 to the nonzero brackets
        # of x1(-1): the zero is kept where LieElt.__add__ keeps it, so a pair
        # or triple whose sum carries it fails; frozen before the cases were
        # decided on term maps
        desc = AlgebraDesc("A", 1, 1, "toroidal")
        first, zero_sym = ("f", 0, (-1,)), ("D", 1, (0,))

        def zero_bracket(desc_, X, Y):
            out = bracket(desc_, X, Y)
            if out.terms and X.terms.keys() == {first}:
                return LieElt._raw(desc_, {**out.terms, zero_sym: 0})
            return out

        data = V.jacobi_check(desc, degree_box(1, -1, 1), bracket_fn=zero_bracket).to_dict()
        assert data["cases_run"] == 352 and len(data["failures"]) == 26
        assert data["failures"][0] == {"law": "antisymmetry", "inputs": "(x1(-1), y1(-1))",
                                       "difference": "LieElt(-0*D1(0))"}
        assert data["failures"][-1] == {"law": "jacobi", "inputs": "(x1(-1), h1(1), D1(0))",
                                        "difference": "LieElt(-0*D1(0))"}
        assert _digest(data) == "8cbeff74d955ab2b6a1909d88054d4fd0608b785432107de080594ae2a904df0"

    def test_explicit_zero_coefficient_sampled_report_matches_the_exhaustive(self):
        # a later operand's explicit zero for a symbol the running sum lacks
        # raised KeyError in add_terms, so this sampled run crashed
        desc = AlgebraDesc("A", 1, 1, "toroidal")
        first, zero_sym = ("f", 0, (-1,)), ("D", 1, (0,))

        def zero_bracket(desc_, X, Y):
            out = bracket(desc_, X, Y)
            if out.terms and X.terms.keys() == {first}:
                return LieElt._raw(desc_, {**out.terms, zero_sym: 0})
            return out

        window = degree_box(1, -1, 1)
        exhaustive = V.jacobi_check(desc, window, bracket_fn=zero_bracket).to_dict()
        sampled = V.jacobi_check(desc, window, samples=200, seed=5,
                                 bracket_fn=zero_bracket).to_dict()
        assert sampled["cases_run"] == 266 and len(sampled["failures"]) == 14

        def law(report, name):
            return [f for f in report["failures"] if f["law"] == name]

        # every basis pair is checked in both modes
        assert law(sampled, "antisymmetry") == law(exhaustive, "antisymmetry")
        # a sampled triple in basis order is an exhaustive case, and reads the same
        order = {x.text(): k for k, x in enumerate(L.basis_of(desc, window))}
        by_inputs = {f["inputs"]: f for f in law(exhaustive, "jacobi")}
        ordered = [f for f in law(sampled, "jacobi")
                   if sorted(order[x] for x in f["inputs"][1:-1].split(", "))
                   == [order[x] for x in f["inputs"][1:-1].split(", ")]]
        assert ordered and all(by_inputs[f["inputs"]] == f for f in ordered)


class TestCocycleIdentityReport:
    @staticmethod
    def _doubled(cocycle):
        """The cocycle, doubled where its first argument has a term of first degree 1."""
        def doubled(desc, c, X, Y):
            out = cocycle(desc, c, X, Y)
            return out.scale(2) if any(s[2][0] == 1 for s in X.terms) else out

        return doubled

    @pytest.mark.parametrize("args,failures,first,digest", [
        (((2, -3), 2, None, 30, 5), 13,
         {"inputs": "(D2(1,2), D1(-1,1), D2(2,1))", "lhs": "LieElt(0)",
          "rhs": "LieElt(-24*K2(2,4))", "difference": "LieElt(24*K2(2,4))"},
         "72a6b858e9401122fac40e8554d65174724f5c50522cbc70c8cf8d914e847207"),
        (((F(1, 2), "-3"), 2, (-1, 1), 30, 5), 11,
         {"inputs": "(D1(0,0), D2(0,1), D1(1,1))", "lhs": "LieElt(-6*K2(1,2))",
          "rhs": "LieElt(-3*K2(1,2))", "difference": "LieElt(-3*K2(1,2))"},
         "420b5a2895e89dbb09aeb22b891c34f3079fdb77e420db74fb451b0afad5bfe1"),
    ])
    def test_planted_failure_report_is_unchanged(self, monkeypatch, args, failures, first,
                                                 digest):
        # frozen before the sides were compared as term maps
        monkeypatch.setattr(L, "cocycle", self._doubled(L.cocycle))
        data = V.cocycle_identity_check(*args).to_dict()
        assert data["cases_run"] == 30 and len(data["failures"]) == failures
        assert data["failures"][0] == first
        assert _digest(data) == digest


class TestSampleCounts:
    @pytest.mark.parametrize("suite", ["bracket_compat_check", "freeness_check",
                                       "eva_twist_check", "degree_reduction_check"])
    def test_negative_samples_rejected(self, sl2_toroidal, suite):
        with pytest.raises(DomainError):
            getattr(V, suite)(sl2_toroidal, samples=-1)

    def test_empty_window_with_samples_rejected(self):
        witt = AlgebraDesc("A", 0, 1, "witt")
        with pytest.raises(DomainError, match="loop window is empty"):
            V.jacobi_check(witt, [], samples=5)
        with pytest.raises(DomainError, match="loop window is empty"):
            V.cocycle_identity_check((1, 0), 1, [], samples=3)
        # with nothing to sample, an empty window is a report of no cases
        assert V.jacobi_check(witt, []).cases_run == 0
        assert V.cocycle_identity_check((1, 0), 1, [], samples=0).cases_run == 0

    def test_lemma_pa_bounds(self):
        with pytest.raises(DomainError):
            V.lemma_pa_property(samples=-1)
        for ranks in ((0, 1), (17, 1), (1, -1), (1, 9), (10**30, 1)):
            with pytest.raises(StructureError):
                V.lemma_pa_property(samples=1, ranks=ranks)


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


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class _Recorder:
    """Stands in for the verify module inside the benchmark's jobs: runs
    each suite it is asked for and keeps the report."""

    def __init__(self):
        self.reports = []

    def __getattr__(self, name):
        suite = getattr(V, name)

        def run(*args, **kwargs):
            report = suite(*args, **kwargs)
            self.reports.append(report.to_dict())
            return report

        return run


class TestFrozenReports:
    """Reports frozen before the structure-constant kernel replaced the
    matrix bracket: the same suites on the same inputs give the same bytes."""

    # passing reports carry no spec data, so the three seeds share one digest
    AXIOMS_DIGEST = "2d3661c14ea2655430b357b3106683abc79cf0e8ac001ad0725075a7c5f09dee"
    CRITERION_1_DIGESTS = {
        ("A", 1, 1): "61519ab29c212fc5feff2f04d62874d0f437d75d8769c385fd0d7a8f4c350a9f",
        ("A", 2, 1): "223812a4acc559b4b41cbc51914f70e43518c1b5dc55cb11ec7ef0c9db63aa30",
        ("A", 1, 2): "3e5cbe8eeaaf58c861d6ced388de79ce2ddf968c9affc565843fd42c64339e35",
        ("C", 2, 1): "0dac5b7075bf748914275f8fc2c9169bb7259472b7c6ff34a28591136ab3a829",
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_axioms_panel(self, monkeypatch, seed):
        # the benchmark's axioms workload is the source of the specs and suite arguments
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads as W

        recorder = _Recorder()
        monkeypatch.setattr(W, "V", recorder)
        reports = {}
        for job in W.axioms(random.Random(f"axioms:{seed}")):
            assert job.run() is None, job.label
            reports[job.label] = recorder.reports[-1]
        assert len(reports) == len(recorder.reports) == 61
        assert _digest(reports) == self.AXIOMS_DIGEST

    @pytest.mark.parametrize("config", list(CRITERION_1_DIGESTS),
                             ids=lambda c: f"{c[0]}{c[1]}-n{c[2]}")
    def test_criterion_1_configs(self, config):
        from test_acceptance import COCYCLES, LIE_CONFIGS

        assert config in LIE_CONFIGS
        family, l, n = config
        window = degree_box(n, -1, 1)
        descs = [AlgebraDesc(family, l, n, "toroidal")]
        descs += [AlgebraDesc(family, l, n, "full", cc) for cc in COCYCLES]
        reports = [V.jacobi_check(desc, window).to_dict() for desc in descs]
        assert _digest(reports) == self.CRITERION_1_DIGESTS[config]


class TestFrozenDegreeReports:
    """Reports frozen before degree_reduction became a proof on the module's
    own action and (sigma - 1)^k a one-pass kernel."""

    def test_criterion_3_lemma_pa(self):
        data = V.lemma_pa_property(200, (2, 1), 23).to_dict()
        assert data["cases_run"] == 3200 and data["passed"]
        assert _digest(data) == "2752edb4fc9260878c8d1ca41de062277b12d34934e748f4754993918437c67c"

    def test_black_box_degree_reduction_defect(self):
        spec = mk_spec(rank=2, loop_vars=2, variant="full", cocycle=(1, F(1, 2)),
                       lam=(F(3, 2), F(-5, 7)), witt_a=F(1, 3), base_a=(F(2), F(-1, 3)),
                       base_b=F(5, 4), S={1, 3})
        d1, d2 = Poly.d(2, 2, 1), Poly.d(2, 2, 2)

        def action(spec_, gen, p):
            out = R.act(spec_, gen, p)
            if gen == Generator("h", 1, (1, 0)):
                out = out + d1**5
            if gen == Generator("h", 1, (0, 1)):
                out = out + d2**2  # passes on inputs of d_2-degree above 2
            return out

        data = V.degree_reduction_check(spec, samples=12, seed=4, action=action).to_dict()
        assert data["cases_run"] == 24 and len(data["failures"]) == 22
        assert data["failures"][0] == {
            "d_index": "1", "input": "7*H1*d1*d2 - 7*H1*d1",
            "lhs": "d1^5 - 21/2*H1^2*d2 + 21/2*H1^2", "rhs": "d1-degree below 1",
            "difference": "5"}
        assert _digest(data) == "bae184bac9c9f31af75f807060654fe25e7652dbef802d12f9ca69230670c3b9"


class TestBlackBoxBracketCompat:
    """bracket_compat_check through a defective black-box oracle at heights
    ~1e20: each action is evaluated once, and the reports keep their bytes."""

    SPEC = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(F(10**20 + 3, 7),),
                   base_a=(F(-(10**19) - 1, 11), F(13, 10**20 + 9)),
                   base_b=F(10**20 + 1, 3), S={2, 3})
    WINDOW = [(0,), (1,)]
    # (cases, failures, SHA-256 of the report's to_dict()) per (defect, seed),
    # frozen before the black-box actions were memoised
    FROZEN = {
        ("center", 1): (240, 52, "c4a320b33dc34fcd7391850a2aa153047d1acbbcc1fb85c33f9e156bc44019bb"),
        ("center", 2): (240, 52, "c7bfedd5aec24b0bd94d058c1a0b10c24360be7600ab57803880da0c701fc828"),
        ("center", 3): (240, 52, "b3a28bd9849457d1bbf6d5eaba5ccc3fd190491f7538940ad679ba8a1e75b891"),
        ("loop-scaling", 1):
            (240, 30, "9f3e2979325a33da934b4fa966fb32612f8a62e1bdccae7a9821940f304c1fad"),
        ("loop-scaling", 2):
            (240, 30, "9067b342f1610620b085ad06d51586c37d8fafaa1e678c978a1cc2d023d88fb8"),
        ("loop-scaling", 3):
            (240, 30, "3bffef9fc4b952aa9e52136c57da55477db546badd54cedda5fd3a8f289546c4"),
        ("lambda-mismatch", 1):
            (240, 20, "452fd7cff28fc711003245af23e5efb628b601e0563c68432230b0fb824b8fb4"),
        ("lambda-mismatch", 2):
            (240, 20, "bb99bd73f45bdcd4dd2a2272b0637031fb0d45b6fe704526ae78e24830da502c"),
        ("lambda-mismatch", 3):
            (240, 20, "4b6035c2bfb6b2a20c0a2b0c80673955d0d4fee5e7ecf8a46d284949ae0b5961"),
    }

    @pytest.mark.parametrize("kind,seed", list(FROZEN), ids=lambda v: str(v))
    def test_defect_oracle_report_is_unchanged(self, kind, seed):
        bad = RC.inject_defect(RC.oracle_from_spec(self.SPEC), kind)
        report = V.bracket_compat_check(self.SPEC, self.WINDOW, samples=2, seed=seed,
                                        action=lambda s, g, p: bad.eval(g, p)).to_dict()
        assert (report["cases_run"], len(report["failures"]), _digest(report)) \
            == self.FROZEN[kind, seed]

    def test_each_action_is_evaluated_once(self, monkeypatch):
        bad = RC.inject_defect(RC.oracle_from_spec(self.SPEC), "center")
        current = []  # the generator pair whose cases are running
        calls = []    # (pair, generator, input)

        def bracket(spec, g1, g2):
            current[:] = [(g1, g2)]
            return generator_bracket(spec, g1, g2)

        def action(spec, gen, p):
            calls.append((current[0], gen, p))
            return bad.eval(gen, p)

        generator_bracket = R.generator_bracket
        monkeypatch.setattr(R, "generator_bracket", bracket)
        seed = 1
        rng = random.Random(seed)
        samples = [random_poly(rng, *self.SPEC.ranks) for _ in range(2)]
        assert not V.bracket_compat_check(self.SPEC, self.WINDOW, samples=2, seed=seed,
                                          action=action).passed
        # within one generator pair, each (generator, input value) is evaluated once
        per_pair = [(pair, gen, p.text()) for pair, gen, p in calls]
        assert len(per_pair) == len(set(per_pair))
        # across the whole check, each generator acts on each sample once
        first = [(gen, p.text()) for _, gen, p in calls if p in samples]
        assert first and len(first) == len(set(first))
        # 463 oracle calls on 455 distinct (generator, input value); the 8
        # repeats act on deeper inputs of an earlier pair.  A memo keyed on
        # the input's id made 508 calls, and no memo 650
        assert len(calls) == 463

    def test_memo_and_algebra_checks_compare_no_fields(self, monkeypatch):
        # the generator words and generators_for share one Generator per
        # symbol and each algebra test tries identity first, so no value is
        # compared field by field: 639 Frozen.__eq__ calls before, 0 after.
        # The caches keyed by the algebra are emptied first, since an entry
        # of an equal algebra made by an earlier test is matched by value
        for cache in (R._symbol_word, R._as_elt):
            cache.cache_clear()
        bad = RC.inject_defect(RC.oracle_from_spec(self.SPEC), "center")
        eq_calls = []
        eq = Frozen.__eq__
        monkeypatch.setattr(Frozen, "__eq__", lambda a, b: eq_calls.append(a) or eq(a, b))
        report = V.bracket_compat_check(self.SPEC, self.WINDOW, samples=2, seed=1,
                                        action=lambda s, g, p: bad.eval(g, p))
        monkeypatch.undo()
        assert (report.cases_run, len(report.failures)) == self.FROZEN["center", 1][:2]
        assert len(eq_calls) <= 0

    # black-box reports on C_2 full (window {0, 1}) and a Witt spec (window
    # {0, 1}^2, D_1 corrupted off degree 0), frozen before each polynomial
    # was hashed once and the check compared before subtracting
    C2_FULL = mk_spec(family="C", rank=2, loop_vars=1, variant="full", cocycle=(1, F(-1, 2)),
                      lam=(F(7, 3),), witt_a=F(-2, 5), base_a=(F(3, 2), F(-5)), S={2})
    WITT = mk_spec(rank=0, loop_vars=2, variant="witt", lam=(F(3, 2), F(-2)), witt_a=F(1, 3))
    FROZEN_MORE = {
        ("C2-full center", 0):
            (272, 56, "b2e32a39e286dfaa9a91da3696c8b00cf455d8ff2644fb98f28e49b9b25266e2"),
        ("C2-full center", 1):
            (272, 56, "75f1035bd96fd9687c66af69060206fb1ab6ba41f330979caaf41775ce16db0a"),
        ("C2-full loop-scaling", 0):
            (272, 32, "3bde6591130843aa1b0f79a23b9e426343de6544d1cf99ec0303f6583262d52f"),
        ("C2-full loop-scaling", 1):
            (272, 32, "e0d363f4053a48c700079018b0186971435af9135fdd4a5985f99a3402e8b776"),
        ("witt D1", 0): (72, 36, "a2cc8e9c0cd3919cff62c7fbb8075bc07c6375517bac04830a9ab2299338bd94"),
        ("witt D1", 1): (72, 36, "27350f4bf9e9383ff3e2397d601eed8f7cabb55b43d3df163dfcad2817d36c75"),
        ("witt pass", 0): (72, 0, "769d5b059ccdef20f660585636bdf792f6f76c8187897405e61c29dba3fc5acf"),
    }

    @pytest.mark.parametrize("case,seed", list(FROZEN_MORE), ids=lambda v: str(v))
    def test_c2_full_and_witt_reports_are_unchanged(self, case, seed):
        if case.startswith("C2"):
            bad = RC.inject_defect(RC.oracle_from_spec(self.C2_FULL), case.split()[1])
            spec, window, action = self.C2_FULL, [(0,), (1,)], lambda s, g, p: bad.eval(g, p)
        else:
            spec, window = self.WITT, degree_box(2, 0, 1)
            action = _corrupt(spec, {("D", 1)}) if case == "witt D1" else _walker
        report = V.bracket_compat_check(spec, window, samples=2, seed=seed,
                                        action=action).to_dict()
        assert (report["cases_run"], len(report["failures"]), _digest(report)) \
            == self.FROZEN_MORE[case, seed]


def _constructor_random_poly(rng, l, n, max_total_deg=4, max_terms=6):
    """random_poly as it was written with the validating constructor."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * (l + n)
        for _ in range(rng.randint(0, max_total_deg)):
            exp[rng.randrange(l + n)] += 1
        coeff = rng.choice([c for c in range(-9, 10) if c])
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    p = Poly(l, n, terms)
    return p if p else Poly.const(l, n, 1)


@pytest.mark.parametrize("ranks", [(1, 0), (2, 1), (3, 2)], ids=str)
def test_random_poly_equals_the_constructor_built_polynomial(ranks):
    for seed in range(200):
        for degree, terms in ((4, 6), (6, 6), (2, 3)):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = random_poly(got_rng, *ranks, degree, terms)
                want = _constructor_random_poly(want_rng, *ranks, degree, terms)
                assert (got.l, got.n, got.den, got.nums) == (want.l, want.n, want.den, want.nums)
                assert got.text() == want.text() and list(got.nums) == list(want.nums)
            # the same draws, so the generators end in the same state
            assert got_rng.getstate() == want_rng.getstate()
