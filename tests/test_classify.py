import hashlib
import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RescalingEchelon, base_action_factor_lists, factor_counts, mat_comm,
                      mat_is_zero, mat_sub, mk_spec, reference_patterns)
from torofree import classify, recovery as RC, repmods as R, search as SR
from torofree.checks import random_poly
from torofree.errors import ClassificationError, DomainError, StructureError
from torofree.polyalg import MAX_EXPONENT, Poly, divides, unpack_exponent
from torofree.repmods import Generator

F = Fraction
WIN1 = [(-2,), (-1,), (0,), (1,), (2,)]


def toroidal(l, b, S, lam=(2,), a=None):
    return mk_spec(rank=l, loop_vars=1, variant="toroidal", lam=lam,
                   base_a=a or tuple(F(1) for _ in range(l)), base_b=b, S=S)


class TestSimplicityPredict:
    def test_sl2_fractional_b(self):
        assert R.simplicity_predict(mk_spec(rank=1, base_b=F(1, 3), S=()))

    def test_sl2_full_integer_b(self):
        # S = {1,2} with 2b a non-negative integer: not simple
        assert not R.simplicity_predict(mk_spec(rank=1, base_b=1, S={1, 2}))
        assert not R.simplicity_predict(mk_spec(rank=1, base_b=0, S={1, 2}))

    def test_sl2_empty_pattern_flips_parameter(self):
        # the empty pattern tests (l+1)(-b-1): simple at b = 1, not at b = -2
        assert R.simplicity_predict(mk_spec(rank=1, base_b=1, S=()))
        assert not R.simplicity_predict(mk_spec(rank=1, base_b=-2, S=()))

    def test_mixed_s_always_simple(self):
        for b in (0, 1, F(7, 2)):
            assert R.simplicity_predict(mk_spec(rank=1, base_b=b, S={1}))

    def test_c_family(self):
        assert R.simplicity_predict(mk_spec(family="C", rank=2, base_a=(5, 1), S={1}))

    def test_variant_does_not_change_answer(self):
        for S, b in (((1, 2), 1), ((), F(1, 3)), ((1,), 2)):
            fin = mk_spec(rank=1, base_b=b, S=S)
            tor = toroidal(1, b, S)
            ful = mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                          base_b=b, S=S)
            assert R.simplicity_predict(fin) == R.simplicity_predict(tor)
            assert R.simplicity_predict(fin) == R.simplicity_predict(ful)

    def test_witt_variant(self):
        assert not R.simplicity_predict(
            mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=-1))
        assert R.simplicity_predict(
            mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=0))

    @pytest.mark.parametrize("b", [0, Poly.d(1, 1, 1)], ids=["b=0", "b=d1"])
    def test_finite_with_loop_variables_is_not_simple(self, b):
        # (d1) is a proper invariant ideal whatever b in Q[d] is
        spec = mk_spec(rank=1, loop_vars=1, base_b=b, S={1})
        simple, rule = R.simplicity_rule(spec)
        assert not simple and "(d1)" in rule
        d1 = Poly.d(1, 1, 1)
        for k, gen in enumerate(R.generators_for(spec, [()])):
            p = d1 * random_poly(random.Random(k), 1, 1)
            assert divides(d1, R.act(spec, gen, p)), gen


class TestPrincipalWitness:
    def test_sl2_full_pattern_found(self):
        # (the integral edge pattern sits at S = {1,2}; the empty pattern at
        #  b = 1 is simple: its effective parameter is -4)
        spec = mk_spec(rank=1, base_a=(1,), base_b=1, S={1, 2})
        w = SR.principal_witness_search(spec, 4)
        assert w == Poly.parse("H1^3 - H1", 1, 0)
        assert SR.witness_verify(spec, w)

    def test_simple_point_has_none(self):
        assert SR.principal_witness_search(mk_spec(rank=1, base_b=1, S=()), 6) is None
        assert SR.principal_witness_search(mk_spec(rank=1, base_b=F(1, 3), S={1}), 4) is None

    def test_degree_one_witness(self):
        spec = mk_spec(rank=1, base_b=0, S={1, 2})
        assert SR.principal_witness_search(spec, 2) == Poly.H(1, 0, 1)

    def test_empty_pattern_negative_b(self):
        spec = mk_spec(rank=1, base_b=-2, S=())
        w = SR.principal_witness_search(spec, 6)
        assert w is not None and SR.witness_verify(spec, w)

    def test_toroidal_lift_same_witness(self):
        base = mk_spec(rank=1, base_a=(1,), base_b=1, S={1, 2})
        lift = toroidal(1, 1, {1, 2}, a=(F(1),))
        wb = SR.principal_witness_search(base, 4)
        wl = SR.principal_witness_search(lift, 4)
        assert wb.text() == wl.text()  # same polynomial, carrier ranks aside
        assert SR.witness_verify(lift, wl, WIN1)

    def test_l2_edge_has_no_principal_witness(self):
        # finite-codimension submodules in two variables have trivial gcd
        assert SR.principal_witness_search(mk_spec(rank=2, base_b=1, S={1, 2, 3}), 8) is None


def reference_normalize_factors(factors):
    """{orbit key: {constant: multiplicity}} for a factor list, with each
    factor scaled to leading coefficient 1 as a Poly and the key its
    non-constant part."""
    out = {}
    for f in factors:
        if f.is_constant():
            continue
        _, lead = f.leading()
        norm = f.scale(1 / lead)
        const = norm.constant_term()
        consts = out.setdefault(norm - Poly.const(norm.l, norm.n, const), {})
        consts[const] = consts.get(const, 0) + 1
    return out


def unit_exp(l, n, pos):
    return tuple(int(k == pos) for k in range(l + n))


def orbit_key(row):
    """An integer row over its gcd, signed so that its first nonzero entry
    is positive."""
    g = math.gcd(*row)
    return tuple(x // g for x in row) if next(x for x in row if x) > 0 \
        else tuple(-x // g for x in row)


def monic_form(key, n):
    """The linear form of an integer row over its first nonzero entry."""
    l = len(key)
    lead = next(x for x in key if x)
    return Poly(l, n, {unit_exp(l, n, k): F(x, lead) for k, x in enumerate(key) if x})


def reference_principal_search(spec, maxdeg):
    """The chain scan with the plain multiset check: the chain dict is built
    and every element of it is tested against every row.  Constants and
    shifts are scaled by their common denominator, which keeps the keys
    integers without changing which chains pass."""
    if maxdeg < 1 or spec.ranks[0] == 0:
        return None
    l, n = spec.ranks
    xs_f, ys_f = base_action_factor_lists(spec)
    x_norm = [reference_normalize_factors(fs) for fs in xs_f]
    y_norm = [reference_normalize_factors(fs) for fs in ys_f]
    orbits = {}
    for norm in x_norm + y_norm:
        for key, consts in norm.items():
            if SR._h_only(key):
                orbits.setdefault(key, set()).update(consts)
    for key in sorted(orbits, key=lambda k: k.text()):
        deltas = [key.coeff(unit_exp(l, n, i)) for i in range(l)]
        den = math.lcm(*[c.denominator for c in orbits[key] | set(deltas)])

        def scaled(consts):
            return {int(c * den): m for c, m in consts.items()}

        rows = []
        for i, delta in enumerate(deltas):
            d = int(delta * den)
            rows += [(scaled(x_norm[i].get(key, {})), -d), (scaled(y_norm[i].get(key, {})), d)]
        starts = sorted({c + m for c in orbits[key] for m in range(-(maxdeg + 1), maxdeg + 2)})
        for mult in (1, 2):
            for length in range(1, maxdeg // mult + 1):
                for start, s0 in zip(starts, [int(c * den) for c in starts]):
                    if multiset_check({s0 + t * den: mult for t in range(length)}, rows):
                        p = Poly.const(l, n, 1)
                        for t in range(length):
                            p = p * (key + Poly.const(l, n, start + t)) ** mult
                        return p
    return None


def multiset_check(chain, rows):
    """m <= (factors c in the row) + (multiplicity of c - d in the chain)."""
    for absorbers, d in rows:
        for c, m in chain.items():
            budget = absorbers.get(c, 0) + (chain.get(c - d, 0) if d != 0 else m)
            if m > budget:
                return False
    return True


def subsets(size):
    """Every S inside {1, .., size}."""
    return [S for k in range(size + 1) for S in itertools.combinations(range(1, size + 1), k)]


class TestPrincipalReference:
    """The l = 1 closure agrees with the chain scan under the plain multiset
    check, and the scan finds nothing from rank 2 on."""

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_a_family_grid(self, l):
        bs = sorted({F(k, q) for q in (1, 2, 3, 5) for k in (-q - 1, 0, 1, q + 1)})
        for S in subsets(l + 1):
            for b in bs:
                spec = toroidal(l, b, S)
                for maxdeg in (0, 3, 6, 10):
                    want = reference_principal_search(spec, maxdeg)
                    assert SR.principal_witness_search(spec, maxdeg) == want, (S, b, maxdeg)

    def test_c2_every_pattern(self):
        # C_2 orbits carry fractional constants and a shift of 2
        for S in subsets(2):
            spec = mk_spec(family="C", rank=2, base_a=(1, 1), S=S)
            for maxdeg in (0, 3, 6, 10):
                want = reference_principal_search(spec, maxdeg)
                assert SR.principal_witness_search(spec, maxdeg) == want, (S, maxdeg)

    def test_c3_every_pattern(self):
        for S in subsets(3):
            spec = mk_spec(family="C", rank=3, base_a=(1, 2, 1), S=S)
            for maxdeg in (0, 3, 6, 10):
                want = reference_principal_search(spec, maxdeg)
                assert SR.principal_witness_search(spec, maxdeg) == want, (S, maxdeg)

    def test_finite_a2_with_a_loop_variable(self):
        # b = d1 + c puts d1 into the orbits of the factors that carry b,
        # which the search skips; the H-only orbits are still scanned
        d1, one = Poly.d(2, 1, 1), Poly.const(2, 1, 1)
        skipped = 0
        for S in subsets(3):
            for b in (d1, d1 + one.scale(F(1, 2)), one):
                spec = mk_spec(rank=2, loop_vars=1, base_b=b, S=S)
                keys = {key for fs in base_action_factor_lists(spec)[0]
                        for key in reference_normalize_factors(fs)}
                skipped += any(not SR._h_only(key) for key in keys)
                for maxdeg in (0, 3, 6, 10):
                    want = reference_principal_search(spec, maxdeg)
                    assert SR.principal_witness_search(spec, maxdeg) == want, (S, b, maxdeg)
        assert skipped

    def test_integer_keys_match_the_poly_normalization(self):
        # a form's row over its gcd, signed to a positive lead, is the orbit
        # key: over that lead it is the monic linear part, and the constant
        # over the form's lead is the monic factor's constant
        d1 = Poly.d(2, 1, 1)
        specs = [toroidal(l, b, S) for l in (1, 2, 3) for S in subsets(l + 1)
                 for b in (F(0), F(-5, 3))]
        specs += [mk_spec(family="C", rank=l, base_a=(1,) * l, S=S)
                  for l in (2, 3) for S in subsets(l)]
        specs += [mk_spec(rank=2, loop_vars=1, base_b=d1, S=S) for S in subsets(3)]
        for spec in specs:
            l, n = spec.ranks
            lists, forms = base_action_factor_lists(spec), R.affine_factors(spec)
            for f, form in zip(itertools.chain(*lists[0], *lists[1]),
                               itertools.chain(*forms[0], *forms[1])):
                got = {}
                if form is not None:
                    row, c = form
                    key = orbit_key(row)
                    got = {monic_form(key, n): {F(c, next(x for x in row if x)): 1}}
                want = {key: consts for key, consts in reference_normalize_factors([f]).items()
                        if SR._h_only(key)}
                assert got == want, (spec.algebra, spec.S, f)

    @pytest.mark.parametrize("family", ["A", "C"])
    def test_every_orbit_from_rank_2_has_an_empty_row(self, family):
        # the lemma of principal_witness_search: on every orbit some index i
        # that moves the orbit's form has no factor of x_i.1, or none of
        # y_i.1, in it, so no chain holds and no rank from 2 on has a
        # principal witness
        for l in range(2, 11):
            for S in subsets(l + 1 if family == "A" else l):
                xs, ys = R.factor_table(family, l, frozenset(S))
                x_keys = [{orbit_key(row) for row, *_ in fs} for fs in xs]
                y_keys = [{orbit_key(row) for row, *_ in fs} for fs in ys]
                for key in set().union(*x_keys, *y_keys):
                    assert any(delta and (key not in x_keys[i] or key not in y_keys[i])
                               for i, delta in enumerate(key)), (family, l, S, key)
        # at l = 1 the edge pattern's one orbit meets both x_1.1 and y_1.1
        xs, ys = R.factor_table("A", 1, frozenset({1, 2}))
        assert {orbit_key(row) for row, *_ in xs[0]} == {orbit_key(row) for row, *_ in ys[0]}

    def test_no_point_set_is_read_where_the_lemma_rules_a_witness_out(self, monkeypatch):
        # from rank 2 on, and at l = 1 with a non-scalar b, the answer is None
        # at any maxdeg without a search, so its cost does not grow with maxdeg
        monkeypatch.setattr(SR, "point_set_search",
                            lambda *a: pytest.fail(f"point set searched at {a}"))
        specs = [mk_spec(rank=2, base_b=F(5, 7), S=()),
                 mk_spec(rank=2, base_b=1, S={1, 2, 3}),
                 mk_spec(rank=3, base_b=1, S={1}),
                 mk_spec(family="C", rank=2, base_a=(1, 1), S={1}),
                 mk_spec(rank=1, loop_vars=1, base_b=Poly.d(1, 1, 1), S={1, 2})]
        for spec in specs:
            for maxdeg in (6, 10**6):
                assert SR.principal_witness_search(spec, maxdeg) is None, \
                    (spec.algebra, spec.S, maxdeg)

    def test_l1_finite_full_and_a_loop_variable_b(self):
        # finite n = 0 and n = 2, full, and b = d1, whose factors all carry d
        bs = sorted({F(k, q) for q in (1, 2, 3) for k in (-q - 1, 0, 1, q + 1)})
        found = 0
        for S in subsets(2):
            specs = [mk_spec(rank=1, loop_vars=1, base_b=Poly.d(1, 1, 1), S=S)]
            for b in bs:
                specs += [mk_spec(rank=1, base_b=b, S=S),
                          mk_spec(rank=1, loop_vars=2, base_b=b, S=S),
                          mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                                  base_b=b, S=S)]
            for spec in specs:
                for maxdeg in (0, 3, 6, 10):
                    want = reference_principal_search(spec, maxdeg)
                    assert SR.principal_witness_search(spec, maxdeg) == want, \
                        (spec.algebra, S, spec.base_b, maxdeg)
                    found += want is not None
        assert found


class TestWitnessVerify:
    def test_rejects_degree_zero(self):
        spec = mk_spec(rank=1, base_b=1, S={1, 2})
        with pytest.raises(DomainError):
            SR.witness_verify(spec, spec.one())

    def test_rejects_non_monic(self):
        spec = mk_spec(rank=1, base_b=1, S={1, 2})
        with pytest.raises(DomainError):
            SR.witness_verify(spec, Poly.H(1, 0, 1).scale(2))

    def test_false_on_simple_module(self):
        spec = mk_spec(rank=1, base_b=F(1, 3), S=())
        assert not SR.witness_verify(spec, Poly.H(1, 0, 1))

    def test_round_trip_with_search(self):
        spec = toroidal(1, 2, {1, 2}, a=(F(1),))
        report = SR.submodule_witness_search(spec, 10, WIN1)
        assert report.found and report.verified
        assert SR.witness_verify(spec, report.witness, WIN1)


class TestQuotientCertificates:
    @pytest.mark.parametrize(
        "b,dim", [(0, 1), (F(1, 3), 3), (1, 10)],
    )
    def test_sl3_edge_certificates(self, b, dim):
        spec = mk_spec(rank=2, base_b=b, S={1, 2, 3})
        cert = SR.quotient_certificate_search(spec, 16)
        assert cert is not None and cert.dim == dim
        assert SR.verify_quotient_certificate(spec, cert)

    def test_simple_points_have_none(self):
        assert SR.quotient_certificate_search(mk_spec(rank=2, base_b=1, S=()), 16) is None
        assert SR.quotient_certificate_search(mk_spec(rank=2, base_b=F(1, 3), S={1}), 12) is None

    def test_certificate_verifies_through_lift(self):
        base = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        cert = SR.quotient_certificate_search(base, 8)
        lift = toroidal(2, F(1, 3), {1, 2, 3}, lam=(3,))
        assert SR.verify_quotient_certificate(lift, cert, WIN1)

    def test_tampered_certificate_rejected(self):
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        cert = SR.quotient_certificate_search(spec, 8)
        bad = SR.QuotientCert(cert.weights, cert.dim, tuple(
            c + 1 for c in cert.v0
        ))
        assert not SR.verify_quotient_certificate(spec, bad)
        zero = SR.QuotientCert(cert.weights, cert.dim, tuple(F(0) for _ in cert.v0))
        assert not SR.verify_quotient_certificate(spec, zero)

    def _tampered_irrep(self, monkeypatch, tamper):
        """The dim-3 certificate with irrep_A patched to a tampered copy."""
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        cert = SR.quotient_certificate_search(spec, 8)
        assert SR.verify_quotient_certificate(spec, cert)
        rep = SR.irrep_A(2, cert.weights)
        copy = SR.IrrepA(rep.rank, rep.weights, rep.dim,
                        [[dict(row) for row in m] for m in rep.x_mats], rep.y_mats, rep.h_int)
        tamper(copy, cert.v0)
        monkeypatch.setattr(SR, "irrep_A", lambda rank, weights: copy)
        return SR.verify_quotient_certificate(spec, cert)

    def test_off_ladder_entry_rejected(self, monkeypatch):
        def tamper(rep, v0):
            # X_1 gains a diagonal entry (weight step 0, not e_1); the paired
            # change in the same row keeps X_1 v0, so the base conditions hold
            r, c = 0, 1
            assert v0[r] and v0[c]
            row = rep.x_mats[0][r]
            row[r] = row.get(r, F(0)) - v0[c]
            row[c] = row.get(c, F(0)) + v0[r]

        assert not self._tampered_irrep(monkeypatch, tamper)

    def test_nonzero_degree_terms_are_checked(self, monkeypatch):
        # x_1(r) doubled for r != 0 only: the base conditions (r = 0) still
        # hold, so only the check of the loop-degree terms can see it
        lift = toroidal(2, F(1, 3), {1, 2, 3}, lam=(3,))
        cert = SR.quotient_certificate_search(mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3}), 8)
        assert cert is not None and cert.dim == 3
        operator = R.generator_operator

        def doubled(spec, gen):
            op = operator(spec, gen)
            return op.scale(2) if (gen.kind, gen.index) == ("x", 1) and any(gen.r) else op

        monkeypatch.setattr(R, "generator_operator", doubled)
        assert not SR.verify_quotient_certificate(lift, cert, [(-1,), (0,), (1,)])
        assert SR.verify_quotient_certificate(lift, cert, [(0,)])

    def test_each_condition_is_evaluated_once(self, monkeypatch):
        # x_i(r) is lambda^r (x_i.1) T_(e_i, r) at each of the 5 loop degrees,
        # and y_i(r) likewise: 20 terms, 4 conditions
        lift = toroidal(2, F(1, 3), {1, 2, 3}, lam=(3,))
        cert = SR.quotient_certificate_search(mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3}), 8)
        evaluated = []
        numerators = SR._weight_numerators
        monkeypatch.setattr(SR, "_weight_numerators",
                            lambda p, weights: evaluated.append(p) or numerators(p, weights))
        assert SR.verify_quotient_certificate(lift, cert, WIN1)
        assert len(evaluated) == 4

    def test_d_stays_a_variable(self):
        # b = d1 - 2/3 agrees with b = 1/3 only at d1 = 1
        cert = SR.quotient_certificate_search(mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3}), 8)
        for b, ok in ((Poly.parse("d1 - 2/3", 2, 1), False), (F(1, 3), True)):
            spec = mk_spec(rank=2, loop_vars=1, base_b=b, S={1, 2, 3})
            assert SR.verify_quotient_certificate(spec, cert) == ok


# the edge patterns are non-simple at b = 0, 1, 1/3, 1/2, 2/3 (S = FULL) and
# b = -2, -4/3 (S = {}), for some of l = 1, 2, 3; 5/7 is simple everywhere
FILTER_BS = (F(0), F(1), F(-2), F(1, 3), F(-4, 3), F(1, 2), F(2, 3), F(5, 7))


def filter_grid():
    """(l, S, b) for l in {1, 2, 3}, every S and every b of FILTER_BS."""
    for l in (1, 2, 3):
        for k in range(l + 2):
            for S in itertools.combinations(range(1, l + 2), k):
                for b in FILTER_BS:
                    yield l, S, b


class TestCombinedSearch:
    def test_prediction_search_agreement_spot(self):
        for l, b, S, simple in [
            (1, 1, {1, 2}, False),
            (1, 1, (), True),
            (1, F(1, 3), {1}, True),
            (2, F(1, 3), {1, 2, 3}, False),
            (2, 0, (), True),
        ]:
            spec = toroidal(l, b, S)
            maxdeg = int(2 * (l + 1) * F(b)) + 2
            report = SR.submodule_witness_search(spec, maxdeg, WIN1)
            assert R.simplicity_predict(spec) == (not report.found)
            if report.found:
                assert report.verified

    def test_witt_variant_rejected(self):
        spec = mk_spec(rank=0, loop_vars=1, variant="witt", lam=(2,), witt_a=0)
        with pytest.raises(DomainError):
            SR.submodule_witness_search(spec, 4)

    def test_negative_bounds_rejected(self):
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        with pytest.raises(DomainError):
            SR.submodule_witness_search(spec, -1)
        with pytest.raises(DomainError):
            SR.submodule_witness_search(spec, 4, dim_bound=-3)
        # a longer l = 1 witness could not be parsed back
        with pytest.raises(DomainError):
            SR.submodule_witness_search(spec, MAX_EXPONENT + 1)
        report = SR.submodule_witness_search(mk_spec(rank=1, base_b=1, S={1, 2}), MAX_EXPONENT)
        assert report.found and report.checked_degree_bound == MAX_EXPONENT

    def test_dim_bound_above_the_ceiling_rejected_before_any_search(self, monkeypatch):
        spec = mk_spec(rank=1, base_b=-3, S={1, 2})
        searched = []
        monkeypatch.setattr(SR, "principal_witness_search", lambda *a: searched.append(a))
        with pytest.raises(DomainError, match=str(SR.MAX_DIM_BOUND)):
            SR.submodule_witness_search(spec, 4, dim_bound=SR.MAX_DIM_BOUND + 1)
        assert not searched
        monkeypatch.undo()
        # the ceiling itself is accepted (a rank-3 simple point scans it quickly)
        report = SR.submodule_witness_search(mk_spec(rank=3, base_b=1), 0,
                                             dim_bound=SR.MAX_DIM_BOUND)
        assert not report.found and report.checked_dim_bound == SR.MAX_DIM_BOUND

    def test_c_family_claims_no_quotient_scan(self):
        spec = mk_spec(family="C", rank=3, loop_vars=1, variant="toroidal", lam=(2,),
                       base_a=(1, 1, 1), S={1})
        assert SR.quotient_certificate_search(spec, 64) is None
        for dim_bound in (None, 10):
            report = SR.submodule_witness_search(spec, 3, [(0,)], dim_bound)
            assert not report.found and report.checked_dim_bound == 0

    def test_non_scalar_b_claims_no_quotient_scan(self):
        spec = mk_spec(rank=2, loop_vars=2, base_b=Poly.parse("d1^2 + 3*d2", 2, 2),
                       S={1, 2, 3})
        assert SR.quotient_certificate_search(spec, 64) is None
        for dim_bound in (None, 10):
            report = SR.submodule_witness_search(spec, 3, dim_bound=dim_bound)
            assert not report.found and report.checked_dim_bound == 0
        # a search whose point sets find no closure still claims its bound
        report = SR.submodule_witness_search(mk_spec(rank=2, base_b=F(1, 3), S={1}), 3)
        assert not report.found and report.checked_dim_bound == 6

    def test_zero_bounds_skip_their_search(self):
        spec = mk_spec(rank=1, base_b=1, S={1, 2})
        report = SR.submodule_witness_search(spec, 4, dim_bound=0)
        assert report.found and report.witness is not None
        report = SR.submodule_witness_search(spec, 0, dim_bound=0)
        assert not report.found and report.checked_dim_bound == 0

    def test_quotient_certificate_verified_once(self, monkeypatch):
        window = [(-1,), (0,), (1,)]
        calls = []
        verify = SR.verify_quotient_certificate

        def counted(spec, cert, loop_window=None):
            calls.append(loop_window)
            return verify(spec, cert, loop_window)

        monkeypatch.setattr(SR, "verify_quotient_certificate", counted)
        spec = toroidal(2, F(1, 3), {1, 2, 3})
        report = SR.submodule_witness_search(spec, 4, window)
        # the combined search reports the point set and checks no quotient certificate
        assert report.verified and calls == []
        cert = SR.quotient_certificate_search(spec, report.checked_dim_bound, window)
        assert cert.dim == 3
        assert calls == [window]
        assert report_points(report.to_dict()) == v0_support(cert)

    def test_rank_3_default_dim_bound_reaches_the_edge_quotient(self):
        # A_3, b = 1, S = FULL: the certificate is V(0,0,4), of dimension
        # C(4 + 3, 3) = 35, past the rank-2 default of 19 at maxdeg 10
        spec = toroidal(3, 1, {1, 2, 3, 4})
        window = [(-1,), (0,), (1,)]
        report = SR.submodule_witness_search(spec, 10, window)
        assert report.found and report.verified and report.checked_dim_bound == 35
        cert = SR.quotient_certificate_search(spec, 35, window)
        assert (cert.weights, cert.dim) == ((0, 0, 4), 35)
        assert report_points(report.to_dict()) == v0_support(cert)
        assert report.quotient_cert.to_dict()["size"] == 35
        assert not R.simplicity_predict(spec)

    def test_default_dim_bound_is_rank_aware_and_capped(self):
        def default(l, maxdeg):
            spec = toroidal(l, F(1, 7), set(range(1, l + 2)))
            return SR.submodule_witness_search(spec, maxdeg, [(0,)]).checked_dim_bound

        # l <= 2 keeps the maxdeg formula
        assert [default(l, 10) for l in (1, 2)] == [19, 19]
        assert default(4, 10) == math.comb(4 + 4, 4)
        assert default(3, 22) == SR.MAX_DEFAULT_DIM_BOUND  # C(10 + 3, 3) = 286

    def test_l1_needs_the_quotient_scan(self):
        # no principal witness up to degree 6; only the dim-11 quotient
        # V(10), whose weight support is the 11-point set the search
        # reports, certifies non-simplicity at l = 1
        spec = toroidal(1, 5, {1, 2})
        assert SR.principal_witness_search(spec, 6) is None
        report = SR.submodule_witness_search(spec, 6, WIN1, dim_bound=13)
        assert report.found and report.verified
        cert = SR.quotient_certificate_search(spec, 13, WIN1)
        assert cert is not None and (cert.dim, cert.weights) == (11, (10,))
        assert SR.verify_quotient_certificate(spec, cert, WIN1)
        assert report_points(report.to_dict()) == v0_support(cert)
        assert report.quotient_cert.to_dict() == {
            "kind": "point_set", "scale": 2, "points": [[w] for w in range(-10, 11, 2)],
            "size": 11}

    def test_witness_reports_are_frozen(self):
        # the reference reports: the principal search, else the plain quotient
        # scan
        reports, current = [], []
        for l, S, b in filter_grid():
            for spec, window in ((mk_spec(rank=l, base_b=b, S=S), None),
                                 (toroidal(l, b, S), [(-1,), (0,), (1,)])):
                for maxdeg, dim_bound in ((6, None), (2, 40)):
                    report = SR.submodule_witness_search(spec, maxdeg, window, dim_bound)
                    current.append(report.to_dict())
                    reports.append(reference_witness_report(spec, report))
        # the current search reports a point set where the reference has a
        # quotient certificate, and nothing else moves
        for new, old in zip(current, reports):
            if old["quotient_cert"] is None:
                assert new == old
                continue
            assert new["notes"] == POINT_SET_NOTES
            assert {k: v for k, v in new.items() if k not in ("quotient_cert", "notes")} \
                == {k: v for k, v in old.items() if k not in ("quotient_cert", "notes")}
            cert = old["quotient_cert"]
            assert report_points(new) == v0_support(SR.QuotientCert(
                tuple(cert["weights"]), cert["dim"], tuple(F(c) for c in cert["v0"])))
        blob = json.dumps(current, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "c5d8fdb1bff408fe656dd4c2bb563a2a40ede265db633531268b1ae7b65cd14a"
        assert sum(r["quotient_cert"] is not None for r in reports) == 40
        # a principal witness ends the search before the quotient scan runs
        principal = [r for r in reports if r["notes"] == "principal invariant ideal"]
        assert principal and all(r["checked_dim_bound"] == 0 for r in principal)
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "3dc4a8bee4e309f5b92de8a61a0748020e2829c1adf42250d6e2b8c7c10ac030"
        # frozen while those reports carried the quotient bound (10 is the
        # default at maxdeg 6 for l <= 3): nothing else moved
        for r in principal:
            r["checked_dim_bound"] = 10 if r["checked_degree_bound"] == 6 else 40
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "dbf7df50825e0e983e959833d6e50c704be26bdbd75d82f5feb0b4fc36b8043c"


# ROADMAP item 2's b grid: integer and fractional edges of l = 1..4 on both
# sides of 0, and b off every edge
POINT_SET_BS = tuple(F(x) for x in ("0", "1", "2", "-1", "-2", "-3", "1/2", "-3/2", "1/3",
                                    "2/3", "-4/3", "1/4", "3/4", "-5/4", "1/5", "-6/5",
                                    "5/7", "-9/7"))
# the quotient bounds of the parity test; A_4 reaches its 126-point sets
POINT_SET_BOUNDS = {1: 60, 2: 60, 3: 60, 4: 126}


class TestPointSets:
    """The point-set closure against the quotient scan, which reads neither
    the closure nor the affine factors, and against verify_point_set's own
    check of the rule."""

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_closure_matches_the_ungated_scan(self, l):
        bound = POINT_SET_BOUNDS[l]
        found = 0
        for S in subsets(l + 1):
            for b in POINT_SET_BS:
                spec = mk_spec(rank=l, base_b=b, S=S)
                points = SR.point_set_search(spec, bound)
                cert = SR.quotient_certificate_search(spec, bound)
                if points is None:
                    # the closure's proof: no certificate up to the bound
                    assert cert is None, (S, b)
                else:
                    assert SR.verify_point_set(spec, points), (S, b)
                    assert not R.simplicity_rule(spec)[0], (S, b)
                    found += 1
                if cert is not None:
                    # the weight support of v0 is the closure: the kernel is I(Z)
                    rep = SR.irrep_A(l, cert.weights)
                    support = {w for w, c in zip(rep.h_int, cert.v0) if c}
                    assert points == support, (S, b)
                    assert SR.verify_point_set(spec, support), (S, b)
        assert found > 0

    def test_closure_decides_the_rule_on_the_grid(self):
        # every closure on the grid is finite or ends at a ray, so past the
        # largest set (1001 points, A_4 at b = 2, S = FULL and b = -3, S = {})
        # no set is left undecided and the search agrees with the rule
        for l in (1, 2, 3, 4):
            for S in subsets(l + 1):
                for b in POINT_SET_BS:
                    spec = mk_spec(rank=l, base_b=b, S=S)
                    points = SR.point_set_search(spec, 2000)
                    assert (points is None) == R.simplicity_rule(spec)[0], (l, S, b)

    def test_verify_point_set_rejects_broken_sets(self):
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        points = SR.point_set_search(spec, 10)
        assert len(points) == 3 and SR.verify_point_set(spec, points)
        for w in points:
            assert not SR.verify_point_set(spec, points - {w})
        assert not SR.verify_point_set(spec, points | {(30, 30)})
        assert not SR.verify_point_set(spec, [])
        c_spec = mk_spec(family="C", rank=2, base_a=(1, 1), S={1})
        for check in (SR.point_set_search, SR.verify_point_set):
            with pytest.raises(DomainError):
                check(c_spec, points)

    def test_verify_point_set_matches_the_polynomial_values(self):
        # against reference_verify_point_set, which evaluates x_i.1 and y_i.1
        # with Poly.eval at h = w / (l + 1): every set of the grid, the set
        # with one point dropped and the set with one point planted next to it
        checked = 0
        for l in (1, 2, 3, 4):
            for S in subsets(l + 1):
                for b in POINT_SET_BS:
                    spec = mk_spec(rank=l, base_b=b, S=S)
                    points = SR.point_set_search(spec, POINT_SET_BOUNDS[l])
                    if points is None:
                        continue
                    top = max(points)
                    planted = top[:-1] + (top[-1] + l + 1,)
                    for z in (points, points - {sorted(points)[len(points) // 2]},
                              points | {planted}):
                        assert SR.verify_point_set(spec, z) \
                            == reference_verify_point_set(spec, z), (l, S, b, len(z))
                    checked += 1
        assert checked == 32
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        assert SR.verify_point_set(spec, []) is reference_verify_point_set(spec, []) is False

    def test_verify_point_set_rejects_malformed_points(self):
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1, 2, 3})
        points = SR.point_set_search(spec, 10)
        # a point off the set, so the union cannot absorb it into an equal one
        for bad in ((30,), (30, 30, 30), (F(30), 30), (30, 30.0), ("30", 30)):
            with pytest.raises(StructureError):
                SR.verify_point_set(spec, points | {bad})

    def test_simple_points_build_no_irrep(self, monkeypatch):
        calls = []
        for name in ("irrep_A", "build_irrep_A", "nullspace"):
            monkeypatch.setattr(SR, name, lambda *args, f=getattr(SR, name), name=name:
                                calls.append(name) or f(*args))
        report = SR.submodule_witness_search(mk_spec(rank=3, base_b=1, S=()), 0,
                                             dim_bound=SR.MAX_DIM_BOUND)
        assert not report.found and report.checked_dim_bound == SR.MAX_DIM_BOUND
        # a ray ends the closure, whatever the cap
        assert SR.point_set_search(mk_spec(rank=1, base_b=-3, S={1, 2}), 10**9) is None
        assert calls == []

    def test_a_side_without_zeros_builds_no_closure(self, monkeypatch):
        # S = {1}: x_1.1 is a nonzero constant, so there is no seed, and the
        # plain scan finds no certificate either
        spec = mk_spec(rank=2, base_b=F(1, 3), S={1})
        x_forms, _ = R.affine_factors(spec)
        assert SR._integer_zeros(x_forms) == []
        calls = []
        for name in ("_closure", "irrep_A", "build_irrep_A", "nullspace"):
            monkeypatch.setattr(SR, name, lambda *args, f=getattr(SR, name), name=name:
                                calls.append(name) or f(*args))
        assert SR.point_set_search(spec, 64) is None
        report = SR.submodule_witness_search(spec, 3, dim_bound=64)
        assert not report.found and report.checked_dim_bound == 64
        assert calls == []
        monkeypatch.undo()
        assert SR.quotient_certificate_search(spec, 64) is None

    def test_irreps_off_the_zeros_have_no_kernel_vector(self):
        # a kernel vector's lowest and highest weights are common zeros of
        # the x_i.1 and of the y_i.1, so an irrep whose weights miss either
        # side's _integer_zeros has none
        rejected = 0
        for l, S, b in filter_grid():
            spec = mk_spec(rank=l, base_b=b, S=S)
            sides = [set(SR._integer_zeros(forms)) for forms in R.affine_factors(spec)]
            xs, ys = R.base_action_polys(spec)
            for weights in SR._dominant_weights(l, 40):
                rep = SR.irrep_A(l, weights)
                if all(side & set(rep.h_int) for side in sides):
                    continue
                rejected += 1
                assert SR.nullspace(SR._base_condition_rows(xs, ys, rep), rep.dim) == [], \
                    (l, S, b, weights)
        assert rejected > 4000

    def test_the_scan_reads_no_point_set_code(self, monkeypatch):
        # the certificates of TestQuotientCertificates' specs, with the point
        # sets' closure and seeds unreachable
        def refuse(*args):
            raise AssertionError("the quotient scan reached the point-set code")

        for name in ("point_set_search", "_closure", "_integer_zeros"):
            monkeypatch.setattr(SR, name, refuse)
        certs = [SR.quotient_certificate_search(mk_spec(rank=2, base_b=b, S=S), bound)
                 for b, S, bound in ((0, {1, 2, 3}, 16), (F(1, 3), {1, 2, 3}, 16),
                                     (1, {1, 2, 3}, 16), (1, (), 16), (F(1, 3), {1}, 12),
                                     (F(1, 3), {1, 2, 3}, 8))]
        assert [c and (c.weights, c.dim, [str(x) for x in c.v0]) for c in certs] == [
            ((0, 0), 1, ["1"]),
            ((0, 1), 3, ["1", "-1", "1"]),
            ((0, 3), 10, ["36", "-36", "36", "18", "-18", "9", "-6", "6", "-3", "1"]),
            None,
            None,
            ((0, 1), 3, ["1", "-1", "1"]),
        ]

    def test_integer_zeros_of_a_point_a_line_and_an_empty_row(self):
        # h = (1, 2) on the second choice; the first, H1 = 1 and H1 = 0, has no zero
        assert SR._integer_zeros([[((1, 0), -1)], [((1, 0), 0), ((0, 1), -2)]]) == [(3, 6)]
        # a line of common zeros: no finite list
        with pytest.raises(StructureError, match="no finite list"):
            SR._integer_zeros([[((1, -1), 0)], [((2, -2), 0)]])
        # a row with no factor has no zero
        assert SR._integer_zeros([[((1, 0), 0)], []]) == []

    def test_integer_zeros_solve_at_most_two_systems(self):
        # one system per choice of a factor of each x_i.1; where every x_i.1
        # has one, the degrees 1 + s_(i+1) - s_i sum to l + s_(l+1) - s_1, so
        # at most one slot has two
        most = 0
        for l in range(1, 13):
            for S in subsets(l + 1):
                counts = factor_counts("A", l, S)[0]
                if all(counts):
                    most = max(most, math.prod(counts))
        assert most == 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integer_zeros_match_a_nullspace_solve(self, data):
        # coefficients in {0, +-1, +-2} make singular and inconsistent
        # systems common
        l = data.draw(st.integers(1, 3))
        coeff = st.sampled_from([0, 0, 1, -1, 2, -2])
        lists = [[(tuple(data.draw(coeff) for _ in range(l)), data.draw(st.integers(-6, 6)))
                  for _ in range(data.draw(st.integers(0, 3)))]
                 for _ in range(l)]
        want = reference_integer_zeros(lists)
        if want is None:
            with pytest.raises(StructureError):
                SR._integer_zeros(lists)
        else:
            assert SR._integer_zeros(lists) == want


class TestPointSetReports:
    """The witness search's point-set reports, read off the generator
    operators rather than through verify_point_set."""

    @staticmethod
    def at_point(f, w, l):
        """f at h = w / (l + 1) as a polynomial in d: {d-exponents: nonzero value}."""
        out = {}
        for e, c in f.terms.items():
            value = c * math.prod(F(x, l + 1) ** k for x, k in zip(w, e[:l]))
            out[e[l:]] = out.get(e[l:], 0) + value
        return {e: v for e, v in out.items() if v}

    def test_point_sets_hold_at_every_loop_degree(self):
        # f T_u p = f(H, d) p(H - u_H, d - r): zero at every z of Z for every
        # p in I(Z) iff f(z, d) = 0 or z - u_H is in Z, whatever r is
        window = [(r,) for r in range(-3, 4)]
        checked = 0
        for l, S, b in filter_grid():
            for spec in (toroidal(l, b, S),
                         mk_spec(rank=l, loop_vars=1, variant="full", cocycle=(2, -3),
                                 lam=(2,), witt_a=1, base_b=b, S=S)):
                for maxdeg, dim_bound in ((6, None), (2, 40)):
                    report = SR.submodule_witness_search(spec, maxdeg, [(-1,), (0,), (1,)],
                                                         dim_bound)
                    if report.quotient_cert is None:
                        continue
                    z = report_points(report.to_dict())
                    for gen in R.generators_for(spec, window):
                        for u, f in R.generator_operator(spec, gen).terms.items():
                            step = [(l + 1) * x for x in u[:l]]
                            for w in z:
                                assert not self.at_point(f, w, l) \
                                    or tuple(a - s for a, s in zip(w, step)) in z, \
                                    (l, S, b, gen, w)
                    checked += 1
        assert checked == 40

    def test_a_planted_point_is_rejected(self, monkeypatch):
        spec = toroidal(2, F(1, 3), {1, 2, 3})
        points = SR.point_set_search(spec, 10)
        planted = points | {(30, 30)}
        assert SR.verify_point_set(spec, points) and not SR.verify_point_set(spec, planted)
        monkeypatch.setattr(SR, "point_set_search", lambda spec, max_points: planted)
        report = SR.submodule_witness_search(spec, 4, [(0,)]).to_dict()
        assert (report["found"], report["verified"], report["quotient_cert"]) == (False, False, None)


class TestBaseConditionRows:
    """The integer base-condition rows are the rows of the Fraction values,
    each block of one x_i.1 or y_i.1 scaled by one positive factor."""

    @staticmethod
    def assert_rows_match(xs, ys, rep, context):
        got = list(SR._base_condition_rows(xs, ys, rep))
        want = list(reference_base_condition_rows(xs, ys, rep))
        assert len(got) == len(want) == 2 * rep.rank * rep.dim
        for start in range(0, len(got), rep.dim):
            block = list(zip(got[start:start + rep.dim], want[start:start + rep.dim]))
            # a block of zero rows has any scale
            scale = next((F(g[k]) / w[k] for g, w in block for k in w if w[k]), 1)
            assert scale > 0
            for g, w in block:
                assert {k: c for k, c in g.items() if c} \
                    == {k: scale * c for k, c in w.items() if c}, (context, rep.weights)

    def test_every_irrep_the_search_grid_scans(self, monkeypatch):
        W = load_workloads()
        scanned, searched = [], []
        rows = SR._base_condition_rows
        monkeypatch.setattr(SR, "_base_condition_rows",
                            lambda *args: scanned.append(args) or rows(*args))
        witness = SR.submodule_witness_search

        def recorded(spec, maxdeg, window, dim_bound):
            report = witness(spec, maxdeg, window, dim_bound)
            searched.append((spec, window, report))
            return report

        monkeypatch.setattr(classify, "submodule_witness_search", recorded)
        for seed in range(1, 6):
            for job in W.build("search", seed):
                before = len(scanned)
                assert job.run() is None
                assert len(scanned) == before  # the witness search builds no irrep
                spec = grid_spec(job)
                if spec.algebra.rank == 1 and spec.base_b.as_scalar().denominator == 1:
                    # the l = 1 edge points: the scan builds the sl_2 irreps
                    # up to dim 13 that the witness search never builds
                    SR.quotient_certificate_search(spec, 13)
        # the scan at the bound of each point-set report finds the quotient
        # whose weight support is that set
        assert any(report.quotient_cert is not None for _, _, report in searched)
        for spec, window, report in searched:
            if report.quotient_cert is not None:
                cert = SR.quotient_certificate_search(spec, report.checked_dim_bound, window)
                assert report_points(report.to_dict()) == v0_support(cert)
        monkeypatch.undo()
        # sl_2 and sl_3 irreps on seeds 1-5: 210 from the 20 sl_2 scans, and 12
        # up to dim 3 from the scans at the 5 point-set reports
        assert {rep.rank for _, _, rep in scanned} == {1, 2}
        for xs, ys, rep in scanned:
            self.assert_rows_match(xs, ys, rep, "search grid")

    def test_every_irrep_to_dim_60_at_the_grid_b(self):
        # every V(m) of sl_2, sl_3 and sl_4 up to dim 60, each at a third of
        # the b of the grid's seeds 1-5 (every b meets a third of the V(m)),
        # with the pattern S rotating through the subsets
        W = load_workloads()
        bs = set()
        for seed in range(1, 6):
            for job in W.build("search", seed):
                bs.add(grid_spec(job).base_b.as_scalar())
        assert len(bs) > 10
        for l in (1, 2, 3):
            patterns = subsets(l + 1)
            polys = {}
            for k, weights in enumerate(SR._dominant_weights(l, 60)):
                rep = SR.irrep_A(l, weights)
                for j, b in enumerate(sorted(bs)):
                    if (k + j) % 3:
                        continue
                    S = patterns[(k + j) // 3 % len(patterns)]
                    if (b, S) not in polys:
                        polys[b, S] = R.base_action_polys(mk_spec(rank=l, base_b=b, S=S))
                    self.assert_rows_match(*polys[b, S], rep, (l, S, b))

    def test_at_weights_is_the_value_at_each_weight(self):
        # at_weights (below), the reference's values, against Poly.eval at
        # h_j = w_j / (l + 1), with d kept as a variable of the value
        rng = random.Random(5)
        for l in (1, 2, 3):
            for weights in SR._dominant_weights(l, 20):
                rep = SR.irrep_A(l, weights)
                for _ in range(3):
                    p = random_poly(rng, l, 1, max_total_deg=4, max_terms=5)
                    for value, w in zip(at_weights(p, rep), rep.h_int):
                        h = [F(x, l + 1) for x in w]
                        for d in (0, 1, F(-3, 2)):
                            assert value.eval([d]) == p.eval(h + [d]), (p.text(), w, d)


POINT_SET_NOTES = ("finite-codimension invariant ideal I(Z); H-only, so T_tau^r fixes it at "
                   "every loop degree")


def reference_witness_report(spec, report):
    """The report of the combined search before point-set reports, the
    principal search else the quotient scan, at the bounds of a report of the
    current search, as a dict."""
    if report.notes == "principal invariant ideal":
        return report.to_dict()
    window = report.checked_loop_window
    cert = SR.quotient_certificate_search(spec, report.checked_dim_bound, window)
    return SR.WitnessReport(
        found=cert is not None,
        quotient_cert=cert,
        checked_degree_bound=report.checked_degree_bound,
        checked_dim_bound=report.checked_dim_bound,
        checked_loop_window=window,
        verified=cert is not None,
        notes="finite-codimension invariant ideal (module-map kernel)" if cert
        else "no witness at the searched bounds",
    ).to_dict()


def v0_support(cert):
    """The integer weights (l + 1) h_j of the basis vectors where v0 is nonzero."""
    rep = SR.irrep_A(len(cert.weights), cert.weights)
    return {w for w, c in zip(rep.h_int, cert.v0) if c}


def report_points(report):
    """The integer weights of the Z of a point-set report's to_dict()."""
    cert = report["quotient_cert"]
    assert cert["kind"] == "point_set" and cert["size"] == len(cert["points"])
    return {tuple(w) for w in cert["points"]}


def at_weights(p, rep):
    """p(h_j, d) for each basis weight h_j: the H-block evaluated, d kept."""
    den, values = SR._weight_numerators(p, rep.h_int)
    return [Poly._reduced(0, p.n, den, {e: v for e, v in acc.items() if v}) for acc in values]


def reference_base_condition_rows(xs, ys, rep):
    """_base_condition_rows from the Fraction values of at_weights, unscaled."""
    for i in range(rep.rank):
        for op, poly in ((rep.x_mats[i], xs[i]), (rep.y_mats[i], ys[i])):
            for r, value in enumerate(at_weights(poly, rep)):
                row = dict(op[r])
                row[r] = row.get(r, 0) - value.constant_term()
                yield row


def reference_integer_zeros(form_lists):
    """_integer_zeros by a nullspace solve: the zeros of the forms chosen one
    per list are the kernel vectors (h, 1) of their rows (row, c); None where
    the solved zeros are no finite list."""
    l = len(form_lists)
    zeros = {}
    for system in itertools.product(*form_lists):
        rows = [{k: x for k, x in enumerate((*row, c)) if x} for row, c in system]
        basis = SR.nullspace(rows, l + 1)
        if all(v[l] == 0 for v in basis):
            continue  # no solution
        if len(basis) > 1:
            return None  # a consistent system with more than one solution
        w = [(l + 1) * x / basis[0][l] for x in basis[0][:l]]
        if all(x.denominator == 1 for x in w):
            zeros[tuple(int(x) for x in w)] = None
    return list(zeros)


def reference_verify_point_set(spec, points):
    """verify_point_set with x_i.1 and y_i.1 evaluated by Poly.eval at
    h = w / (l + 1) and d = 0."""
    l, n = spec.ranks
    size = l + 1
    z = {tuple(w) for w in points}
    xs, ys = R.base_action_polys(spec)
    for w in z:
        h = [F(x, size) for x in w] + [0] * n
        for i in range(l):
            for poly, step in ((xs[i], -size), (ys[i], size)):
                if poly.eval(h) and w[:i] + (w[i] + step,) + w[i + 1:] not in z:
                    return False
    return bool(z)


def reference_cyclicity(spec, w, max_word_len):
    """The cyclicity check with the span tested only at the end of each layer
    of words."""
    l, n = spec.ranks
    current = w
    if spec.algebra.variant != "finite":
        for j in range(n):
            e_j = tuple(int(t == j) for t in range(n))
            while any(unpack_exponent(k, l + n)[l + j] for k in current.nums):
                current = R.act(spec, Generator("h", 1, e_j), current) \
                    - (Poly.H(l, n, 1) * current).scale(spec.lam[j])
    degbound = current.total_degree() + max_word_len + 2
    zero = spec.algebra.zero_degree()
    gens = [Generator(kind, i, zero) for i in range(1, l + 1) for kind in "xyh"]
    span = SR.Echelon()
    span.add(current.nums)
    frontier = [current]
    for _ in range(max_word_len):
        if not span.reduce({0: 1}):
            return True
        new_frontier = []
        for vec in frontier:
            for gen in gens:
                img = R.act(spec, gen, vec)
                if img and img.total_degree() <= degbound and span.add(img.nums):
                    new_frontier.append(img)
        if not new_frontier:
            break
        frontier = new_frontier
    return not span.reduce({0: 1})


def load_workloads():
    """perfbench/workloads.py, loaded read-only from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_spec(job):
    """The module spec of a search-grid job."""
    return next(cell.cell_contents for cell in job.run.__closure__
                if isinstance(cell.cell_contents, R.ModuleSpec))


class TestCyclicity:
    def test_constant_is_immediate(self, sl2_toroidal):
        assert SR.cyclicity_check(sl2_toroidal, sl2_toroidal.one(), 1)

    def test_negative_budget_rejected(self, sl2_toroidal):
        with pytest.raises(DomainError):
            SR.cyclicity_check(sl2_toroidal, sl2_toroidal.one(), -1)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_search_grid_matches_the_layer_end_check(self, seed):
        # the seeded (spec, seed polynomial) points of the benchmark's search grid
        W = load_workloads()
        points = 0
        for job in W.build("search", seed):
            cells = [cell.cell_contents for cell in job.run.__closure__]
            spec = next(v for v in cells if isinstance(v, R.ModuleSpec))
            w = next(v for v in cells if isinstance(v, Poly))
            want = reference_cyclicity(spec, w, 12)
            assert SR.cyclicity_check(spec, w, 12, W.W3) == want, (spec.S, w.text())
            points += 1
        assert points == 28

    def test_short_budgets_match_the_layer_end_check(self):
        # this degree-6 seed of a simple module first reaches 1 with three
        # letters; the witness H1^3 - H1 of a non-simple one never does
        simple, w = toroidal(1, F(1, 3), {1}), Poly.parse("H1^6 + H1", 1, 1)
        edge, witness = toroidal(1, 1, {1, 2}), Poly.parse("H1^3 - H1", 1, 1)
        for budget in range(4):
            want = budget == 3
            assert SR.cyclicity_check(simple, w, budget) == want
            assert reference_cyclicity(simple, w, budget) == want
            assert not SR.cyclicity_check(edge, witness, budget)
            assert not reference_cyclicity(edge, witness, budget)

    def test_stops_at_the_first_insert_that_holds_one(self, monkeypatch):
        calls = []
        act = R.act
        monkeypatch.setattr(R, "act", lambda *args: calls.append(args) or act(*args))
        spec, w = toroidal(2, 1, {2}), Poly.parse("H1*H2", 2, 1)
        assert reference_cyclicity(spec, w, 12)
        assert len(calls) == 42  # two layers of 6 and 36 words
        calls.clear()
        assert SR.cyclicity_check(spec, w, 12)
        assert len(calls) == 16

    def test_zero_rejected(self, sl2_toroidal):
        with pytest.raises(DomainError):
            SR.cyclicity_check(sl2_toroidal, Poly.zero(1, 1), 4)

    def test_degree_reduction_then_descent(self):
        spec = toroidal(1, F(1, 3), {1}, lam=(5,))
        w = Poly.parse("H1*d1", 1, 1)
        assert SR.cyclicity_check(spec, w, 12)

    def test_witness_is_not_cyclic(self):
        spec = toroidal(1, 1, {1, 2})
        w = Poly.parse("H1^3 - H1", 1, 1)
        assert not SR.cyclicity_check(spec, w, 8)
        assert not reference_cyclicity(spec, w, 8)

    def test_random_seeds_on_simple_modules(self):
        spec = toroidal(2, 1, {2})
        for s in range(3):
            w = random_poly(random.Random(s), 2, 1, max_total_deg=2, max_terms=3)
            assert SR.cyclicity_check(spec, w, 12)


class TestRecovery:
    def test_full_round_trip(self):
        spec = mk_spec(rank=1, loop_vars=2, variant="full", cocycle=(1, 0),
                       lam=(3, 4), witt_a=5, base_a=(2,), base_b=3, S={1})
        win = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), win)
        assert rec.lam == (F(3), F(4)) and rec.witt_a == F(5)
        tuples = [(rec.S, rec.base_a, rec.base_b)] + [
            (S, a, b) for _, S, a, b in rec.alternates
        ]
        assert (frozenset({1}), (F(2),), Poly.const(1, 2, 3)) in tuples

    def test_fixed_point(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="toroidal",
                       lam=(F(-7, 2),), base_a=(2,), base_b=3, S={1})
        oracle = RC.oracle_from_spec(spec)
        rec = RC.recover_parameters(oracle, WIN1)
        rebuilt = RC.build_spec_from_recovery(rec, oracle)
        rec2 = RC.recover_parameters(RC.oracle_from_spec(rebuilt), WIN1)
        assert (rec2.family, rec2.S, rec2.base_a, rec2.base_b) == (
            rec.family, rec.S, rec.base_a, rec.base_b,
        )

    def test_degenerate_parameters(self):
        spec = mk_spec(rank=1, loop_vars=1, variant="full", lam=(1,), witt_a=-1,
                       base_a=(1,), base_b=F(-1, 2), S={1})
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), WIN1)
        assert rec.lam == (F(1),) and rec.witt_a == F(-1)
        assert rec.base_b == Poly.const(1, 1, F(-1, 2))

    def test_l2_exact_reproduction(self):
        spec = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(2,),
                       base_a=(3, F(-1, 2)), base_b=F(5, 3), S={1, 3})
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), [(-1,), (0,), (1,)])
        assert (rec.S, rec.base_a, rec.base_b) == (
            frozenset({1, 3}), (F(3), F(-1, 2)), Poly.const(2, 1, F(5, 3)))
        assert not rec.alternates

    def test_c_family_decode(self):
        spec = mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                       lam=(2,), base_a=(3, -2), S={2})
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), [(-1,), (0,), (1,)])
        assert rec.family == "C" and rec.S == {2} and rec.base_a == (F(3), F(-2))

    def test_d_polynomial_b(self):
        b = Poly.parse("3*d1^2 - 1/2*d2", 2, 2)
        spec = mk_spec(rank=2, loop_vars=2, variant="finite",
                       base_a=(2, 5), base_b=b, S={2})
        rec = RC.recover_parameters(RC.oracle_from_spec(spec))
        assert rec.base_b == b and rec.S == {2} and rec.base_a == (F(2), F(5))

    def test_l1_identification_is_surfaced(self):
        # M(a, b, FULL) = M(-a, -b-1, {}) for l = 1: both tuples are reported
        spec = mk_spec(rank=1, base_a=(2,), base_b=1, S={1, 2})
        rec = RC.recover_parameters(RC.oracle_from_spec(spec))
        tuples = [("A", rec.S, rec.base_a, rec.base_b)] + rec.alternates
        assert len(tuples) == 2
        assert ("A", frozenset({1, 2}), (F(2),), Poly.const(1, 0, 1)) in tuples
        assert ("A", frozenset(), (F(-2),), Poly.const(1, 0, -2)) in tuples

    @pytest.mark.parametrize("b", [F(10**18 + 1, 7), F(10**200 + 1, 3)])
    def test_mixed_s_huge_height(self, b):
        # the leading coefficient's square root must be exact at any height:
        # a float square root misread the first b and overflowed on the second
        spec = toroidal(1, b, {1}, a=(3,))
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), [(-1,), (0,), (1,)])
        tuples = [("A", rec.S, rec.base_a, rec.base_b)] + rec.alternates
        assert ("A", frozenset({1}), (F(3),), Poly.const(1, 1, b)) in tuples
        assert ("A", frozenset({1}), (F(3),), Poly.const(1, 1, -b - 1)) in tuples

    def test_isqrt_exact(self):
        big = 10**200 + 1
        assert RC._isqrt_exact(big * big) == big
        assert RC._isqrt_exact(big * big + 1) is None
        assert RC._isqrt_exact(-4) is None

    def test_negative_samples_rejected_before_any_probe(self):
        probes = []
        inner = RC.oracle_from_spec(toroidal(1, 3, {1}, a=(2,)))
        oracle = RC.ActionOracle(1, 1, "toroidal",
                                lambda gen, p: probes.append(gen) or inner.eval(gen, p))
        with pytest.raises(DomainError):
            RC.recover_parameters(oracle, [(-1,), (0,), (1,)], samples=-5)
        assert probes == []
        rec = RC.recover_parameters(oracle, [(-1,), (0,), (1,)], samples=0)
        assert rec.S == {1} and rec.lam == (F(2),)

    def test_witt_recovery(self):
        spec = mk_spec(rank=0, loop_vars=2, variant="witt", lam=(2, -3), witt_a=-1)
        win = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)]
        rec = RC.recover_parameters(RC.oracle_from_spec(spec), win)
        assert rec.family is None and rec.lam == (F(2), F(-3)) and rec.witt_a == F(-1)


def reference_decode_base(oracle, x_polys, y_polys, lam, witt_a):
    """Every (family, S) pattern of ``reference_patterns`` rebuilt and
    compared, with no reading of S off the degrees: the decoder before the
    factor-count check and its inversion."""
    l, n = oracle.ranks
    at_zero = [Poly(l, n, {e: c for e, c in (x * y).terms.items() if not any(e[:l])})
               for x, y in zip(x_polys, y_polys)]
    roots = [RC._poly_sqrt(at_zero[0].scale(4) + delta) for delta in (0, 1)]
    ones = (F(1),) * l
    found = []
    for family, S in reference_patterns(l):
        if family == "C":
            bs = [Poly.zero(l, n)]
        else:
            e = [int(k not in S) for k in range(1, l + 2)]
            root = roots[(e[0] - e[1]) ** 2]
            signs = () if root is None else (1, -1) if root else (1,)
            bs = [(root.scale(s) - e[0] - e[1]).scale(F(1, 2)) for s in signs]
            bs = [b for b in bs if all(at_zero[i] == (b + e[i]) * (b + e[i + 1])
                                       for i in range(1, l))]
        for b in bs:
            trial = RC._trial_spec(oracle, family, ones, b, S, lam, witt_a)
            if trial is None:
                continue
            xs, ys = R.base_action_polys(trial)
            a = tuple(RC._scalar_ratio(x, X) for x, X in zip(x_polys, xs))
            if all(a) and all(y == Y.scale(1 / a_i) for y, Y, a_i in zip(y_polys, ys, a)):
                entry = (family, S, a, b)
                if entry not in found:
                    found.append(entry)
    found.sort(key=RC._decode_key)
    return found


class TestDegreeInversion:
    """``_degree_patterns`` reads S off the H-degrees of the x_i.1: it
    returns exactly the patterns that the brute-force enumeration groups
    under those factor counts, and nothing for degrees no pattern has."""

    @pytest.mark.parametrize("l", range(1, 9))
    def test_groups_of_the_enumeration(self, l):
        groups = {}
        for family, S in reference_patterns(l):
            groups.setdefault(factor_counts(family, l, S), set()).add((family, S))
        for counts, group in groups.items():
            got = RC._degree_patterns(l, counts[0])
            assert {(family, S) for family, S, _ in got} == group, (l, counts)
            # two A patterns share degrees only at {} and FULL, where x_l.1 is
            # linear and no C pattern has it
            assert len(got) == len(group) <= 2
            for family, S, first in got:
                assert first == RC.slot_polynomials(family, l, S)[0]

    @pytest.mark.parametrize("l", range(1, 5))
    def test_degrees_no_pattern_has(self, l):
        # every x-degree tuple over -1 (a zero x_i.1) .. 3
        have = {factor_counts(family, l, S)[0] for family, S in reference_patterns(l)}
        for degrees in itertools.product(range(-1, 4), repeat=l):
            assert bool(RC._degree_patterns(l, degrees)) == (degrees in have), degrees


class TestDecodePruning:
    """S is read off the H-degrees of the x_i.1, so only the at most two
    patterns that have them are rebuilt, and the decodings stay the same."""

    @staticmethod
    def _decode_both(spec, lam=(), witt_a=None):
        oracle = RC.oracle_from_spec(spec)
        l, n = oracle.ranks
        zero = spec.algebra.zero_degree()
        xs = [oracle.eval(Generator("x", i, zero), oracle.one()) for i in range(1, l + 1)]
        ys = [oracle.eval(Generator("y", i, zero), oracle.one()) for i in range(1, l + 1)]
        return (RC._decode_base(oracle, xs, ys, lam, witt_a),
                reference_decode_base(oracle, xs, ys, lam, witt_a))

    def test_a_family_every_pattern(self):
        for l in (1, 2, 3):
            for S in subsets(l + 1):
                for b in (F(0), F(1), F(-2), F(1, 3), F(-5, 2)):
                    spec = toroidal(l, b, S, a=tuple(F(k + 2, 3) for k in range(l)))
                    got, want = self._decode_both(spec, spec.lam)
                    assert got == want and got, (l, S, b)

    def test_l1_full_and_empty_patterns_both_decoded(self):
        # M(a, b, FULL) = M(-a, -b-1, {}): both patterns have one factor per side
        spec = mk_spec(rank=1, base_a=(2,), base_b=1, S={1, 2})
        got, want = self._decode_both(spec)
        assert got == want
        assert [(S, a) for _, S, a, _ in got] == [(frozenset(), (F(-2),)),
                                                  (frozenset({1, 2}), (F(2),))]

    def test_c_family_every_pattern(self):
        for l in (2, 3):
            for S in subsets(l):
                spec = mk_spec(family="C", rank=l, base_a=tuple(range(1, l + 1)), S=S)
                got, want = self._decode_both(spec)
                assert got == want and got, (l, S)

    @pytest.mark.parametrize("l", [4, 5])
    def test_every_pattern_of_both_families(self, l):
        bs = (F(0), F(1), F(-2), F(1, 3), F(-5, 2))
        for k, S in enumerate(subsets(l + 1)):
            spec = mk_spec(rank=l, base_a=tuple(F(j + 2, 3) for j in range(l)),
                           base_b=bs[k % len(bs)], S=S)
            got, want = self._decode_both(spec)
            assert got == want and got, ("A", l, S)
        for S in subsets(l):
            spec = mk_spec(family="C", rank=l, base_a=tuple(range(1, l + 1)), S=S)
            got, want = self._decode_both(spec)
            assert got == want and got, ("C", l, S)

    @pytest.mark.parametrize("family,S,changes,compared", [
        # a zero x_2.1
        ("A", {1}, {("x", 2): lambda out: out.scale(0)}, ()),
        # x_1.1 of H-degree 3 (S = {2} gives it two factors) with a zero
        # y_1.1, so that the degrees still add up to 2
        ("A", {2}, {("x", 1): lambda out: out * (Poly.H(2, 0, 1) + 1),
                    ("y", 1): lambda out: out.scale(0)}, ()),
        # y_1.1 of one degree more than x + y = 2 allows
        ("A", {1}, {("y", 1): lambda out: out * (Poly.H(2, 0, 2) + 1)}, ()),
        # the C family's x_2.1 is quadratic or constant, never linear; the
        # A family's {} and FULL have these degrees
        ("C", (), {("x", 2): lambda out: Poly.H(2, 0, 2) + 1,
                   ("y", 2): lambda out: out * (Poly.H(2, 0, 2) - 1)}, ("A",)),
    ])
    def test_degrees_no_pattern_has_decode_to_nothing(self, monkeypatch, family, S, changes,
                                                      compared):
        # only patterns of the families in ``compared`` reach a comparison
        spec = mk_spec(family=family, rank=2, base_a=(2, 3),
                       base_b=F(1, 3) if family == "A" else 0, S=S)
        oracle = RC.oracle_from_spec(spec)
        seen = []
        scalars = RC._pattern_scalars
        monkeypatch.setattr(RC, "_pattern_scalars", lambda family, *rest: (
            seen.append(family) or scalars(family, *rest)))

        def eval_fn(gen, p):
            out = oracle.eval(gen, p)
            change = changes.get((gen.kind, gen.index))
            return out if change is None else change(out)

        bad = RC.ActionOracle(2, 0, "finite", eval_fn)
        xs = [bad.eval(Generator("x", i, ()), bad.one()) for i in (1, 2)]
        ys = [bad.eval(Generator("y", i, ()), bad.one()) for i in (1, 2)]
        assert RC._decode_base(bad, xs, ys, (), None) \
            == reference_decode_base(bad, xs, ys, (), None) == []
        with pytest.raises(ClassificationError) as err:
            RC.recover_parameters(bad)
        assert err.value.violated == "generator-pattern"
        assert set(seen) <= set(compared)

    def test_finite_n2_with_a_d_polynomial_b(self):
        b = Poly.parse("3*d1^2 - 1/2*d2", 2, 2)
        for S in subsets(3):
            spec = mk_spec(rank=2, loop_vars=2, base_a=(2, 5), base_b=b, S=S)
            got, want = self._decode_both(spec)
            assert got == want and got, S

    @pytest.mark.parametrize("l,S", [(2, {1, 2, 3}), (2, ()), (3, {1, 2, 3, 4}), (3, {2})])
    def test_a_later_slot_that_does_not_hold_decodes_to_nothing(self, l, S):
        # slot 1 still gives the candidate b; y_2.1 moved by a constant keeps
        # its H-degree but no longer matches the rebuilt Y_2 / a_2
        spec = mk_spec(rank=l, base_a=tuple(range(2, l + 2)), base_b=F(1, 3), S=S)
        oracle = RC.oracle_from_spec(spec)
        xs, ys = R.base_action_polys(spec)
        assert len(RC._decode_base(oracle, xs, ys, (), None)) == 1
        ys = [ys[0], ys[1] + 1, *ys[2:]]
        assert RC._decode_base(oracle, xs, ys, (), None) \
            == reference_decode_base(oracle, xs, ys, (), None) == []

    def test_only_matching_patterns_are_rebuilt(self, monkeypatch):
        spec = mk_spec(rank=2, base_a=(2, 3), base_b=F(1, 3), S={1})
        oracle = RC.oracle_from_spec(spec)
        xs, ys = R.base_action_polys(spec)
        tried = []
        trial = RC._trial_spec
        monkeypatch.setattr(RC, "_trial_spec", lambda oracle, family, a, b, S, *rest: (
            tried.append((family, S)) or trial(oracle, family, a, b, S, *rest)))
        got = RC._decode_base(oracle, xs, ys, (), None)
        pruned = list(tried)
        assert got == reference_decode_base(oracle, xs, ys, (), None)
        counts = factor_counts("A", 2, {1})
        assert pruned and all(factor_counts(f, 2, S) == counts for f, S in pruned)
        assert len(pruned) < len(tried) - len(pruned)
        # a y_1.1 of the wrong H-degree (its value at H = 0 kept, so b still
        # decodes) matches no pattern, whatever the x_i.1 say
        tried.clear()
        ys = [ys[0] * (Poly.H(2, 0, 1) + 1)] + ys[1:]
        assert RC._decode_base(oracle, xs, ys, (), None) == [] == tried
        assert reference_decode_base(oracle, xs, ys, (), None) == [] != tried


class TestSlotPolynomials:
    """The decoder's slot polynomials, read off the factor table, are
    (x_i.1 * y_i.1)|_{H=0} of the rebuilt module at unit a."""

    @staticmethod
    def _at_zero(p, l):
        return Poly(p.l, p.n, {e: c for e, c in p.terms.items() if not any(e[:l])})

    @pytest.mark.parametrize("family,ranks,bs", [
        ("A", (1, 2, 3, 4), (F(0), F(-7, 3), F(5, 2))),
        ("C", (2, 3, 4), (F(0),)),
    ])
    def test_slots_match_the_rebuilt_products(self, family, ranks, bs):
        for l in ranks:
            for S in subsets(l + 1 if family == "A" else l):
                slots = RC.slot_polynomials(family, l, frozenset(S))
                assert len(slots) == l
                for b in bs:
                    spec = mk_spec(family=family, rank=l, base_b=b, S=S)
                    xs, ys = R.base_action_polys(spec)
                    for (coeffs, den), x, y in zip(slots, xs, ys):
                        value = sum(c * b**k for k, c in enumerate(coeffs)) / den
                        assert self._at_zero(x * y, l) == value, (family, l, S, b)


class TestDecodeRefusals:
    """Candidates whose trial spec is refused decode to nothing, as before
    the decoder compared integer forms."""

    @staticmethod
    def _reads(spec, variant=None):
        inner = RC.oracle_from_spec(spec)
        oracle = RC.ActionOracle(inner.rank, inner.loop_vars, variant or inner.variant,
                                 inner.eval)
        zero = spec.algebra.zero_degree()
        xs = [inner.eval(Generator("x", i, zero), inner.one()) for i in range(1, inner.rank + 1)]
        ys = [inner.eval(Generator("y", i, zero), inner.one()) for i in range(1, inner.rank + 1)]
        return oracle, xs, ys

    def test_a_non_scalar_b_under_a_toroidal_or_full_oracle(self):
        spec = mk_spec(rank=2, loop_vars=1, base_a=(2, 5), base_b=Poly.parse("d1 - 3", 2, 1),
                       S={1})
        oracle, xs, ys = self._reads(spec)
        assert RC._decode_base(oracle, xs, ys, (), None)
        for variant, witt_a in (("toroidal", None), ("full", F(1))):
            oracle, xs, ys = self._reads(spec, variant)
            args = (oracle, xs, ys, (F(2),), witt_a)
            assert RC._decode_base(*args) == reference_decode_base(*args) == []

    def test_a_zero_x_or_y(self):
        spec = mk_spec(rank=2, base_a=(2, 5), base_b=F(1, 3), S={1})
        oracle, xs, ys = self._reads(spec)
        for bad in ((xs[:1] + [Poly.zero(2, 0)], ys), (xs, [Poly.zero(2, 0)] + ys[1:])):
            args = (oracle, *bad, (), None)
            assert RC._decode_base(*args) == reference_decode_base(*args) == []


class TestRecoveryAtMaxRank:
    """S is read off the H-degrees in time linear in l, so a spec of the
    largest rank the spec format takes recovers in-process within 2 s (the
    enumeration of every pattern took ~55 s at A_16)."""

    @pytest.mark.parametrize("family,S,b", [
        ("A", frozenset(range(1, R.MAX_RANK + 2)), 1),
        ("C", frozenset({2, 3, 7, 11, R.MAX_RANK}), 0),
    ])
    def test_rank_16_toroidal(self, family, S, b):
        l = R.MAX_RANK
        spec = mk_spec(family=family, rank=l, loop_vars=1, variant="toroidal", lam=(2,),
                       base_b=b, S=S)
        start = time.perf_counter()
        rec = RC.recover_parameters(RC.oracle_from_spec(spec))
        elapsed = time.perf_counter() - start
        assert (rec.family, rec.S) == (family, S)
        assert elapsed < 2, elapsed


class TestRecoveryParity:
    @staticmethod
    def _outcome(oracle, window, seed=0):
        try:
            return RC.recover_parameters(oracle, window, seed=seed).to_dict()
        except ClassificationError as exc:
            return [exc.violated, exc.details, str(exc)]

    def test_outputs_are_frozen(self):
        # the blackbox workload's recoveries at every shape and height (the
        # huge-b l = 1 mixed-S specs among them), its defect kinds and its
        # l = 1 flip pairs, for two seeds, and a finite n = 2 spec whose b is
        # a d-polynomial; frozen before queries were asked once and the
        # decoder compared integer forms
        W = load_workloads()
        out = []
        for seed in (1, 7):
            for job in W.blackbox(random.Random(f"blackbox:{seed}")):
                v = dict(zip(job.run.__code__.co_freevars,
                             (c.cell_contents for c in job.run.__closure__)))
                if job.label.startswith("recover"):
                    out.append(self._outcome(RC.oracle_from_spec(v["spec"]), v["window"],
                                             v["seed"]))
                elif job.label.startswith("defect"):
                    out.append(self._outcome(
                        RC.inject_defect(RC.oracle_from_spec(v["spec"]), v["kind"]), W.W3))
                elif job.label.startswith("iso flip"):
                    out += [self._outcome(RC.oracle_from_spec(s), W.W3) for s in (v["s1"], v["s2"])]
        b = Poly.parse("3*d1^2 - 1/2*d2", 2, 2)
        spec = mk_spec(rank=2, loop_vars=2, base_a=(2, 5), base_b=b, S={2})
        out.append(self._outcome(RC.oracle_from_spec(spec), None))
        assert len(out) == 87 and sum(isinstance(o, list) for o in out) == 6
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == "af19836108d0aab16068c82bb677aaf2e1f82dfa63a1c2137a144f86caf26e5a"

    @pytest.mark.parametrize("spec,window", [
        (mk_spec(rank=2, loop_vars=1, variant="full", lam=(3,), witt_a=2, base_a=(2, 3),
                 base_b=F(1, 2), S={1}), [(-1,), (0,), (1,)]),
        (mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal", lam=(2,),
                 base_a=(3, -2), S={2}), None),
        (mk_spec(rank=2, loop_vars=2, base_a=(2, 5), base_b=Poly.parse("d1 - 3", 2, 2),
                 S={1, 3}), None),
    ], ids=["A2-full", "C2-toroidal", "A2-finite"])
    def test_each_query_reaches_the_oracle_once_per_call(self, spec, window):
        inner = RC.oracle_from_spec(spec)
        asked = []
        oracle = RC.ActionOracle(inner.rank, inner.loop_vars, inner.variant,
                                 lambda gen, p: asked.append((gen, p)) or inner.eval(gen, p))
        first = RC.recover_parameters(oracle, window).to_dict()
        calls = len(asked)
        assert calls and len(set(asked)) == calls
        # no answer is kept across calls: a second call asks every query again
        assert RC.recover_parameters(oracle, window).to_dict() == first
        assert asked[calls:] == asked[:calls]


class TestDefectDetection:
    @pytest.mark.parametrize(
        "defect,violated",
        [
            ("center", "center-annihilation"),
            ("loop-scaling", "loop-scaling"),
            ("lambda-mismatch", "shift-scalar-consistency"),
        ],
    )
    def test_injected_defects_are_attributed(self, defect, violated):
        spec = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(3,),
                       base_a=(2, 1), base_b=1, S={1})
        bad = RC.inject_defect(RC.oracle_from_spec(spec), defect)
        with pytest.raises(ClassificationError) as err:
            RC.recover_parameters(bad, [(-1,), (0,), (1,)])
        assert err.value.violated == violated

    def test_assertion_checks_directly(self):
        spec = toroidal(1, 3, {1}, lam=(2,))
        oracle = RC.oracle_from_spec(spec)
        assert RC.check_assertion_A(oracle, WIN1).passed
        assert RC.check_assertion_B(oracle, WIN1, lam=spec.lam).passed
        bad = RC.inject_defect(oracle, "center")
        rep = RC.check_assertion_A(bad, WIN1)
        assert not rep.passed and rep.failures[0]["generator"].startswith("K1")

    def test_assertion_failure_reports_are_frozen(self):
        # frozen while the checks still scaled a Fraction copy per case and
        # built a record closure for each
        spec = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(F(3, 2),),
                       base_a=(2, F(-1, 3)), base_b=F(1, 2), S={1})
        window = [(-1,), (0,), (1,)]
        out = []
        for defect in ("center", "loop-scaling", "lambda-mismatch"):
            bad = RC.inject_defect(RC.oracle_from_spec(spec), defect)
            out += [RC.check_assertion_A(bad, window).to_dict(),
                    RC.check_assertion_B(bad, window, spec.lam).to_dict()]
        assert [(r["cases_run"], len(r["failures"])) for r in out] == [
            (3, 3), (18, 0), (3, 0), (18, 2), (3, 0), (18, 2)]
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == "5b5bbea656485a26adac8981fb2cef8912af3cea44c17943a645cad8795dc4f9"

    @staticmethod
    def _tampered(spec, hit, change):
        """spec's oracle with change(out) applied wherever hit(gen) holds."""
        oracle = RC.oracle_from_spec(spec)

        def eval_fn(gen, p):
            out = oracle.eval(gen, p)
            return change(out) if hit(gen) else out

        return RC.ActionOracle(oracle.rank, oracle.loop_vars, oracle.variant, eval_fn)

    def test_unmatched_y_is_a_pattern_violation(self):
        # y_2.1 + H_1 leaves every x_i.1 y_i.1 at H = 0 unchanged, so b and S
        # survive; only the rebuilt y_2.1 can tell
        spec = mk_spec(rank=2, base_a=(2, 3), base_b=1, S={1})
        bad = self._tampered(spec, lambda g: g.kind == "y" and g.index == 2,
                             lambda out: out + Poly.H(2, 0, 1))
        with pytest.raises(ClassificationError) as err:
            RC.recover_parameters(bad)
        assert err.value.violated == "generator-pattern"

    @pytest.mark.parametrize("variant,details", [
        ("witt", "t^(e1) d1.1 is not affine in d1"),
        ("full", "t^(e1) d1.1 leading coefficient disagrees with lambda_1"),
    ])
    def test_derivation_sector_defects(self, variant, details):
        rank = 0 if variant == "witt" else 1
        spec = mk_spec(rank=rank, loop_vars=1, variant=variant, lam=(2,), witt_a=3,
                       base_a=(2,), base_b=1, S={1})
        d1 = Poly.d(rank, 1, 1)
        bad = self._tampered(spec, lambda g: g.kind == "D" and g.r == (1,),
                             lambda out: out + d1 * d1)
        with pytest.raises(ClassificationError) as err:
            RC.recover_parameters(bad, WIN1)
        assert (err.value.violated, err.value.details) == ("witt-scalar-consistency", details)


class TestIso:
    def test_reflexive(self):
        s = toroidal(1, 3, {1})
        assert R.iso_test(s, s)

    def test_witt_a_matters(self):
        s1 = mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                     base_a=(2,), base_b=3, S={1})
        s2 = mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=1,
                     base_a=(2,), base_b=3, S={1})
        assert not R.iso_test(s1, s2)

    def test_lambda_matters(self):
        s1 = toroidal(1, 3, {1}, lam=(2,))
        s2 = toroidal(1, 3, {1}, lam=(3,))
        assert not R.iso_test(s1, s2)

    def test_shape_mismatch_rejected(self):
        s1 = toroidal(1, 3, {1})
        s2 = mk_spec(rank=1, base_b=3, S={1})
        with pytest.raises(DomainError):
            R.iso_test(s1, s2)

    @pytest.mark.parametrize("variant", ["toroidal", "full"])
    def test_action_identical_pairs_are_isomorphic(self, variant):
        # at l = 1, b and -b-1 give the same action for mixed S, and
        # M(a, b, FULL) = M(-a, -b-1, {}); both pairs act identically
        def spec(a, b, S):
            return mk_spec(rank=1, loop_vars=1, variant=variant, lam=(2,),
                           witt_a=0 if variant == "full" else None,
                           base_a=(a,), base_b=b, S=S)

        for s1, s2 in ((spec(3, F(1, 3), {1}), spec(3, F(-4, 3), {1})),
                       (spec(3, 2, {1, 2}), spec(-3, -3, ()))):
            assert R.base_action_polys(s1) == R.base_action_polys(s2)
            assert R.iso_test(s1, s2) and R.iso_test(s2, s1)
        # the same b at another a, or another b, is a different module
        assert not R.iso_test(spec(3, F(1, 3), {1}), spec(-3, F(-4, 3), {1}))
        assert not R.iso_test(spec(3, 2, {1, 2}), spec(-3, -2, ()))

    def test_equivalence_relation(self):
        specs = [
            toroidal(1, b, S, lam=(lam,))
            for b in (0, 1) for S in ((), (1,)) for lam in (2, 3)
        ]
        for s1, s2 in itertools.product(specs, repeat=2):
            r12 = R.iso_test(s1, s2)
            assert r12 == R.iso_test(s2, s1)
            assert R.iso_test(s1, s1)
            for s3 in specs:
                if r12 and R.iso_test(s2, s3):
                    assert R.iso_test(s1, s3)


def dense(mats, dim):
    """Sparse-row matrices as dense lists of rows."""
    return [[[row.get(c, F(0)) for c in range(dim)] for row in m] for m in mats]


def rref_kernel(rows, cols):
    """Kernel basis read off the reduced row echelon form: one vector per
    free column j, equal to 1 at j and 0 at the other free columns."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(cols):
        r = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        m[top] = [x / m[top][c] for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[top])]
        pivots.append(c)
    basis = []
    for j in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[j] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][j]
        basis.append(v)
    return basis


class TestLinearAlgebraHelpers:
    def test_nullspace(self):
        rows = [{0: F(1), 1: F(2), 2: F(3)}, {0: F(2), 1: F(4), 2: F(6)}]
        basis = SR.nullspace(rows, 3)
        assert len(basis) == 2
        for v in basis:
            assert all(
                sum(x * v[c] for c, x in row.items()) == 0 for row in rows
            )

    def test_nullspace_trivial(self):
        rows = [{0: F(1)}, {1: F(1)}]
        assert SR.nullspace(rows, 2) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nullspace_is_the_rref_basis(self, data):
        cols = data.draw(st.integers(1, 6))
        entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=7))
        if rows and data.draw(st.booleans()):
            rows.append(list(data.draw(st.sampled_from(rows))))
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [F(0)] * cols)
        if data.draw(st.booleans()):
            # full rank: a unit upper-triangular block, shuffled in
            square = [[F(int(i == j)) if j <= i else data.draw(entry) for j in range(cols)]
                      for i in range(cols)]
            rows = data.draw(st.permutations(rows + square))
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert SR.nullspace(sparse, cols) == rref_kernel(rows, cols)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_echelon_on_exponent_tuples_tracks_the_rank(self, data):
        # rows keyed like Poly terms; the rank comes from a Gauss-Jordan
        # elimination over the sorted keys
        entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
        key = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
        vecs = data.draw(st.lists(st.dictionaries(key, entry, max_size=5), max_size=8))
        keys = sorted({k for v in vecs for k in v})

        def rank(rows):
            dense_rows = [[r.get(k, F(0)) for k in keys] for r in rows]
            return len(keys) - len(rref_kernel(dense_rows, len(keys)))

        echelon = SR.Echelon()
        added: list[dict] = []
        before = 0
        for v in vecs:
            if added and data.draw(st.booleans()):
                # a combination of the rows so far (zero entries kept), with or
                # without v added
                coeffs = data.draw(st.lists(entry, min_size=len(added), max_size=len(added)))
                v = dict(v) if data.draw(st.booleans()) else {}
                for c, r in zip(coeffs, added):
                    for k, x in r.items():
                        v[k] = v.get(k, F(0)) + c * x
            after = rank(added + [v])
            assert (not echelon.reduce(v)) == (after == before)
            assert echelon.add(v) == (after > before)
            added.append(v)
            before = after
            assert not echelon.reduce(v)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.dictionaries(st.integers(0, 5), st.sampled_from([-2, -1, -1, 1, 1, 3]),
                                      min_size=1, max_size=4), max_size=8),
        probe=st.dictionaries(st.integers(0, 5), st.integers(-2, 2), max_size=4),
    )
    def test_echelon_matches_the_always_rescaling_reference(self, rows, probe):
        # integer rows with leads of +-1, so most cofactors p are +-1
        echelon, reference = SR.Echelon(), RescalingEchelon()
        for row in rows:
            kept = dict(row)
            assert echelon.reduce(row) == reference.reduce(row)
            assert echelon.add(row) == reference.add(row)
            assert row == kept
            assert echelon.pivots == reference.pivots
        assert echelon.reduce(probe) == reference.reduce(probe)
        with mock.patch.object(SR, "Echelon", RescalingEchelon):
            want = SR.nullspace(rows, 6)
        assert SR.nullspace(rows, 6) == want

    def test_irrep_dimensions(self):
        assert SR.weyl_dim_A((2,)) == 3
        assert SR.weyl_dim_A((1, 1)) == 8
        assert SR.weyl_dim_A((0, 3)) == 10
        assert SR.irrep_A(2, (1, 1)).dim == 8

    @pytest.mark.parametrize(
        "rank,weights",
        [(1, (m,)) for m in range(19)]
        + [(2, (1, 1)), (2, (2, 2)), (2, (0, 6)), (3, (1, 0, 1)), (3, (1, 1, 1))],
    )
    def test_gelfand_tsetlin_irrep_satisfies_sl_relations(self, rank, weights):
        rep = SR.build_irrep_A(rank, weights)
        assert rep.dim == SR.weyl_dim_A(weights)
        dim = rep.dim
        # irreducible: the vectors killed by every X_i form one line
        assert len(SR.nullspace([row for x in rep.x_mats for row in x], dim)) == 1
        zero = [[F(0)] * dim for _ in range(dim)]
        x_mats, y_mats = dense(rep.x_mats, dim), dense(rep.y_mats, dim)

        def frozen(m):
            return tuple(tuple(row) for row in m)

        def h(i):
            if not 1 <= i <= rank:
                return zero
            return [[F(w[i - 1], rank + 1) if r == s else F(0) for s in range(dim)]
                    for r, w in enumerate(rep.h_int)]

        def lin(*terms):
            return [[sum(c * m[r][s] for c, m in terms) for s in range(dim)]
                    for r in range(dim)]

        for i in range(1, rank + 1):
            xi, yi = x_mats[i - 1], y_mats[i - 1]
            for j in range(1, rank + 1):
                xj, yj = x_mats[j - 1], y_mats[j - 1]
                same = i == j
                cartan = lin((2, h(i)), (-1, h(i - 1)), (-1, h(i + 1)))
                assert mat_comm(xi, yj) == frozen(cartan if same else zero)
                assert mat_comm(h(j), xi) == frozen(xi if same else zero)
                assert mat_comm(h(j), yi) == frozen(lin((-1, yi)) if same else zero)
                if abs(i - j) == 1:
                    assert mat_is_zero(mat_comm(xi, mat_comm(xi, xj)))
                    assert mat_is_zero(mat_comm(yi, mat_comm(yi, yj)))
                if abs(i - j) >= 2:
                    assert mat_is_zero(mat_comm(xi, xj))
                    assert mat_is_zero(mat_comm(yi, yj))

    def test_irrep_relations(self):
        rep = SR.irrep_A(2, (2, 0))
        x_mats = dense(rep.x_mats, rep.dim)
        for j in range(2):
            hj = [[F(w[j], 3) if r == s else F(0) for s in range(rep.dim)]
                  for r, w in enumerate(rep.h_int)]
            for i in range(2):
                delta = 1 if i == j else 0
                comm = mat_comm(hj, x_mats[i])
                scaled = [[delta * x for x in row] for row in x_mats[i]]
                assert mat_is_zero(mat_sub(comm, scaled))
