import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torofree.errors import DomainError, StructureError
from torofree.polyalg import (
    Poly,
    ShiftOperator,
    VarId,
    deg_in,
    divides,
    shift_difference,
    shift_sigma,
    shift_tau,
    try_divide,
)

L, N = 2, 2
H1 = Poly.H(L, N, 1)
H2 = Poly.H(L, N, 2)
D1 = Poly.d(L, N, 1)
D2 = Poly.d(L, N, 2)


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=9)


@st.composite
def polys(draw, l=L, n=N, max_deg=4, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * (l + n)
        for _ in range(draw(st.integers(0, max_deg))):
            exp[draw(st.integers(0, l + n - 1))] += 1
        coeff = draw(st.integers(-9, 9))
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return Poly(l, n, {e: Fraction(c) for e, c in terms.items()})


class TestArithmetic:
    def test_additive_inverse(self):
        assert (H1 + (-H1)).is_zero()

    def test_difference_of_squares(self):
        assert (H1 + 1) * (H1 - 1) == H1 * H1 - 1

    def test_rational_cancellation(self):
        assert D1.scale(3).scale(Fraction(2, 3)) == 2 * D1

    def test_rank_mismatch(self):
        with pytest.raises(StructureError):
            H1 + Poly.H(1, 1, 1)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_canonical_form(self, p, q):
        # p - q == 0 iff the term maps agree
        assert ((p - q).is_zero()) == (p.terms == q.terms)


class TestShifts:
    def test_sigma_square(self):
        assert shift_sigma(1, 1, H1 * H1) == H1 * H1 - 2 * H1 + 1

    def test_sigma_identity(self):
        p = H1 * D2 + 3
        assert shift_sigma(1, 0, p) == p

    def test_sigma_fixes_other_variables(self):
        assert shift_sigma(1, -1, H2 * D1) == H2 * D1

    def test_tau_square(self):
        assert shift_tau((1, 0), D1 * D1) == (D1 - 1) * (D1 - 1)

    def test_tau_identity(self):
        p = H1 * D1 - D2
        assert shift_tau((0, 0), p) == p

    def test_tau_componentwise(self):
        assert shift_tau((2, -1), D1 + D2) == (D1 - 2) + (D2 + 1)

    def test_tau_length_check(self):
        with pytest.raises(StructureError):
            shift_tau((1,), D1)

    @given(polys(), polys(), st.integers(-3, 3), st.integers(1, L))
    @settings(max_examples=40, deadline=None)
    def test_sigma_is_ring_map(self, p, q, k, i):
        assert shift_sigma(i, k, p + q) == shift_sigma(i, k, p) + shift_sigma(i, k, q)
        assert shift_sigma(i, k, p * q) == shift_sigma(i, k, p) * shift_sigma(i, k, q)

    @given(polys(), st.integers(-3, 3), st.integers(1, L))
    @settings(max_examples=40, deadline=None)
    def test_sigma_invertible(self, p, k, i):
        assert shift_sigma(i, -k, shift_sigma(i, k, p)) == p

    @given(polys(), st.integers(-2, 2), st.integers(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_shifts_commute(self, p, k, m):
        a = shift_sigma(1, k, shift_tau((m, 0), p))
        b = shift_tau((m, 0), shift_sigma(1, k, p))
        assert a == b
        c = shift_sigma(2, m, shift_sigma(1, k, p))
        d = shift_sigma(1, k, shift_sigma(2, m, p))
        assert c == d


@st.composite
def operators(draw, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        u = tuple(draw(st.integers(-2, 2)) for _ in range(L + N))
        terms[u] = draw(polys(max_deg=2, max_terms=3))
    return ShiftOperator(L, N, terms)


class TestShiftOperators:
    @given(operators(), operators(), polys())
    @settings(max_examples=40, deadline=None)
    def test_compose_is_composition(self, A, B, p):
        assert A.compose(B).apply(p) == A.apply(B.apply(p))
        assert A.bracket(B).apply(p) == A.apply(B.apply(p)) - B.apply(A.apply(p))
        assert (A + B.scale(3)).apply(p) == A.apply(p) + 3 * B.apply(p)

    def test_single_term_moves_coefficients(self):
        # (H1 T_u)(H1 T_v) = H1 * sigma_1(H1) T_(u+v); tau_1 fixes H1, so [A, B] = -H1 T_(u+v)
        A = ShiftOperator(L, N, {(1, 0, 0, 0): H1})
        B = ShiftOperator(L, N, {(0, 0, 1, 0): H1})
        assert A.compose(B) == ShiftOperator(L, N, {(1, 0, 1, 0): H1 * (H1 - 1)})
        assert A.bracket(B) == ShiftOperator(L, N, {(1, 0, 1, 0): -H1})

    def test_zero_terms_dropped_and_text(self):
        op = ShiftOperator(L, N, {(0, 0, 0, 0): Poly.zero(L, N), (0, -1, 0, 0): H2 - 1})
        assert list(op.terms) == [(0, -1, 0, 0)]
        assert op.text() == "(H2 - 1)*T(0,-1,0,0)"
        assert (op - op).is_zero() and (op - op).text() == "0"
        assert ShiftOperator(L, N).apply(H1) == Poly.zero(L, N)

    def test_rank_mismatch(self):
        with pytest.raises(StructureError):
            ShiftOperator(L, N, {(0, 0, 0, 0): H1}).apply(Poly.H(2, 1, 1))


def assert_canonical(p):
    assert all(type(e) is tuple and len(e) == p.l + p.n for e in p.terms)
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


def mixed(p, q, a, b):
    # rational coefficients with unlike denominators
    return p.scale(a) + q.scale(b)


def tall_rationals():
    # heights up to ~1e20, with unlike denominators
    return rationals() | st.builds(Fraction, st.integers(-10**20, 10**20),
                                   st.integers(1, 10**20))


@st.composite
def tall_polys(draw, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * (L + N)
        for _ in range(draw(st.integers(0, max_deg))):
            exp[draw(st.integers(0, L + N - 1))] += 1
        terms[tuple(exp)] = draw(tall_rationals())
    return Poly(L, N, terms)


@st.composite
def tall_operators(draw, max_terms=3):
    # several terms, negative shifts, tall rational coefficients
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        u = tuple(draw(st.integers(-3, 2)) for _ in range(L + N))
        terms[u] = draw(tall_polys(max_deg=2, max_terms=3))
    return ShiftOperator(L, N, terms)


def reference_apply(A, p):
    """sum_u f_u * p.shift(u) by plain Fraction arithmetic: each variable v is
    replaced by v - u_v term by term, then multiplied out, and the sum goes
    through the public constructor."""
    total = {}
    for u, f in A.terms.items():
        shifted = {}
        for exp, c in p.terms.items():
            choices = [[(j, Fraction(comb(e, j)) * Fraction(-d) ** (e - j)) for j in range(e + 1)]
                       for e, d in zip(exp, u)]
            for picks in itertools.product(*choices):
                key = tuple(j for j, _ in picks)
                value = c
                for _, w in picks:
                    value *= w
                shifted[key] = shifted.get(key, Fraction(0)) + value
        for ea, ca in shifted.items():
            for eb, cb in f.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                total[key] = total.get(key, Fraction(0)) + ca * cb
    return Poly(A.l, A.n, total)


class TestTrustedKernel:
    @given(polys(), polys(), rationals(), rationals(),
           st.lists(st.integers(-3, 3), min_size=L + N, max_size=L + N),
           st.lists(rationals(), min_size=L + N, max_size=L + N))
    @settings(max_examples=60, deadline=None)
    def test_shift_evaluation_oracle(self, p, q, a, b, deltas, point):
        f = mixed(p, q, a, b)
        moved = [x - dk for x, dk in zip(point, deltas)]
        assert f.shift(deltas).eval(point) == f.eval(moved)

    @given(polys(), polys(), polys(), rationals(), rationals(), rationals(),
           st.lists(st.integers(-3, 3), min_size=L + N, max_size=L + N))
    @settings(max_examples=60, deadline=None)
    def test_results_are_canonical(self, p, q, r, a, b, c, deltas):
        f, g = mixed(p, q, a, b), mixed(q, r, b, c)
        for out in (f + g, f - g, f - f, -f, f * g, f * (g - g), f.scale(c),
                    f.shift(deltas), f.shift([0] * (L + N))):
            assert_canonical(out)
        if not g.is_zero():
            quot = try_divide(f * g, g)
            assert quot == f
            assert_canonical(quot)

    @given(tall_operators(), tall_polys())
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_fraction_reference(self, A, p):
        got = A.apply(p)
        assert got == reference_apply(A, p)
        assert_canonical(got)

    @given(tall_operators(), tall_operators(), tall_polys())
    @settings(max_examples=40, deadline=None)
    def test_compose_applied_is_nested_apply(self, A, B, p):
        AB = A.compose(B)
        assert AB.apply(p) == A.apply(B.apply(p))
        for f in AB.terms.values():
            assert_canonical(f)

    def test_public_constructor_coerces_and_drops_zeros(self):
        p = Poly(L, N, {(1, 0, 0, 0): 2, (0, 1, 0, 0): 0, (0, 0, 0, 0): Fraction(0)})
        assert p.terms == {(1, 0, 0, 0): Fraction(2)}
        assert_canonical(p)
        assert Poly(L, N, {(0, 0, 1, 0): "1/3"}) == D1.scale(Fraction(1, 3))

    def test_public_constructor_rejects_bad_exponents(self):
        for bad in ((1, -1, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(StructureError):
                Poly(L, N, {bad: 1})

    def test_public_constructor_rejects_bad_exponents_with_zero_coefficient(self):
        # the exponent is checked before the zero coefficient is dropped
        with pytest.raises(StructureError):
            Poly(1, 1, {(-1, 0): 0, (1,): 0})
        for bad in ((1, -1, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(StructureError):
                Poly(L, N, {bad: 0})


class TestDegrees:
    def test_deg_of_zero_is_minus_one(self):
        assert deg_in(VarId("H", 1), Poly.zero(L, N)) == -1

    def test_deg_reads_exponent(self):
        assert deg_in(VarId("H", 1), H1 * H1 * D1 + 3) == 2

    def test_deg_absent_variable(self):
        assert deg_in(VarId("d", 2), H1) == 0

    def test_power_minus_id_drops_degree(self):
        out = shift_difference("power_minus_id", 1, 1, H1 * H1)
        assert out == -2 * H1 + 1

    def test_difference_power_kills_low_degree(self):
        assert shift_difference("difference_power", 3, 1, H1 * H1).is_zero()

    def test_difference_power_zero_is_identity(self):
        p = H1 * D1 + 5
        assert shift_difference("difference_power", 0, 1, p) == p

    def test_power_minus_id_rejects_zero(self):
        with pytest.raises(DomainError):
            shift_difference("power_minus_id", 0, 1, H1)


class TestTextForm:
    def test_example_round_trip(self):
        text = "3/2*H1^2*d1 - d2 + 5"
        p = Poly.parse(text, 1, 2)
        assert p.text() == text

    def test_zero(self):
        assert Poly.zero(L, N).text() == "0"
        assert Poly.parse("0", L, N).is_zero()

    def test_bad_literals(self):
        for bad in ("H0", "q1", "H1^^2", "", "1 +", "H1^-2"):
            with pytest.raises(StructureError):
                Poly.parse(bad, L, N)

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert Poly.parse(p.text(), L, N) == p

    @given(polys())
    @settings(max_examples=30, deadline=None)
    def test_deterministic_order(self, p):
        # serialization is unique: rebuilt values print identically
        q = Poly(L, N, dict(reversed(list(p.terms.items()))))
        assert q.text() == p.text()


class TestDivision:
    def test_exact(self):
        p = (H1 - 2) * (H2 + D1)
        assert try_divide(p, H1 - 2) == H2 + D1

    def test_not_divisible(self):
        assert try_divide(H1 * H1 + 1, H1) is None

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_product_always_divides(self, p, q):
        if q.is_zero():
            return
        assert divides(q, p * q)
        if not p.is_zero():
            assert try_divide(p * q, q) == p
