import hashlib
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    iterated_shift_difference,
    reference_add,
    reference_apply,
    reference_compose,
    reference_divide,
    reference_mul,
    reference_shift,
    reference_shift_difference,
)
from torofree.errors import DomainError, StructureError
from torofree.polyalg import (
    MAX_EXPONENT,
    MAX_SLOT_EXPONENT,
    SLOT_BITS,
    Poly,
    ShiftOperator,
    VarId,
    _moved,
    _shift_row,
    deg_in,
    divides,
    pack_exponent,
    shift_difference,
    shift_sigma,
    shift_tau,
    try_divide,
    unpack_exponent,
)

L, N = 2, 2
H1 = Poly.H(L, N, 1)
H2 = Poly.H(L, N, 2)
D1 = Poly.d(L, N, 1)
D2 = Poly.d(L, N, 2)


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=9)


@st.composite
def polys(draw, l=L, n=N, max_deg=4, max_terms=5, coeffs=st.integers(-9, 9)):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * (l + n)
        for _ in range(draw(st.integers(0, max_deg))):
            exp[draw(st.integers(0, l + n - 1))] += 1
        coeff = draw(coeffs)
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

    @pytest.mark.parametrize("amount", [1.7, 0.5, 1.0, -2.0, Fraction(1, 2), Fraction(2), "1"])
    def test_every_entry_point_refuses_an_amount_that_is_not_an_int(self, amount):
        # shift_tau used to truncate through int(), so that (1.7, 0) moved d1
        # by 1 and (1/2, 0) not at all; the others raised a TypeError whose
        # text followed what the caches had seen
        bad = f"shift amount {amount!r} is not an integer"
        p = H1**3 * D1 + D2 - 4
        for call in (lambda: p.shift((0, amount, 0, 0)),
                     lambda: shift_tau((0, amount), p),
                     lambda: shift_sigma(1, amount, p),
                     lambda: shift_difference("power_minus_id", amount, 1, p),
                     lambda: shift_difference("difference_power", amount, 2, p),
                     lambda: shift_difference("difference_power", amount, 2, Poly.zero(L, N))):
            with pytest.raises(StructureError) as err:
                call()
            assert str(err.value) == bad

    def test_the_refusal_does_not_follow_the_shift_cache(self):
        # the cache of moved slots finds the entry of Fraction(1, 2) for 0.5
        # and that of 1 for 1.0; each call still names its own amount
        _moved((Fraction(1, 2), 0, 0, 0))
        assert H1.shift((1, 0, 0, 0)) == H1 - 1
        for amount in (Fraction(1, 2), 0.5, 1.0):
            for call in (lambda: H1.shift((amount, 0, 0, 0)),
                         lambda: shift_difference("power_minus_id", amount, 1, H1 * H1)):
                with pytest.raises(StructureError) as err:
                    call()
                assert str(err.value) == f"shift amount {amount!r} is not an integer"

    def test_int_and_bool_amounts_shift_as_before(self):
        p = H1 * H1 * D1
        assert shift_tau((True, False), p) == shift_tau((1, 0), p) == H1 * H1 * (D1 - 1)
        assert shift_sigma(1, True, p) == shift_sigma(1, 1, p) == (H1 - 1) * (H1 - 1) * D1
        assert p.shift((False, True, 0, 0)) == p.shift((0, 1, 0, 0)) == p
        assert shift_difference("difference_power", True, 1, p) == shift_sigma(1, 1, p) - p
        assert shift_difference("power_minus_id", True, 1, p) == shift_sigma(1, 1, p) - p

    def test_shift_row_matches_the_binomial_formula(self):
        for e in range(41):
            for dlt in range(-2, 3):
                want = tuple(((e - j) << SLOT_BITS, comb(e, j) * (-dlt) ** (e - j))
                             for j in range(e + 1))
                assert _shift_row.__wrapped__(SLOT_BITS, e, dlt) == want, (e, dlt)

    def test_large_exponent_shift_returns(self):
        # one slot at exponent 2^12: 4097 terms of (H1 - 1)^4096
        p = Poly(1, 0, {(2**12,): 1}).shift([1])
        assert len(p.nums) == 2**12 + 1
        assert p.coeff((2**12 - 1,)) == -(2**12) and p.constant_term() == 1

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

    def test_a_shift_amount_that_is_not_an_int_is_refused(self):
        # such an operator used to reach the caches of apply: after
        # ShiftOperator(1, 1, {(1.0, 0): 1}).apply(H1^3), _shift_row's entry
        # for 1.0 held floats, so (H1^3).shift((1, 0)) came back with float
        # numerators and its text() raised TypeError
        _moved.cache_clear()
        _shift_row.cache_clear()
        h1 = Poly.H(1, 1, 1)
        with pytest.raises(StructureError) as err:
            ShiftOperator(1, 1, {(1.0, 0): Poly.const(1, 1, 1)}).apply(h1**3)
        assert str(err.value) == "shift amount 1.0 is not an integer"
        cube = (h1**3).shift((1, 0))
        assert all(type(c) is int for c in cube.nums.values())
        assert cube.text() == "H1^3 - 3*H1^2 + 3*H1 - 1"

    def test_zero_terms_dropped_and_text(self):
        op = ShiftOperator(L, N, {(0, 0, 0, 0): Poly.zero(L, N), (0, -1, 0, 0): H2 - 1})
        assert list(op.terms) == [(0, -1, 0, 0)]
        assert op.text() == "(H2 - 1)*T(0,-1,0,0)"
        assert (op - op).is_zero() and (op - op).text() == "0"
        assert ShiftOperator(L, N).apply(H1) == Poly.zero(L, N)

    def test_rank_mismatch(self):
        with pytest.raises(StructureError):
            ShiftOperator(L, N, {(0, 0, 0, 0): H1}).apply(Poly.H(2, 1, 1))

    def test_operators_of_different_ranks_never_mix(self):
        # (1, 1) and (2, 1) operators: the H2 of one ring is not the d1 of the other
        A = ShiftOperator(1, 1, {(1, 0): Poly.H(1, 1, 1)})
        B = ShiftOperator(2, 1, {(0, 1, 0): Poly.H(2, 1, 2)})
        for X, Y in ((A, B), (B, A)):
            for step in (X.compose, X.bracket, X.__add__, X.__sub__):
                with pytest.raises(StructureError, match="rank mismatch"):
                    step(Y)
        # an empty operator of other ranks is refused too
        with pytest.raises(StructureError):
            A.bracket(ShiftOperator(2, 1))

    def test_constructor_refuses_a_shift_of_the_wrong_length(self):
        for bad in ((1, 0, 0), (1, 0, 0, 0, 0), ()):
            with pytest.raises(StructureError, match="length"):
                ShiftOperator(L, N, {bad: H1})
        # whatever its coefficient
        with pytest.raises(StructureError, match="length"):
            ShiftOperator(L, N, {(1,): Poly.zero(L, N)})

    def test_constructor_refuses_a_coefficient_of_other_ranks(self):
        for coeff in (Poly.H(2, 1, 1), Poly.zero(2, 1), Poly.const(L, N + 1, 3)):
            with pytest.raises(StructureError, match="ranks"):
                ShiftOperator(L, N, {(0, 0, 0, 0): coeff})


def assert_canonical(p):
    # the reduced integer form: den >= 1, nonzero int numerators, gcd 1, over
    # packed keys: non-negative ints of l + n slots, each below 2^SLOT_BITS,
    # that round-trip through the unpacker
    width = p.l + p.n
    assert type(p.den) is int and p.den >= 1
    assert all(type(k) is int and 0 <= k < 1 << SLOT_BITS * width for k in p.nums)
    for k in p.nums:
        exp = unpack_exponent(k, width)
        assert len(exp) == width and all(0 <= e <= MAX_SLOT_EXPONENT for e in exp)
        assert pack_exponent(exp) == k
    assert all(type(v) is int and v != 0 for v in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    # and the Fraction view of it
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


def seeded_kernel_texts(seed, rounds=40):
    """The text() of +, -, negation, scale, *, shift, apply, compose and an
    exact try_divide on seeded inputs with heights up to 1e20."""
    rng = random.Random(seed)

    def rat():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**20))

    def poly(max_deg=3, max_terms=4):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            exp = [0] * (L + N)
            for _ in range(rng.randint(0, max_deg)):
                exp[rng.randrange(L + N)] += 1
            terms[tuple(exp)] = rat()
        return Poly(L, N, terms)

    def operator():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            u = tuple(rng.randint(-3, 2) for _ in range(L + N))
            terms[u] = poly(max_deg=2, max_terms=3)
        return ShiftOperator(L, N, terms)

    texts = []
    for _ in range(rounds):
        p, q, c = poly(), poly(), rat()
        deltas = [rng.randint(-3, 3) for _ in range(L + N)]
        A, B = operator(), operator()
        results = [p + q, p - q, -p, p.scale(c), p * q, p.shift(deltas),
                   A.apply(p), A.compose(B)]
        if q:
            results.append(try_divide(p * q, q))
        texts += [r.text() for r in results]
    return texts


class TestIntegerForm:
    """Every kernel operation on the integer form against plain Fraction
    arithmetic on the term maps, at heights up to 1e20 with unlike
    denominators."""

    @given(tall_polys(), tall_polys(), tall_rationals(),
           st.lists(st.integers(-3, 3), min_size=L + N, max_size=L + N))
    @settings(max_examples=80, deadline=None)
    def test_poly_operations_match_fraction_reference(self, p, q, c, deltas):
        a, b = dict(p.terms), dict(q.terms)
        scaled = {e: c * x for e, x in a.items() if c * x}
        for got, want in ((p + q, reference_add(a, b)), (p - q, reference_add(a, b, -1)),
                          (-p, {e: -x for e, x in a.items()}), (p.scale(c), scaled),
                          (p * q, reference_mul(a, b)),
                          (p.shift(deltas), reference_shift(a, deltas))):
            assert_canonical(got)
            assert got.terms == want
            assert got == Poly(L, N, want)

    @given(tall_polys(), tall_polys(), tall_polys())
    @settings(max_examples=60, deadline=None)
    def test_try_divide_matches_fraction_reference(self, p, q, r):
        if q.is_zero():
            return
        exact = try_divide(p * q, q)
        assert exact == p
        assert_canonical(exact)
        # p * q + r divides only when the long division comes out exact
        want = reference_divide(dict((p * q + r).terms), dict(q.terms))
        got = try_divide(p * q + r, q)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.terms == want
            assert_canonical(got)

    @given(tall_operators(), tall_operators(), tall_polys())
    @settings(max_examples=40, deadline=None)
    def test_apply_and_compose_match_fraction_reference(self, A, B, p):
        got = A.apply(p)
        assert_canonical(got)
        assert got.terms == dict(reference_apply(A, p).terms)
        want = {}
        for u, f in A.terms.items():
            for v, g in B.terms.items():
                w = tuple(x + y for x, y in zip(u, v))
                want[w] = reference_add(want.get(w, {}),
                                        reference_mul(dict(f.terms),
                                                      reference_shift(dict(g.terms), u)))
        AB = A.compose(B)
        assert {u: dict(f.terms) for u, f in AB.terms.items()} \
            == {w: t for w, t in want.items() if t}
        for f in AB.terms.values():
            assert_canonical(f)

    @given(tall_polys(), tall_polys(), tall_rationals())
    @settings(max_examples=60, deadline=None)
    def test_equal_values_by_different_paths_are_equal_and_hash_equal(self, p, q, c):
        for other in ((p + q) - q, -(-p), (p * q + p) - p * q, p.shift([1, -2, 0, 3]).shift(
                [-1, 2, 0, -3]), Poly(L, N, dict(reversed(list(p.terms.items()))))):
            assert other == p and hash(other) == hash(p)
            assert (other.den, other.nums) == (p.den, p.nums)
        if c:
            assert p.scale(c).scale(1 / c) == p and hash(p.scale(c).scale(1 / c)) == hash(p)
        if not q.is_zero():
            assert hash(try_divide(p * q, q)) == hash(p)

    @given(tall_polys(), tall_polys(), tall_rationals())
    @settings(max_examples=60, deadline=None)
    def test_kept_hash_agrees_with_equality(self, p, q, c):
        deltas = [1, -2, 0, 3]

        def routes():
            # new objects on every call (adding zero may return an operand
            # itself), built from unhashed copies of p and q
            P, Q = Poly(L, N, dict(p.terms)), Poly(L, N, dict(q.terms))
            out = [P, (P + Q) - Q, (Q - P) - Q + P + P, P.shift(deltas).shift([-d for d in deltas])]
            return out + [P.scale(c).scale(1 / c)] if c else out

        hashed = routes()
        members = set(hashed)  # the first hash of each
        assert len(members) == 1
        table = {hashed[0]: "p"}
        fresh = routes()
        assert all(r == p and not hasattr(r, "_hash") for r in fresh)
        for r in fresh:
            assert r in members and table[r] == "p"
            assert r._hash == hash(r) == hash(p) == hash(hashed[0])
        for other in (p + 1, q, p.scale(2), p.shift(deltas)):
            assert (other in members) == (other == p) == (other in table)

    def test_zero_and_scalars(self):
        zero = H1 - H1
        assert (zero.den, zero.nums) == (1, {}) and zero == Poly.zero(L, N) == 0
        assert hash(zero) == hash(Poly.zero(L, N))
        half = Poly.const(L, N, Fraction(1, 2))
        assert (half.den, half.nums) == (2, {0: 1}) and half == Fraction(1, 2)
        # 2/3 * H1 + 4/3: numerators 2 and 4 share 2, but not with 3
        p = H1.scale(Fraction(2, 3)) + Fraction(4, 3)
        assert (p.den, p.nums) == (3, {1: 2, 0: 4})
        q = p.scale(Fraction(3, 2))  # H1 + 2
        assert (q.den, q.nums) == (1, {1: 1, 0: 2})
        # slot p of a key holds the exponent of variable p: H1, H2, d1, d2
        # at bit offsets 0, 16, 32 and 48
        r = H1 * H2**2 * D2.scale(Fraction(5, 7)) - D1**3
        assert SLOT_BITS == 16
        assert (r.den, r.nums) == (7, {1 + (2 << 16) + (1 << 48): 5, 3 << 32: -7})
        assert r.terms == {(1, 2, 0, 1): Fraction(5, 7), (0, 0, 3, 0): Fraction(-1)}

    def test_terms_is_a_read_only_fraction_view(self):
        p = H1.scale(Fraction(3, 4)) - 2
        assert p.terms == {(1, 0, 0, 0): Fraction(3, 4), (0, 0, 0, 0): Fraction(-2)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert len(p.terms) == 2 and (0, 0, 0, 0) in p.terms
        with pytest.raises(TypeError):
            p.terms[(0, 0, 0, 0)] = Fraction(1)

    def test_seeded_kernel_results_are_unchanged(self):
        # SHA-256 of the text() of seeded kernel results, taken with
        # Fraction-coefficient storage
        frozen = {
            1: "871ddab4f45efea23d3a6d62e14254d3f4f4b29afb077d2a324a353c25ed3563",
            2: "8a72cf567f0931c16b3927a9d07eb57c2e2dc7c68c32a80c5434cc67dade703f",
            3: "d7bd4e28cd11fb06e494d8812362b48e4da03da50048caa0fafbd4f67ef62c98",
        }
        for seed, digest in frozen.items():
            texts = "\n".join(seeded_kernel_texts(seed))
            assert hashlib.sha256(texts.encode()).hexdigest() == digest, seed


@st.composite
def ranked_operands(draw):
    """Ranks (l, n) up to (3, 2), two polynomials, shift vectors and two
    operators at those ranks, with negative deltas."""
    l, n = draw(st.sampled_from([(l, n) for l in range(4) for n in range(3) if l + n]))
    width = l + n
    shifts = st.lists(st.integers(-3, 3), min_size=width, max_size=width).map(tuple)

    def operator():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            terms[draw(shifts)] = draw(polys(l, n, max_deg=2, max_terms=3, coeffs=rationals()))
        return ShiftOperator(l, n, terms)

    p, q = (draw(polys(l, n, max_deg=3, max_terms=4, coeffs=rationals())) for _ in range(2))
    return l, n, p, q, draw(shifts), operator(), operator()


class TestPackedKernel:
    """The packed-key kernel against the tuple-keyed reference of conftest,
    and its exponent limit."""

    @given(ranked_operands(), st.integers(0, 5), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_the_tuple_keyed_reference(self, operands, kp, k):
        l, n, p, q, deltas, A, B = operands
        a, b = dict(p.terms), dict(q.terms)
        for got, want in ((p * q, reference_mul(a, b)), (p.shift(deltas), reference_shift(a, deltas)),
                          (A.apply(p), dict(reference_apply(A, p).terms))):
            assert_canonical(got)
            assert got.terms == want
        AB = A.compose(B)
        assert {u: dict(f.terms) for u, f in AB.terms.items()} == reference_compose(A, B)
        if q:
            r = p * q + p
            want = reference_divide(dict(r.terms), b)
            got = try_divide(r, q)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.terms == want
            assert try_divide(p * q, q) == p
        for i in range(1, l + 1):
            for mode, power in (("difference_power", kp), ("power_minus_id", k)):
                got = shift_difference(mode, power, i, p)
                assert_canonical(got)
                assert got.terms == reference_shift_difference(mode, power, i, a, l + n)

    def test_an_exponent_past_the_slot_width_raises(self):
        top = MAX_SLOT_EXPONENT
        assert top == 2**SLOT_BITS - 1
        # the largest exponent is accepted, by the constructor and by a power
        h = Poly.H(2, 1, 2)
        edge = Poly(2, 1, {(0, top, 0): 3})
        assert edge == (h**top).scale(3) and edge.terms == {(0, top, 0): Fraction(3)}
        assert_canonical(edge)
        # neighbouring slots stay apart: H1 and d1 next to a full H2 slot
        full = edge * Poly.H(2, 1, 1) * Poly.d(2, 1, 1)
        assert full.terms == {(1, top, 1): Fraction(3)}
        # 3 (H1 - 1) H2^top (d1 + 1)
        assert full.shift([1, 0, -1]).terms == {(1, top, 1): 3, (1, top, 0): 3,
                                                (0, top, 1): -3, (0, top, 0): -3}
        # the first product or power past it raises, it never wraps
        for step in (lambda: edge * h, lambda: h * edge, lambda: h ** (top + 1),
                     lambda: edge ** 2, lambda: (edge + 1) * (h + 1),
                     lambda: (h + 1) ** (top + 1), lambda: h ** 10**18):
            with pytest.raises(DomainError, match="exponent"):
                step()
        with pytest.raises(DomainError):
            Poly(2, 1, {(0, top + 1, 0): 1})
        half = Poly(2, 1, {(0, 2**(SLOT_BITS - 1), 0): 1})
        assert (half * Poly(2, 1, {(0, top - 2**(SLOT_BITS - 1), 0): 1})).terms \
            == {(0, top, 0): Fraction(1)}
        # operators check f * T_u(p) as products do
        # (the shift moves H1, so the checks come before any expansion matters)
        op = ShiftOperator(2, 1, {(-1, 0, 0): half})
        assert op.apply(Poly.H(2, 1, 1)).terms \
            == {(1, 2**(SLOT_BITS - 1), 0): Fraction(1), (0, 2**(SLOT_BITS - 1), 0): Fraction(1)}
        for step in (lambda: op.apply(half), lambda: op.compose(op)):
            with pytest.raises(DomainError):
                step()
        # a division whose remainder would pass the limit raises too: the
        # tail H2 of H1^2 + H2 times x^(0, top) is H2^(top + 1)
        with pytest.raises(DomainError):
            try_divide(Poly(2, 0, {(2, top): 1}), Poly(2, 0, {(2, 0): 1, (0, 1): 1}))
        assert try_divide(Poly(2, 0, {(2, top): 1}), Poly(2, 0, {(2, 0): 1})) \
            == Poly(2, 0, {(0, top): 1})

    def test_parse_keeps_its_own_exponent_bound(self):
        assert Poly.parse(f"H1^{MAX_EXPONENT}", L, N) == H1**MAX_EXPONENT
        for bad in (f"H1^{MAX_EXPONENT + 1}", f"H1^{MAX_SLOT_EXPONENT}", f"H1^{MAX_EXPONENT}*H1"):
            with pytest.raises(StructureError, match="above"):
                Poly.parse(bad, L, N)


class TestOneBracketPass:
    """The one-pass commutator against two compositions and a difference,
    and against nested application."""

    @given(ranked_operands(), st.booleans(), rationals())
    @settings(max_examples=120, deadline=None)
    def test_bracket_is_the_commutator(self, operands, cancel, c):
        # ranks up to (3, 2), multi-term fractional coefficients, negative shifts
        l, n, p, _, _, A, B = operands
        if cancel:
            B = A.scale(c) + B  # term pairs of A with c * A cancel
        AB = A.bracket(B)
        assert AB == A.compose(B) - B.compose(A)
        assert AB.apply(p) == A.apply(B.apply(p)) - B.apply(A.apply(p))
        assert B.bracket(A) == AB.scale(-1)
        assert A.bracket(A).is_zero()
        for u, f in AB.terms.items():
            assert len(u) == l + n and f.ranks == (l, n)
            assert_canonical(f)

    def test_cancelling_pairs_leave_no_term(self):
        # H2 T_(e1) and H2^2 T_(-e1) on Q[H1, H2]: neither shift moves H2, so
        # both products are H2^3 and the commutator has no term at T_0
        h1, h2 = Poly.H(2, 0, 1), Poly.H(2, 0, 2)
        A = ShiftOperator(2, 0, {(1, 0): h2})
        B = ShiftOperator(2, 0, {(-1, 0): h2 * h2})
        assert A.compose(B) == B.compose(A) == ShiftOperator(2, 0, {(0, 0): h2**3})
        assert A.bracket(B).is_zero() and A.bracket(B).terms == {}
        # two pairs meet at one shift and cancel there, a third pair survives
        C = ShiftOperator(2, 0, {(1, 0): h1, (0, 1): h2})
        D = ShiftOperator(2, 0, {(0, 1): h1, (1, 0): h2, (-1, 0): Poly.const(2, 0, Fraction(1, 3))})
        assert C.bracket(D) == C.compose(D) - D.compose(C)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_an_exponent_past_the_slot_width_raises_where_compose_does(self, data):
        # H2-exponents around 2^15 and the limit, so a pair of terms passes
        # it or not; the shifts move only H1 and d1, which keeps every
        # expansion small
        near = st.sampled_from((0, 1, 2**15 - 1, 2**15, 2**15 + 1, MAX_SLOT_EXPONENT))
        small = st.integers(0, 2)
        shifts = st.tuples(st.integers(-1, 1), st.just(0), st.integers(-1, 1))

        def operator():
            terms = {}
            for _ in range(data.draw(st.integers(1, 2))):
                exp = (data.draw(small), data.draw(near), data.draw(small))
                terms[data.draw(shifts)] = Poly(2, 1, {exp: data.draw(rationals().filter(bool))})
            return ShiftOperator(2, 1, terms)

        A, B = operator(), operator()
        raised = []
        for step in (lambda: A.compose(B), lambda: B.compose(A), lambda: A.bracket(B)):
            try:
                step()
                raised.append(False)
            except DomainError:
                raised.append(True)
        assert raised[0] == raised[1] == raised[2]
        try:
            AA = A.compose(A)
        except DomainError:
            with pytest.raises(DomainError):
                A.bracket(A)
        else:
            assert AA - AA == A.bracket(A)

    def test_a_zero_commutator_still_checks_the_exponent_limit(self):
        half = Poly(2, 1, {(0, 2**(SLOT_BITS - 1), 0): 1})
        op = ShiftOperator(2, 1, {(-1, 0, 0): half})
        for step in (lambda: op.compose(op), lambda: op.bracket(op)):
            with pytest.raises(DomainError, match="exponent"):
                step()
        fits = ShiftOperator(2, 1, {(-1, 0, 0): Poly(2, 1, {(0, 2**(SLOT_BITS - 1) - 1, 0): 1})})
        assert op.bracket(fits) == op.compose(fits) - fits.compose(op)


@st.composite
def apply_cases(draw):
    """An operator of 0-3 terms, each shift moving 0-3 slots, with monomial
    or multi-term coefficients, and a zero, constant or dense input."""
    l, n = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 0)]))
    width = l + n
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, width - 1), max_size=3, unique=True))
        u = tuple(draw(st.sampled_from((-2, -1, 1, 3))) if k in moved else 0
                  for k in range(width))
        monomial = draw(st.booleans())
        terms[u] = draw(polys(l, n, max_deg=2, max_terms=1 if monomial else 4,
                              coeffs=rationals()))
    kind = draw(st.sampled_from(("zero", "constant", "dense")))
    if kind == "zero":
        p = Poly.zero(l, n)
    elif kind == "constant":
        p = Poly.const(l, n, draw(rationals()))
    else:
        p = draw(polys(l, n, max_deg=4, max_terms=8, coeffs=rationals()))
    return ShiftOperator(l, n, terms), p


def summed_shifts(A, p):
    """sum_u f_u * p.shift(u) by Poly operations."""
    out = Poly.zero(A.l, A.n)
    for u, f in A.terms.items():
        out = out + f * p.shift(u)
    return out


class TestApplyPaths:
    """``ShiftOperator.apply``'s zero, one-term and slot-by-slot paths
    against the sum of shifted products."""

    @given(apply_cases())
    @settings(max_examples=150, deadline=None)
    def test_apply_is_the_sum_of_shifted_products(self, case):
        A, p = case
        got = A.apply(p)
        assert_canonical(got)
        assert got == summed_shifts(A, p)

    @given(apply_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_an_input_at_the_exponent_limit_raises_as_the_products_do(self, case, data):
        # the full slot is one no shift moves: a shift would expand its
        # 2^16 terms (the check itself comes before any shift)
        A, p = case
        width = A.l + A.n
        still = [k for k in range(width) if not any(u[k] for u in A.terms)]
        assume(still)
        slot = data.draw(st.sampled_from(still))
        top = tuple(MAX_SLOT_EXPONENT if k == slot else 0 for k in range(width))
        tall = p + Poly(A.l, A.n, {top: 1})
        try:
            want = summed_shifts(A, tall)
        except DomainError:
            with pytest.raises(DomainError, match="exponent"):
                A.apply(tall)
        else:
            assert A.apply(tall) == want

    def test_equality_with_scalars_and_other_ranks(self):
        three = Poly.const(1, 1, 3)
        assert three == 3 and three == Fraction(3) and three != Fraction(3, 2)
        assert Poly.zero(1, 1) == 0 and Poly.zero(1, 1) != Poly.zero(2, 0)
        assert three != Poly.const(2, 0, 3) and three != Poly.const(1, 2, 3)
        assert Poly.H(1, 1, 1) != 0 and Poly.H(1, 1, 1) != Poly.H(2, 0, 1)
        assert three.__eq__("3") is NotImplemented and three != "3"


class TestDegrees:
    def test_deg_of_zero_is_minus_one(self):
        assert deg_in(VarId("H", 1), Poly.zero(L, N)) == -1

    @pytest.mark.parametrize("i", [0, -1, L + 1])
    def test_bad_h_index_errors_are_unchanged(self, i):
        # the same texts as VarId("H", i).position(l, n)
        want = (f"H{i} out of range for l={L}" if i > 0
                else f"variable index must be positive, got {i}")
        p = H1 * H2 + D1
        for call in (lambda: shift_sigma(i, 1, p),
                     lambda: shift_difference("power_minus_id", 2, i, p),
                     lambda: shift_difference("difference_power", 2, i, p),
                     lambda: shift_difference("difference_power", 0, i, p),
                     lambda: shift_difference("difference_power", 1, i, Poly.zero(L, N))):
            with pytest.raises(StructureError) as err:
                call()
            assert str(err.value) == want
        with pytest.raises(StructureError) as err:
            VarId("H", i).position(L, N)
        assert str(err.value) == want

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

    def test_difference_power_beyond_the_degree_is_zero_at_once(self):
        p = (H1**3 * D1).scale(Fraction(2, 3)) + H2 - 1
        assert shift_difference("difference_power", 10**18, 1, p).is_zero()
        assert shift_difference("difference_power", 10**18, 2, Poly.zero(L, N)).is_zero()

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_both_modes_match_the_iterated_definition(self, data):
        l, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        p = data.draw(polys(l, n, max_deg=6, coeffs=rationals()))
        i = data.draw(st.integers(1, l))
        kp = data.draw(st.integers(0, 9))
        assert shift_difference("difference_power", kp, i, p) \
            == iterated_shift_difference("difference_power", kp, i, p)
        k = data.draw(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)))
        assert shift_difference("power_minus_id", k, i, p) \
            == iterated_shift_difference("power_minus_id", k, i, p)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_total_degree_is_the_largest_exponent_sum(self, data):
        # exponents at the edges of the slot-sum shortcut (2^b for the
        # widths drawn here runs from 2^11 to 2^15) and at the slot limit,
        # so sums pass 2^16 - 1 and a slot holds it exactly
        width = data.draw(st.integers(1, 17))
        l = data.draw(st.integers(0, width))
        edges = [0, 1, 2, 7] + [2**b + k for b in range(11, 16) for k in (-1, 0)]
        exponent = st.lists(st.sampled_from(edges + [MAX_SLOT_EXPONENT]),
                            min_size=width, max_size=width).map(tuple)
        exps = data.draw(st.lists(exponent, min_size=1, max_size=4, unique=True))
        p = Poly(l, width - l, {e: k + 1 for k, e in enumerate(exps)})
        assert p.total_degree() == max(sum(e) for e in exps)
        assert Poly.zero(l, width - l).total_degree() == -1


def reference_text(p):
    """The text form built term by term from Fraction coefficients, sorted by
    (total degree, exponent tuple) descending."""
    if p.is_zero():
        return "0"
    names = [f"H{i}" for i in range(1, p.l + 1)] + [f"d{j}" for j in range(1, p.n + 1)]
    chunks = []
    for exp, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
        body = "*".join(factors if abs(c) == 1 and factors else [str(abs(c))] + factors)
        sign = ("" if c > 0 else "-") if not chunks else ("+ " if c > 0 else "- ")
        chunks.append(sign + body)
    return " ".join(chunks)


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

    @given(ranked_operands(), tall_rationals())
    @settings(max_examples=80, deadline=None)
    def test_text_matches_the_fraction_rendering(self, operands, c):
        l, n, p, q, *_ = operands
        for r in (p, p.scale(c) - q, p * q):
            assert r.text() == reference_text(r)

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
