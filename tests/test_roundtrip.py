"""Property tests of the canonical forms: text and JSON round trips, the
isomorphism test against the action itself, with rationals of height up to
about 10^200, and the completeness of the parameter decoder."""

import json
import random
from fractions import Fraction
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from torofree import recovery as RC, repmods as R
from torofree.algebras import AlgebraDesc, degree_box
from torofree.checks import random_poly
from torofree.polyalg import Poly
from torofree.repmods import ModuleSpec

BIG = 10**200
SHAPES = [("A", 1), ("A", 2), ("C", 2)]
DECODE_SHAPES = [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("C", 3)]
VARIANTS = ("finite", "toroidal", "full", "witt")


def huge_rationals(nonzero=False, height=BIG):
    q = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    return q.filter(bool) if nonzero else q


@st.composite
def huge_polys(draw):
    l, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(0, 4)] * (l + n))
    return Poly(l, n, draw(st.dictionaries(exps, huge_rationals(), max_size=6)))


@st.composite
def specs(draw, max_loop_vars=2, shapes=SHAPES, variants=VARIANTS, height=BIG):
    rats = partial(huge_rationals, height=height)
    variant = draw(st.sampled_from(variants))
    family, rank = ("A", 0) if variant == "witt" else draw(st.sampled_from(shapes))
    n = draw(st.integers(0 if variant == "finite" else 1, max_loop_vars))
    cocycle = (0, 0)
    if variant == "full":
        cocycle = (draw(rats()), draw(rats()))
    desc = AlgebraDesc(family, rank, n, variant, cocycle)
    lam = tuple(draw(rats(True)) for _ in range(n)) if variant != "finite" else ()
    witt_a = draw(rats()) if variant in ("witt", "full") else None
    if variant == "witt":
        return ModuleSpec(algebra=desc, lam=lam, witt_a=witt_a)
    base_a = tuple(draw(rats(True)) for _ in range(rank))
    b = Poly.zero(rank, n)
    if family == "A":
        b = Poly.const(rank, n, draw(rats()))
        if variant == "finite" and n:
            # the finite variant takes a polynomial b in the d-variables
            b = b + Poly.d(rank, n, 1).scale(draw(rats()))
    top = rank + 1 if family == "A" else rank
    S = frozenset(draw(st.sets(st.integers(1, top))))
    return ModuleSpec(algebra=desc, lam=lam, witt_a=witt_a, base_a=base_a, base_b=b, S=S)


def flipped(s):
    """The l = 1 identities M(a, b, FULL) = M(-a, -b-1, {}) and, for mixed S,
    M(a, b, S) = M(a, -b-1, S)."""
    f = dict(lam=s.lam, witt_a=s.witt_a, base_a=s.base_a, base_b=-s.base_b - 1, S=s.S)
    if len(s.S) != 1:
        f.update(base_a=(-s.base_a[0],), S=frozenset({1, 2}) - s.S)
    return ModuleSpec(algebra=s.algebra, **f)


@st.composite
def perturbed(draw, s):
    """s with one field changed."""
    alg = s.algebra
    kinds = []
    if alg.variant != "finite":
        kinds.append("lam")
    if alg.variant in ("witt", "full"):
        kinds.append("witt_a")
    if alg.variant != "witt":
        kinds += ["base_a", "S"] + (["base_b"] if alg.family == "A" else [])
    kind = draw(st.sampled_from(kinds))
    f = dict(lam=s.lam, witt_a=s.witt_a, base_a=s.base_a, base_b=s.base_b, S=s.S)
    if kind in ("lam", "base_a"):
        old = f[kind]
        k = draw(st.integers(0, len(old) - 1))
        f[kind] = old[:k] + (draw(huge_rationals(True)),) + old[k + 1:]
    elif kind == "witt_a":
        f["witt_a"] = draw(huge_rationals())
    elif kind == "base_b":
        f["base_b"] = s.base_b + draw(huge_rationals())
    else:
        top = alg.rank + 1 if alg.family == "A" else alg.rank
        f["S"] = s.S ^ {draw(st.integers(1, top))}
    return ModuleSpec(algebra=alg, **f)


def act_alike(s, t):
    """Every windowed generator agrees on the probes; 1 is among them, so
    agreement pins x_i.1, y_i.1 and the loop data."""
    l, n = s.ranks
    window = degree_box(n, -1, 1) if s.algebra.variant != "finite" else [()]
    rng = random.Random(0)
    probes = [s.one()] + [random_poly(rng, l, n, 3, 3) for _ in range(2)]
    return all(
        R.act(s, g, p) == R.act(t, g, p)
        for g in R.generators_for(s, window)
        for p in probes
    )


class TestCanonicalForms:
    @given(huge_polys())
    @settings(max_examples=60, deadline=None)
    def test_poly_text_round_trip(self, p):
        assert Poly.parse(p.text(), p.l, p.n) == p

    @given(specs())
    @settings(max_examples=80, deadline=None)
    def test_spec_json_round_trip(self, s):
        blob = json.dumps(R.spec_to_json(s))
        assert R.spec_from_json(json.loads(blob)) == s

    @given(specs(max_loop_vars=1, shapes=[("A", 1)], variants=VARIANTS[:3]))
    @settings(max_examples=30, deadline=None)
    def test_flip_is_isomorphism(self, s):
        t = flipped(s)
        assert act_alike(s, t)
        assert R.iso_test(s, t) and R.iso_test(t, s)

    @given(specs(max_loop_vars=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_iso_is_action_equality(self, s, data):
        t = data.draw(perturbed(s))
        assert R.iso_test(s, t) == act_alike(s, t) == R.iso_test(t, s)

    @given(specs(shapes=DECODE_SHAPES, variants=VARIANTS[:3], height=10**20))
    @settings(max_examples=60, deadline=None)
    def test_decoder_is_complete(self, s):
        n = s.algebra.loop_vars
        window = degree_box(n, -1, 1) if s.algebra.variant != "finite" else None
        rec = RC.recover_parameters(RC.oracle_from_spec(s), window)
        found = [(rec.family, rec.S, rec.base_a, rec.base_b)] + rec.alternates
        assert (s.algebra.family, s.S, s.base_a, s.base_b) in found
        keys = [RC._decode_key(t) for t in found]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))  # sorted, no duplicates
        want = R.base_action_polys(s)
        for family, S, a, b in found:
            desc = AlgebraDesc(family, s.algebra.rank, n, s.algebra.variant)
            t = ModuleSpec(algebra=desc, lam=s.lam, witt_a=s.witt_a, base_a=a, base_b=b, S=S)
            assert R.base_action_polys(t) == want
