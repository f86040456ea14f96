"""Parameter recovery from a black-box action, with defect attribution.

An ``ActionOracle`` is a generator action seen only through its values:
``oracle_from_spec`` wraps a module's own action and ``inject_defect``
corrupts one for the harness's power tests.  ``recover_parameters`` reads
lambda, witt_a and the base parameters off the oracle, checks each module
requirement it relies on (a violation is a ``ClassificationError`` naming
it), and decodes every (family, S, a, b) whose rebuilt module reproduces
the read action; ``build_spec_from_recovery`` turns the canonical decoding
back into a ``ModuleSpec``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from . import repmods
from .algebras import AlgebraDesc, window_degrees
from .checks import CheckReport, _check_samples, random_poly
from .errors import ClassificationError, DomainError, StructureError
from .polyalg import SLOT_BITS, Poly, unpack_exponent
from .repmods import Generator, ModuleSpec, _generator, base_action_polys

Rat = Fraction


# -- action oracles -----------------------------------------------------------


class ActionOracle:
    """Black-box generator action with declared shape."""

    def __init__(self, rank: int, loop_vars: int, variant: str,
                 eval: Callable[[Generator, Poly], Poly]):
        self.rank = rank
        self.loop_vars = loop_vars
        self.variant = variant
        self.eval = eval

    @property
    def ranks(self) -> tuple[int, int]:
        if self.variant == "witt":
            return (0, self.loop_vars)
        return (self.rank, self.loop_vars)

    def one(self) -> Poly:
        return Poly.const(*self.ranks, 1)


def oracle_from_spec(spec: ModuleSpec) -> ActionOracle:
    return ActionOracle(
        rank=spec.algebra.rank,
        loop_vars=spec.algebra.loop_vars,
        variant=spec.algebra.variant,
        eval=lambda gen, p: repmods.act(spec, gen, p),
    )


def inject_defect(oracle: ActionOracle, defect: str) -> ActionOracle:
    """Deliberately corrupted oracles for harness power tests.

    "center":        K_1 . p gains a constant term
    "loop-scaling":  x_1(e_1) . p gains a constant term
    "lambda-mismatch": h generators scale direction 1 inconsistently by row
    """
    base = oracle.eval

    def eval_fn(gen: Generator, p: Poly):
        out = base(gen, p)
        if defect == "center" and gen.kind == "K" and gen.index == 1:
            return out + Poly.const(*oracle.ranks, 1)
        if (
            defect == "loop-scaling"
            and gen.kind == "x"
            and gen.index == 1
            and any(gen.r)
        ):
            return out + Poly.const(*oracle.ranks, 1)
        if (
            defect == "lambda-mismatch"
            and gen.kind == "h"
            and gen.index == oracle.rank
            and any(gen.r)
        ):
            return out.scale(2)
        return out

    return ActionOracle(oracle.rank, oracle.loop_vars, oracle.variant, eval_fn)


# -- recovery ------------------------------------------------------------------


class RecoveredParams:
    """Parameters read off a black-box rank-1 module, canonical decode first."""

    def __init__(
        self,
        family: str | None,
        lam: tuple[Rat, ...],
        witt_a: Rat | None,
        x_polys: list[Poly],
        y_polys: list[Poly],
        base_a: tuple[Rat, ...] = (),
        base_b: Poly | None = None,
        S: frozenset[int] = frozenset(),
        alternates: list[tuple] | None = None,
    ):
        self.family = family
        self.lam = lam
        self.witt_a = witt_a
        self.x_polys = x_polys
        self.y_polys = y_polys
        self.base_a = base_a
        self.base_b = base_b
        self.S = S
        self.alternates: list[tuple] = [] if alternates is None else alternates

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "lambda": [str(x) for x in self.lam],
            "witt_a": str(self.witt_a) if self.witt_a is not None else None,
            "x_polys": [p.text() for p in self.x_polys],
            "y_polys": [p.text() for p in self.y_polys],
            "base_a": [str(x) for x in self.base_a],
            "base_b": self.base_b.text() if self.base_b is not None else None,
            "S": sorted(self.S),
            "alternates": [
                {
                    "family": fam,
                    "S": sorted(S),
                    "base_a": [str(x) for x in a],
                    "base_b": b.text(),
                }
                for fam, S, a, b in self.alternates
            ],
        }


def check_assertion_A(oracle: ActionOracle, loop_window: Iterable | None = None):
    """t^a K_j . 1 = 0 for every window degree a and central index j."""
    report = CheckReport("graded_center_annihilation")
    if oracle.variant not in ("toroidal", "full"):
        return report
    one = oracle.one()
    for a in window_degrees(oracle, loop_window):
        for j in range(1, oracle.loop_vars + 1):
            got = oracle.eval(_generator("K", j, a), one)
            report.record_lazily(got.is_zero(), lambda: dict(
                generator=_generator("K", j, a).text(), input=one,
                lhs=got, rhs=Poly.zero(*oracle.ranks), difference=got,
            ))
    return report


def check_assertion_B(oracle: ActionOracle, loop_window: Iterable | None, lam: Sequence[Rat]):
    """X(a) . 1 = lambda^a (X . 1) for X among x_i, y_i, h_i."""
    report = CheckReport("graded_loop_scaling")
    if oracle.variant not in ("toroidal", "full"):
        return report
    one = oracle.one()
    zero = (0,) * oracle.loop_vars
    base = {}
    for i in range(1, oracle.rank + 1):
        for kind in ("x", "y", "h"):
            base[kind, i] = oracle.eval(_generator(kind, i, zero), one)
    for a in window_degrees(oracle, loop_window):
        factor = Fraction(1)
        for lam_j, aj in zip(lam, a):
            factor *= Fraction(lam_j) ** aj
        for (kind, i), b0 in base.items():
            got = oracle.eval(_generator(kind, i, a), one)
            want = b0.scale(factor)
            report.record_lazily(got == want, lambda: dict(
                generator=_generator(kind, i, a).text(),
                input=one,
                lhs=got,
                rhs=want,
                difference=got - want,
            ))
    return report


def recover_lambda(oracle: ActionOracle) -> tuple[Rat, ...]:
    """lambda_j from h_i(e_j).1 = lambda_j H_i, cross-checked over rows and signs."""
    l, n = oracle.rank, oracle.loop_vars
    one = oracle.one()
    lams: list[Rat] = []
    for j in range(1, n + 1):
        e_j = tuple(1 if t == j - 1 else 0 for t in range(n))
        neg = tuple(-x for x in e_j)
        value: Rat | None = None
        for i in range(1, l + 1):
            hvar = Poly.H(*oracle.ranks, i)
            got = oracle.eval(_generator("h", i, e_j), one)
            ratio = _scalar_ratio(got, hvar)
            if ratio is None or ratio == 0:
                raise ClassificationError(
                    "loop-scaling", f"h{i}(e{j}).1 is not a nonzero multiple of H{i}"
                )
            if value is None:
                value = ratio
            elif value != ratio:
                raise ClassificationError(
                    "shift-scalar-consistency",
                    f"direction {j}: rows give {value} and {ratio}",
                )
            back = oracle.eval(_generator("h", i, neg), one)
            if back != hvar.scale(1 / ratio):
                raise ClassificationError(
                    "shift-scalar-consistency",
                    f"h{i}(-e{j}).1 does not invert the scalar {ratio}",
                )
        lams.append(value)
    return tuple(lams)


def _scalar_ratio(p: Poly, q: Poly) -> Rat | None:
    """c with p = c q, else None."""
    if q.is_zero():
        return None
    if p.is_zero():
        return Fraction(0)
    exp, coeff = q.leading()
    c = p.coeff(exp) / coeff
    return c if p == q.scale(c) else None


def recover_witt_a(oracle: ActionOracle, lam: Sequence[Rat]) -> tuple[tuple[Rat, ...], Rat]:
    """(lambda, a) from t^{e_j} d_j . 1 = lambda_j (d_j - (a+1)), all directions.

    The witt variant has no h-probes and passes an empty lam: lambda_j is the
    d_j coefficient of t^{e_j} d_j . 1.  The full variant passes the lambda
    of the h-probes, which that coefficient must match.
    """
    n = oracle.loop_vars
    one = oracle.one()
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    ups = [oracle.eval(_generator("D", j, e_j), one) for j, e_j in enumerate(units, 1)]
    leads = [
        _scalar_ratio(got - got.constant_term() * one, Poly.d(*oracle.ranks, j))
        for j, got in enumerate(ups, 1)
    ]
    if not lam:
        for j, lead in enumerate(leads, 1):
            if not lead:
                raise ClassificationError(
                    "witt-scalar-consistency", f"t^(e{j}) d{j}.1 is not affine in d{j}"
                )
        lam = leads
    lam = tuple(Fraction(x) for x in lam)
    value: Rat | None = None
    for j, (e_j, got, lead, lam_j) in enumerate(zip(units, ups, leads, lam), 1):
        if lead is None or lead != lam_j:
            raise ClassificationError(
                "witt-scalar-consistency",
                f"t^(e{j}) d{j}.1 leading coefficient disagrees with lambda_{j}",
            )
        a = -got.constant_term() / lam_j - 1
        if value is None:
            value = a
        elif value != a:
            raise ClassificationError(
                "witt-scalar-consistency", f"directions give a = {value} and {a}"
            )
        back = oracle.eval(_generator("D", j, tuple(-x for x in e_j)), one)
        want = (Poly.d(*oracle.ranks, j) + Poly.const(*oracle.ranks, value + 1)).scale(
            1 / lam_j
        )
        if back != want:
            raise ClassificationError(
                "witt-scalar-consistency", f"t^(-e{j}) d{j}.1 inconsistent with a = {value}"
            )
    return lam, value


def recover_parameters(
    oracle: ActionOracle,
    loop_window: Iterable | None = None,
    samples: int = 8,
    seed: int = 0,
) -> RecoveredParams:
    """Read the full parameter tuple off a black-box module and cross-check it."""
    _check_samples(samples)
    l, n = oracle.ranks
    rng = random.Random(seed)
    one = oracle.one()
    window = window_degrees(oracle, loop_window)

    # Cartan freeness first (checked, not assumed)
    probes = [one] + [random_poly(rng, l, n) for _ in range(samples)]
    zero = (0,) * n if oracle.variant != "finite" else ()
    for p in probes:
        for i in range(1, l + 1):
            if oracle.eval(_generator("h", i, zero), p) != Poly.H(l, n, i) * p:
                raise ClassificationError("cartan-freeness", f"H{i} is not multiplication")
        for j in range(1, n + 1):
            if oracle.eval(_generator("D", j, zero), p) != Poly.d(l, n, j) * p:
                raise ClassificationError("cartan-freeness", f"d{j} is not multiplication")

    lam: tuple[Rat, ...] = ()
    witt_a: Rat | None = None
    if oracle.variant in ("toroidal", "full"):
        lam = recover_lambda(oracle)
    if oracle.variant in ("witt", "full"):
        # the witt variant has no h-probes: its lambda comes from the derivation sector
        lam, witt_a = recover_witt_a(oracle, lam)
    if oracle.variant in ("toroidal", "full"):
        repA = check_assertion_A(oracle, window)
        if not repA.passed:
            f = repA.failures[0]
            raise ClassificationError("center-annihilation", f["generator"])
        repB = check_assertion_B(oracle, window, lam)
        if not repB.passed:
            f = repB.failures[0]
            raise ClassificationError("loop-scaling", f["generator"])
    if oracle.variant == "witt":
        return RecoveredParams(None, lam, witt_a, [], [])

    x_polys = [oracle.eval(_generator("x", i, zero), one) for i in range(1, l + 1)]
    y_polys = [oracle.eval(_generator("y", i, zero), one) for i in range(1, l + 1)]
    decodings = _decode_base(oracle, x_polys, y_polys, lam, witt_a)
    if not decodings:
        raise ClassificationError(
            "generator-pattern", "x_i.1 / y_i.1 match no admissible factor pattern"
        )
    family, S, base_a, base_b = decodings[0]
    return RecoveredParams(
        family=family,
        lam=lam,
        witt_a=witt_a,
        x_polys=x_polys,
        y_polys=y_polys,
        base_a=base_a,
        base_b=base_b,
        S=S,
        alternates=decodings[1:],
    )


def _decode_base(oracle, x_polys, y_polys, lam, witt_a) -> list[tuple]:
    """All (family, S, a, b) tuples whose rebuilt module reproduces the oracle.

    u_i and v_i vanish at H = 0, so in the A family
    (x_i.1 * y_i.1)|_{H=0} = (b + e_i)(b + e_{i+1}) with e_k = [k not in S],
    whatever a is.  Slot 1 gives at most two b per S, the roots of
    (2b + e_1 + e_2)^2 = 4 P_1 + (e_1 - e_2)^2, and the other slots prune S;
    the C family has b = 0.  Each surviving (S, b) is rebuilt once with unit
    a: x_i.1 and y_i.1 are a_i and 1/a_i times products fixed by (family, S,
    b), so a_i is the ratio x_i.1 / X_i and the tuple holds iff
    y_i.1 = Y_i / a_i for every i.  Every factor of X_i and Y_i is linear in
    H with a nonzero H part, so a pattern whose factor counts differ from the
    H-degrees of the read x_i.1 and y_i.1 is skipped before it is rebuilt.
    """
    l, n = oracle.ranks
    degrees = (tuple(map(_h_degree, x_polys)), tuple(map(_h_degree, y_polys)))
    at_zero = [
        Poly(l, n, {e: c for e, c in (x * y).terms.items() if not any(e[:l])})
        for x, y in zip(x_polys, y_polys)
    ]
    roots = [_poly_sqrt(at_zero[0].scale(4) + delta) for delta in (0, 1)]
    slot1: dict = {}
    for e1, e2 in itertools.product((0, 1), repeat=2):
        root = roots[(e1 - e2) ** 2]
        signs = () if root is None else (1, -1) if root else (1,)
        slot1[e1, e2] = [(root.scale(s) - e1 - e2).scale(Fraction(1, 2)) for s in signs]
    products: dict = {}

    def slot_product(b: Poly, e: int, f: int) -> Poly:
        key = (b, e + f)
        if key not in products:
            products[key] = (b + e) * (b + f)
        return products[key]

    ones = (Fraction(1),) * l
    found: list[tuple] = []
    for family in ("A",) if l == 1 else ("A", "C"):
        smax = l + 1 if family == "A" else l
        for bits in itertools.product((False, True), repeat=smax):
            S = frozenset(i + 1 for i, in_s in enumerate(bits) if in_s)
            if repmods.factor_counts(family, l, S) != degrees:
                continue
            if family == "C":
                bs = [Poly.zero(l, n)]
            else:
                e = [int(not in_s) for in_s in bits]
                bs = [
                    b
                    for b in slot1[e[0], e[1]]
                    if all(at_zero[i] == slot_product(b, e[i], e[i + 1]) for i in range(1, l))
                ]
            for b in bs:
                trial = _trial_spec(oracle, family, ones, b, S, lam, witt_a)
                if trial is None:
                    continue
                xs, ys = base_action_polys(trial)
                a = tuple(_scalar_ratio(x, X) for x, X in zip(x_polys, xs))
                if all(a) and all(y == Y.scale(1 / a_i) for y, Y, a_i in zip(y_polys, ys, a)):
                    entry = (family, S, a, b)
                    if entry not in found:
                        found.append(entry)
    found.sort(key=_decode_key)
    return found


def _h_degree(p: Poly) -> int:
    """Total degree in the H-variables; -1 for the zero polynomial."""
    h_block = (1 << SLOT_BITS * p.l) - 1
    return max((sum(unpack_exponent(k & h_block, p.l)) for k in p.nums), default=-1)


def _decode_key(entry):
    family, S, a, b = entry
    return (family, tuple(sorted(S)), b.sorted_terms(), tuple(a))


def _trial_spec(oracle, family, base_a, base_b, S, lam, witt_a) -> ModuleSpec | None:
    try:
        desc = AlgebraDesc(
            family=family,
            rank=oracle.rank,
            loop_vars=oracle.loop_vars,
            variant=oracle.variant,
            cocycle=(Fraction(0), Fraction(0)),
        )
        return ModuleSpec(
            algebra=desc, lam=lam, witt_a=witt_a, base_a=base_a, base_b=base_b, S=S
        )
    except (StructureError, DomainError):
        return None


def _poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a polynomial, or None."""
    if p.is_zero():
        return Poly.zero(p.l, p.n)
    exp, lead = p.leading()
    if any(e % 2 for e in exp):
        return None
    if lead < 0:
        return None
    num, den = lead.numerator, lead.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    half = tuple(e // 2 for e in exp)
    root = Poly(p.l, p.n, {half: Fraction(rn, rd)})
    rem = p - root * root
    # peel lower-order terms: root += rem_lead / (2 * root_lead)
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 10000:
            return None
        rexp, rc = rem.leading()
        diff = tuple(a - b for a, b in zip(rexp, half))
        if any(e < 0 for e in diff):
            return None
        term = Poly(p.l, p.n, {diff: rc / (2 * Fraction(rn, rd))})
        root = root + term
        rem = p - root * root
    return root


def _isqrt_exact(x: int) -> int | None:
    """The integer square root of x when x is a perfect square, else None."""
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def build_spec_from_recovery(
    rec: RecoveredParams, oracle: ActionOracle
) -> ModuleSpec:
    """ModuleSpec for the canonical decoding (round-trip entry point)."""
    if rec.family is None:
        desc = AlgebraDesc("A", 0, oracle.loop_vars, "witt")
        return ModuleSpec(algebra=desc, lam=rec.lam, witt_a=rec.witt_a)
    desc = AlgebraDesc(
        family=rec.family,
        rank=oracle.rank,
        loop_vars=oracle.loop_vars,
        variant=oracle.variant,
    )
    return ModuleSpec(
        algebra=desc,
        lam=rec.lam,
        witt_a=rec.witt_a,
        base_a=rec.base_a,
        base_b=rec.base_b,
        S=rec.S,
    )
