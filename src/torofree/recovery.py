"""Parameter recovery from a black-box action, with defect attribution.

An ``ActionOracle`` is a generator action seen only through its values:
``oracle_from_spec`` wraps a module's own action and ``inject_defect``
corrupts one for the harness's power tests.  ``recover_parameters`` reads
lambda, witt_a and the base parameters off the oracle, checks each module
requirement it relies on (a violation is a ``ClassificationError`` naming
it), and decodes every (family, S, a, b) whose module reproduces the read
action; ``build_spec_from_recovery`` turns the canonical decoding back into
a ``ModuleSpec``.

One call asks each distinct (generator, value) query of the oracle once: it
keeps a table of the answers, so a repeated Cartan probe and the checks
that read x_i.1, y_i.1 and h_i(r).1 again find them there; a second call
asks again.
The expected values are compared on integer numerators: H_i p and d_j p
are key offsets of p, and the loop-scaling, lambda and Witt checks
cross-multiply against lambda^r as an integer ratio instead of scaling a
copy.  The decoder reads S off the H-degrees of x_i.1, in time linear in l,
and from ``repmods.factor_table`` (the one place the factors are written)
the slot-1 polynomial in b that gives the candidate b and the integer
forms each candidate is compared against in every slot.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from . import repmods
from .algebras import AlgebraDesc, window_degrees
from .checks import CheckReport, _check_samples, random_poly
from .errors import ClassificationError, DomainError, StructureError
from .polyalg import SLOT_BITS, Poly, _nonzero, unpack_exponent
from .repmods import Generator, ModuleSpec, _generator

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
    passed = 0
    for a in window_degrees(oracle, loop_window):
        for j in range(1, oracle.loop_vars + 1):
            got = oracle.eval(_generator("K", j, a), one)
            if got.is_zero():
                passed += 1
            else:
                report.record(False, **_mismatch(_generator("K", j, a), one, got,
                                                 Poly.zero(*oracle.ranks)))
    report.cases_run += passed
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
    passed = 0
    for a in window_degrees(oracle, loop_window):
        num, den = repmods.lam_ratio(lam, a)
        for (kind, i), b0 in base.items():
            got = oracle.eval(_generator(kind, i, a), one)
            if _is_multiple(got, b0, num, den):
                passed += 1
            else:
                report.record(False, **_mismatch(_generator(kind, i, a), one, got,
                                                 b0.scale(Fraction(num, den))))
    report.cases_run += passed
    return report


def _mismatch(gen: Generator, p: Poly, got: Poly, want: Poly) -> dict:
    """The failure fields of a check that read ``got`` for gen . p, not ``want``."""
    return dict(generator=gen.text(), input=p, lhs=got, rhs=want, difference=got - want)


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
            if not _is_multiple(back, hvar, ratio.denominator, ratio.numerator):
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
    if (p.l, p.n) != (q.l, q.n):
        return None
    return _num_ratio(p.nums, p.den, q.nums, q.den)


def _num_ratio(p_nums: dict[int, int], p_den: int, q_nums: dict[int, int],
               q_den: int) -> Rat | None:
    """c with p = c q for p, q given as integer numerators (without zeros)
    over a denominator, not necessarily reduced, and q nonzero; else None.
    The numerators of p must be those of q times one ratio, read off a
    pivot term."""
    if p_nums.keys() != q_nums.keys():
        return None
    pivot = next(iter(q_nums))
    s, t = p_nums[pivot], q_nums[pivot]
    if any(v * t != q_nums[k] * s for k, v in p_nums.items()):
        return None
    return Fraction(s * q_den, t * p_den)


def _is_multiple(p: Poly, q: Poly, num: int, den: int) -> bool:
    """p == q * num / den for nonzero ints num, den, with the numerators
    cross-multiplied instead of a scaled copy of q."""
    return (p.l, p.n) == (q.l, q.n) and _nums_multiple(p.nums, p.den, q.nums, q.den, num, den)


def _nums_multiple(p_nums: dict[int, int], p_den: int, q_nums: dict[int, int], q_den: int,
                   num: int, den: int) -> bool:
    """``_is_multiple`` on integer numerators (without zeros) over
    denominators, none of them necessarily reduced."""
    if p_nums.keys() != q_nums.keys():
        return False
    s, t = q_den * den, num * p_den
    return all(v * s == q_nums[k] * t for k, v in p_nums.items())


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
        if not _is_multiple(back, Poly.d(*oracle.ranks, j) + (value + 1),
                            lam_j.denominator, lam_j.numerator):
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
    oracle = _asked_once(oracle)
    one = oracle.one()
    window = window_degrees(oracle, loop_window)

    # Cartan freeness first (checked, not assumed)
    probes = [one] + [random_poly(rng, l, n) for _ in range(samples)]
    zero = (0,) * n if oracle.variant != "finite" else ()
    for p in probes:
        for i in range(1, l + 1):
            if not _is_times_variable(oracle.eval(_generator("h", i, zero), p), p, i - 1):
                raise ClassificationError("cartan-freeness", f"H{i} is not multiplication")
        for j in range(1, n + 1):
            if not _is_times_variable(oracle.eval(_generator("D", j, zero), p), p, l + j - 1):
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


def _asked_once(oracle: ActionOracle) -> ActionOracle:
    """``oracle`` behind a table of its answers keyed by (generator, value),
    so each distinct query reaches it once."""
    answers: dict = {}
    ask = oracle.eval

    def eval_fn(gen: Generator, p: Poly) -> Poly:
        key = (gen, p)
        out = answers.get(key)
        if out is None:
            out = answers[key] = ask(gen, p)
        return out

    return ActionOracle(oracle.rank, oracle.loop_vars, oracle.variant, eval_fn)


def _is_times_variable(got: Poly, p: Poly, slot: int) -> bool:
    """got == p v for the variable v of exponent slot ``slot``, whose product
    with p is one offset of every key (the probes' exponents are far below
    the limit, so no slot spills)."""
    step = 1 << SLOT_BITS * slot
    return (got.den == p.den and got.l == p.l and got.n == p.n
            and got.nums == {k + step: v for k, v in p.nums.items()})


def _decode_base(oracle, x_polys, y_polys, lam, witt_a) -> list[tuple]:
    """All (family, S, a, b) tuples whose module reproduces the oracle.

    At unit a, x_i.1 and y_i.1 are the products X_i and Y_i of their
    ``repmods.factor_table`` factors, with the ``repmods.factor_sign``; a_i and
    1/a_i scale them.  Every factor is linear in H with a nonzero H part, so
    ``_degree_patterns`` inverts the H-degrees of the read x_i.1 to the at most
    two patterns S with those factor counts, and y_i.1 has the rest:
    deg x_i.1 + deg y_i.1 = 2 in every slot of both families.
    At H = 0 the factors are c0/den + cb b, so (x_i.1 * y_i.1)|_{H=0} is the
    slot polynomial P_i(b) of ``slot_polynomials``, whatever a is: slot 1 gives
    the candidate b (the roots of the A family's quadratic, or b = 0 in the C
    family, whose slots carry no b).  A candidate holds iff x_i.1 = a_i X_i
    with a_i nonzero and y_i.1 = Y_i / a_i in every slot, compared on integer
    numerators (``_pattern_scalars``); only then is its spec built
    (``_trial_spec``), which refuses a b the family or variant does not take.
    """
    l, n = oracle.ranks
    x_degrees = tuple(map(_h_degree, x_polys))
    if any(x + _h_degree(y) != 2 for x, y in zip(x_degrees, y_polys)):
        return []
    h_block = (1 << SLOT_BITS * l) - 1
    # (x_1.1 y_1.1)|_{H=0} is x_1.1|_{H=0} y_1.1|_{H=0}
    at_zero = _h_free(x_polys[0], h_block) * _h_free(y_polys[0], h_block)
    roots: dict = {}
    ones = (Fraction(1),) * l
    found: list[tuple] = []
    for family, S, first in _degree_patterns(l, x_degrees):
        for b in _slot_solutions(first, at_zero, roots):
            a = _pattern_scalars(family, l, S, b, x_polys, y_polys)
            if a is None or _trial_spec(oracle, family, ones, b, S, lam, witt_a) is None:
                continue
            entry = (family, S, a, b)
            if entry not in found:
                found.append(entry)
    found.sort(key=_decode_key)
    return found


def _h_free(p: Poly, h_block: int) -> Poly:
    """p at H = 0: the terms whose keys have no bit of ``h_block``."""
    return Poly._reduced(p.l, p.n, p.den, {k: v for k, v in p.nums.items() if not k & h_block})


@lru_cache(maxsize=64)
def _degree_patterns(l: int, x_degrees: tuple[int, ...]) -> tuple[tuple, ...]:
    """(family, S, slot-1 polynomial) of the patterns whose x_i.1 have the
    H-degrees ``x_degrees``.  In ``repmods.factor_table``, deg x_i.1 =
    1 + s_(i+1) - s_i with s_k = [k in S]: each s_1 walks to one S, over
    slots 1..l in the A family (both survive only for {} and FULL, all
    degrees 1), over 1..l-1 in the C family, which keeps the s_l whose x_l.1
    is quadratic exactly when l is not in S.  So at most two patterns."""
    out = []
    for family in ("A",) if l == 1 else ("A", "C"):
        for bits in ([0], [1]):
            for d in x_degrees[:l if family == "A" else l - 1]:
                bits.append(bits[-1] + d - 1)
            if set(bits) <= {0, 1} and (family == "A" or x_degrees[-1] == 2 - 2 * bits[-1]):
                S = frozenset(k for k, bit in enumerate(bits, 1) if bit)
                out.append((family, S, slot_polynomials(family, l, S)[0]))
    return tuple(out)


def slot_polynomials(family: str, l: int, S: frozenset[int]) -> tuple[tuple, ...]:
    """Per slot i, (x_i.1 * y_i.1)|_{H=0} at unit a as a polynomial in b:
    ((c_0, c_1, c_2), den), its integer coefficients of 1, b, b^2 over a
    positive den.  It is the sign of both times the product of c0/den + cb b
    over the ``repmods.factor_table`` factors of x_i.1 and y_i.1, two in
    every slot; the A factors carry b, the C factors do not."""
    out = []
    for i, (xf, yf) in enumerate(zip(*repmods.factor_table(family, l, S)), 1):
        coeffs = (repmods.factor_sign(family, l, i, xf) * repmods.factor_sign(family, l, i, yf),)
        den = 1
        for _, c0, cb, d in xf + yf:
            # times (c0 + cb d b) / d
            coeffs = tuple(c0 * c + cb * d * lower
                           for c, lower in zip(coeffs + (0,), (0,) + coeffs))
            den *= d
        out.append((coeffs, den))
    return tuple(out)


def _slot_solutions(slot: tuple, z: Poly, roots: dict) -> list[Poly]:
    """The candidate b with P(b) = z for a slot polynomial P: the roots of
    a quadratic, each square root taken once per discriminant (kept in
    ``roots``), or b = 0 for a slot that carries no b."""
    (gamma, beta, alpha), den = slot
    if not alpha:
        return [Poly.zero(z.l, z.n)]
    # (2 alpha b + beta)^2 = beta^2 - 4 alpha gamma + 4 alpha den z
    key = (beta * beta - 4 * alpha * gamma, 4 * alpha * den)
    if key not in roots:
        roots[key] = _poly_sqrt(z.scale(key[1]) + key[0])
    root = roots[key]
    if root is None:
        return []
    # b = (s root - beta) / (2 alpha) for the signs s of a nonzero root
    d = 2 * alpha * root.den
    lift = -beta * root.den
    out = []
    for s in (1, -1) if root else (1,):
        nums = {k: s * v for k, v in root.nums.items()}
        nums[0] = nums.get(0, 0) + lift
        if d < 0:
            nums = {k: -v for k, v in nums.items()}
        out.append(Poly._reduced(z.l, z.n, abs(d), _nonzero(nums)))
    return out


def _pattern_scalars(family: str, l: int, S: frozenset[int], b: Poly,
                     x_polys: list[Poly], y_polys: list[Poly]) -> tuple[Rat, ...] | None:
    """The a with x_i.1 = a_i X_i and y_i.1 = Y_i / a_i for every i, where
    X_i, Y_i are the (family, S) factor products at b with their signs, or
    None when there is none or some a_i is zero.  X_i and Y_i are the
    integer products of ``repmods.form_product``, compared by
    cross-multiplication; this decides a candidate b in every slot."""
    a = []
    for i, (x, y, xf, yf) in enumerate(
            zip(x_polys, y_polys, *repmods._factor_instances(family, l, S, b)), 1):
        # form_product's check holds: b solves slot 1, so b^2 has a polynomial's exponents
        a_i = _num_ratio(x.nums, x.den, *repmods.form_product(family, l, i, xf))
        # None for a zero x_i.1; y_i.1 = Y_i / a_i is y_i.1 a_i = Y_i
        if a_i is None or not _nums_multiple(*repmods.form_product(family, l, i, yf),
                                             y.nums, y.den, a_i.numerator, a_i.denominator):
            return None
        a.append(a_i)
    return tuple(a)


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
