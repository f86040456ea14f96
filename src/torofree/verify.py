"""Property-test harness: every structural identity as an executable check.

Each suite samples deterministically from a seeded PRNG, compares exactly
(no tolerances), and returns a CheckReport whose failures list the inputs
and the exact mismatch polynomial/element.  Random polynomials are drawn
with total degree <= 4, at most 6 terms, and nonzero coefficients in
-9..9; loop windows default to {-2..2}^n.  On the module's own action the
bracket-compatibility, freeness, twist and degree-reduction suites are
proofs for every polynomial: they compare shift operators (see the
module-axiom section).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import liealg, repmods
from .algebras import AlgebraDesc, degree_box, window_degrees
from .checks import CheckReport, _check_samples, random_poly
from .errors import DomainError, StructureError
from .liealg import LieElt, add_terms, basis_of, bracket
from .polyalg import (
    Poly,
    ShiftOperator,
    VarId,
    deg_in,
    shift_difference,
    shift_sigma,
    shift_tau,
)
from .repmods import ActionFn, Generator, ModuleSpec, _generator

Rat = Fraction


# -- module-axiom suites -----------------------------------------------------
#
# On the module's own action (``action is repmods.act``, looked up at call
# time) bracket_compat, freeness and eva_twist are decided as identities of
# shift operators, which hold for every polynomial at once; degree_reduction
# is proved once h_1(e_j) is the operator lambda_j H_1 T_(e_j) for every j,
# and is otherwise sampled as a black box is, with no failure of its own,
# since a different operator may still lower the degree.  A proven
# identity records its ``samples`` cases as passed without evaluating them;
# bracket_compat compares the two operators of a pair and builds their
# difference, and the pair's text, only when they differ.
# An identity that fails is evaluated on every seeded sample exactly as a
# black-box action is, so the failures name the same inputs and values; if
# no sample exposes it, one more failure names the identity and the
# operator difference, so a false identity never passes.  Any other
# ``action`` is a black box and is only sampled; bracket_compat evaluates it
# through a ``_Memo``, once per (generator, input value), and compares each
# case before it builds any difference.


def _record_unexposed(report: CheckReport, failures_before: int, gap: ShiftOperator,
                      key: str, name: str):
    """Record the false identity ``name`` unless a failure since
    ``failures_before`` already names it under ``key``."""
    if all(f[key] != name for f in report.failures[failures_before:]):
        report.record(False, **{key: name}, input="every polynomial", difference=gap)


class _Memo:
    """A black-box ``action`` evaluated at most once per (generator, input value).

    Actions on a ``lasting`` input or on a constant are kept for the whole
    check, the others only until ``forget_rest``.  Constants recur across
    pairs (a central generator acts by a scalar, so many words end on one)
    and are few, so keeping their entries costs little memory.  One dict
    holds every entry, so a call looks its key up once; ``rest`` lists the
    keys that ``forget_rest`` drops.
    """

    def __init__(self, action: ActionFn, lasting: Iterable[Poly]):
        self.action = action
        self.lasting = set(lasting)
        self.memo: dict[tuple[Generator, Poly], Poly] = {}
        self.rest: list[tuple[Generator, Poly]] = []

    def __call__(self, spec: ModuleSpec, gen: Generator, q: Poly) -> Poly:
        key = (gen, q)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self.action(spec, gen, q)
            if not (q.is_constant() or q in self.lasting):
                self.rest.append(key)
        return hit

    def forget_rest(self) -> None:
        memo = self.memo
        for key in self.rest:
            del memo[key]
        self.rest.clear()


def bracket_compat_check(
    spec: ModuleSpec,
    loop_window: Iterable | None = None,
    samples: int = 20,
    seed: int = 0,
    action: ActionFn = repmods.act,
) -> CheckReport:
    """act([X,Y], p) = act(X, act(Y, p)) - act(Y, act(X, p)), exactly."""
    report = CheckReport("bracket_compat", seed=seed)
    _check_samples(samples)
    rng = random.Random(seed)
    l, n = spec.ranks
    window = window_degrees(spec.algebra, loop_window)
    gens = repmods.generators_for(spec, window)
    polys = [random_poly(rng, l, n) for _ in range(samples)]
    white_box = action is repmods.act
    ops = [repmods.generator_operator(spec, g) for g in gens] if white_box else []
    if not white_box:
        # first-level actions serve every pair; deeper ones (the second
        # level and the generator words of act_element) are kept for one
        # pair only, which keeps the memo small
        action = _Memo(action, polys)
    for i1, i2 in itertools.combinations_with_replacement(range(len(gens)), 2):
        g1, g2 = gens[i1], gens[i2]
        elt = repmods.generator_bracket(spec, g1, g2)
        if white_box:
            lhs_op = repmods.element_operator(spec, elt)
            rhs_op = ops[i1].bracket(ops[i2])
            if lhs_op == rhs_op:
                report.cases_run += samples
                continue
            gap = lhs_op - rhs_op
        failures_before = len(report.failures)
        for p in polys:
            lhs = repmods.act_element(spec, elt, p, action)
            xy = action(spec, g1, action(spec, g2, p))
            yx = action(spec, g2, action(spec, g1, p))
            # lhs = xy - yx tested as lhs + yx = xy, which adds nothing when
            # the bracket is zero; the failure fields are built only on failure
            report.record_lazily(lhs + yx == xy, lambda: _compat_failure(g1, g2, p, lhs, xy - yx))
        if white_box:
            _record_unexposed(report, failures_before, gap, "generator_pair", _pair_text(g1, g2))
        else:
            action.forget_rest()
    return report


def _pair_text(g1: Generator, g2: Generator) -> str:
    return f"[{g1.text()}, {g2.text()}]"


def _compat_failure(g1: Generator, g2: Generator, p: Poly, lhs: Poly, rhs: Poly) -> dict:
    return dict(generator_pair=_pair_text(g1, g2), input=p, lhs=lhs, rhs=rhs,
                difference=lhs - rhs)


def central_identity_check(
    spec: ModuleSpec,
    loop_window: Iterable | None = None,
    seed: int = 0,
    action: ActionFn = repmods.act,
) -> CheckReport:
    """t^a K_j . 1 = [x_i(e_j), y_i(a - e_j)].1 - (coroot_i)(a).1 = 0, all a, i, j."""
    report = CheckReport("central_identity", seed=seed)
    if spec.algebra.variant not in ("toroidal", "full"):
        raise DomainError("central identity requires a toroidal or full spec")
    l, n = spec.ranks
    one = spec.one()
    window = window_degrees(spec.algebra, loop_window)
    for a in window:
        for j in range(1, n + 1):
            e_j = tuple(1 if t == j - 1 else 0 for t in range(n))
            a_minus = tuple(x - y for x, y in zip(a, e_j))
            for i in range(1, l + 1):
                gx = _generator("x", i, e_j)
                gy = _generator("y", i, a_minus)
                comm = action(spec, gx, action(spec, gy, one)) - action(
                    spec, gy, action(spec, gx, one)
                )
                coroot_term = repmods.act_element(
                    spec, liealg.coroot(spec.algebra, i, a), one, action
                )
                # [x_i(e_j), y_i(a-e_j)] = coroot_i(a) + (x_i,y_i) K_j(a), so the
                # difference below is a nonzero multiple of t^a K_j . 1
                central = comm - coroot_term
                report.record(
                    central.is_zero(),
                    degree=a,
                    center_index=j,
                    row=i,
                    difference=central,
                )
    return report


def freeness_check(
    spec: ModuleSpec,
    samples: int = 20,
    seed: int = 0,
    action: ActionFn = repmods.act,
) -> CheckReport:
    """Every Cartan generator acts by multiplication by its own variable."""
    report = CheckReport("freeness", seed=seed)
    _check_samples(samples)
    rng = random.Random(seed)
    l, n = spec.ranks
    zero = spec.algebra.zero_degree()
    gens: list[tuple[Generator, Poly]] = []
    if spec.algebra.variant != "witt":
        for i in range(1, l + 1):
            gens.append((_generator("h", i, zero), Poly.H(l, n, i)))
    for j in range(1, n + 1):
        gens.append((_generator("D", j, zero), Poly.d(l, n, j)))
    white_box = action is repmods.act
    gaps: dict[Generator, ShiftOperator] = {}
    if white_box:
        # h_i(0) and d_j must be the operators {0: H_i} and {0: d_j}
        no_shift = (0,) * (l + n)
        for gen, var in gens:
            gap = repmods.generator_operator(spec, gen) - ShiftOperator(l, n, {no_shift: var})
            if not gap.is_zero():
                gaps[gen] = gap
        report.cases_run += samples * (len(gens) - len(gaps))
        if not gaps:
            return report
    unproven = [(gen, var) for gen, var in gens if not white_box or gen in gaps]
    for _ in range(samples):
        p = random_poly(rng, l, n)
        for gen, var in unproven:
            got = action(spec, gen, p)
            report.record(
                got == var * p,
                generator=gen.text(),
                input=p,
                lhs=got,
                rhs=var * p,
                difference=got - var * p,
            )
    for gen, gap in gaps.items():
        _record_unexposed(report, 0, gap, "generator", gen.text())
    return report


def eva_twist_check(
    spec: ModuleSpec,
    loop_window: Iterable | None = None,
    samples: int = 10,
    seed: int = 0,
) -> CheckReport:
    """act(X(r), p) equals the twisted p times act(X(r), 1) for X in {h, x, y, K}.

    The identity holds for every p iff the operator of X(r) has no shift
    other than the expected sigma_i^(+-1) tau^r (the center's is zero).
    """
    report = CheckReport("eva_twist", seed=seed)
    _check_samples(samples)
    if spec.algebra.variant not in ("toroidal", "full"):
        raise DomainError("twist consistency requires a loop variant")
    rng = random.Random(seed)
    l, n = spec.ranks
    one = spec.one()
    window = window_degrees(spec.algebra, loop_window)
    # (generator, power of sigma_i in its twist) per degree, in case order
    cases: dict[tuple, list[tuple[Generator, int]]] = {}
    gaps: dict[Generator, ShiftOperator] = {}
    for r in window:
        cases[r] = []
        for i in range(1, l + 1):
            cases[r] += [(_generator("h", i, r), 0), (_generator("x", i, r), 1),
                         (_generator("y", i, r), -1)]
        cases[r] += [(_generator("K", j, r), 0) for j in range(1, n + 1)]
        for gen, k in cases[r]:
            op = repmods.generator_operator(spec, gen)
            sigma = [0] * l
            if k:
                sigma[gen.index - 1] = k
            shift = tuple(sigma) + r
            if set(op.terms) - {shift}:
                gaps[gen] = ShiftOperator(
                    l, n, {u: f for u, f in op.terms.items() if u != shift}
                )
    report.cases_run += samples * sum(gen not in gaps for r in window for gen, _ in cases[r])
    if not gaps:
        return report
    for r in window:
        for p in (random_poly(rng, l, n) for _ in range(samples)):
            tau_p = shift_tau(r, p)
            for gen, k in cases[r]:
                if gen not in gaps:
                    continue
                twist = shift_sigma(gen.index, k, tau_p) if k else tau_p
                lhs = repmods.act(spec, gen, p)
                rhs = twist * repmods.act(spec, gen, one)
                report.record(
                    lhs == rhs,
                    generator=gen.text(),
                    input=p,
                    lhs=lhs,
                    rhs=rhs,
                    difference=lhs - rhs,
                )
    for gen, gap in gaps.items():
        _record_unexposed(report, 0, gap, "generator", gen.text())
    return report


def degree_reduction_check(
    spec: ModuleSpec,
    samples: int = 100,
    seed: int = 0,
    action: ActionFn = repmods.act,
) -> CheckReport:
    """deg_dj((h(e_j) - lambda_j h) . w) < deg_dj(w) for the fixed h = H_1."""
    report = CheckReport("degree_reduction", seed=seed)
    _check_samples(samples)
    if spec.algebra.variant not in ("toroidal", "full"):
        raise DomainError("degree reduction requires a toroidal or full spec")
    rng = random.Random(seed)
    l, n = spec.ranks
    hvar = Poly.H(l, n, 1)
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    if action is repmods.act:
        # h_1(e_j) = lambda_j H_1 T_(e_j) makes (h_1(e_j) - lambda_j h_1) . w =
        # lambda_j H_1 (w(d_j - 1) - w), whose d_j-degree is that of w less one
        # (leading coefficient -m c_m lambda_j H_1) for every w with deg_dj(w) >= 1
        if all(repmods.generator_operator(spec, _generator("h", 1, e_j))
               == ShiftOperator(l, n, {(0,) * l + e_j: hvar.scale(lam_j)})
               for e_j, lam_j in zip(units, spec.lam)):
            report.cases_run += samples * n
            return report
    for j, e_j in enumerate(units, 1):
        var = VarId("d", j)
        produced = 0
        while produced < samples:
            w = random_poly(rng, l, n)
            if deg_in(var, w) < 1:
                w = w * Poly.d(l, n, j)
            reduced = action(spec, _generator("h", 1, e_j), w) - (
                hvar * w
            ).scale(spec.lam[j - 1])
            ok = deg_in(var, reduced) < deg_in(var, w)
            report.record(
                ok,
                d_index=j,
                input=w,
                lhs=reduced,
                rhs=f"d{j}-degree below {deg_in(var, w)}",
                difference=deg_in(var, reduced),
            )
            produced += 1
    return report


LEMMA_PA_K = (-4, -3, -2, -1, 1, 2, 3, 4)
LEMMA_PA_KPRIME = tuple(range(8))


def lemma_pa_property(
    samples: int = 200,
    ranks: tuple[int, int] = (2, 1),
    seed: int = 0,
) -> CheckReport:
    """The two shift-difference degree identities, exact on random polynomials.

    The passing cases are counted once, at the end; only a failing case is
    recorded, with its fields."""
    report = CheckReport("shift_difference_degrees", seed=seed)
    _check_samples(samples)
    l, n = ranks
    if not 1 <= l <= repmods.MAX_RANK:
        raise StructureError(f"H-variables must be in 1..{repmods.MAX_RANK}, got {l}")
    if not 0 <= n <= repmods.MAX_LOOP_VARS:
        raise StructureError(f"d-variables must be in 0..{repmods.MAX_LOOP_VARS}, got {n}")
    rng = random.Random(seed)
    passed = 0
    for _ in range(samples):
        g = random_poly(rng, l, n, max_total_deg=6)
        i = rng.randint(1, l)
        var = VarId("H", i)
        dg = deg_in(var, g)
        for k in LEMMA_PA_K:
            out = shift_difference("power_minus_id", k, i, g)
            got = deg_in(var, out)
            if got == dg - 1:
                passed += 1
            else:
                report.record(False, mode=f"power_minus_id k={k}", input=g,
                              lhs=got, rhs=dg - 1, difference=out)
        for kp in LEMMA_PA_KPRIME:
            out = shift_difference("difference_power", kp, i, g)
            got = deg_in(var, out)
            expect = dg - kp if kp <= dg else -1
            if got == expect:
                passed += 1
            else:
                report.record(False, mode=f"difference_power k'={kp}", input=g,
                              lhs=got, rhs=expect, difference=out)
    report.cases_run += passed
    return report


# -- Lie-axiom suites --------------------------------------------------------
#
# jacobi_check and cocycle_identity_check decide each case on the term maps
# of the elements they compare and count their passing cases once at the
# end.  An antisymmetry pair passes when the terms of [a, b] and [b, a], and
# a Jacobi triple when those of its three brackets, cancel under
# ``liealg.add_terms``, the merge of ``LieElt.__add__``; a cocycle case
# passes when its two sides have equal terms.  No case assumes that
# ``bracket_fn`` is bilinear or returns no zero coefficient: a case fails
# exactly when the sum (or difference) its failure reports is nonzero, and
# only a failing case builds that element and its text.

BracketFn = Callable[[AlgebraDesc, LieElt, LieElt], LieElt]


def jacobi_check(
    desc: AlgebraDesc,
    loop_window: Iterable | None = None,
    samples: int = 0,
    seed: int = 0,
    bracket_fn: BracketFn = bracket,
) -> CheckReport:
    """Antisymmetry + Jacobi, exhaustive over basis triples (or sampled).

    Every basis pair is bracketed for antisymmetry; with ``samples`` only the
    brackets the sampled triples read are kept.  The loop window defaults
    to {-1..1}^n.
    """
    report = CheckReport("lie_axioms", seed=seed)
    _check_samples(samples)
    basis = basis_of(desc, (-1, 1) if loop_window is None else loop_window)
    size = len(basis)
    triples: Iterable[tuple[int, int, int]]
    kept: set[tuple[int, int]] | None = None
    if samples:
        if not size:
            raise DomainError("the loop window is empty: no basis element to sample")
        rng = random.Random(seed)
        triples = [
            (rng.randrange(size), rng.randrange(size), rng.randrange(size))
            for _ in range(samples)
        ]
        kept = {p for i, j, k in triples for p in ((j, k), (k, i), (i, j))}
    else:
        triples = itertools.combinations_with_replacement(range(size), 3)
    passed = 0
    pair: dict[tuple[int, int], LieElt] = {}
    for i in range(size):
        for j in range(i, size):
            ij = bracket_fn(desc, basis[i], basis[j])
            ji = ij if j == i else bracket_fn(desc, basis[j], basis[i])
            if kept is None or (i, j) in kept:
                pair[i, j] = ij
            if kept is None or (j, i) in kept:
                pair[j, i] = ji
            if not add_terms(ij.terms, ji.terms):
                passed += 1
            else:
                report.record(False, law="antisymmetry",
                              inputs=f"({basis[i].text()}, {basis[j].text()})",
                              difference=ij + ji)
    for i, j, k in triples:
        a = bracket_fn(desc, basis[i], pair[j, k])
        b = bracket_fn(desc, basis[j], pair[k, i])
        c = bracket_fn(desc, basis[k], pair[i, j])
        if not add_terms(a.terms, b.terms, c.terms):
            passed += 1
        else:
            report.record(False, law="jacobi",
                          inputs=f"({basis[i].text()}, {basis[j].text()}, {basis[k].text()})",
                          difference=a + b + c)
    report.cases_run += passed
    return report


def cocycle_identity_check(
    c: tuple,
    n: int,
    loop_window: Iterable | None = None,
    samples: int = 60,
    seed: int = 0,
) -> CheckReport:
    """2-cocycle identity for c1*phi1 + c2*phi2 with the Der(A)-action on K_A."""
    report = CheckReport("cocycle_identity", seed=seed)
    _check_samples(samples)
    desc = AlgebraDesc("A", 1, n, "full", (Fraction(c[0]), Fraction(c[1])))
    window = window_degrees(desc, loop_window)
    if samples and not window:
        raise DomainError("the loop window is empty: no derivation to sample")
    rng = random.Random(seed)
    derivations = [liealg.elt(desc, ("D", i, r)) for r in window for i in range(1, n + 1)]
    cc = liealg.cocycle_coefficients(c)
    cocycle, witt = liealg.cocycle, liealg.witt_bracket_part
    passed = 0
    for _ in range(samples):
        X, Y, Z = (rng.choice(derivations) for _ in range(3))
        lhs = (
            cocycle(desc, cc, witt(desc, X, Y), Z)
            + cocycle(desc, cc, witt(desc, Y, Z), X)
            + cocycle(desc, cc, witt(desc, Z, X), Y)
        )
        rhs = (
            bracket(desc, X, cocycle(desc, cc, Y, Z))
            + bracket(desc, Y, cocycle(desc, cc, Z, X))
            + bracket(desc, Z, cocycle(desc, cc, X, Y))
        )
        # rhs is a sum of brackets, so it has no zero coefficient, and the
        # terms are equal exactly when lhs - rhs is zero
        if lhs.terms == rhs.terms:
            passed += 1
        else:
            report.record(False, inputs=f"({X.text()}, {Y.text()}, {Z.text()})",
                          lhs=lhs, rhs=rhs, difference=lhs - rhs)
    report.cases_run += passed
    return report


def suite_for_spec(
    spec: ModuleSpec,
    loop_window: Iterable | None = None,
    samples: int = 20,
    seed: int = 0,
) -> list[CheckReport]:
    """All applicable suites for one module spec."""
    reports = [
        bracket_compat_check(spec, loop_window, samples, seed),
        freeness_check(spec, samples, seed),
    ]
    if spec.algebra.variant in ("toroidal", "full"):
        reports.append(central_identity_check(spec, loop_window, seed))
        reports.append(eva_twist_check(spec, loop_window, max(4, samples // 4), seed))
        reports.append(degree_reduction_check(spec, samples, seed))
    n = spec.algebra.loop_vars
    if spec.algebra.variant != "finite" and n > 1:
        # exhaustive triples over {-1..1}^n are too many: sample them
        reports.append(jacobi_check(spec.algebra, degree_box(n, -1, 1), samples=400, seed=seed))
    else:
        reports.append(jacobi_check(spec.algebra, loop_window, samples=0, seed=seed))
    if spec.algebra.variant == "full":
        reports.append(
            cocycle_identity_check(
                spec.algebra.cocycle, spec.algebra.loop_vars, None, 40, seed
            )
        )
    reports.append(lemma_pa_property(40, spec.ranks if spec.ranks[0] else (1, spec.ranks[1]), seed))
    return reports
