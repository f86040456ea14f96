"""Seeded inputs, jobs and verdict checks for the in-process workloads.

A job is one user-visible verdict: one suite on one spec (``axioms``), one
grid point (``search``), one recovery, defect or isomorphism case
(``blackbox``).  ``Job.run`` returns None when the verdict is right and a
one-line reason when it is wrong; the caller turns an exception into a
failure as well.  Every input comes from ``random.Random("<workload>:<seed>")``
and the job order is a seeded shuffle, so one seed always gives the same jobs
in the same order.  The program is called through its module attributes at
run time, which is what lets the tracer see every call.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from torofree import classify as C
from torofree import repmods as R
from torofree import verify as V
from torofree.errors import ClassificationError
from torofree.liealg import AlgebraDesc
from torofree.polyalg import Poly
from torofree.repmods import ModuleSpec

# Defects of the program at the commit that introduced this benchmark, each
# with the start of the failure reason it produces.  A failure of a job tagged
# with one of them is counted (attempted/failed, failed_ratio) but expected.
KNOWN_DEFECTS = {
    # iso_test compares raw parameters, so action-identical l=1 pairs differ
    "iso-raw-parameters": "iso_test returned False, expected True",
    # _isqrt_exact goes through a float: l=1 mixed-S b=(10^18+1)/7 is misread
    "isqrt-float-precision": "raised ClassificationError: generator-pattern",
    # ... and l=1 mixed-S b=(10^200+1)/3 overflows the float
    "isqrt-float-overflow": "raised OverflowError",
}

W2 = [(0,), (1,)]
W3 = [(-1,), (0,), (1,)]
W5 = [(-2,), (-1,), (0,), (1,), (2,)]
W2D = [(0, 0), (1, 0), (0, 1), (-1, 1)]


class Job:
    __slots__ = ("label", "run", "defect")

    def __init__(self, label: str, run, defect: str | None = None):
        self.label = label
        self.run = run
        self.defect = defect


def run_job(job: Job) -> str | None:
    """The job's failure reason, or None; never raises."""
    try:
        return job.run()
    except Exception as exc:  # a raised exception is a failed verdict, not a harness error
        return f"raised {type(exc).__name__}: {exc}"[:300]


def is_known(job: Job, reason: str) -> bool:
    return job.defect is not None and reason.startswith(KNOWN_DEFECTS[job.defect])


def build(workload: str, seed: int) -> list[Job]:
    jobs = {"axioms": axioms, "search": search, "blackbox": blackbox}[workload](
        random.Random(f"{workload}:{seed}")
    )
    random.Random(f"{workload}:{seed}:order").shuffle(jobs)
    return jobs


# -- seeded values -------------------------------------------------------------


def rat(rng, num_max: int, den_max: int = 1, nonzero: bool = True) -> F:
    while True:
        x = F(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if x or not nonzero:
            return x


def huge(rng, digits: int) -> F:
    """A nonzero rational whose numerator has the given number of digits."""
    num = rng.randrange(10 ** (digits - 1), 10**digits)
    return F(rng.choice((1, -1)) * num, rng.randint(1, 999))


def subset(rng, top: int) -> frozenset[int]:
    return frozenset(i for i in range(1, top + 1) if rng.random() < 0.5)


def make_spec(family, rank, variant, loop_vars=1, lam=(), witt_a=None, a=(), b=0,
              S=(), cocycle=(0, 0)) -> ModuleSpec:
    desc = AlgebraDesc(family, rank, loop_vars, variant, (F(cocycle[0]), F(cocycle[1])))
    if variant == "witt":
        return ModuleSpec(algebra=desc, lam=tuple(lam), witt_a=witt_a)
    base_b = b if isinstance(b, Poly) else Poly.const(rank, loop_vars, b)
    return ModuleSpec(algebra=desc, lam=tuple(lam), witt_a=witt_a, base_a=tuple(a),
                      base_b=base_b, S=frozenset(S))


def random_spec(rng, family, rank, variant, loop_vars=1, height=None, b=None,
                S=None) -> ModuleSpec:
    """A spec with seeded parameters; ``height(rng)`` draws the nonzero rationals."""
    height = height or (lambda r: rat(r, 9, 4))
    n = loop_vars
    lam = tuple(height(rng) for _ in range(n)) if variant != "finite" else ()
    witt_a = height(rng) if variant in ("witt", "full") else None
    if variant == "witt":
        return make_spec("A", 0, "witt", n, lam=lam, witt_a=witt_a)
    a = tuple(height(rng) for _ in range(rank))
    if S is None:
        S = subset(rng, rank + 1 if family == "A" else rank)
    if b is None:
        b = height(rng) if family == "A" else 0
    cocycle = (rat(rng, 5, 2, False), rat(rng, 5, 2, False)) if variant == "full" else (0, 0)
    return make_spec(family, rank, variant, n, lam, witt_a, a, b, S, cocycle)


def random_poly(rng, l: int, n: int, max_deg: int = 3, max_terms: int = 4) -> Poly:
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * (l + n)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(l + n)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    p = Poly(l, n, terms)
    return p if p.terms else Poly.const(l, n, 1)


# -- axioms: white-box suites on a panel of known-correct specs ----------------

PANEL = [(f, r, v) for f, r in (("A", 1), ("A", 2), ("C", 2))
         for v in ("finite", "toroidal", "full")] + [("A", 0, "witt")]


def suite_job(label: str, fname: str, *args, **kwargs) -> Job:
    def run():
        report = getattr(V, fname)(*args, **kwargs)
        if report.cases_run == 0:
            return f"{report.name} ran no cases"
        if not report.passed:
            return f"{report.name} failed {len(report.failures)} of {report.cases_run} cases"
        return None

    return Job(label, run)


def axioms(rng) -> list[Job]:
    # The seed draws lambda, a, b, S and the cocycle.  The suites' own sampling
    # seeds are fixed per panel slot: the cost of a suite follows the sizes of
    # the polynomials it samples, and a seeded draw would make the job mix
    # differ from seed to seed.  Sample counts put most suites at 10-40 ms, so
    # that the median job sits among many jobs of similar cost.
    jobs = []
    for s, (family, rank, variant) in enumerate(PANEL):
        loop = variant != "finite"
        spec = random_spec(rng, family, rank, variant, loop_vars=1 if loop else 0)
        name = f"{family}{rank}-{variant}"
        window = W2 if loop else None
        jobs.append(suite_job(f"{name} bracket_compat", "bracket_compat_check",
                              spec, window, samples=2, seed=s))
        jobs.append(suite_job(f"{name} freeness", "freeness_check", spec, samples=40, seed=s))
        if variant in ("toroidal", "full"):
            jobs.append(suite_job(f"{name} central_identity", "central_identity_check",
                                  spec, W5, seed=s))
            jobs.append(suite_job(f"{name} eva_twist", "eva_twist_check",
                                  spec, W3, samples=3, seed=s))
            jobs.append(suite_job(f"{name} degree_reduction", "degree_reduction_check",
                                  spec, samples=60, seed=s))
        jobs.append(suite_job(f"{name} jacobi", "jacobi_check", spec.algebra,
                              W2 if loop else [()], samples=150, seed=s))
        if variant == "full":
            jobs.append(suite_job(f"{name} cocycle_identity", "cocycle_identity_check",
                                  spec.algebra.cocycle, 1, None, samples=20, seed=s))
        l, n = spec.ranks
        jobs.append(suite_job(f"{name} lemma_pa", "lemma_pa_property",
                              samples=5, ranks=(l or 1, n), seed=s))
    return jobs


# -- search: simplicity grid with witness certificates and cyclicity -----------


def grid_job(label: str, spec: ModuleSpec, maxdeg: int, dim_bound: int, w: Poly) -> Job:
    def run():
        predicted = C.simplicity_predict(spec)
        report = C.submodule_witness_search(spec, maxdeg, W3, dim_bound)
        if report.found and not report.verified:
            return "witness found but not verified"
        if predicted == report.found:
            return f"predicted simple={predicted} but witness found={report.found}"
        if predicted and not C.cyclicity_check(spec, w, max_word_len=12, loop_window=W3):
            return "cyclicity failed at a predicted-simple point"
        return None

    return Job(label, run)


def generic_b(rng, denominators) -> F:
    """A b off every integrality edge: (l+1)b is never an integer."""
    den = rng.choice(denominators)
    num = rng.choice([k for k in range(1, 10) if k % den])
    return F(rng.choice((1, -1)) * num, den)


def search(rng) -> list[Job]:
    jobs = []
    # Per rank one integer edge b and one generic b, over every S.  At l = 1,
    # b = 1 makes FULL non-simple and b = -2 makes {} non-simple (principal
    # witnesses); at l = 2, b = 1/3 and b = -4/3 do the same with a dim-3
    # quotient certificate.  maxdeg is fixed so that the cost of a point does
    # not follow the seeded b.
    # Quotient scans of simple points cover sl_2 dims up to 13 and sl_3 dims up
    # to 10, except the generic l = 2 point with S = {} whose scan reaches sl_3
    # dim 28 (the next sl_3 dimension is 35).  The bounds are fixed, not
    # seeded: the cost of a scan grows steeply with its bound.
    grid = [(1, rng.choice((F(1), F(-2))), False), (1, generic_b(rng, (3, 5, 7)), True),
            (2, rng.choice((F(1, 3), F(-4, 3))), False), (2, generic_b(rng, (5, 7)), True)]
    for l, b, generic in grid:
        patterns = [frozenset(s) for k in range(l + 2)
                    for s in itertools.combinations(range(1, l + 2), k)]
        for k, S in enumerate(patterns):
            spec = make_spec("A", l, "toroidal", 1, (F(2),), None, (F(1),) * l, b, S)
            if l == 1:
                bound = 13
            else:
                bound = 32 if generic and not S else 10
            w = random_poly(rng, l, 1, max_deg=2, max_terms=3)
            jobs.append(grid_job(f"A{l} b={b} S={sorted(S)} dim<={bound}", spec, 6,
                                 bound, w))
    for S in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
        spec = make_spec("C", 2, "toroidal", 1, (F(2),), None, (F(1), F(1)), 0, S)
        w = random_poly(rng, 2, 1, max_deg=2, max_terms=3)
        jobs.append(grid_job(f"C2 S={sorted(S)}", spec, 6, 8, w))
    return jobs


# -- blackbox: recovery, defect attribution and isomorphism through oracles ----

SHAPES = [("A", 1, "finite", 1), ("A", 2, "finite", 2), ("C", 2, "finite", 1),
          ("A", 1, "toroidal", 1), ("A", 2, "toroidal", 1), ("C", 2, "toroidal", 1),
          ("A", 1, "full", 1), ("A", 2, "full", 1), ("C", 2, "full", 1),
          ("A", 0, "witt", 2)]

HEIGHTS = {
    "small": lambda r: rat(r, 9, 4),
    "1e8": lambda r: huge(r, 8),
    "1e20": lambda r: huge(r, 20),
}


def window_for(spec: ModuleSpec):
    if spec.algebra.variant == "finite":
        return None
    return W3 if spec.algebra.loop_vars == 1 else W2D


def recover_job(label: str, spec: ModuleSpec, seed: int, polys: list[Poly],
                defect: str | None = None) -> Job:
    window = window_for(spec)

    def run():
        oracle = C.oracle_from_spec(spec)
        rec = C.recover_parameters(oracle, window, seed=seed)
        if rec.lam != spec.lam or rec.witt_a != spec.witt_a:
            return "recovered lambda or witt_a differs"
        rebuilt = C.build_spec_from_recovery(rec, oracle)
        for gen in R.generators_for(spec, window or [()]):
            for p in polys:
                if oracle.eval(gen, p) != R.act(rebuilt, gen, p):
                    return f"rebuilt action differs at {gen.text()}"
        return None

    return Job(label, run, defect)


def defect_job(label: str, spec: ModuleSpec, kind: str, violated: str) -> Job:
    def run():
        bad = C.inject_defect(C.oracle_from_spec(spec), kind)
        try:
            C.recover_parameters(bad, W3)
        except ClassificationError as exc:
            if exc.violated != violated:
                return f"violated {exc.violated}, expected {violated}"
            return None
        return "defective oracle recovered without error"

    return Job(label, run)


def defective_compat_job(label: str, spec: ModuleSpec, kind: str, seed: int) -> Job:
    def run():
        bad = C.inject_defect(C.oracle_from_spec(spec), kind)
        report = V.bracket_compat_check(spec, W2, samples=2, seed=seed,
                                        action=lambda s, g, p: bad.eval(g, p))
        return "bracket_compat passed on a defective oracle" if report.passed else None

    return Job(label, run)


def iso_job(label: str, s1: ModuleSpec, s2: ModuleSpec, expected: bool,
            defect: str | None = None) -> Job:
    def run():
        got = C.iso_test(s1, s2)
        return None if got == expected else f"iso_test returned {got}, expected {expected}"

    return Job(label, run, defect)


def perturb(spec: ModuleSpec, field: str) -> ModuleSpec:
    p = dict(lam=spec.lam, witt_a=spec.witt_a, base_a=spec.base_a, base_b=spec.base_b,
             S=spec.S)
    l, n = spec.ranks
    if field == "lam":
        p["lam"] = (spec.lam[0] * 2,) + spec.lam[1:]
    elif field == "witt_a":
        p["witt_a"] = spec.witt_a + 1
    elif field == "base_a":
        p["base_a"] = (spec.base_a[0] * 2,) + spec.base_a[1:]
    elif field == "base_b":
        p["base_b"] = spec.base_b + Poly.const(l, n, 1)
    else:
        p["S"] = spec.S ^ {1}
    return ModuleSpec(algebra=spec.algebra, **p)


def blackbox(rng) -> list[Job]:
    # The seed draws every spec and the round-trip polynomials.  The sampling
    # seeds handed to recover_parameters and bracket_compat_check are fixed
    # per job, as in axioms, so that the cost of a job does not follow them.
    jobs = []
    small = HEIGHTS["small"]
    for k, (family, rank, variant, n) in enumerate(SHAPES):
        for hname, height in HEIGHTS.items():
            b = None
            S = subset(rng, rank + 1) if family == "A" and rank else None
            if variant == "finite" and n == 2:
                b = Poly(rank, n, {(0, 0, 2, 0): height(rng), (0, 0, 0, 1): small(rng)})
            elif rank == 1 and S is not None and len(S) == 1:
                # l = 1 mixed S at large height is the isqrt defect; its own jobs below
                b = small(rng)
            spec = random_spec(rng, family, rank, variant, n, height=height, b=b, S=S)
            l, nn = spec.ranks
            polys = [random_poly(rng, l, nn) for _ in range(2)]
            jobs.append(recover_job(f"recover {family}{rank}-{variant} n={n} {hname}",
                                    spec, k, polys))
    for b, defect in ((F(10**18 + 1, 7), "isqrt-float-precision"),
                      (F(10**200 + 1, 3), "isqrt-float-overflow")):
        spec = random_spec(rng, "A", 1, "toroidal", b=b, S={1})
        polys = [random_poly(rng, 1, 1) for _ in range(2)]
        jobs.append(recover_job(f"recover A1 S={{1}} b~{float(b):.0e}", spec, 0, polys,
                                defect))
    base = random_spec(rng, "A", 2, "toroidal", S={1})
    for kind, violated in (("center", "center-annihilation"),
                           ("loop-scaling", "loop-scaling"),
                           ("lambda-mismatch", "shift-scalar-consistency")):
        jobs.append(defect_job(f"defect {kind}", base, kind, violated))
    for k, kind in enumerate(("center", "loop-scaling")):
        jobs.append(defective_compat_job(f"bracket_compat on {kind} defect", base, kind, k))
    for family, rank, variant, n in SHAPES[3:7]:
        spec = random_spec(rng, family, rank, variant, n)
        twin = R.spec_from_json(R.spec_to_json(spec))
        jobs.append(iso_job(f"iso identical {family}{rank}-{variant}", spec, twin, True))
    for variant in ("toroidal", "full"):
        # M(a, b, FULL) and M(-a, -b-1, {}) are literally equal at l = 1
        spec = random_spec(rng, "A", 1, variant, b=small(rng), S={1, 2})
        flip = make_spec("A", 1, variant, 1, spec.lam, spec.witt_a, (-spec.base_a[0],),
                         -spec.base_b.as_scalar() - 1, (), spec.algebra.cocycle)
        jobs.append(iso_job(f"iso flip {variant} FULL/{{}}", spec, flip, True,
                            "iso-raw-parameters"))
        # mixed S: b and -b-1 give the same action (b = -1/2 would make the pair identical)
        S = rng.choice(({1}, {2}))
        b = small(rng)
        while b == F(-1, 2):
            b = small(rng)
        spec = random_spec(rng, "A", 1, variant, b=b, S=S)
        flip = make_spec("A", 1, variant, 1, spec.lam, spec.witt_a, spec.base_a,
                         -spec.base_b.as_scalar() - 1, S, spec.algebra.cocycle)
        jobs.append(iso_job(f"iso flip {variant} S={sorted(S)} b/-b-1", spec, flip, True,
                            "iso-raw-parameters"))
    # b stays off -1 and -1/2, where b + 1 or a flip could coincide with -b-1
    base = random_spec(rng, "A", 1, "full", b=F(rng.randint(1, 9), rng.randint(1, 4)),
                       S={1, 2})
    for field in ("lam", "witt_a", "base_a", "base_b", "S"):
        jobs.append(iso_job(f"iso perturbed {field}", base, perturb(base, field), False))
    return jobs
