"""Acceptance suite: one test per criterion, exact comparisons throughout.

Every check here is property-based and exact (no tolerances anywhere); each
test prints a single PASS line once its criterion holds at the stated bounds.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import mk_spec, src_env
from torofree import classify as C, repmods as R, verify as V
from torofree.errors import ClassificationError
from torofree.liealg import AlgebraDesc, degree_box
from torofree.polyalg import Poly
from torofree.repmods import spec_to_json
from torofree.verify import random_poly

F = Fraction
WIN1 = degree_box(1, -2, 2)


def _line(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


COCYCLES = [(F(1), F(0)), (F(0), F(1)), (F(2), F(-3))]
LIE_CONFIGS = [("A", 1, 1), ("A", 2, 1), ("A", 1, 2), ("C", 2, 1)]


def test_criterion_1_lie_axiom_suite():
    """Antisymmetry + Jacobi, exhaustive over basis triples, degrees {-1,0,1}^n."""
    for family, l, n in LIE_CONFIGS:
        window = degree_box(n, -1, 1)
        report = V.jacobi_check(AlgebraDesc(family, l, n, "toroidal"), window)
        assert report.passed, (family, l, n, "toroidal", report.failures[:1])
        for cc in COCYCLES:
            report = V.jacobi_check(AlgebraDesc(family, l, n, "full", cc), window)
            assert report.passed, (family, l, n, "full", cc, report.failures[:1])
    _line(1, "lie-axiom suite (4 algebras x {toroidal, full x 3 cocycles})")


def _module_axiom_panel():
    return [
        mk_spec(rank=1, base_a=(2,), base_b=F(1, 3), S=()),
        mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(5,),
                base_a=(2,), base_b=3, S={1}),
        mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(2, -3), lam=(2,),
                witt_a=1, base_a=(2,), base_b=1, S={1, 2}),
        mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(3,),
                base_a=(2, -1), base_b=F(1, 3), S=()),
        mk_spec(rank=2, loop_vars=1, variant="full", cocycle=(1, 0), lam=(2,),
                witt_a=0, base_a=(1, 1), base_b=2, S={1}),
        mk_spec(family="C", rank=2, base_a=(1, 1), S={1, 2}),
        mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal", lam=(2,),
                base_a=(3, -2), S={1}),
        mk_spec(family="C", rank=2, loop_vars=1, variant="full", cocycle=(0, 1),
                lam=(2,), witt_a=5, base_a=(1, 1), S=()),
    ]


def test_criterion_2_module_axiom_suite():
    """bracket_compat over {-2..2}^n with 20 random polynomials per pair,
    plus the graded-center identity via [x_i(e_j), y_i(a-e_j)] - coroot_i(a)."""
    panel = _module_axiom_panel()
    assert len(panel) >= 8
    for spec in panel:
        window = None if spec.algebra.variant == "finite" else WIN1
        report = V.bracket_compat_check(spec, window, samples=20, seed=11)
        assert report.passed, (spec.algebra, report.failures[:1])
        if spec.algebra.variant in ("toroidal", "full"):
            central = V.central_identity_check(spec, WIN1)
            assert central.passed and central.cases_run == len(WIN1) * spec.algebra.rank
    _line(2, "module-axiom suite (8 specs incl. graded-center identity)")


def test_criterion_3_shift_difference_degrees():
    report = V.lemma_pa_property(samples=200, ranks=(2, 1), seed=23)
    assert report.passed and report.cases_run == 200 * 16
    _line(3, "shift-difference degree identities (200 random polynomials)")


def test_criterion_4_degree_reduction():
    for n, spec in (
        (1, mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(5,),
                    base_a=(2,), base_b=3, S={1})),
        (2, mk_spec(rank=1, loop_vars=2, variant="full", lam=(5, 3), witt_a=0,
                    base_a=(2,), base_b=3, S={1})),
    ):
        report = V.degree_reduction_check(spec, samples=100, seed=31)
        assert report.passed and report.cases_run == 100 * n
    _line(4, "degree reduction (100 polynomials per n in {1,2} per d-variable)")


def test_criterion_5_simplicity_grid():
    """Prediction agrees with the searches on the full A grid; C finds nothing."""
    mism = []
    for l in (1, 2):
        subsets = [frozenset(s) for k in range(l + 2)
                   for s in itertools.combinations(range(1, l + 2), k)]
        for b in (F(0), F(1, 3), F(1), F(2)):
            maxdeg = int(2 * (l + 1) * b) + 2
            for S in subsets:
                spec = mk_spec(rank=l, loop_vars=1, variant="toroidal", lam=(2,),
                               base_b=b, S=S)
                predicted_simple = C.simplicity_predict(spec)
                report = C.submodule_witness_search(spec, maxdeg, WIN1)
                if predicted_simple == report.found or (report.found and not report.verified):
                    mism.append((l, str(b), sorted(S), predicted_simple, report.found))
                    continue
                if predicted_simple:
                    for s in range(5):
                        w = random_poly(random.Random(1000 * l + 10 * s), l, 1,
                                        max_total_deg=2, max_terms=3)
                        if not C.cyclicity_check(spec, w, max_word_len=12,
                                                 loop_window=WIN1):
                            mism.append((l, str(b), sorted(S), "cyclicity", s))
    for S in [frozenset(s) for k in range(3) for s in itertools.combinations((1, 2), k)]:
        spec = mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                       lam=(2,), S=S)
        assert C.simplicity_predict(spec)
        if C.submodule_witness_search(spec, 6, WIN1).found:
            mism.append(("C2", sorted(S), "unexpected witness"))
    assert not mism, mism
    _line(5, "simplicity grid (predictions = witness/cyclicity outcomes, 52 points)")


def _recovery_panel():
    specs = []
    # l = 2 toroidal: lambda sign mix, b scalar variety, edge and mixed S
    for lam, b, S in [
        ((2,), F(0), ()), ((-3,), F(1, 3), (1,)), ((F(5, 2),), F(1), (1, 2, 3)),
        ((2,), F(-2), (2,)), ((-2,), F(5, 3), (1, 3)), ((7,), F(2), (3,)),
        ((F(-1, 2),), F(0), (2, 3)), ((3,), F(-1, 2), (1, 2)),
    ]:
        specs.append(mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=lam,
                             base_a=(2, F(-1, 3)), base_b=b, S=S))
    # l = 1 canonical forms: edge pattern in its empty-S parametrization,
    # mixed S with b on the canonical side of the b <-> -b-1 identification
    for lam, b, S in [
        ((2,), F(1), ()), ((-5,), F(-3), ()), ((F(3, 4),), F(-1), ()),
        ((2,), F(-2), (1,)), ((3,), F(-1, 2), (2,)), ((-1,), F(-4), (1,)),
    ]:
        specs.append(mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=lam,
                             base_a=(F(7, 2),), base_b=b, S=S))
    # full variant: witt_a in {-1, 0, 5}
    for witt_a, lam in [(F(-1), (2, 3)), (F(0), (-2, 5)), (F(5), (F(1, 2), -1))]:
        specs.append(mk_spec(rank=2, loop_vars=2, variant="full", lam=lam,
                             witt_a=witt_a, base_a=(1, 2), base_b=F(1, 3), S=(2,)))
    # C family over all S
    for S in [(), (1,), (2,), (1, 2)]:
        specs.append(mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                             lam=(F(-7, 2),), base_a=(3, -2), S=S))
    # finite variant with b a d-polynomial
    for btxt, S in [("3*d1^2 - 1/2*d2", (2,)), ("d1*d2 + 2", (1, 3)),
                    ("-d2^3", (1, 2)), ("5", (3,))]:
        specs.append(mk_spec(rank=2, loop_vars=2, variant="finite",
                             base_a=(2, 5), base_b=Poly.parse(btxt, 2, 2), S=S))
    # witt variant
    for lam, witt_a in [((2,), F(-1)), ((-3,), F(0)), ((F(2, 7),), F(5))]:
        specs.append(mk_spec(rank=0, loop_vars=1, variant="witt", lam=lam,
                             witt_a=witt_a))
    # pad with a lambda sweep to pass 50
    for k in range(2, 24):
        specs.append(mk_spec(rank=1, loop_vars=1, variant="toroidal",
                             lam=(F((-1) ** k * k, k + 1),), base_a=(F(k),),
                             base_b=F(-k), S=()))
    return specs


def test_criterion_6_recovery_round_trip():
    specs = _recovery_panel()
    assert len(specs) >= 50
    for spec in specs:
        n = spec.algebra.loop_vars
        window = degree_box(n, -2, 2) if spec.algebra.variant != "finite" else None
        oracle = C.oracle_from_spec(spec)
        rec = C.recover_parameters(oracle, window)
        assert rec.lam == spec.lam, spec_to_json(spec)
        assert rec.witt_a == spec.witt_a
        if spec.algebra.variant == "witt":
            continue
        assert rec.family == spec.algebra.family
        assert rec.S == spec.S, (spec_to_json(spec), rec.to_dict())
        assert rec.base_a == spec.base_a
        assert rec.base_b == spec.base_b
        xs, ys = R.base_action_polys(spec)
        assert rec.x_polys == xs and rec.y_polys == ys
        if spec.algebra.variant in ("toroidal", "full"):
            assert C.check_assertion_A(oracle, window).passed
            assert C.check_assertion_B(oracle, window, spec.lam).passed
    base = mk_spec(rank=2, loop_vars=1, variant="toroidal", lam=(3,),
                   base_a=(2, 1), base_b=1, S={1})
    for defect, violated in [
        ("center", "center-annihilation"),
        ("loop-scaling", "loop-scaling"),
        ("lambda-mismatch", "shift-scalar-consistency"),
    ]:
        bad = C.inject_defect(C.oracle_from_spec(base), defect)
        with pytest.raises(ClassificationError) as err:
            C.recover_parameters(bad, degree_box(1, -2, 2))
        assert err.value.violated == violated
    _line(6, f"recovery round-trip ({len(specs)} specs + 3 attributed defects)")


def test_criterion_7_isomorphism_grid():
    lams = [(F(2),), (F(-3),), (F(1, 2),)]
    witt_as = [F(0), F(5)]
    base_as = [(F(1),), (F(2),)]
    bs = [F(0), F(1, 3), F(-2)]
    Ss = [frozenset(), frozenset({1})]
    grid = []
    for lam, wa, a, b, S in itertools.product(lams, witt_as, base_as, bs, Ss):
        grid.append(mk_spec(rank=1, loop_vars=1, variant="full", lam=lam,
                            witt_a=wa, base_a=a, base_b=b, S=S))
    for lam, a, b, S in itertools.product(lams, base_as, bs, Ss):
        grid.append(mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=lam,
                            base_a=a, base_b=b, S=S))
    for lam, a, S in itertools.product(lams, [(F(1), F(1)), (F(2), F(-1))],
                                       [frozenset(), frozenset({2})]):
        grid.append(mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal",
                            lam=lam, base_a=a, S=S))
    assert len(grid) >= 100
    def key(s):
        return (s.lam, s.witt_a, s.base_a, s.base_b.text(), tuple(sorted(s.S)),
                s.algebra.family, s.algebra.variant)
    for s1 in grid:
        for s2 in grid:
            a1, a2 = s1.algebra, s2.algebra
            if (a1.family, a1.rank, a1.loop_vars, a1.variant) != (
                    a2.family, a2.rank, a2.loop_vars, a2.variant):
                continue
            assert C.iso_test(s1, s2) == (key(s1) == key(s2))
    # single-field perturbations flip the verdict
    base = mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                   base_a=(2,), base_b=3, S={1})
    perturbed = [
        mk_spec(rank=1, loop_vars=1, variant="full", lam=(3,), witt_a=0,
                base_a=(2,), base_b=3, S={1}),
        mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=1,
                base_a=(2,), base_b=3, S={1}),
        mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                base_a=(5,), base_b=3, S={1}),
        mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                base_a=(2,), base_b=4, S={1}),
        mk_spec(rank=1, loop_vars=1, variant="full", lam=(2,), witt_a=0,
                base_a=(2,), base_b=3, S={1, 2}),
    ]
    assert C.iso_test(base, base)
    for other in perturbed:
        assert not C.iso_test(base, other)
    _line(7, f"isomorphism grid ({len(grid)} specs, single-field perturbations flip)")


def test_criterion_8_c_family_resolution(tmp_path):
    # the resolved formulas make every sp_4 pattern bracket-compatible, exactly
    for S in [(), (1,), (2,), (1, 2)]:
        fin = mk_spec(family="C", rank=2, base_a=(1, 1), S=S)
        assert V.bracket_compat_check(fin, samples=20, seed=8).passed
    tor = mk_spec(family="C", rank=2, loop_vars=1, variant="toroidal", lam=(2,),
                  base_a=(3, -2), S={1})
    assert V.bracket_compat_check(tor, degree_box(1, -1, 1), samples=20, seed=8).passed
    # the resolution is emitted into docs by a CLI command (audit trail)
    doc = tmp_path / "c_family_resolution.md"
    proc = subprocess.run(
        [sys.executable, "-m", "torofree.cli", "formulas", "--rank", "2",
         "--doc", str(doc)],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    text = doc.read_text()
    assert "-(A - 3/4)(A - 1/4)" in text and "(u_k + 1/2)" in text
    import pathlib
    committed = pathlib.Path(__file__).resolve().parents[1] / "docs" / "c_family_resolution.md"
    assert committed.read_text() == text, "committed resolution doc is stale"
    _line(8, "C-family resolution (sp_4 suites exact + auditable doc emission)")


def test_criterion_9_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec = mk_spec(rank=1, loop_vars=1, variant="full", cocycle=(1, 0), lam=(2,),
                   witt_a=0, base_a=(2,), base_b=3, S={1})
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    nonsimple = tmp_path / "ns.json"
    nonsimple.write_text(json.dumps(spec_to_json(
        mk_spec(rank=1, loop_vars=1, variant="toroidal", lam=(2,), base_b=1,
                S={1, 2}))))
    commands = [
        ["act", "--spec", str(spec_path), "--gen", "x1(2)", "--poly", "d1*H1"],
        ["verify", "--spec", str(spec_path), "--samples", "3", "--window=-1:1",
         "--seed", "7"],
        ["simplicity", "--spec", str(spec_path)],
        ["witness", "--spec", str(nonsimple), "--maxdeg", "4", "--window=-1:1"],
        ["recover", "--spec", str(spec_path), "--window=-1:1", "--seed", "3"],
        ["iso", "--spec", str(spec_path), "--spec2", str(spec_path)],
        ["lemma-pa", "--samples", "25", "--seed", "13"],
        ["formulas", "--rank", "2"],
    ]
    for cmd in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "torofree.cli", *cmd],
                capture_output=True, env=src_env(),
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"non-deterministic output for {cmd[0]}"
    _line(9, "CLI determinism (byte-identical reruns across 8 commands)")
