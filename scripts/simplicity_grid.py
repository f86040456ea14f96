#!/usr/bin/env python3
"""Sweep the A-family simplicity grid and tabulate prediction vs. search.

For every (l, b, S) on the grid the script prints the predicted verdict, the
witness-search outcome (principal polynomial or finite-quotient certificate),
and, for predicted-simple points, whether cyclicity succeeds from seeded
random elements.  Exits nonzero on any disagreement.

Usage: python scripts/simplicity_grid.py [--seeds 3] [--lmax {1,2,3}]  (default 2)
"""

import argparse
import itertools
import random
import sys
import time
from fractions import Fraction

from torofree import search
from torofree.algebras import AlgebraDesc, degree_box
from torofree.checks import random_poly
from torofree.polyalg import Poly
from torofree.repmods import ModuleSpec, simplicity_predict

WINDOW = degree_box(1, -2, 2)


def grid_point(l: int, b: Fraction, S) -> ModuleSpec:
    return ModuleSpec(
        algebra=AlgebraDesc("A", l, 1, "toroidal"),
        lam=(Fraction(2),),
        base_a=tuple(Fraction(1) for _ in range(l)),
        base_b=Poly.const(l, 1, b),
        S=frozenset(S),
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--lmax", type=int, default=2, choices=(1, 2, 3))
    args = ap.parse_args()

    bad = 0
    print(f"{'l':>2} {'b':>4} {'S':<10} {'predict':<8} {'search':<34} cyclic")
    for l in range(1, args.lmax + 1):
        subsets = [
            s for k in range(l + 2) for s in itertools.combinations(range(1, l + 2), k)
        ]
        for b in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)):
            maxdeg = int(2 * (l + 1) * b) + 2
            for S in subsets:
                spec = grid_point(l, b, S)
                simple = simplicity_predict(spec)
                t0 = time.time()
                rep = search.submodule_witness_search(spec, maxdeg, WINDOW)
                if rep.witness is not None:
                    what = f"witness {rep.witness.text()}"
                elif rep.quotient_cert is not None:
                    qc = rep.quotient_cert
                    what = f"quotient dim={qc.dim} weights={qc.weights}"
                else:
                    what = "none"
                cyc = "-"
                if simple:
                    oks = []
                    for s in range(args.seeds):
                        w = random_poly(random.Random(1000 * l + s), l, 1,
                                        max_total_deg=2, max_terms=3)
                        oks.append(search.cyclicity_check(spec, w, 12))
                    cyc = "yes" if all(oks) else "FAILED"
                agree = simple == (not rep.found) and (cyc != "FAILED")
                if not agree:
                    bad += 1
                sname = "{" + ",".join(map(str, S)) + "}"
                verdict = "simple" if simple else "not"
                flag = "" if agree else "   <-- DISAGREES"
                print(f"{l:>2} {str(b):>4} {sname:<10} {verdict:<8} {what:<34} "
                      f"{cyc}{flag}  ({time.time() - t0:.1f}s)")
    if bad:
        print(f"\n{bad} grid points disagree")
        return 1
    print("\nall grid points agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
