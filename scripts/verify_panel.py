#!/usr/bin/env python3
"""Run every property suite across a panel of representative module specs.

Emits one JSON line per (spec, suite) pair and a final summary; exits 1 if
any suite fails.  Wall-times go to stderr so the JSON stream stays
deterministic for a fixed seed.

Usage: python scripts/verify_panel.py [--samples 10] [--seed 0]
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from torofree.algebras import AlgebraDesc, degree_box
from torofree.polyalg import Poly
from torofree.repmods import ModuleSpec, spec_to_json
from torofree.verify import suite_for_spec

F = Fraction


def panel() -> list[ModuleSpec]:
    def spec(family, l, n, variant, cocycle=(0, 0), lam=(), witt_a=None,
             a=None, b=0, S=()):
        desc = AlgebraDesc(family, l, n, variant,
                           (Fraction(cocycle[0]), Fraction(cocycle[1])))
        if variant == "witt":
            return ModuleSpec(algebra=desc, lam=lam, witt_a=witt_a)
        return ModuleSpec(
            algebra=desc, lam=lam, witt_a=witt_a,
            base_a=a or tuple(F(1) for _ in range(l)),
            base_b=Poly.const(l, n, F(b)), S=frozenset(S),
        )

    return [
        spec("A", 1, 0, "finite", a=(F(2),), b=3, S={1}),
        spec("A", 1, 1, "toroidal", lam=(F(5),), a=(F(2),), b=3, S={1}),
        spec("A", 2, 1, "toroidal", lam=(F(3),), a=(F(2), F(-1)), b=F(1, 3)),
        spec("A", 1, 2, "full", cocycle=(1, 0), lam=(F(3), F(4)), witt_a=F(5),
             a=(F(2),), b=3, S={1}),
        spec("C", 2, 1, "toroidal", lam=(F(2),), a=(F(3), F(-2)), S={1}),
        spec("C", 2, 1, "full", cocycle=(2, -3), lam=(F(2),), witt_a=F(0),
             a=(F(1), F(1)), S={1, 2}),
        spec("A", 0, 2, "witt", lam=(F(2), F(-3)), witt_a=F(-1)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    failures = 0
    for spec in panel():
        n = spec.algebra.loop_vars
        window = degree_box(n, -1, 1) if spec.algebra.variant != "finite" else None
        t0 = time.time()
        reports = suite_for_spec(spec, window, args.samples, args.seed)
        print(f"# {spec.algebra.family}{spec.algebra.rank} "
              f"{spec.algebra.variant} in {time.time() - t0:.1f}s",
              file=sys.stderr)
        for rep in reports:
            failures += not rep.passed
            print(json.dumps(
                {"spec": spec_to_json(spec), **rep.to_dict()},
                sort_keys=True, separators=(",", ":"),
            ))
    print(json.dumps({"summary": "fail" if failures else "pass",
                      "failed_suites": failures},
                     sort_keys=True, separators=(",", ":")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
