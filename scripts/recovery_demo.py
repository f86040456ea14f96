#!/usr/bin/env python3
"""Round-trip demo: build a module, hide it behind the action oracle, recover
its parameters, and show what a defective module looks like to the verifier.

Usage: python scripts/recovery_demo.py
"""

import json
from fractions import Fraction

from torofree import recovery
from torofree.algebras import AlgebraDesc, degree_box
from torofree.errors import ClassificationError
from torofree.polyalg import Poly
from torofree.repmods import ModuleSpec, spec_to_json

F = Fraction


def main() -> None:
    spec = ModuleSpec(
        algebra=AlgebraDesc("A", 2, 1, "full", (F(1), F(0))),
        lam=(F(-3),),
        witt_a=F(5),
        base_a=(F(2), F(1, 3)),
        base_b=Poly.const(2, 1, F(1, 3)),
        S=frozenset({1, 3}),
    )
    window = degree_box(1, -2, 2)
    print("constructed spec:")
    print(json.dumps(spec_to_json(spec), indent=2, sort_keys=True))

    oracle = recovery.oracle_from_spec(spec)
    rec = recovery.recover_parameters(oracle, window)
    print("\nrecovered from the black-box action:")
    print(json.dumps(rec.to_dict(), indent=2, sort_keys=True))

    rebuilt = recovery.build_spec_from_recovery(rec, oracle)
    # the cocycle coefficients are not recoverable: the center acts by zero,
    # so the module determines every field except algebra.cocycle
    fields = lambda s: (s.lam, s.witt_a, s.base_a, s.base_b, s.S)
    print("\nround trip exact on recoverable fields:", fields(rebuilt) == fields(spec))

    print("\ninjecting defects:")
    for defect in ("center", "loop-scaling", "lambda-mismatch"):
        bad = recovery.inject_defect(oracle, defect)
        try:
            recovery.recover_parameters(bad, window)
            print(f"  {defect}: NOT DETECTED (bug!)")
        except ClassificationError as exc:
            print(f"  {defect}: rejected, violated = {exc.violated}")


if __name__ == "__main__":
    main()
