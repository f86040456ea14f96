"""Command-line frontend: parse specs, run actions/suites/searches, emit JSON.

Every command writes canonical JSON (sorted keys, compact separators) so that
a rerun with the same configuration and seed is byte-identical; --pretty adds
an indented human-readable rendering on stdout without changing the canonical
bytes written to --out.  Exit status: 0 success/pass, 1 check failure,
2 usage or validation error.

Each command imports the torofree modules it runs, as its first statement,
and nothing else:

* ``act``, ``formulas``, ``simplicity`` and ``iso`` load ``repmods`` and
  what it imports (``algebras``, ``polyalg``, ``errors``), and no Lie
  bracket (``liealg``), ``verify``, ``search`` or ``recovery``;
* ``witness`` adds ``search``, and ``recover`` adds ``recovery`` and
  ``checks``; neither loads ``liealg`` or ``verify``;
* ``verify`` and ``lemma-pa`` load ``verify``, ``liealg`` and ``checks``,
  and no ``search`` or ``recovery``.

Only ``errors`` is imported at module level, because what a process imports
first also sets where its heap lies and so its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ClassificationError, DomainError, StructureError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing
if TYPE_CHECKING:
    from .repmods import ModuleSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# the most loop degrees a --window box {lo..hi}^n may hold
MAX_WINDOW_DEGREES = 10_000


def _default_seed() -> int:
    env = os.environ.get("TOROFREE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise StructureError(f"TOROFREE_SEED must be an integer, got {env!r}")


def _load_spec(path: str) -> ModuleSpec:
    from .repmods import spec_from_json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StructureError(f"cannot read spec file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise StructureError(f"spec file {path} is not valid JSON: {exc}")
    return spec_from_json(data)


def _parse_window(text: str, n: int) -> list[tuple[int, ...]]:
    """The box {lo..hi}^n of a 'lo:hi' window, refused unless it holds at
    most MAX_WINDOW_DEGREES loop degrees (counted before it is built)."""
    from .algebras import degree_box

    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise StructureError(f"window must look like '-2:2', got {text!r}")
    if lo_i > hi_i:
        raise StructureError(f"empty window {text!r}")
    if (hi_i - lo_i + 1) ** n > MAX_WINDOW_DEGREES:
        raise StructureError(
            f"window {text!r} holds more than {MAX_WINDOW_DEGREES} loop degrees "
            f"in {n} loop variables"
        )
    return degree_box(n, lo_i, hi_i)


def _write(path: str, text: str, parents: bool = False) -> None:
    """Write text to path (making its directories if asked); a path that
    cannot be written is a usage error."""
    try:
        if parents:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StructureError(f"cannot write {path}: {exc}") from None


def _emit(payload: dict, args) -> None:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    out = getattr(args, "out", None)
    if out:
        _write(out, blob)
    if getattr(args, "pretty", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        if not out:
            return
    elif not out:
        sys.stdout.write(blob)


# -- subcommands ---------------------------------------------------------------


def cmd_act(args) -> int:
    from . import repmods
    from .polyalg import Poly

    spec = _load_spec(args.spec)
    gen = repmods.parse_generator(args.gen, spec.algebra.loop_vars)
    p = Poly.parse(args.poly, *spec.ranks)
    result = repmods.act(spec, gen, p)
    _emit(
        {
            "command": "act",
            "spec": repmods.spec_to_json(spec),
            "generator": gen.text(),
            "input": p.text(),
            "result": result.text(),
        },
        args,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify
    from .repmods import spec_to_json

    spec = _load_spec(args.spec)
    window = None
    if args.window:
        window = _parse_window(args.window, spec.algebra.loop_vars)
    reports = verify.suite_for_spec(spec, window, args.samples, args.seed)
    payload = {
        "command": "verify",
        "spec": spec_to_json(spec),
        "seed": args.seed,
        "samples": args.samples,
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(payload, args)
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def cmd_simplicity(args) -> int:
    from .repmods import simplicity_rule, spec_to_json

    spec = _load_spec(args.spec)
    simple, rule = simplicity_rule(spec)
    _emit(
        {"command": "simplicity", "spec": spec_to_json(spec), "simple": simple, "rule": rule},
        args,
    )
    return EXIT_OK


def cmd_witness(args) -> int:
    from .repmods import spec_to_json
    from .search import submodule_witness_search

    spec = _load_spec(args.spec)
    window = None
    if args.window:
        window = _parse_window(args.window, spec.algebra.loop_vars)
    report = submodule_witness_search(spec, args.maxdeg, window, args.dim_bound)
    _emit(
        {"command": "witness", "spec": spec_to_json(spec), "report": report.to_dict()},
        args,
    )
    return EXIT_OK


def cmd_recover(args) -> int:
    from .recovery import oracle_from_spec, recover_parameters
    from .repmods import spec_to_json

    spec = _load_spec(args.spec)
    oracle = oracle_from_spec(spec)
    window = None
    if args.window:
        window = _parse_window(args.window, spec.algebra.loop_vars)
    try:
        rec = recover_parameters(oracle, window, seed=args.seed)
    except ClassificationError as exc:
        _emit(
            {
                "command": "recover",
                "spec": spec_to_json(spec),
                "recovered": None,
                "violated": exc.violated,
                "details": exc.details,
            },
            args,
        )
        return EXIT_CHECK_FAILED
    _emit(
        {"command": "recover", "spec": spec_to_json(spec), "recovered": rec.to_dict()},
        args,
    )
    return EXIT_OK


def cmd_iso(args) -> int:
    from .repmods import iso_test, spec_to_json

    s1 = _load_spec(args.spec)
    s2 = _load_spec(args.spec2)
    result = iso_test(s1, s2)
    _emit(
        {
            "command": "iso",
            "spec": spec_to_json(s1),
            "spec2": spec_to_json(s2),
            "isomorphic": result,
        },
        args,
    )
    return EXIT_OK


def cmd_lemma_pa(args) -> int:
    from . import verify

    report = verify.lemma_pa_property(
        samples=args.samples, ranks=(args.hvars, args.dvars), seed=args.seed
    )
    _emit({"command": "lemma-pa", "report": report.to_dict()}, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_formulas(args) -> int:
    from . import repmods

    text = repmods.c_family_formula_notes(args.rank)
    if args.doc:
        _write(args.doc, text, parents=True)
    _emit({"command": "formulas", "rank": args.rank, "text": text, "doc": args.doc}, args)
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torofree",
        description="Exact constructions and checks for rank-1 Cartan-free modules "
        "over finite-type, toroidal, Witt and full toroidal Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="module spec JSON file")
        p.add_argument("--out", help="write canonical JSON to this path")
        p.add_argument("--pretty", action="store_true", help="human-readable stdout")
        p.add_argument("--seed", type=int, default=None, help="PRNG seed")

    p = sub.add_parser("act", help="apply one generator to a polynomial")
    common(p)
    p.add_argument("--gen", required=True, help='generator literal, e.g. "x1(2,0)"')
    p.add_argument("--poly", required=True, help='polynomial literal, e.g. "d1*H1"')
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("verify", help="run every property suite for a spec")
    common(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--window", help="loop-degree window 'lo:hi' (default -2:2)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simplicity", help="predict simplicity of the module")
    common(p)
    p.set_defaults(fn=cmd_simplicity)

    p = sub.add_parser("witness", help="search for a non-simplicity certificate")
    common(p)
    p.add_argument("--maxdeg", type=int, default=6)
    p.add_argument("--window", help="loop-degree window 'lo:hi'")
    p.add_argument("--dim-bound", type=int, default=None, dest="dim_bound",
                   help="most points of an invariant point set (the dimension of its "
                        "quotient), 0..search.MAX_DIM_BOUND = 500 (default: grows with --maxdeg)")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("recover", help="recover parameters from the module action")
    common(p)
    p.add_argument("--window", help="loop-degree window 'lo:hi'")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("iso", help="isomorphism test between two specs")
    common(p)
    p.add_argument("--spec2", required=True, help="second module spec JSON file")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("lemma-pa", help="shift-difference degree identity suite")
    common(p, spec=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--hvars", type=int, default=2)
    p.add_argument("--dvars", type=int, default=1)
    p.set_defaults(fn=cmd_lemma_pa)

    p = sub.add_parser(
        "formulas", help="emit the resolved C-family action formulas (audit trail)"
    )
    common(p, spec=False)
    p.add_argument("--rank", type=int, default=2,
                   help="C_l rank, 2..repmods.MAX_FORMULA_RANK = 8 (every S is listed)")
    p.add_argument("--doc", help="also write the plain-text rendering to this file")
    p.set_defaults(fn=cmd_formulas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        return args.fn(args)
    except (StructureError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
