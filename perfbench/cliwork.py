"""Seeded commands and output checks for the cli workload.

The eight commands are the ones the CLI acceptance criterion runs, on specs
drawn from the seed and written as JSON files.  Each command runs twice in a
row as its own subprocess; the second run must print the same bytes as the
first.  This module imports nothing from torofree: the program sees only the
spec files and the command line.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

FORMULA_MARK = "-(A - 3/4)(A - 1/4)"


class CliJob:
    __slots__ = ("label", "args", "check", "first")

    def __init__(self, label: str, args: list[str], check, first: "CliJob | None" = None):
        self.label = label
        self.args = args
        self.check = check
        self.first = first  # the earlier run whose stdout this one must repeat


def _rat(rng, num_max: int, den_max: int, nonzero: bool = True) -> str:
    while True:
        x = F(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if x or not nonzero:
            return str(x)


def build(seed: int, tmpdir: str) -> list[CliJob]:
    rng = random.Random(f"cli:{seed}")
    full = {
        "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "full",
                    "cocycle": [rng.randint(-3, 3), rng.randint(-3, 3)]},
        "lambda": [_rat(rng, 5, 3)],
        "witt_a": _rat(rng, 5, 3, nonzero=False),
        "base_a": [_rat(rng, 5, 3)],
        "base_b": _rat(rng, 5, 3, nonzero=False),
        "S": rng.choice(([1], [2])),
    }
    nonsimple = {
        "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "toroidal"},
        "lambda": [_rat(rng, 5, 3)],
        "base_a": [_rat(rng, 5, 3)],
        "base_b": str(rng.randint(0, 1)),
        "S": [1, 2],
    }
    spec = str(Path(tmpdir) / f"spec-{seed}.json")
    ns = str(Path(tmpdir) / f"ns-{seed}.json")
    Path(spec).write_text(json.dumps(full))
    Path(ns).write_text(json.dumps(nonsimple))
    gen = f"{rng.choice('xyhD')}1({rng.randint(-2, 2)})"
    poly = f"{rng.randint(1, 5)}*d1^{rng.randint(1, 3)}*H1^{rng.randint(1, 3)} + {rng.randint(1, 9)}"

    def recovered(out):
        rec = out.get("recovered")
        if not rec:
            return f"no recovery: {out.get('violated')}"
        if rec["lambda"] != full["lambda"] or rec["witt_a"] != full["witt_a"]:
            return "recovered lambda or witt_a differs"
        return None

    commands = [
        (["act", "--spec", spec, "--gen", gen, "--poly", poly],
         lambda out: None if isinstance(out.get("result"), str) else "no result"),
        (["verify", "--spec", spec, "--samples", "3", "--window=-1:1",
          "--seed", str(rng.randrange(1000))],
         lambda out: None if out["all_passed"] is True else "a suite failed"),
        (["simplicity", "--spec", spec],
         lambda out: None if out["simple"] is True else "mixed-S module reported non-simple"),
        (["witness", "--spec", ns, "--maxdeg", "4", "--window=-1:1"],
         lambda out: None if out["report"]["found"] and out["report"]["verified"]
         else "no verified witness for a non-simple module"),
        (["recover", "--spec", spec, "--window=-1:1", "--seed", str(rng.randrange(1000))],
         recovered),
        (["iso", "--spec", spec, "--spec2", spec],
         lambda out: None if out["isomorphic"] is True else "spec not isomorphic to itself"),
        (["lemma-pa", "--samples", "25", "--seed", str(rng.randrange(1000))],
         lambda out: None if out["report"]["passed"] is True else "lemma-pa failed"),
        (["formulas", "--rank", "2"],
         lambda out: None if FORMULA_MARK in out["text"] else "resolved formula missing"),
    ]
    rng.shuffle(commands)
    jobs = []
    for args, check in commands:
        first = CliJob(f"{args[0]} run 1", args, check)
        jobs += [first, CliJob(f"{args[0]} run 2", args, check, first)]
    return jobs


def check_output(job: CliJob, returncode: int, stdout: bytes, outputs: dict) -> str | None:
    """Failure reason for one finished command, or None; records stdout for the rerun."""
    outputs[id(job)] = stdout
    if returncode != 0:
        return f"exit code {returncode}"
    if job.first is not None and outputs.get(id(job.first)) != stdout:
        return "rerun stdout differs"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return job.check(out)
