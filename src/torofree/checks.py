"""Check reports and seeded random polynomials, shared by the property
suites (``verify``) and black-box recovery (``recovery``).

This module imports only ``errors`` and ``polyalg``, so recovery reaches
its reports and probes without loading the suites or the Lie bracket.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .errors import DomainError
from .polyalg import MAX_SLOT_EXPONENT, SLOT_BITS, Poly


class CheckReport:
    """Outcome of one suite: exact, deterministic under the recorded seed."""

    def __init__(self, name: str, cases_run: int = 0, failures: list[dict] | None = None,
                 seed: int = 0):
        self.name = name
        self.cases_run = cases_run
        self.failures: list[dict] = [] if failures is None else failures
        self.seed = seed

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, **info):
        self.cases_run += 1
        if not ok:
            self.failures.append({k: str(v) for k, v in info.items()})

    def record_lazily(self, ok: bool, info: Callable[[], dict]):
        """record() with the failure fields built by ``info()`` only on failure."""
        self.record(ok, **({} if ok else info()))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "cases_run": self.cases_run,
            "failures": self.failures,
            "seed": self.seed,
        }


_COEFFS = tuple(c for c in range(-9, 10) if c)  # random_poly's coefficients


def random_poly(
    rng: random.Random,
    l: int,
    n: int,
    max_total_deg: int = 4,
    max_terms: int = 6,
) -> Poly:
    """A random sparse polynomial: <= max_terms terms, coefficients in -9..9 \\ {0}.

    Each unit of a term's degree adds one to the packed key slot of a random
    variable, so the integer form is built directly; a zero polynomial is
    replaced by 1."""
    if max_total_deg > MAX_SLOT_EXPONENT:
        raise DomainError(f"max_total_deg above the exponent limit {MAX_SLOT_EXPONENT}")
    units = [1 << SLOT_BITS * pos for pos in range(l + n)]
    width = len(units)
    nums: dict[int, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        key = 0
        for _ in range(rng.randint(0, max_total_deg)):
            key += units[rng.randrange(width)]
        nums[key] = nums.get(key, 0) + rng.choice(_COEFFS)
    nums = {k: c for k, c in nums.items() if c}
    return Poly._raw(l, n, 1, nums) if nums else Poly.const(l, n, 1)


def _check_samples(samples: int) -> None:
    """A negative sample count is a DomainError, not a run of no cases."""
    if samples < 0:
        raise DomainError(f"samples must be non-negative, got {samples}")
