"""Exact sparse polynomial arithmetic over Q with shift automorphisms.

Polynomials live in Q[H_1..H_l, d_1..d_n].  A polynomial is a map from
exponent tuples (length l + n, H-block first) to nonzero Fraction
coefficients; the zero polynomial is the empty map.  This canonical form
makes equality testing exact: two values are equal iff their term maps are.

The shift automorphisms are

    sigma_i^k : H_i -> H_i - k        (fixes every other variable)
    tau^a     : d_j -> d_j - a_j      (componentwise)

implemented by binomial expansion with exact integer binomials.  A
``ShiftOperator`` is a finite sum of polynomials times shifts; such sums
compose and bracket exactly, in closed form.

Trusted construction: the public constructor ``Poly(l, n, terms)`` accepts
arbitrary input, so it raises StructureError on an exponent of the wrong
width or with a negative entry (whatever its coefficient), coerces every
coefficient to Fraction and drops zeros.  Results of the kernel operations are canonical by
construction (tuple keys of width l + n built from valid keys, nonzero
Fraction values, zeros dropped in the pass that builds the map), so
``__add__``, ``__sub__``, ``__neg__``, ``__mul__``, ``scale``, ``shift``, ``try_divide``
and the ``zero``/``const``/``variable`` constructors wrap their maps with
the private ``Poly._raw`` instead, which stores the map without
re-checking it.  ``_raw`` is only for maps this module built itself;
anything from outside goes through the public constructor.

One integer kernel does the arithmetic on numerators over a common
denominator: ``_shift_nums`` is the only binomial-expansion loop (it expands
only the slots with a nonzero delta, by the integer rows
comb(e, j) * (-delta)^(e - j)) and ``_mul_into`` the only product loop.
``shift`` and ``__mul__`` are thin wrappers over them.
``ShiftOperator.apply`` brings p over its common denominator once, shifts
its numerators and multiplies them by the integer numerators of each f_u
(the operator's integer form, computed on first use and kept), accumulates
every term in one int map and makes each output coefficient one Fraction at
the end; ``compose`` uses the same shift-multiply step for f * T_u(g).

The serialized text form is a sum of terms in graded-lex order (total degree
descending, then lexicographic on the exponent tuple with H_1 largest),
e.g. ``3/2*H1^2*d1 - d2 + 5``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from operator import add, sub
from typing import Collection, Iterable, Iterator, Sequence

from .errors import DomainError, StructureError

Exponent = tuple[int, ...]
Rat = Fraction

_set = object.__setattr__  # writes a slot past Poly's immutability guard
_VAR_RE = re.compile(r"^(H|d)(\d+)(?:\^(-?\d+))?$")
# the largest exponent of one variable in a term of a polynomial literal: a
# shift expands H^e into e + 1 terms, so Poly.parse refuses a larger one
MAX_EXPONENT = 1000
# the most monomials a shift may expand one term of a literal into, i.e. the
# largest product of (e + 1) over a term's exponents that Poly.parse accepts
MAX_SHIFT_MONOMIALS = 10_000
_RAT_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$")  # no zero denominator


@dataclass(frozen=True)
class VarId:
    """A named variable: kind "H" (index 1..l) or "d" (index 1..n)."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("H", "d"):
            raise StructureError(f"unknown variable kind {self.kind!r}")
        if self.index < 1:
            raise StructureError(f"variable index must be positive, got {self.index}")

    def position(self, l: int, n: int) -> int:
        """Slot of this variable in an exponent tuple of ranks (l, n)."""
        if self.kind == "H":
            if self.index > l:
                raise StructureError(f"H{self.index} out of range for l={l}")
            return self.index - 1
        if self.index > n:
            raise StructureError(f"d{self.index} out of range for n={n}")
        return l + self.index - 1


def _order_key(exp: Exponent):
    # Graded lex, descending: sort() with this key lists the leading term first.
    return (-sum(exp), tuple(-e for e in exp))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("l", "n", "terms")

    def __init__(self, l: int, n: int, terms: dict[Exponent, Rat] | None = None):
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", n)
        clean: dict[Exponent, Rat] = {}
        if terms:
            width = l + n
            for exp, c in terms.items():
                if len(exp) != width or any(e < 0 for e in exp):
                    raise StructureError(f"bad exponent {exp} for ranks ({l},{n})")
                c = Fraction(c)
                if c != 0:
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _raw(l: int, n: int, terms: dict[Exponent, Rat]) -> "Poly":
        """Wrap a canonical term map (width-(l+n) tuple keys, nonzero Fraction
        values) without copying or checking it; see the module docstring."""
        p = object.__new__(Poly)
        _set(p, "l", l)
        _set(p, "n", n)
        _set(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(l: int, n: int) -> "Poly":
        return Poly._raw(l, n, {})

    @staticmethod
    def const(l: int, n: int, value) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return Poly._raw(l, n, {})
        return Poly._raw(l, n, {(0,) * (l + n): c})

    @staticmethod
    def variable(l: int, n: int, var: VarId) -> "Poly":
        exp = [0] * (l + n)
        exp[var.position(l, n)] = 1
        return Poly._raw(l, n, {tuple(exp): Fraction(1)})

    @staticmethod
    def H(l: int, n: int, i: int) -> "Poly":
        return Poly.variable(l, n, VarId("H", i))

    @staticmethod
    def d(l: int, n: int, j: int) -> "Poly":
        return Poly.variable(l, n, VarId("d", j))

    # -- basic protocol ----------------------------------------------------

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.l, self.n)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.l, self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.l, self.n) == (other.l, other.n) and self.terms == other.terms

    def __hash__(self):
        return hash((self.l, self.n, frozenset(self.terms.items())))

    def _check_ranks(self, other: "Poly"):
        if (self.l, self.n) != (other.l, other.n):
            raise StructureError(
                f"rank mismatch: ({self.l},{self.n}) vs ({other.l},{other.n})"
            )

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_ranks(other)
            return other
        return Poly.const(self.l, self.n, other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.l, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self._merge(other, sub)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def _merge(self, other, op) -> "Poly":
        """self + other or self - other (``op`` is add or sub) in one pass."""
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            if s is None:
                out[exp] = c if op is add else -c
                continue
            s = op(s, c)
            if s:
                out[exp] = s
            else:
                del out[exp]
        return Poly._raw(self.l, self.n, out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        den_a, nums_a = _over_common_denominator(self.terms)
        den_b, nums_b = _over_common_denominator(other.terms)
        out: dict[Exponent, int] = {}
        _mul_into(out, nums_a, nums_b)
        return Poly._raw(self.l, self.n, _nonzero_fractions(out, den_a * den_b))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.l, self.n)
        if c == 1:
            return self
        return Poly._raw(self.l, self.n, {e: c * k for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise DomainError("negative polynomial power")
        out = Poly.const(self.l, self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Rat]]:
        return sorted(self.terms.items(), key=lambda t: _order_key(t[0]))

    def __iter__(self) -> Iterator[tuple[Exponent, Rat]]:
        return iter(self.sorted_terms())

    def coeff(self, exp: Exponent) -> Rat:
        return self.terms.get(tuple(exp), Fraction(0))

    def constant_term(self) -> Rat:
        return self.terms.get((0,) * (self.l + self.n), Fraction(0))

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponent, Rat]:
        """Leading (exponent, coefficient) in graded-lex order; zero poly is an error."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        exp = min(self.terms, key=_order_key)
        return exp, self.terms[exp]

    def is_monic(self) -> bool:
        return bool(self.terms) and self.leading()[1] == 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def as_scalar(self) -> Rat | None:
        """The constant value if this poly is constant, else None."""
        if self.is_constant():
            return self.constant_term()
        return None

    def eval(self, point: Sequence) -> Rat:
        """Evaluate at a point given as l+n rationals (H-block first)."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.l + self.n:
            raise StructureError("evaluation point has wrong length")
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for e, v in zip(exp, vals):
                if e:
                    term *= v**e
            total += term
        return total

    # -- variable shifts ---------------------------------------------------

    def shift(self, deltas: Sequence[int]) -> "Poly":
        """Substitute every variable v_p by v_p - deltas[p] (binomial expansion)."""
        if len(deltas) != self.l + self.n:
            raise StructureError("shift vector has wrong length")
        moved = _moved(deltas)
        if not moved:
            return self
        den, nums = _over_common_denominator(self.terms)
        return Poly._raw(self.l, self.n, _nonzero_fractions(_shift_nums(nums, moved), den))

    # -- text form ---------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exp, c in self.sorted_terms():
            factors = []
            for pos, e in enumerate(exp):
                if e == 0:
                    continue
                if pos < self.l:
                    name = f"H{pos + 1}"
                else:
                    name = f"d{pos - self.l + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            body = "*".join(factors if mag == 1 and factors else [_rat_text(mag)] + factors)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    __str__ = text

    def __repr__(self):
        return f"Poly({self.l},{self.n}: {self.text()})"

    @staticmethod
    def parse(text: str, l: int, n: int) -> "Poly":
        """Parse the serialized text form (inverse of text())."""
        s = text.strip()
        if not s:
            raise StructureError("empty polynomial literal")
        if s == "0":
            return Poly.zero(l, n)
        # normalize: make every term start with an explicit sign, then split
        s = s.replace("-", "+-")
        raw = [p.strip() for p in s.split("+")]
        if any(not p for p in raw[1:]) or (len(raw) > 1 and not raw[0] and not raw[1]):
            raise StructureError(f"dangling sign in {text!r}")
        parts = [p for p in raw if p]
        if not parts:
            raise StructureError(f"dangling sign in {text!r}")
        result = Poly.zero(l, n)
        for part in parts:
            sign = Fraction(1)
            if part.startswith("-"):
                sign = Fraction(-1)
                part = part[1:].strip()
            if not part:
                raise StructureError(f"dangling sign in {text!r}")
            coeff = sign
            exp = [0] * (l + n)
            for factor in (f.strip() for f in part.split("*")):
                if _RAT_RE.match(factor):
                    coeff *= Fraction(factor)
                    continue
                m = _VAR_RE.match(factor)
                if not m:
                    raise StructureError(f"bad factor {factor!r} in {text!r}")
                kind, idx, power = m.groups()
                # digit counts first: int() of a long digit string is slow or refused
                if len(idx.lstrip("0")) > 3:
                    raise StructureError(f"variable index out of range in {text[:40]!r}")
                pos = VarId(kind, int(idx)).position(l, n)
                digits = (power or "1").lstrip("0") or "0"  # "-" never reaches a factor
                if len(digits) > len(str(MAX_EXPONENT)) or exp[pos] + int(digits) > MAX_EXPONENT:
                    raise StructureError(
                        f"exponent of {kind}{idx} above {MAX_EXPONENT} in {text[:40]!r}"
                    )
                exp[pos] += int(digits)
            if prod(e + 1 for e in exp) > MAX_SHIFT_MONOMIALS:
                raise StructureError(
                    f"a term of {text[:40]!r} shifts into more than {MAX_SHIFT_MONOMIALS}"
                    " monomials (the product of exponent + 1 over its variables)"
                )
            result = result + Poly(l, n, {tuple(exp): coeff})
        return result


def _rat_text(x: Rat) -> str:
    """str(x), or a DomainError when x has more digits than Python prints."""
    try:
        return str(x)
    except ValueError as exc:
        raise DomainError(
            f"coefficient exceeds the {sys.get_int_max_str_digits()}-digit limit"
            " for integer string conversion"
        ) from exc


def _over_common_denominator(terms: dict[Exponent, Rat]) -> tuple[int, list]:
    """(D, [(exp, c * D)]) with D the lcm of the coefficient denominators."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return 1, [(e, c.numerator) for e, c in terms.items()]
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


def _nonzero_fractions(nums: dict[Exponent, int], den: int) -> dict[Exponent, Rat]:
    """The canonical term map {exp: nums[exp] / den}, zeros dropped."""
    if den == 1:  # Fraction(v) skips the gcd
        return {e: Fraction(v) for e, v in nums.items() if v}
    return {e: Fraction(v, den) for e, v in nums.items() if v}


# -- the integer kernel: one binomial-expansion loop, one product loop -------


def _moved(deltas: Sequence[int]) -> list[tuple[int, int]]:
    """The (slot, delta) pairs of a shift vector with a nonzero delta."""
    return [(pos, dlt) for pos, dlt in enumerate(deltas) if dlt]


def _shift_nums(nums: Iterable[tuple[Exponent, int]],
                moved: list[tuple[int, int]]) -> dict[Exponent, int]:
    """Integer numerators of the shift by ``moved`` of the terms ``nums``."""
    out: dict[Exponent, int] = {}
    # rows[(e, dlt)][j] = comb(e, j) * (-dlt)^(e - j), the coefficient of
    # v^j in (v - dlt)^e; integers for integer deltas
    rows: dict[tuple[int, int], list[int]] = {}
    for exp, c in nums:
        # expansion of prod over moved slots p of (v_p - delta_p)^{e_p}; the
        # monomials of one expansion are distinct, so a list suffices
        partial = [(exp, c)]
        for pos, dlt in moved:
            e = exp[pos]
            if e:
                row = rows.get((e, dlt))
                if row is None:
                    row = rows[e, dlt] = [comb(e, j) * (-dlt) ** (e - j) for j in range(e + 1)]
                partial = [
                    (k[:pos] + (j,) + k[pos + 1 :], v * w)
                    for k, v in partial
                    for j, w in enumerate(row)
                ]
        for k, v in partial:
            out[k] = out.get(k, 0) + v
    return out


def _mul_into(out: dict[Exponent, int], nums_a: Iterable[tuple[Exponent, int]],
              nums_b: Collection[tuple[Exponent, int]]) -> None:
    """Accumulate the product of two integer term lists into ``out``."""
    for ea, ca in nums_a:
        for eb, cb in nums_b:
            exp = tuple(map(add, ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb


def _shift_mul_into(out: dict[Exponent, int], nums_f: Iterable[tuple[Exponent, int]],
                    nums_p: list[tuple[Exponent, int]], moved: list[tuple[int, int]]) -> None:
    """Accumulate f * T_u(p) into ``out``, all as integer numerators."""
    _mul_into(out, nums_f, _shift_nums(nums_p, moved).items() if moved else nums_p)


# -- shift operators ---------------------------------------------------------


Shift = tuple[int, ...]


class ShiftOperator:
    """A finite sum  sum_u f_u T_u  with T_u(p) = p.shift(u) and polynomial f_u.

    These are the elements of the skew group ring of Q[H, d] over the shift
    group Z^(l+n).  Shifts compose additively and move a coefficient past
    themselves by shifting it:  (f T_u)(g T_v) = f * T_u(g) * T_(u+v), so
    composition and commutators are exact in closed form and equal
    operators act equally on every polynomial.  ``terms`` maps each shift
    (a width-(l+n) tuple) to its nonzero coefficient; an operator is never
    mutated after construction.
    """

    __slots__ = ("l", "n", "terms", "_ints")

    def __init__(self, l: int, n: int, terms: dict[Shift, Poly] | None = None):
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "terms", {tuple(u): f for u, f in (terms or {}).items() if f.terms}
        )
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, *_):
        raise AttributeError("ShiftOperator is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return (self.l, self.n) == (other.l, other.n) and self.terms == other.terms

    __hash__ = None

    def _integer_form(self) -> tuple[int, ...]:
        """(D, numerators...): D is the lcm of every coefficient denominator,
        followed by the integer numerators of D * f_u, term by term in the
        order of ``terms`` and of each f_u's terms.  Built on first use and
        kept as one flat tuple (numerators that need no scaling are shared
        with the coefficients), which keeps a cached operator small."""
        if self._ints is None:
            den = lcm(*[c.denominator for f in self.terms.values() for c in f.terms.values()])
            object.__setattr__(self, "_ints", (den, *(
                c.numerator if c.denominator == den else c.numerator * (den // c.denominator)
                for f in self.terms.values() for c in f.terms.values()
            )))
        return self._ints

    def apply(self, p: Poly) -> Poly:
        """sum_u f_u * p.shift(u), accumulated as integers over one denominator."""
        if p.ranks != (self.l, self.n):
            raise StructureError(f"polynomial ranks {p.ranks} do not match {(self.l, self.n)}")
        ints = self._integer_form()
        den_p, nums_p = _over_common_denominator(p.terms)
        out: dict[Exponent, int] = {}
        start = 1
        for u, f in self.terms.items():
            end = start + len(f.terms)
            _shift_mul_into(out, zip(f.terms, ints[start:end]), nums_p, _moved(u))
            start = end
        return Poly._raw(self.l, self.n, _nonzero_fractions(out, ints[0] * den_p))

    def compose(self, other: "ShiftOperator") -> "ShiftOperator":
        """self after other: (sum f_u T_u)(sum g_v T_v) = sum f_u T_u(g_v) T_(u+v)."""
        out: dict[Shift, Poly] = {}
        others = [(v, *_over_common_denominator(g.terms)) for v, g in other.terms.items()]
        for u, f in self.terms.items():
            den_f, nums_f = _over_common_denominator(f.terms)
            moved = _moved(u)
            for v, den_g, nums_g in others:
                nums: dict[Exponent, int] = {}
                _shift_mul_into(nums, nums_f, nums_g, moved)
                term = Poly._raw(self.l, self.n, _nonzero_fractions(nums, den_f * den_g))
                w = tuple(map(add, u, v))
                out[w] = out[w] + term if w in out else term
        return ShiftOperator(self.l, self.n, out)

    def bracket(self, other: "ShiftOperator") -> "ShiftOperator":
        return self.compose(other) - other.compose(self)

    def __add__(self, other: "ShiftOperator") -> "ShiftOperator":
        out = dict(self.terms)
        for u, g in other.terms.items():
            out[u] = out[u] + g if u in out else g
        return ShiftOperator(self.l, self.n, out)

    def __sub__(self, other: "ShiftOperator") -> "ShiftOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "ShiftOperator":
        return ShiftOperator(self.l, self.n, {u: f.scale(c) for u, f in self.terms.items()})

    def text(self) -> str:
        """Terms ``(f)*T(u)`` in ascending shift order; "0" for the zero operator."""
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[u].text()})*T({','.join(map(str, u))})" for u in sorted(self.terms)
        )

    __str__ = text

    def __repr__(self):
        return f"ShiftOperator({self.l},{self.n}: {self.text()})"


# -- spec-level operations -------------------------------------------------


def shift_sigma(i: int, k: int, p: Poly) -> Poly:
    """Apply sigma_i^k: H_i -> H_i - k."""
    pos = VarId("H", i).position(p.l, p.n)
    deltas = [0] * (p.l + p.n)
    deltas[pos] = k
    return p.shift(deltas)


def shift_tau(a: Sequence[int], p: Poly) -> Poly:
    """Apply tau^a: d_j -> d_j - a_j for each j."""
    if len(a) != p.n:
        raise StructureError(f"tau vector length {len(a)} != n={p.n}")
    deltas = [0] * p.l + [int(x) for x in a]
    return p.shift(deltas)


def deg_in(v: VarId, p: Poly) -> int:
    """Highest exponent of v in p; -1 when p = 0."""
    pos = v.position(p.l, p.n)
    if not p.terms:
        return -1
    return max(exp[pos] for exp in p.terms)


def shift_difference(mode: str, k: int, i: int, p: Poly) -> Poly:
    """Difference operators built from w_i = sigma_i.

    mode "power_minus_id":  (sigma_i^k - Id)(p), k != 0
    mode "difference_power": (sigma_i - Id)^k (p), k >= 0
    """
    if mode == "power_minus_id":
        if k == 0:
            raise DomainError("power_minus_id requires k != 0")
        return shift_sigma(i, k, p) - p
    if mode == "difference_power":
        if k < 0:
            raise DomainError("difference_power requires k >= 0")
        out = p
        for _ in range(k):
            out = shift_sigma(i, 1, out) - out
        return out
    raise StructureError(f"unknown shift_difference mode {mode!r}")


def try_divide(q: Poly, p: Poly) -> Poly | None:
    """Return q / p when p divides q exactly, else None."""
    q._check_ranks(p)
    if p.is_zero():
        raise DomainError("division by zero polynomial")
    if q.is_zero():
        return Poly.zero(q.l, q.n)
    lead_exp, lead_c = p.leading()
    tail = [(e, c) for e, c in p.terms.items() if e != lead_exp]
    quot: dict[Exponent, Rat] = {}
    rem = dict(q.terms)
    while rem:
        # rem -= c * x^diff * p; its leading term cancels exactly
        rexp = min(rem, key=_order_key)
        diff = tuple(map(sub, rexp, lead_exp))
        if any(e < 0 for e in diff):
            return None
        c = rem.pop(rexp) / lead_c
        quot[diff] = c
        for e, pc in tail:
            exp = tuple(map(add, e, diff))
            s = rem.get(exp, 0) - c * pc
            if s:
                rem[exp] = s
            else:
                rem.pop(exp, None)
    return Poly._raw(q.l, q.n, quot)


def divides(p: Poly, q: Poly) -> bool:
    """True iff p divides q exactly."""
    return try_divide(q, p) is not None
