"""Exact sparse polynomial arithmetic over Q with shift automorphisms.

Polynomials live in Q[H_1..H_l, d_1..d_n].  A polynomial is stored as one
positive integer denominator ``den`` and a map ``nums`` from packed monomial
keys to nonzero int numerators; its value is sum_k nums[k] / den * x^e(k).
The form is reduced, gcd(den, every numerator) = 1, and the zero polynomial
is (1, {}).  So it is canonical: two values are equal iff their denominators
and numerator maps are, and equality and hashing compare integers only.

A monomial key is one non-negative int holding the exponent tuple e (length
l + n, H-block first) in fixed slots of SLOT_BITS = 16 bits: slot p, the bits
16p .. 16p + 15, holds e_p, so key = sum_p e_p << 16p and the H-block sits in
the low slots.  A product of monomials is one integer ``+`` of their keys, a
shift that moves slot p from exponent e to j adds (j - e) << 16p, the
constant monomial is the key 0, and the d-part of a key is key >> 16l, itself
the key of that monomial in Q[d].  Slots never spill into each other: an
exponent is at most MAX_SLOT_EXPONENT = 2^16 - 1, and an operation that
would form a monomial with a larger exponent (a product, a power, the public
constructor) raises DomainError rather than return a wrapped key.  A shift
never raises an exponent, so it needs no check; a product is checked once
per operation, on the bitwise OR of each factor's keys, and only when that
OR has the top bit of some slot set are the per-slot maxima compared.

The shift automorphisms are

    sigma_i^k : H_i -> H_i - k        (fixes every other variable)
    tau^a     : d_j -> d_j - a_j      (componentwise)

implemented by binomial expansion with exact integer binomials.  A
``ShiftOperator`` is a finite sum of polynomials times shifts; such sums
compose and bracket exactly, in closed form.  Its shifts are plain tuples
(their entries may be negative).

Trusted construction: the public constructor ``Poly(l, n, terms)`` accepts
arbitrary input, so it raises StructureError on an exponent of the wrong
width or with a negative entry (whatever its coefficient) and DomainError on
an entry above MAX_SLOT_EXPONENT, coerces every coefficient that is not an
int or a Fraction through Fraction, drops zeros and brings the rest over the
lcm of their denominators, which leaves the form reduced.  Every other
operation builds the integer form itself and wraps it with the private
``Poly._raw``, which stores it without checking, or ``Poly._reduced``, which
first divides out gcd(den, numerators).  Both are only for maps built here
(or in ``search``, ``checks`` and ``recovery``) from valid keys and nonzero
numerators.

One integer kernel does the arithmetic: ``_shift_nums`` is the only
binomial-expansion loop (it expands only the slots with a nonzero delta, by
the integer rows comb(e, j) * (-delta)^(e - j), one slot at a time, so like
terms merge before the next slot expands them) and ``_mul_into`` the only
product loop.  ``+`` and ``-`` work over the lcm of the two denominators,
``*`` over their product and ``scale`` over den times the scalar's
denominator, each dividing out the gcd at the end.  ``shift`` needs no gcd:
an integer shift is an automorphism of Z[H, d], so it keeps the content of
the numerators.  ``ShiftOperator.apply`` multiplies the shifted numerators
of p by those of each f_u, brought over their lcm D, into one int map over
D * den(p) and reduces once; it returns at once for a zero operator or a
zero p, and for one term f T_u whose f or shifted p is a single term the
product is one offset of the other's keys.  ``compose`` uses the same
shift-multiply step for f * T_u(g), and ``bracket`` for f * T_u(g) -
g * T_v(f) into one map per pair of terms, and ``try_divide`` divides
numerators fraction-free, reading divisibility of two monomials off the
borrows of one key subtraction.
``shift_difference``'s ``(sigma_i - Id)^k`` is one pass over the numerators
with a cached integer row per (exponent, k), not k shift-and-subtract passes.

Keys are unpacked to exponent tuples (``unpack_exponent``, once per key) and
``Fraction``s made only at the edges: by ``terms`` (a read-only view
exponent tuple -> Fraction that packs the tuple it is asked for and makes
each coefficient as it is read), ``sorted_terms`` and iteration, ``coeff``,
``constant_term``, ``leading``, ``as_scalar`` and ``eval``, by ``text``
and the graded-lex order, and where the public constructor, ``const``,
``scale`` or ``==`` coerce a scalar argument.  ``total_degree`` reads each
key's slot sum as the key modulo 2^16 - 1 (2^16 is 1 modulo it), unpacking
only when some slot is too large for that sum to be exact.

The serialized text form is a sum of terms in graded-lex order (total degree
descending, then lexicographic on the exponent tuple with H_1 largest),
e.g. ``3/2*H1^2*d1 - d2 + 5``; ``text`` writes each coefficient from its
numerator and ``den`` over their gcd, as ``str(Fraction)`` would.  A
``Poly`` hashes by value, once: the hash is kept in a slot on first use.
"""

from __future__ import annotations

import re
import struct
import sys
from collections.abc import Collection, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm, prod
from operator import add, or_, sub

from .errors import DomainError, Frozen, StructureError

Exponent = tuple[int, ...]
Shift = tuple[int, ...]
Rat = Fraction

_set = object.__setattr__  # writes a slot past Poly's and VarId's immutability guards
_VAR_RE = re.compile(r"^(H|d)(\d+)(?:\^(-?\d+))?$")
# the largest exponent of one variable in a term of a polynomial literal: a
# shift expands H^e into e + 1 terms, so Poly.parse refuses a larger one
MAX_EXPONENT = 1000
# the most monomials a shift may expand one term of a literal into, i.e. the
# largest product of (e + 1) over a term's exponents that Poly.parse accepts
MAX_SHIFT_MONOMIALS = 10_000
_RAT_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$")  # no zero denominator

# the width of one exponent slot of a packed monomial key
SLOT_BITS = 16
MAX_SLOT_EXPONENT = (1 << SLOT_BITS) - 1


class VarId(Frozen):
    """A named variable: kind "H" (index 1..l) or "d" (index 1..n)."""

    __slots__ = _fields = ("kind", "index")
    kind: str
    index: int

    def __init__(self, kind: str, index: int):
        if kind not in ("H", "d"):
            raise StructureError(f"unknown variable kind {kind!r}")
        if index < 1:
            raise StructureError(f"variable index must be positive, got {index}")
        _set(self, "kind", kind)
        _set(self, "index", index)

    def position(self, l: int, n: int) -> int:
        """Slot of this variable in an exponent tuple of ranks (l, n)."""
        if self.kind == "H":
            if self.index > l:
                raise StructureError(f"H{self.index} out of range for l={l}")
            return self.index - 1
        if self.index > n:
            raise StructureError(f"d{self.index} out of range for n={n}")
        return l + self.index - 1


# -- packed monomial keys -----------------------------------------------------


class _PerWidth(dict):
    """width -> make(width), made on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, width: int):
        value = self[width] = self.make(width)
        return value


# the mask of the top bit of each slot of a key, and the struct codec of a
# key as little-endian bytes ("H": one unsigned 16-bit field per slot, so
# packing checks every entry's range)
_TOP_BITS = _PerWidth(lambda width: sum(1 << SLOT_BITS * (p + 1) - 1 for p in range(width)))
_CODEC = _PerWidth(lambda width: struct.Struct(f"<{width}H"))
_SLOT_BYTES = SLOT_BITS // 8
# the bits of each slot from 2^b up, b = SLOT_BITS - bit length of the width: a
# key with none of them set has width slots below 2^b, whose sum is below
# MAX_SLOT_EXPONENT
_WIDE_BITS = _PerWidth(lambda width: sum(
    (1 << SLOT_BITS) - (1 << max(SLOT_BITS - width.bit_length(), 0)) << SLOT_BITS * p
    for p in range(width)))


def pack_exponent(exp: Sequence[int]) -> int:
    """The key of an exponent tuple: StructureError on an entry that is not a
    non-negative int, DomainError on one above MAX_SLOT_EXPONENT."""
    try:
        return int.from_bytes(_CODEC[len(exp)].pack(*exp), "little")
    except struct.error:
        if all(isinstance(e, int) and e >= 0 for e in exp):
            raise DomainError(f"exponent in {exp} above the limit {MAX_SLOT_EXPONENT}") from None
        raise StructureError(f"bad exponent {exp}") from None


def unpack_exponent(key: int, width: int) -> Exponent:
    """The exponent tuple of length ``width`` held by a key below 2^(SLOT_BITS * width)."""
    return _CODEC[width].unpack(key.to_bytes(_SLOT_BYTES * width, "little"))


def _key_of(exp: Sequence[int], width: int) -> int | None:
    """The key of exp when it is an exponent of this width, else None."""
    if len(exp) == width:
        try:
            return int.from_bytes(_CODEC[width].pack(*exp), "little")
        except struct.error:
            pass
    return None


def _order_key(exp: Exponent) -> tuple[int, Exponent]:
    # graded lex: the exponent with the largest key leads
    return sum(exp), exp


def _check_products(keys_a: Collection[int], keys_b: Collection[int], width: int) -> None:
    """Raise DomainError when the product of a monomial of ``keys_a`` and one
    of ``keys_b`` has an exponent above MAX_SLOT_EXPONENT.

    When no key has the top bit of a slot set, every exponent is below
    2^(SLOT_BITS - 1) and every sum fits; otherwise the per-slot maxima
    decide, and a slot whose maxima add past the limit is reached by the
    product of the two monomials that hold them.
    """
    if (reduce(or_, keys_a, 0) | reduce(or_, keys_b, 0)) & _TOP_BITS[width]:
        def maxima(keys):
            return [max(slot) for slot in zip(*[unpack_exponent(k, width) for k in keys])]

        top = max(map(add, maxima(keys_a), maxima(keys_b)), default=0)
        if top > MAX_SLOT_EXPONENT:
            raise DomainError(f"a product would hold the exponent {top},"
                              f" above the limit {MAX_SLOT_EXPONENT}")


class _Terms(Mapping):
    """Read-only view of a polynomial as {exponent tuple: Fraction coefficient};
    each coefficient is made when it is read."""

    __slots__ = ("_den", "_nums", "_width")

    def __init__(self, den: int, nums: dict[int, int], width: int):
        self._den = den
        self._nums = nums
        self._width = width

    def __getitem__(self, exp: Exponent) -> Rat:
        key = _key_of(exp, self._width)
        if key not in self._nums:
            raise KeyError(exp)
        return Fraction(self._nums[key], self._den)

    def __iter__(self) -> Iterator[Exponent]:
        width = self._width
        return (unpack_exponent(k, width) for k in self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __repr__(self):
        return repr(dict(self.items()))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients, stored as
    integer numerators of packed monomial keys over one denominator (see the
    module docstring)."""

    # ``_hash`` stays unset until the first __hash__, so making a Poly costs
    # nothing for it
    __slots__ = ("l", "n", "den", "nums", "_hash")

    def __init__(self, l: int, n: int, terms: dict[Exponent, Rat] | None = None):
        _set(self, "l", l)
        _set(self, "n", n)
        clean: dict[int, Rat] = {}
        if terms:
            width = l + n
            for exp, c in terms.items():
                if len(exp) != width:
                    raise StructureError(f"bad exponent {exp} for ranks ({l},{n})")
                clean[pack_exponent(exp)] = c if isinstance(c, (int, Fraction)) else Fraction(c)
        # over the lcm of reduced denominators no prime divides every numerator
        den, nums = _over_common_denominator(clean)
        _set(self, "den", den)
        _set(self, "nums", nums)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the integer form through _raw, without the hash
        return Poly._raw, (self.l, self.n, self.den, dict(self.nums))

    @staticmethod
    def _raw(l: int, n: int, den: int, nums: dict[int, int]) -> "Poly":
        """Wrap a reduced integer form (keys of width l + n, nonzero int
        numerators, gcd 1 with den > 0) without copying or checking it; see
        the module docstring."""
        p = object.__new__(Poly)
        _set(p, "l", l)
        _set(p, "n", n)
        _set(p, "den", den)
        _set(p, "nums", nums)
        return p

    @staticmethod
    def _reduced(l: int, n: int, den: int, nums: dict[int, int]) -> "Poly":
        """``_raw`` of nonzero numerators over den > 0 once their gcd with den
        is divided out."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: v // g for e, v in nums.items()}
        return Poly._raw(l, n, den, nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(l: int, n: int) -> "Poly":
        return Poly._raw(l, n, 1, {})

    @staticmethod
    def const(l: int, n: int, value) -> "Poly":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        if not value:
            return Poly._raw(l, n, 1, {})
        return Poly._raw(l, n, value.denominator, {0: value.numerator})

    @staticmethod
    def variable(l: int, n: int, var: VarId) -> "Poly":
        return Poly._raw(l, n, 1, {1 << SLOT_BITS * var.position(l, n): 1})

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

    @property
    def terms(self) -> Mapping[Exponent, Rat]:
        """The coefficients as a read-only {exponent tuple: Fraction} view."""
        return _Terms(self.den, self.nums, self.l + self.n)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is Poly:
            return (self.den == other.den and self.nums == other.nums
                    and self.l == other.l and self.n == other.n)
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.l, self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.l, self.n, self.den) == (other.l, other.n, other.den)
                and self.nums == other.nums)

    def __hash__(self):
        # computed on first use and kept: a value is hashed by every memo lookup
        try:
            return self._hash
        except AttributeError:
            h = hash((self.l, self.n, self.den, frozenset(self.nums.items())))
            _set(self, "_hash", h)
            return h

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
        return Poly._raw(self.l, self.n, self.den, {e: -v for e, v in self.nums.items()})

    def __sub__(self, other) -> "Poly":
        return self._merge(other, sub)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def _merge(self, other, op) -> "Poly":
        """self + other or self - other (``op`` is add or sub) in one pass,
        over the lcm of the two denominators; p + 0, p - 0 and 0 + p return
        p itself."""
        other = self._coerce(other)
        if not other.nums:
            return self
        if not self.nums and op is add:
            return other
        g = gcd(self.den, other.den)
        m_a, m_b = other.den // g, self.den // g
        out = {e: v * m_a for e, v in self.nums.items()} if m_a != 1 else dict(self.nums)
        items = [(e, v * m_b) for e, v in other.nums.items()] if m_b != 1 else other.nums.items()
        for key, c in items:
            s = out.get(key)
            if s is None:
                out[key] = c if op is add else -c
                continue
            s = op(s, c)
            if s:
                out[key] = s
            else:
                del out[key]
        # with coprime denominators the sum is reduced: modulo a prime of
        # self.den (so not of other.den) its numerators are those of self
        # times other.den, and no such prime divides every one of those
        if g == 1:
            return Poly._raw(self.l, self.n, self.den * m_a, out)
        return Poly._reduced(self.l, self.n, self.den * m_a, out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        _check_products(self.nums, other.nums, self.l + self.n)
        out: dict[int, int] = {}
        _mul_into(out, self.nums, other.nums)
        return Poly._reduced(self.l, self.n, self.den * other.den, _nonzero(out))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        num = c.numerator
        if not num:
            return Poly.zero(self.l, self.n)
        return self._times(num, c.denominator)

    def _times(self, num: int, den: int) -> "Poly":
        """self * num / den for ints num != 0 and den > 0, not always coprime."""
        if num == den:
            return self
        return Poly._reduced(self.l, self.n, self.den * den,
                             {e: num * v for e, v in self.nums.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise DomainError("negative polynomial power")
        # the degree of p^k in each variable is k times that of p, so a power
        # past the exponent limit is refused before anything is expanded
        width = self.l + self.n
        if k > 1 and width and self.nums:
            top = k * max(max(unpack_exponent(key, width)) for key in self.nums)
            if top > MAX_SLOT_EXPONENT:
                raise DomainError(f"the power would hold the exponent {top},"
                                  f" above the limit {MAX_SLOT_EXPONENT}")
        out = Poly.const(self.l, self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def _unpacked(self) -> list[tuple[Exponent, int]]:
        """(exponent tuple, numerator) pairs in graded-lex order, leading first."""
        width = self.l + self.n
        graded = []
        for key, v in self.nums.items():
            exp = unpack_exponent(key, width)
            graded.append((sum(exp), exp, v))
        graded.sort(reverse=True)  # the exponents differ, so no numerator is compared
        return [(exp, v) for _, exp, v in graded]

    def sorted_terms(self) -> list[tuple[Exponent, Rat]]:
        den = self.den
        return [(e, Fraction(v, den)) for e, v in self._unpacked()]

    def __iter__(self) -> Iterator[tuple[Exponent, Rat]]:
        return iter(self.sorted_terms())

    def coeff(self, exp: Exponent) -> Rat:
        return Fraction(self.nums.get(_key_of(exp, self.l + self.n), 0), self.den)

    def constant_term(self) -> Rat:
        return Fraction(self.nums.get(0, 0), self.den)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial.

        A key is congruent to the sum of its slots modulo MAX_SLOT_EXPONENT
        (2^SLOT_BITS is 1 modulo it), so it leaves that sum as its remainder
        when no key has a bit of ``_WIDE_BITS`` set.
        """
        nums = self.nums
        if not nums:
            return -1
        width = self.l + self.n
        if reduce(or_, nums, 0) & _WIDE_BITS[width]:
            return max(sum(unpack_exponent(k, width)) for k in nums)
        return max(k % MAX_SLOT_EXPONENT for k in nums)

    def _leading_key(self) -> int:
        if not self.nums:
            raise DomainError("zero polynomial has no leading term")
        width = self.l + self.n
        return max(self.nums, key=lambda k: _order_key(unpack_exponent(k, width)))

    def leading(self) -> tuple[Exponent, Rat]:
        """Leading (exponent, coefficient) in graded-lex order; zero poly is an error."""
        key = self._leading_key()
        return unpack_exponent(key, self.l + self.n), Fraction(self.nums[key], self.den)

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[self._leading_key()] == self.den

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and 0 in self.nums)

    def as_scalar(self) -> Rat | None:
        """The constant value if this poly is constant, else None."""
        if self.is_constant():
            return self.constant_term()
        return None

    def eval(self, point: Sequence) -> Rat:
        """Evaluate at a point given as l+n rationals (H-block first)."""
        vals = [Fraction(v) for v in point]
        width = self.l + self.n
        if len(vals) != width:
            raise StructureError("evaluation point has wrong length")
        total = Fraction(0)
        for key, c in self.nums.items():
            term = c
            for e, v in zip(unpack_exponent(key, width), vals):
                if e:
                    term *= v**e
            total += term
        return total / self.den

    # -- variable shifts ---------------------------------------------------

    def shift(self, deltas: Sequence[int]) -> "Poly":
        """Substitute every variable v_p by v_p - deltas[p] (binomial expansion);
        StructureError on an entry that is not an int (a bool is one)."""
        if len(deltas) != self.l + self.n:
            raise StructureError("shift vector has wrong length")
        # checked here, not in _moved: its cache finds the entry made for
        # Fraction(1, 2) when asked for 0.5, and the one made for 1 for 1.0
        for d in deltas:
            if not isinstance(d, int):
                raise StructureError(f"shift amount {d!r} is not an integer")
        moved = _moved(tuple(deltas))
        if not moved:
            return self
        # an integer shift keeps the content of the numerators: no gcd to divide out
        return Poly._raw(self.l, self.n, self.den, _nonzero(_shift_nums(self.nums, moved)))

    # -- text form ---------------------------------------------------------

    def text(self) -> str:
        if not self.nums:
            return "0"
        den = self.den
        names = _var_names(self.l, self.n)
        chunks: list[str] = []
        for exp, v in self._unpacked():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
            mag = abs(v)
            body = "*".join(factors if mag == den and factors
                            else [_rat_text(mag, den)] + factors)
            if not chunks:
                chunks.append(body if v > 0 else "-" + body)
            else:
                chunks.append(("+ " if v > 0 else "- ") + body)
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


@lru_cache(maxsize=64)
def _var_names(l: int, n: int) -> tuple[str, ...]:
    """The names of the variables of ranks (l, n), in exponent-slot order."""
    return tuple([f"H{i}" for i in range(1, l + 1)] + [f"d{j}" for j in range(1, n + 1)])


def _rat_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from the integers, or a
    DomainError when it has more digits than Python prints."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise DomainError(
            f"coefficient exceeds the {sys.get_int_max_str_digits()}-digit limit"
            " for integer string conversion"
        ) from exc


def _over_common_denominator(values: dict) -> tuple[int, dict]:
    """(D, {key: c * D}) over the nonzero values c (ints or Fractions) of a
    map, with D the lcm of their denominators."""
    den = lcm(*[c.denominator for c in values.values()])
    return den, {k: c.numerator * (den // c.denominator) for k, c in values.items() if c}


def _nonzero(nums: dict[int, int]) -> dict[int, int]:
    """The entries of an accumulated numerator map that did not cancel."""
    return {e: v for e, v in nums.items() if v}


# -- the integer kernel: one binomial-expansion loop, one product loop -------


@lru_cache(maxsize=4096)
def _moved(deltas: Shift) -> tuple[tuple[int, int], ...]:
    """The (bit offset of the slot, delta) pairs of a shift vector with a
    nonzero delta."""
    return tuple((SLOT_BITS * pos, dlt) for pos, dlt in enumerate(deltas) if dlt)


@lru_cache(maxsize=256)
def _shift_row(s: int, e: int, dlt: int) -> tuple[tuple[int, int], ...]:
    """((e - j) << s, comb(e, j) * (-dlt)^(e - j)) for j = 0 .. e: the key
    decrement and the integer coefficient of v^j in (v - dlt)^e, for the slot
    at bit offset s.

    The row is built from j = e down, with comb(e, j - 1) = comb(e, j) j /
    (e - j + 1) and one more factor -dlt each step: O(e) integer products."""
    row = []
    c, power = 1, 1
    for j in range(e, -1, -1):
        row.append(((e - j) << s, c * power))
        c = c * j // (e - j + 1)
        power *= -dlt
    row.reverse()
    return tuple(row)


def _shift_nums(nums: dict[int, int], moved: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Integer numerators of the shift by ``moved`` of the terms ``nums``,
    some of them possibly zero.  The slots are moved one at a time, each
    into a fresh map, so like terms merge before the next slot expands them."""
    for s, dlt in moved:
        out: dict[int, int] = {}
        for key, c in nums.items():
            e = key >> s & MAX_SLOT_EXPONENT
            if not e:
                out[key] = out.get(key, 0) + c
                continue
            for drop, w in _shift_row(s, e, dlt):
                k = key - drop
                out[k] = out.get(k, 0) + c * w
        nums = out
    return nums


def _mul_into(out: dict[int, int], nums_a: dict[int, int], nums_b: dict[int, int],
              sign: int = 1) -> None:
    """Accumulate ``sign`` times the product of two integer term maps into
    ``out``; the caller has run ``_check_products`` on their keys (for
    f * T_u(p), on the keys of f and p, which bound those of T_u(p) slot by
    slot)."""
    items_b = nums_b.items()
    for ka, ca in nums_a.items():
        ca *= sign
        for kb, cb in items_b:
            key = ka + kb
            out[key] = out.get(key, 0) + ca * cb


# -- shift operators ---------------------------------------------------------


class ShiftOperator:
    """A finite sum  sum_u f_u T_u  with T_u(p) = p.shift(u) and polynomial f_u.

    These are the elements of the skew group ring of Q[H, d] over the shift
    group Z^(l+n).  Shifts compose additively and move a coefficient past
    themselves by shifting it:  (f T_u)(g T_v) = f * T_u(g) * T_(u+v), so
    composition and commutators are exact in closed form and equal
    operators act equally on every polynomial.  ``terms`` maps each shift
    (a width-(l+n) tuple) to its nonzero coefficient of ranks (l, n); the
    constructor refuses any other, and an operator is never mutated after
    construction.  Operators of different ranks never mix: ``compose``,
    ``bracket``, ``+`` and ``-`` raise StructureError, as ``apply`` does.

    The commutator is one pass per pair of terms, not two compositions and
    a difference: with F, G the numerators of f, g, the coefficient
    [f T_u, g T_v] = (f * T_u(g) - g * T_v(f)) T_(u+v) is accumulated as
    F * T_u(G) - G * T_v(F) into one integer map over den(f) * den(g) and
    reduced once, when it is nonzero.  ``compose`` runs the same term
    product without the second half.
    """

    __slots__ = ("l", "n", "terms", "_plan")

    def __init__(self, l: int, n: int, terms: dict[Shift, Poly] | None = None):
        clean: dict[Shift, Poly] = {}
        for u, f in (terms or {}).items():
            u = tuple(u)
            if len(u) != l + n:
                raise StructureError(f"shift {u} has the wrong length for ranks ({l},{n})")
            for d in u:  # before _moved and _shift_row cache it, as in Poly.shift
                if not isinstance(d, int):
                    raise StructureError(f"shift amount {d!r} is not an integer")
            if (f.l, f.n) != (l, n):
                raise StructureError(f"coefficient ranks {f.ranks} do not match {(l, n)}")
            if f.nums:
                clean[u] = f
        _set(self, "l", l)
        _set(self, "n", n)
        _set(self, "terms", clean)
        _set(self, "_plan", None)

    def __setattr__(self, *_):
        raise AttributeError("ShiftOperator is immutable")

    @staticmethod
    def _term(u: Shift, f: Poly) -> "ShiftOperator":
        """f T_u for a nonzero f and a shift tuple of width f.l + f.n, unchecked
        (as ``Poly._raw``), with the plan of ``apply`` set."""
        op = object.__new__(ShiftOperator)
        _set(op, "l", f.l)
        _set(op, "n", f.n)
        _set(op, "terms", {u: f})
        _set(op, "_plan", (f.den, f.nums, reduce(or_, f.nums, 0), ((_moved(u), f.nums),)))
        return op

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        return (self.l, self.n) == (other.l, other.n) and self.terms == other.terms

    __hash__ = None
    _check_ranks = Poly._check_ranks  # reads only the ranks l, n of both sides

    def apply(self, p: Poly) -> Poly:
        """sum_u f_u * p.shift(u), accumulated as integers over one denominator."""
        if p.l != self.l or p.n != self.n:
            raise StructureError(f"polynomial ranks {p.ranks} do not match {(self.l, self.n)}")
        nums_p = p.nums
        if not nums_p or not self.terms:
            return Poly._raw(self.l, self.n, 1, {})
        den, keys_f, held_f, steps = self._plan or self._make_plan()
        width = self.l + self.n
        if (held_f | reduce(or_, nums_p, 0)) & _TOP_BITS[width]:
            _check_products(keys_f, nums_p, width)
        out: dict[int, int] = {}
        if len(steps) == 1:
            # one term f T_u: when f or T_u(p) is a single term, the product
            # offsets the keys of the other, which stay distinct (a shifted
            # map of one entry is one nonzero term: a shift is injective)
            ((moved, nums_f),) = steps
            shifted = _shift_nums(nums_p, moved) if moved else nums_p
            if len(shifted) == 1:
                nums_f, shifted = shifted, nums_f
            if len(nums_f) == 1:
                ((key, c),) = nums_f.items()
                return Poly._reduced(self.l, self.n, den * p.den,
                                     {k + key: v * c for k, v in shifted.items() if v})
            _mul_into(out, nums_f, shifted)
        else:
            for moved, nums_f in steps:
                _mul_into(out, nums_f, _shift_nums(nums_p, moved) if moved else nums_p)
        return Poly._reduced(self.l, self.n, den * p.den, _nonzero(out))

    def _make_plan(self) -> tuple:
        """What ``apply`` reads of the operator, made on its first call: the
        lcm D of the coefficients' denominators, their keys and the OR of
        those, and per term the moved slots of u with the numerators of f_u
        over D."""
        coeffs = self.terms.values()
        den = lcm(*[f.den for f in coeffs])
        keys_f = [k for f in coeffs for k in f.nums]
        steps = [
            (_moved(u), f.nums if f.den == den else {k: v * (den // f.den) for k, v in f.nums.items()})
            for u, f in self.terms.items()
        ]
        plan = (den, keys_f, reduce(or_, keys_f, 0), steps)
        _set(self, "_plan", plan)
        return plan

    def compose(self, other: "ShiftOperator") -> "ShiftOperator":
        """self after other: (sum f_u T_u)(sum g_v T_v) = sum f_u T_u(g_v) T_(u+v)."""
        return self._term_products(other, False)

    def bracket(self, other: "ShiftOperator") -> "ShiftOperator":
        """[self, other] = self other - other self, one integer pass per pair of terms."""
        return self._term_products(other, True)

    def _term_products(self, other: "ShiftOperator", commutator: bool) -> "ShiftOperator":
        """sum over the term pairs (f T_u, g T_v) of F * T_u(G) T_(u+v) over
        den(f) * den(g), less G * T_v(F) when ``commutator``; the exponent
        check on the keys of f and g covers both products."""
        self._check_ranks(other)
        l, n = self.l, self.n
        out: dict[Shift, Poly] = {}
        for u, f in self.terms.items():
            moved_u = _moved(u)
            for v, g in other.terms.items():
                _check_products(f.nums, g.nums, l + n)
                nums: dict[int, int] = {}
                _mul_into(nums, f.nums, _shift_nums(g.nums, moved_u) if moved_u else g.nums)
                if commutator:
                    moved_v = _moved(v)
                    _mul_into(nums, g.nums, _shift_nums(f.nums, moved_v) if moved_v else f.nums,
                              -1)
                nums = _nonzero(nums)
                if nums:
                    term = Poly._reduced(l, n, f.den * g.den, nums)
                    w = tuple(map(add, u, v))
                    out[w] = out[w] + term if w in out else term
        return ShiftOperator(l, n, out)

    def __add__(self, other: "ShiftOperator") -> "ShiftOperator":
        self._check_ranks(other)
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


def _h_position(i: int, p: Poly) -> int:
    """The slot of H_i in p's exponent tuples, with the errors of
    ``VarId("H", i).position(p.l, p.n)`` and no VarId built."""
    if i < 1:
        raise StructureError(f"variable index must be positive, got {i}")
    if i > p.l:
        raise StructureError(f"H{i} out of range for l={p.l}")
    return i - 1


def shift_sigma(i: int, k: int, p: Poly) -> Poly:
    """Apply sigma_i^k: H_i -> H_i - k."""
    deltas = [0] * (p.l + p.n)
    deltas[_h_position(i, p)] = k
    return p.shift(deltas)


def shift_tau(a: Sequence[int], p: Poly) -> Poly:
    """Apply tau^a: d_j -> d_j - a_j for each j."""
    if len(a) != p.n:
        raise StructureError(f"tau vector length {len(a)} != n={p.n}")
    return p.shift([0] * p.l + list(a))


def deg_in(v: VarId, p: Poly) -> int:
    """Highest exponent of v in p; -1 when p = 0."""
    s = SLOT_BITS * v.position(p.l, p.n)
    if not p.nums:
        return -1
    return max([key >> s & MAX_SLOT_EXPONENT for key in p.nums])


def shift_difference(mode: str, k: int, i: int, p: Poly) -> Poly:
    """Difference operators built from w_i = sigma_i.

    mode "power_minus_id":  (sigma_i^k - Id)(p), k != 0
    mode "difference_power": (sigma_i - Id)^k (p), k >= 0
    """
    if not isinstance(k, int):
        raise StructureError(f"shift amount {k!r} is not an integer")
    if mode == "power_minus_id":
        if k == 0:
            raise DomainError("power_minus_id requires k != 0")
        return shift_sigma(i, k, p) - p
    if mode == "difference_power":
        if k < 0:
            raise DomainError("difference_power requires k >= 0")
        # one pass: c * H_i^e goes to c times the row of (sigma_i - Id)^k H_i^e,
        # which is zero for e < k
        s = SLOT_BITS * _h_position(i, p)
        out: dict[int, int] = {}
        for key, c in p.nums.items():
            e = key >> s & MAX_SLOT_EXPONENT
            if e >= k:
                rest = key - (e << s)
                for j, w in enumerate(_difference_row(e, k)):
                    jkey = rest + (j << s)
                    out[jkey] = out.get(jkey, 0) + c * w
        return Poly._reduced(p.l, p.n, p.den, _nonzero(out))
    raise StructureError(f"unknown shift_difference mode {mode!r}")


@lru_cache(maxsize=1024)
def _difference_row(e: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of v^0 .. v^(e-k) in (sigma - Id)^k v^e, sigma: v -> v - 1.

    (sigma - Id)^k = sum_t comb(k, t) (-1)^(k-t) sigma^t and sigma^t v^e =
    sum_j comb(e, j) (-t)^(e-j) v^j; the coefficient of v^j vanishes for
    j > e - k, and that of v^(e-k) is (-1)^k e!/(e-k)!, so the degree drops
    by exactly k.
    """
    signed = [comb(k, t) * (-1) ** (k - t) for t in range(k + 1)]
    return tuple(
        comb(e, j) * sum(s * (-t) ** (e - j) for t, s in enumerate(signed))
        for j in range(e - k + 1)
    )


def try_divide(q: Poly, p: Poly) -> Poly | None:
    """Return q / p when p divides q exactly, else None.

    Fraction-free division of the numerators: with N_q, N_p the numerator
    polynomials, it keeps s * N_q = quot * N_p + rem in integers, and when
    the leading coefficient of N_p does not divide that of rem, it first
    multiplies s, quot and rem by the missing factor.  Then q / p =
    quot * den(p) / (s * den(q)).  The leading monomial of N_p divides that
    of rem iff their key difference is non-negative and borrows across no
    slot boundary.
    """
    q._check_ranks(p)
    if p.is_zero():
        raise DomainError("division by zero polynomial")
    if q.is_zero():
        return Poly.zero(q.l, q.n)
    width = q.l + q.n
    top_bits = _TOP_BITS[width]
    # the lowest bit of every slot but the first: a borrow into one of them
    # is a slot that went negative
    boundaries = top_bits << 1 & ~(1 << SLOT_BITS * width)
    lead_key = p._leading_key()
    lead = p.nums[lead_key]
    tail = {k: c for k, c in p.nums.items() if k != lead_key}
    tail_top = reduce(or_, tail, 0) & top_bits
    s = 1
    quot: dict[int, int] = {}
    rem = dict(q.nums)
    while rem:
        # rem -= c * x^diff * N_p; its leading term cancels exactly
        rkey = max(rem, key=lambda k: _order_key(unpack_exponent(k, width)))
        diff = rkey - lead_key
        if diff < 0 or (rkey ^ lead_key ^ diff) & boundaries:
            return None
        if tail_top or diff & top_bits:
            _check_products((diff,), tail, width)
        r = rem.pop(rkey)
        g = gcd(r, lead)
        c, m = (r // g, lead // g) if lead > 0 else (-r // g, -lead // g)
        if m != 1:
            s *= m
            rem = {k: v * m for k, v in rem.items()}
            quot = {k: v * m for k, v in quot.items()}
        quot[diff] = c
        for k, pc in tail.items():
            key = k + diff
            x = rem.get(key, 0) - c * pc
            if x:
                rem[key] = x
            else:
                rem.pop(key, None)
    return Poly._reduced(q.l, q.n, s * q.den, {k: v * p.den for k, v in quot.items()})


def divides(p: Poly, q: Poly) -> bool:
    """True iff p divides q exactly."""
    return try_divide(q, p) is not None
