"""Exception types and the immutable-value base shared across the package."""

from __future__ import annotations

from operator import attrgetter


class StructureError(ValueError):
    """Structurally invalid input: rank mismatch, bad index, malformed literal."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (e.g. k = 0 shift power)."""


class ClassificationError(RuntimeError):
    """A black-box module failed one of the classification requirements.

    ``violated`` names the broken requirement:

    * ``"cartan-freeness"``      -- a Cartan generator does not act by multiplication
    * ``"center-annihilation"``  -- some graded central element does not kill 1
    * ``"loop-scaling"``         -- X(a).1 is not lambda^a * (X.1)
    * ``"shift-scalar-consistency"`` -- the per-direction scalars disagree across rows
    * ``"witt-scalar-consistency"``  -- derivation sector inconsistent with loop sector
    * ``"generator-pattern"``    -- x_i.1 / y_i.1 match no admissible factor pattern
    """

    def __init__(self, violated: str, details: str = ""):
        self.violated = violated
        self.details = details
        msg = violated if not details else f"{violated}: {details}"
        super().__init__(msg)


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``_fields`` (and in its
    ``__slots__``) and sets each once in ``__init__`` through
    ``object.__setattr__``.  Equality and hashing compare the field values,
    ``repr`` lists them, and any later assignment raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # instance -> tuple of field values

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def _cached_hash(self):
        # the __hash__ of a subclass with a ``_hash`` slot outside _fields,
        # set to None in __init__: the fields are immutable, so it is computed once
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the
        # fields in _fields order
        return type(self), self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
