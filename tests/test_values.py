"""The immutable value types (VarId, AlgebraDesc, Generator, ModuleSpec):
field equality and hashing, copying, coercion, immutability and validation."""

import copy
import pickle
from fractions import Fraction

import pytest

from torofree import repmods as R
from torofree.errors import StructureError
from torofree.algebras import AlgebraDesc
from torofree.polyalg import Poly, VarId
from torofree.repmods import Generator, ModuleSpec

F = Fraction


def _full_spec(cocycle=(1, F(1, 2)), b=F(2, 7)):
    # the keyword call the benchmark's workloads make
    desc = AlgebraDesc("A", 1, 2, "full", cocycle)
    return ModuleSpec(algebra=desc, lam=(2, F(3, 5)), witt_a=F(1, 3), base_a=(5,),
                      base_b=Poly.const(1, 2, b), S=frozenset({1}))


def _samples():
    """Pairs of value objects built separately from equal fields."""
    return [
        (VarId("H", 2), VarId("H", 2)),
        (AlgebraDesc("C", 2, 1, "toroidal", (0, 0)), AlgebraDesc("C", 2, 1, "toroidal")),
        (AlgebraDesc("A", 1, 2, "full", (1, F(1, 2))),
         AlgebraDesc(family="A", rank=1, loop_vars=2, variant="full",
                     cocycle=(F(1), F(2, 4)))),
        (Generator("x", 1, (1, 0)), R.parse_generator("x1(1,0)", 2)),
        (_full_spec(), _full_spec(cocycle=(F(2, 2), F(1, 2)), b=F(4, 14))),
        (ModuleSpec(AlgebraDesc("A", 0, 1, "witt"), (2,), 1),
         ModuleSpec(algebra=AlgebraDesc("A", 0, 1, "witt"), lam=[F(2)], witt_a=F(1))),
    ]


@pytest.mark.parametrize("a,b", _samples(), ids=lambda v: type(v).__name__)
def test_equal_fields_give_equal_objects_and_hashes(a, b):
    assert a is not b and a == b and not (a != b) and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(f"{type(a).__name__}(")


@pytest.mark.parametrize("a,b", _samples(), ids=lambda v: type(v).__name__)
def test_self_comparison_reads_no_fields(a, b, monkeypatch):
    reads = []
    values = type(a)._values
    monkeypatch.setattr(type(a), "_values", staticmethod(lambda v: reads.append(v) or values(v)))
    assert a == a and not (a != a) and reads == []
    # equal-but-distinct values still compare (and hash) by their fields
    assert a == b and not (a != b) and hash(a) == hash(b) and reads


@pytest.mark.parametrize("value", [a for a, _ in _samples()], ids=lambda v: type(v).__name__ + (
    "-with-base_b" if getattr(v, "base_b", None) is not None else ""))
def test_copy_and_pickle_rebuild_an_equal_value(value):
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_poly_copies_and_pickles_without_its_cached_hash():
    p = Poly.H(1, 1, 1).scale(F(10**20 + 3, 7)) - Poly.d(1, 1, 1) ** 2
    h = hash(p)
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied is not p and copied == p and copied.nums is not p.nums
        assert (copied.l, copied.n, copied.den, copied.nums) == (p.l, p.n, p.den, p.nums)
        assert not hasattr(copied, "_hash") and hash(copied) == h
    # a finite spec's b may be a polynomial in the d-variables
    b = Poly.d(1, 1, 1).scale(F(10**20 + 3, 7)) - 1
    spec = ModuleSpec(AlgebraDesc("A", 1, 1), base_a=[3], base_b=b, S=[1])
    for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and copied.base_b == b and hash(copied) == hash(spec)


def test_unequal_fields_and_other_types_compare_unequal():
    assert VarId("H", 1) != VarId("d", 1)
    assert AlgebraDesc("A", 1, 1, "toroidal") != AlgebraDesc("A", 1, 1, "full")
    assert Generator("x", 1, (1,)) != Generator("x", 1, (2,))
    assert _full_spec() != _full_spec(b=1)
    assert VarId("H", 1) != ("H", 1) and Generator("x", 1) != "x1"


def test_repr_lists_the_fields():
    assert repr(VarId("d", 2)) == "VarId(kind='d', index=2)"
    assert repr(Generator("y", 1, [1, 0])) == "Generator(kind='y', index=1, r=(1, 0))"
    assert repr(AlgebraDesc("A", 1, 1, "full", (1, 0))) == (
        "AlgebraDesc(family='A', rank=1, loop_vars=1, variant='full', "
        "cocycle=(Fraction(1, 1), Fraction(0, 1)))"
    )
    assert "_hash" not in repr(_full_spec())


def test_fields_are_coerced():
    desc = AlgebraDesc("A", 1, 1, "full", (1, 2))
    assert desc.cocycle == (F(1), F(2)) and all(type(c) is F for c in desc.cocycle)
    gen = Generator("h", 1, [F(2), -1])
    assert gen.r == (2, -1) and all(type(x) is int for x in gen.r)
    spec = ModuleSpec(AlgebraDesc("A", 1, 1, "toroidal"), lam=[2], base_a=[3], base_b=1, S=[1])
    assert spec.lam == (F(2),) and spec.base_a == (F(3),)
    assert spec.base_b == Poly.const(1, 1, 1) and spec.S == frozenset({1})


def test_algebra_desc_caches_its_hash():
    desc, twin = _samples()[2]
    assert desc._hash is None
    h = hash(desc)
    assert desc._hash == h == hash(twin) == hash(desc._values(desc))
    # the cache stays out of the fields: repr, equality and copies
    assert "_hash" not in repr(desc) and desc == twin and twin._hash == h
    for copied in (copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc))):
        assert copied == desc and hash(copied) == h and repr(copied) == repr(desc)
    assert hash(AlgebraDesc("A", 1, 2, "full", (1, F(1, 3)))) != h


@pytest.mark.parametrize("value,field", [
    (VarId("H", 1), "index"),
    (AlgebraDesc("A", 1), "rank"),
    (AlgebraDesc("A", 1, 2, "full", (1, F(1, 2))), "_hash"),
    (Generator("x", 1), "r"),
    (_full_spec(), "lam"),
    (_full_spec(), "_hash"),
])
def test_assignment_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0


A1T = AlgebraDesc("A", 1, 1, "toroidal")


@pytest.mark.parametrize("make", [
    lambda: VarId("x", 1),
    lambda: VarId("H", 0),
    lambda: AlgebraDesc("A", 1, 1, "affine"),
    lambda: AlgebraDesc("B", 2),
    lambda: AlgebraDesc("A", 1, 0, "toroidal"),
    lambda: AlgebraDesc("A", 1, -1),
    lambda: AlgebraDesc("A", 1, 1, "toroidal", (1, 0)),
    lambda: Generator("z", 1),
    lambda: ModuleSpec(AlgebraDesc("A", 1), lam=(2,), base_a=(1,)),
    lambda: ModuleSpec(A1T, lam=(2, 3), base_a=(1,)),
    lambda: ModuleSpec(A1T, lam=(0,), base_a=(1,)),
    lambda: ModuleSpec(AlgebraDesc("A", 1, 1, "full"), lam=(2,), base_a=(1,)),
    lambda: ModuleSpec(A1T, lam=(2,), witt_a=1, base_a=(1,)),
    lambda: ModuleSpec(AlgebraDesc("A", 0, 1, "witt"), lam=(2,), witt_a=1, S={1}),
    lambda: ModuleSpec(A1T, lam=(2,), base_a=(1, 1)),
    lambda: ModuleSpec(A1T, lam=(2,), base_a=(0,)),
    lambda: ModuleSpec(A1T, lam=(2,), base_a=(1,), base_b=Poly.const(1, 2, 1)),
    lambda: ModuleSpec(AlgebraDesc("A", 1), base_a=(1,), base_b=Poly.H(1, 0, 1)),
    lambda: ModuleSpec(AlgebraDesc("C", 2), base_a=(1, 1), base_b=1),
    lambda: ModuleSpec(A1T, lam=(2,), base_a=(1,), base_b=Poly.d(1, 1, 1)),
    lambda: ModuleSpec(A1T, lam=(2,), base_a=(1,), S={3}),
])
def test_validation_errors_still_fire(make):
    with pytest.raises(StructureError):
        make()


def test_equal_instances_share_a_generator_operator_cache_entry():
    spec, gen = _full_spec(), Generator("x", 1, (1, 0))
    op = R.generator_operator(spec, gen)
    hits = R.generator_operator.cache_info().hits
    twin_spec, twin_gen = _samples()[4][1], R.parse_generator("x1(1,0)", 2)
    assert twin_spec is not spec and twin_gen is not gen
    assert R.generator_operator(twin_spec, twin_gen) is op
    assert R.generator_operator.cache_info().hits == hits + 1
