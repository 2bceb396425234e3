"""The contract of the package's seven immutable value classes.

Each class compares and hashes by its fields, prints them in its ``repr``,
rebuilds through ``copy`` and ``pickle``, checks its fields on
construction and refuses assignment and deletion with ``AttributeError``.
``RelationSchema``'s derived fields are computed, never passed, and stay
out of its ``repr`` and equality.
"""

import copy
import pickle

import pytest

from cml3.gf3 import RankResult
from cml3.grassmann import GElement
from cml3.loop import LoopElement
from cml3.schemas import RelationSchema
from cml3.twowords import RegularReport
from cml3.words import DimReport, LeftNormedWord, TypeVector

ONE = GElement.one()
X0 = GElement.generator(0)
X1 = GElement.generator(1)
WORD = (1, 2)
TERMS = ((1, (("i", "j"), ("p", "q"))), (2, (("i", "p"), ("j", "q"))))


def _cases():
    """(class, fields, other fields, repr) per class; fields are built
    afresh on every call, so equal values are never the same objects."""
    return [
        (TypeVector, {"counts": (3, 1)}, {"counts": (3, 2)},
         "TypeVector(counts=(3, 1))"),
        (LeftNormedWord, {"head": 0, "tail": ((1, 2),)},
         {"head": 0, "tail": ((1, 3),)},
         "LeftNormedWord(head=0, tail=((1, 2),))"),
        (DimReport, {"n": 1, "per_type": ((TypeVector((1,)), 1, 1),),
                     "total": 1},
         {"n": 2, "per_type": ((TypeVector((1,)), 1, 2),), "total": 2},
         "DimReport(n=1, per_type=((TypeVector(counts=(1,)), 1, 1),), "
         "total=1)"),
        (RankResult, {"rank": 1, "kernel_basis": ((2, 1),),
                      "pivot_keys": ("a",)},
         {"rank": 1, "kernel_basis": ((1, 1),), "pivot_keys": ("a",)},
         "RankResult(rank=1, kernel_basis=((2, 1),), pivot_keys=('a',))"),
        (LoopElement, {"value": ONE + X0}, {"value": ONE + X1},
         "LoopElement(value=GElement(1*[1] + 1*[0]))"),
        (RelationSchema, {"name": "t", "terms": TERMS},
         {"name": "u", "terms": TERMS},
         f"RelationSchema(name='t', terms={TERMS!r})"),
        (RegularReport, {"case": TypeVector((3,)), "relation_set": "X",
                         "universe": (WORD,), "irregular": (),
                         "regular": (WORD,), "bound": 1},
         {"case": TypeVector((3,)), "relation_set": "X",
          "universe": (WORD,), "irregular": (WORD,), "regular": (),
          "bound": 0},
         "RegularReport(case=TypeVector(counts=(3,)), relation_set='X', "
         "universe=((1, 2),), irregular=(), regular=((1, 2),), bound=1)"),
    ]


CLASSES = [case[0].__name__ for case in _cases()]


def _case(name):
    (case,) = [c for c in _cases() if c[0].__name__ == name]
    return case


def test_seven_classes():
    assert len(set(CLASSES)) == 7


@pytest.mark.parametrize("name", CLASSES)
def test_equality_and_hash_follow_the_fields(name):
    cls, fields, other, _ = _case(name)
    a = cls(*fields.values())
    b = cls(**_case(name)[1])
    c = cls(**other)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1
    # a value equals only values of its own class
    assert a != tuple(fields.values())
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    for key, value in fields.items():
        assert getattr(a, key) == value


@pytest.mark.parametrize("name", CLASSES)
def test_repr_names_the_fields(name):
    cls, fields, _, text = _case(name)
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("name", CLASSES)
def test_fields_refuse_assignment(name):
    cls, fields, other, _ = _case(name)
    a = cls(**fields)
    for key in fields:
        with pytest.raises(AttributeError):
            setattr(a, key, other[key])
        with pytest.raises(AttributeError):
            delattr(a, key)
        assert getattr(a, key) == fields[key]
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert a == cls(**fields)


@pytest.mark.parametrize("name", CLASSES)
def test_copy_and_pickle_rebuild_an_equal_value(name):
    cls, fields, _, _ = _case(name)
    a = cls(**fields)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls
        assert b == a and hash(b) == hash(a)


def test_defaults():
    assert LeftNormedWord(4).tail == ()


def test_validation_errors():
    with pytest.raises(ValueError, match="negative multiplicity count"):
        TypeVector((-1,))
    with pytest.raises(ValueError, match="trailing zero in type vector"):
        TypeVector((1, 0))
    with pytest.raises(ValueError, match="total does not match"):
        DimReport(1, ((TypeVector((1,)), 1, 1),), 2)
    with pytest.raises(ValueError, match="constant term exactly 1"):
        LoopElement(X0)


def test_relation_schema_derives_its_position_fields():
    a = RelationSchema("t", TERMS)
    assert a.letters == ("i", "j", "p", "q")
    assert a.pos_terms == ((1, ((0, 1), (2, 3))), (2, ((0, 2), (1, 3))))
    assert a.pos_counts == (1, 1, 1, 1)
    for key in ("letters", "pos_terms", "pos_counts"):
        with pytest.raises(TypeError):
            RelationSchema("t", TERMS, **{key: ()})
        with pytest.raises(AttributeError):
            setattr(a, key, ())
        assert key not in repr(a)
    # the derived fields take no part in equality or hash
    b = copy.copy(a)
    object.__setattr__(b, "pos_terms", ())
    assert b == a and hash(b) == hash(a)
    assert a.pos_terms != ()
