"""The plain value base: construction, equality, hashing, frozen fields,
weak references, cached properties and pickling, on the package's own
value classes."""

import functools
import pickle
import weakref

import pytest

from helb import bfv, ipmatch
from helb.value import Value


class Pair(Value, frozen=True):
    left: int
    right: int = 7

    @functools.cached_property
    def total(self) -> int:
        return self.left + self.right


class Twin(Value, frozen=True):
    left: int
    right: int = 7


def test_fields_are_the_annotations_in_order():
    assert Pair.FIELDS == ("left", "right")
    assert ipmatch.MatchResult.FIELDS == ("matched", "entry_id", "differences",
                                          "stats", "seconds")
    assert bfv.BfvParams.FIELDS == ("ring_dim", "plaintext_mod", "ciphertext_mod",
                                    "err_stddev")


def test_positional_keyword_and_default_construction_agree():
    assert Pair(1, 7) == Pair(1) == Pair(left=1) == Pair(right=7, left=1)
    assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 3), {}), ((), {}), ((1,), {"left": 2}), ((1,), {"middle": 2})],
    ids=["too_many", "missing", "repeated", "unknown"])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_equality_is_type_strict():
    assert Pair(1, 2) != Twin(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair(1, 2) != Pair(1, 3)


def test_frozen_instances_refuse_assignment_and_hash():
    pair = Pair(1, 2)
    with pytest.raises(AttributeError):
        pair.left = 3
    with pytest.raises(AttributeError):
        del pair.right
    assert pair.left == 1
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2


def test_mutable_instances_are_unhashable_and_assignable():
    result = ipmatch.MatchResult(False, None, None, {}, {})
    result.entry_id = 3
    assert result.entry_id == 3
    with pytest.raises(TypeError):
        hash(result)


def test_weak_references_cached_properties_and_pickling():
    pair = Pair(1, 2)
    assert weakref.ref(pair)() is pair
    assert pair.total == 3 and pair.__dict__["total"] == 3
    copy = pickle.loads(pickle.dumps(pair))
    assert copy == pair and copy.total == 3
    with pytest.raises(AttributeError):
        copy.left = 5


def test_repr_names_the_fields():
    assert repr(Pair(1, 2)) == "Pair(left=1, right=2)"
