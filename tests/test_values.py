"""The value types: immutable, equal by type and fields, pickled by constructor.

Each case is (an instance, an equal twin, the same type with one field
changed, its repr, whether it hashes).  The reprs are those the frozen
dataclasses these types replaced printed.  FactoredInteger is an int, not
a _Value, and has its own test at the end.
"""

import json
import pickle
from math import inf

import pytest

from lehmer_congruences.arith import FactoredInteger, Residue, factorize
from lehmer_congruences.errors import PreconditionError
from lehmer_congruences.report import CongruenceReport, IdentityId
from lehmer_congruences.sums import HALF, SumSpec
from lehmer_congruences.verifier import IdentitySpec


def _lemma1_report(rhs: int) -> CongruenceReport:
    return CongruenceReport(
        IdentityId.LEMMA_1, {"p": 5, "alpha": 1}, 25, Residue(4, 25),
        Residue(rhs, 25), True, valuation=inf, required=2,
    )


def _spec(d: int | None) -> IdentitySpec:
    # builtins pickle by reference, unlike the lambdas of the identity table
    return IdentitySpec(("n",), max, len, print, None, d=d)


# subclasses that add no slots, defined here so that pickle finds them by name
class SubResidue(Residue):
    __slots__ = ()


class SubSumSpec(SumSpec):
    __slots__ = ()


class SubCongruenceReport(CongruenceReport):
    __slots__ = ()


class SubIdentitySpec(IdentitySpec):
    __slots__ = ()


SUBCLASSES = {
    Residue: SubResidue, SumSpec: SubSumSpec,
    CongruenceReport: SubCongruenceReport, IdentitySpec: SubIdentitySpec,
}

CASES = [
    (Residue(3, 7), Residue(3, 7), Residue(4, 7), "Residue(rep=3, modulus=7)", True),
    (
        SumSpec(35, HALF, None, 1225),
        SumSpec(35, HALF, None, 1225),
        SumSpec(35, 3, None, 1225),
        "SumSpec(n=35, d='half', exclude_prime=None, modulus=1225)",
        True,
    ),
    (
        _lemma1_report(9), _lemma1_report(9), _lemma1_report(8),
        "CongruenceReport(identity=<IdentityId.LEMMA_1: 'lemma1'>, "
        "params={'p': 5, 'alpha': 1}, modulus=25, lhs=Residue(rep=4, modulus=25), "
        "rhs=Residue(rep=9, modulus=25), holds=True, skipped_reason=None, "
        "valuation=inf, required=2)",
        False,
    ),
    (
        _spec(None), _spec(None), _spec(3),
        "IdentitySpec(required=('n',), admissible=<built-in function max>, "
        "modulus=<built-in function len>, check=<built-in function print>, "
        "exact=None, d=None, defaults={}, bernoulli=False, left=None)",
        False,
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, twin, changed, text, hashable):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == twin


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_equal_and_hashed_by_type_and_fields(value, twin, changed, text, hashable):
    assert value == twin and not value != twin
    assert value != changed and not value == changed
    if hashable:
        assert hash(value) == hash(twin)
        assert {value, twin, changed} == {value, changed}
    else:  # a dict field, as with the dataclass
        with pytest.raises(TypeError):
            hash(value)


def _fields(value, cls: type | None = None) -> tuple:
    """value's fields, named by the __slots__ of cls (default: value's type)."""
    return tuple(getattr(value, name) for name in (cls or type(value)).__slots__)


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_other_types_never_equal(value, twin, changed, text, hashable):
    fields = _fields(value)
    subclass = SUBCLASSES[type(value)]
    assert value != fields and value != subclass(*fields)
    for other, *_ in CASES:
        if type(other) is not type(value):
            assert value != other


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_a_subclass_that_adds_no_slots_keeps_its_fields(value, twin, changed, text, hashable):
    # the field names are collected over the class chain, not from the
    # subclass's own empty __slots__
    subclass = SUBCLASSES[type(value)]
    copy, other = subclass(*_fields(value)), subclass(*_fields(changed))
    assert _fields(copy, type(value)) == _fields(value) and copy != other
    assert repr(copy) == text.replace(type(value).__qualname__, subclass.__qualname__, 1)
    unpickled = pickle.loads(pickle.dumps(copy))
    assert type(unpickled) is subclass and unpickled == copy and unpickled != other
    if hashable:
        assert hash(copy) == hash(value)


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(value, twin, changed, text, hashable):
    assert repr(value) == text


@pytest.mark.parametrize("value, twin, changed, text, hashable", CASES, ids=IDS)
def test_pickle_round_trip(value, twin, changed, text, hashable):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


def test_identity_spec_defaults_to_empty_dict():
    assert _spec("n").defaults == {}
    assert _spec("n").defaults is not _spec("n").defaults


def test_unpickled_residue_is_validated():
    class Forged:
        def __reduce__(self):
            return Residue, (7, 5)

    with pytest.raises(PreconditionError, match=r"rep must lie in \[0, 5\), got 7"):
        pickle.loads(pickle.dumps(Forged()))


TWELVE = FactoredInteger(12, ((2, 2), (3, 1)))


def test_a_factored_integer_equals_and_hashes_as_its_int():
    assert TWELVE == 12 and hash(TWELVE) == hash(12) and {TWELVE, 12} == {12}
    assert TWELVE != FactoredInteger(13, ((13, 1),)) and TWELVE < 13
    assert type(TWELVE * TWELVE) is int and TWELVE * TWELVE == 144


def test_a_factored_integer_prints_as_its_int():
    assert (str(TWELVE), repr(TWELVE), format(TWELVE, ">4"), f"{TWELVE:x}") == (
        "12", "12", "  12", "c",
    )
    assert json.dumps({"n": TWELVE}) == json.dumps({"n": 12}) == '{"n": 12}'


def test_factorize_returns_a_factored_integer_as_it_is():
    assert factorize(TWELVE) is TWELVE
    assert factorize(12) == TWELVE and factorize(12).factors == TWELVE.factors


def test_a_factored_integer_s_fields_cannot_be_assigned_or_deleted():
    for name in ("factors", "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(TWELVE, name, ())
    with pytest.raises(AttributeError, match="cannot delete field 'factors'"):
        del TWELVE.factors
    assert TWELVE.factors == ((2, 2), (3, 1))


def test_an_unpickled_factored_integer_is_validated():
    copy = pickle.loads(pickle.dumps(TWELVE))
    assert type(copy) is FactoredInteger and copy == TWELVE and copy.factors == TWELVE.factors

    class Forged:
        def __reduce__(self):
            return FactoredInteger, (12, ((2, 2),))

    with pytest.raises(PreconditionError, match="factors multiply to 4, not 12"):
        pickle.loads(pickle.dumps(Forged()))
