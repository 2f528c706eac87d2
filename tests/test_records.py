"""The record types keep the contract of the dataclasses they replaced.

``tests/record_oracle.py`` holds the dataclass definitions.  For each of
the 13 records, drawn field values build one instance of each class,
and the two must agree on repr, equality (against the same class, a
subclass with equal fields, the other class and a plain tuple), hash or
unhashability, defaults, assignment and deletion, ``__match_args__``,
``as_dict``, ``copy.copy`` and a pickle round trip.  Where the
dataclass raises FrozenInstanceError the record raises FrozenRecord,
with the same text; both are AttributeErrors.
"""

import copy
import dataclasses
import inspect
import pickle
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc import FrozenRecord, McgError, moves, reports, symplectic, system, words
from tests import record_oracle as oracle

NEW = {
    cls.__name__: cls
    for cls in (
        words.Letter, symplectic.AbelianGroup, system.RelationDecl,
        moves.Elem, moves.Conj, moves.Rotate, moves.Subst, moves.DerivationScript,
        moves.StepRecord, moves.ReplayResult,
        reports.Census, reports.InvariantReport, reports.DeltaReport,
    )
}
OLD = {name: getattr(oracle, name) for name in NEW}
MUTABLE = {"StepRecord", "ReplayResult"}

atoms = (st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab", max_size=2)
         | st.tuples(st.integers(-2, 2)))
names = st.sampled_from(["c1", "c2", "x"])


class Sub:
    """A nested record's arguments, built with the same side's class."""

    def __init__(self, name, args):
        self.name, self.args = name, args


def census_args():
    return st.deferred(lambda: arguments("Census").map(lambda a: Sub("Census", a[0])))


def group_args():
    """A valid group: its torsion is a divisibility chain of products."""
    torsion = st.lists(st.integers(2, 4), max_size=3).map(lambda xs: tuple(accumulate(xs, mul)))
    return st.tuples(st.integers(0, 3), torsion).map(lambda a: Sub("AbelianGroup", a))


# strategies for fields that need more than an atom
FIELDS = {
    ("Letter", "conj"): st.lists(st.tuples(names, st.sampled_from([1, -1])), max_size=3).map(tuple),
    ("Letter", "base"): names,
    ("AbelianGroup", "rank"): st.integers(-1, 3),
    ("AbelianGroup", "torsion"): st.lists(st.integers(0, 12), max_size=3).map(tuple),
    ("InvariantReport", "census"): census_args(),
    ("InvariantReport", "h1"): st.none() | group_args(),
    ("InvariantReport", "flags"): st.dictionaries(st.text("ab", max_size=2), atoms, max_size=2),
    ("InvariantReport", "annotations"): st.lists(st.text("ab"), max_size=2).map(tuple),
    ("DeltaReport", "lines"): st.lists(st.text("ab"), max_size=2).map(tuple),
    ("ReplayResult", "steps"): st.lists(atoms, max_size=2),
    ("Census", "separating"): st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                                       max_size=2).map(tuple),
}


def required(name) -> int:
    return sum(p.default is p.empty for p in inspect.signature(OLD[name]).parameters.values())


@st.composite
def arguments(draw, name):
    """(positional args, whether to pass them by keyword) for ``name``."""
    fields = OLD[name].__match_args__
    k = draw(st.integers(required(name), len(fields)))
    args = tuple(draw(FIELDS.get((name, f), atoms)) for f in fields[:k])
    return args, draw(st.booleans())


def build(side, name, args, by_keyword=False):
    """The instance, or (exception type name, text) when construction raises."""
    args = [build(side, a.name, a.args) if isinstance(a, Sub) else a for a in args]
    try:
        if by_keyword:
            return side[name](**dict(zip(OLD[name].__match_args__, args)))
        return side[name](*args)
    except McgError as exc:
        return type(exc).__name__, str(exc)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def twin(cls):
    """A subclass that adds nothing: equal fields, another class."""
    return type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()} if "__slots__" in vars(cls) else {})


TWINS = {(id(side), name): twin(side[name]) for side in (NEW, OLD) for name in NEW}


@pytest.mark.parametrize("name", sorted(NEW))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_matches_its_dataclass(name, data):
    args, by_keyword = data.draw(arguments(name))
    new, old = build(NEW, name, args, by_keyword), build(OLD, name, args, by_keyword)
    if isinstance(old, tuple):  # refused data, such as a bad abelian group
        assert new == old
        return
    assert repr(new) == repr(old)
    assert new.__match_args__ == old.__match_args__
    if "__str__" in vars(OLD[name]) and name != "Conj":
        assert str(new) == str(old)

    other, _ = data.draw(arguments(name) | st.just((args, False)))
    new2, old2 = build(NEW, name, other), build(OLD, name, other)
    if not isinstance(old2, tuple):
        assert (new == new2) is (old == old2)
        assert (new != new2) is (old != old2)
    assert new != old and old != new
    assert new != tuple(args) and old != tuple(args)
    for side, obj in ((NEW, new), (OLD, old)):
        sibling = build({**side, name: TWINS[(id(side), name)]}, name, args)
        assert obj != sibling and sibling != obj

    assert hash_or_error(new) == hash_or_error(old)
    if hasattr(old, "as_dict"):
        assert new.as_dict() == old.as_dict()

    for field in old.__match_args__:
        if name in MUTABLE:
            setattr(new, field, 7)
            setattr(old, field, 7)
            assert repr(new) == repr(old)
            continue
        for act in (lambda obj: setattr(obj, field, 7), lambda obj: delattr(obj, field)):
            with pytest.raises(dataclasses.FrozenInstanceError) as old_info:
                act(old)
            with pytest.raises(FrozenRecord) as new_info:
                act(new)
            assert str(new_info.value) == str(old_info.value)
            assert isinstance(new_info.value, AttributeError)
        assert repr(new) == repr(old)

    for duplicate in (copy.copy(new), pickle.loads(pickle.dumps(new))):
        assert type(duplicate) is type(new)
        assert repr(duplicate) == repr(new) and duplicate == new
        assert hash_or_error(duplicate) == hash_or_error(new)
    shallow_new, shallow_old = copy.copy(new), copy.copy(old)
    for field in old.__match_args__:
        assert (getattr(shallow_new, field) is getattr(new, field)) is (
            getattr(shallow_old, field) is getattr(old, field))
    assert repr(pickle.loads(pickle.dumps(old))) == repr(new)


@pytest.mark.parametrize("name", sorted(NEW))
def test_init_signature_matches_the_dataclass(name):
    """Same parameters in the same order with the same defaults; a
    default factory becomes None, which builds a fresh container."""
    old = inspect.signature(OLD[name]).parameters
    new = inspect.signature(NEW[name]).parameters
    assert [(p.name, p.kind) for p in new.values()] == [(p.name, p.kind) for p in old.values()]
    for p in old.values():
        factory = p.default is dataclasses._HAS_DEFAULT_FACTORY
        assert new[p.name].default == (None if factory else p.default)


@pytest.mark.parametrize("name, args, container", [
    ("InvariantReport", (2, 20, None, 4, -12, None), "flags"),
    ("ReplayResult", (None, None, None), "steps"),
])
def test_each_instance_gets_a_fresh_container(name, args, container):
    for side in (NEW, OLD):
        a, b = side[name](*args), side[name](*args)
        assert getattr(a, container) == type(getattr(a, container))()
        assert getattr(a, container) is not getattr(b, container)
    assert repr(NEW[name](*args)) == repr(OLD[name](*args))


def test_relation_kind_is_a_frozen_record_not_a_tuple():
    kind = system.RELATION_KINDS["lantern"]
    assert repr(kind) == (
        "RelationKind(before=4, after=3, left=(0, 1, 2, 3), right=(4, 5, 6), meet=None)")
    assert kind != (4, 3, (0, 1, 2, 3), (4, 5, 6), None)
    assert kind == system.RelationKind(4, 3, (0, 1, 2, 3), (4, 5, 6), None)
    with pytest.raises(FrozenRecord, match="cannot assign to field 'meet'"):
        kind.meet = 1


def test_letter_keeps_its_cached_hash():
    letter = words.Letter((("c1", 1),), "c2")
    assert hash(letter) == hash(oracle.Letter((("c1", 1),), "c2")) == hash(((("c1", 1),), "c2"))
    assert letter._hash == hash(letter)
    assert pickle.loads(pickle.dumps(letter))._hash == letter._hash


def test_invariant_report_is_frozen_but_unhashable():
    """Its flags are a dict that callers read by key, so the report keeps
    the dict and declares no hash: ``hash`` refuses it at once, by class."""
    report = reports.InvariantReport(2, 20, reports.Census(20), 4, -12, None, flags={"spin": True})
    with pytest.raises(TypeError, match="^unhashable type: 'InvariantReport'$"):
        hash(report)
    with pytest.raises(FrozenRecord):
        report.flags = {}
    assert report.flags["spin"] is True
    assert report.as_dict()["flags"] == {"spin": True}
    assert report == reports.InvariantReport(2, 20, reports.Census(20), 4, -12, None, flags={"spin": True})
