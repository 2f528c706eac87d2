"""Positivity, move, declaration, census and group failures end as
typed McgErrors.

``NotPositive``, ``InvalidMove``, ``MoveOutOfRange``,
``InvalidDeclaration``, ``InvalidCensus``, ``NotRealizable`` and
``InvalidGroup`` each derive from ``McgError`` and from the builtin
they replace, with the messages
of before, so ``except ValueError`` / ``except IndexError`` callers,
``replay_script``'s among them, keep working.  ``full_report`` and
``factorization_signature`` refuse a non-positive word before they read
any class.
"""

import pytest

from mcgcalc import meyer, symplectic as sp
from mcgcalc.errors import (
    InvalidCensus,
    InvalidDeclaration,
    InvalidGroup,
    InvalidMove,
    McgError,
    MoveOutOfRange,
    NotARelator,
    NotPositive,
    NotRealizable,
    ParseError,
    ScriptError,
    SystemMismatch,
    UnknownClass,
)
from mcgcalc.moves import (
    DerivationScript,
    Elem,
    _require_positive,
    elementary_transformation,
    replay_script,
    rotate,
    simultaneous_conjugation,
    substitute,
)
from mcgcalc.parser import parse_system, parse_word
from mcgcalc.reports import betti_summary, euler_characteristic, full_report
from mcgcalc.symplectic import AbelianGroup
from mcgcalc.system import CurveSystem, make_relation


@pytest.fixture
def spies(monkeypatch):
    """Calls of the Meyer tau step and of the class table."""
    calls = {"tau": 0, "classes": 0}

    def spy(name, module, attr):
        real = getattr(module, attr)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, attr, counting)

    spy("tau", meyer, "_transvection_tau")
    spy("classes", sp, "_class_table")
    return calls


def test_full_report_refuses_a_non_positive_relator_before_any_class(g2, spies):
    w = parse_word(g2, "[c1]c2 c1") * ~parse_word(g2, "c1 c2")
    assert sp.is_homological_relator(g2, w)
    spies["classes"] = 0
    with pytest.raises(NotPositive) as info:
        full_report(g2, w)
    assert isinstance(info.value, McgError) and isinstance(info.value, ValueError)
    assert str(info.value) == "euler characteristic needs a positive word"
    assert spies == {"tau": 0, "classes": 0}
    with pytest.raises(NotPositive, match="^euler characteristic needs a positive word$"):
        euler_characteristic(g2, w)
    with pytest.raises(NotPositive, match="^move requires a positive word$") as info:
        _require_positive(w)
    assert isinstance(info.value, ValueError)
    with pytest.raises(NotPositive):
        elementary_transformation(w, 1, "L")


def test_factorization_signature_refuses_a_non_positive_word_before_any_class(g2, g3, spies):
    # k is null-homologous, so k c1 k^-1 c1^-1 acts as I; the walk would
    # count k and k^-1 as -1 each and return -2
    w = g2.word(["k", "c1", ("k", -1), ("c1", -1)])
    assert sp.is_homological_relator(g2, w)
    spies.update(tau=0, classes=0)
    with pytest.raises(NotPositive, match="^signature needs a positive word$") as info:
        meyer.factorization_signature(g2, w)
    assert isinstance(info.value, ValueError)
    assert spies == {"tau": 0, "classes": 0}
    # a word of another system is refused first, as by euler_characteristic
    with pytest.raises(SystemMismatch):
        meyer.factorization_signature(g3, w)
    # an opaque inverse letter, which would raise UnknownClass on a positive word
    with pytest.raises(NotPositive):
        meyer.factorization_signature(g3, g3.word(["c1", ("x1", -1)]))
    assert spies == {"tau": 0, "classes": 0}


@pytest.mark.parametrize("text, before", [
    ("c1 x1", UnknownClass),  # opaque, and not a relator
    ("c1 c2", NotARelator),
])
def test_positivity_is_checked_first(g3, spies, text, before):
    # the error the word gets when positive, and NotPositive with an
    # inverse letter, whatever else is wrong with it
    w = parse_word(g3, text)
    with pytest.raises(before):
        full_report(g3, w)
    spies.update(tau=0, classes=0)
    with pytest.raises(NotPositive):
        full_report(g3, w * ~parse_word(g3, "c3"))
    assert spies == {"tau": 0, "classes": 0}


def test_move_errors_are_typed_with_their_builtin(g2):
    rho = g2.words["rho"]
    with pytest.raises(MoveOutOfRange) as info:
        elementary_transformation(rho, 99, "L")
    assert isinstance(info.value, McgError) and isinstance(info.value, IndexError)
    assert str(info.value) == "elementary transformation index 99 out of range"
    with pytest.raises(InvalidMove, match="^direction must be 'L' or 'R', got 'X'$") as info:
        elementary_transformation(rho, 1, "X")
    assert isinstance(info.value, ValueError)
    la = g2.relations["LA"]
    with pytest.raises(MoveOutOfRange, match="^substitution position 99 out of range$") as info:
        substitute(g2, rho, la, 99, "fwd")
    assert isinstance(info.value, IndexError)
    with pytest.raises(InvalidMove, match="^direction must be 'fwd' or 'rev', got 'up'$"):
        substitute(g2, rho, la, 1, "up")


@pytest.mark.parametrize("step, message", [
    (Elem(99, "L"), "elementary transformation index 99 out of range"),
    (Elem(1, "X"), "direction must be 'L' or 'R', got 'X'"),
    ("a move of no kind", "unknown move 'a move of no kind'"),
])
def test_replay_turns_move_errors_into_script_errors(g2, step, message):
    script = DerivationScript("s", "rho", (step,))
    with pytest.raises(ScriptError) as info:
        replay_script(g2, script)
    assert (info.value.step, str(info.value)) == (1, f"step 1 ({step}): {message}")
    assert isinstance(info.value.__cause__, (MoveOutOfRange, InvalidMove))


def test_every_move_refuses_a_non_positive_word_as_not_positive(g2):
    w = g2.word([("c1", -1), "c2"])
    for move in (lambda: elementary_transformation(w, 1, "R"),
                 lambda: simultaneous_conjugation(w, g2.word(["c1"])),
                 lambda: rotate(w, 1),
                 lambda: substitute(g2, w, g2.relations["LA"], 1, "fwd")):
        with pytest.raises(NotPositive, match="^move requires a positive word$"):
            move()


@pytest.mark.parametrize("cls, builtin", [
    (NotPositive, ValueError),
    (InvalidMove, ValueError),
    (MoveOutOfRange, IndexError),
    (InvalidDeclaration, ValueError),
    (InvalidCensus, ValueError),
    (NotRealizable, ValueError),
    (InvalidGroup, ValueError),
])
def test_each_typed_builtin_error_is_both(cls, builtin):
    assert issubclass(cls, McgError) and issubclass(cls, builtin)


def declared_twice(system):
    c1 = system.word(["c1"])
    return [
        (lambda: CurveSystem(1), "genus must be at least 2"),
        (lambda: system.add_curve("c1", (1, 0, 0, 0)), "curve 'c1' already declared"),
        (lambda: system.add_disjoint("c1", "c1"), "disjoint pair must name two distinct curves, got 'c1'"),
        (lambda: system.add_meet1("c2", "c2"), "meet1 pair must name two distinct curves, got 'c2'"),
        (lambda: system.add_septype("k", 1), "septype 'k' already declared"),
        (lambda: system.add_relation(
            make_relation("braid", "BR", system.letter("c1"), system.letter("c2"))),
         "relation 'BR' already declared"),
        (lambda: system.add_word("w", c1), "word 'w' already declared"),
        (lambda: system.letter("c2", [("c1", 0)]), "conjugator exponent must be nonzero"),
    ]


def test_declaration_errors_are_typed_with_their_builtin():
    system = parse_system(
        "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve k = 0\nmeet1 c1 c2\n"
        "septype k 1\nbraid BR : c1 c2\nword w = c1 c2\n")
    for call, message in declared_twice(system):
        with pytest.raises(InvalidDeclaration) as info:
            call()
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("text, message", [
    ("curve c1 = a1\ncurve c1 = b1\n", "line 4: curve 'c1' already declared"),
    ("curve c1 = a1\ndisjoint c1 c1\n", "line 4: disjoint pair must name two distinct curves, got 'c1'"),
    ("curve k = 0\nseptype k 1\nseptype k 1\n", "line 5: septype 'k' already declared"),
    ("curve c1 = a1\nword w = c1\nword w = c1\n", "line 5: word 'w' already declared"),
    ("curve c1 = a1\ncurve c2 = b1\nbraid B : c1 c2\nbraid B : c1 c2\n",
     "line 6: relation 'B' already declared"),
])
def test_parser_still_turns_declaration_errors_into_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_system("# a system\ngenus 2\n" + text)
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, InvalidDeclaration)


@pytest.mark.parametrize("args, message", [
    ((1, 0), "need g >= 2 and nonnegative counts"),
    ((2, -1), "need g >= 2 and nonnegative counts"),
    ((2, 1, {2: 1}), "bad separating census entry h=2, count=1"),
    ((3, 1, {1: -1}), "bad separating census entry h=1, count=-1"),
])
def test_census_errors_are_typed_with_their_builtin(args, message):
    with pytest.raises(InvalidCensus) as info:
        meyer.hyperelliptic_signature(*args)
    assert str(info.value) == message and isinstance(info.value, ValueError)


def test_unrealizable_pair_is_typed_with_its_builtin():
    with pytest.raises(NotRealizable) as info:
        betti_summary(3, 0)
    assert str(info.value) == "(e, sigma) = (3, 0) is not realizable with b1 = 0"
    assert isinstance(info.value, ValueError)
    assert betti_summary(8, -4) == (1, 5)


@pytest.mark.parametrize("args, message", [
    ((-1,), "bad abelian group data"),
    ((0, (1,)), "bad abelian group data"),
    ((0, (2, 3)), "torsion coefficients must form a divisibility chain"),
])
def test_group_errors_are_typed_with_their_builtin(args, message):
    with pytest.raises(InvalidGroup) as info:
        AbelianGroup(*args)
    assert str(info.value) == message and isinstance(info.value, ValueError)
