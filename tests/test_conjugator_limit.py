"""The moves refuse a conjugator they cannot build, before normalizing it.

``words.twist_conjugate_letter(W, c)`` refuses a letter c that names a
curve W's system does not declare (``UnknownCurve``), and it and
``push_forward_word`` refuse a flattened conjugator longer than
``words.MAX_WORD_LETTERS`` twists (``ConjugatorTooLong``, also a
ValueError, so a script step that builds one fails with its index).  A
spy on ``words.normalize_conjugator`` pins that a refused call never
reaches normalization; the tests lower the limit through monkeypatch.
``CurveSystem.letter`` refuses the same way, at the real limit, before
an exponent that passes it expands.
"""

import pytest

from mcgcalc import fixture_path, parser, words
from mcgcalc import system as system_mod
from mcgcalc.cli import run_command
from mcgcalc.errors import (
    ConjugatorTooLong,
    InvalidDeclaration,
    McgError,
    ScriptError,
    UnknownCurve,
)
from mcgcalc.moves import elementary_transformation, replay_script, simultaneous_conjugation
from mcgcalc.parser import parse_scripts
from mcgcalc.words import Letter, push_forward_word, twist_conjugate_letter


@pytest.fixture
def normalized(monkeypatch):
    """The bases the words module normalizes a conjugator over."""
    seen = []
    real = words.normalize_conjugator

    def spy(system, pairs, base):
        seen.append(base)
        return real(system, pairs, base)

    monkeypatch.setattr(words, "normalize_conjugator", spy)
    return seen


def test_parser_reads_the_one_limit():
    assert parser.MAX_WORD_LETTERS == words.MAX_WORD_LETTERS == 100_000


def test_letter_of_another_system_is_refused(g2, g3, normalized):
    # c7 is a genus-3 curve; genus2_chain.mcg declares c1 .. c5
    with pytest.raises(UnknownCurve, match="curve 'c7' is not declared"):
        twist_conjugate_letter(g2.words["rho"], g3.letter("c7"))
    # the base is checked first, then the conjugator in order
    with pytest.raises(UnknownCurve, match="curve 'c6' is not declared"):
        twist_conjugate_letter(g2.words["rho"], Letter((("c1", 1), ("c6", -1), ("c7", 1)), "c3"))
    assert normalized == []
    assert twist_conjugate_letter(g2.word(["c2"]), g3.letter("c1")) == g2.letter("c1", [("c2", 1)])


def test_long_conjugator_is_refused_before_normalizing(g2, monkeypatch, normalized):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 3)
    w = g2.words["rho"]
    four, three = g2.word(["c1", "c2", "c3", "c4"]), g2.word(["c1", "c2", "c3"])
    with pytest.raises(ConjugatorTooLong, match="conjugator of 4 twists expands past 3 twists"):
        simultaneous_conjugation(w, four)
    with pytest.raises(ConjugatorTooLong):
        push_forward_word(four, w)
    with pytest.raises(ConjugatorTooLong):
        twist_conjugate_letter(four, g2.letter("c5"))
    # a letter's own conjugator counts: [c1 c2 c3]([c2]c1) has 4 twists
    with pytest.raises(ConjugatorTooLong, match="conjugator of 4 twists"):
        twist_conjugate_letter(three, g2.letter("c1", [("c2", 1)]))
    assert normalized == []
    # at the limit both go through, one normalization per distinct letter
    assert len(simultaneous_conjugation(w, three)) == len(w)
    assert len(normalized) == len(set(w.letters))
    assert issubclass(ConjugatorTooLong, McgError) and issubclass(ConjugatorTooLong, ValueError)


def test_elementary_move_refuses_before_normalizing(g2, monkeypatch, normalized):
    # (x, y) -> (y, [y^-1]x): with y = [c1 c2]c3, the conjugator of x is
    # the 5 flattened twists of y^-1
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 4)
    y = g2.letter("c3", [("c1", 1), ("c2", 1)])
    w = g2.word([g2.letter("c4"), y])
    with pytest.raises(ConjugatorTooLong, match="conjugator of 5 twists"):
        elementary_transformation(w, 1, "R")
    assert normalized == []
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 5)
    elementary_transformation(w, 1, "R")
    assert normalized == ["c4"]


SCRIPT = "script grow on rho:\n  elem 1 R\n  conj c1 c2 c3 c4\n"


def test_refused_step_is_a_script_error(g2, tmp_path, monkeypatch, normalized, capsys):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 3)
    script = parse_scripts(SCRIPT, g2)["grow"]
    with pytest.raises(ScriptError, match="conjugator of 4 twists") as info:
        replay_script(g2, script)
    assert (info.value.step, info.value.move) == (2, str(script.steps[1]))
    assert normalized == ["c5"]  # step 1's one conjugated letter, nothing of step 2
    path = tmp_path / "grow.script"
    path.write_text(SCRIPT)
    assert run_command(["replay", str(fixture_path("genus2_chain.mcg")), str(path)]) == 1
    assert "replay failed at step 2" in capsys.readouterr().err


def test_letter_refuses_a_long_conjugator_before_it_expands(g2, monkeypatch):
    seen = []
    real = system_mod.normalize_conjugator
    monkeypatch.setattr(system_mod, "normalize_conjugator", lambda system, pairs, base:
                        seen.append(len(pairs)) or real(system, pairs, base))
    limit = words.MAX_WORD_LETTERS
    # c2 meets c1 once, so the normal form would keep every twist
    with pytest.raises(ConjugatorTooLong,
                       match=f"^conjugator of {limit + 1} twists expands past {limit} twists$"):
        g2.letter("c1", [("c2", limit + 1)])
    # refused at the pair that passes the limit, before it expands into a
    # list of 10^12 pairs
    with pytest.raises(ConjugatorTooLong, match=f"^conjugator of {10**12} twists"):
        g2.letter("c1", [("c2", 10**12)])
    with pytest.raises(ConjugatorTooLong, match=f"^conjugator of {limit + 1} twists"):
        g2.letter("c1", [("c3", 1), ("c2", -limit)])
    # the count and the zero-exponent check run over the pairs in order
    with pytest.raises(InvalidDeclaration, match="exponent must be nonzero"):
        g2.letter("c1", [("c2", 0), ("c2", 10**12)])
    with pytest.raises(ConjugatorTooLong):
        g2.letter("c1", [("c2", 10**12), ("c2", 0)])
    assert seen == []
    # exactly at the limit the letter is built: c3 is disjoint from c1, so
    # all its twists drop out of the normal form
    assert g2.letter("c1", [("c3", limit)]) == g2.letter("c1")
    assert seen == [limit]
