"""The one-pass conjugator reader and the per-parse atom memo against
the token-by-token oracle in ``tests/parser_oracle.py``.

``parse_word``, the ``word`` lines of ``parse_system`` and the script
``conj`` step must return the oracle's letters, or raise a ``ParseError``
with the oracle's message, line, column and token, on well-formed and
malformed conjugator texts.  The memo may not outlive one parse, and
``CurveSystem.letter`` must still name the first undeclared curve.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgcalc.errors import ParseError, UnknownCurve
from mcgcalc.parser import (
    MAX_WORD_LETTERS, _parse_conj, _Tokens, parse_scripts, parse_system, parse_word
)
from mcgcalc.system import CurveSystem
from mcgcalc.words import Word
from tests import parser_oracle as oracle
from tests.test_incremental_replay import chain_text

# the genus-2 chain c1..c5 with its meet1 and disjoint facts, no words
HEAD = chain_text(2).rsplit("word ", 1)[0]
SYSTEM = parse_system(HEAD + "word w = c1\n")

DECLARED = ["c1", "c2", "c3", "c4", "c5"]
NAMES = DECLARED + ["zz"]
EXPONENTS = ["1", "-1", "2", "-3", "0", str(MAX_WORD_LETTERS + 1), "9" * 5000]
OTHER = ["^", "[", "]", "(", ")", "x", "5", "=>"]
TOKENS = NAMES + EXPONENTS + OTHER

# each malformed case the reader must report as the oracle does
MALFORMED_ATOMS = [
    "[c1^",
    "[c1 c2^",
    "[c1^]c2",
    "[c1^x]c2",
    "[c1^^2]c2",
    "[c1^0]c2",
    "[c1^" + "9" * 5000 + "]c2",
    f"[c1^{MAX_WORD_LETTERS + 1}]c3",
    "[c1^60000 c2^-60000]c3",
    f"[c2^-{MAX_WORD_LETTERS} c1]c3",
    "[c1 c2 c3",
    "[c1 c2 5",
    "[c1",
    "[",
    "[]c2",
    "[c1]5",
    "[c1]",
    "[c1]]c2",
    "[c1 [c2]c3]c4",
    "[5]c2",
    "[zz]c1",
    "[c1 zz zz]c9",
    "[c1]zz",
    "c1 [c1^x",
    "[c1^2]c3 [c1^2]c3 [c1^2]",
    "[c1^2]c3 [c1^2]c3 [c1^2]5",
]
MALFORMED_STEPS = [
    "",
    "c1^",
    "c1^x",
    "c1^0",
    "c1 ]",
    "[c1]",
    "5",
    "zz",
    "c1 zz c9",
    "c1^" + "9" * 5000,
    "c1^60000 c2^-60000",
    f"c2^{MAX_WORD_LETTERS + 1}",
    f"c2^{MAX_WORD_LETTERS} c1 c3",
]


def outcome(fn):
    """What ``fn`` returns, or every field of the ParseError it raises."""
    try:
        return fn()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.token)


@st.composite
def conjugator_texts(draw, names=st.sampled_from(NAMES)):
    pairs = draw(st.lists(st.tuples(names, st.sampled_from([None, "1", "-1", "2", "-3"])),
                          min_size=1, max_size=6))
    return [tok for name, exp in pairs for tok in ([name] if exp is None else [name, "^", exp])]


@st.composite
def atom_tokens(draw):
    base = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        return ["[", *draw(conjugator_texts()), "]", base]
    return [base]


def mutate(draw, toks):
    """Delete, insert or replace up to two tokens."""
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(toks)))
        how = draw(st.sampled_from(["delete", "insert", "replace"]))
        if how == "insert" or i == len(toks):
            toks.insert(i, draw(st.sampled_from(TOKENS)))
        elif how == "delete":
            del toks[i]
        else:
            toks[i] = draw(st.sampled_from(TOKENS))
    return toks


def join(draw, toks):
    # an empty separator may merge two tokens; both readers see one text
    return "".join(tok + draw(st.sampled_from([" ", " ", "", "\t"])) for tok in toks).strip()


@st.composite
def word_texts(draw):
    atoms = draw(st.lists(atom_tokens(), min_size=1, max_size=4))
    # repeat an atom so that the memo hits within one line
    atoms.append(list(draw(st.sampled_from(atoms))))
    return join(draw, mutate(draw, [tok for atom in atoms for tok in atom]))


@st.composite
def step_texts(draw):
    return join(draw, mutate(draw, draw(conjugator_texts())))


def check_word(text):
    got = outcome(lambda: parse_word(SYSTEM, text, 3).letters)
    want = outcome(lambda: Word(SYSTEM, oracle.word_body(oracle.Tokens(text, 3), SYSTEM)).letters)
    assert got == want


def check_system(lines):
    """The ``word`` lines of one file, parsed with one memo, against the
    oracle reading each line on its own."""
    text = HEAD + "".join(f"word w{k} = {line}\n" for k, line in enumerate(lines))
    first = HEAD.count("\n") + 1
    head = parse_system(HEAD)

    def expected():
        words = {}
        for k, line in enumerate(lines):
            toks = oracle.Tokens(f"word w{k} = {line}", first + k)
            toks.i = 3
            words[f"w{k}"] = Word(head, oracle.word_body(toks, head)).letters
        return words

    got = outcome(lambda: {name: w.letters for name, w in parse_system(text).words.items()})
    assert got == outcome(expected)


def check_step(text):
    script = f"script s on w:\n  conj {text}\n"
    got = outcome(lambda: parse_scripts(script, SYSTEM)["s"].steps[0].word.letters)

    def expected():
        toks = oracle.Tokens(f"  conj {text}", 2)
        toks.next()
        return Word(SYSTEM, oracle.conj_step(toks, SYSTEM)).letters

    assert got == outcome(expected)
    # the reader leaves the tokens where the oracle does, also on a raise
    fast, slow = _Tokens(text, 2), oracle.Tokens(text, 2)
    assert outcome(lambda: _parse_conj(fast)) == outcome(lambda: oracle.parse_conj(slow))
    assert fast.i == slow.i


@pytest.mark.parametrize("text", MALFORMED_ATOMS)
def test_malformed_atoms_fail_as_the_oracle_does(text):
    assert isinstance(outcome(lambda: parse_word(SYSTEM, text, 3)), tuple)
    check_word(text)
    check_system(["c1", text])


@pytest.mark.parametrize("text", MALFORMED_STEPS)
def test_malformed_conj_steps_fail_as_the_oracle_does(text):
    check_step(text)


@settings(max_examples=300, deadline=None)
@given(text=word_texts())
@example(text="[c1 c2^-1 c3]c4 c5 [c1 c2^-1 c3]c4")
def test_word_matches_oracle(text):
    check_word(text)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(word_texts(), min_size=1, max_size=3))
@example(lines=["[c1 c2^-1]c3 [c1 c2^-1]c3", "c4 [c1 c2^-1]c3", "[c1 c2^-1]c3^"])
def test_system_words_match_oracle(lines):
    check_system(lines)


@settings(max_examples=300, deadline=None)
@given(text=step_texts())
@example(text="c1 c2^-3 c1 c4^2")
def test_conj_step_matches_oracle(text):
    check_step(text)


def test_memo_does_not_outlive_a_parse():
    """One atom text, two systems whose disjoint facts differ: each gets
    its own normal form from ``parse_system`` and ``parse_word``, in
    either order."""
    curves = "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a2\nmeet1 c1 c2\n"
    atoms = "[c1^2 c2]c3 [c1^2 c2]c3"
    with_fact = curves + "disjoint c1 c3\ndisjoint c2 c3\n"
    normal_forms = {with_fact: [(), ()], curves: [(("c1", 1), ("c1", 1), ("c2", 1))] * 2}
    for texts in ((with_fact, curves), (curves, with_fact)):
        systems = {text: parse_system(f"{text}word w = {atoms}\n") for text in texts}
        for text in texts:
            assert [l.conj for l, _ in systems[text].words["w"].letters] == normal_forms[text]
        for text in texts:
            assert [l.conj for l, _ in parse_word(systems[text], atoms).letters] == normal_forms[text]


def test_repeated_atom_is_one_letter(monkeypatch):
    """A repeated atom text, on one line or across word and relation
    lines, is read and normalized once and yields the same Letter."""
    calls = []
    letter = CurveSystem.letter
    monkeypatch.setattr(CurveSystem, "letter",
                        lambda self, base, conj=(): calls.append(base) or letter(self, base, conj))
    s = parse_system(HEAD + "word u = [c2^2 c3]c1 c4 [c2^2 c3]c1 c4^2\n"
                            "commute r : [c2^2 c3]c1 c4\n"
                            "word v = [c2^2 c3]c1\n")
    (a, _), (b, _), (c, _), (d, _), _ = s.words["u"].letters
    assert a.conj and a is c and b is d
    assert s.words["v"].letters[0][0] is a
    assert s.relations["r"].left[0] is a
    assert calls.count("c1") == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_letter_names_first_undeclared_curve(data):
    """Base first, then the conjugator in order, over conjugators that
    repeat undeclared names."""
    system = parse_system("genus 2\ncurve c1 = a1\ncurve c2 = b1\nmeet1 c1 c2\n")
    names = st.sampled_from(["c1", "c2", "u1", "u2"])
    base = data.draw(names)
    conj = data.draw(st.lists(st.tuples(names, st.sampled_from([1, -1, 2, -3])), max_size=8))
    undeclared = [n for n in [base] + [n for n, _ in conj] if n not in ("c1", "c2")]
    try:
        want = oracle.letter(system, base, conj)
    except UnknownCurve as exc:
        assert str(exc) == f"curve {undeclared[0]!r} is not declared"
        with pytest.raises(UnknownCurve) as got:
            system.letter(base, conj)
        assert str(got.value) == str(exc)
    else:
        assert not undeclared
        assert system.letter(base, conj) == want
