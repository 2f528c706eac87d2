"""The conjugator reader, the atom token and the per-parse atom memo
against the token-by-token oracle in ``tests/parser_oracle.py``.

A well-formed conjugated atom ``[W]c`` is one token of ``parser._TOKEN``,
and one pattern reads its conjugator.  ``parse_word``, ``parse_system``
(word and relation lines) and the script ``conj`` step must return the
oracle's letters, systems and scripts, or raise a ``ParseError`` with
the oracle's message, line, column and token, on well-formed and
malformed bracket contents.  The memo may not outlive one parse, a
repeated atom text and a conjugator W that atoms over several bases
share are read once per parse, a W that fails to read is not kept, each
distinct atom text is normalized once, and ``CurveSystem.letter`` must
still name the first undeclared curve.
"""

import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgcalc import parser
from mcgcalc import system as system_module
from mcgcalc.errors import ParseError, UnknownCurve
from mcgcalc.parser import (
    _TOKEN, MAX_WORD_LETTERS, _read_atom, _read_conj, _Tokens, parse_scripts, parse_system, parse_word
)
from mcgcalc.system import CurveSystem
from mcgcalc.words import Word
from tests import normalize_oracle
from tests import parser_oracle as oracle
from tests.test_incremental_replay import chain_text
from tests.test_letter_layer import lines as token_lines
from tests.test_statement_reader import check_scripts, check_system as check_file
from tests.test_statement_reader import outcome as statement_outcome, summary

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


def twists(pairs):
    """The oracle's (name, exponent) pairs as (name, +-1) twists."""
    return [(name, 1 if exp > 0 else -1) for name, exp in pairs for _ in range(abs(exp))]


def check_step(text):
    script = f"script s on w:\n  conj {text}\n"
    got = outcome(lambda: parse_scripts(script, SYSTEM)["s"].steps[0].word.letters)

    def expected():
        toks = oracle.Tokens(f"  conj {text}", 2)
        toks.next()
        return Word(SYSTEM, oracle.conj_step(toks, SYSTEM)).letters

    assert got == outcome(expected)
    # the reader stops at the token the oracle stops at
    slow = oracle.Tokens(text, 2)
    want = outcome(lambda: oracle.parse_conj(slow))
    got = outcome(lambda: _read_conj(text, 0, len(text), 2, SYSTEM._curves))
    if isinstance(want, tuple):
        assert got == want
    else:
        read, after, declared = got
        assert read == twists(want)
        assert declared == all(name in DECLARED for name, _ in want)
        assert (after and (after.group(1), after.start(1) + 1)) == (slow.peek() and (slow.peek(), slow.col()))


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
    twisted = CurveSystem._twisted
    monkeypatch.setattr(CurveSystem, "_twisted",
                        lambda self, base, *a: calls.append(base) or twisted(self, base, *a))
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


# --- bracket contents against the oracle, in every reader ---------------------

# pieces of a bracket's contents: names, exponents (zero, Unicode, past
# the digit limit, summing past MAX_WORD_LETTERS), "^" without one, and
# token characters outside the atom token's class
PIECES = ["c1", "c2", "c3", "zz", "^", "^2", "^-1", "^ -1", "^0", "^-0", "- 1", "-", "7",
          "\u0663", "^\u0663", "^-\u0968", "=>", "+", "(", ")", "?", ":", "@", "=", "[", "]",
          "^" + "9" * 5000, f"^{MAX_WORD_LETTERS}", f"^-{MAX_WORD_LETTERS // 2 + 1}"]
# separators, Unicode whitespace among them; "" may merge two pieces
SEPS = [" ", " ", "", "\t", "\x1f", "\xa0", "\u3000"]
# what follows the contents: a base name, a "]" with none, or nothing
TAILS = ["]c1", "] c2", "]\u3000c3", "]zz", "]c1^2", "]", "", "]5", "]]c1", "][c2]c3", "](c1)^2"]


@st.composite
def bracket_atoms(draw):
    pieces = draw(st.lists(st.sampled_from(PIECES), max_size=5))
    contents = "".join(piece + draw(st.sampled_from(SEPS)) for piece in pieces)
    return "[" + contents + draw(st.sampled_from(TAILS))


@settings(max_examples=400, deadline=None)
@given(atom=bracket_atoms(), before=st.sampled_from(["", "c1 ", "[c1]c2 "]))
@example(atom="[c1^\u0663\u3000c2^-1\xa0]\u3000c3", before="")
@example(atom=f"[c2^{MAX_WORD_LETTERS} c1^]c3", before="")
@example(atom=f"[c2^{MAX_WORD_LETTERS} c1]c3", before="c1 ")
@example(atom="[c1 + c2]c3", before="")
@example(atom="[c1 => c2]c3", before="")
@example(atom="[c1 [c2]c3]c4", before="")
@example(atom="[c1", before="c1 ")
@example(atom="[c1]", before="c1 ")
@example(atom="[]c1", before="")
def test_bracket_contents_fail_as_the_oracle_does(atom, before):
    """parse_word, and parse_system on a word line and a relation line."""
    check_word(before + atom)
    check_file(HEAD + f"word w = {before}{atom} c1\n")
    check_file(HEAD + f"commute r : {atom} c5\nword w = c1\n")
    check_file(HEAD + f"lantern L : c1 {atom} c3 c5 => c2 c4 c1 x\n")


@settings(max_examples=300, deadline=None)
@given(atom=bracket_atoms())
@example(atom="[c1^\u0663\u3000c2^-1\xa0c3^ 2]")
@example(atom="[c1 c2^")
def test_bracket_contents_as_a_conj_step_fail_as_the_oracle_does(atom):
    check_scripts(f"script s on rho:\n  conj {atom[1:]}\n  rot 1\n")


def test_an_earlier_second_pass_error_wins_over_a_later_bracket():
    """A "+" in brackets is a token character outside the atom's class:
    its line tokenizes, and its error is found in the second pass, after
    the error of an earlier word line.  An unrecognized character is a
    first-pass error, and wins."""
    text = HEAD + "word w1 = c1 )\nword w2 = [c1 {} c2]c3\n"
    assert check_file(text.format("+"))[1:] == ("line 17, col 14: unbalanced ')' (at ')')", 17, 14, ")")
    assert check_file(text.format("$"))[1:] == (
        "line 18, col 15: unrecognized token (at '$')", 18, 15, "$")
    assert check_file(HEAD + "word w2 = [c1 + c2]c3\n")[1:] == (
        "line 17, col 15: expected ']' (at '+')", 17, 15, "+")


@pytest.mark.parametrize("line, error", [
    ("word w = [c1 c2]c3 )", "line 17, col 20: unbalanced ')' (at ')')"),
    ("word w = [c1 c2]c3 [c1]c2^[c3]c4", "line 17, col 27: word powers must be >= 1 (at '[')"),
    ("word [c1]c2 = c1", "line 17, col 6: expected name (at '[')"),
    ("lantern L : [c1]c2 c3 c4 c5 => c1 c2 c3 x", "line 17, col 41: trailing input (at 'x')"),
    ("commute r : c1 c3 [c2]c4", "line 17, col 19: trailing input (at '[')"),
    ("chain2 r : c1 c2 [c3]c4 => c5", "line 17, col 18: expected '=>' (at '[')"),
    ("disjoint [c1]c2 c3", "line 17, col 13: trailing input (at ']')"),
])
def test_an_error_after_an_atom_names_the_oracles_column(line, error):
    got = check_file(HEAD + line + "\n")
    assert got[1] == error


@pytest.mark.parametrize("step, error", [
    ("conj c1 [c2]c3", "line 2, col 11: trailing input (at '[')"),
    ("conj c1^ [c2]c3", "line 2, col 12: expected integer exponent (at '[')"),
    ("conj c1 c2^-1 )", "line 2, col 17: trailing input (at ')')"),
])
def test_a_bad_conj_step_names_the_oracles_column(step, error):
    assert check_scripts(f"script s on rho:\n  {step}\n")[1] == error


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conj_step_and_atom_read_the_same_pairs(data):
    """The script step and the atom [W]c pass the same twists on, the
    oracle's token walk's pairs expanded."""
    toks = data.draw(conjugator_texts(names=st.sampled_from(DECLARED)))
    text = "".join(tok + data.draw(st.sampled_from([" ", "\t", "\u3000"])) for tok in toks)
    read = []
    with mock.patch.object(parser, "_read_conj", lambda *a: read.append(_read_conj(*a)) or read[-1]):
        parse_scripts(f"script s on w:\n  conj {text}\n", SYSTEM)
        parse_word(SYSTEM, f"[{text}]c1")
    (step, _, _), (atom, close, declared) = read
    assert step == atom == twists(oracle.parse_conj(oracle.Tokens(text, 1)))
    assert close.group(1) == "]" and declared


@pytest.mark.parametrize("parse", [
    lambda text: parse_system(HEAD + f"word w = {text}\nword v = c1 {text}\n"
                                     f"commute r : [c1 c2^-1 c3]c5 [c1 c2^-1 c3]c5\n"),
    lambda text: parse_word(SYSTEM, text),
])
def test_a_repeated_atom_text_is_read_once_per_parse(monkeypatch, parse):
    """A repeated atom text, and a conjugator W that atoms over other
    bases share, is read once per parse."""
    for bases in (["c4"], ["c4", "c5", "c4", "c2"]):
        calls = []
        monkeypatch.setattr(parser, "_read_conj", lambda *a: calls.append(a) or _read_conj(*a))
        text = " ".join(f"[c1 c2^-1 c3]{base}" for base in bases * (4000 // len(bases)))
        parse(text)
        assert len(calls) == 1
        parse(text)
        assert len(calls) == 2


# --- atoms that share a conjugator, against both oracles ------------------------

# pieces of a conjugator W that several atoms share: declared and
# undeclared names with and without exponents; and what makes W fail: a
# character that starts no pair, a zero exponent, a "^" without one, a
# numeral past the digit limit, exponents past the twist cap, or no pair
W_PIECES = ["c1", "c2", "c3", "c4", "c5", "zz", "c1^-2", "c2^3", "c4^-1", "zz^2"]
W_FAULTS = ["+", "5", "-", "c1^0", "c3^", "c2^" + "9" * 5000, f"c2^{MAX_WORD_LETTERS + 1}",
            "c2^60000 c3^-60000", ""]


@st.composite
def shared_atoms(draw):
    """Atoms ``[W]b`` over one W, well formed or not, and two to four bases,
    declared or not, with plain atoms, in random order."""
    pieces = draw(st.lists(st.sampled_from(W_PIECES), min_size=1, max_size=4))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(W_FAULTS)))
    w = " ".join(pieces)
    bases = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=4))
    atoms = [f"[{w}]{base}" for base in bases] + draw(st.lists(st.sampled_from(NAMES), max_size=2))
    return draw(st.permutations(atoms))


def check_against_oracles(got, want):
    """``got()`` against ``want()`` read by ``tests/parser_oracle.py`` with the
    letters normalized by ``tests/normalize_oracle.py``: equal results, or
    every field of the same error."""
    with mock.patch.object(oracle, "normalize_conjugator", normalize_oracle.normalize_conjugator):
        expected = statement_outcome(want)
    assert statement_outcome(got) == expected


@settings(max_examples=300, deadline=None)
@given(atoms=shared_atoms(), data=st.data())
@example(atoms=["[c1 c2^-1]c3", "[c1 c2^-1]zz", "[c1 c2^-1]c4"], data=None)
@example(atoms=["[c1 zz]c3", "c2", "[c1 zz]c4"], data=None)
@example(atoms=["[c1 c3^0]c2", "[c1 c3^0]c4"], data=None)
def test_atoms_that_share_a_conjugator_match_the_oracles(atoms, data):
    """One W over several bases on a ``parse_word`` line, and spread over
    word and relation lines of one file in random order."""
    text = " ".join(atoms)
    check_against_oracles(lambda: parse_word(SYSTEM, text, 3).letters,
                          lambda: Word(SYSTEM, oracle.word_body(oracle.Tokens(text, 3), SYSTEM)).letters)
    lines = [f"word w{k} = {atom}" for k, atom in enumerate(atoms)]
    lines += [f"commute r{k} : {atom} {atom}" for k, atom in enumerate(atoms)]
    if data is not None:
        lines = data.draw(st.permutations(lines))
    source = HEAD + "\n".join(lines) + "\n"
    check_against_oracles(lambda: summary(parse_system(source)), lambda: summary(oracle.parse_system(source)))


def test_a_failed_conjugator_read_is_not_stored(monkeypatch):
    """A W that fails to read leaves the memo as it was and is read again,
    token and line, by the next atom that holds it; a W that reads is kept
    even when its atom's base is undeclared."""
    calls = []
    monkeypatch.setattr(parser, "_read_conj", lambda *a: calls.append(a) or _read_conj(*a))
    memo = {}
    for _ in range(2):
        toks = _Tokens("[c1 c3^0]c2 [c1 c3^0]c4", 3, pattern=_TOKEN)
        with pytest.raises(ParseError, match="line 3: conjugator exponent must be nonzero"):
            parser._parse_atom(toks, SYSTEM, memo)
        assert memo == {}
    assert len(calls) == 4
    toks = _Tokens("[c1 c3]zz [c1 c3]c2", 3, pattern=_TOKEN)
    with pytest.raises(ParseError, match="line 3: curve 'zz' is not declared"):
        parser._parse_atom(toks, SYSTEM, memo)
    assert memo == {"[c1 c3]": ([("c1", 1), ("c3", 1)], True)}
    assert parser._parse_atom(toks, SYSTEM, memo) == SYSTEM.letter("c2", [("c1", 1), ("c3", 1)])
    assert len(calls) == 5


def test_each_distinct_atom_text_is_normalized_once_through_the_system_module(monkeypatch):
    """The parser normalizes through the name ``mcgcalc.system`` binds, where
    the benchmark's tracer wraps it, once per distinct conjugated atom text;
    a plain atom is not normalized."""
    normalized = []
    real = system_module.normalize_conjugator

    def counting(system, pairs, base):
        normalized.append(base)
        return real(system, pairs, base)

    monkeypatch.setattr(system_module, "normalize_conjugator", counting)
    s = parse_system(HEAD + "word u = [c1 c2^-1]c3 c4 [c1 c2^-1]c3 [c1 c2^-1]c5 c4\n"
                            "commute r : [c1 c2^-1]c3 [c1 c2^-1]c3\n"
                            "word v = [c1 c2^-1]c5 [c2]c1\n")
    assert normalized == ["c3", "c5", "c1"]
    parse_word(s, "[c1 c2^-1]c3 [c1 c2^-1]c3 c4")
    assert normalized == ["c3", "c5", "c1", "c3"]


def test_atom_token_columns_under_unicode_whitespace():
    toks = _Tokens("\tword\x1cw = [c1^-2\u3000c3]\xa0c2 => \u0663  ", 4, pattern=_TOKEN)
    assert toks.items == [("word", 2), ("w", 7), ("=", 9), ("[c1^-2\u3000c3]\xa0c2", 11), ("=>", 25),
                          ("\u0663", 28)]
    assert _read_atom(toks.toks[3], 0, 4, SYSTEM._curves) == ("c2", [("c1", -1), ("c1", -1), ("c3", 1)], True)


def split_atoms(items):
    """Token items with each atom token split into the oracle's tokens."""
    return [(tok, col + sub - 1) for whole, col in items
            for tok, sub in oracle.Tokens(whole, 0).items]


@settings(max_examples=500, deadline=None)
@given(text=token_lines | bracket_atoms(), line=st.integers(1, 10**6))
@example(text="[c1 c2]c3 [c1 (c2)]c3 [c1]]c2 [c1 [c2]c3]c4 [c1]5 [c1", line=1)
def test_atom_tokens_split_into_the_oracles_tokens(text, line):
    """The atom token changes how a line's tokens group, never what they
    are, where they stand, or which character fails the first pass."""
    try:
        want = oracle.Tokens(text, line).items
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _Tokens(text, line, pattern=_TOKEN)
        assert (got.value.line, got.value.col, got.value.token, str(got.value)) == (
            exc.line, exc.col, exc.token, str(exc))
        return
    items = _Tokens(text, line, pattern=_TOKEN).items
    assert split_atoms(items) == want
    # an atom token is "[", its contents in the class, "]" and a base name
    for tok, _ in items:
        if tok[0] == "[" and tok != "[":
            assert re.fullmatch(r"\[[A-Za-z0-9_\d^\s-]*\]\s*[A-Za-z_][A-Za-z0-9_]*", tok)
