"""The statement reader against the line-by-line oracle in
``tests/parser_oracle.py``.

On any text, ``parse_system`` and ``parse_scripts`` must return what the
oracle returns: the same system (genus, curves and classes, facts,
septypes, relations with their status, words and assumptions) or the
same scripts, a ``ParseError`` with the same message, line, column and
token, or the same other ``McgError``.  The drawn texts end their lines
with every boundary ``str.splitlines`` knows, carry ``#`` comments,
indentation, Unicode whitespace and Unicode digits, and are mutated
token by token; fully arbitrary text is drawn as well.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgcalc.errors import McgError, ParseError
from mcgcalc.parser import _TOKEN, _int, parse_scripts, parse_system
from tests import parser_oracle as oracle

LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace that ends no line, and digits that are not ASCII
SPACES = [" ", " ", " ", "\t", "\x1f", "\xa0", "\u3000"]
DIGITS = ["\u0663", "\u0968", "\uff11"]
INDENTS = ["", "", "", " ", "\t", "\u3000"]
COMMENTS = ["", "", "", "# note", " #x \u00e9 $ =>", "#"]
# tokens a mutation inserts: names, numbers, operators, a Unicode digit,
# and characters that start no token
NOISE = ["c1", "x", "zz", "2", "-1", "0", "?", "^", "(", ")", "[", "]", "=", "=>", ":", "@",
         "+", "-", *DIGITS, "\u00e9", "$", ">", "!"]

# a system file in order, and lines a draw may insert anywhere
SYSTEM_LINES = [
    "genus 2",
    "curve c1 = a1", "curve c2 = b1", "curve c3 = a1 + a2", "curve c4 = b2", "curve c5 = a2",
    "curve k = 0", "curve h = a1 + 2 a2", "curve x = ?", "curve y = - a1 + \u0663 b2",
    "curve z = a01 - 2 b1 + b1",
    "meet1 c1 c2", "meet1 c2 c3", "meet1 c3 c4", "meet1 c4 c5",
    "disjoint c1 c3", "disjoint c1 c4", "disjoint c2 k", "disjoint c1 x",
    "septype k 1",
    "lantern LA : c3 c5 c5 c3 => c1 k h",
    "braid BR : c1 c2", "commute CM : c1 c3", "chain2 CH : c1 c2 => k", "braid BX : c1 x",
    "word rho = (c5 c4 c3 c2 c1^2 c2 c3 c4 c5)^2",
    "word u = [c1^2]c2 c1 [c1^2]c2 [c2^-1 c3]c4",
    "word v = c1 [x]c2 c3^\u0663",
]
SYSTEM_EXTRAS = [
    "genus 3", "genus 1", "genus \u0663", "curve w = a3", "curve c1 = b2", "meet1 c1 c1",
    "disjoint c1 c2", "septype k 7", "braid BAD : c1 c3", "word rho = c1",
]

SCRIPT_LINES = [
    "script s on rho:", "  elem 3 L", "  conj c1 c2^-1 c2", "  rot -2", "  subst LA @ 3 fwd",
    "  expect rho", "script t on u:", "  elem 1 R", "  conj c3^2 c1^-1", "  rot 1",
]
SCRIPT_EXTRAS = [
    "script s on nope:", "script s on rho:", "  elem 0 R", "  elem 2 X", "  rot 0", "  conj [c1]c2",
    "  subst NOPE @ 1 rev", "  subst BR @ 2 sideways", "  expect u", "  unknown 1", "elem 1 L",
]

SCRIPT_SYSTEM = parse_system("\n".join([
    "genus 2", *SYSTEM_LINES[1:9], *SYSTEM_LINES[11:16], "septype k 1",
    "lantern LA : c3 c5 c5 c3 => c1 k h", "braid BR : c1 c2",
    "word rho = (c5 c4 c3 c2 c1^2 c2 c3 c4 c5)^2", "word u = [c1^2]c2 c1",
]))


@st.composite
def texts(draw, lines, extras):
    """The lines in order, a few dropped, inserted or mutated, each with
    its own whitespace, indentation, comment and line end."""
    lines = [line for line in lines if draw(st.integers(0, 11))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extras)))
    mutated = draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), max_size=2))
    out = []
    for k, line in enumerate(lines):
        toks = line.split()
        if k in mutated:
            i = draw(st.integers(0, len(toks)))
            how = draw(st.sampled_from(["delete", "insert", "replace", "merge"]))
            if how == "insert" or i == len(toks):
                toks.insert(i, draw(st.sampled_from(NOISE)))
            elif how == "delete":
                del toks[i]
            elif how == "replace":
                toks[i] = draw(st.sampled_from(NOISE))
            elif i + 1 < len(toks):
                toks[i:i + 2] = [toks[i] + toks[i + 1]]
        indent = draw(st.sampled_from(INDENTS[3:] if line.startswith(" ") else INDENTS))
        body = "".join(tok + draw(st.sampled_from(SPACES)) for tok in toks)
        out.append(indent + body + draw(st.sampled_from(COMMENTS)))
        if draw(st.integers(0, 7)) == 0:
            out.append(draw(st.sampled_from(INDENTS + COMMENTS)))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in out]
    # the last line may end the text without a line end
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(out, ends))


arbitrary = st.text(max_size=60) | st.text(
    alphabet=st.sampled_from(sorted(set("genus curve=a1b2c3 :[]()^-+?#@=>\u0663\u00e9"
                                        + "".join(LINE_ENDS + SPACES)))), max_size=80)


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or every field of the error it raises."""
    try:
        return parse(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col, exc.token)
    except McgError as exc:
        return (type(exc).__name__, str(exc))


def summary(system):
    """Everything a parse puts into a system."""
    return (
        system.genus,
        [(name, system.class_of(name), system.decl_index(name)) for name in system.curve_names],
        sorted((a, sorted(b)) for a, b in system._disjoint_of.items()),
        sorted((a, sorted(b)) for a, b in system._meet1_of.items()),
        sorted(system.septype.items()),
        [(r.name, r.kind, r.left, r.right, r.status) for r in system.relations.values()],
        [(name, w.letters) for name, w in system.words.items()],
        list(system.assumptions),
    )


def check_system(text):
    got = outcome(lambda: summary(parse_system(text)))
    assert got == outcome(lambda: summary(oracle.parse_system(text)))
    return got


def check_scripts(text):
    got = outcome(parse_scripts, text, SCRIPT_SYSTEM)
    assert got == outcome(oracle.parse_scripts, text, SCRIPT_SYSTEM)
    return got


@settings(max_examples=400, deadline=None)
@given(text=texts(SYSTEM_LINES, SYSTEM_EXTRAS) | arbitrary)
@example("genus 2\r\ncurve c1 = a1\rcurve c2 = b1\x85meet1 c1 c2\u2028 braid B : c1 c2 $")
@example("genus 2\x1ccurve c1 = a1 # a comment $\x1d\x1ecurve c1 = b1")
@example("genus 2\vcurve c1 = \u0663 a1\fcurve c2 = b1 +\u2029word w = c1 c2 \u00e9")
@example("\u3000genus\xa02\x1fcurve c1 = a1\ncurve c2 = b1 => c1\n")
def test_parse_system_matches_the_line_reader(text):
    check_system(text)


@settings(max_examples=300, deadline=None)
@given(text=texts(SCRIPT_LINES, SCRIPT_EXTRAS) | arbitrary)
@example("script s on rho:\r\n  elem 3 L\r  rot -2\x85\u3000expect rho\u2028  conj c1 $")
@example("script s on rho:\x1c\telem 1 L # x\x1d elem 1\x1e  subst LA @ 3 fwd extra")
def test_parse_scripts_matches_the_line_reader(text):
    check_scripts(text)


@pytest.mark.parametrize("end", LINE_ENDS)
def test_every_line_end_numbers_the_next_line(end):
    text = end.join(["genus 2", "curve c1 = a1", "# comment", "", "curve c1 = b1"])
    got = check_system(text)
    assert got[:3] == ("ParseError", "line 5: curve 'c1' already declared", 5)
    # the same text with \r\n counts one line per pair, not two
    assert check_system(text.replace(end, "\r\n")) == got


@pytest.mark.parametrize("text, want", [
    ("genus 2\ncurve c1 = a1 \u00e9", ("line 2, col 15: unrecognized token (at '\u00e9')", 2, 15)),
    ("genus 2\n\u3000curve c1 = a1 + $ # $", ("line 2, col 18: unrecognized token (at '$')", 2, 18)),
    ("genus 2\ncurve c1 = a1 +", ("line 2: expected basis symbol", 2, None)),
    ("genus 2\ncurve c1 = a1 + +", ("line 2, col 17: expected basis symbol (at '+')", 2, 17)),
    ("genus 2\ndisjoint c1\n", ("line 2: unexpected end of line", 2, None)),
    ("genus 2\ncurve c1 = a1\ncurve c2 = b1\nmeet1 c1 c2 c1",
     ("line 4, col 13: trailing input (at 'c1')", 4, 13)),
])
def test_errors_keep_their_fields(text, want):
    got = check_system(text)
    assert got[1:4] == want


# the test _int made before it read digits with str.isdecimal
INT_REGEX = re.compile(r"-?\d+$")


def int_by_regex(tok):
    return int(tok) if INT_REGEX.match(tok) else None


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(NOISE + SPACES + ["--1", "1_0", "-\u0663\u0968", "\u00b2", "_1"]))
       .map("".join) | st.text())
@example("- -- --1 1_0 -\u0663 \uff11\uff12 \u00b2 \u2155 007 -0")
def test_int_reads_what_the_regex_read_on_every_token(text):
    # every string the tokenizer can emit as a token, Unicode digits among them
    for tok in _TOKEN.findall(text):
        if tok:
            assert _int(tok, 1) == int_by_regex(tok)


@pytest.mark.parametrize("tok", ["-", "--1", "1_0", "-1_0", "\u00b2", "1-", "+1", " 1", "1 ",
                                 "\u0663", "-\uff11\uff12", "0", "-0"])
def test_int_agrees_with_the_regex_on_edge_strings(tok):
    assert _int(tok, 1) == int_by_regex(tok)


@pytest.mark.parametrize("digits", ["1" * 5000, "\u0663" * 5000])
def test_int_past_the_digit_limit_is_a_parse_error(digits):
    for tok in (digits, "-" + digits):
        with pytest.raises(ParseError) as info:
            _int(tok, 7)
        assert str(info.value) == "line 7: integer of 5000 digits is too long"
