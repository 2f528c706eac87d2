"""The exit-code contract on arbitrary input files.

Text built from the grammar's own tokens (with numerals far past
Python's 4300-digit conversion limit among them) must end in a typed
error, and every command must answer 0, 1 or 2 with no traceback, also
for files that are not UTF-8.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc.cli import run_command
from mcgcalc.errors import InvalidRelation, McgError, ParseError
from mcgcalc.parser import MAX_GENUS, MAX_NESTING, parse_scripts, parse_system

G2 = str(fixture_path("genus2_chain.mcg"))
EX53 = str(fixture_path("ex53.script"))

HEADER = (
    "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a1 + a2\ncurve p = ?\n"
    "meet1 c1 c2\nlantern LA : c1 c1 c3 c3 => c2 c2 p\nword w = (c1 c2)^6\n"
)

KEYWORDS = ["genus", "curve", "disjoint", "meet1", "septype", "lantern", "braid",
            "commute", "chain2", "word", "script", "on", "elem", "conj", "rot", "subst",
            "expect", "fwd", "rev", "L", "R"]
CURVES = ["c1", "c2", "c3", "p", "d1"]
PUNCT = ["=", "+", "-", "^", "[", "]", "(", ")", "=>", ":", "@", "?", "#"]

small = st.integers(-3, 12).map(str)
numerals = st.one_of(
    small,
    small,
    small,
    st.integers(13, 99).map(str),
    st.integers(10**6, 10**60).map(str),
    # at and past the interpreter's int-conversion limit
    st.integers(4290, 4400).map(lambda n: "7" * n),
)
# what each placeholder of a statement shape is filled with
FILLERS = {
    "{i}": numerals,
    "{c}": st.sampled_from(CURVES),
    "{d}": st.sampled_from(["d1", "d2", "c1"]),
    "{r}": st.sampled_from(["LA", "R1", "R2"]),
    "{v}": st.sampled_from(["w", "v"]),
}
SYSTEM_SHAPES = [
    "genus {i}", "curve {d} = {i} a1 + {i} b{i}", "curve {d} = a{i} - b1", "curve {d} = ?",
    "curve {d} = 0", "disjoint {c} {c}", "meet1 {c} {c}", "septype {c} {i}",
    "lantern {r} : {c} {c} {c} {c} => {c} {c} {c}", "braid {r} : {c} {c}",
    "commute {r} : {c} {c}", "chain2 {r} : {c} {c} => {c}",
    "word {v} = {c} {c}^{i} ({c} [{c}^{i} {c}]{c})^{i}", "word {v} = ({c} {c})^{i}",
]
SCRIPT_SHAPES = [
    "script s on {v}:", "  elem {i} L", "  elem {i} R", "  rot {i}", "  conj {c}^{i} {c}",
    "  subst {r} @ {i} fwd", "  subst {r} @ {i} rev", "  expect {v}",
]


@st.composite
def shaped_line(draw, shapes, fillers):
    out = draw(st.sampled_from(shapes))
    while "{" in out:
        key = min((out.find(k), k) for k in fillers if k in out)[1]
        out = out.replace(key, draw(fillers[key]), 1)
    return out


tokens = st.one_of(st.sampled_from(KEYWORDS + CURVES + PUNCT), numerals)
token_lines = st.tuples(st.sampled_from(["", "  "]), st.lists(tokens, min_size=1, max_size=9)).map(
    lambda t: t[0] + " ".join(t[1])
)


def bodies(shapes, noise=True):
    if noise:
        line = shaped_line(shapes, FILLERS)
        lines = st.one_of(line, line, line, line, line, token_lines)
    else:
        # declared curves, numerals 1 and 2 and no second genus: mostly well-formed
        clean = {"{i}": st.sampled_from(["1", "2"]), "{c}": st.sampled_from(CURVES[:4])}
        lines = shaped_line(shapes[1:], {**FILLERS, **clean})
    return st.lists(lines, max_size=6).map(lambda ls: "".join(l + "\n" for l in ls))


SCRIPT_HEADER = "script s on w:\n"
system_texts = st.tuples(st.sampled_from(["", HEADER]), bodies(SYSTEM_SHAPES)).map("".join)
script_texts = bodies(SCRIPT_SHAPES).map(SCRIPT_HEADER.__add__)
# mostly without token noise, so that most commands get past the parser
clean_inputs = st.tuples(bodies(SYSTEM_SHAPES, False).map(HEADER.__add__),
                         bodies(SCRIPT_SHAPES, False).map(SCRIPT_HEADER.__add__))
command_inputs = st.one_of(clean_inputs, clean_inputs, st.tuples(system_texts, script_texts))

# bytes that cannot occur in UTF-8 text at the place they are put
INVALID = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def commands(system, script):
    return [
        ["check", system],
        ["invariants", system, "w"],
        ["invariants", system, "v", "--json"],
        ["replay", system, script, "--trace"],
        ["sites", system, "w", "LA"],
        ["solve-lantern", system, "c1", "c1", "c3", "c3", "--known", "c2", "c2", "?",
         "--bound", "1"],
    ]


@settings(max_examples=150, deadline=None)
@given(text=system_texts)
def test_system_text_raises_only_parse_errors(text):
    # a relation whose homological identity fails is a verification
    # failure (exit 1), not a parse error; nothing else may escape
    try:
        parse_system(text)
    except McgError as exc:
        assert isinstance(exc, (ParseError, InvalidRelation)), repr(exc)


@settings(max_examples=150, deadline=None)
@given(text=script_texts)
def test_script_text_raises_only_parse_errors(text):
    system = parse_system(HEADER)
    try:
        parse_scripts(text, system)
    except McgError as exc:
        assert isinstance(exc, ParseError), repr(exc)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=command_inputs)
def test_every_command_answers_0_1_or_2(tmp_path, texts):
    system_text, script_text = texts
    system, script = tmp_path / "s.mcg", tmp_path / "s.script"
    system.write_text(system_text)
    script.write_text(script_text)
    for argv in commands(str(system), str(script)):
        code, _out, err = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=system_texts, bad=st.sampled_from(INVALID), where=st.floats(0, 1))
def test_files_that_are_not_utf8_exit_2(tmp_path, text, bad, where):
    raw = text.encode()
    cut = int(where * len(raw))
    system, script = tmp_path / "bad.mcg", tmp_path / "bad.script"
    system.write_bytes(raw[:cut] + bad + raw[cut:])
    script.write_bytes(b"script s on rho:\n  rot " + bad + b"1\n")
    argvs = commands(str(system), str(script)) + [["replay", G2, str(script)]]
    for argv in argvs:
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: ") and "is not UTF-8 text" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "genus " + "7" * 5000 + "\n",
        HEADER + "curve big = " + "7" * 5000 + " a1\n",
        HEADER + "curve big = a" + "7" * 5000 + "\n",
        HEADER + "septype p " + "7" * 5000 + "\n",
        HEADER + "word big = c1^" + "7" * 5000 + "\n",
        HEADER + "word big = [c1^" + "7" * 5000 + "]c2\n",
    ],
)
def test_numerals_past_the_conversion_limit_in_systems(text):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long"):
        parse_system(text)


@pytest.mark.parametrize(
    "step", ["elem {} L", "rot {}", "rot -{}", "conj c1^{}", "subst LA @ {} fwd"]
)
def test_numerals_past_the_conversion_limit_in_scripts(tmp_path, step):
    script = tmp_path / "big.script"
    script.write_text("script s on rho:\n  " + step.format("7" * 5000) + "\n")
    code, out, err = run(["replay", G2, str(script)])
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: integer of 5000 digits is too long\n"


def test_genus_limit():
    assert parse_system(f"genus {MAX_GENUS}\n").genus == MAX_GENUS
    with pytest.raises(ParseError, match=f"genus is at most {MAX_GENUS}"):
        parse_system(f"genus {MAX_GENUS + 1}\ncurve c = a1\n")
    with pytest.raises(ParseError, match=f"genus is at most {MAX_GENUS}"):
        parse_system("genus 99999999999999999999\ncurve c = a1\n")


def test_nesting_limit():
    def nested(depth):
        return HEADER + "word deep = " + "(" * depth + "c1" + ")^1" * depth + "\n"

    assert len(parse_system(nested(MAX_NESTING)).words["deep"]) == 1
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError, match=f"nest deeper than {MAX_NESTING}"):
            parse_system(nested(depth))


# arbitrary text, not only the grammar's tokens: raw bytes read as
# Latin-1 (every byte a character, control characters and U+0085 among
# them) and arbitrary Unicode strings, alone or after a valid header
any_text = st.one_of(st.binary(max_size=200).map(lambda b: b.decode("latin-1")), st.text(max_size=200))
any_system_text = st.tuples(st.sampled_from(["", HEADER]), any_text).map("".join)


@settings(max_examples=200, deadline=None)
@given(text=any_system_text)
def test_arbitrary_system_text_raises_only_parse_errors(text):
    try:
        parse_system(text)
    except McgError as exc:
        assert isinstance(exc, (ParseError, InvalidRelation)), repr(exc)


@settings(max_examples=200, deadline=None)
@given(text=st.tuples(st.sampled_from(["", SCRIPT_HEADER]), any_text).map("".join))
def test_arbitrary_script_text_raises_only_parse_errors(text):
    system = parse_system(HEADER)
    try:
        parse_scripts(text, system)
    except McgError as exc:
        assert isinstance(exc, ParseError), repr(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system_bytes=st.binary(max_size=200), script_bytes=st.binary(max_size=200),
       header=st.sampled_from([b"", HEADER.encode()]))
def test_every_command_answers_0_1_or_2_on_arbitrary_bytes(tmp_path, system_bytes, script_bytes, header):
    system, script = tmp_path / "s.mcg", tmp_path / "s.script"
    system.write_bytes(header + system_bytes)
    script.write_bytes(SCRIPT_HEADER.encode() + script_bytes)
    for argv in commands(str(system), str(script)) + [["replay", G2, str(script)]]:
        code, _out, err = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "{tmp}/missing.mcg"], "No such file or directory"),
        (["replay", G2, "{tmp}/empty.script"], "no scripts in "),
        (["replay", G2, EX53, "--name", "nope"], "script 'nope' not found in "),
        (["sites", G2, "nope", "LA"], "word 'nope' is not declared"),
        (["sites", G2, "rho", "nope"], "relation 'nope' is not declared"),
        (["solve-lantern", G2, "c3", "c5", "c5", "c3", "--known", "c1", "c2"],
         "--known takes one name or three entries"),
    ],
)
def test_command_usage_errors_exit_2_with_one_line(tmp_path, argv, message):
    (tmp_path / "empty.script").write_text("# no script here\n")
    code, out, err = run([arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1
