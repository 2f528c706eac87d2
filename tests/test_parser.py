import pytest

from mcgcalc import fixture_path
from mcgcalc.errors import ParseError
from mcgcalc.errors import InvalidSystem
from mcgcalc.parser import load_system, parse_scripts, parse_system, parse_word
from mcgcalc.system import validate_system
from mcgcalc.words import render_word

MINI = """
genus 2
curve c1 = a1
curve c2 = b1
curve c3 = a1 + a2
meet1 c1 c2
disjoint c1 c3
word w = (c1 c2)^2 c3
"""


def test_parse_minimal_system():
    s = parse_system(MINI)
    assert s.genus == 2
    assert s.class_of("c3") == (1, 0, 1, 0)
    assert s.is_meet1("c1", "c2") and s.is_disjoint("c1", "c3")
    assert len(s.words["w"]) == 5


def test_parse_fixture_counts(g2):
    assert g2.genus == 2
    assert len(g2.curve_names) == 11
    lanterns = [r for r in g2.relations.values() if r.kind == "lantern"]
    assert len(lanterns) == 3
    assert set(g2.words) == {"rho", "rhoprime"}
    assert validate_system(g2) == []


def test_fixture_words_lengths(g2, g3):
    assert len(g2.words["rho"]) == 20
    assert len(g2.words["rhoprime"]) == 16
    assert len(g3.words["xthree"]) == 36
    assert len(g3.words["tau"]) == 36
    assert len(g3.words["xthreethree"]) == 33
    assert len(g3.words["tauprime"]) == 33
    assert len(g3.words["sigma3"]) == 28


def test_negative_class_coefficients():
    s = parse_system("genus 2\ncurve z = a1 - 2 b2\n")
    assert s.class_of("z") == (1, 0, 0, -2)


def test_opaque_curve_marker():
    s = parse_system("genus 2\ncurve z = ?\n")
    assert s.class_of("z") is None
    assert any("opaque" in a for a in s.assumptions)


def test_power_zero_rejected():
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c1 = a1\nword w = (c1)^0\n")
    assert "powers must be >= 1" in str(exc.value)
    assert exc.value.line == 3


def test_atom_power_supported():
    s = parse_system("genus 2\ncurve c1 = a1\nword w = c1^3\n")
    assert len(s.words["w"]) == 3


def test_unresolved_basis_symbol():
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c9 = a3\n")
    assert "unresolved basis symbol" in str(exc.value)


def test_unknown_curve_in_word():
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c1 = a1\nword w = c1 zz\n")
    assert "zz" in str(exc.value)


def test_error_carries_line_and_token():
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c1 = a1\nbogus c1 c1\n")
    assert exc.value.line == 3
    assert exc.value.token == "bogus"


def test_genus_must_come_first():
    with pytest.raises(ParseError):
        parse_system("curve c1 = a1\ngenus 2\n")


def test_conjugator_exponents():
    s = parse_system("genus 2\ncurve c1 = a1\ncurve c2 = b1\nword w = [c1^-4]c2\n")
    (letter, sign), = s.words["w"].letters
    assert letter.conj == (("c1", -1),) * 4
    assert sign == 1


def test_word_roundtrip_through_render(g2):
    for name, word in g2.words.items():
        again = parse_word(g2, render_word(word))
        assert again == word


def test_roundtrip_genus3(g3):
    for name, word in g3.words.items():
        assert parse_word(g3, render_word(word)) == word


def test_parse_scripts_fixture(g2):
    scripts = parse_scripts(fixture_path("ex53.script").read_text(), g2)
    assert set(scripts) == {"ex53"}
    script = scripts["ex53"]
    assert script.source == "rho"
    assert script.expect == "rhoprime"
    assert len(script.steps) == 37


def test_parse_scripts_errors(g2):
    with pytest.raises(ParseError):
        parse_scripts("script s on nosuch:\n  rot 1\n", g2)
    with pytest.raises(ParseError):
        parse_scripts("script s on rho:\n  elem 0 R\n", g2)
    with pytest.raises(ParseError):
        parse_scripts("script s on rho:\n  subst NOPE @ 1 fwd\n", g2)
    with pytest.raises(ParseError):
        parse_scripts("  elem 1 R\n", g2)


def test_load_system_then_scripts():
    system = load_system(fixture_path("genus2_chain.mcg"))
    scripts = parse_scripts(fixture_path("ex53.script").read_text(), system)
    assert set(system.words) == {"rho", "rhoprime"}
    assert set(scripts) == {"ex53"}


def test_load_system_rejects_invalid_system(tmp_path):
    bad = tmp_path / "bad.mcg"
    bad.write_text("genus 2\ncurve c1 = a1\ncurve c2 = b1\ndisjoint c1 c2\n")
    with pytest.raises(InvalidSystem) as exc:
        load_system(bad)
    assert "pairing" in str(exc.value)


def test_comments_and_blank_lines():
    s = parse_system("# header\n\ngenus 2\ncurve c1 = a1  # trailing\n")
    assert s.class_of("c1") == (1, 0, 0, 0)



def test_tokens_and_columns_under_unicode_whitespace():
    from mcgcalc.parser import _Tokens

    # \x1c is whitespace to Python; an Arabic-Indic digit is a numeral token
    toks = _Tokens("\tword\x1cw = [c1^-2]c2 => \u0663  ", 4)
    assert toks.items == [("word", 2), ("w", 7), ("=", 9), ("[", 11), ("c1", 12), ("^", 14),
                          ("-2", 15), ("]", 17), ("c2", 18), ("=>", 21), ("\u0663", 24)]


@pytest.mark.parametrize("line,col,token", [("c1 \u00e9", 4, "\u00e9"), ("\t\t$", 3, "$"),
                                            ("c1\x1c c2 !c3", 8, "!")])
def test_unrecognized_token_is_located(line, col, token):
    from mcgcalc.parser import _Tokens

    with pytest.raises(ParseError) as exc:
        _Tokens(line, 5)
    assert (exc.value.line, exc.value.col, exc.value.token) == (5, col, token)
    assert str(exc.value) == f"line 5, col {col}: unrecognized token (at {token!r})"


@pytest.mark.parametrize(
    "stmt, line, token, col",
    [
        ("curve", "curve 7 = b1", "7", 7),
        ("word", "word ( = c1 c1", "(", 6),
        ("relation", "commute ] : c1 c1", "]", 9),
        ("script", "script => on w:", "=>", 8),
    ],
)
def test_declared_names_must_be_names(stmt, line, token, col):
    head = "genus 2\ncurve c1 = a1\nword w = c1\n"
    with pytest.raises(ParseError) as exc:
        if stmt == "script":
            parse_scripts(line + "\n", parse_system(head))
        else:
            parse_system(head + line + "\n")
    lineno = 1 if stmt == "script" else 4
    assert (exc.value.line, exc.value.col, exc.value.token) == (lineno, col, token)
    assert str(exc.value) == f"line {lineno}, col {col}: expected name (at {token!r})"


@pytest.mark.parametrize(
    "line, message, token, col",
    [
        ("curve c3 = a1 + a7", "unresolved basis symbol for genus 2", "a7", 17),
        ("word w = [c1^x]c2 c1", "expected integer exponent", "x", 14),
        ("word w = [c1]5 c1", "expected curve name after conjugator", "5", 14),
        ("word w = 5 c1", "expected curve name", "5", 10),
        ("word w = c1^0 c2", "word powers must be >= 1", "0", 13),
    ],
)
def test_parse_error_names_the_column_of_its_token(line, message, token, col):
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c1 = a1\ncurve c2 = b1\n" + line + "\n")
    assert (exc.value.line, exc.value.col, exc.value.token) == (4, col, token)
    assert line[col - 1:].startswith(token)
    assert str(exc.value) == f"line 4, col {col}: {message} (at {token!r})"


@pytest.mark.parametrize(
    "system_lines, script_text, error",
    [
        ("septype c1 1\nseptype c1 1\n", "",
         (6, None, "line 6: septype 'c1' already declared")),
        ("", "script A on w:\n  rot 1\nscript A on w:\n  rot 2\n",
         (3, 8, "line 3, col 8: script 'A' already declared (at 'A')")),
        ("", "script A on w:\n  expect w\n  rot 1\n  expect w\n",
         (4, None, "line 4: script 'A' already has an expect")),
    ],
    ids=["septype", "script", "expect"],
)
def test_repeated_declaration_is_refused(system_lines, script_text, error):
    head = "genus 2\ncurve c1 = 0\ncurve c2 = b1\nword w = c2\n"
    with pytest.raises(ParseError) as exc:
        parse_scripts(script_text, parse_system(head + system_lines))
    assert (exc.value.line, exc.value.col, str(exc.value)) == error


@pytest.mark.parametrize(
    "line, message",
    [
        ("braid BR : c1", "unexpected end of line"),
        ("lantern L : c1 c1 c2 c2 => c1 c2", "unexpected end of line"),
        ("word w = c2 [c1", "unexpected end of line, expected ']'"),
        ("word w = [c1]", "unexpected end of line"),
    ],
)
def test_line_that_ends_inside_an_atom(tmp_path, line, message):
    from tests.test_exit_codes import run

    text = "genus 2\ncurve c1 = a1\ncurve c2 = b1\n" + line + "\n"
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (exc.value.line, exc.value.col, str(exc.value)) == (4, None, f"line 4: {message}")
    path = tmp_path / "cut.mcg"
    path.write_text(text)
    assert run(["check", str(path)]) == (2, "", f"parse error: line 4: {message}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("curve c3 = a1 +", "expected basis symbol"),
        ("word w = [", "empty conjugator"),
    ],
)
def test_error_at_the_end_of_a_line_names_no_column(line, message):
    # columns are 1-based and the end of a line has none
    with pytest.raises(ParseError) as exc:
        parse_system("genus 2\ncurve c1 = a1\ncurve c2 = b1\n" + line + "\n")
    assert (exc.value.line, exc.value.col, str(exc.value)) == (4, None, f"line 4: {message}")


SCRIPT_HEAD = "genus 2\ncurve c1 = a1\ncurve c2 = b1\nmeet1 c1 c2\nbraid B : c1 c2\nword w = c1 c2\n"


@pytest.mark.parametrize(
    "system_line, script_line, message",
    [
        ("curve c3 =", None, "line 7: empty homology class"),
        ("word v =", None, "line 7: empty word expression"),
        ("septype c1 x", None, "line 7: septype needs an integer type (at 'x')"),
        (None, "elem 1 X", "line 2: elem direction must be L or R (at 'X')"),
        (None, "rot 0", "line 2: rot needs a nonzero integer (at '0')"),
        (None, "subst B @ 1 up", "line 2: subst direction must be fwd or rev (at 'up')"),
    ],
)
def test_statement_errors_name_their_line(system_line, script_line, message):
    with pytest.raises(ParseError) as exc:
        if script_line is None:
            parse_system(SCRIPT_HEAD + system_line + "\n")
        else:
            parse_scripts("script s on w:\n  " + script_line + "\n", parse_system(SCRIPT_HEAD))
    assert str(exc.value) == message


REPEATS = """genus 2
curve c1 = a1
curve c2 = b1
curve c3 = a2
meet1 c1 c2
disjoint c1 c3
word u = c1 [c1^2]c2 c2 c1 [c1^2]c2 [c2]c1
word v = [c1 c1]c2 c3 (c1 [c2]c1)^2
braid B : [c1^2]c2 c1
commute C : [c2]c1 c3
braid D : c1 c2
"""


def test_each_atom_text_is_normalized_once(monkeypatch):
    from mcgcalc.system import CurveSystem

    # a plain letter is built without normalizing, so the letters are
    # counted where they are built, from an atom's expanded twists:
    # (base, twists in the conjugator)
    calls = []
    twisted = CurveSystem._twisted

    def spy(system, base, twists):
        calls.append((base, len(twists)))
        return twisted(system, base, twists)

    monkeypatch.setattr(CurveSystem, "_twisted", spy)
    s = parse_system(REPEATS)
    # the parse builds only the relations' atoms, each text once, in file
    # order: [c1^2]c2 and c1 from B, [c2]c1 and c3 from C, c2 from D
    assert calls == [("c2", 2), ("c1", 0), ("c1", 1), ("c3", 0), ("c2", 0)]
    # a word builds, at its first read, the texts not built yet: v's
    # [c1 c1]c2; then u, whose texts are all built, and a second read of
    # either build nothing
    v = [letter for letter, _ in s.words["v"].letters]
    assert calls[5:] == [("c2", 2)]
    u = [letter for letter, _ in s.words["u"].letters]
    assert list(s.words["v"]) == list(s.words["v"].letters) and len(s.words["u"]) == 6
    assert len(calls) == 6

    def same(got, want):
        return len(got) == len(want) and all(x is y for x, y in zip(got, want))

    c1, c1c2, c2, c2c1 = u[0], u[1], u[2], u[5]
    c3 = v[1]
    assert same(u, [c1, c1c2, c2, c1, c1c2, c2c1])
    assert same(v[1:], [c3, c1, c2c1, c1, c2c1])
    assert same(s.relations["B"].left, [c1c2, c1, c1c2])
    assert same(s.relations["C"].left, [c2c1, c3])
    assert same(s.relations["D"].left, [c1, c2, c1])
    # two texts of one conjugator give equal letters, each normalized once
    assert v[0] == c1c2 and v[0] is not c1c2
