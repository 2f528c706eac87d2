"""A parsed word builds its letters at first read.

``parse_system`` reads and checks every atom of every ``word`` statement,
and normalizes a relation's atoms at once, for ``add_relation`` to check.
A word's atoms are normalized the first time its ``letters`` are read, once
per distinct atom text per parse, so a command normalizes only the words
it reads, and a repeated text is one ``Letter`` across words and relations.
Every parse error stays where it was: a word that no command reads still
fails every command, with the same message and exit code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc import system as system_module
from mcgcalc.cli import run_command
from mcgcalc.parser import parse_system
from tests import parser_oracle as oracle

# the genus-2 chain c1..c5 with its meet1 and disjoint facts, no words
HEAD = """genus 2
curve c1 = a1
curve c2 = b1
curve c3 = a1 + a2
curve c4 = b2
curve c5 = a2
meet1 c1 c2
meet1 c2 c3
meet1 c3 c4
meet1 c4 c5
disjoint c1 c3
disjoint c1 c4
disjoint c1 c5
disjoint c2 c4
disjoint c2 c5
disjoint c3 c5
"""


@pytest.fixture
def normalized(monkeypatch):
    """(base, twists) of every normalization, through the name ``mcgcalc.system``
    binds, where the benchmark's tracer wraps it."""
    calls = []
    real = system_module.normalize_conjugator

    def spy(system, pairs, base):
        calls.append((base, tuple(pairs)))
        return real(system, pairs, base)

    monkeypatch.setattr(system_module, "normalize_conjugator", spy)
    return calls


def test_a_word_normalizes_its_atoms_at_first_read(normalized):
    s = parse_system(HEAD + "word u = [c1 c2]c3 c4 [c2^-1]c5 ([c1 c2]c3 [c3]c2)^2\n"
                            "braid r : [c1 c2]c3 [c4]c5\n"
                            "word v = [c2^-1]c5 [c4]c5 [c1 c2]c4\n")
    # the parse normalizes only the relation's conjugated atoms
    assert normalized == [("c3", (("c1", 1), ("c2", 1))), ("c5", (("c4", 1),))]
    # u's first read normalizes its other distinct texts, once each
    u = s.words["u"].letters
    assert normalized[2:] == [("c5", (("c2", -1),)), ("c2", (("c3", 1),))]
    # reading u again, or an atom of v that is already built, normalizes nothing
    assert len(s.words["u"]) == 7 and list(s.words["u"]) == list(u) and repr(s.words["u"])
    assert s.words["u"] == s.words["u"] and hash(s.words["u"]) == hash(u)
    assert len(normalized) == 4
    v = s.words["v"].letters
    assert normalized[4:] == [("c4", (("c1", 1), ("c2", 1)))]
    # a repeated text is one Letter across u, v and r
    r = s.relations["r"]
    assert u[0][0] is u[3][0] is u[5][0] is r.left[0] is r.right[1]
    assert u[2][0] is v[0][0]
    assert v[1][0] is r.left[1]
    assert all(sign == 1 for _, sign in u + v)


@pytest.mark.parametrize("argv", [
    ["check", "genus2_chain.mcg"],
    ["check", "genus3_chain.mcg"],
    ["solve-lantern", "genus2_chain.mcg", "c3", "c5", "c5", "c3", "--known", "c1"],
    ["solve-lantern", "genus3_chain.mcg", "c1", "c3", "c5", "c7", "--known", "f1", "--bound", "1"],
    # sigma3, like the relation LFTV, has only plain atoms, so a call would
    # be an atom of one of the other four words
    ["invariants", "genus3_chain.mcg", "sigma3", "--json"],
])
def test_a_command_normalizes_no_word_it_does_not_read(argv, normalized, capsys):
    argv = [str(fixture_path(a)) if a.endswith(".mcg") else a for a in argv]
    assert run_command(argv) == 0
    assert capsys.readouterr().err == ""
    assert normalized == []


# the second word of each file holds the fault; stderr as the parser that
# built every word at load gave it
FAULTS = [
    ("[c1]c2 [yy c2]zz c1", "parse error: line 18: curve 'zz' is not declared\n"),
    ("[c1]c2 c1 [c1 yy c2 xx]c3", "parse error: line 18: curve 'yy' is not declared\n"),
    ("[c1]c2 [c1^0]c2", "parse error: line 18: conjugator exponent must be nonzero\n"),
    ("([c1]c2 c3)^50001", "parse error: line 18: word expression expands past 100000 letters\n"),
]


@pytest.mark.parametrize("fault, stderr", FAULTS)
@pytest.mark.parametrize("argv", [
    ["invariants", "FILE", "w1", "--json"],
    ["check", "FILE"],
    ["solve-lantern", "FILE", "c3", "c5", "c5", "c3", "--known", "c1"],
])
def test_a_word_no_command_reads_still_fails_every_command(fault, stderr, argv, tmp_path, capsys):
    path = tmp_path / "faulty.mcg"
    path.write_text(HEAD + "word w1 = (c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2\n" f"word w2 = {fault}\n")
    assert run_command([str(path) if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", stderr)


# conjugators over c1..c5, with exponents, that atoms over several bases share
CONJUGATORS = ["c1", "c2^-1", "c1 c2", "c2^2 c3", "c3 c4^-1 c5", "c5 c1 c3^-2", "c4 c2 c4"]
BASES = ["c1", "c2", "c3", "c4", "c5"]


@st.composite
def atom_texts(draw):
    base = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        return base
    return f"[{draw(st.sampled_from(CONJUGATORS))}]{base}"


@st.composite
def systems(draw):
    """A genus-2 chain file with 2-4 words, some followed by a commute
    relation, all drawing on one pool of atom texts; and the word names."""
    pool = draw(st.lists(atom_texts(), min_size=2, max_size=6, unique=True))
    atoms = st.sampled_from(pool)

    def factor(atom, power):
        return atom if power == 1 else f"{atom}^{power}"

    lines, names = [], []
    for k in range(draw(st.integers(2, 4))):
        factors = [factor(draw(atoms), draw(st.integers(1, 3)))
                   for _ in range(draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            group = " ".join(draw(st.lists(atoms, min_size=1, max_size=3)))
            factors.insert(draw(st.integers(0, len(factors))), f"({group})^{draw(st.integers(1, 3))}")
        names.append(f"w{k}")
        lines.append(f"word w{k} = {' '.join(factors)}")
        if draw(st.booleans()):
            # an atom commutes with itself, so the relation holds
            atom = draw(atoms)
            lines.append(f"commute r{k} : {atom} {atom}")
    return HEAD + "\n".join(lines) + "\n", names


@settings(max_examples=150, deadline=None)
@given(drawn=systems(), data=st.data())
def test_words_read_in_any_order_give_the_oracles_letters(drawn, data):
    text, names = drawn
    got, want = parse_system(text), oracle.parse_system(text)
    for name in data.draw(st.permutations(names)):
        assert got.words[name].letters == want.words[name].letters
    assert [(r.left, r.right) for r in got.relations.values()] == \
        [(r.left, r.right) for r in want.relations.values()]
