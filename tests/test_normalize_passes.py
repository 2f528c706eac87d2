"""The letter normal form stops when no rule can fire again.

``normalize_conjugator`` restarts its pass loop after a drop or a sort
only when free reduction or a tail rule could fire on the result; the
routine before that change ran one more whole pass every time, and is
kept in ``tests/normalize_oracle.py``.  These tests hold the two equal,
letter and base, on every system the package ships or the benchmark
builds, count the passes, pin that the form depends on the order of
commuting twists, and pin that the conjugated-atom reader copies a
line's tokens once.
"""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc import parser, words
from mcgcalc import system as system_module
from mcgcalc.errors import InvalidDeclaration, UnknownCurve
from mcgcalc.moves import elementary_transformation, rotate
from mcgcalc.parser import parse_word
from mcgcalc.words import Letter, flatten_word, normalize_conjugator
from tests import normalize_oracle
from tests.conftest import load_fixture_system
from tests.test_central_blocks import perfbench_words
from tests.test_letter_layer import LADDER_GENERA, fixture_words, ladder, rewritten


def systems():
    yield from (system for system, _ in fixture_words())
    yield load_fixture_system("relations_g2.mcg")
    yield from (ladder(g) for g in LADDER_GENERA)


SYSTEMS = list(systems())


def assert_same_as_oracle(system, pairs, base):
    got = normalize_conjugator(system, pairs, base)
    assert got == normalize_oracle.normalize_conjugator(system, pairs, base)
    return got


@st.composite
def long_conjugators(draw):
    """A system, and up to 200 twists over a few of its names."""
    system = draw(st.sampled_from(SYSTEMS))
    names = draw(st.lists(st.sampled_from(system.curve_names), min_size=1, max_size=8,
                          unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1])),
                          max_size=200))
    base = draw(st.sampled_from(names) | st.sampled_from(system.curve_names))
    return system, pairs, base


@settings(max_examples=400, deadline=None)
@given(case=long_conjugators())
def test_normal_form_matches_the_pass_loop_oracle(case):
    assert_same_as_oracle(*case)


@pytest.mark.parametrize("g", LADDER_GENERA)
def test_hurwitz_rewritten_letters_match_the_pass_loop_oracle(g):
    system, rewritten_words = rewritten(g)
    prefix = list(flatten_word(system.word([("c2", 1), ("c1", -1), ("c3", 1)])))
    for w in rewritten_words:
        for letter, _ in w:
            for pairs in (letter.conj, letter.conj + letter.conj, prefix + list(letter.conj)):
                assert_same_as_oracle(system, pairs, letter.base)


@pytest.fixture
def checked_calls(monkeypatch):
    """Every normalization the package makes, checked against the oracle."""
    calls = []

    def checking(system, pairs, base):
        pairs = list(pairs)
        calls.append(len(pairs))
        return assert_same_as_oracle(system, pairs, base)

    for module in (words, system_module):
        monkeypatch.setattr(module, "normalize_conjugator", checking)
    return calls


def test_seeded_move_walk_matches_the_oracle_at_every_step(checked_calls):
    # 400 seeded elementary moves and rotations of the genus-3 relator:
    # every normalization they make, and every letter after every step,
    # is the oracle's.  Unchecked, such a walk's conjugators grow to
    # thousands of twists, so a move that would push one past 60 twists
    # is skipped (its normalizations are still checked)
    system = ladder(3)
    rng = random.Random(400)
    w = system.words["w"]
    for _ in range(400):
        if rng.random() < 0.8:
            moved = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice("LR"))
        else:
            moved = rotate(w, rng.choice([-2, -1, 1, 2]))
        if all(len(letter.conj) <= 60 for letter, _ in moved):
            w = moved
        for letter, _ in w:
            conj, base = normalize_oracle.normalize_conjugator(system, letter.conj, letter.base)
            assert Letter(conj, base) == letter
    assert len(checked_calls) > 400
    assert max(len(letter.conj) for letter, _ in w) > 30  # the walk built long conjugators


@pytest.mark.parametrize("builder", ["build_ladder", "build_conjugated"])
def test_benchmark_atoms_match_the_oracle(builder, tmp_path, checked_calls):
    # the builder parses each file it writes, and its render -> parse
    # check reads every letter again
    assert len(perfbench_words(builder, tmp_path)) >= 9
    if builder == "build_conjugated":
        assert len(checked_calls) > 400


def test_the_form_depends_on_the_order_of_commuting_twists(g2):
    # c4 is disjoint from c1 and del, so the two conjugators are the same
    # mapping class; the sort moves a twist only past an earlier-declared
    # curve, so each keeps its own form
    assert g2.is_disjoint("c4", "c1") and g2.is_disjoint("c4", "del")
    (a, _), = parse_word(g2, "[c1 del c4]c3").letters
    (b, _), = parse_word(g2, "[c4 c1 del]c3").letters
    assert (repr(a), repr(b)) == ("[c1 del c4]c3", "[c4 c1 del]c3")
    assert a != b
    assert g2.homology_class_of_letter(a) == g2.homology_class_of_letter(b)
    for letter in (a, b):
        assert assert_same_as_oracle(g2, letter.conj, letter.base) == (letter.conj, letter.base)


# --- passes --------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Passes of the routine and of the oracle.

    An oracle pass starts with one free reduction.  The routine inlines
    its free reduction, so its passes are counted as the iterations of its
    pass loop: the line events on the loop's ``for`` line."""
    count = {"routine": 0, "oracle": 0}
    reduce = normalize_oracle._free_reduce_pairs

    def reducing(pairs):
        count["oracle"] += 1
        return reduce(pairs)

    monkeypatch.setattr(normalize_oracle, "_free_reduce_pairs", reducing)
    code = words.normalize_conjugator.__code__
    lines, first = inspect.getsourcelines(code)
    loop = first + next(k for k, text in enumerate(lines) if text.strip().startswith("for _ in range("))

    def in_routine(frame, event, arg):
        if event == "line" and frame.f_lineno == loop:
            count["routine"] += 1
        return in_routine

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_routine if frame.f_code is code else None)
    yield count
    sys.settrace(previous)


@pytest.mark.parametrize("pairs, base, want, oracle_passes", [
    # already in normal form
    ([("c1", 1)], "c2", ([("c1", 1)], "c2"), 1),
    ([("c3", 1), ("c1", 1)], "c2", ([("c3", 1), ("c1", 1)], "c2"), 1),
    # one drop: c5 is disjoint from the base c1 and from the kept c2
    ([("c5", 1), ("c2", 1)], "c1", ([("c2", 1)], "c1"), 2),
    # one sort change: c3 moves left past the earlier-declared c1
    ([("c1", 1), ("c3", 1)], "c2", ([("c3", 1), ("c1", 1)], "c2"), 2),
    # a drop and a sort in the same pass
    ([("c1", 1), ("c3", 1), ("c5", 1)], "c2", ([("c3", 1), ("c1", 1)], "c2"), 3),
])
def test_no_verifying_pass(passes, pairs, base, want, oracle_passes):
    system = ladder(2)
    passes.update(routine=0, oracle=0)
    conj, got_base = want
    assert normalize_conjugator(system, pairs, base) == (tuple(conj), got_base)
    assert normalize_oracle.normalize_conjugator(system, pairs, base) == (tuple(conj), got_base)
    assert passes == {"routine": 1, "oracle": oracle_passes}


@pytest.mark.parametrize("pairs, base, want", [
    # dropping c5 leaves c2 c2^-1 adjacent, which cancel
    ([("c2", 1), ("c5", 1), ("c2", -1)], "c1", ((), "c1")),
    # dropping c5 leaves the base twist c1 last, which goes
    ([("c2", 1), ("c1", 1), ("c5", 1)], "c1", ((("c2", 1),), "c1")),
    # sorting c3 past c1 brings c1 next to c1^-1
    ([("c1", 1), ("c3", 1), ("c1", -1)], "c2", ((("c3", 1),), "c2")),
])
def test_a_drop_or_sort_that_lets_an_earlier_rule_fire_restarts(passes, pairs, base, want):
    system = ladder(2)
    passes.update(routine=0, oracle=0)
    assert assert_same_as_oracle(system, pairs, base) == want
    assert passes["routine"] == 2


def test_undeclared_names_raise_unknown_curve(g2, g3):
    for base, conj in (("c1", [("nowhere", 1)]), ("nowhere", [("c1", 1)]),
                       ("c1", [("c2", 1), ("nowhere", -2)])):
        with pytest.raises(UnknownCurve, match="curve 'nowhere' is not declared"):
            g2.letter(base, conj)
    # names are checked before exponents
    with pytest.raises(UnknownCurve):
        g2.letter("c1", [("c2", 0), ("nowhere", 1)])
    with pytest.raises(InvalidDeclaration):
        g2.letter("c1", [("c2", 0)])
    # the class walk names an undeclared curve the same way, never by KeyError
    for letter in (Letter((), "nowhere"), Letter((("nowhere", 1),), "c1"),
                   Letter((("nowhere", 1), ("c2", 1)), "c1")):
        with pytest.raises(UnknownCurve, match="curve 'nowhere' is not declared"):
            g2.homology_class_of_letter(letter)
    # the walk stops at the first opaque curve, as it reads right to left
    assert g3.class_of("x2") is None
    assert g3.homology_class_of_letter(Letter((("nowhere", 1), ("x2", 1)), "c1")) is None


def test_letter_reads_exponents_as_repeated_twists(g2):
    assert g2.letter("c2", [("c1", 3), ("c3", -2)]) == g2.letter(
        "c2", [("c1", 1)] * 3 + [("c3", -1)] * 2)
    assert g2.letter("c2", [("c1", -1), ("c1", 1)]) == g2.letter("c2")


# --- the conjugated-atom reader --------------------------------------------------


class CountingList(list):
    """A token list that counts the elements its slices copy."""

    copied = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            CountingList.copied += len(item)
        return item


class CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern

    def findall(self, text):
        return CountingList(self.pattern.findall(text))

    def __getattr__(self, name):
        return getattr(self.pattern, name)


@pytest.mark.parametrize("atoms", [100, 1000, 4000])
def test_conjugated_atoms_copy_each_token_once(monkeypatch, atoms):
    monkeypatch.setattr(parser, "_TOKEN", CountingPattern(parser._TOKEN))
    monkeypatch.setattr(CountingList, "copied", 0)
    system = ladder(2)
    text = " ".join(f"[c1^{i % 5 + 1}]c2" for i in range(atoms))
    w = parse_word(system, text)
    tokens = 6 * atoms  # [ c1 ^ k ] c2
    assert len(w) == atoms
    assert CountingList.copied <= tokens
    assert w.letters[:5] == tuple((system.letter("c2", [("c1", k)]), 1) for k in range(1, 6))
