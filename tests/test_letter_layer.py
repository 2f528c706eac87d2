"""The letter layer against its slow oracles.

The fast paths: the commuting-twist sort of ``normalize_conjugator``
(rightmost position per name instead of adjacent swaps), the per-name
disjoint sets behind its drop rule, the per-system memos of
``CurveSystem.letter`` and ``homology_class_of_letter``, H1 from the
distinct classes up to sign, and the one-findall tokenizer.  Each is
held to the obvious version: ``normalize_one_rule_per_pass``, the
flattened twist product, the full-column (U, D, V) Smith normal form
and the ``finditer`` tokenizer.
"""

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc import symplectic as sp
from mcgcalc.errors import ParseError, UnknownClass
from mcgcalc.moves import elementary_transformation, simultaneous_conjugation
from mcgcalc.parser import _Tokens, parse_system
from mcgcalc.system import CurveSystem
from mcgcalc.words import flatten_word, normalize_conjugator
from tests import parser_oracle, snf_oracle
from tests.conftest import load_fixture_system
from tests.flat_oracle import twist_classes
from tests.test_incremental_replay import chain_text
from tests.test_words import conjugators, normalize_one_rule_per_pass

LADDER_GENERA = range(2, 7)


@cache
def ladder(g):
    """The genus-g chain c1..c_{2g+1} with its hyperelliptic relator ``w``."""
    return parse_system(chain_text(g))


def hurwitz_words(system, source, seed, moves=40, max_conj=12):
    """Seeded elementary transformations of ``source``, then a fixed
    conjugation with a pseudo-Anosov factor: the letters the paper's
    rewritten relators are made of.  A move that would push a conjugator
    past ``max_conj`` twists is skipped."""
    rng = random.Random(seed)
    w = system.words[source]
    for _ in range(moves):
        moved = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice("LR"))
        if all(len(letter.conj) <= max_conj for letter, _ in moved):
            w = moved
    conj = system.word([("c3", 1), ("c2", 1)] + [("c1", 1), ("c2", -1)] * 3
                       + [("c4", -1), ("c3", 1)])
    return [w, simultaneous_conjugation(w, conj)]


@cache
def rewritten(g):
    system = ladder(g)
    return system, [w for seed in range(3) for w in hurwitz_words(system, "w", seed)]


def fixture_words():
    for name in ("genus2_chain.mcg", "genus3_chain.mcg"):
        system = load_fixture_system(name)
        yield system, list(system.words.values())
    system = parse_system((Path(__file__).parent / "data" / "h1_torsion.mcg").read_text())
    yield system, list(system.words.values())


# --- normal form ---------------------------------------------------------------


@pytest.mark.parametrize("g", LADDER_GENERA)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normal_form_on_ladder_chains_matches_one_rule_per_pass(g, data):
    system = ladder(g)
    pairs, base = data.draw(conjugators(system))
    assert normalize_conjugator(system, pairs, base) == normalize_one_rule_per_pass(
        system, pairs, base)


@pytest.mark.parametrize("g", LADDER_GENERA)
def test_hurwitz_rewritten_letters_match_one_rule_per_pass(g):
    system, words = rewritten(g)
    prefix = list(flatten_word(system.word([("c2", 1), ("c1", -1), ("c3", 1)])))
    checked = 0
    for w in words:
        for letter, _ in w:
            for pairs in (letter.conj, letter.conj + letter.conj, prefix + list(letter.conj)):
                assert normalize_conjugator(system, pairs, letter.base) == \
                    normalize_one_rule_per_pass(system, pairs, letter.base)
                checked += 1
    assert checked > 100


def test_drop_rule_reads_the_per_name_sets():
    system = ladder(2)
    assert system.is_disjoint("c1", "c3") and system.is_disjoint("c3", "c1")
    assert not system.is_disjoint("c1", "c2") and not system.is_disjoint("c1", "c1")
    assert not system.is_disjoint("c1", "nowhere")
    # c5 is disjoint from the base c1, so it goes; c3 is disjoint from
    # c1 too, but it meets the kept c2, so it stays
    assert system.letter("c1", [("c3", 1), ("c2", 1), ("c5", 1)]) == \
        system.letter("c1", [("c3", 1), ("c2", 1)])


# --- the per-system memos ------------------------------------------------------


def three_curves():
    s = CurveSystem(2)
    s.add_curve("c1", (1, 0, 0, 0))
    s.add_curve("c2", (0, 1, 0, 0))
    s.add_curve("c3", (1, 0, 1, 0))
    return s


def test_letter_memo_is_cleared_by_a_later_disjoint_fact():
    s = three_curves()
    before = s.letter("c1", [("c3", 1)])
    assert before.conj == (("c3", 1),)
    assert s.letter("c1", [("c3", 1)]) == before
    s.add_disjoint("c1", "c3")
    assert s.letter("c1", [("c3", 1)]).conj == ()


def test_letter_memo_is_cleared_by_a_later_meet1_fact():
    s = three_curves()
    conj = [("c2", -1), ("c1", -1)]
    before = s.letter("c2", conj)
    assert (before.conj, before.base) == ((("c2", -1), ("c1", -1)), "c2")
    s.add_meet1("c1", "c2")
    # t_a(b) = t_b^-1(a) now applies: [c2^-1 c1^-1]c2 = c1
    after = s.letter("c2", conj)
    assert (after.conj, after.base) == ((), "c1")


def test_letter_memo_keys_on_the_conjugator_as_given():
    s = ladder(2)
    a = s.letter("c2", [("c1", 2)])
    b = s.letter("c2", [("c1", 1), ("c1", 1)])
    assert a == b
    with pytest.raises(ValueError):
        s.letter("c2", [("c1", 0)])
    with pytest.raises(ValueError):
        s.letter("c2", [("c1", 0)])  # a refused letter is not memoized


@pytest.mark.parametrize("g", LADDER_GENERA)
def test_memoized_class_matches_flattened_oracle(g):
    system, words = rewritten(g)
    identity = sp.mat_identity(2 * g)
    for w in words:
        for letter, _ in w:
            u = system.homology_class_of_letter(letter)
            assert system.homology_class_of_letter(letter) == u
            for s in (1, -1):
                flat = sp.twist_product(identity, twist_classes(system, letter.flatten(s)))
                assert flat == sp.transvection(u, s)


def test_memoized_class_of_opaque_letters_matches_flattened_oracle():
    for system, words in fixture_words():
        identity = sp.mat_identity(2 * system.genus)
        for w in words:
            for letter, _ in w:
                for _ in range(2):  # the walk, then the memo
                    u = system.homology_class_of_letter(letter)
                    try:
                        flat = sp.twist_product(identity, twist_classes(system, letter.flatten(1)))
                    except UnknownClass:
                        assert u is None
                    else:
                        assert flat == sp.transvection(u)


# --- H1 from the distinct classes ----------------------------------------------


def full_column_h1(system, w):
    """Z^2g modulo every letter's class, one column per letter."""
    n = 2 * system.genus
    cols = [sp.letter_class(system, letter) for letter, _ in w]
    factors = snf_oracle.invariant_factors([[col[i] for col in cols] for i in range(n)])
    return sp.AbelianGroup(n - len(factors), tuple(x for x in factors if x > 1))


def test_h1_matches_full_column_oracle_on_rewritten_ladders():
    signs_differ = 0
    for g in LADDER_GENERA:
        system, words = rewritten(g)
        for w in words:
            assert sp.h1_total_space(system, w) == full_column_h1(system, w)
            classes = {sp.letter_class(system, letter) for letter, _ in w}
            signs_differ += any(tuple(-x for x in u) in classes for u in classes if any(u))
    # some words hold a class and its negative, which make one column
    assert signs_differ


def test_h1_matches_full_column_oracle_on_fixture_words():
    checked = 0
    for system, words in fixture_words():
        for w in words:
            try:
                want = full_column_h1(system, w)
            except UnknownClass:
                with pytest.raises(UnknownClass):
                    sp.h1_total_space(system, w)
                continue
            assert sp.h1_total_space(system, w) == want
            checked += 1
    assert checked >= 5


# --- the tokenizer -------------------------------------------------------------


def finditer_items(text, line):
    """The tokenizer as it was: one Match per token, columns for all."""
    items = []
    for m in parser_oracle.TOKEN.finditer(text):
        if m.group(2) is not None:
            raise ParseError("unrecognized token", line, m.start(2) + 1, m.group(2))
        items.append((m.group(1), m.start(1) + 1))
    return items


def fields(exc):
    return exc.line, exc.col, exc.token, str(exc)


# token characters, Unicode whitespace and digits, and characters that
# start no token
lines = st.text(
    alphabet=st.sampled_from(list("ab_Z09c1-+^[]()=>:@?  \t\x1c ٣é$!.,")),
    max_size=40,
) | st.text(max_size=20)


@settings(max_examples=500, deadline=None)
@given(text=lines, line=st.integers(1, 10**6), k=st.integers(0, 12))
def test_tokens_match_finditer_tokenizer(text, line, k):
    try:
        want = finditer_items(text, line)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _Tokens(text, line)
        assert fields(got.value) == fields(exc)
        return
    toks = _Tokens(text, line)
    assert toks.items == want
    # the errors raised after k tokens name the k-th token's column
    for _ in range(min(k, len(want))):
        toks.next()
    if k < len(want):
        assert toks.col() == want[k][1]
        with pytest.raises(ParseError) as got:
            toks.require_done()
        assert fields(got.value) == (line, want[k][1], want[k][0],
                                     f"line {line}, col {want[k][1]}: trailing input "
                                     f"(at {want[k][0]!r})")
        with pytest.raises(ParseError) as got:
            toks.next("never a token")
        assert (got.value.col, got.value.token) == (want[k][1], want[k][0])
    else:
        assert toks.done() and toks.col() is None
