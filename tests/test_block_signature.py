"""A run of identical relator blocks costs one block.

``meyer.local_signature`` adds a block's value again, without reading
it, whenever the steps after an I or -I point of the prefix repeat the
block that ended there.  The per-letter sum in ``tests/local_signature_oracle``
is the oracle: the two must agree on (sigma, product) and on the first
opaque letter, and a spy on ``_transvection_tau`` pins the work saved.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc import meyer
from mcgcalc import symplectic as sp
from mcgcalc.errors import UnknownClass
from mcgcalc.meyer import factorization_signature, local_signature
from mcgcalc.parser import parse_system, parse_word
from mcgcalc.words import invert_word, push_forward_word
from tests import local_signature_oracle as oracle
from tests.test_incremental_replay import chain_text
from tests.test_twist_product import hurwitz_walk


def outcome(route, system, pairs):
    try:
        return route(system, pairs)
    except UnknownClass as exc:
        return ("UnknownClass", str(exc))


def table_route(system, pairs):
    """The package route: the pairs' class table, then its steps' sum."""
    return local_signature(system, sp._known_classes(system, pairs))


def assert_same_as_oracle(system, pairs):
    fast = outcome(table_route, system, pairs)
    assert fast == outcome(oracle.local_signature, system, pairs)
    return fast


def library(system, texts, twisted):
    """Block name -> the pairs of its word; ``twisted`` adds [W]-images,
    and ``inv`` and ``neg`` are inverses (the parser reads positive words)."""
    words = {name: parse_word(system, text) for name, text in texts.items()}
    for name, (conj, block) in twisted.items():
        words[name] = push_forward_word(system.word(conj), words[block])
    words["inv"] = invert_word(words["ch2"])
    words["neg"] = invert_word(words["frag1"])
    return {name: list(w.letters) for name, w in words.items()}


@pytest.fixture(scope="module")
def lib2(g2):
    return g2, library(g2, {
        "hyp": "(c1 c2 c3 c4 c5^2 c4 c3 c2 c1)^2",
        "rho": "(c5 c4 c3 c2 c1^2 c2 c3 c4 c5)^2",
        "ch2": "(c1 c2)^6",
        "ch5": "(c1 c2 c3 c4 c5)^6",
        "k": "k",
        "del": "del",
        "frag1": "c1 c2",
        "frag2": "c3 [c1]c2 c4",
        "frag3": "c5 h",
    }, {"tw": ([("c1", 1), ("c2", -1)], "hyp")})


@pytest.fixture(scope="module")
def g3n():
    """The genus-3 fixture plus one null-homologous curve ``n``."""
    return parse_system(fixture_path("genus3_chain.mcg").read_text() + "curve n = 0\n")


@pytest.fixture(scope="module")
def lib3(g3n):
    return g3n, library(g3n, {
        "hyp": "(c1 c2 c3 c4 c5 c6 c7^2 c6 c5 c4 c3 c2 c1)^2",
        "ch2": "(c1 c2)^6",
        "ch5": "(c1 c2 c3 c4 c5)^6",
        "n": "n",
        "frag1": "c1 c2",
        "frag2": "f1 t [c5^-1]c4",
        "frag3": "v",
    }, {"tw": ([("f1", -1), ("c3", 1)], "ch5")})


SHAPES = {
    "run": [("hyp", 4)],
    "alternating": [("hyp", 1), ("ch2", 1), ("hyp", 1), ("ch2", 1), ("hyp", 1)],
    "cut short": [("hyp", 3), ("hyp", 0.4)],
    "repeat after null": [("hyp", 1), ("k", 1), ("hyp", 2)],
    "nulls then run": [("k", 3), ("hyp", 2), ("del", 2)],
    "plain relator": [("rho", 1)],
    "fragment between runs": [("ch5", 2), ("frag1", 1), ("ch5", 2)],
    "twisted fiber sum": [("hyp", 2), ("tw", 2), ("hyp", 1)],
    "inverse relator": [("inv", 3), ("ch2", 3)],
}


def build(lib, shape):
    """A run count r copies a block r times; a fraction keeps that share of one copy."""
    pairs = []
    for name, count in shape:
        block = lib[name]
        pairs += block * count if isinstance(count, int) else block[: int(len(block) * count)]
    return pairs


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_listed_shapes_match_oracle(lib2, shape):
    system, lib = lib2
    sigma, product = assert_same_as_oracle(system, build(lib, SHAPES[shape]))
    if shape == "run":
        assert (sigma, product) == (-48, sp.mat_identity(4))


@st.composite
def block_word(draw, lib):
    names = sorted(lib)
    runs = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3)), max_size=5))
    tail = lib[draw(st.sampled_from(names))]
    pairs = build(lib, runs) + tail[: draw(st.integers(0, len(tail)))]
    event(f"{len({name for name, _ in runs})} distinct blocks")
    return pairs


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_block_words_match_oracle_genus2(lib2, data):
    system, lib = lib2
    assert_same_as_oracle(system, data.draw(block_word(lib)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_block_words_match_oracle_genus3(lib3, data):
    system, lib = lib3
    assert_same_as_oracle(system, data.draw(block_word(lib)))


def test_fixture_words_match_oracle(g2, g3, rel_g2):
    for system in (g2, g3, rel_g2):
        for w in system.words.values():
            assert_same_as_oracle(system, w.letters)
            assert_same_as_oracle(system, w.letters * 3)


@pytest.mark.parametrize("where", ["after", "before", "inside"])
def test_opaque_letter_raises_like_oracle(g3, where):
    block = list(parse_word(g3, "(c1 c2 c3 c4 c5 c6 c7^2 c6 c5 c4 c3 c2 c1)^2").letters)
    opaque = [(g3.letter("x1"), 1)]
    pairs = {
        "after": block * 3 + opaque + block,
        "before": opaque + block * 3,
        "inside": block * 2 + block[:5] + opaque + block[5:],
    }[where]
    fast = assert_same_as_oracle(g3, pairs)
    assert fast[0] == "UnknownClass" and "'x1'" in fast[1]


@pytest.fixture
def tau_calls(monkeypatch):
    calls = []
    real = meyer._transvection_tau

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(meyer, "_transvection_tau", counting)
    return calls


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_fiber_sum_costs_one_block(tau_calls, g):
    # the half of w acts as -I, so w, w^2 and w^4 each read that half
    # once, as two walks: c1 .. c2g fills the first walk's span, and the
    # second walk solves only for its repeated c2g+1 and for the closing
    # c1, which lies in the span of c2 .. c2g+1
    system = parse_system(chain_text(g))
    w = system.words["w"]
    half = 2 * (2 * g + 1)
    assert len(w) == 2 * half
    sigma = factorization_signature(system, w)
    assert len(tau_calls) == 2
    assert sigma == -4 * (g + 1)
    for k, wk in ((2, w * w), (4, w * w * w * w)):
        del tau_calls[:]
        assert factorization_signature(system, wk) == k * sigma
        assert len(tau_calls) == 2


def interior_identity(system, pairs):
    """True iff some proper nonempty prefix of the word acts as I or -I."""
    identity = prefix = sp.mat_identity(2 * system.genus)
    negative = tuple(tuple(-x for x in row) for row in identity)
    for letter, sign in pairs[:-1]:
        prefix = sp.twist_product(prefix, ((sp.letter_class(system, letter), sign),))
        if prefix in (identity, negative):
            return True
    return False


def rank(vectors):
    """The rank of integer vectors over Q, by Fraction elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        for k in range(r + 1, len(rows)):
            f = rows[k][c] / rows[r][c]
            rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def walk_solves(classes, n, split):
    """The solves of a walk from I that skips each class outside the span
    of its walk's classes so far, and whether it split: with ``split``, a
    second walk starts after the step where the first span reaches rank n."""
    solves, walk, switched = 0, [], False
    for u in classes:
        if any(u):
            solves += rank(walk + [u]) == rank(walk)
            walk.append(u)
            if split and not switched and rank(walk) == n:
                walk, switched = [], True
    return solves, switched


def test_word_without_interior_identity_reads_every_letter(tau_calls, g2, g3, rel_g2):
    # rho and sigma3 pass through -I at their half; seeded Hurwitz walks
    # of them do not.  Every letter is read, and a class is solved for
    # only when it lies in the span of its walk's classes so far; a word
    # that split its walk and does not end at I or -I is read again
    walked = {
        "rho walked": (g2, hurwitz_walk(g2.words["rho"], 7000, 15)),
        "sigma3 walked": (g3, hurwitz_walk(g3.words["sigma3"], 8000, 40)),
    }
    cases = [(system, name, w) for system in (g2, g3, rel_g2) for name, w in system.words.items()]
    cases += [(system, name, w) for name, (system, w) in walked.items()]
    read = set()
    for system, name, w in cases:
        try:
            classes = [sp.letter_class(system, letter) for letter, _ in w.letters]
        except UnknownClass:
            continue
        if interior_identity(system, w.letters):
            continue
        del tau_calls[:]  # the oracle holds its own, uncounted reference
        assert table_route(system, w.letters) == oracle.local_signature(system, w.letters)
        n = 2 * system.genus
        solves, switched = walk_solves(classes, n, True)
        identity = sp.mat_identity(n)
        negative = tuple(tuple(-x for x in row) for row in identity)
        if switched and sp.rho_image(system, w.letters) not in (identity, negative):
            solves += walk_solves(classes, n, False)[0]
        assert len(tau_calls) == solves
        read.add(name)
    assert {"chainrel", "rho walked", "sigma3 walked"} <= read
