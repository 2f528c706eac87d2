import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc.errors import McgError, SystemMismatch
from mcgcalc.system import CurveSystem
from mcgcalc.words import (
    _free_reduce_pairs,
    Letter,
    Word,
    compose_words,
    invert_word,
    is_positive,
    normalize_conjugator,
    push_forward_word,
    render_word,
    twist_conjugate_letter,
)


def chain_system(genus=2):
    s = CurveSystem(genus)
    if genus == 2:
        classes = [
            ("c1", (1, 0, 0, 0)),
            ("c2", (0, 1, 0, 0)),
            ("c3", (1, 0, 1, 0)),
            ("c4", (0, 0, 0, 1)),
            ("c5", (0, 0, 1, 0)),
        ]
    else:
        raise ValueError
    for name, cls in classes:
        s.add_curve(name, cls)
    for a, b in [("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")]:
        s.add_meet1(a, b)
    for a, b in [("c1", "c3"), ("c1", "c4"), ("c1", "c5"), ("c2", "c4"), ("c2", "c5"), ("c3", "c5")]:
        s.add_disjoint(a, b)
    return s


@pytest.fixture(scope="module")
def sys2():
    return chain_system()


names = ["c1", "c2", "c3", "c4", "c5"]


def rand_word(s, rng, max_len=8):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((s.letter(rng.choice(names)), rng.choice([1, -1])))
    return Word(s, letters)


def test_compose_free_reduction(sys2):
    u = sys2.word([("c1", 1), ("c2", 1)])
    v = sys2.word([("c2", -1)])
    assert compose_words(u, v) == sys2.word(["c1"])


def test_invert_is_antihomomorphism(sys2):
    w = sys2.word([("c3", 1), ("c4", -1)])
    assert invert_word(w) == sys2.word([("c4", 1), ("c3", -1)])


def test_compose_with_empty(sys2):
    w = sys2.word(["c1", "c2", "c3"])
    assert compose_words(sys2.empty_word(), w) == w
    assert compose_words(w, sys2.empty_word()) == w


def test_compose_with_inverse_is_empty(sys2):
    rng = random.Random(7)
    for _ in range(50):
        w = rand_word(sys2, rng)
        assert compose_words(w, invert_word(w)) == sys2.empty_word()


def test_free_reduce_idempotent_and_roundtrip(sys2):
    rng = random.Random(11)
    for _ in range(100):
        w = rand_word(sys2, rng)
        assert Word(sys2, w.letters) == w  # construction already reduces
        # insert a canceling pair at a random spot and reduce back
        letters = list(w.letters)
        pos = rng.randrange(len(letters) + 1)
        letter = sys2.letter(rng.choice(names))
        sign = rng.choice([1, -1])
        letters[pos:pos] = [(letter, sign), (letter, -sign)]
        assert Word(sys2, letters) == w


def test_compose_associative(sys2):
    rng = random.Random(13)
    for _ in range(60):
        u, v, w = (rand_word(sys2, rng, 5) for _ in range(3))
        assert compose_words(compose_words(u, v), w) == compose_words(u, compose_words(v, w))


def test_invert_involution(sys2):
    rng = random.Random(17)
    for _ in range(60):
        w = rand_word(sys2, rng)
        assert invert_word(invert_word(w)) == w


def test_system_mismatch(sys2):
    other = chain_system()
    with pytest.raises(SystemMismatch):
        compose_words(sys2.word(["c1"]), other.word(["c1"]))


@pytest.mark.parametrize("sign", [2, 0, -2])
def test_a_letter_sign_is_1_or_minus_1(sys2, sign):
    c1 = sys2.letter("c1")
    msg = f"letter sign must be 1 or -1, got {sign}"
    with pytest.raises(McgError, match=msg):
        Word(sys2, [(c1, 1), (c1, sign)])
    with pytest.raises(McgError, match=msg):
        sys2.word(["c2", ("c1", sign)])
    # a sign that would cancel against its mirror is refused too
    with pytest.raises(McgError, match=msg):
        Word(sys2, [(c1, sign), (c1, -sign)])


def test_is_positive(sys2):
    assert is_positive(sys2.word(["c5", "c4", "c3", "c2", "c1"] * 4))
    assert not is_positive(sys2.word([("c1", -1)]))
    assert is_positive(sys2.empty_word())


def test_twist_conjugate_cancellation(sys2):
    # [c5]([c5^-1]x) has a vanishing conjugator
    inner = sys2.letter("c2", [("c5", -1)])
    out = twist_conjugate_letter(sys2.word(["c5"]), inner)
    assert out == sys2.letter("c2")


def test_twist_conjugate_empty_word(sys2):
    letter = sys2.letter("c4")
    assert twist_conjugate_letter(sys2.empty_word(), letter) == letter


def test_twist_fixes_own_curve(sys2):
    assert twist_conjugate_letter(sys2.word(["c3"]), sys2.letter("c3")) == sys2.letter("c3")


def test_twist_conjugate_composition_law(sys2):
    rng = random.Random(19)
    for _ in range(60):
        w1, w2 = rand_word(sys2, rng, 4), rand_word(sys2, rng, 4)
        c = sys2.letter(rng.choice(names))
        lhs = twist_conjugate_letter(w1, twist_conjugate_letter(w2, c))
        rhs = twist_conjugate_letter(compose_words(w1, w2), c)
        assert lhs == rhs


def test_disjoint_conjugator_drops(sys2):
    # c1 is disjoint from c3 and c4, so [c3 c4]c1 collapses
    assert sys2.letter("c1", [("c3", 1), ("c4", 1)]) == sys2.letter("c1")
    # but [c2]c1 does not
    assert sys2.letter("c1", [("c2", 1)]) != sys2.letter("c1")


def test_braid_rewrite_cancels(sys2):
    # [c4^-1 c3^-1]c4 = c3 via t_a(b) = t_b^-1(a) at a one-point pair
    assert sys2.letter("c4", [("c4", -1), ("c3", -1)]) == sys2.letter("c3")
    # without a cancellation available the letter is left alone
    z = sys2.letter("c4", [("c3", -1)])
    assert z.conj == (("c3", -1),)


def test_push_forward_is_homomorphism(sys2):
    rng = random.Random(23)
    for _ in range(40):
        w = rand_word(sys2, rng, 4)
        u, v = rand_word(sys2, rng, 4), rand_word(sys2, rng, 4)
        lhs = push_forward_word(w, compose_words(u, v))
        rhs = compose_words(push_forward_word(w, u), push_forward_word(w, v))
        assert lhs == rhs


twists = st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1])), max_size=4)
signed_letters = st.lists(
    st.tuples(st.sampled_from(names), twists, st.sampled_from([1, -1])), max_size=10
)


@given(signed_letters, signed_letters)
@settings(max_examples=200, deadline=None)
def test_push_forward_matches_letterwise_map(w_spec, v_spec):
    # V repeats letters often, so the per-call normalization of each
    # distinct letter is exercised along with the single flattening of W
    s = chain_system()

    def word(spec):
        return Word(s, [(s.letter(base, conj), sign) for base, conj, sign in spec])

    w, v = word(w_spec), word(v_spec)
    expected = Word(s, [(twist_conjugate_letter(w, l), sg) for l, sg in v.letters])
    assert push_forward_word(w, v) == expected


def test_push_forward_preserves_length_and_positivity(sys2):
    w = sys2.word(["c1", "c2", "c3", "c4", "c5", "c5"])
    out = push_forward_word(sys2.word([("c1", -1), ("c2", 1)]), w)
    assert len(out) == len(w)
    assert is_positive(out)


def test_push_forward_empty_cases(sys2):
    v = sys2.word(["c1", "c2"])
    assert push_forward_word(sys2.empty_word(), v) == v
    assert push_forward_word(v, sys2.empty_word()) == sys2.empty_word()


def test_normal_form_stability(sys2):
    rng = random.Random(29)
    for _ in range(200):
        conj = [(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(6))]
        base = rng.choice(names)
        letter = sys2.letter(base, conj)
        again = sys2.letter(letter.base, letter.conj)
        assert letter == again


def test_normal_form_preserves_class_up_to_sign(sys2):
    # normalization rewrites letters only along declared facts; curves
    # are unoriented, so the class survives up to the free sign choice
    # (T_v = T_{-v}, so no downstream invariant can see the difference)
    def transvect(v, a, sign):
        """T_a^sign v = v + sign <v, a> a, for <a1, b1> = +1."""
        c = sign * sum(v[i] * a[i + 1] - v[i + 1] * a[i] for i in range(0, len(v), 2))
        return tuple(x + c * y for x, y in zip(v, a))

    rng = random.Random(31)
    for _ in range(200):
        conj = [(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(6))]
        base = rng.choice(names)
        v = sys2.class_of(base)
        for name, sign in reversed(conj):
            v = transvect(v, sys2.class_of(name), sign)
        letter = sys2.letter(base, conj)
        got = sys2.homology_class_of_letter(letter)
        assert got == v or got == tuple(-x for x in v)


@given(st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1])), max_size=12))
@settings(max_examples=200, deadline=None)
def test_word_reduction_no_adjacent_inverses(pairs):
    s = chain_system()
    w = s.word([(s.letter(n), sg) for n, sg in pairs])
    for (l1, s1), (l2, s2) in zip(w.letters, w.letters[1:]):
        assert not (l1 == l2 and s1 == -s2)


def test_conjugator_cancellation_on_opaque_letter(g3):
    # [c5]([c5^-1]x2) collapses even though x2 has no declared class
    inner = g3.letter("x2", [("c5", -1)])
    out = twist_conjugate_letter(g3.word(["c5"]), inner)
    assert out == g3.letter("x2")


def test_push_forward_matches_twisted_fibration_letters(g3):
    # pushing [f1^-1] over the aligned period turns the plain c4 into
    # the twisted letter and leaves the f1-disjoint letters alone
    prefix = g3.word(["c1", "c2", "x1", "c3", "c4"])
    out = push_forward_word(g3.word([("f1", -1)]), prefix)
    expected = g3.word(
        ["c1", "c2", "x1", "c3", g3.letter("c4", [("f1", -1)])]
    )
    assert out == expected


def test_render_roundtrip(sys2):
    from mcgcalc.parser import parse_word

    w = sys2.word(
        [
            sys2.letter("c2", [("c1", -4)]),
            sys2.letter("c4", [("c2", -1), ("c3", 1)]),
            sys2.letter("c5"),
        ]
    )
    assert parse_word(sys2, render_word(w)) == w


# --- normal form against the one-rule-per-pass oracle -------------------------


def normalize_one_rule_per_pass(system, pairs, base):
    """The letter normal form as a plain fixed point: one rule per pass,
    with the whole conjugator freely reduced again before every rule."""
    conj = list(pairs)
    while True:
        conj = _free_reduce_pairs(conj)
        if conj and conj[-1][0] == base:
            conj.pop()
            continue
        if (
            len(conj) >= 2
            and system.is_meet1(conj[-1][0], base)
            and conj[-2] == (base, conj[-1][1])
        ):
            base = conj[-1][0]
            conj = conj[:-2]
            continue
        kept = []
        support = {base}
        dropped = False
        for name, sign in reversed(conj):
            if all(system.is_disjoint(name, s) for s in support):
                dropped = True
            else:
                kept.append((name, sign))
                support.add(name)
        if dropped:
            conj = kept[::-1]
            continue
        swapped = False
        i = 0
        while i + 1 < len(conj):
            a, b = conj[i], conj[i + 1]
            if (
                a[0] != b[0]
                and system.is_disjoint(a[0], b[0])
                and system.decl_index(a[0]) < system.decl_index(b[0])
            ):
                conj[i], conj[i + 1] = b, a
                swapped = True
                i = max(i - 1, 0)
            else:
                i += 1
        if not swapped:
            return tuple(conj), base


@st.composite
def conjugators(draw, system):
    # a few names per example, so that the tail rules fire often
    alphabet = draw(st.lists(st.sampled_from(system.curve_names), min_size=1, max_size=4,
                             unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from([1, -1])),
                          max_size=24))
    return pairs, draw(st.sampled_from(alphabet))


@pytest.mark.parametrize("fixture", ["g2", "g3"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_normal_form_matches_one_rule_per_pass(request, fixture, data):
    system = request.getfixturevalue(fixture)
    pairs, base = data.draw(conjugators(system))
    assert normalize_conjugator(system, pairs, base) == normalize_one_rule_per_pass(
        system, pairs, base)


def test_normal_form_of_fixture_letters_matches_one_rule_per_pass(g2, g3):
    for system in (g2, g3):
        for w in system.words.values():
            for letter, _ in w.letters:
                for pairs in (letter.conj, letter.conj + letter.conj):
                    assert normalize_conjugator(system, pairs, letter.base) == \
                        normalize_one_rule_per_pass(system, pairs, letter.base)


@st.composite
def long_conjugators(draw, system):
    # long runs over many names, so that twists sort past several others
    names = draw(st.lists(st.sampled_from(system.curve_names), min_size=2, max_size=7,
                          unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1])),
                          min_size=20, max_size=120))
    return pairs, draw(st.sampled_from(system.curve_names))


@pytest.mark.parametrize("fixture", ["g2", "g3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_long_conjugators_match_one_rule_per_pass(request, fixture, data):
    system = request.getfixturevalue(fixture)
    pairs, base = data.draw(long_conjugators(system))
    assert normalize_conjugator(system, pairs, base) == normalize_one_rule_per_pass(
        system, pairs, base)


def test_seeded_conjugators_match_one_rule_per_pass(g3):
    rng = random.Random(37)
    names = list(g3.curve_names)
    for _ in range(2000):
        alphabet = rng.sample(names, rng.randint(2, 6))
        pairs = [(rng.choice(alphabet), rng.choice([1, -1])) for _ in range(rng.randrange(60))]
        base = rng.choice(names)
        assert normalize_conjugator(g3, pairs, base) == normalize_one_rule_per_pass(
            g3, pairs, base)


def test_alternating_disjoint_twists_sort_in_one_pass(g2):
    # c1 and c3 are disjoint and declared in that order, so every c3
    # moves left past every c1: n^2 / 4 adjacent swaps, but one
    # placement per twist
    pairs = [("c1", 1), ("c3", 1)] * 300
    got = normalize_conjugator(g2, pairs, "c2")
    assert got == normalize_one_rule_per_pass(g2, pairs, "c2")
    assert got == (tuple([("c3", 1)] * 300 + [("c1", 1)] * 300), "c2")


@given(st.lists(st.tuples(st.sampled_from(names), st.sampled_from([1, -1, 2])), max_size=6),
       st.sampled_from(names))
@settings(max_examples=200, deadline=None)
def test_equal_letters_hash_equal(conj, base):
    # two systems, so no normalization or letter is shared between the copies
    a, b = chain_system().letter(base, conj), chain_system().letter(base, conj)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.conj, a.base))
    copy = Letter(a.conj, a.base)
    assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
    assert {a: 1}[copy] == 1


def test_positive_word_compares_no_letters(sys2, monkeypatch):
    # free reduction tests the sign first, and nothing cancels in a positive word
    letters = [(sys2.letter(n), 1) for n in names * 4]
    compared = []
    equal = Letter.__eq__
    monkeypatch.setattr(Letter, "__eq__", lambda x, y: compared.append(1) or equal(x, y))
    assert len(Word(sys2, letters)) == len(letters)
    assert not compared
    assert len(Word(sys2, letters[:3] + [(letters[2][0], -1)])) == 2
    assert compared
