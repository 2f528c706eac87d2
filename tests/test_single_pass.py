"""One per-letter route from a word to Sp(2g, Z), and replay's one check
per step.

Every letter [W]c^s acts on homology as T_u^s with u = rho(W)c, so
``rho_image`` is one rank-1 update per letter.  The flattened twist
product over ``flatten_word`` is kept here as its oracle.  The signature
at each replay step is also the step's rho check.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import symplectic as sp
from mcgcalc.cli import run_command
from mcgcalc.errors import InvalidRelation, NotARelator, ScriptError, UnknownClass
from mcgcalc.moves import (
    elementary_transformation,
    replay_script,
    rotate,
    simultaneous_conjugation,
    substitute,
)
from mcgcalc.parser import parse_scripts, parse_system, parse_word
from mcgcalc.words import Letter, _free_reduce_pairs, flatten_word, render_word
from tests.flat_oracle import twist_classes


def flattened_rho(system, w):
    """rho(w) as the product of the transvections of every flattened twist."""
    return sp.twist_product(
        sp.mat_identity(2 * system.genus), twist_classes(system, flatten_word(w))
    )


def outcome(route, system, w):
    try:
        return route(system, w)
    except UnknownClass as exc:
        return ("UnknownClass", str(exc))


def script_words(system, script):
    """The source word and the word after every step of a script, each
    through the render -> parse round trip."""
    result = replay_script(system, script)
    return [result.initial] + [
        parse_word(system, render_word(step.word)) for step in result.steps
    ]


def opaque_walk(system, seed, steps):
    """Words along a seeded Hurwitz walk that also conjugates by opaque curves."""
    rng = random.Random(seed)
    w = system.words[rng.choice(["xthree", "sigma3", "tau"])]
    words = [w]
    for _ in range(steps):
        if rng.random() < 0.25:
            names = rng.sample(["x1", "c8", "x2", "f1", "c2", "c5"], 2)
            conj = system.word([(name, rng.choice([1, -1])) for name in names])
            w = simultaneous_conjugation(w, conj)
        else:
            w = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice("LR"))
        words.append(w)
    return words


@pytest.fixture(scope="module")
def word_set(g2, g3, rel_g2, ex53, ex52):
    cases = [(s, w) for s in (g2, g3, rel_g2) for w in s.words.values()]
    cases += [(g2, w) for w in script_words(g2, ex53)]
    for script in ex52.values():
        cases += [(g3, w) for w in script_words(g3, script)]
    for seed in range(300):
        cases += [(g3, w) for w in opaque_walk(g3, 5000 + seed, 6)]
    return cases


def test_per_letter_rho_matches_flattened_oracle(word_set):
    refused = 0
    for system, w in word_set:
        fast = outcome(sp.rho_image, system, w)
        assert fast == outcome(flattened_rho, system, w), repr(w)
        refused += isinstance(fast[0], str)
    # both kinds of word occur
    assert 0 < refused < len(word_set)
    assert len(word_set) > 2000


def letter_image(system, single):
    ((letter, sign),) = single.letters
    return sp.rho_letter(system, letter, sign)


def test_rho_letter_is_the_transvection_of_the_letter_class(g3):
    for w in opaque_walk(g3, 77, 12):
        for letter, sign in w.letters:
            for s in (sign, -sign):
                single = g3.word([(letter, s)])
                assert outcome(letter_image, g3, single) == outcome(flattened_rho, g3, single)


@st.composite
def raw_letters(draw, system):
    """Letter(conj, base) built directly, skipping the normal form.

    The conjugator is freely reduced, as every Letter's is, and holds
    twists along the base with either sign, often at its end, where
    ``flatten`` cancels them against the base twist.
    """
    names = system.curve_names
    base = draw(st.sampled_from(names))
    twist = st.tuples(st.sampled_from(names + (base,) * 4), st.sampled_from([1, -1]))
    conj = draw(st.lists(twist, max_size=6))
    conj += [(base, draw(st.sampled_from([1, -1])))] * draw(st.integers(0, 3))
    return Letter(tuple(_free_reduce_pairs(conj)), base)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_opaque_name_of_raw_letters_matches_flattened_oracle(g3, data):
    letter = data.draw(raw_letters(g3))
    sign = data.draw(st.sampled_from([1, -1]))
    single = g3.word([(letter, sign)])
    fast = outcome(letter_image, g3, single)
    assert fast == outcome(flattened_rho, g3, single), (letter, sign)
    event("opaque" if isinstance(fast[0], str) else "computable")
    flat = letter.flatten(sign)
    event("flatten cancels" if len(flat) < 2 * len(letter.conj) + 1 else "flatten keeps all")


# --- replay's per-step check ------------------------------------------------

ROUND_TRIP = """
genus 2
curve c1 = a1
curve c2 = b1
curve p = ?
curve q = ?
curve r = ?
meet1 c1 c2
lantern LX : c1 c2 c1 c2 => p q r
lantern LY : c1 c1 c1 c1 => p q r
word src = (c1 c2)^6
word opaque = p q r (c1 c2)^4
"""

SCRIPTS = """
script roundtrip on src:
  subst LX @ 1 fwd
  subst LY @ 1 rev

script fromopaque on opaque:
  subst LY @ 1 rev
"""


@pytest.fixture(scope="module")
def round_trip():
    system = parse_system(ROUND_TRIP)
    return system, parse_scripts(SCRIPTS, system)


def test_assumed_round_trip_that_changes_rho_fails_at_its_step(round_trip):
    # LX and LY are assumed (p, q, r are opaque); the word is opaque after
    # step 1 and computable again after step 2, with another image
    system, scripts = round_trip
    assert {r.status for r in system.relations.values()} == {"assumed"}
    with pytest.raises(ScriptError) as exc:
        replay_script(system, scripts["roundtrip"])
    assert exc.value.step == 2
    assert str(exc.value) == "step 2 (subst LY @ 1 rev): homological image changed"


def test_round_trip_failure_on_the_command_line(round_trip, tmp_path, capsys):
    (tmp_path / "rt.mcg").write_text(ROUND_TRIP)
    (tmp_path / "rt.script").write_text(SCRIPTS)
    code = run_command(["replay", str(tmp_path / "rt.mcg"), str(tmp_path / "rt.script")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "replay failed at step 2: step 2 (subst LY @ 1 rev): homological image changed\n"
    )


def test_first_computable_word_that_is_no_relator(round_trip):
    # no earlier word had a computable image, so nothing "changed": the
    # signature refuses the word
    system, scripts = round_trip
    with pytest.raises(NotARelator):
        replay_script(system, scripts["fromopaque"])


def test_computable_source_that_is_no_relator_is_refused():
    # replay has no mode that walks a computable non-relator: the source
    # word's signature refuses it before the first step
    system = parse_system(ROUND_TRIP + "word bad = c1 c2 c1 c2\n")
    scripts = parse_scripts("script s on bad:\n  subst LX @ 1 fwd\n", system)
    with pytest.raises(NotARelator):
        replay_script(system, scripts["s"])


def count_rho_images(monkeypatch):
    calls = []
    original = sp.rho_image

    def counting(system, w):
        calls.append(len(w))
        return original(system, w)

    monkeypatch.setattr(sp, "rho_image", counting)
    return calls


def test_replay_computes_no_rho_image(g2, g3, ex53, ex52, monkeypatch):
    # replay checks each step on the changed window's letter classes, and
    # a verified substitution trusts the identity add_relation checked
    calls = count_rho_images(monkeypatch)
    for system, script in [(g2, ex53)] + [(g3, s) for s in ex52.values()]:
        replay_script(system, script)
    assert calls == []


def test_substitute_computes_no_rho_image(g2, ex53, monkeypatch):
    # step 3 of ex53 substitutes LA (4 letters => 3) into a 20-letter word
    word = replay_script(g2, ex53).steps[1].word
    calls = count_rho_images(monkeypatch)
    out = substitute(g2, word, g2.relations["LA"], 9, "fwd")
    assert calls == []
    assert len(out) == len(word) - 1


def test_substitute_refuses_relations_the_system_does_not_hold(g2, rel_g2):
    # an equal copy of a verified relation, or another system's relation
    # of the same name, was not validated by this system
    rho = g2.words["rho"]
    copy = g2.relations["BR12"].with_status("verified")
    assert copy == g2.relations["BR12"]
    for rel in (copy, rel_g2.relations["BR12"]):
        with pytest.raises(InvalidRelation):
            substitute(g2, rho, rel, 1, "fwd")


# --- rotations --------------------------------------------------------------


def cyclic(w, k):
    n = len(w.letters)
    cut = -k % n
    return w.letters[cut:] + w.letters[:cut]


@pytest.mark.parametrize("name", ["rho", "rhoprime"])
def test_rotation_is_the_exact_cyclic_permutation(g2, name):
    w = g2.words[name]
    n = len(w)
    for k in range(-2 * n - 1, 2 * n + 2):
        assert rotate(w, k).letters == cyclic(w, k)


def test_rotation_of_a_conjugated_genus_3_word(g3):
    w = g3.words["tau"]
    n = len(w)
    for k in (1, -1, n - 1, n, n + 1, -n - 1, 2 * n + 1):
        assert rotate(w, k).letters == cyclic(w, k)


def up_to_sign(u):
    return max(u, tuple(-x for x in u))


def test_rotation_shifts_the_letter_classes(g2, g3):
    # a rotation keeps the curves in cyclic order, though a letter may come
    # back in another normal form; its class is the same up to sign
    rng = random.Random(41)
    for system in (g2, g3):
        names = [n for n in system.curve_names if system.class_of(n) is not None]
        for _ in range(300):
            letters = []
            for _ in range(rng.randrange(2, 7)):
                conj = [(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(3))]
                letters.append(system.letter(rng.choice(names), conj))
            w = system.word(letters)
            k = rng.randrange(-2 * len(w) - 1, 2 * len(w) + 2)
            got = [up_to_sign(sp.letter_class(system, l)) for l, _ in rotate(w, k).letters]
            want = [up_to_sign(sp.letter_class(system, l)) for l, _ in cyclic(w, k)]
            assert got == want, (repr(w), k)


def test_rotation_may_change_normal_forms(g2):
    # [c1^-1]c2 and [c2]c1 are one curve, as are [c5]c4 and [c4^-1]c5
    assert repr(rotate(parse_word(g2, "c1 [c2]c1"), -1)) == "[c1^-1]c2 c1"
    w = parse_word(g2, "[c5]c4 [c4^-1]c5")
    assert rotate(w, 2) == w
    assert repr(rotate(rotate(w, 1), 1)) == "[c4^-1]c5 [c4^-1]c5"


def test_huge_rotation_runs_as_its_residue(g2):
    w = g2.words["rho"]
    assert rotate(w, 10**12 + 1) == rotate(w, 1)
    assert rotate(w, -(10**12 + 1)) == rotate(w, -1)
    assert rotate(w, 10**40 * len(w)) == w


def test_huge_rotation_in_a_script(g2):
    scripts = parse_scripts(
        "script big on rho:\n  rot 1000000000001\nscript one on rho:\n  rot 1\n", g2
    )
    big = replay_script(g2, scripts["big"])
    one = replay_script(g2, scripts["one"])
    assert big.final == one.final
    assert big.sigma_final == one.sigma_final == -12
