"""A rotation in one pass against the elementary moves it stands for.

``moves.rotate`` builds each single rotation directly: the other
letters pushed forward by z^-1 (by z when rotating by -1), then the
whole word conjugated by z (by z^-1).  ``tests/rotate_oracle`` keeps
the composite it replaced, n - 1 elementary transformations and a
conjugation per single rotation.  Both make the same normalizations,
so they must give the same letters, normal forms included.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import moves
from mcgcalc.moves import rotate
from tests.rotate_oracle import rotate as rotate_oracle

SYSTEMS = ("g2", "g3", "rel_g2")


@st.composite
def conjugated_words(draw, system):
    """A positive word over a few conjugated letters, often repeated.

    The letters include two curves a, b that meet once and each twisted
    by the other, [a^e]b and [b^e]a: by the rewrite t_a(b) = t_b^-1(a),
    a rotation can give such a letter back in another normal form.
    """
    names = list(system.curve_names)
    twist = st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))
    letter = st.builds(system.letter, st.sampled_from(names), st.lists(twist, max_size=3))
    pool = draw(st.lists(letter, max_size=3))
    pairs = [(a, b) for a in names for b in names if system.is_meet1(a, b)]
    a, b = draw(st.sampled_from(pairs))
    e = draw(st.sampled_from([1, -1]))
    pool += [system.letter(a), system.letter(b), system.letter(b, [(a, e)]), system.letter(a, [(b, e)])]
    return system.word(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rotate_matches_elementary_move_oracle(request, name, data):
    system = request.getfixturevalue(name)
    w = data.draw(conjugated_words(system))
    n = len(w)
    k = data.draw(st.integers(-(2 * n + 1), 2 * n + 1))
    out = rotate(w, k)
    assert out == rotate_oracle(w, k), (w, k)
    j = k % n
    event("plain cyclic shift" if out.letters == w.letters[n - j:] + w.letters[:n - j]
          else "a normal form changed")


@pytest.mark.parametrize("name", SYSTEMS)
def test_fixture_words_match_oracle(request, name):
    system = request.getfixturevalue(name)
    for w in system.words.values():
        n = len(w)
        for k in (1, -1, 2, -3, n - 1, n + 1, -(2 * n + 1)):
            assert rotate(w, k) == rotate_oracle(w, k), (w, k)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(moves, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moves, name, counting)
    return calls


def test_single_rotation_makes_no_elementary_move(g2, monkeypatch):
    w = g2.words["rhoprime"]
    elementary = count_calls(monkeypatch, "elementary_transformation")
    pushes = count_calls(monkeypatch, "push_forward_word")
    for k, singles in [(1, 1), (-1, 1), (3, 3), (-(len(w) + 1), 1), (len(w), 0)]:
        pushes.clear()
        rotate(w, k)
        # one push-forward over the other letters, one conjugation
        assert len(pushes) == 2 * singles
    assert elementary == []
