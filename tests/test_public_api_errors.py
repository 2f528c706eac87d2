"""Only typed McgErrors leave the public API.

Each function exported from ``mcgcalc`` is called with drawn bad
arguments of the right types: words and relations of another system,
negative and out-of-range indices and positions, bad signs and move
directions, non-positive words, ragged or odd-sized matrices, and bad
census, group and search data.  Whatever a call does with them, it
returns or raises an ``McgError``, never a bare builtin exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcgcalc
from mcgcalc.errors import DimensionError, McgError, SystemMismatch
from tests.conftest import load_fixture_system

SYSTEMS = {name: load_fixture_system(name)
           for name in ("genus2_chain.mcg", "genus3_chain.mcg", "relations_g2.mcg")}

indices = st.sampled_from([-(10**9), -2, -1, 0, 1, 2, 3, 10**9]) | st.integers(-50, 50)
signs = st.sampled_from([0, 2, -2, 3, 1, -1])
directions = st.sampled_from(["L", "R", "fwd", "rev", "", "l", "left", "X"])
int_rows = st.lists(st.lists(st.integers(-3, 3), max_size=5), max_size=5)


@st.composite
def words(draw, system):
    """A positive fixture word of ``system``, or one made non-positive."""
    w = system.words[draw(st.sampled_from(sorted(system.words)))]
    if draw(st.booleans()):
        other = system.words[draw(st.sampled_from(sorted(system.words)))]
        w = w * ~mcgcalc.Word(system, other.letters[: draw(st.integers(1, 3))])
    return w


@st.composite
def calls(draw):
    """(function, args) with the system the arguments were meant for and
    the words, relations and letters drawn from any fixture system."""
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    w, v = (draw(words(SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))])) for _ in range(2))
    rel_system = system if system.relations and draw(st.booleans()) else SYSTEMS["relations_g2.mcg"]
    rel = draw(st.sampled_from(sorted(rel_system.relations.values(), key=lambda r: r.name)))
    source = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    letter, _ = draw(st.sampled_from([pair for u in source.words.values() for pair in u]))
    n = 2 * draw(st.integers(1, 3)) + draw(st.sampled_from([0, 0, 1]))
    vec = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    mat = draw(int_rows)
    choices = [
        (mcgcalc.elementary_transformation, (w, draw(indices), draw(directions))),
        (mcgcalc.rotate, (w, draw(indices))),
        (mcgcalc.simultaneous_conjugation, (w, v)),
        (mcgcalc.push_forward_word, (w, v)),
        (mcgcalc.compose_words, (w, v)),
        (mcgcalc.invert_word, (w,)),
        (mcgcalc.is_positive, (w,)),
        (mcgcalc.twist_conjugate_letter, (w, letter)),
        (mcgcalc.rho_image, (system, w)),
        (mcgcalc.is_homological_relator, (system, w)),
        (mcgcalc.h1_total_space, (system, w)),
        (mcgcalc.factorization_signature, (system, w)),
        (mcgcalc.full_report, (system, w)),
        (mcgcalc.euler_characteristic, (system, w)),
        (mcgcalc.singular_fiber_census, (system, w)),
        (mcgcalc.fiber_sum, (system, w, v, draw(words(system)))),
        (mcgcalc.find_sites, (system, w, rel)),
        (mcgcalc.substitute, (system, w, rel, draw(indices), draw(directions))),
        (mcgcalc.validate_relation_decl, (system, rel)),
        (mcgcalc.Word, (system, [(letter, draw(signs))])),
        (system.letter, (letter.base, [(name, draw(signs)) for name, _ in letter.conj])),
        (system.word, ([(letter, draw(signs))],)),
        (mcgcalc.CurveSystem, (draw(indices),)),
        (mcgcalc.transvection, (vec, draw(signs))),
        (mcgcalc.pairing, (vec, tuple(draw(st.lists(st.integers(-2, 2), max_size=7))))),
        (mcgcalc.smith_normal_form, (mat,)),
        (mcgcalc.meyer_tau, (mat, draw(int_rows))),
        (mcgcalc.AbelianGroup, (draw(indices), tuple(draw(st.lists(indices, max_size=3))))),
        (mcgcalc.betti_summary, (draw(indices), draw(indices))),
        (mcgcalc.hyperelliptic_signature,
         (draw(indices), draw(indices), dict(draw(st.lists(st.tuples(indices, indices),
                                                          max_size=3))))),
        (mcgcalc.solve_lantern_classes,
         (system, [letter.base] * draw(st.integers(3, 5)),
          draw(st.lists(st.sampled_from([None, letter.base]), min_size=2, max_size=4)),
          draw(st.integers(-2, 3)))),
        (mcgcalc.replay_script,
         (system, mcgcalc.DerivationScript("probe", draw(st.sampled_from(sorted(system.words))),
                                           (mcgcalc.Elem(draw(indices), draw(directions)),
                                            mcgcalc.Rotate(draw(indices)),
                                            mcgcalc.Conj(v))))),
    ]
    return draw(st.sampled_from(choices))


@settings(max_examples=600, deadline=None)
@given(call=calls())
def test_only_mcg_errors_leave_the_public_api(call):
    fn, args = call
    try:
        fn(*args)
    except McgError:
        pass


def test_rho_image_refuses_a_word_of_another_system():
    g2, g3 = SYSTEMS["genus2_chain.mcg"], SYSTEMS["genus3_chain.mcg"]
    with pytest.raises(SystemMismatch):
        mcgcalc.rho_image(g3, g2.words["rho"])
    # the pairs of a word are not a word, and are read as given
    assert mcgcalc.rho_image(g2, list(g2.words["rho"])) == mcgcalc.rho_image(g2, g2.words["rho"])


def test_smith_normal_form_refuses_ragged_rows():
    with pytest.raises(DimensionError, match="row 1 has 1 entries, expected 2"):
        mcgcalc.smith_normal_form([[1, 2], [3]])
    with pytest.raises(DimensionError):
        mcgcalc.smith_normal_form([[1], [2, 3]])
    assert mcgcalc.smith_normal_form([]) == ()
    assert mcgcalc.smith_normal_form([[], []]) == ()
    assert mcgcalc.smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
