import random

import pytest

from mcgcalc import fixture_path, moves
from mcgcalc.errors import ScriptError, SubstMismatch
from mcgcalc.meyer import factorization_signature
from mcgcalc.moves import (
    Conj,
    DerivationScript,
    Elem,
    Rotate,
    Subst,
    elementary_transformation,
    find_sites,
    replay_script,
    rotate,
    simultaneous_conjugation,
    substitute,
)
from mcgcalc.parser import parse_system
from mcgcalc.reports import singular_fiber_census
from mcgcalc.symplectic import h1_total_space, is_homological_relator, rho_image
from mcgcalc.words import is_positive, render_word


def test_elem_right_formula(g2):
    w = g2.word(["c1", "c2"])
    out = elementary_transformation(w, 1, "R")
    assert out == g2.word([g2.letter("c2"), g2.letter("c1", [("c2", -1)])])


def test_elem_left_then_right_restores(g2):
    rng = random.Random(3)
    names = ["c1", "c2", "c3", "c4", "c5"]
    for _ in range(50):
        w = g2.word([rng.choice(names) for _ in range(6)])
        i = rng.randrange(1, 6)
        assert elementary_transformation(elementary_transformation(w, i, "R"), i, "L") == w
        assert elementary_transformation(elementary_transformation(w, i, "L"), i, "R") == w


def test_elem_on_disjoint_pair_is_plain_swap(g2):
    w = g2.word(["c1", "c3"])
    assert elementary_transformation(w, 1, "R") == g2.word(["c3", "c1"])


def test_elem_preserves_rho_and_length(g2):
    rng = random.Random(5)
    names = ["c1", "c2", "c3", "c4", "c5"]
    for _ in range(50):
        w = g2.word([rng.choice(names) for _ in range(8)])
        before = rho_image(g2, w)
        i = rng.randrange(1, 8)
        out = elementary_transformation(w, i, rng.choice(["L", "R"]))
        assert len(out) == len(w)
        assert is_positive(out)
        assert rho_image(g2, out) == before


def test_elem_index_bounds(g2):
    w = g2.word(["c1", "c2"])
    with pytest.raises(IndexError):
        elementary_transformation(w, 2, "R")
    with pytest.raises(IndexError):
        elementary_transformation(w, 0, "R")


def test_conjugation_identity_and_inverse(g2):
    w = g2.words["rho"]
    assert simultaneous_conjugation(w, g2.empty_word()) == w
    conj = g2.word([("c2", 1), ("c4", -1)])
    from mcgcalc.words import invert_word

    assert simultaneous_conjugation(simultaneous_conjugation(w, conj), invert_word(conj)) == w


def test_rotation_is_cyclic_permutation(g2):
    w = g2.words["rho"]
    n = len(w)
    rot1 = rotate(w, 1)
    assert rot1.letters == (w.letters[-1],) + w.letters[:-1]
    assert rotate(w, -1).letters == w.letters[1:] + (w.letters[0],)
    assert rotate(w, n) == w
    assert rotate(rotate(w, 3), -3) == w


def test_rotation_preserves_relator(g2):
    w = g2.words["rho"]
    for k in (1, -1, 5, -7):
        assert is_homological_relator(g2, rotate(w, k))


def test_substitute_forward_then_reverse(g2):
    la = g2.relations["LA"]
    w = g2.word(["c3", "c5", "c5", "c3"])
    fwd = substitute(g2, w, la, 1, "fwd")
    assert fwd == g2.word(["c1", "k", "h"])
    assert substitute(g2, fwd, la, 1, "rev") == w


def test_substitute_mismatch(g2):
    la = g2.relations["LA"]
    w = g2.word(["c3", "c5", "c5", "c4"])
    with pytest.raises(SubstMismatch):
        substitute(g2, w, la, 1, "fwd")


def test_substitute_braid_and_commute(rel_g2):
    br = rel_g2.relations["BR12"]
    w = rel_g2.word(["c1", "c2", "c1"])
    assert substitute(rel_g2, w, br, 1, "fwd") == rel_g2.word(["c2", "c1", "c2"])
    cm = rel_g2.relations["CM13"]
    w = rel_g2.word(["c1", "c3"])
    assert substitute(rel_g2, w, cm, 1, "fwd") == rel_g2.word(["c3", "c1"])


def test_substitute_chain2(rel_g2):
    ch = rel_g2.relations["CH12"]
    w = rel_g2.words["chainrel"]
    out = substitute(rel_g2, w, ch, 1, "fwd")
    assert out == rel_g2.word(["bd"])
    assert len(w) - len(out) == 11
    back = substitute(rel_g2, out, ch, 1, "rev")
    assert back == w


def test_substitute_with_assumed_relation_is_recorded():
    # a relation touching opaque curves cannot be homologically checked;
    # it loads as "assumed" and replay records every step that uses it
    from mcgcalc.parser import parse_scripts, parse_system

    s = parse_system(
        "genus 2\n"
        "curve c1 = a1\n"
        "curve c2 = b1\n"
        "curve p = ?\n"
        "curve q = ?\n"
        "curve r = ?\n"
        "meet1 c1 c2\n"
        "lantern LX : c1 c2 c1 c2 => p q r\n"
        "word w = (c1 c2)^6\n"
    )
    assert s.relations["LX"].status == "assumed"
    scripts = parse_scripts("script go on w:\n  subst LX @ 1 fwd\n", s)
    result = replay_script(s, scripts["go"])
    assert result.steps[0].assumed_relation == "LX"
    assert result.steps[0].rho_checked is None
    assert len(result.final) == 11


def test_find_sites_examples(g2):
    la = g2.relations["LA"]
    assert find_sites(g2, g2.word(["c3", "c5", "c5", "c3"]), la) == [(1, "fwd")]
    assert find_sites(g2, g2.words["rho"], la) == []
    assert find_sites(g2, g2.word(["c1", "k", "h"]), la) == [(1, "rev")]


def test_find_sites_then_substitute_succeeds(g2, ex53):
    # replay until just before each substitution and check the scanner
    # reports the site the script uses
    w = g2.words["rho"]
    for move in ex53.steps:
        if isinstance(move, Subst):
            rel = g2.relations[move.relation]
            assert (move.position, move.direction) in find_sites(g2, w, rel)
            w = substitute(g2, w, rel, move.position, move.direction)
        elif isinstance(move, Elem):
            w = elementary_transformation(w, move.index, move.direction)
        elif isinstance(move, Rotate):
            w = rotate(w, move.k)


# --- script replay -----------------------------------------------------------


def test_ex53_replay(g2, ex53):
    result = replay_script(g2, ex53)
    assert result.expected_matched
    assert result.lantern_forward_count == 4
    assert len(result.final) == 16
    assert result.sigma_initial == -12
    assert result.sigma_final == -8
    assert all(s.rho_checked for s in result.steps)


def test_ex53_lantern_deltas(g2, ex53):
    result = replay_script(g2, ex53)
    sigma_prev = result.sigma_initial
    len_prev = len(result.initial)
    for step in result.steps:
        if step.lantern_forward:
            assert step.length == len_prev - 1
            assert step.sigma == sigma_prev + 1
        else:
            assert step.length == len_prev
            assert step.sigma == sigma_prev
        sigma_prev = step.sigma
        len_prev = step.length


def test_empty_script(g2):
    script = DerivationScript("noop", "rho", ())
    result = replay_script(g2, script)
    assert result.final == g2.words["rho"]


def test_corrupted_script_reports_step(g2, ex53):
    steps = list(ex53.steps)
    steps[2] = Subst("LA", 2, "fwd")  # wrong position
    bad = DerivationScript("bad", "rho", tuple(steps))
    with pytest.raises(ScriptError) as exc:
        replay_script(g2, bad)
    assert exc.value.step == 3


def test_ex52_tau_replay(g3, ex52):
    result = replay_script(g3, ex52["ex52_tau"])
    assert result.expected_matched
    assert result.lantern_forward_count == 0
    assert len(result.final) == 36


def test_ex52_tauprime_replay(g3, ex52):
    result = replay_script(g3, ex52["ex52_tauprime"])
    assert result.expected_matched
    assert len(result.final) == 33


def test_ex52_blowdown_replay(g3, ex52):
    result = replay_script(g3, ex52["ex52_blowdown"])
    assert result.expected_matched
    assert result.lantern_forward_count == 3
    assert len(result.initial) - len(result.final) == 3


def test_ex52_sites(g3):
    lftv = g3.relations["LFTV"]
    assert find_sites(g3, g3.words["tau"], lftv) == [(3, "fwd"), (15, "fwd"), (27, "fwd")]
    assert find_sites(g3, g3.words["tauprime"], lftv) == [(3, "rev"), (14, "rev"), (25, "rev")]


# --- invariance fuzzing --------------------------------------------------


def random_move(rng, w):
    n = len(w)
    kind = rng.randrange(3)
    if kind == 0:
        return Elem(rng.randrange(1, n), rng.choice(["L", "R"]))
    if kind == 1:
        names = ["c1", "c2", "c3", "c4", "c5"]
        letters = [(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(1, 3))]
        from mcgcalc.moves import Conj

        return Conj(w.system.word(letters))
    return Rotate(rng.choice([1, -1, 2, -3]))


def apply_move(g, w, move):
    from mcgcalc.moves import Conj

    if isinstance(move, Elem):
        return elementary_transformation(w, move.index, move.direction)
    if isinstance(move, Conj):
        return simultaneous_conjugation(w, move.word)
    return rotate(w, move.k)


def test_hurwitz_invariance_fuzz(g2):
    # independent random walks from rho: e, census, H1 and the relator
    # property after every move, sigma at the end of each walk (the
    # conjugators grow under long walks, so several short walks keep
    # the arithmetic exact and fast)
    e0 = 4 - 4 * g2.genus + len(g2.words["rho"])
    census0 = singular_fiber_census(g2, g2.words["rho"])
    h10 = h1_total_space(g2, g2.words["rho"])
    sigma0 = factorization_signature(g2, g2.words["rho"])
    for seed in range(6):
        rng = random.Random(1000 + seed)
        w = g2.words["rho"]
        for _ in range(50):
            w = apply_move(g2, w, random_move(rng, w))
            assert is_positive(w)
            assert 4 - 4 * g2.genus + len(w) == e0
            assert singular_fiber_census(g2, w) == census0
            assert h1_total_space(g2, w) == h10
            assert is_homological_relator(g2, w)
        assert factorization_signature(g2, w) == sigma0


def test_substitution_delta_context_independent(g2, ex53):
    # the same lantern substituted in different words and positions
    # always shifts (e, sigma) by (-1, +1)
    deltas = set()
    w = g2.words["rho"]
    for move in ex53.steps:
        if isinstance(move, Subst):
            rel = g2.relations[move.relation]
            out = substitute(g2, w, rel, move.position, move.direction)
            if rel.kind == "lantern":
                deltas.add(
                    (
                        len(out) - len(w),
                        factorization_signature(g2, out) - factorization_signature(g2, w),
                    )
                )
            w = out
        elif isinstance(move, Elem):
            w = elementary_transformation(w, move.index, move.direction)
        elif isinstance(move, Rotate):
            w = rotate(w, move.k)
    assert deltas == {(-1, 1)}


def test_lantern_delta_under_rotated_contexts(g2):
    # shift the site around with rotations; the delta never changes
    la = g2.relations["LA"]
    base = g2.words["rho"]
    prepared = elementary_transformation(base, 8, "L")
    prepared = elementary_transformation(prepared, 12, "R")
    for k in (0, 2, -3, 7):
        w = rotate(prepared, k) if k else prepared
        sites = [s for s in find_sites(g2, w, la) if s[1] == "fwd"]
        assert sites, f"no site after rotation {k}"
        pos, _ = sites[0]
        out = substitute(g2, w, la, pos, "fwd")
        assert len(out) - len(w) == -1
        assert factorization_signature(g2, out) - factorization_signature(g2, w) == 1


def test_chain2_delta_snapshot(rel_g2):
    # measured once, then asserted context-independent: chain2 forward
    # drops 11 letters; the sigma delta is a fixture snapshot
    ch = rel_g2.relations["CH12"]
    w = rel_g2.words["chainrel"]
    sigma_before = factorization_signature(rel_g2, w)
    out = substitute(rel_g2, w, ch, 1, "fwd")
    delta = factorization_signature(rel_g2, out) - sigma_before
    assert len(out) - len(w) == -11
    assert (sigma_before, delta) == (-8, 7)  # frozen engine snapshot
    # the doubled word carries interior sites; the delta must agree
    w2 = rel_g2.word(["c1", "c2"] * 12)
    sites = [p for p, d in find_sites(rel_g2, w2, ch) if d == "fwd"]
    assert 7 in sites
    out2 = substitute(rel_g2, w2, ch, 7, "fwd")
    delta2 = factorization_signature(rel_g2, out2) - factorization_signature(rel_g2, w2)
    assert delta2 == delta


def test_move_soundness_fuzz_random_substitutions(g2, ex53):
    # interleave random legal moves with the scripted substitutions and
    # check the relator property after every single step
    rng = random.Random(2024)
    w = g2.words["rho"]
    for move in ex53.steps:
        for _ in range(rng.randrange(3)):
            w = apply_move(g2, w, random_move(rng, w))
            assert is_homological_relator(g2, w)
        if isinstance(move, Subst):
            rel = g2.relations[move.relation]
            sites = find_sites(g2, w, rel)
            if sites:
                pos, direction = rng.choice(sites)
                w = substitute(g2, w, rel, pos, direction)
                assert is_positive(w)
                assert is_homological_relator(g2, w)


# Positivity has one gate: each move refuses a word with an inverse
# letter, and every move maps a positive word to a positive one, so
# replay does not scan the word again after a step.

NON_POSITIVE = ["c3", "c5", "c5", "c3", ("c1", -1)]


@pytest.mark.parametrize(
    "move",
    [
        lambda s, w: elementary_transformation(w, 1, "R"),
        lambda s, w: simultaneous_conjugation(w, s.word(["c1"])),
        lambda s, w: rotate(w, 1),
        lambda s, w: substitute(s, w, s.relations["LA"], 1, "fwd"),
    ],
    ids=["elem", "conj", "rot", "subst"],
)
def test_moves_refuse_a_word_with_an_inverse_letter(g2, move):
    with pytest.raises(ValueError, match="positive"):
        move(g2, g2.word(NON_POSITIVE))


@pytest.mark.parametrize(
    "step",
    [
        lambda s: Elem(1, "R"),
        lambda s: Conj(s.word(["c1"])),
        lambda s: Rotate(1),
        lambda s: Subst("LA", 1, "fwd"),
    ],
    ids=["elem", "conj", "rot", "subst"],
)
def test_replay_refuses_a_source_with_an_inverse_letter_at_step_1(step):
    # a homological relator, so the source's signature is computed first
    system = parse_system(fixture_path("genus2_chain.mcg").read_text())
    rho = system.words["rho"].letters
    system.add_word("neg", system.word([("c1", -1), *rho, "c1"]))
    script = DerivationScript("s", "neg", (step(system),))
    with pytest.raises(ScriptError, match="positive") as info:
        replay_script(system, script)
    assert info.value.step == 1


def test_replay_checks_positivity_once_per_step(g2, g3, ex53, ex52, monkeypatch):
    calls = []
    original = moves.is_positive

    def counting(w):
        calls.append(len(w))
        return original(w)

    monkeypatch.setattr(moves, "is_positive", counting)
    for system, script in [(g2, ex53)] + [(g3, s) for s in ex52.values()]:
        calls.clear()
        replay_script(system, script)
        assert len(calls) == len(script.steps), script.name
