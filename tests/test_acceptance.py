"""Acceptance suite: one test per criterion, exact checks throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass line
for every criterion.
"""

import random
from fractions import Fraction

import pytest

from mcgcalc import fixture_path
from mcgcalc.cli import run_command
from mcgcalc.meyer import factorization_signature, hyperelliptic_signature, meyer_tau
from mcgcalc.moves import (
    Conj,
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
from mcgcalc.reports import (
    betti_summary,
    euler_characteristic,
    fiber_sum,
    full_report,
    singular_fiber_census,
    substitution_delta_report,
)
from mcgcalc.symplectic import (
    h1_total_space,
    is_homological_relator,
    mat_identity,
    mat_mul,
    rho_image,
    smith_normal_form,
    symplectic_inverse,
    transvection,
)
from mcgcalc.words import is_positive

from tests import snf_oracle
from tests.test_symplectic import rank_over_q


def _ok(msg):
    print(f"PASS {msg}")


# -- criterion 1: relator verification ---------------------------------------


def test_criterion_1_relator_verification(g2, ex53):
    assert rho_image(g2, g2.words["rho"]) == mat_identity(4)
    assert rho_image(g2, g2.words["rhoprime"]) == mat_identity(4)
    w = g2.words["rho"]
    for move in ex53.steps:
        if isinstance(move, Elem):
            w = elementary_transformation(w, move.index, move.direction)
        elif isinstance(move, Rotate):
            w = rotate(w, move.k)
        elif isinstance(move, Conj):
            w = simultaneous_conjugation(w, move.word)
        else:
            w = substitute(g2, w, g2.relations[move.relation], move.position, move.direction)
        assert rho_image(g2, w) == mat_identity(4), f"after {move}"
    assert w == g2.words["rhoprime"]
    _ok("[criterion 1] rho(w) = I for rho, rhoprime, and every ex53 intermediate")


# -- criterion 2: signature calibration ---------------------------------------


def test_criterion_2_signature_calibration(g2):
    assert factorization_signature(g2, g2.words["rho"]) == -12
    assert factorization_signature(g2, g2.words["rhoprime"]) == -8
    assert euler_characteristic(g2, g2.words["rhoprime"]) == 12
    _ok("[criterion 2] sigma(rho) = -12; sigma(rhoprime) = -8 with e = 12")


# -- criterion 3: delta law ----------------------------------------------------


def test_criterion_3_delta_law(g2, ex53):
    result = replay_script(g2, ex53)
    sigma_prev = result.sigma_initial
    len_prev = len(result.initial)
    lantern_steps = 0
    for step in result.steps:
        if step.lantern_forward:
            lantern_steps += 1
            assert step.length - len_prev == -1
            assert step.sigma - sigma_prev == 1
        else:
            assert step.length == len_prev
            assert step.sigma == sigma_prev
        len_prev, sigma_prev = step.length, step.sigma
    assert lantern_steps == 4
    report = substitution_delta_report(g2, result)
    assert report.k == 4
    assert (report.delta_e, report.delta_sigma) == (-4, 4)
    _ok("[criterion 3] each of the 4 lantern steps shifts (e, sigma) by (-1, +1); k = 4")


# -- criterion 4: census / hyperelliptic consistency ---------------------------


def test_criterion_4_census_hyperelliptic(g2):
    census_rho = singular_fiber_census(g2, g2.words["rho"])
    assert (census_rho.n0, census_rho.count(1)) == (20, 0)
    census_rp = singular_fiber_census(g2, g2.words["rhoprime"])
    assert (census_rp.n0, census_rp.count(1)) == (12, 4)
    for name, census in (("rho", census_rho), ("rhoprime", census_rp)):
        hyp = hyperelliptic_signature(2, census.n0, dict(census.separating))
        assert hyp == factorization_signature(g2, g2.words[name])
    assert hyperelliptic_signature(2, 6, {1: 2}) == Fraction(-4)
    _ok("[criterion 4] census(rho) = (20, 0), census(rhoprime) = (12, 4); "
        "hyperelliptic formula matches both and gives -4 on (6, 2)")


# -- criterion 5: fiber sums ----------------------------------------------------


def test_criterion_5_fiber_sums(g2, g3):
    rho = g2.words["rho"]
    total = fiber_sum(g2, rho, rho, g2.empty_word())
    assert len(total) == 40
    report = full_report(g2, total)
    assert (report.e, report.sigma) == (36, -24)
    assert report.h1.is_trivial()
    assert (report.b2plus, report.b2minus) == (5, 29)

    xthree, sigma3 = g3.words["xthree"], g3.words["sigma3"]
    assert euler_characteristic(g3, xthree) == 28
    assert euler_characteristic(g3, sigma3) == 20
    total3 = fiber_sum(g3, xthree, sigma3, g3.empty_word())
    assert euler_characteristic(g3, total3) == 56
    assert factorization_signature(g3, sigma3) == -16
    assert betti_summary(56, -36) == (9, 45)
    _ok("[criterion 5] rho + rho: e=36, sigma=-24, H1=0, b2=(5,29); "
        "genus 3: e=28/20, sum e=56, sigma(sigma3)=-16, betti(56,-36)=(9,45)")


# -- criterion 6: example 5.2 word-level replay ---------------------------------


def test_criterion_6_genus3_replays(g3, ex52):
    res_tau = replay_script(g3, ex52["ex52_tau"])
    assert res_tau.expected_matched
    res_taup = replay_script(g3, ex52["ex52_tauprime"])
    assert res_taup.expected_matched
    lftv = g3.relations["LFTV"]
    assert lftv.status == "verified"
    assert len(find_sites(g3, g3.words["tau"], lftv)) == 3
    assert len(find_sites(g3, g3.words["tauprime"], lftv)) == 3
    res_blow = replay_script(g3, ex52["ex52_blowdown"])
    assert res_blow.expected_matched
    assert res_blow.lantern_forward_count == 3
    # every step's checkable identity holds: elementary moves are
    # free-group identities and each substitution uses the relation
    # whose Sp(6, Z) identity was verified on the declared classes
    assert all(s.rho_checked is not False for s in res_tau.steps)
    assert all(s.rho_checked is not False for s in res_blow.steps)
    assert all(s.assumed_relation is None for s in res_blow.steps)
    _ok("[criterion 6] ex52_tau and ex52_tauprime reach tau and tauprime; "
        "3 lantern sites via f1 t v = c1 c3 c5 c7; per-step identities verified")


# -- criterion 7: property suites ------------------------------------------------


def _rand_sp(rng, g=2, length=4):
    m = mat_identity(2 * g)
    for _ in range(length):
        v = tuple(rng.randrange(-2, 3) for _ in range(2 * g))
        m = mat_mul(m, transvection(v, rng.choice([1, -1])))
    return m


def test_criterion_7a_cocycle_properties():
    rng = random.Random(20080805)
    for _ in range(1000):
        a, b, c = _rand_sp(rng), _rand_sp(rng), _rand_sp(rng)
        assert meyer_tau(a, b) + meyer_tau(mat_mul(a, b), c) == meyer_tau(
            a, mat_mul(b, c)
        ) + meyer_tau(b, c)
    for _ in range(200):
        a, b, s = _rand_sp(rng), _rand_sp(rng), _rand_sp(rng)
        sinv = symplectic_inverse(s)
        assert meyer_tau(mat_mul(mat_mul(s, a), sinv), mat_mul(mat_mul(s, b), sinv)) == meyer_tau(a, b)
        assert abs(meyer_tau(a, b)) <= 4
        assert meyer_tau(mat_identity(4), b) == 0
    a1 = (1, 0, 0, 0)
    assert meyer_tau(transvection(a1), transvection(a1)) == -1
    _ok("[criterion 7a] cocycle identity on 1000 random Sp(4,Z) triples; "
        "conjugation invariance; |tau| <= 2g; tau(I,.) = 0; tau(T_a,T_a) = -1")


def test_criterion_7b_hurwitz_invariance(g2):
    rho = g2.words["rho"]
    e0 = euler_characteristic(g2, rho)
    census0 = singular_fiber_census(g2, rho)
    h10 = h1_total_space(g2, rho)
    sigma0 = factorization_signature(g2, rho)
    names = ["c1", "c2", "c3", "c4", "c5"]
    moves_applied = 0
    for seed in range(25):
        rng = random.Random(5000 + seed)
        w = rho
        for _ in range(40):
            if rng.randrange(2):
                w = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice(["L", "R"]))
            else:
                conj = g2.word([(rng.choice(names), rng.choice([1, -1]))])
                w = simultaneous_conjugation(w, conj)
            moves_applied += 1
            assert is_positive(w)
            assert euler_characteristic(g2, w) == e0
            assert singular_fiber_census(g2, w) == census0
            assert h1_total_space(g2, w) == h10
        assert factorization_signature(g2, w) == sigma0
    assert moves_applied == 1000
    _ok("[criterion 7b] sigma, e, census, H1 unchanged under 1000 random "
        "elementary transformations / conjugations of rho")


def test_criterion_7c_relation_validations(rel_g2):
    assert {r.status for r in rel_g2.relations.values()} == {"verified"}
    assert {r.kind for r in rel_g2.relations.values()} == {
        "braid", "commute", "chain2", "lantern",
    }
    _ok("[criterion 7c] braid, commutativity, chain2, and lantern fixture "
        "declarations all pass their Sp identities")


def test_criterion_7d_move_soundness_fuzz(g2, ex53):
    rng = random.Random(424242)
    names = ["c1", "c2", "c3", "c4", "c5"]
    for seed in range(10):
        w = g2.words["rho"]
        for _ in range(30):
            kind = rng.randrange(4)
            if kind == 0:
                w = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice(["L", "R"]))
            elif kind == 1:
                w = simultaneous_conjugation(w, g2.word([(rng.choice(names), rng.choice([1, -1]))]))
            elif kind == 2:
                w = rotate(w, rng.choice([1, -1, 3]))
            else:
                rel = g2.relations[rng.choice(list(g2.relations))]
                sites = find_sites(g2, w, rel)
                if sites:
                    pos, direction = rng.choice(sites)
                    w = substitute(g2, w, rel, pos, direction)
            assert is_homological_relator(g2, w)
    _ok("[criterion 7d] every randomly generated legal move sequence "
        "preserves the homological relator property")


def test_criterion_7e_snf_oracle():
    rng = random.Random(31337)
    for _ in range(200):
        cols = rng.randrange(1, 9)
        a = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(4)]
        u, d, v = snf_oracle.smith_normal_form(a)
        assert mat_mul(mat_mul(u, tuple(tuple(r) for r in a)), v) == d
        diag = [d[i][i] for i in range(min(4, cols))]
        nonzero = [x for x in diag if x]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert len(nonzero) == rank_over_q(a)
        assert smith_normal_form(a) == tuple(nonzero)
    _ok("[criterion 7e] SNF (U A V = D, divisibility chain) agrees with the "
        "rank-over-Q oracle on 200 random 4xn matrices, and the invariant "
        "factors equal its nonzero diagonal")


# -- criterion 8: CLI golden checks ---------------------------------------------


def test_criterion_8_cli_golden(capsys, tmp_path):
    g2 = str(fixture_path("genus2_chain.mcg"))
    ex53 = str(fixture_path("ex53.script"))

    code = run_command(["invariants", g2, "rho", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    doc = json.loads(out)
    assert (doc["e"], doc["sigma"]) == (16, -12)
    assert doc["h1"] == {"rank": 0, "torsion": []}

    code = run_command(["replay", g2, ex53])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 L-substitutions" in out
    assert "Δe=-4" in out and "Δσ=+4" in out

    bad = tmp_path / "bad.script"
    bad.write_text("script broken on rho:\n  elem 8 L\n  subst LA @ 9 fwd\n")
    code = run_command(["replay", g2, str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "step 2" in err
    _ok("[criterion 8] CLI golden checks: invariants JSON, replay summary, "
        "failing-step exit code")
