import pytest

from mcgcalc.cli import run_command
from mcgcalc.errors import NotARelator, SystemMismatch, UnknownClass
from mcgcalc.meyer import factorization_signature
from mcgcalc.moves import find_sites, replay_script, substitute
from mcgcalc.parser import parse_scripts, parse_system
from mcgcalc.reports import (
    SECTION_TABLE,
    betti_summary,
    euler_characteristic,
    fiber_sum,
    full_report,
    singular_fiber_census,
    substitution_delta_report,
)
from mcgcalc.symplectic import AbelianGroup, h1_total_space, is_homological_relator


def test_euler_characteristic_values(g2, g3):
    assert euler_characteristic(g2, g2.words["rho"]) == 16
    assert euler_characteristic(g2, g2.words["rhoprime"]) == 12
    assert euler_characteristic(g2, g2.empty_word()) == -4
    assert euler_characteristic(g3, g3.words["xthree"]) == 28
    assert euler_characteristic(g3, g3.words["sigma3"]) == 20


def test_census_values(g2):
    c = singular_fiber_census(g2, g2.words["rho"])
    assert (c.n0, c.separating) == (20, ())
    c = singular_fiber_census(g2, g2.words["rhoprime"])
    assert c.n0 == 12
    assert c.separating == ((1, 4),)
    c = singular_fiber_census(g2, g2.empty_word())
    assert (c.n0, c.n_separating, c.class_unknown) == (0, 0, 0)


def test_census_opaque_bucket(g3):
    c = singular_fiber_census(g3, g3.words["xthree"])
    assert c.class_unknown == 12  # x1, x2 and two c8 in each period
    assert c.n0 == 24


def test_fiber_sum_rho_rho(g2):
    rho = g2.words["rho"]
    total = fiber_sum(g2, rho, rho, g2.empty_word())
    assert len(total) == 40
    assert euler_characteristic(g2, total) == 36
    assert factorization_signature(g2, total) == -24
    report = full_report(g2, total)
    assert report.h1.is_trivial()
    assert (report.b2plus, report.b2minus) == (5, 29)


def test_fiber_sum_genus3(g3):
    total = fiber_sum(g3, g3.words["xthree"], g3.words["sigma3"], g3.empty_word())
    assert len(total) == 64
    assert euler_characteristic(g3, total) == 56


def test_fiber_sum_with_empty_word(g2):
    rho = g2.words["rho"]
    assert fiber_sum(g2, rho, g2.empty_word(), g2.empty_word()) == rho


def test_fiber_sum_rejects_non_relator(g2):
    with pytest.raises(NotARelator):
        fiber_sum(g2, g2.words["rho"], g2.word(["c1"]), g2.empty_word())


def test_fiber_sum_checks_the_right_summand_after_an_opaque_left(g3):
    # the opaque left summand is accepted on assumption; the right one is
    # computable and still checked
    with pytest.raises(NotARelator, match="right"):
        fiber_sum(g3, g3.words["xthree"], g3.word(["c1"]), g3.empty_word())


def test_betti_summary():
    assert betti_summary(36, -24) == (5, 29)
    assert betti_summary(56, -36) == (9, 45)
    assert betti_summary(16, -12) == (1, 13)
    assert betti_summary(12, -8) == (1, 9)
    with pytest.raises(ValueError):
        betti_summary(5, 0)  # odd e + sigma


def test_full_report_rho(g2):
    report = full_report(g2, g2.words["rho"])
    assert (report.e, report.sigma) == (16, -12)
    assert report.h1.is_trivial()
    assert (report.b2plus, report.b2minus, report.b1) == (1, 13, 0)
    assert report.flags["has_separating_factor"] is False
    assert report.flags["sigma_divisible_by_16"] is False
    assert any("necessary condition" in a for a in report.annotations)


def test_full_report_rhoprime(g2):
    report = full_report(g2, g2.words["rhoprime"])
    assert (report.e, report.sigma) == (12, -8)
    assert report.flags["has_separating_factor"] is True
    assert report.census.count(1) == 4


def test_full_report_empty_word(g2):
    report = full_report(g2, g2.empty_word())
    assert (report.e, report.sigma) == (-4, 0)
    assert report.h1 == AbelianGroup(4)
    assert report.b2plus is None and report.b2minus is None


def test_full_report_determinism(g2):
    a = full_report(g2, g2.words["rhoprime"])
    b = full_report(g2, g2.words["rhoprime"])
    assert a == b
    assert a.as_dict() == b.as_dict()


def test_full_report_rejects_non_relator(g2):
    with pytest.raises(NotARelator):
        full_report(g2, g2.word(["c1", "c2"]))


def test_full_report_opaque_raises(g3):
    with pytest.raises(UnknownClass):
        full_report(g3, g3.words["xthree"])


def test_delta_report_ex53(g2, ex53):
    result = replay_script(g2, ex53)
    report = substitution_delta_report(g2, result)
    assert report.k == 4
    assert report.delta_e == -4
    assert report.delta_sigma == 4
    joined = "\n".join(report.lines)
    assert "4 copies of C2" in joined
    assert "L(4,1)" in joined
    assert "B2" in joined
    assert "not machine-checkable" in joined


def test_delta_report_ex52(g3, ex52):
    result = replay_script(g3, ex52["ex52_blowdown"])
    report = substitution_delta_report(g3, result)
    assert report.k == 3
    assert report.delta_e == -3
    assert report.delta_sigma is None
    assert "3 copies of C2" in "\n".join(report.lines)


def test_delta_report_without_substitutions(g2):
    from mcgcalc.moves import DerivationScript, Elem

    script = DerivationScript("noop", "rho", (Elem(1, "R"), Elem(1, "L")))
    result = replay_script(g2, script)
    report = substitution_delta_report(g2, result)
    assert (report.k, report.delta_e, report.delta_sigma) == (0, 0, 0)


def test_section_table_is_complete():
    assert set(SECTION_TABLE) == {"commute", "braid", "chain2", "lantern"}
    lhs, rhs, bdry = SECTION_TABLE["lantern"]
    assert "C2" in lhs and "B2" in rhs and bdry == "L(4,1)"
    assert SECTION_TABLE["chain2"][2] == "Sigma(2,3,6)"


ENTRY_POINTS = {
    "full_report": full_report,
    "euler_characteristic": euler_characteristic,
    "singular_fiber_census": singular_fiber_census,
    "factorization_signature": factorization_signature,
    "h1_total_space": h1_total_space,
    "is_homological_relator": is_homological_relator,
    "substitute": lambda system, w: substitute(system, w, system.relations["LFTV"], 1, "fwd"),
    "find_sites": lambda system, w: find_sites(system, w, system.relations["LFTV"]),
    "fiber_sum": lambda system, w: fiber_sum(system, w, w, system.empty_word()),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_word_of_another_system_is_a_mismatch(g2, g3, name):
    # g3 would read its own classes for g2's letter names; refused first
    with pytest.raises(SystemMismatch, match="word belongs to a different curve system"):
        ENTRY_POINTS[name](g3, g2.words["rho"])


ASSUMED = """genus 2
curve c1 = a1
curve c3 = a1 + a2
curve c5 = a2
curve k = 0
curve h = ?
lantern LA : c3 c5 c5 c3 => c1 k h
word w = h c3 c5 c5 c3
"""


def test_delta_report_names_assumed_relations(tmp_path):
    # h is opaque, so LA cannot be checked homologically and is assumed
    system = parse_system(ASSUMED)
    assert system.relations["LA"].status == "assumed"
    script_text = "script s on w:\n  subst LA @ 2 fwd\n"
    result = replay_script(system, parse_scripts(script_text, system)["s"])
    delta = substitution_delta_report(system, result)
    assert delta.lines[-1] == "relies on assumed relations: LA"
    (tmp_path / "a.mcg").write_text(ASSUMED)
    (tmp_path / "a.script").write_text(script_text)
    assert run_command(["replay", str(tmp_path / "a.mcg"), str(tmp_path / "a.script")]) == 0
