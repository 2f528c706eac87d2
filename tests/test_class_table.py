"""One class table per command.

``full_report`` and ``substitution_delta_report`` read their word's
letter classes once, into one class table, and take sigma, the census
and H1 from it; ``replay_script`` takes its full signature from the
table it keeps for the word.  ``tests/class_walk_oracle`` keeps each
invariant's own walk over the letters, and the two must agree on every
fixture word and on drawn words, opaque letters included: the same
sigma, census and H1, or the same exception type and message.  A spy on
``CurveSystem.homology_class_of_letter`` pins one read per position.
"""

from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc.errors import NotARelator, UnknownClass
from mcgcalc.moves import DerivationScript, Elem, ReplayResult, replay_script
from mcgcalc.parser import parse_system, parse_word
from mcgcalc.reports import full_report, substitution_delta_report
from mcgcalc.system import CurveSystem
from tests import class_walk_oracle as oracle

TORSION = Path(__file__).parent / "data" / "h1_torsion.mcg"


def outcome(route, system, w):
    try:
        return route(system, w)
    except (NotARelator, UnknownClass) as exc:
        return (type(exc).__name__, str(exc))


def package_report(system, w):
    report = full_report(system, w)
    return report.sigma, report.census, report.h1


def delta_checks(system, w):
    """The H1 and separating-factor lines of a delta report whose result is w."""
    result = ReplayResult(DerivationScript("d", "w", ()), w, w)
    return list(substitution_delta_report(system, result).lines[2:4])


def assert_same_as_oracle(system, w):
    got = outcome(package_report, system, w)
    assert got == outcome(oracle.full_report, system, w)
    assert delta_checks(system, w) == oracle.delta_checks(system, w)
    return got


@pytest.fixture(scope="module")
def g3s():
    """The genus-3 fixture plus a null-homologous curve with a septype and
    one without, so the census fills every bucket."""
    extra = "curve n = 0\ncurve s = 0\nseptype s 1\n"
    return parse_system(fixture_path("genus3_chain.mcg").read_text() + extra)


@pytest.fixture(scope="module")
def torsion():
    return parse_system(TORSION.read_text())


@pytest.fixture(scope="module")
def systems(g2, g3s, rel_g2, torsion):
    return [g2, g3s, rel_g2, torsion]


def test_fixture_words_match_oracle(systems):
    seen = set()
    for system in systems:
        for w in system.words.values():
            for word in (w, w * w * w, w * system.word(["c1"])):
                got = assert_same_as_oracle(system, word)
                seen.add(got[0] if isinstance(got[0], str) else "report")
    assert seen == {"report", "NotARelator", "UnknownClass"}


@pytest.mark.parametrize("text, opaque", [
    ("c1 x1", "x1"),  # not a relator, and opaque after the first letter
    ("c1 c2 [x2]c3 c4", "x2"),  # opaque in a conjugator
    ("(c1 c2 c3 c4 c5 c6 c7^2 c6 c5 c4 c3 c2 c1)^2 c8", "c8"),
])
def test_opaque_non_relator_raises_unknown_class(g3s, text, opaque):
    w = parse_word(g3s, text)
    with pytest.raises(UnknownClass, match=f"'{opaque}'"):
        full_report(g3s, w)
    assert assert_same_as_oracle(g3s, w)[0] == "UnknownClass"


@st.composite
def drawn_word(draw, systems):
    """A product of fixture-word blocks and single letters of one system."""
    system = draw(st.sampled_from(systems))
    blocks = sorted(system.words)
    letters = sorted({letter for w in system.words.values() for letter, _ in w.letters}, key=repr)
    parts = draw(st.lists(st.one_of(
        st.tuples(st.just("block"), st.sampled_from(blocks), st.integers(1, 3)),
        st.tuples(st.just("letter"), st.sampled_from(letters), st.just(1)),
    ), max_size=6))
    pairs = []
    for kind, item, count in parts:
        pairs += list(system.words[item].letters) * count if kind == "block" else [(item, 1)]
    return system, system.word(pairs)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_drawn_words_match_oracle(systems, data):
    system, w = data.draw(drawn_word(systems))
    got = assert_same_as_oracle(system, w)
    event(got[0] if isinstance(got[0], str) else "report")


@pytest.fixture
def class_reads(monkeypatch):
    """Every letter whose class is read, through the one per-system memo."""
    reads = []
    real = CurveSystem.homology_class_of_letter

    def counting(self, letter):
        reads.append(letter)
        return real(self, letter)

    monkeypatch.setattr(CurveSystem, "homology_class_of_letter", counting)
    return reads


def test_full_report_reads_each_position_once(g2, class_reads):
    w = g2.words["rho"] * g2.words["rho"] * g2.words["rho"]
    assert full_report(g2, w).sigma == -36
    assert len(class_reads) == len(w) == 60


def test_replay_reads_the_source_word_once(g2, class_reads):
    result = replay_script(g2, DerivationScript("none", "rho", ()))
    assert result.sigma_initial == -12
    assert len(class_reads) == 20
    class_reads.clear()
    # an elementary move reads the two letters it changed
    replay_script(g2, DerivationScript("one", "rho", (Elem(1, "R"),)))
    assert len(class_reads) == 20 + 2


def test_delta_report_reads_the_final_word_once(g2, ex53, class_reads):
    result = replay_script(g2, ex53)
    class_reads.clear()
    substitution_delta_report(g2, result)
    assert len(class_reads) == len(result.final)
