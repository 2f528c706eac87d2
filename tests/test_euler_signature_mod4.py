"""e + sigma = 0 (mod 4) on the fibrations of true relators.

A Lefschetz fibration with fiber genus g >= 2 is symplectic (Gompf; Gompf
and Stipsicz, *4-Manifolds and Kirby Calculus*, 1999, ch. 10), hence almost
complex, so (e + sigma)/4 is its Todd genus, an integer.  The law depends on
neither signature path, so it checks ``full_report`` from outside.  It holds
only for words that bound a fibration: the fixture relators, the ex53 result
and the chain and hyperelliptic relators.  ``chainrel`` in
``relations_g2.mcg`` is left out: (c1 c2)^6 is only a homological relator.
"""

import pytest

from mcgcalc.moves import replay_script
from mcgcalc.parser import parse_system
from mcgcalc.reports import full_report
from tests.test_incremental_replay import chain_text


def assert_law(system, word):
    report = full_report(system, word)
    assert (report.e + report.sigma) % 4 == 0, (report.e, report.sigma)


@pytest.mark.parametrize("system, word", [
    ("g2", "rho"), ("g2", "rhoprime"), ("g3", "sigma3"), ("rel_g2", "rho"),
])
def test_fixture_relators(system, word, request):
    system = request.getfixturevalue(system)
    assert_law(system, system.words[word])


def test_ex53_result(g2, ex53):
    assert_law(g2, replay_script(g2, ex53).final)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_chain_and_hyperelliptic_relators(g):
    up = " ".join(f"c{i}" for i in range(1, 2 * g + 1))
    # chain_text's w is the hyperelliptic relator; the odd chain c1..c2g+1
    # and the even chain c1..c2g close at the powers 2g+2 and 4g+2
    system = parse_system(chain_text(g) + f"word odd = ({up} c{2 * g + 1})^{2 * g + 2}\n"
                                          f"word even = ({up})^{4 * g + 2}\n")
    for word in ("w", "odd", "even"):
        assert_law(system, system.words[word])
