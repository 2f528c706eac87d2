"""The one gate from a system file to a validated system.

``load_system`` reads, parses and validates; a system whose facts
contradict raises ``InvalidSystem``, and every CLI command goes through
the gate, so an invalid system gives one answer everywhere.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc.errors import InvalidSystem, McgError
from mcgcalc.parser import load_system, parse_system
from mcgcalc.symplectic import pairing
from mcgcalc.system import RELATION_KINDS, CurveSystem, validate_system
from tests.test_exit_codes import any_system_text, run, system_texts

SYSTEMS = [
    fixture_path("genus2_chain.mcg"),
    fixture_path("genus3_chain.mcg"),
    fixture_path("relations_g2.mcg"),
    Path(__file__).parent / "data" / "h1_torsion.mcg",
]

BAD = (
    "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a2\ncurve p = ?\n"
    "disjoint c1 c2\nmeet1 c1 c3\nword w = c1 c2\nlantern LA : c1 c1 c3 c3 => c2 c2 p\n"
)
VIOLATIONS = [
    "disjoint (c1, c2): symplectic pairing is 1, not 0",
    "meet1 (c1, c3): symplectic pairing is 0, not +-1",
]


def snapshot(system):
    """Everything a parsed system declares, comparable across systems."""
    return (
        system.genus,
        [(name, system.class_of(name)) for name in system.curve_names],
        sorted((a, sorted(b)) for a, b in system._disjoint_of.items()),
        sorted((a, sorted(b)) for a, b in system._meet1_of.items()),
        system.septype,
        system.relations,
        {name: word.letters for name, word in system.words.items()},
        system.assumptions,
    )


@pytest.mark.parametrize("path", SYSTEMS, ids=lambda p: Path(str(p)).name)
def test_load_system_equals_parse_system(path):
    with open(path, encoding="utf-8") as f:
        parsed = parse_system(f.read(), str(path))
    assert snapshot(load_system(path)) == snapshot(parsed)


def test_invalid_system_carries_violations_and_system(tmp_path):
    bad = tmp_path / "bad.mcg"
    bad.write_text(BAD)
    with pytest.raises(InvalidSystem) as exc:
        load_system(bad)
    assert isinstance(exc.value, McgError)
    assert exc.value.violations == validate_system(parse_system(BAD)) == VIOLATIONS
    assert str(exc.value) == "; ".join(VIOLATIONS)
    assert isinstance(exc.value.system, CurveSystem)
    assert snapshot(exc.value.system) == snapshot(parse_system(BAD))


REFUSED = "; ".join(VIOLATIONS) + "\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["check"], "violation: disjoint (c1, c2): symplectic pairing is 1, not 0\n"
                    "violation: meet1 (c1, c3): symplectic pairing is 0, not +-1\n"
                    "assumption: curve p: homology class undeclared (opaque)\n"
                    "assumption: relation LA: not homologically checkable (opaque curves)\n"
                    "{path}: INVALID (2 violation(s))\n"),
        (["invariants", "w"], ""),
        (["invariants", "nope", "--json"], ""),
        (["replay", str(fixture_path("ex53.script"))], ""),
        (["sites", "w", "LA"], ""),
        (["solve-lantern", "c1", "c1", "c3", "c3", "--known", "c2"], ""),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_cli_on_an_invalid_system(tmp_path, argv, out):
    # the text each command printed before the gate existed
    bad = tmp_path / "bad.mcg"
    bad.write_text(BAD)
    code, stdout, stderr = run([argv[0], str(bad), *argv[1:]])
    if argv[0] == "check":
        assert (code, stdout, stderr) == (1, out.format(path=bad), "")
    else:
        assert (code, stdout, stderr) == (1, "", REFUSED)


def test_check_refuses_a_numeral_as_a_curve_name(tmp_path):
    bad = tmp_path / "num.mcg"
    bad.write_text("genus 2\ncurve 7 = a1\n")
    assert run(["check", str(bad)]) == (
        2, "", "parse error: line 2, col 7: expected name (at '7')\n"
    )


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "system.mcg"


system_bytes = st.one_of(
    system_texts.map(str.encode),
    any_system_text.map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=200),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=system_bytes)
def test_load_system_returns_or_raises_a_typed_error(scratch, data):
    scratch.write_bytes(data)
    try:
        system = load_system(scratch)
    except McgError:
        return
    assert isinstance(system, CurveSystem)
    assert validate_system(system) == []


# each relation of relations_g2.mcg: its kind, its two sides spelled out
# by hand, and |<a, b>| of its first two atoms where the kind requires one
RELATIONS_G2 = {
    "CM13": ("commute", "c1 c3", "c3 c1", 0),
    "BR12": ("braid", "c1 c2 c1", "c2 c1 c2", 1),
    "CH12": ("chain2", " ".join(["c1 c2"] * 6), "bd", 1),
    "LA": ("lantern", "c3 c5 c5 c3", "c1 k h", None),
}


def test_relation_kinds_match_the_declared_sides(rel_g2):
    assert {row[0] for row in RELATIONS_G2.values()} == set(RELATION_KINDS)
    declared = {}
    for line in fixture_path("relations_g2.mcg").read_text().splitlines():
        if line.split(" ", 1)[0] in RELATION_KINDS:
            head, atoms = line.split(" : ")
            before, _, after = atoms.partition(" => ")
            declared[head.split()[1]] = (before.split(), after.split())
    assert set(declared) == set(RELATIONS_G2)
    for name, (kind, left, right, meet) in RELATIONS_G2.items():
        shape = RELATION_KINDS[kind]
        before, after = declared[name]
        assert (len(before), len(after)) == (shape.before, shape.after)
        atoms = before + after
        assert [atoms[i] for i in shape.left] == left.split()
        assert [atoms[i] for i in shape.right] == right.split()
        decl = rel_g2.relations[name]
        assert decl.kind == kind
        assert [l.base for l in decl.left] == left.split()
        assert [l.base for l in decl.right] == right.split()
        assert shape.meet == meet
        if meet is not None:
            a, b = (rel_g2.class_of(n) for n in atoms[:2])
            assert abs(pairing(a, b)) == meet
