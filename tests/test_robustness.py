"""Invariants that must hold without ``assert``, the CLI's system gate,
and re-imports that must not keep old copies of the package alive."""

import gc
import importlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import mcgcalc
from mcgcalc import fixture_path
from mcgcalc.cli import run_command
from mcgcalc.errors import InvalidRelation
from mcgcalc.moves import substitute
from mcgcalc.system import RelationDecl

G2 = str(fixture_path("genus2_chain.mcg"))
EX53 = str(fixture_path("ex53.script"))


def _package_modules():
    return [n for n in sys.modules if n == "mcgcalc" or n.startswith("mcgcalc.")]


def test_reimport_leaves_no_stale_package():
    # a module-level typing construct over the package's classes is kept
    # in typing's cache, and with it every re-imported copy's globals
    saved = {n: sys.modules[n] for n in _package_modules()}
    stale = []
    try:
        for _ in range(3):
            for n in _package_modules():
                del sys.modules[n]
            moves = importlib.import_module("mcgcalc.moves")
            stale.append(weakref.ref(moves.Elem))
    finally:
        for n in _package_modules():
            del sys.modules[n]
        sys.modules.update(saved)
    del moves
    gc.collect()
    assert [ref() for ref in stale if ref() is not None] == []


def test_substitute_refuses_relation_that_changes_rho(g2):
    # a hand-built "verified" relation whose sides have different images
    bogus = RelationDecl("BOGUS", "commute", (g2.letter("c5"),), (g2.letter("c4"),), "verified")
    with pytest.raises(InvalidRelation):
        substitute(g2, g2.words["rho"], bogus, 1, "fwd")


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", G2, EX53, "--json"],
        ["invariants", G2, "rho", "--json"],
    ],
)
def test_optimized_interpreter_gives_identical_output(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mcgcalc.__file__).resolve().parents[1]))
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "mcgcalc", *argv],
                       capture_output=True, text=True, env=env, timeout=120)
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == 0
    assert (runs[1].stdout, runs[1].returncode) == (runs[0].stdout, runs[0].returncode)


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "rho"],
        ["replay", EX53],
        ["sites", "rho", "LA"],
        ["solve-lantern", "c3", "c5", "c5", "c3", "--known", "c1"],
    ],
)
def test_commands_refuse_invalid_system(capsys, tmp_path, argv):
    bad = tmp_path / "bad.mcg"
    bad.write_text(
        "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a2\n"
        "disjoint c1 c2\nmeet1 c1 c3\n"
    )
    code = run_command([argv[0], str(bad), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "disjoint (c1, c2): symplectic pairing is 1, not 0; "
        "meet1 (c1, c3): symplectic pairing is 0, not +-1\n"
    )
