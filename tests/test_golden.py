"""Golden CLI output: the answers of the bundled fixtures must never change.

``tests/golden/*.json`` hold the exit code, stdout and stderr of every
command listed below.  Fixture paths are written as ``$FIX`` so the
files do not depend on where the package lives.  To write them again
(only at a commit whose answers are trusted):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from mcgcalc import fixture_path
from mcgcalc.cli import run_command

GOLDEN = Path(__file__).parent / "golden"

WORDS = {
    "genus2_chain.mcg": ["rho", "rhoprime"],
    "genus3_chain.mcg": ["xthree", "tau", "xthreethree", "tauprime", "sigma3"],
    "relations_g2.mcg": ["chainrel", "rho"],
}

SCRIPTS = [
    ("genus2_chain.mcg", "ex53.script", "ex53"),
    ("genus3_chain.mcg", "ex52.script", "ex52_tau"),
    ("genus3_chain.mcg", "ex52.script", "ex52_tauprime"),
    ("genus3_chain.mcg", "ex52.script", "ex52_blowdown"),
]


def _cases() -> dict[str, list[list[str]]]:
    """Command lines per golden file; ``$FIX/`` marks a fixture path."""
    invariants = []
    for system, words in WORDS.items():
        for word in words:
            invariants.append(["invariants", f"$FIX/{system}", word, "--json"])
            invariants.append(["invariants", f"$FIX/{system}", word])
    replay = []
    for system, script, name in SCRIPTS:
        for flag in ("--json", "--trace"):
            replay.append(["replay", f"$FIX/{system}", f"$FIX/{script}", "--name", name, flag])
    lantern = [
        ["solve-lantern", "$FIX/genus2_chain.mcg", "c3", "c5", "c5", "c3", "--known", "c1",
         "--bound", "2"],
        ["solve-lantern", "$FIX/genus2_chain.mcg", "c3", "c5", "c5", "c3", "--known", "c1",
         "--bound", "3"],
        ["solve-lantern", "$FIX/genus3_chain.mcg", "c1", "c3", "c5", "c7", "--known", "f1",
         "--bound", "1"],
        ["solve-lantern", "$FIX/genus2_chain.mcg", "c3", "c5", "c5", "c3", "--known", "?", "c1",
         "?", "--bound", "2"],
        ["solve-lantern", "$FIX/genus2_chain.mcg", "c3", "c5", "c5", "c3", "--known", "?", "?",
         "c1", "--bound", "2"],
        ["solve-lantern", "$FIX/genus3_chain.mcg", "c1", "c3", "c5", "c7", "--known", "f1",
         "--bound", "2"],
        ["solve-lantern", "$FIX/genus3_chain.mcg", "c1", "c3", "c5", "c7", "--known", "f1", "t",
         "?"],
    ]
    check = [["check", f"$FIX/{system}"] for system in WORDS]
    sites = [
        ["sites", "$FIX/genus3_chain.mcg", "tau", "LFTV"],
        ["sites", "$FIX/genus3_chain.mcg", "tauprime", "LFTV"],
        ["sites", "$FIX/genus2_chain.mcg", "rho", "BR12"],
        ["sites", "$FIX/genus2_chain.mcg", "rho", "LA"],
        ["sites", "$FIX/relations_g2.mcg", "chainrel", "BR12"],
    ]
    return {"invariants": invariants, "replay": replay, "solve_lantern": lantern,
            "check": check, "sites": sites}


def _run(argv: list[str]) -> dict:
    fix = str(fixture_path("")).rstrip("/") + "/"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([a.replace("$FIX/", fix) for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue().replace(fix, "$FIX/"),
            "stderr": err.getvalue().replace(fix, "$FIX/")}


def _load(group: str) -> list[dict]:
    return json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(_cases()))
def test_golden_files_cover_the_case_list(group):
    assert [entry["argv"] for entry in _load(group)] == _cases()[group]


@pytest.mark.parametrize(
    "group,index",
    [(group, i) for group, argvs in sorted(_cases().items()) for i in range(len(argvs))],
)
def test_cli_output_matches_golden(group, index):
    expected = _load(group)[index]
    assert _run(expected["argv"]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for group, argvs in _cases().items():
        doc = [_run(argv) for argv in argvs]
        (GOLDEN / f"{group}.json").write_text(
            json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
