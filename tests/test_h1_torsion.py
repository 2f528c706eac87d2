"""H1 with torsion at the CLI: every fixture relator has H1 = 0, so the
divisibility chain of the Smith normal form is pinned here instead.

``data/h1_torsion.mcg`` has classes spanning <a1, b1, a2, 3 b2, a3, 2 b3>:
H1(w) = Z + Z + Z/3 and H1(z) = Z/6, where Z/6 needs the chain step
(diag(2, 3) ~ diag(1, 6)).  ``data/h1_torsion.golden.json`` holds the
exit code, stdout and stderr of ``invariants`` on both words, text and
``--json``.  To write it again (only at a commit whose answers are
trusted):

    PYTHONPATH=src python tests/test_h1_torsion.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from mcgcalc.cli import run_command

DATA = Path(__file__).parent / "data"
SYSTEM = DATA / "h1_torsion.mcg"
GOLDEN = DATA / "h1_torsion.golden.json"

CASES = [
    ["invariants", "$DATA/h1_torsion.mcg", word, *flag]
    for word in ("w", "z")
    for flag in ((), ("--json",))
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([a.replace("$DATA", str(DATA)) for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_cases():
    assert [entry["argv"] for entry in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_invariants_match_golden(index):
    expected = _load()[index]
    assert _run(expected["argv"]) == expected


def test_torsion_values():
    by_word = {e["argv"][2]: json.loads(e["stdout"]) for e in _load() if "--json" in e["argv"]}
    assert by_word["w"]["h1"] == {"rank": 2, "torsion": [3]}
    assert by_word["z"]["h1"] == {"rank": 0, "torsion": [6]}
    assert by_word["z"]["sigma"] == -24


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_h1_torsion.py --write")
    GOLDEN.write_text(
        json.dumps([_run(argv) for argv in CASES], indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8")
