"""The CLI in a new process gives the golden output.

The golden tests run ``run_command`` inside the test process, where
every module the test suite imported is already loaded; a module that a
command imports lazily, and reaches in a way that works only when it is
already loaded (``importlib.resources`` as an attribute of
``importlib``, say), passes there and fails for a user.  So the first
case of each golden file runs here as ``python -S -m mcgcalc ...``: its
exit code, stdout and stderr must equal the golden.
"""

import json

import pytest

from tests.test_cold_start import ROOT, run_fresh

GOLDEN = ROOT / "tests" / "golden"
FIX = str(ROOT / "src" / "mcgcalc" / "fixtures") + "/"


@pytest.mark.parametrize("group", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_first_golden_case_in_a_new_process(group):
    expected = json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))[0]
    proc = run_fresh("-m", "mcgcalc", *(a.replace("$FIX/", FIX) for a in expected["argv"]))
    got = {"argv": expected["argv"], "exit": proc.returncode,
           "stdout": proc.stdout.replace(FIX, "$FIX/"), "stderr": proc.stderr.replace(FIX, "$FIX/")}
    assert got == expected
