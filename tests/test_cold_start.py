"""Cold start: ``import mcgcalc.cli`` loads only what a command runs.

Each check is one CLI process, and at start-up that process used to
spend most of its time importing modules no command needs.  A fresh
``python -S`` process, with nothing imported that the interpreter does
not load itself, imports ``mcgcalc.cli`` and reports which of those
modules came with it; the test is a set of names, not a timing.  The
functions that do need one of them, ``fixture_path`` and
``hyperelliptic_signature``, import it when called and still return
what they did.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# modules no command uses: record types are plain classes, annotations
# need no typing, input files are read with open, and the closed-form
# signature is compared in integers
NOT_AT_START = ("dataclasses", "inspect", "typing", "pathlib", "fractions", "decimal",
                "importlib.resources")

PROBE = """
import sys
import mcgcalc.cli
loaded = sorted(m for m in sys.argv[1:] if m in sys.modules)
json_loaded = "json" in sys.modules
from mcgcalc import fixture_path, hyperelliptic_signature
path = fixture_path("genus2_chain.mcg")
closed = hyperelliptic_signature(2, 20)
import json
print(json.dumps({"loaded": loaded, "json": json_loaded, "path": str(path),
                  "path_type": type(path).__name__, "exists": path.is_file(),
                  "closed": repr(closed)}))
"""


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python -S *argv`` in a new process, with the package from this
    checkout's src/ and UTF-8 standard streams."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, "-S", *argv], capture_output=True, text=True,
                          encoding="utf-8", env=env, cwd=ROOT, timeout=120)


def test_import_leaves_unused_modules_out():
    proc = run_fresh("-c", PROBE, *NOT_AT_START)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == [], f"import mcgcalc.cli loaded {report['loaded']}"
    # json is imported by the first --json output, not at start
    assert not report["json"]
    # the functions that import one of them when called still work
    assert report["path"] == str(ROOT / "src" / "mcgcalc" / "fixtures" / "genus2_chain.mcg")
    assert report["path_type"] == type(ROOT).__name__ and report["exists"]
    assert report["closed"] == "Fraction(-12, 1)"
