import json

from mcgcalc import fixture_path
from mcgcalc.cli import run_command

G2 = str(fixture_path("genus2_chain.mcg"))
G3 = str(fixture_path("genus3_chain.mcg"))
EX53 = str(fixture_path("ex53.script"))
EX52 = str(fixture_path("ex52.script"))


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", G2)
    assert code == 0
    assert "ok" in out


def test_check_invalid_system(capsys, tmp_path):
    bad = tmp_path / "bad.mcg"
    bad.write_text("genus 2\ncurve c1 = a1\ncurve c2 = b1\ndisjoint c1 c2\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "violation" in out


def test_check_septype_outside_its_range(capsys, tmp_path):
    # at genus 3 a separating curve has type 1 only
    bad = tmp_path / "bad.mcg"
    bad.write_text("genus 3\ncurve n = 0\nseptype n 2\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, err) == (1, "")
    assert out == f"violation: septype n: type 2 outside 1..1\n{bad}: INVALID (1 violation(s))\n"


def test_check_failing_relation_stops_loading(capsys, tmp_path):
    # not a listed violation: loading stops at the relation, as it does
    # for every other command
    bad = tmp_path / "bad.mcg"
    bad.write_text(
        "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a2\n"
        "lantern L : c1 c1 c2 c2 => c3 c3 c3\n"
    )
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: relation L fails its homological identity\n"


def test_invariants_rho(capsys):
    code, out, _ = run(capsys, "invariants", G2, "rho")
    assert code == 0
    assert "e = 16" in out
    assert "sigma = -12" in out
    assert "H1 = 0" in out


def test_invariants_json_schema(capsys):
    code, out, _ = run(capsys, "invariants", G2, "rho", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "rho"
    assert doc["e"] == 16
    assert doc["sigma"] == -12
    assert doc["h1"] == {"rank": 0, "torsion": []}
    assert doc["census"]["n0"] == 20
    assert doc["b2plus"] == 1 and doc["b2minus"] == 13
    assert set(doc) == {
        "word", "genus", "n", "census", "e", "sigma", "h1",
        "b2plus", "b2minus", "b1", "flags", "annotations",
    }
    # schema stability: a second run emits the identical document
    code2, out2, _ = run(capsys, "invariants", G2, "rho", "--json")
    assert out2 == out


def test_invariants_non_relator_exits_1(capsys, tmp_path):
    f = tmp_path / "s.mcg"
    f.write_text("genus 2\ncurve c1 = a1\nword w = c1\n")
    code, _, err = run(capsys, "invariants", str(f), "w")
    assert code == 1
    assert "verification failure" in err


def test_replay_ex53(capsys):
    code, out, _ = run(capsys, "replay", G2, EX53)
    assert code == 0
    assert "4 L-substitutions" in out
    assert "Δe=-4" in out
    assert "Δσ=+4" in out


def test_replay_json(capsys):
    code, out, _ = run(capsys, "replay", G2, EX53, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["script"] == "ex53"
    assert doc["expected_matched"] is True
    assert doc["lantern_forward_count"] == 4
    assert doc["delta_e"] == -4
    assert doc["delta_sigma"] == 4
    assert doc["sigma_initial"] == -12
    assert doc["sigma_final"] == -8


def test_replay_trace(capsys):
    code, out, _ = run(capsys, "replay", G2, EX53, "--trace")
    assert code == 0
    assert "step  37" in out or "step 37" in out


def test_replay_trace_and_json_exit_2(capsys):
    # the trace is text, so with it stdout would not be one JSON document
    code, out, err = run(capsys, "replay", G2, EX53, "--trace", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: mcgcalc replay")
    assert "not allowed with argument" in err


def test_replay_reverse_lantern_delta_sign(capsys, tmp_path):
    # a net reverse lantern expects delta sigma -1, written with its sign
    back = tmp_path / "back.script"
    back.write_text("script back on rhoprime:\n  subst LC @ 3 rev\n")
    line = "delta e = 1 (expected 1), delta sigma = -1 (expected -1)"
    code, out, _ = run(capsys, "replay", G2, str(back))
    assert code == 0
    assert f"  {line}\n" in out
    code, out, _ = run(capsys, "replay", G2, str(back), "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lantern_forward_count"], doc["delta_sigma"]) == (-1, -1)
    assert doc["lines"][1] == line


def test_replay_corrupted_script_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.script"
    bad.write_text("script broken on rho:\n  elem 8 L\n  subst LA @ 9 fwd\n")
    code, _, err = run(capsys, "replay", G2, str(bad))
    assert code == 1
    assert "step 2" in err


def test_replay_expect_mismatch_exits_1(capsys, tmp_path):
    script = tmp_path / "s.script"
    script.write_text("script s on rho:\n  rot 1\n  expect rho\n")
    code, out, err = run(capsys, "replay", G2, str(script))
    rho = "c5 c4 c3 c2 c1 c1 c2 c3 c4 c5 c5 c4 c3 c2 c1 c1 c2 c3 c4 c5"
    rotated = "c5 c5 c4 c3 c2 c1 c1 c2 c3 c4 c5 c5 c4 c3 c2 c1 c1 c2 c3 c4"
    assert (code, out) == (1, "")
    assert err == (f"replay failed at step 1: step 1 (expect): final word {rotated} "
                   f"does not equal rho = {rho}\n")


def test_replay_named_script(capsys):
    code, out, _ = run(capsys, "replay", G3, EX52, "--name", "ex52_blowdown")
    assert code == 0
    assert "3 L-substitutions" in out


def test_sites(capsys):
    code, out, _ = run(capsys, "sites", G3, "tau", "LFTV")
    assert code == 0
    assert out.splitlines() == ["3 fwd", "15 fwd", "27 fwd"]


def test_solve_lantern(capsys):
    code, out, _ = run(capsys, "solve-lantern", G2, "c3", "c5", "c5", "c3", "--known", "c1")
    assert code == 0
    assert "4 solution(s)" in out
    assert "a1 + 2 a2" in out


def test_solve_lantern_opaque_curve_exits_1(capsys):
    # a declared curve without a class is a verification failure, as for
    # invariants on an opaque word, not a usage error
    for argv in (["c1", "c3", "c5", "c8", "--known", "f1"],
                 ["c1", "c3", "c5", "c7", "--known", "x1"]):
        code, out, err = run(capsys, "solve-lantern", G3, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: curve ") and "has no declared class" in err


def test_solve_lantern_bad_arguments_exit_2(capsys):
    for argv in (["c1", "c3", "c5", "nope", "--known", "f1"],
                 ["c1", "c3", "c5", "c7", "--known", "f1", "--bound", "0"]):
        code, out, err = run(capsys, "solve-lantern", G3, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "nope")
    assert code == 2


def test_parse_error_exits_2(capsys, tmp_path):
    f = tmp_path / "broken.mcg"
    f.write_text("genus 2\ncurve c1 = a9\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert "parse error" in err
