"""Documented input limits, and round trips of the word syntax.

Word powers and conjugator exponents expand at parse time and the
two-unknown lantern search walks up to (2b+1)^2 lattice points, so each
has a limit that is checked before any work starts.  Past a limit, and for out-of-range
solver requests, the command line exits with code 2 and a one-line
message, never a traceback.
"""

import contextlib
import io
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path
from mcgcalc import system as system_mod
from mcgcalc.cli import run_command
from mcgcalc.errors import InvalidSearch, McgError, ParseError
from mcgcalc.parser import MAX_WORD_LETTERS, parse_scripts, parse_system, parse_word
from mcgcalc.system import LANTERN_WALK_LIMIT, solve_lantern_classes
from mcgcalc.words import render_word

G2 = str(fixture_path("genus2_chain.mcg"))
G3 = str(fixture_path("genus3_chain.mcg"))

HEAD = "genus 2\ncurve c1 = a1\ncurve c2 = b1\nmeet1 c1 c2\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def parse_peak_bytes(text):
    """Parse ``text``, which must fail, and return the peak traced allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="expands past"):
            parse_system(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "expr",
    ["c1^1000000000", "(c1 c2)^1000000000000", "((c1 c2)^1000)^1000", "c2 c1^100000",
     "[c1^1000000000]c2", "[c1^60000 c2^-60000]c1"],
)
def test_huge_expansion_is_refused_before_it_is_built(expr):
    assert parse_peak_bytes(HEAD + f"word w = {expr}\n") < 4 * 2**20


def test_expansion_up_to_the_limit_is_accepted():
    system = parse_system(HEAD + f"word w = c1^{MAX_WORD_LETTERS}\n")
    assert len(system.words["w"]) == MAX_WORD_LETTERS
    system = parse_system(HEAD)
    assert len(parse_word(system, f"(c1 c2)^{MAX_WORD_LETTERS // 2}")) == MAX_WORD_LETTERS


def test_longest_conjugator_normalizes_quickly():
    # the tail rules fire once per twist here; the longest admitted
    # conjugator must not cost one normalization pass per firing
    start = time.perf_counter()
    system = parse_system(HEAD + f"word w = [c1^{MAX_WORD_LETTERS}]c1\n")
    assert render_word(system.words["w"]) == "c1"
    system = parse_system(HEAD + f"word w = [{'c1 c2 ' * (MAX_WORD_LETTERS // 2)}]c1\n")
    assert render_word(system.words["w"]) == "[c1]c2"
    assert time.perf_counter() - start < 5


def test_script_conjugation_is_limited():
    system = parse_system(HEAD + "word w = c1 c2\n")
    with pytest.raises(ParseError, match="expands past"):
        parse_scripts("script s on w:\n  conj c1^1000000000\n", system)


@settings(max_examples=30, deadline=None)
@given(power=st.integers(MAX_WORD_LETTERS + 1, 10**40), conj=st.booleans())
def test_cli_refuses_long_words_with_exit_2(tmp_path_factory, power, conj):
    path = tmp_path_factory.mktemp("limits") / "big.mcg"
    expr = f"[c1^{power}]c2" if conj else f"(c1 c2)^{power}"
    path.write_text(HEAD + f"word w = {expr}\n")
    for argv in (["check", str(path)], ["invariants", str(path), "w"]):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: line 5: ") and err.count("\n") == 1


LANTERN_G2 = ["solve-lantern", G2, "c3", "c5", "c5", "c3"]
LANTERN_G3 = ["solve-lantern", G3, "c1", "c3", "c5", "c7"]

# the least bound whose walk, (2b+1)^2 points at any genus, is past the limit
FIRST_REFUSED = next(b for b in range(1, 10**4) if (2 * b + 1) ** 2 > LANTERN_WALK_LIMIT)


def test_walk_limit_is_set_between_bounds_49_and_50():
    assert FIRST_REFUSED == 50


@settings(max_examples=30, deadline=None)
@given(
    argv=st.one_of(
        st.integers(-10**12, 0).map(lambda b: LANTERN_G2 + ["--known", "c1", "--bound", str(b)]),
        st.integers(-10**12, 0).map(lambda b: LANTERN_G3 + ["--known", "f1", "?", "t",
                                                            "--bound", str(b)]),
        st.integers(FIRST_REFUSED, 10**12).map(
            lambda b: LANTERN_G2 + ["--known", "c1", "--bound", str(b)]),
        st.integers(FIRST_REFUSED, 10**12).map(
            lambda b: LANTERN_G3 + ["--known", "f1", "--bound", str(b)]),
        st.just(LANTERN_G2 + ["--known", "?", "?", "?"]),
        st.just(LANTERN_G3 + ["--known", "?", "?", "?", "--bound", "1"]),
    )
)
def test_solve_lantern_out_of_range_exits_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def walk_spy():
    """Patch ``_image_points`` with a spy that records its calls and walks
    nothing, so an admitted search ends at once with no solution."""
    calls = []
    return calls, mock.patch.object(system_mod, "_image_points",
                                    lambda m, bound: calls.append(bound) or [])


@pytest.mark.parametrize("argv", [LANTERN_G2 + ["--known", "c1"],
                                  LANTERN_G3 + ["--known", "f1"]])
@pytest.mark.parametrize("bound", [FIRST_REFUSED - 1, FIRST_REFUSED, 10**12])
def test_two_unknown_refusal_depends_on_the_bound_only(argv, bound):
    calls, spy = walk_spy()
    with spy:
        code, out, err = run(argv + ["--bound", str(bound)])
    walk = (2 * bound + 1) ** 2
    if walk > LANTERN_WALK_LIMIT:
        # refused before any matrix is built: the walk is never reached
        assert (code, out, calls) == (2, "", [])
        assert err == (f"two unknown classes at bound {bound} walk up to {walk} lattice "
                       f"points, more than the limit of {LANTERN_WALK_LIMIT}\n")
    else:
        assert (code, err, calls) == (0, "", [bound])
        assert out.startswith("0 solution(s)")


def test_one_unknown_walks_nothing_and_is_not_limited(g2):
    calls, spy = walk_spy()
    with spy:
        sols = solve_lantern_classes(g2, ["c3", "c5", "c5", "c3"], ["c1", "k", None],
                                     bound=10**12)
    assert calls == []
    assert sols == solve_lantern_classes(g2, ["c3", "c5", "c5", "c3"], ["c1", "k", None])


@pytest.mark.parametrize("argv, bound, small, count", [
    (LANTERN_G3 + ["--known", "f1"], 3, 1, 8),
    (LANTERN_G2 + ["--known", "c1"], 9, 2, 4),
])
def test_searches_the_box_refused_are_admitted(argv, bound, small, count):
    # refused by the old (2b+1)^(2g) box limit; the walk finds the same
    # solutions as at the smaller bound, which the box-walk oracle checks
    code, out, err = run(argv + ["--bound", str(bound)])
    assert (code, err) == (0, "")
    assert out.startswith(f"{count} solution(s)")
    _, expected, _ = run(argv + ["--bound", str(small)])
    assert out.splitlines()[1:] == expected.splitlines()[1:]


def test_solver_errors_are_typed(g2, g3):
    cases = [
        (g2, ["c3", "c5", "c5", "c3"], ["c1", None, None], 0),
        (g2, ["c3", "c5", "c5", "c3"], [None, None, None], 1),
        (g3, ["c1", "c3", "c5", "c7"], ["f1", None, None], FIRST_REFUSED),
    ]
    for system, d, right, bound in cases:
        with pytest.raises(InvalidSearch) as exc:
            solve_lantern_classes(system, d, right, bound=bound)
        assert isinstance(exc.value, McgError) and isinstance(exc.value, ValueError)


# -- render and parse -------------------------------------------------------

G2_CURVES = ["c1", "c2", "c3", "c4", "c5", "del", "x", "k", "h", "kb", "hb"]

letters = st.tuples(
    st.sampled_from(G2_CURVES),
    st.lists(st.tuples(st.sampled_from(G2_CURVES),
                       st.integers(-3, 3).filter(bool)), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(letters, min_size=1, max_size=10))
def test_parse_of_render_is_the_identity(g2, spec):
    w = g2.word([g2.letter(base, conj) for base, conj in spec])
    text = render_word(w)
    assert parse_word(g2, text) == w
    assert render_word(parse_word(g2, text)) == text
