"""The Meyer walk solves only for a class inside its walk's span.

In a walk from I with prefix P_k = T_1 ... T_k over the classes
u_1 .. u_k, im(P_k - I) lies in U_k = span(u_1 .. u_k), so
tau(P_k, T_u^s) = 0 for u outside U_k without a solve.  A block between
central points is read as two walks from I, the second starting where
the first one's span is all of Q^2g; with A the first walk's product, it
closes when the second prefix is +-A^-1 and adds tau(A, +-A^-1), which
is 0 for A^-1 and the signature of <p, (A^-1 - A)p'> for -A^-1.

These tests hold ``meyer.local_signature`` to the per-letter oracle in
``tests/local_signature_oracle`` on drawn words at genus 2-4, hold both
tau(A, +-A^-1) facts to the general cocycle ``meyer_tau``, and count the
solves the benchmark's ladder and conjugated operations make.
"""

import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path, meyer, parser, system as system_module, words
from mcgcalc import symplectic as sp
from mcgcalc.cli import run_command
from mcgcalc.meyer import meyer_tau, signature_of_symmetric
from mcgcalc.parser import parse_system
from mcgcalc.words import twist_conjugate_letter
from tests.test_block_signature import assert_same_as_oracle, rank, tau_calls  # noqa: F401
from tests.test_incremental_replay import chain_text
from tests.test_twist_product import hurwitz_walk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def chains():
    """The genus-g chain with its hyperelliptic relator ``w`` and one
    null-homologous curve ``n``, for g = 2, 3, 4."""
    return {g: parse_system(chain_text(g) + "curve n = 0\n") for g in (2, 3, 4)}


SHAPES = ["relator", "hurwitz walk", "non-relator", "open after -I", "fills at the close"]


@st.composite
def walk_words(draw, chains):
    """(system, pairs): a relator power, a Hurwitz walk of it, random
    letters, halves acting as -I followed by a tail that need not close,
    or X X^-1 for X of 2g independent classes, whose second walk's span
    fills at the step where the block closes.  Any of them but the walk
    may be conjugated by a short W, and get null-homologous letters."""
    g = draw(st.sampled_from(sorted(chains)))
    system = chains[g]
    curves = [system.letter(f"c{i}") for i in range(1, 2 * g + 2)]
    signs = st.sampled_from([1, -1])
    w = list(system.words["w"].letters)
    shape = draw(st.sampled_from(SHAPES))
    event(shape)
    if shape == "relator":
        pairs = w * draw(st.integers(1, 3))
    elif shape == "hurwitz walk":
        walk = hurwitz_walk(system.words["w"], draw(st.integers(0, 2**16)), draw(st.integers(1, 8)))
        pairs = list(walk.letters)
    elif shape == "non-relator":
        pairs = draw(st.lists(st.tuples(st.sampled_from(curves), signs), min_size=1, max_size=4 * g + 4))
    elif shape == "open after -I":
        half = w[: len(w) // 2]
        tail = draw(st.lists(st.tuples(st.sampled_from(curves), signs), max_size=2 * g + 2))
        pairs = half * draw(st.integers(1, 3)) + half[: draw(st.integers(0, len(half) - 1))] + tail
    else:
        # c1 .. c2g are independent, so X fills the first walk's span at
        # its last letter and X^-1 the second's as the block closes at I
        x = [(curves[i], draw(signs)) for i in draw(st.permutations(range(2 * g)))]
        pairs = (x + [(letter, -s) for letter, s in reversed(x)]) * draw(st.integers(1, 2))
    if shape != "hurwitz walk" and draw(st.booleans()):
        conj = system.word(draw(st.lists(st.tuples(st.sampled_from(curves[:4]), signs),
                                         min_size=1, max_size=3)))
        pairs = [(twist_conjugate_letter(conj, letter), s) for letter, s in pairs]
    for _ in range(draw(st.integers(0, 3))):
        pairs.insert(draw(st.integers(0, len(pairs))), (system.letter("n"), draw(signs)))
    return system, pairs


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_drawn_walks_match_oracle(chains, data):
    system, pairs = data.draw(walk_words(chains))
    assert_same_as_oracle(system, pairs)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_span_never_grows_at_a_central_point(chains, data):
    # P_k = +-I puts u_k in U_{k-1}: for I, im(P_{k-1} - I) = span(u_k);
    # for -I, P_{k-1} - I is invertible.  So the first walk's span never
    # fills at the step where its block closes
    system, pairs = data.draw(walk_words(chains))
    n = 2 * system.genus
    identity = sp.mat_identity(n)
    negative = tuple(tuple(-x for x in row) for row in identity)
    prefix, walk = identity, []
    for u, s in sp._known_classes(system, pairs):
        before = rank(walk)
        walk.append(u)
        prefix = sp.twist_product(prefix, ((u, s),))
        if prefix in (identity, negative):
            event("central point")
            assert rank(walk) == before
            prefix, walk = identity, []


def pairing_form(m):
    """The matrix of (p, p') -> <p, M p'> in the standard basis."""
    n = len(m)
    cols = list(zip(*m))
    return [[sp.pairing([int(i == j) for j in range(n)], cols[k]) for k in range(n)] for i in range(n)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tau_against_plus_minus_inverse(data):
    g = data.draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * (2 * g))
    a = sp.twist_product(sp.mat_identity(2 * g),
                         data.draw(st.lists(st.tuples(vec, st.sampled_from([1, -1])), max_size=8)))
    inverse = sp.symplectic_inverse(a)
    assert meyer_tau(a, inverse) == 0
    m = [[x - y for x, y in zip(r, s)] for r, s in zip(inverse, a)]
    form = pairing_form(m)
    assert form == [list(col) for col in zip(*form)]
    sigma = signature_of_symmetric(form)
    event(f"tau(A, -A^-1) = {sigma}")
    assert meyer_tau(a, tuple(tuple(-x for x in row) for row in inverse)) == sigma


def benchmark_ops(builder, tmp_path):
    """The argv of each operation a benchmark builder makes on seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    prog = types.SimpleNamespace(
        parser=parser, system=system_module, words=words, meyer=meyer, fixture_path=fixture_path)
    return [list(op.argv) for op in getattr(workloads, builder)(prog, tmp_path, 1)]


def solves_per_op(ops, tau_calls, capsys):
    counts = []
    for argv in ops:
        del tau_calls[:]
        assert run_command(argv) == 0
        counts.append(len(tau_calls))
    capsys.readouterr()
    return counts


def test_ladder_op_costs_two_solves(tmp_path, tau_calls, capsys):
    # each ladder word is a power of the hyperelliptic relator, whose
    # half is read once, as two walks; only the second solves, twice
    ops = benchmark_ops("build_ladder", tmp_path)
    assert len(ops) == 15
    assert solves_per_op(ops, tau_calls, capsys) == [2] * len(ops)


def test_conjugated_op_costs_at_most_sixteen_solves(tmp_path, tau_calls, capsys):
    counts = solves_per_op(benchmark_ops("build_conjugated", tmp_path), tau_calls, capsys)
    assert len(counts) >= 9
    assert Fraction(sum(counts), len(counts)) <= 16
