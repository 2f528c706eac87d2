"""The fixed costs around the Meyer walk: H1, the block correction and
the system's lifetime.

* H1 goes through an integer echelon basis of the class lattice
  (``symplectic._lattice_rows``), which stops at 2g unit pivots, so Smith
  normal form runs only on a lattice that is not Z^2g, and then on at
  most 2g rows.  ``tests/h1_oracle.py`` keeps the former SNF over every
  distinct class.
* ``meyer.signature_of_symmetric`` divides each Schur step exactly by
  the previous pivot (Bareiss).  ``tests/sym_signature_oracle.py`` keeps
  the former p^2-scaled recursion with its gcd sweep.
* A system's words hold the system, so ``run_command`` drops them when
  its command returns and reference counting frees the system, with the
  cyclic collector off.
"""

from __future__ import annotations

import gc
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path, meyer
from mcgcalc import symplectic as sp
from mcgcalc.cli import run_command
from mcgcalc.meyer import factorization_signature, signature_of_symmetric
from mcgcalc.parser import parse_system
from mcgcalc.reports import full_report
from mcgcalc.system import CurveSystem
from mcgcalc.words import compose_words, invert_word, render_word
from tests import h1_oracle, snf_oracle, sym_signature_oracle
from tests.test_span_walk import benchmark_ops

TORSION = Path(__file__).parent / "data" / "h1_torsion.mcg"

# --- H1 from the echelon basis ------------------------------------------------


@st.composite
def class_tables(draw):
    """(g, table): classes drawn from the span of at most 2g generators, so
    the span may be rank-deficient, with multiples (non-unit pivots and
    torsion), zero classes, repeats and negations, and entries small or
    past 2^64."""
    g = draw(st.integers(2, 6))
    n = 2 * g
    big = draw(st.booleans())
    entry = st.integers(-(2**70), 2**70) if big else st.integers(-3, 3)
    gens = draw(st.lists(st.tuples(*[entry] * n), max_size=n))
    table = []
    for _ in range(draw(st.integers(0, 3 * n))):
        kind = draw(st.sampled_from(["span", "span", "zero", "repeat", "negate"]))
        if kind == "span" and gens:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
            scale = draw(st.sampled_from([1, 1, 2, 3, 6]))
            u = tuple(scale * sum(c * v[i] for c, v in zip(coeffs, gens)) for i in range(n))
        elif kind in ("repeat", "negate") and table:
            u = draw(st.sampled_from(table))[0]
            if kind == "negate":
                u = tuple(-x for x in u)
        else:
            u = (0,) * n
        table.append((u, draw(st.sampled_from([1, -1]))))
    event("entries past 2^64" if big else "small entries")
    return g, table


def assert_echelon(n, rows):
    pivots = [next(p for p, x in enumerate(row) if x) for row in rows]
    assert len(rows) <= n
    assert pivots == sorted(set(pivots))


@given(class_tables())
@settings(max_examples=250, deadline=None)
def test_h1_matches_snf_over_every_class(case):
    g, table = case
    h1 = sp._h1_of_classes(g, table)
    event(f"H1 {'= 0' if h1.is_trivial() else 'has rank' if h1.rank else 'is torsion'}")
    assert h1 == h1_oracle._h1_of_classes(g, table)
    rows = sp._lattice_rows(2 * g, (u for u, _ in table))
    assert_echelon(2 * g, rows)


def torsion_tables():
    system = parse_system(TORSION.read_text(), str(TORSION))
    return [(system, sp._known_classes(system, system.words[name].letters)) for name in ("w", "z")]


def test_h1_torsion_words_match_oracle():
    for system, table in torsion_tables():
        assert sp._h1_of_classes(system.genus, table) == h1_oracle._h1_of_classes(system.genus, table)


@pytest.fixture
def snf_rows(monkeypatch):
    """The row count of each Smith normal form alternation, which both
    ``smith_normal_form`` and H1 enter through ``_echelon_factors``."""
    seen = []
    real = sp._echelon_factors

    def spy(d):
        seen.append(len(d))
        return real(d)

    monkeypatch.setattr(sp, "_echelon_factors", spy)
    return seen


def test_no_snf_for_relators_spanning_the_lattice(snf_rows, g2, g3, tmp_path, capsys):
    full_report(g2, g2.words["rho"])
    full_report(g3, g3.words["sigma3"])
    ops = benchmark_ops("build_ladder", tmp_path)
    assert {op[2] for op in ops} and all(op[0] == "invariants" for op in ops)
    for argv in ops:
        assert run_command(argv) == 0
    capsys.readouterr()
    assert snf_rows == []


def test_unit_pivot_from_the_extended_gcd_ends_the_read(snf_rows):
    # 2 a1 and 3 a1 leave the pivot gcd(2, 3) = 1 at a1, so the basis is
    # full once b1, a2 and b2 are in, and the last class is never read
    table = [((2, 0, 0, 0), 1), ((3, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1),
             ((0, 0, 0, 1), 1), ((0, 0, 0, 5), 1)]
    assert sp._h1_of_classes(2, table).is_trivial()
    assert snf_rows == []
    read = []

    def classes():
        for u, _ in table:
            read.append(u)
            yield u

    assert len(sp._lattice_rows(4, classes())) == 4
    assert read == [u for u, _ in table[:5]]
    assert sp._lattice_rows(4, (u for u, _ in table[:2])) == [[1, 0, 0, 0]]


def test_snf_reads_at_most_2g_rows_on_torsion(snf_rows):
    for system, table in torsion_tables():
        del snf_rows[:]
        sp._h1_of_classes(system.genus, table)
        assert snf_rows and max(snf_rows) <= 2 * system.genus


def test_h1_with_torsion_makes_one_row_pass(monkeypatch):
    # the echelon rows of the classes go straight to Smith normal form's
    # column alternation; these rows are diagonal, so the row pass over
    # the classes is the only echelon pass, where a second one would
    # read the rows and return them unchanged
    system = parse_system(TORSION.read_text(), str(TORSION))
    n = 2 * system.genus
    passes = []
    real = sp._lattice_rows

    def spy(width, classes):
        classes = list(classes)
        passes.append(classes)
        return real(width, classes)

    monkeypatch.setattr(sp, "_lattice_rows", spy)
    for name, group in (("w", sp.AbelianGroup(2, (3,))), ("z", sp.AbelianGroup(0, (6,)))):
        del passes[:]
        w = system.words[name]
        h1 = sp.h1_total_space(system, w)
        classes = [u for u, _ in sp._known_classes(system, w.letters)]
        assert passes == [classes]
        factors = snf_oracle.invariant_factors([[u[i] for u in classes] for i in range(n)])
        assert h1 == group == sp.AbelianGroup(n - len(factors), tuple(x for x in factors if x > 1))


def seeded_table(rng, n, count, gens, scales):
    """count classes in Z^n, each a scaled combination of ``gens`` seeded
    generators with entries in [-2, 2], so the lattice may be short of
    rank n or of finite index (torsion)."""
    basis = [tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(gens)]
    table = []
    for _ in range(count):
        coeffs = [rng.randrange(-1, 2) for _ in basis]
        scale = rng.choice(scales)
        table.append((tuple(scale * sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(n)), 1))
    return table


def test_snf_and_h1_match_oracle_at_2g_20():
    # Smith normal form alternates echelon bases of the rows and the
    # columns; the oracle is the former elimination with its transforms
    rng = random.Random(20)
    units = [(tuple(int(i == j) for j in range(20)), 1) for i in range(20)]
    tables = [
        seeded_table(rng, 20, 30, 20, (1,)),
        seeded_table(rng, 20, 30, 14, (1, 2)),
        seeded_table(rng, 20, 24, 20, (2, 3)),
        seeded_table(rng, 20, 25, 18, (1, 6)),
        seeded_table(rng, 20, 20, 20, (1,)) + units,
    ]
    groups = []
    for table in tables:
        a = [[u[i] for u, _ in table] for i in range(20)]
        assert sp.smith_normal_form(a) == snf_oracle.invariant_factors(a)
        at = [list(u) for u, _ in table]
        assert sp.smith_normal_form(at) == snf_oracle.invariant_factors(at)
        h1 = sp._h1_of_classes(10, table)
        assert h1 == h1_oracle._h1_of_classes(10, table)
        groups.append((h1.rank > 0, len(h1.torsion) > 1, h1.is_trivial()))
    # free part, torsion with more than one factor, and H1 = 0 all occur
    assert [any(col) for col in zip(*groups)] == [True, True, True]


def test_echelon_entries_stay_small_at_2g_40():
    # a row that the extended gcd replaces is reduced modulo the later
    # pivots; without that step these entries grow past 40 000 bits
    rng = random.Random(40)
    classes = [tuple(rng.randrange(-2, 3) for _ in range(40)) for _ in range(80)]
    rows = sp._lattice_rows(40, classes)
    assert_echelon(40, rows)
    assert max(abs(x).bit_length() for row in rows for x in row) <= 128


# --- the Bareiss signature ------------------------------------------------------


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices: dense, with a zero diagonal (the
    congruence branch), singular by construction, rank 1, all zero, or
    with entries past 2^64."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["dense", "zero diagonal", "singular", "rank 1", "zero", "big"]))
    event(kind)
    entry = st.integers(-(2**70), 2**70) if kind == "big" else st.integers(-3, 3)
    if kind == "singular":
        # R^T D R with zeros in D and R of rank at most n - 1
        r = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
        if n:
            r[-1] = [0] * n
        d = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 3]), min_size=n, max_size=n))
        return [[sum(r[k][i] * d[k] * r[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if kind == "rank 1":
        v = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        return [[c * x * y for y in v] for x in v]
    a = [[0] * n for _ in range(n)]
    if kind != "zero":
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = 0 if i == j and kind == "zero diagonal" else draw(entry)
    return a


@given(symmetric_matrices())
@example([[2, 2, 2], [2, 2, 4], [2, 4, 2]])  # the congruence branch after a pivot of 2
@example([[0, 0, 5], [0, 0, 7], [5, 7, 0]])
@settings(max_examples=300, deadline=None)
def test_signature_matches_gcd_scaled_recursion(s):
    assert signature_of_symmetric(s) == sym_signature_oracle.signature_of_symmetric(s)


@pytest.mark.parametrize("builder", ["build_ladder", "build_conjugated"])
def test_block_corrections_match_oracle(builder, tmp_path, monkeypatch, capsys):
    # every tau(A, -A^-1) form the benchmark's words make
    forms = []
    real = meyer.signature_of_symmetric

    def spy(s):
        forms.append(s)
        return real(s)

    monkeypatch.setattr(meyer, "signature_of_symmetric", spy)
    for argv in benchmark_ops(builder, tmp_path):
        assert run_command(argv) == 0
    capsys.readouterr()
    assert forms
    for s in forms:
        assert real(s) == sym_signature_oracle.signature_of_symmetric(s)


# --- each command frees its system ----------------------------------------------

PAIR = "genus 2\ncurve a = a1\ncurve b = b1\nmeet1 a b\nword w = a b\n"
INVALID = PAIR.replace("b = b1", "b = a1")
G2, G3 = str(fixture_path("genus2_chain.mcg")), str(fixture_path("genus3_chain.mcg"))
EX53, EX52 = str(fixture_path("ex53.script")), str(fixture_path("ex52.script"))
LANTERN = ["solve-lantern", G2, "c1", "c3", "c5", "c5"]

# (argv, exit code); $PAIR's word w is no relator, $BAD parses up to a word
# after w, and $INVALID breaks its meet1 fact
COMMANDS = [
    (["check", G2], 0),
    (["check", "$INVALID"], 1),
    (["check", "$BAD"], 2),
    (["invariants", G2, "rho", "--json"], 0),
    (["invariants", "$INVALID", "w"], 1),
    (["invariants", "$PAIR", "w"], 1),
    (["invariants", G2, "nope"], 2),
    (["replay", G2, EX53], 0),
    (["replay", "$INVALID", EX53], 1),
    (["replay", G3, EX52, "--name", "nope"], 2),
    (["sites", G2, "rhoprime", "LA"], 0),
    (["sites", "$INVALID", "w", "LA"], 1),
    (["sites", G2, "rho", "nope"], 2),
    (LANTERN + ["--known", "c1"], 0),
    (["solve-lantern", "$INVALID", "a", "a", "a", "a", "--known", "a"], 1),
    (LANTERN + ["--known", "c1", "?"], 2),
]


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[f"{a[0]} exit {c}" for a, c in COMMANDS])
def test_command_frees_its_system(argv, code, tmp_path, monkeypatch, capsys):
    for name, text in (("PAIR", PAIR), ("BAD", PAIR + "word v = a (\n"), ("INVALID", INVALID)):
        (tmp_path / f"{name}.mcg").write_text(text)
        argv = [a.replace(f"${name}", str(tmp_path / f"{name}.mcg")) for a in argv]
    made = []
    real = CurveSystem.__init__

    def spy(self, genus):
        real(self, genus)
        made.append(weakref.ref(self))

    monkeypatch.setattr(CurveSystem, "__init__", spy)
    was_on = gc.isenabled()
    gc.disable()
    try:
        assert run_command(argv) == code
        assert len(made) == 1
        assert made[0]() is None
    finally:
        if was_on:
            gc.enable()
    capsys.readouterr()


def test_library_word_outlives_its_dropped_system():
    # the cut is the CLI's: a library caller may keep a word alone
    w = parse_system(fixture_path("genus2_chain.mcg").read_text()).words["rho"]
    gc.collect()
    system = w.system
    assert system.words["rho"] is w
    assert factorization_signature(system, w) == -12
    assert full_report(system, w).h1.is_trivial()
    assert render_word(compose_words(w, invert_word(w))) == "1"
