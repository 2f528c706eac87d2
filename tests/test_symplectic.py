import random
from fractions import Fraction
from pathlib import Path

import pytest

from mcgcalc.errors import DimensionError, UnknownClass
from mcgcalc.parser import parse_system
from mcgcalc.symplectic import (
    AbelianGroup,
    cokernel,
    h1_total_space,
    is_homological_relator,
    is_symplectic,
    letter_class,
    mat_identity,
    mat_mul,
    mat_vec,
    pairing,
    rho_image,
    smith_normal_form,
    symplectic_inverse,
    transvection,
)

from tests import snf_oracle
from tests.conftest import load_fixture_system
from tests.test_incremental_replay import chain_text

A1, B1, A2, B2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def rand_sp(rng, g=2, length=6):
    """Random symplectic matrix as a product of transvections."""
    m = mat_identity(2 * g)
    for _ in range(length):
        v = tuple(rng.randrange(-2, 3) for _ in range(2 * g))
        m = mat_mul(m, transvection(v, rng.choice([1, -1])))
    return m


def test_transvection_of_zero_is_identity():
    assert transvection((0, 0, 0, 0)) == mat_identity(4)


def test_transvection_defining_property():
    t = transvection(A1)
    assert mat_vec(t, B1) in ((1, 1, 0, 0), (-1, 1, 0, 0))
    assert mat_vec(t, B1) == tuple(x + pairing(B1, A1) * y for x, y in zip(B1, A1))


def test_transvection_infinite_order():
    t = transvection(A1)
    assert mat_mul(t, t) != mat_identity(4)


def test_transvection_is_symplectic_random():
    rng = random.Random(3)
    for _ in range(100):
        v = tuple(rng.randrange(-3, 4) for _ in range(4))
        assert is_symplectic(transvection(v))


def test_transvection_sign_gives_inverse():
    rng = random.Random(5)
    for _ in range(50):
        v = tuple(rng.randrange(-3, 4) for _ in range(4))
        assert mat_mul(transvection(v), transvection(v, -1)) == mat_identity(4)


def test_transvection_sign_invariance():
    rng = random.Random(7)
    for _ in range(50):
        v = tuple(rng.randrange(-3, 4) for _ in range(4))
        assert transvection(v) == transvection(tuple(-x for x in v))


def test_wrong_length_raises():
    with pytest.raises(DimensionError):
        transvection((1, 0, 0))
    with pytest.raises(DimensionError):
        pairing((1, 0), (1, 0, 0, 0))


def test_is_symplectic_refuses_a_matrix_of_the_wrong_shape():
    assert not is_symplectic(((1, 0, 0, 0), (0, 1, 0, 0)))  # not square
    assert not is_symplectic(((1, 0), (0, 1, 0)))  # ragged
    assert not is_symplectic(mat_identity(3))  # odd size


def test_symplectic_inverse():
    rng = random.Random(9)
    for _ in range(50):
        m = rand_sp(rng)
        assert mat_mul(m, symplectic_inverse(m)) == mat_identity(4)


def test_rho_of_empty_and_cancelling(g2):
    assert rho_image(g2, g2.empty_word()) == mat_identity(4)
    w = g2.word([("c1", 1), ("c1", -1)])
    assert rho_image(g2, w) == mat_identity(4)


def test_rho_multiplicative_in_display_order(g2):
    w = g2.word(["c1", "c2", "c3"])
    expected = mat_mul(
        mat_mul(transvection(g2.class_of("c1")), transvection(g2.class_of("c2"))),
        transvection(g2.class_of("c3")),
    )
    assert rho_image(g2, w) == expected


def test_rho_conjugation_covariance(g2):
    from mcgcalc.words import push_forward_word

    rng = random.Random(11)
    names = ["c1", "c2", "c3", "c4", "c5"]
    for _ in range(40):
        W = g2.word([(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(4))])
        V = g2.word([(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(5))])
        lhs = rho_image(g2, push_forward_word(W, V))
        rw = rho_image(g2, W)
        rhs = mat_mul(mat_mul(rw, rho_image(g2, V)), symplectic_inverse(rw))
        assert lhs == rhs


def test_rho_is_symplectic_always(g2):
    rng = random.Random(13)
    names = ["c1", "c2", "c3", "c4", "c5"]
    for _ in range(50):
        w = g2.word([(rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(8))])
        assert is_symplectic(rho_image(g2, w))


def test_lantern_relator_word_maps_to_identity(g2):
    # a b c d4^-1 d3^-1 d2^-1 d1^-1 from the validated declaration
    la = g2.relations["LA"]
    letters = [(l, 1) for l in la.right] + [(l, -1) for l in reversed(la.left)]
    from mcgcalc.words import Word

    w = Word(g2, letters)
    assert is_homological_relator(g2, w)


def test_single_letter_not_relator(g2):
    assert not is_homological_relator(g2, g2.word(["c1"]))


def test_chain2_with_inverse_boundary_is_relator(rel_g2):
    w = rel_g2.word([("c1", 1), ("c2", 1)] * 6 + [("bd", -1)])
    assert is_homological_relator(rel_g2, w)


def test_rho_unknown_class_raises(g3):
    with pytest.raises(UnknownClass):
        rho_image(g3, g3.word(["x1"]))


# --- Smith normal form ------------------------------------------------------


def rank_over_q(rows):
    """Fraction Gaussian elimination; the independent rank oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def is_unimodular(m):
    n = len(m)
    # integer determinant by fraction-free expansion on small sizes
    if n == 1:
        return abs(m[0][0]) == 1
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sub = _det(minor)
        det += (-1) ** j * m[0][j] * sub
    return abs(det) == 1


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_snf_properties_random():
    rng = random.Random(17)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        u, d, v = snf_oracle.smith_normal_form(a)
        assert mat_mul(mat_mul(u, tuple(tuple(r) for r in a)), v) == d
        assert is_unimodular([list(r) for r in u])
        assert is_unimodular([list(r) for r in v])
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert len(nonzero) == rank_over_q(a)
        assert smith_normal_form(a) == tuple(nonzero)


def test_snf_rank_oracle_4xn():
    rng = random.Random(19)
    for _ in range(60):
        cols = rng.randrange(1, 9)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(4)]
        _, d, _ = snf_oracle.smith_normal_form(a)
        nonzero = tuple(d[i][i] for i in range(min(4, cols)) if d[i][i])
        assert len(nonzero) == rank_over_q(a)
        assert smith_normal_form(a) == nonzero


def random_snf_input(rng):
    """A seeded integer matrix: small or large entries, and every third
    one of rank below its row count (a row that combines two others)."""
    rows, cols = rng.randrange(1, 7), rng.randrange(1, 10)
    size = rng.choice((3, 6, 1000))
    a = [[rng.randrange(-size, size + 1) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 1 / 3:
        x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
        a[-1] = [x * p + y * q for p, q in zip(a[0], a[1])]
    return a


def class_matrix(system, word):
    """The 2g x n matrix whose columns are the letters' classes."""
    cols = [letter_class(system, letter) for letter, _ in word.letters]
    return [[col[i] for col in cols] for i in range(2 * system.genus)]


def test_invariant_factors_match_oracle_random():
    rng = random.Random(2024)
    for _ in range(2400):
        a = random_snf_input(rng)
        factors = smith_normal_form(a)
        assert factors == snf_oracle.invariant_factors(a), a
        assert all(x > 0 for x in factors)
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


def fixture_systems():
    yield from (load_fixture_system(name) for name in
                ("genus2_chain.mcg", "genus3_chain.mcg", "relations_g2.mcg"))
    yield parse_system((Path(__file__).parent / "data" / "h1_torsion.mcg").read_text())


def test_invariant_factors_match_oracle_on_fixture_words():
    checked = []
    for system in fixture_systems():
        for name, word in system.words.items():
            try:
                a = class_matrix(system, word)
            except UnknownClass:
                continue  # opaque letters have no class
            assert smith_normal_form(a) == snf_oracle.invariant_factors(a), name
            checked.append(name)
    assert checked == ["rho", "rhoprime", "sigma3", "chainrel", "rho", "w", "z"]


@pytest.mark.parametrize("g", range(2, 7))
def test_invariant_factors_match_oracle_on_ladder(g):
    system = parse_system(chain_text(g))
    a = class_matrix(system, system.words["w"])
    assert smith_normal_form(a) == snf_oracle.invariant_factors(a) == (1,) * (2 * g)


def test_cokernel_examples():
    assert cokernel([[2, 0], [0, 3]], 2) == AbelianGroup(0, (6,))
    assert cokernel([[1, 0], [0, 0]], 2) == AbelianGroup(1)
    assert cokernel([[2]], 1) == AbelianGroup(0, (2,))


def test_abelian_group_invariants():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # no divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_h1_examples(g2):
    assert h1_total_space(g2, g2.words["rho"]).is_trivial()
    assert h1_total_space(g2, g2.empty_word()) == AbelianGroup(4)
    assert h1_total_space(g2, g2.word(["c1", "c2"])) == AbelianGroup(2)


def test_h1_torsion_case(g2):
    # span of a1 and a1 + 2 a2 leaves Z^2 + Z/2
    w = g2.word(["c1", "h"])
    assert h1_total_space(g2, w) == AbelianGroup(2, (2,))


def test_h1_opaque_raises(g3):
    with pytest.raises(UnknownClass):
        h1_total_space(g3, g3.words["xthree"])


def test_basis_independence(g2):
    # transporting every class by a fixed symplectic matrix leaves the
    # relator verdict, H1, and census unchanged
    from mcgcalc.system import CurveSystem
    from mcgcalc.meyer import factorization_signature

    rng = random.Random(23)
    s = rand_sp(rng, 2, 5)
    moved = CurveSystem(2)
    for name in g2.curve_names:
        moved.add_curve(name, mat_vec(s, g2.class_of(name)))
    for a, b in [("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")]:
        moved.add_meet1(a, b)
    period = ["c5", "c4", "c3", "c2", "c1", "c1", "c2", "c3", "c4", "c5"]
    w_old = g2.words["rho"]
    w_new = moved.word(period * 2)
    assert is_homological_relator(moved, w_new)
    assert h1_total_space(moved, w_new) == h1_total_space(g2, w_old)
    assert factorization_signature(moved, w_new) == factorization_signature(g2, w_old)
    from mcgcalc.reports import singular_fiber_census

    assert singular_fiber_census(moved, w_new) == singular_fiber_census(g2, w_old)
