import random
from fractions import Fraction

import pytest

from mcgcalc.errors import DimensionError, NotARelator, NotSymplectic
from mcgcalc.meyer import (
    factorization_signature,
    hyperelliptic_signature,
    integer_kernel,
    meyer_tau,
    signature_of_symmetric,
)
from mcgcalc.reports import singular_fiber_census
from mcgcalc.symplectic import (
    mat_identity,
    mat_mul,
    symplectic_inverse,
    transvection,
)

from tests import snf_oracle

A1, B1, A2, B2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def rand_sp(rng, g=2, length=5):
    m = mat_identity(2 * g)
    for _ in range(length):
        v = tuple(rng.randrange(-2, 3) for _ in range(2 * g))
        m = mat_mul(m, transvection(v, rng.choice([1, -1])))
    return m


# --- signature of symmetric forms -------------------------------------------


def rand_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_signature_by_sylvester_construction():
    # signature is invariant under congruence, so R^T D R has the
    # signature of the chosen diagonal
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(1, 7)
        diag = [rng.choice([-3, -1, 0, 1, 2]) for _ in range(n)]
        r = rand_unimodular(rng, n)
        s = [
            [sum(r[k][i] * diag[k] * r[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        expected = sum(1 if d > 0 else -1 if d < 0 else 0 for d in diag)
        assert signature_of_symmetric(s) == expected


def test_signature_zero_matrix():
    assert signature_of_symmetric([[0, 0], [0, 0]]) == 0
    assert signature_of_symmetric([]) == 0


def test_signature_hyperbolic_plane():
    assert signature_of_symmetric([[0, 1], [1, 0]]) == 0
    assert signature_of_symmetric([[0, 2], [2, 0]]) == 0


def test_signature_refuses_ragged_and_non_square_matrices():
    # a typed error, as smith_normal_form gives, not a builtin IndexError
    with pytest.raises(DimensionError, match="row 1 has 1 entries, expected 2"):
        signature_of_symmetric([[1, 2], [3]])
    with pytest.raises(DimensionError):
        signature_of_symmetric([[1], [2, 3]])
    with pytest.raises(DimensionError):
        signature_of_symmetric([[1, 2]])
    assert signature_of_symmetric([[-5]]) == -1


# --- integer kernel ----------------------------------------------------------


def test_integer_kernel_properties():
    rng = random.Random(37)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 7)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        basis = integer_kernel(a, cols)
        for vec in basis:
            assert all(sum(r[c] * vec[c] for c in range(cols)) == 0 for r in a)
        # dimension agrees with a Fraction rank computation
        from tests.test_symplectic import rank_over_q

        assert len(basis) == cols - rank_over_q(a)
        # saturated: the basis spans every integer kernel vector, not a
        # sublattice of finite index, so its invariant factors are all 1
        assert snf_oracle.invariant_factors(basis) == (1,) * len(basis), (a, basis)


def test_integer_kernel_refuses_rows_of_the_wrong_length():
    # a typed error, not a builtin IndexError, and no kernel of a
    # truncated matrix
    with pytest.raises(DimensionError, match="row 1 has 1 entries, expected 2"):
        integer_kernel([[1, 2], [3]], 2)
    with pytest.raises(DimensionError, match="row 0 has 3 entries, expected 2"):
        integer_kernel([[1, 2, 3]], 2)
    assert integer_kernel([[1, 2]], 2) in ([(-2, 1)], [(2, -1)])


# --- the cocycle -------------------------------------------------------------


def test_tau_identity_left_argument():
    rng = random.Random(41)
    for _ in range(20):
        b = rand_sp(rng)
        assert meyer_tau(mat_identity(4), b) == 0
        assert meyer_tau(b, mat_identity(4)) == 0


def test_tau_on_equal_transvections():
    assert meyer_tau(transvection(A1), transvection(A1)) == -1
    assert meyer_tau(transvection(B2), transvection(B2)) == -1


def test_tau_rejects_non_symplectic():
    bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0))
    with pytest.raises(NotSymplectic):
        meyer_tau(bad, mat_identity(4))


def test_tau_rejects_size_mismatch():
    with pytest.raises(NotSymplectic):
        meyer_tau(mat_identity(4), mat_identity(6))


def test_cocycle_identity_sample():
    rng = random.Random(43)
    for _ in range(100):
        a, b, c = (rand_sp(rng, 2, 4) for _ in range(3))
        lhs = meyer_tau(a, b) + meyer_tau(mat_mul(a, b), c)
        rhs = meyer_tau(a, mat_mul(b, c)) + meyer_tau(b, c)
        assert lhs == rhs


def test_conjugation_invariance_sample():
    rng = random.Random(47)
    for _ in range(60):
        a, b, s = rand_sp(rng), rand_sp(rng), rand_sp(rng)
        sinv = symplectic_inverse(s)
        lhs = meyer_tau(mat_mul(mat_mul(s, a), sinv), mat_mul(mat_mul(s, b), sinv))
        assert lhs == meyer_tau(a, b)


def test_tau_bound():
    rng = random.Random(53)
    for _ in range(200):
        a, b = rand_sp(rng), rand_sp(rng)
        assert abs(meyer_tau(a, b)) <= 4


# --- factorization signature -------------------------------------------------


def test_sigma_rho_is_minus_12(g2):
    assert factorization_signature(g2, g2.words["rho"]) == -12


def test_sigma_rhoprime_is_minus_8(g2):
    assert factorization_signature(g2, g2.words["rhoprime"]) == -8


def test_sigma_rejects_non_relator(g2):
    with pytest.raises(NotARelator):
        factorization_signature(g2, g2.word(["c1"]))


def test_sigma_genus3_hyperelliptic_cross_check(g3):
    w = g3.words["sigma3"]
    sigma = factorization_signature(g3, w)
    assert sigma == -16
    assert hyperelliptic_signature(3, 28) == Fraction(-16)


def test_torus_relator_calibration():
    # (t_a t_b)^6 = 1 in SL(2, Z); the elliptic surface E(1) has
    # signature -8, an independent anchor for the sign conventions
    ta, tb = transvection((1, 0)), transvection((0, 1))
    mats = [ta, tb] * 6
    prefix = mat_identity(2)
    total = 0
    prefixes = []
    for m in mats:
        prefix = mat_mul(prefix, m)
        prefixes.append(prefix)
    assert prefixes[-1] == mat_identity(2)
    for k in range(1, len(mats)):
        total += meyer_tau(prefixes[k - 1], mats[k])
    assert total == -8


def test_separating_correction(rel_g2):
    # (c1 c2)^6 is a homological relator; appending nothing, its
    # signature engine value changes by exactly -1 if a null-homologous
    # letter is appended as bd^... cannot stay a relator, so instead
    # compare the 12-letter word against the single boundary letter
    w = rel_g2.word([("c1", 1), ("c2", 1)] * 6)
    sigma_chain = factorization_signature(rel_g2, w)
    single = rel_g2.word(["bd"])
    assert factorization_signature(rel_g2, single) == -1


def test_hyperelliptic_values():
    assert hyperelliptic_signature(2, 6, {1: 2}) == Fraction(-4)
    assert hyperelliptic_signature(2, 20) == Fraction(-12)
    assert hyperelliptic_signature(2, 12, {1: 4}) == Fraction(-8)


def test_hyperelliptic_non_integer_detection():
    assert hyperelliptic_signature(2, 1).denominator != 1


def test_hyperelliptic_rejects_bad_input():
    with pytest.raises(ValueError):
        hyperelliptic_signature(1, 4)
    with pytest.raises(ValueError):
        hyperelliptic_signature(2, 4, {2: 1})  # h > g/2


def test_genus2_census_consistency(g2):
    for name in ("rho", "rhoprime"):
        w = g2.words[name]
        census = singular_fiber_census(g2, w)
        hyp = hyperelliptic_signature(2, census.n0, dict(census.separating))
        assert hyp == factorization_signature(g2, w)


def test_fiber_sum_additivity(g2):
    from mcgcalc.reports import fiber_sum

    rho = g2.words["rho"]
    for conj in (g2.empty_word(), g2.word([("c3", 1), ("c1", -1)])):
        total = fiber_sum(g2, rho, rho, conj)
        assert factorization_signature(g2, total) == 2 * factorization_signature(g2, rho)
