"""The signature's one-transvection-per-letter path against its oracles:
the general Meyer cocycle and the flattened twist product."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcalc.errors import NotARelator, UnknownClass
from mcgcalc.meyer import _transvection_tau, factorization_signature, meyer_tau
from mcgcalc.parser import parse_system
from mcgcalc.symplectic import (
    mat_identity,
    mat_mul,
    mat_vec,
    symplectic_inverse,
    transvection,
    twist_product,
)
from tests.flat_oracle import twist_classes
from tests.local_signature_oracle import transvection_tau as oracle_tau
from tests.test_incremental_replay import chain_text
from tests.test_symplectic import rank_over_q
from tests.test_twist_product import hurwitz_walk, prefix_products, random_twists, relator_cases


def random_symplectic(rng, n):
    return twist_product(mat_identity(n), random_twists(rng, n, rng.randrange(0, 6)))


def solvable(a, v):
    """Whether (A - I)x = A v has a rational solution, by rank over Q."""
    n = len(a)
    m = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    av = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
    return rank_over_q(m) == rank_over_q([row + [x] for row, x in zip(m, av)])


@pytest.mark.parametrize("g", range(1, 7))
def test_transvection_tau_matches_general_cocycle(g):
    rng = random.Random(300 + g)
    n = 2 * g
    values = Counter()
    unsolvable = 0
    # meyer_tau's kernel grows as n^3, so the larger genera draw fewer cases
    for trial in range(400 if g <= 3 else 150):
        a = random_symplectic(rng, n)
        if trial % 10 == 0:
            v = (0,) * n
        elif trial % 3 == 0:
            # a column of A - I, so A v tends to lie in im(A - I)
            j = rng.randrange(n)
            v = tuple(a[i][j] - (1 if i == j else 0) for i in range(n))
        else:
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
        s = rng.choice([1, -1])
        tau = _transvection_tau(a, v, s)
        assert tau == meyer_tau(a, transvection(v, s))
        values[tau] += 1
        if any(v) and not solvable(a, v):
            unsolvable += 1
            assert tau == 0
    assert set(values) == {-1, 0, 1}
    assert unsolvable > 0


@pytest.mark.parametrize("g", [3, 4])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_transvection_tau_on_chain_relator_prefixes(g, odd):
    # the chain relators (c1 ... c_(2g+1))^(2g+2) and (c1 ... c_2g)^(4g+2)
    # have no central point early, so their running products from I make
    # many solves, and P - I is singular at a quarter to a third of the
    # steps: rank-deficient eliminations, with and without a solution
    system = parse_system(chain_text(g))
    n = 2 * g
    m = n + 1 if odd else n
    classes = [system.class_of(f"c{i}") for i in range(1, m + 1)] * (m + 1 if odd else 2 * m + 2)
    prefix = [list(row) for row in mat_identity(n)]
    singular = Counter()
    for u in classes:
        a = tuple(map(tuple, prefix))
        tau = _transvection_tau(prefix, u, 1)
        assert tau == meyer_tau(a, transvection(u))
        if rank_over_q([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]) < n:
            singular[solvable(a, u)] += 1
        prefix = [list(row) for row in twist_product(a, ((u, 1),))]
    assert prefix == [list(row) for row in mat_identity(n)]
    assert singular[True] > 0 and singular[False] > 0
    assert 0.1 < sum(singular.values()) / len(classes) < 0.4


@st.composite
def tau_cases(draw):
    """(A, v, phi): a prefix A, a class v and phi = rho((c1 c2^-1)^k).

    A is I or a product of 1, 2, 4 or 6 twists, so A - I has rank 0 or
    at most 1, 2, 4 or 6.  v is 0, drawn, or a column of A - I, which
    puts v in im(A - I) and makes the solve succeed.
    """
    n = 2 * draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    count = draw(st.sampled_from([0, 1, 2, 4, 6]))
    a = twist_product(mat_identity(n), draw(st.lists(
        st.tuples(vec, st.sampled_from([1, -1])), min_size=count, max_size=count)))
    kind = draw(st.sampled_from(["zero", "drawn", "column"]))
    if kind == "zero":
        v = (0,) * n
    elif kind == "drawn":
        v = draw(vec)
    else:
        j = draw(st.integers(0, n - 1))
        v = tuple(a[i][j] - (1 if i == j else 0) for i in range(n))
    # c1 and c2 of the chain have classes a1 and b1; (T_a1 T_b1^-1)^k has
    # spectral radius (3 + 5^0.5) / 2, so the conjugated entries grow fast
    a1, b1 = ((1,) + (0,) * (n - 1)), ((0, 1) + (0,) * (n - 2))
    phi = twist_product(mat_identity(n), [(a1, 1), (b1, -1)] * draw(st.integers(0, 6)))
    return a, v, phi


@given(case=tau_cases(), s=st.sampled_from([1, -1]))
@settings(max_examples=300, deadline=None)
def test_transvection_tau_matches_its_oracles(case, s):
    a, v, phi = case
    conj = mat_mul(mat_mul(phi, a), symplectic_inverse(phi))
    taus = []
    for m, u in ((a, v), (conj, mat_vec(phi, v)), (conj, v)):
        rows = [list(row) for row in m]  # the signature walk passes its prefix as rows
        taus.append(_transvection_tau(rows, u, s))
        assert rows == [list(row) for row in m]
        assert taus[-1] == oracle_tau(m, u, s) == meyer_tau(m, transvection(u, s))
    # conjugation by phi moves T_v^s to T_{phi v}^s and keeps tau
    assert taus[0] == taus[1]


def test_letter_acts_as_transvection_of_its_class(g2, g3, rel_g2):
    walked = [(g2, hurwitz_walk(g2.words["rhoprime"], 9100 + k, 12)) for k in range(3)]
    for system, w in relator_cases(g2, g3, rel_g2) + walked:
        identity = mat_identity(2 * system.genus)
        for letter, sign in w.letters:
            u = system.homology_class_of_letter(letter)
            flat = twist_product(identity, twist_classes(system, letter.flatten(sign)))
            assert transvection(u, sign) == flat


OPAQUE = """
genus 2
curve c1 = a1
curve c2 = b1
curve x = ?
curve y = ?
meet1 c1 c2
word basefirst = c1 c2 x c1
word conjfirst = c1 [y c2]x
word conjonly = [y]c1 c1
word notrelator = c1
"""


@pytest.mark.parametrize("name", ["basefirst", "conjfirst", "conjonly"])
def test_opaque_letter_raises_the_flattened_error(name):
    system = parse_system(OPAQUE)
    w = system.words[name]
    with pytest.raises(UnknownClass) as flat:
        prefix_products(system, w)
    with pytest.raises(UnknownClass) as fast:
        factorization_signature(system, w)
    assert str(fast.value) == str(flat.value)


def test_opaque_error_comes_before_not_a_relator():
    system = parse_system(OPAQUE)
    with pytest.raises(NotARelator):
        factorization_signature(system, system.words["notrelator"])
    # [y]c1 c1 is not a relator either, but its opaque letter is reported first
    with pytest.raises(UnknownClass, match="'y'"):
        factorization_signature(system, system.words["conjonly"])
