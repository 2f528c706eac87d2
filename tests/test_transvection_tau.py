"""The signature's one-transvection-per-letter path against its oracles:
the general Meyer cocycle and the flattened twist product."""

import random
from collections import Counter

import pytest

from mcgcalc.errors import NotARelator, UnknownClass
from mcgcalc.meyer import _transvection_tau, factorization_signature, meyer_tau
from mcgcalc.parser import parse_system
from mcgcalc.symplectic import mat_identity, transvection, twist_product
from tests.flat_oracle import twist_classes
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


@pytest.mark.parametrize("g", [1, 2, 3])
def test_transvection_tau_matches_general_cocycle(g):
    rng = random.Random(300 + g)
    n = 2 * g
    values = Counter()
    unsolvable = 0
    for trial in range(400):
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
