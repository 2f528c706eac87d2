"""Oracles for the one transvection-product routine and for the
signature path that no longer checks symplecticity at run time."""

import random

import pytest

from mcgcalc import symplectic as sp
from mcgcalc.errors import DimensionError
from mcgcalc.meyer import factorization_signature, local_signature, meyer_tau
from mcgcalc.moves import elementary_transformation
from mcgcalc.symplectic import (
    is_symplectic,
    mat_identity,
    mat_mul,
    pairing,
    transvection,
    twist_product,
)
from tests.flat_oracle import twist_classes


def dense_transvection(v, s):
    """T_v^s built column by column from x -> x + s <x, v> v."""
    n = len(v)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        c = s * pairing(e, v)
        cols.append(tuple(x + c * y for x, y in zip(e, v)))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def dense_product(m, twists):
    for v, s in twists:
        m = mat_mul(m, dense_transvection(v, s))
    return m


def random_twists(rng, n, count):
    return [(tuple(rng.randrange(-3, 4) for _ in range(n)), rng.choice([1, -1]))
            for _ in range(count)]


def huge_twist(rng, n):
    """A class with entries past 2^64 beside small ones, and a sign."""
    big = 2 ** 64
    return (tuple(rng.choice([-1, 1]) * rng.randrange(big, 4 * big) if rng.random() < 0.5
                  else rng.randrange(-3, 4) for _ in range(n)), rng.choice([1, -1]))


def sparse_twist(rng, n, k, big):
    """A class with exactly k nonzero entries at seeded places, each small
    or, with ``big``, past 2^64, and a sign."""
    v = [0] * n
    for i in rng.sample(range(n), k):
        v[i] = rng.choice([-1, 1]) * (rng.randrange(2**64, 2**66) if big else rng.randrange(1, 4))
    return tuple(v), rng.choice([1, -1])


@pytest.mark.parametrize("g", [1, 2, 3, 6])
def test_twist_product_matches_dense_product(g):
    rng = random.Random(100 + g)
    n = 2 * g
    zero = (0,) * n
    past_64_bits = 0
    for k in range(60):
        start = mat_identity(n)
        while start == mat_identity(n):
            start = dense_product(start, random_twists(rng, n, 3))
        twists = random_twists(rng, n, rng.randrange(0, 4))
        twists.insert(rng.randrange(len(twists) + 1), (zero, rng.choice([1, -1])))
        # the update reads only a class's nonzero entries: every count of
        # them from 1 to 2g, small or past 2^64
        twists.insert(rng.randrange(len(twists) + 1), sparse_twist(rng, n, 1 + k % n, k // n % 2))
        if k % 2:
            # classes past 2^64, and a start matrix with such entries
            twists.insert(rng.randrange(len(twists) + 1), huge_twist(rng, n))
            start = dense_product(start, [huge_twist(rng, n)])
        product = twist_product(start, twists)
        assert product == dense_product(start, twists)
        past_64_bits += any(abs(x) >= 2 ** 64 for row in product for x in row)
        for v, _ in twists:
            for s in (1, -1):
                assert twist_product(start, [(v, s)]) == mat_mul(start, dense_transvection(v, s))
                assert transvection(v, s) == dense_transvection(v, s)
    assert past_64_bits >= 25


def test_twist_product_refuses_a_class_of_another_length():
    for v in ((1, 0, 0), (0,) * 6, (2, -1)):
        for s in (1, -1):
            with pytest.raises(DimensionError) as info:
                twist_product(mat_identity(4), [((0,) * 4, 1), (v, s)])
            assert str(info.value) == f"vector of length {len(v)} against a 4x4 matrix"


def test_identity_is_one_shared_tuple():
    assert mat_identity(6) is mat_identity(6)
    assert mat_identity(6) == tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert twist_product(mat_identity(4), [((1, 2, 0, 0), 1)]) != mat_identity(4)
    assert mat_identity(4) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def hurwitz_walk(w, seed, steps):
    rng = random.Random(seed)
    for _ in range(steps):
        w = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice("LR"))
    return w


def relator_cases(g2, g3, rel_g2):
    cases = [
        (g2, g2.words["rho"]),
        (g2, g2.words["rhoprime"]),
        (g3, g3.words["sigma3"]),
        (rel_g2, rel_g2.words["chainrel"]),
    ]
    for seed in range(3):
        cases.append((g2, hurwitz_walk(g2.words["rho"], 7000 + seed, 15)))
        cases.append((g3, hurwitz_walk(g3.words["sigma3"], 8000 + seed, 10)))
    return cases


def prefix_products(system, w):
    """rho of every prefix v1...vk of w, and of every letter vk, from the
    flattened twists of each letter (the general-cocycle oracle's input)."""
    identity = mat_identity(2 * system.genus)
    prefixes, letters = [], []
    acc = identity
    for letter, sign in w.letters:
        twists = list(twist_classes(system, letter.flatten(sign)))
        acc = twist_product(acc, twists)
        prefixes.append(acc)
        letters.append(twist_product(identity, twists))
    return prefixes, letters


def test_signature_prefixes_are_symplectic_and_match_guarded_tau(g2, g3, rel_g2):
    for system, w in relator_cases(g2, g3, rel_g2):
        prefixes, letters = prefix_products(system, w)
        assert prefixes[-1] == mat_identity(2 * system.genus)
        for m in prefixes + letters:
            assert is_symplectic(m)
        guarded = sum(meyer_tau(prefixes[k - 1], letters[k]) for k in range(1, len(letters)))
        # a letter acts trivially on homology exactly when its curve separates
        separating = sum(1 for m in letters if m == mat_identity(2 * system.genus))
        assert factorization_signature(system, w) == guarded - separating


def test_signature_walk_and_twist_product_share_one_rank1_routine(g2, g3, monkeypatch):
    # the walk updates its prefix rows in place through the routine that
    # twist_product wraps, so a second transvection loop would go unseen here
    applied = []
    real = sp._twist_rows

    def spy(rows, twists):
        twists = list(twists)
        applied.extend(twists)
        real(rows, twists)

    monkeypatch.setattr(sp, "_twist_rows", spy)
    # rho and sigma3 pass through -I at their half, which would skip it;
    # these Hurwitz walks of them do not
    walked = ((g2, hurwitz_walk(g2.words["rho"], 7000, 15)),
              (g3, hurwitz_walk(g3.words["sigma3"], 8000, 40)))
    for system, w in walked:
        identity = mat_identity(2 * system.genus)
        negative = tuple(tuple(-x for x in row) for row in identity)
        steps = sp._known_classes(system, w.letters)
        partial = [twist_product(identity, steps[:k]) for k in range(1, len(steps))]
        # no prefix is I or -I, so no block is skipped and every step is read
        assert identity not in partial and negative not in partial
        del applied[:]
        sigma, product = local_signature(system, steps)
        assert applied == [step for step in steps if any(step[0])]
        assert product == identity and sigma == factorization_signature(system, w)
        del applied[:]
        assert twist_product(identity, steps) == product
        assert applied == steps
