"""An oracle for the signature that shares nothing with the Meyer cocycle.

A positive relator with vanishing cycles u_1..u_n builds X over D^2 as
Sigma x D^2 with one 2-handle per vanishing cycle.  H_2 of it is the
kernel of Z^n -> H_1(Sigma), e_i -> u_i, and on that kernel the
intersection form is

    Q(x, y) = -sum_i x_i y_i - sum_{i<j} x_i y_j <u_i, u_j>

(Ozbagci, *Signatures of Lefschetz fibrations*, Pacific J. Math. 2002).
By Novikov additivity sigma(X) is the signature of Q, so this needs only
``integer_kernel`` and the former p^2-scaled recursion kept in
``tests/sym_signature_oracle.py``: the one-pass ``factorization_signature``
reads its closing forms through ``meyer.signature_of_symmetric``, so the
oracle does not share it.  The fixtures pin the sign of
the cross term: with the other sign ``rhoprime``, whose four letters are
null-homologous, comes out wrong.
"""

import random

import pytest

from mcgcalc import symplectic as sp
from mcgcalc.meyer import factorization_signature, integer_kernel
from mcgcalc.moves import elementary_transformation
from mcgcalc.parser import parse_system
from tests.sym_signature_oracle import signature_of_symmetric
from tests.test_incremental_replay import chain_text

FIXTURES = [("g2", "rho", -12), ("g2", "rhoprime", -8), ("g3", "sigma3", -16)]


def handle_signature(system, w, cross=-1):
    """sigma of Q on ker(Z^n -> H_1); ``cross`` is the sign of the cross term."""
    us = [sp.letter_class(system, letter) for letter, _ in w]
    n = len(us)
    kernel = integer_kernel([[u[i] for u in us] for i in range(2 * system.genus)], n)
    pair = [[sp.pairing(us[i], us[j]) for j in range(n)] for i in range(n)]

    def q(x, y):
        return -sum(a * b for a, b in zip(x, y)) + cross * sum(
            x[i] * y[j] * pair[i][j] for j in range(n) if y[j] for i in range(j) if x[i])

    gram = [[q(x, y) for y in kernel] for x in kernel]
    # Q is symmetric on the kernel though not on Z^n
    assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(i))
    return signature_of_symmetric(gram)


@pytest.mark.parametrize("fixture,name,sigma", FIXTURES)
def test_handle_oracle_on_fixture_relators(request, fixture, name, sigma):
    system = request.getfixturevalue(fixture)
    w = system.words[name]
    assert handle_signature(system, w) == sigma
    assert factorization_signature(system, w) == sigma


@pytest.mark.parametrize("fixture,name,sigma", FIXTURES)
def test_handle_oracle_on_move_walks(request, fixture, name, sigma):
    # elementary transformations keep the fibration, so its signature
    system = request.getfixturevalue(fixture)
    for seed in range(12):
        rng = random.Random(f"{name}:{seed}")
        w = system.words[name]
        for _ in range(rng.randrange(1, 25)):
            moved = elementary_transformation(w, rng.randrange(1, len(w)), rng.choice("LR"))
            if all(len(letter.conj) <= 8 for letter, _ in moved):
                w = moved
        assert handle_signature(system, w) == factorization_signature(system, w) == sigma


@pytest.mark.parametrize("g", range(2, 6))
@pytest.mark.parametrize("k", [1, 2])
def test_handle_oracle_on_hyperelliptic_ladder(g, k):
    # w^k with w = (c1 ... c_2g c_2g+1^2 c_2g ... c1)^2: n = 4(2g+1)k
    # nonseparating letters and sigma = -(g+1)/(2g+1) n = -4(g+1)k
    system = parse_system(chain_text(g))
    w = system.words["w"]
    for _ in range(k - 1):
        w = w * system.words["w"]
    assert handle_signature(system, w) == factorization_signature(system, w) == -4 * (g + 1) * k


def test_opposite_cross_term_fails_on_rhoprime(g2):
    assert handle_signature(g2, g2.words["rhoprime"], cross=1) != -8
