"""The lantern search against a plain walk over the box.

``solve_lantern_classes`` completes zero, one or two unknown classes;
with two it takes the first from the integer points of the image of
M - I, a lattice of rank at most 2 (see ``system._complete``).
``box_walk_lantern`` checks every vector of [-b, b]^(2g) for each
unknown by dense matrix products; both must return the same list, and
the solver must try at most (2b+1)^rank(M - I) candidates for two
unknowns and recognize one forced factor for one.  Its two span
routines, ``_recognize_transvection`` and ``_image_points``, are also
held on their own to a table of every box vector's twist and to a rank
filter of the box.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import system as system_mod
from mcgcalc.symplectic import mat_identity, mat_mul, symplectic_inverse, transvection
from mcgcalc.system import (
    CurveSystem,
    _image_points,
    _recognize_transvection,
    solve_lantern_classes,
)

D_NAMES = ["d0", "d1", "d2", "d3"]


def dense_product(system, classes):
    """T(c_1) ... T(c_k) as mat_mul products of transvection matrices."""
    m = mat_identity(2 * system.genus)
    for cls in classes:
        m = mat_mul(m, transvection(cls))
    return m


def box_walk_lantern(system, d_names, right, bound):
    """Every vector of [-b, b]^(2g) for each unknown, by dense products.

    The unknowns before the last one, r_q, walk the box.  For each of
    their values, with L the product of the factors before r_q and P of
    those after it, r_q is every box vector w whose T(w) P equals
    L^-1 D, found in a table of T(w) P over the whole box.
    """
    box = list(itertools.product(range(-bound, bound + 1), repeat=2 * system.genus))
    d = dense_product(system, [system.class_of(name) for name in d_names])
    filled = [None if e is None else system.class_of(e) for e in right]
    unknown = [i for i, cls in enumerate(filled) if cls is None]
    if not unknown:
        return [tuple(filled)] if dense_product(system, filled) == d else []
    *first, q = unknown
    tails = {}
    for w in box:
        tails.setdefault(dense_product(system, [w] + filled[q + 1:]), []).append(w)
    out = []
    for values in itertools.product(box, repeat=len(first)):
        head = filled[:q]
        for i, vec in zip(first, values):
            head[i] = vec
        target = mat_mul(symplectic_inverse(dense_product(system, head)), d)
        out += [tuple(head + [w] + filled[q + 1:]) for w in tails.get(target, [])]
    return sorted(out)


def two_twist_matrix(system, d_names, right):
    """M = T(r_p) T_w from dense products: D T_k^-1, or T_k^-1 D for k first."""
    (kpos, kname), = [(i, e) for i, e in enumerate(right) if e is not None]
    m = mat_identity(2 * system.genus)
    for name in d_names:
        m = mat_mul(m, transvection(system.class_of(name)))
    k_inv = transvection(system.class_of(kname), -1)
    return mat_mul(k_inv, m) if kpos == 0 else mat_mul(m, k_inv)


def rank_minus_identity(m):
    """rank(M - I) by Gaussian elimination over Q."""
    n = len(m)
    return fraction_rank([[m[i][j] - (i == j) for j in range(n)] for i in range(n)])


def fraction_rank(vectors):
    """The rank of integer vectors of one length, by Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    n = len(rows)
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(rank, n) if rows[i][c]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def build_system(genus, d_classes, k_class):
    system = CurveSystem(genus)
    for name, cls in zip(D_NAMES, d_classes):
        system.add_curve(name, cls)
    system.add_curve("k", k_class)
    return system


def right_with_known(kpos):
    right = [None, None, None]
    right[kpos] = "k"
    return right


def search_case(genus, d_classes, r_classes, unknown):
    """d0..d3 and each known r_i, declared as ``ri``, with the right side."""
    system = CurveSystem(genus)
    right = [None if i in unknown else f"r{i}" for i in range(3)]
    for name, cls in zip(D_NAMES + right, list(d_classes) + list(r_classes)):
        if name is not None:
            system.add_curve(name, cls)
    return system, right


def check_against_box_walk(system, right, bound, d_names=D_NAMES):
    """Same answer as the box walk; for two unknowns from at most
    (2b+1)^rank candidates, and otherwise from one recognition per unknown."""
    with mock.patch.object(system_mod, "_recognize_transvection",
                           wraps=_recognize_transvection) as spy:
        got = solve_lantern_classes(system, d_names, right, bound=bound)
    assert got == box_walk_lantern(system, d_names, right, bound)
    if right.count(None) < 2:
        assert spy.call_count == right.count(None)
        return None, got
    rank = rank_minus_identity(two_twist_matrix(system, d_names, right))
    assert spy.call_count <= (2 * bound + 1) ** rank
    if rank > 2:
        assert got == [] and spy.call_count == 0
    return rank, got


@st.composite
def lantern_searches(draw):
    genus, bound = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    cls = st.tuples(*[st.integers(-2, 2)] * (2 * genus))
    # no unknown, one at each position, or two around the known class
    unknown = draw(st.sampled_from([(), (0,), (1,), (2,), (1, 2), (0, 2), (0, 1)]))
    r = [draw(cls) for _ in range(3)]
    if draw(st.booleans()):
        # T(r0) T(r1) T(r2) with a null-homologous d inserted: a solution exists
        d = list(r)
        d.insert(draw(st.integers(0, 3)), (0,) * (2 * genus))
    else:
        d = [draw(cls) for _ in range(4)]
    return (*search_case(genus, d, r, unknown), bound)


@settings(max_examples=150, deadline=None)
@given(lantern_searches())
def test_lattice_search_matches_box_walk(case):
    system, right, bound = case
    rank, got = check_against_box_walk(system, right, bound)
    level = f"unknowns {right.count(None)}" if rank is None else f"rank {min(rank, 3)}"
    event(f"{level}{', solved' if got else ''}")


Z = (0, 0, 0, 0)
X = (1, 0, 2, 0)
W = (0, 0, 1, 0)
K = (0, 1, 0, -1)


@pytest.mark.parametrize("kpos", [0, 1, 2])
@pytest.mark.parametrize("d,rank", [
    ((K, Z, Z, Z), 0),  # M = I: only r_p = 0
    ((X, K, Z, Z), 1),  # M is one twist
    ((X, W, K, Z), 2),
    ((X, (1, 1, 0, 0), (0, 0, 1, 1), K), 3),
])
def test_explicit_ranks_match_box_walk(d, rank, kpos):
    system = build_system(2, d, K)
    got_rank, got = check_against_box_walk(system, right_with_known(kpos), 2)
    assert got_rank == rank
    assert bool(got) == (rank <= 2)


A1, B1, A1B1 = (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)


@pytest.mark.parametrize("unknown", [(), (0,), (1,), (2,), (1, 2), (0, 2), (0, 1)])
def test_noncommuting_factors_match_box_walk(unknown):
    # r0, r1, r2 pair to +-1 with each other, so each product order shows
    system, right = search_case(2, [A1, B1, A1B1, Z], [A1, B1, A1B1], unknown)
    rank, got = check_against_box_walk(system, right, 2)
    assert (A1, B1, A1B1) in got


@pytest.mark.parametrize("fixture,d_names,known,bound,rank", [
    ("g2", ["c3", "c5", "c5", "c3"], "c1", 2, 1),
    ("g2", ["c3", "c5", "c5", "c3"], "c1", 3, 1),
    ("g3", ["c1", "c3", "c5", "c7"], "f1", 1, 2),
])
def test_workload_searches_match_box_walk(request, fixture, d_names, known, bound, rank):
    # the three benchmark searches: at most 5, 7 and 9 candidates, not 625, 2401 and 729
    system = request.getfixturevalue(fixture)
    got_rank, got = check_against_box_walk(system, [known, None, None], bound, d_names)
    assert got_rank == rank and got


# The two span routines of the solver against plain oracles that share
# nothing with them: twist matrices written out entry by entry, a table
# of every box vector's twist, and a rank test over Q.

def written_twist(w, s=1):
    """T_w^s = I + s w <., w>: column j is e_j + s <e_j, w> w, where
    <e_j, w> is w[j + 1] for even j and -w[j - 1] for odd j."""
    n = len(w)
    return tuple(tuple(int(i == j) + s * (w[j + 1] if j % 2 == 0 else -w[j - 1]) * w[i]
                       for j in range(n)) for i in range(n))


def written_product(factors):
    """The product of the twists (w, s) in order, by plain row-column sums."""
    m = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for w, s in factors:
        t = written_twist(w, s)
        m = tuple(tuple(sum(row[k] * t[k][j] for k in range(4)) for j in range(4)) for row in m)
    return m


def box(bound):
    return list(itertools.product(range(-bound, bound + 1), repeat=4))


def twist_table(bound):
    """Every box vector, by the matrix of its twist."""
    table = {}
    for w in box(bound):
        table.setdefault(written_twist(w), []).append(w)
    return table


def seeded_products(seed, count, sizes):
    """``count`` products of ``sizes`` twists each, classes and signs drawn
    from random.Random(seed), entries in [-2, 2]."""
    rng = random.Random(seed)
    return [written_product([(tuple(rng.randint(-2, 2) for _ in range(4)), rng.choice((1, -1)))
                             for _ in range(rng.choice(sizes))]) for _ in range(count)]


def test_recognize_transvection_matches_the_twist_table():
    table = {bound: twist_table(bound) for bound in (1, 2)}
    matrices = [(written_product([]), 1)]
    for v in box(1):
        matrices += [(written_twist(v), 1),  # lambda^2 = 1
                     (written_twist(v, -1), 1),  # lambda^2 = -1: a twist only for v = 0
                     (written_product([(v, 1)] * 2), 1),  # lambda^2 = 2: not a square
                     (written_product([(v, 1)] * 4), 1),  # T_(2v), outside the box at bound 1
                     (written_product([(v, 1)] * 4), 2)]  # lambda^2 = 4: T_(2v) at bound 2
    matrices += [(m, 1) for m in seeded_products(31, 200, (2,))]
    hits = 0
    for m, bound in matrices:
        got = sorted(_recognize_transvection(m, bound))
        assert got == sorted(table[bound].get(m, [])), (m, bound)
        hits += bool(got)
    assert hits > 2 * 80  # T_v at bound 1 and T_(2v) at bound 2, for each v != 0


@pytest.mark.parametrize("bound", [1, 2])
def test_image_points_match_a_rank_filter_of_the_box(bound):
    ranks = set()
    for m in seeded_products(bound, 16, (1, 2, 3)):
        columns = [[m[i][j] - (i == j) for i in range(4)] for j in range(4)]
        rank = fraction_rank(columns)
        ranks.add(min(rank, 3))
        if rank > 2:
            expected = []
        else:
            # the columns that raise the rank span the image
            basis = [c for k, c in enumerate(columns)
                     if fraction_rank(columns[:k + 1]) > fraction_rank(columns[:k])]
            expected = [x for x in box(bound) if fraction_rank(basis + [x]) == rank]
        assert sorted(_image_points(m, bound)) == expected, m
    assert ranks == {1, 2, 3}
