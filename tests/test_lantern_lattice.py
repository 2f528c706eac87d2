"""The lantern search against a plain walk over the box.

``solve_lantern_classes`` completes zero, one or two unknown classes;
with two it takes the first from the integer points of the image of
M - I, a lattice of rank at most 2 (see ``system._complete``).
``box_walk_lantern`` checks every vector of [-b, b]^(2g) for each
unknown by dense matrix products; both must return the same list, and
the solver must try at most (2b+1)^rank(M - I) candidates for two
unknowns and recognize one forced factor for one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import system as system_mod
from mcgcalc.symplectic import mat_identity, mat_mul, symplectic_inverse, transvection
from mcgcalc.system import CurveSystem, _recognize_transvection, solve_lantern_classes

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
    rows = [[Fraction(m[i][j] - (i == j)) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
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
