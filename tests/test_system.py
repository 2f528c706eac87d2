import itertools
import random

import pytest

from mcgcalc.errors import (
    DimensionError,
    InvalidDeclaration,
    InvalidRelation,
    MalformedRelation,
    UnknownClass,
    UnknownCurve,
)
from mcgcalc.reports import Census, singular_fiber_census
from mcgcalc.symplectic import mat_identity, mat_mul, pairing, transvection, twist_product
from mcgcalc.system import (
    CurveSystem,
    RelationDecl,
    make_relation,
    solve_lantern_classes,
    validate_relation_decl,
    validate_system,
)
from mcgcalc.words import Letter
from tests.flat_oracle import twist_classes

A1, B1, A2, B2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def test_chain_pairing_table(g2):
    # hand oracle: adjacent chain curves pair to +-1, the rest to 0
    chain = ["c1", "c2", "c3", "c4", "c5"]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            p = pairing(g2.class_of(a), g2.class_of(b))
            if abs(i - j) == 1:
                assert p in (1, -1), (a, b, p)
            else:
                assert p == 0, (a, b, p)


def test_fixture_system_validates(g2):
    assert validate_system(g2) == []


def test_fixture_relations_g2_validates(rel_g2):
    assert validate_system(rel_g2) == []
    assert {r.status for r in rel_g2.relations.values()} == {"verified"}


def test_contradictory_disjointness_is_violation():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c2", B1)
    s.add_disjoint("c1", "c2")  # but <a1, b1> = 1
    violations = validate_system(s)
    assert any("disjoint (c1, c2)" in v for v in violations)


def test_disjoint_and_meet1_conflict_is_violation():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c2", B1)
    s.add_meet1("c1", "c2")
    s.add_disjoint("c1", "c2")
    assert any("both disjoint and meet1" in v for v in validate_system(s))


def test_violations_come_in_a_fixed_order():
    s = CurveSystem(2)
    for name, cls in [("c1", A1), ("c2", B1), ("c3", A2), ("c4", B2), ("c5", (1, 0, 1, 0)),
                      ("c6", (0, 0, 0, 2)), ("c7", (0, 0, 2, 0)), ("p", None), ("z", (0,) * 4)]:
        s.add_curve(name, cls)
    # a pair declared (b, a) is read as (a, b), with the sign of <a, b>
    for kind, a, b in [("meet1", "c4", "c1"), ("disjoint", "c3", "c2"), ("disjoint", "c5", "c2"),
                       ("meet1", "c3", "c1"), ("disjoint", "c4", "c3"), ("disjoint", "c2", "c1"),
                       ("meet1", "c1", "c2"), ("meet1", "p", "c1"), ("disjoint", "c5", "p"),
                       ("meet1", "c5", "c4"), ("meet1", "c6", "c3"), ("meet1", "c7", "c4"),
                       ("meet1", "z", "c1")]:
        (s.add_disjoint if kind == "disjoint" else s.add_meet1)(a, b)
    assert validate_system(s) == [
        "pair (c1, c2): declared both disjoint and meet1",
        "disjoint (c1, c2): symplectic pairing is 1, not 0",
        "disjoint (c2, c5): symplectic pairing is -1, not 0",
        "disjoint (c3, c4): symplectic pairing is 1, not 0",
        "meet1 (c1, c3): symplectic pairing is 0, not +-1",
        "meet1 (c1, c4): symplectic pairing is 0, not +-1",
        "meet1 (c1, z): symplectic pairing is 0, not +-1",
        "meet1 (c3, c6): symplectic pairing is 2, not +-1",
        "meet1 (c4, c7): symplectic pairing is -2, not +-1",
    ]


def test_unknown_curve_raises():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    with pytest.raises(UnknownCurve):
        s.class_of("zz")
    with pytest.raises(UnknownCurve):
        s.add_disjoint("c1", "zz")
    with pytest.raises(UnknownCurve, match="^curve 'nope' is not declared$"):
        s.decl_index("nope")


def test_homology_class_of_conjugated_letter(g2):
    # [c3]c4 -> [c4] + <[c4],[c3]>[c3] = b2 - (a1 + a2)
    letter = g2.letter("c4", [("c3", 1)])
    assert g2.homology_class_of_letter(letter) == (-1, 0, -1, 1)


def test_homology_class_plain_and_zero(g2):
    assert g2.homology_class_of_letter(g2.letter("c5")) == (0, 0, 1, 0)
    assert g2.homology_class_of_letter(g2.letter("del", [("c3", 1)])) == (0, 0, 0, 0)


def census(system, letters):
    return singular_fiber_census(system, system.word(letters))


def test_census_nonseparating_and_genus2_type(g2):
    # a letter with a nonzero class is nonseparating; a null-homologous
    # letter at genus 2 has type 1 with no septype declared
    assert not g2.septype
    assert census(g2, ["c1", "c2", "h"]) == Census(n0=3)
    assert census(g2, ["c1", "k", "del", "k"]) == Census(n0=1, separating=((1, 3),))


def test_census_opaque_letters_are_class_unknown(g3):
    # an opaque base or an opaque conjugator twist leaves the class unknown
    letters = ["x1", "c7", g3.letter("c4", [("x1", 1)]), "c8"]
    assert census(g3, letters) == Census(n0=1, class_unknown=3)


def test_census_separating_type_from_septype():
    s = CurveSystem(4)
    s.add_curve("c1", (1,) + (0,) * 7)
    for name in ("y", "z", "u"):
        s.add_curve(name, (0,) * 8)
    letters = ["z", "c1", "y", s.letter("z", [("c1", 1)]), "u"]
    assert census(s, letters) == Census(n0=1, sep_type_unknown=4)
    s.add_septype("z", 2)
    s.add_septype("y", 1)
    # the type is the base curve's, also under a conjugator; u stays unknown
    got = census(s, letters)
    assert got == Census(n0=1, separating=((1, 1), (2, 2)), sep_type_unknown=1)
    assert got.n_separating == 4


def test_census_conjugation_invariant(g2, g3):
    for system, bases in ((g2, ("c1", "k", "del")), (g3, ("c4", "c6", "x2"))):
        for base in bases:
            plain = census(system, [base])
            twisted = census(system, [system.letter(base, [("c2", -1), ("c3", 1)])])
            assert plain == twisted, base


def test_lantern_validation(g2):
    assert g2.relations["LA"].status == "verified"
    assert g2.relations["LB"].status == "verified"
    assert g2.relations["LC"].status == "verified"


def test_degenerate_lantern_fails():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    c = s.letter("c1")
    decl = make_relation("lantern", "bad", c, c, c, c, c, c, c)
    assert validate_relation_decl(s, decl) is False
    with pytest.raises(InvalidRelation):
        s.add_relation(decl)


def test_relation_arity_checked():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    c = s.letter("c1")
    with pytest.raises(MalformedRelation):
        validate_relation_decl(s, RelationDecl("bad", "lantern", (c, c), (c,)))
    with pytest.raises(MalformedRelation):
        validate_relation_decl(s, RelationDecl("bad", "nope", (c,), (c,)))
    with pytest.raises(MalformedRelation):
        make_relation("braid", "bad", c)
    with pytest.raises(MalformedRelation):
        make_relation("nope", "bad", c, c)


def test_chain2_validates(rel_g2):
    decl = rel_g2.relations["CH12"]
    assert decl.status == "verified"
    # (T_a T_b)^6 = I directly
    m = mat_mul(transvection(A1), transvection(B1))
    acc = mat_identity(4)
    for _ in range(6):
        acc = mat_mul(acc, m)
    assert acc == mat_identity(4)


def refused(system, decl):
    """validate_relation_decl says False and add_relation raises."""
    assert validate_relation_decl(system, decl) is False
    with pytest.raises(InvalidRelation):
        system.add_relation(decl)
    return decl.name not in system.relations


def test_opaque_curves_end_as_assumed_after_the_pairing_check():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c2", B1)
    s.add_curve("c3", (1, 0, 1, 0))
    s.add_curve("x", None)
    c1, c2, c3, x = (s.letter(n) for n in ("c1", "c2", "c3", "x"))
    # the opening pair pairs wrongly, so an opaque letter after it is never read
    assert refused(s, make_relation("chain2", "wrong", c1, c3, x))
    decl = RelationDecl("wrong3", "braid", (c1, c3, x), (c3, c1, c3))
    assert validate_relation_decl(s, decl) is False
    # an opaque letter in the opening pair, or after a pair that checks out
    for name, kind, atoms in (("bx", "braid", (c1, x)), ("cx", "chain2", (c1, c2, x)),
                              ("lx", "lantern", (c1, c1, c3, c3, x, c2, c1))):
        decl = make_relation(kind, name, *atoms)
        with pytest.raises(UnknownClass, match="'x'"):
            validate_relation_decl(s, decl)
        s.add_relation(decl)
        assert s.relations[name].status == "assumed"
        assert s.assumptions[-1] == f"relation {name}: not homologically checkable (opaque curves)"


def test_braid_needs_one_point_pairing():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c3", (1, 0, 1, 0))
    decl = make_relation("braid", "bad", s.letter("c1"), s.letter("c3"))
    assert validate_relation_decl(s, decl) is False
    # two null-homologous curves: both sides are I, so only the pairing refuses
    s.add_curve("z", (0, 0, 0, 0))
    s.add_curve("w", (0, 0, 0, 0))
    assert refused(s, make_relation("braid", "zbraid", s.letter("z"), s.letter("w")))


def test_commute_needs_disjoint_pairing():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c2", B1)
    assert refused(s, make_relation("commute", "bad", s.letter("c1"), s.letter("c2")))


def test_chain2_needs_a_null_homologous_boundary():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("c2", B1)
    s.add_curve("c", (1, 0, 0, 1))
    a, b = s.letter("c1"), s.letter("c2")
    for c in ("c1", "c"):
        assert refused(s, make_relation("chain2", f"bad_{c}", a, b, s.letter(c)))


def test_chain2_needs_one_point_pairing():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("b2", (0, 2, 0, 0))
    s.add_curve("z", (0, 0, 0, 0))
    s.add_curve("w", (0, 0, 0, 0))
    # <a1, 2 b1> = 2
    assert refused(s, make_relation("chain2", "two", s.letter("c1"), s.letter("b2"), s.letter("z")))
    # both sides are I, so only the pairing refuses it
    z, w = s.letter("z"), s.letter("w")
    assert refused(s, make_relation("chain2", "zero", z, w, z))


def test_opaque_relation_recorded_as_assumed():
    s = CurveSystem(2)
    s.add_curve("c1", A1)
    s.add_curve("zz", None)
    decl = make_relation("commute", "CM", s.letter("c1"), s.letter("zz"))
    s.add_relation(decl)
    assert s.relations["CM"].status == "assumed"
    assert any("CM" in a for a in s.assumptions)


def test_lantern_rotation_invariance(g2):
    # rotating the boundary curves of a validated lantern keeps the
    # matrix identity when the d-classes pairwise commute
    la = g2.relations["LA"]
    d = la.left
    for r in range(1, 4):
        rotated = d[r:] + d[:r]
        decl = make_relation("lantern", f"rot{r}", *rotated, *la.right)
        assert validate_relation_decl(g2, decl) is True


def test_lantern_sum_identity_up_to_signs(g2, g3):
    # for a validated lantern there are orientations making the d-class
    # sum equal the right-side class sum
    for system in (g2, g3):
        for decl in system.relations.values():
            if decl.kind != "lantern":
                continue
            classes = [system.homology_class_of_letter(l) for l in decl.left + decl.right]
            assert all(c is not None for c in classes)
            n = len(classes)
            found = False
            for signs in itertools.product((1, -1), repeat=n):
                total = [0] * len(classes[0])
                for s, (sgn, cls) in enumerate(zip(signs, classes)):
                    weight = sgn if s < 4 else -sgn
                    for i, x in enumerate(cls):
                        total[i] += weight * x
                if not any(total):
                    found = True
                    break
            assert found, decl.name


# --- solve_lantern_classes -------------------------------------------------


def brute_force_lantern(system, d_names, right, bound):
    """Independent oracle: full enumeration over the coefficient box."""
    g = system.genus
    m = mat_identity(2 * g)
    for name in d_names:
        m = mat_mul(m, transvection(system.class_of(name)))
    known = {}
    unknown = []
    for i, entry in enumerate(right):
        if entry is None:
            unknown.append(i)
        else:
            known[i] = system.class_of(entry)
    box = list(itertools.product(range(-bound, bound + 1), repeat=2 * g))
    out = []
    for combo in itertools.product(box, repeat=len(unknown)):
        assign = dict(known)
        for pos, vec in zip(unknown, combo):
            assign[pos] = tuple(vec)
        prod = mat_identity(2 * g)
        for i in range(3):
            prod = mat_mul(prod, transvection(assign[i]))
        if prod == m:
            out.append(tuple(assign[i] for i in range(3)))
    return sorted(out)


def test_solver_matches_brute_force_two_unknown(g2):
    got = solve_lantern_classes(g2, ["c3", "c5", "c5", "c3"], ["c1", None, None], bound=1)
    assert got == brute_force_lantern(g2, ["c3", "c5", "c5", "c3"], ["c1", None, None], 1)


def test_solver_matches_brute_force_one_unknown(g2):
    got = solve_lantern_classes(g2, ["c5", "c5", "c1", "c1"], ["c3", "del", None], bound=1)
    assert got == brute_force_lantern(g2, ["c5", "c5", "c1", "c1"], ["c3", "del", None], 1)


def test_solver_trailing_known_matches_brute_force(g2):
    got = solve_lantern_classes(g2, ["c1", "c1", "c3", "c3"], [None, None, "c5"], bound=1)
    assert got == brute_force_lantern(g2, ["c1", "c1", "c3", "c3"], [None, None, "c5"], 1)


def test_solver_fixture_lantern_LA(g2):
    sols = solve_lantern_classes(g2, ["c3", "c5", "c5", "c3"], ["c1", None, None], bound=2)
    zero = (0, 0, 0, 0)
    target = (1, 0, 2, 0)
    neg = (-1, 0, -2, 0)
    pairs = {(s[1], s[2]) for s in sols}
    assert (zero, target) in pairs and (zero, neg) in pairs
    assert (target, zero) in pairs and (neg, zero) in pairs
    # nothing outside {0, +-(a1 + 2 a2)} appears
    assert {v for p in pairs for v in p} == {zero, target, neg}


def test_solver_fixture_lantern_LB(g2):
    sols = solve_lantern_classes(g2, ["c5", "c5", "c1", "c1"], ["c3", None, None], bound=2)
    vals = {v for s in sols for v in (s[1], s[2])}
    assert vals == {(0, 0, 0, 0), (1, 0, -1, 0), (-1, 0, 1, 0)}


def test_solver_fixture_lantern_LC(g2):
    sols = solve_lantern_classes(g2, ["c1", "c1", "c3", "c3"], [None, None, "c5"], bound=2)
    vals = {v for s in sols for v in (s[0], s[1])}
    assert vals == {(0, 0, 0, 0), (2, 0, 1, 0), (-2, 0, -1, 0)}


def test_solver_genus3_fixture_lantern(g3):
    sols = solve_lantern_classes(g3, ["c1", "c3", "c5", "c7"], ["f1", None, None], bound=1)
    t, v = g3.class_of("t"), g3.class_of("v")
    pairs = {(s[1], s[2]) for s in sols}
    assert (t, v) in pairs or (v, t) in pairs


def test_solver_requires_known_entry(g2):
    with pytest.raises(ValueError):
        solve_lantern_classes(g2, ["c1", "c1", "c3", "c3"], [None, None, None])


def test_solver_opaque_raises(g3):
    with pytest.raises(UnknownClass):
        solve_lantern_classes(g3, ["c1", "c3", "c5", "x1"], ["f1", None, None])


@pytest.mark.parametrize("cls", [
    (1.5, 0, 0, -0.9),  # int() would truncate it to (1, 0, 0, 0)
    ("x", 0, 0, 0),
    (None, 0, 0, 0),
    ("3", 0, 0, 0),  # int() reads it, but it is a string, not an integer
    (float("nan"), 0, 0, 0),
    (float("inf"), 0, 0, 0),
    5,
])
def test_add_curve_refuses_non_integer_entries(cls):
    s = CurveSystem(2)
    with pytest.raises(InvalidDeclaration, match="^each entry of the class of 'c' must be an integer$"):
        s.add_curve("c", cls)
    assert s.curve_names == ()


def test_add_curve_refuses_a_class_of_the_wrong_length():
    s = CurveSystem(2)
    with pytest.raises(DimensionError, match="^class of 'x' has length 3, expected 4$"):
        s.add_curve("x", (1, 0, 0))
    assert s.curve_names == ()


def test_add_curve_keeps_integral_entries_as_ints():
    s = CurveSystem(2)
    s.add_curve("c", (2.0, 0, True, -0.0))
    assert s.class_of("c") == (2, 0, 1, 0)
    assert all(type(x) is int for x in s.class_of("c"))


@pytest.mark.parametrize("h", [1.9, "1", None, float("nan"), (1,)])
def test_add_septype_refuses_a_non_integer(h):
    s = CurveSystem(4)
    s.add_curve("d", (0,) * 8)
    with pytest.raises(InvalidDeclaration, match="^septype of 'd' must be an integer$"):
        s.add_septype("d", h)
    assert s.septype == {}
    s.add_septype("d", 2.0)
    assert s.septype == {"d": 2} and type(s.septype["d"]) is int


@pytest.mark.parametrize("exp", [1.5, -0.5, "x", "2", None, float("nan"), float("inf"), (1,)])
def test_letter_refuses_a_non_integer_exponent(g2, exp):
    with pytest.raises(InvalidDeclaration, match="^conjugator exponent must be an integer$"):
        g2.letter("c1", [("c2", exp)])
    # names are still checked first
    with pytest.raises(UnknownCurve):
        g2.letter("c1", [("c2", exp), ("nowhere", 1)])


def test_letter_reads_an_integral_exponent_as_an_int(g2):
    assert g2.letter("c1", [("c2", 2.0), ("c3", -1.0)]) == g2.letter("c1", [("c2", 2), ("c3", -1)])
    assert g2.letter("c1", [("c2", True)]) == g2.letter("c1", [("c2", 1)])
    with pytest.raises(InvalidDeclaration, match="^conjugator exponent must be nonzero$"):
        g2.letter("c1", [("c2", -0.0)])


def walk_cases(rng, count):
    """A genus-3 system with a zero class, two opaque curves and classes of
    every support size, and seeded letters over it and one undeclared name."""
    s = CurveSystem(3)
    names = []
    for k in range(7):
        for copy in range(2):
            cls = [0] * 6
            for i in rng.sample(range(6), k):
                cls[i] = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 2**70])
            names.append(f"s{k}_{copy}")
            s.add_curve(names[-1], cls)
    s.add_curve("zero", (0,) * 6)
    for name in ("x", "y"):
        s.add_curve(name, None)
    pool = names + ["zero"] * 2 + ["x", "y", "nowhere"]
    letters = []
    for _ in range(count):
        conj = []
        for _ in range(rng.randrange(0, 6)):
            twist = (rng.choice(pool), rng.choice([1, -1]))
            if conj and conj[-1] == (twist[0], -twist[1]):
                continue
            conj.append(twist)
        letters.append(Letter(tuple(conj), rng.choice(pool)))
    return s, letters


def test_class_walk_matches_flattened_oracle():
    rng = random.Random(33)
    seen = set()
    for _ in range(4):
        s, letters = walk_cases(rng, 150)
        for letter in letters:
            names = [name for name, _ in letter.conj]
            # the walk reads the base, then the conjugator right to left,
            # and ends at the first opaque or undeclared curve
            first = next((name for name in [letter.base] + names[::-1]
                          if name == "nowhere" or s.class_of(name) is None), None)
            if first == "nowhere":
                seen.add("undeclared")
                with pytest.raises(UnknownCurve, match="^curve 'nowhere' is not declared$"):
                    s.homology_class_of_letter(letter)
                continue
            u = s.homology_class_of_letter(letter)
            assert s.homology_class_of_letter(letter) is u  # the memo
            if first is not None:
                seen.add("opaque")
                assert u is None
                continue
            seen.add("zero" if "zero" in names or letter.base == "zero" else "class")
            for sign in (1, -1):
                flat = list(twist_classes(s, letter.flatten(sign)))
                assert twist_product(mat_identity(6), flat) == transvection(u, sign)
    assert seen == {"undeclared", "opaque", "zero", "class"}
