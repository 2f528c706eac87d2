"""Curve systems: the declared surface data everything else runs on.

A CurveSystem records the genus, named curves with integer homology
classes (a curve may be declared opaque, with unknown class), declared
geometric facts (disjoint pairs, one-point intersection pairs), declared
relations, and named fixture words.  Homology classes live in the basis
a1,b1,...,ag,bg.

The system is assembled through the ``add_*`` methods at load time and
treated as immutable afterward; queries are pure.  The lantern solver
reads the image of M - I, and whether M is one transvection, from
``_image_basis``, a basis from ``symplectic._extend_span``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from math import isqrt

from . import symplectic as sp
from .errors import (
    ConjugatorTooLong,
    DimensionError,
    InvalidDeclaration,
    InvalidRelation,
    InvalidSearch,
    MalformedRelation,
    UnknownClass,
    UnknownCurve,
)
from .records import Frozen
from .words import MAX_WORD_LETTERS, Letter, Word, normalize_conjugator

Vec = tuple[int, ...]

# Most lattice points a two-unknown lantern search may walk.  It walks
# at most (2b+1)^2 of them at any genus (see ``_complete``), so a bound
# b is refused, before the search starts, when (2b+1)^2 is larger:
# 10^4 admits b <= 49.  The largest admitted walk, at b = 49, took
# 0.5 s at genus 3 and 0.8 s at genus 6 (Python 3.11, one 2-core Xeon).
LANTERN_WALK_LIMIT = 10_000


def _ints(what: str, values: Iterable) -> tuple[int, ...]:
    """The values as ints; InvalidDeclaration unless int(x) equals x for each."""
    try:
        if (ints := tuple(map(int, values := tuple(values)))) == values:
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidDeclaration(f"{what} must be an integer")


class RelationDecl(Frozen):
    """A declared relation with its two substitutable sides.

    kind is a key of RELATION_KINDS.  The sides are
    letter tuples; either side may contain conjugated letters.  status
    is "verified" once the homological identity has been checked, or
    "assumed" when opaque curves make the check impossible.
    """

    __slots__ = __match_args__ = ("name", "kind", "left", "right", "status")

    def __init__(self, name: str, kind: str, left: tuple[Letter, ...],
                 right: tuple[Letter, ...], status: str = "unchecked"):
        self._set(name, kind, left, right, status)

    def with_status(self, status: str) -> "RelationDecl":
        return RelationDecl(self.name, self.kind, self.left, self.right, status)


class CurveSystem:
    """Registry of curves, declared facts, relations, and fixture words."""

    def __init__(self, genus: int):
        if genus < 2:
            raise InvalidDeclaration("genus must be at least 2")
        self.genus = genus
        self._curves: dict[str, Vec | None] = {}
        # each curve's support (``symplectic._support``), None when opaque:
        # the class walk and validate_system pair with it
        self._supports: dict[str, tuple[tuple[int, int, int, int], ...] | None] = {}
        self._decl_index: dict[str, int] = {}
        # the names declared disjoint from, and meeting once, each curve
        # (both symmetric); the normal form in words.normalize_conjugator
        # reads these sets
        self._disjoint_of: dict[str, set[str]] = {}
        self._meet1_of: dict[str, set[str]] = {}
        # classes by letter, which no later declaration changes; the memo
        # lives and dies with this system
        self._classes: dict[Letter, Vec | None] = {}
        self.septype: dict[str, int] = {}
        self.relations: dict[str, RelationDecl] = {}
        self.words: dict[str, Word] = {}
        self.assumptions: list[str] = []

    # -- construction -------------------------------------------------

    def add_curve(self, name: str, cls: Sequence[int] | None) -> None:
        if name in self._curves:
            raise InvalidDeclaration(f"curve {name!r} already declared")
        if cls is not None:
            cls = _ints(f"each entry of the class of {name!r}", cls)
            if len(cls) != 2 * self.genus:
                raise DimensionError(
                    f"class of {name!r} has length {len(cls)}, expected {2 * self.genus}"
                )
        else:
            self.assumptions.append(f"curve {name}: homology class undeclared (opaque)")
        self._decl_index[name] = len(self._curves)
        self._curves[name] = cls
        self._supports[name] = None if cls is None else sp._support(cls)

    def add_disjoint(self, a: str, b: str) -> None:
        self._add_pair("disjoint", self._disjoint_of, a, b)

    def add_meet1(self, a: str, b: str) -> None:
        self._add_pair("meet1", self._meet1_of, a, b)

    def _add_pair(self, kind: str, facts: dict[str, set[str]], a: str, b: str) -> None:
        self._require(a)
        self._require(b)
        if a == b:
            raise InvalidDeclaration(f"{kind} pair must name two distinct curves, got {a!r}")
        facts.setdefault(a, set()).add(b)
        facts.setdefault(b, set()).add(a)

    def add_septype(self, name: str, h: int) -> None:
        self._require(name)
        if name in self.septype:
            raise InvalidDeclaration(f"septype {name!r} already declared")
        self.septype[name], = _ints(f"septype of {name!r}", (h,))

    def add_relation(self, decl: RelationDecl) -> None:
        if decl.name in self.relations:
            raise InvalidDeclaration(f"relation {decl.name!r} already declared")
        try:
            ok = validate_relation_decl(self, decl)
        except UnknownClass:
            self.assumptions.append(
                f"relation {decl.name}: not homologically checkable (opaque curves)"
            )
            self.relations[decl.name] = decl.with_status("assumed")
            return
        if not ok:
            raise InvalidRelation(f"relation {decl.name} fails its homological identity")
        self.relations[decl.name] = decl.with_status("verified")

    def add_word(self, name: str, word: Word) -> None:
        if name in self.words:
            raise InvalidDeclaration(f"word {name!r} already declared")
        self.words[name] = word

    # -- fact queries ---------------------------------------------------

    def _require(self, name: str) -> None:
        if name not in self._curves:
            raise UnknownCurve(f"curve {name!r} is not declared")

    def _require_letter(self, base: str, conj: Sequence[tuple[str, int]]) -> None:
        """Refuse a letter with an undeclared curve, in one membership pass;
        each distinct name is then walked once, base first, so the first
        undeclared curve is named."""
        curves = self._curves
        if base not in curves or conj and not all(name in curves for name, _ in conj):
            for name in dict.fromkeys([base, *(name for name, _ in conj)]):
                self._require(name)

    @property
    def curve_names(self) -> tuple[str, ...]:
        return tuple(self._curves)

    def class_of(self, name: str) -> Vec | None:
        self._require(name)
        return self._curves[name]

    def is_disjoint(self, a: str, b: str) -> bool:
        return b in self._disjoint_of.get(a, ())

    def is_meet1(self, a: str, b: str) -> bool:
        return b in self._meet1_of.get(a, ())

    def decl_index(self, name: str) -> int:
        try:
            return self._decl_index[name]
        except KeyError:
            raise UnknownCurve(f"curve {name!r} is not declared") from None

    # -- value factories ------------------------------------------------

    def letter(self, base: str, conj: Iterable[tuple[str, int]] = ()) -> Letter:
        """A normalized letter; conjugator entries may carry exponents.

        An exponent x is read as int(x) when that equals x (so 2.0 is 2),
        and refused with InvalidDeclaration otherwise, as ``_ints`` does.

        Each call normalizes anew: the parser keeps the one memo, per atom
        text, and reads every atom after the last disjoint or meet1 fact.
        """
        conj = tuple(conj)
        if not conj:
            return self._twisted(base, conj)
        self._require_letter(base, conj)
        pairs: list[tuple[str, int]] = []
        for name, exp in conj:
            exp, = _ints("conjugator exponent", (exp,))
            if exp == 0:
                raise InvalidDeclaration("conjugator exponent must be nonzero")
            n = len(pairs) + abs(exp)
            if n > MAX_WORD_LETTERS:
                raise ConjugatorTooLong(
                    f"conjugator of {n} twists expands past {MAX_WORD_LETTERS} twists")
            pairs += [(name, 1 if exp > 0 else -1)] * abs(exp)
        return self._twisted(base, pairs)

    def _twisted(self, base: str, twists: Sequence[tuple[str, int]], declared: bool = True) -> Letter:
        """The normalized letter over ``base`` whose conjugator is ``twists``,
        each (name, +-1) with its exponent already expanded.

        ``declared`` says that every twist's name is declared; only when
        it is false, or the base is not declared, are the names walked,
        base first, so that UnknownCurve names the first undeclared curve.
        ``twists`` is read and not changed, so a caller may hand one list
        over for several bases.
        """
        if not declared or base not in self._curves:
            self._require_letter(base, twists)
        if not twists:
            # a plain letter is its own normal form
            return Letter((), base)
        return Letter(*normalize_conjugator(self, twists, base))

    def word(self, letters: Iterable) -> Word:
        """A word from letters, (letter, sign) pairs, or curve names.

        Each distinct name's letter is built once per call: a script's
        ``conj`` step hands over one (name, +-1) twist per letter.
        """
        out = []
        named: dict[str, Letter] = {}
        for item in letters:
            if isinstance(item, Letter):
                out.append((item, 1))
                continue
            letter, sign = (item, 1) if isinstance(item, str) else item
            if isinstance(letter, str):
                letter = named.get(letter) or named.setdefault(letter, self.letter(letter))
            out.append((letter, sign))
        return Word(self, out)

    def empty_word(self) -> Word:
        return Word(self, ())

    # -- homology -------------------------------------------------------

    def homology_class_of_letter(self, letter: Letter) -> Vec | None:
        """Class of the twisted curve; None when opaque curves block it.

        The one walk from a letter's conjugator to its class, memoized
        per system, so each distinct letter walks once.  Each twist reads
        its curve's support, stored at declaration, for both the pairing
        and the update.  A word's classes are read from here once per
        position, into the one class table (``symplectic._class_table``)
        that every invariant reads.
        """
        try:
            return self._classes[letter]
        except KeyError:
            pass
        supports = self._supports
        try:
            v = self._curves[letter.base]
            if v is not None:
                v = list(v)
                for name, sign in reversed(letter.conj):
                    support = supports[name]
                    if support is None:
                        v = None
                        break
                    # T_a^sign(v) = v + sign <v, a> a, in place
                    c = 0
                    for _, _, j, f in support:
                        c += f * v[j]
                    if c:
                        c *= sign
                        for i, x, _, _ in support:
                            v[i] += c * x
                else:
                    v = tuple(v)
        except KeyError as exc:
            raise UnknownCurve(f"curve {exc.args[0]!r} is not declared") from None
        self._classes[letter] = v
        return v


class RelationKind(Frozen):
    """What one relation kind declares.

    ``before`` and ``after`` count the atoms a declaration lists before
    and after ``=>``; ``left`` and ``right`` spell each side as positions
    in those atoms; ``meet`` is |<a, b>| required of atoms 0 and 1, which
    open every left side (a one-point pair for braid and chain2, a
    disjoint one for commute; a lantern needs none).
    """

    __slots__ = __match_args__ = ("before", "after", "left", "right", "meet")

    def __init__(self, before: int, after: int, left: tuple[int, ...],
                 right: tuple[int, ...], meet: int | None):
        self._set(before, after, left, right, meet)


RELATION_KINDS = {
    "lantern": RelationKind(4, 3, (0, 1, 2, 3), (4, 5, 6), None),
    "braid": RelationKind(2, 0, (0, 1, 0), (1, 0, 1), 1),
    "commute": RelationKind(2, 0, (0, 1), (1, 0), 0),
    "chain2": RelationKind(2, 1, (0, 1) * 6, (2,), 1),
}


def make_relation(kind: str, name: str, *atoms: Letter) -> RelationDecl:
    """The relation of ``kind`` on its declared atoms, in file order."""
    shape = RELATION_KINDS.get(kind)
    if shape is None or len(atoms) != shape.before + shape.after:
        raise MalformedRelation(f"{kind!r} relation {name} cannot take {len(atoms)} atoms")
    return RelationDecl(
        name, kind, tuple(atoms[i] for i in shape.left), tuple(atoms[i] for i in shape.right)
    )


def validate_relation_decl(system: CurveSystem, decl: RelationDecl) -> bool:
    """Check the relation's homological identity in Sp(2g, Z).

    Raises UnknownClass when opaque curves make the check impossible and
    MalformedRelation on arity errors.
    """
    shape = RELATION_KINDS.get(decl.kind)
    if shape is None:
        raise MalformedRelation(f"unknown relation kind {decl.kind!r}")
    nl, nr = len(shape.left), len(shape.right)
    if len(decl.left) != nl or len(decl.right) != nr:
        raise MalformedRelation(
            f"{decl.kind} relation {decl.name} has arity "
            f"({len(decl.left)}, {len(decl.right)}), expected ({nl}, {nr})"
        )
    if shape.meet is not None:
        a, b = (sp.letter_class(system, l) for l in decl.left[:2])
        if abs(sp.pairing(a, b)) != shape.meet:
            return False
    # chain2 compares (T_a T_b)^6, which is I when |<a, b>| = 1, with T_c,
    # so it holds exactly when c is null-homologous
    left, right = ([(l, 1) for l in side] for side in (decl.left, decl.right))
    return sp.rho_image(system, left) == sp.rho_image(system, right)


def validate_system(system: CurveSystem) -> list[str]:
    """All type-invariant violations, as human-readable strings.

    Facts involving opaque curves are not violations; they are recorded
    in ``system.assumptions`` at load time.
    """
    g = system.genus
    # each declared pair once, as (kind, a, b) with a < b, the disjoint
    # pairs first, and the |<a, b>| each kind requires
    pairs = [(kind, a, b) for kind, facts in (("disjoint", system._disjoint_of),
                                              ("meet1", system._meet1_of))
             for a in sorted(facts) for b in sorted(facts[a]) if a < b]
    required = {"disjoint": (0, "0"), "meet1": (1, "+-1")}
    violations = [f"pair ({a}, {b}): declared both disjoint and meet1"
                  for kind, a, b in pairs if kind == "disjoint" and system.is_meet1(a, b)]
    for kind, a, b in pairs:
        # <ca, cb> over the support of cb
        ca, support = system._curves[a], system._supports[b]
        if ca is None or support is None:
            continue
        p = 0
        for _, _, j, f in support:
            p += f * ca[j]
        meet, spelled = required[kind]
        if abs(p) != meet:
            violations.append(f"{kind} ({a}, {b}): symplectic pairing is {p}, not {spelled}")
    for name, h in system.septype.items():
        cls = system.class_of(name)
        if cls is not None and any(cls):
            violations.append(f"septype {name}: curve is not null-homologous")
        if not (1 <= h <= g // 2):
            violations.append(f"septype {name}: type {h} outside 1..{g // 2}")
    return violations


def _image_basis(m: sp.Mat, rank: int) -> list[tuple[int, list[int]]] | None:
    """Echelon rows (p, b) of the Q-span of the columns of m - I, from
    ``symplectic._extend_span``, or None once its rank passes ``rank``."""
    n = len(m)
    basis: list[tuple[int, list[int]]] = []
    for j in range(n):
        if sp._extend_span(basis, [m[i][j] - (i == j) for i in range(n)]) and len(basis) > rank:
            return None
    return basis


def _recognize_transvection(m: sp.Mat, bound: int) -> list[Vec]:
    """All vectors v with |entries| <= bound and T_v = m."""
    basis = _image_basis(m, 1)
    if basis is None:
        return []
    if not basis:
        return [tuple([0] * len(m))]
    (p, u), = basis
    # T_v - I maps x to <x,v> v, so v = lambda u for the primitive row u of
    # its image, and entry p of column p ^ 1 is lambda^2 <e_(p^1), u> u[p],
    # where <e_(p^1), u> is u[p] for odd p and -u[p] for even p
    lam2, r = divmod(m[p][p ^ 1], u[p] * u[p] if p & 1 else -u[p] * u[p])
    lam = isqrt(lam2) if lam2 > 0 else 0
    if r or not lam or lam * lam != lam2:
        return []
    return [v for v in (tuple(lam * x for x in u), tuple(-lam * x for x in u))
            if all(abs(x) <= bound for x in v) and sp.transvection(v) == m]


def _image_points(m: sp.Mat, bound: int) -> list[Vec]:
    """Integer vectors with |entries| <= bound in the Q-span of m - I.

    Returns [] when the span has rank above 2.  A span of rank r <= 2 is
    fixed by the values s_k of its r echelon rows (p_k, b_k) at their
    pivots, so the walk is over their (2b+1)^r values.  Row k is zero at
    every earlier pivot, so x is found by forward substitution: with x
    kept as d x for d the product of the pivots b_j[p_j] so far, adding
    row k sets d x to b_k[p_k] d x + (d s_k - d x[p_k]) b_k.  A point is
    kept when d divides each entry and the quotient lies in the box.
    """
    basis = _image_basis(m, 2)
    if basis is None:
        return []
    span = range(-bound, bound + 1)
    walk = [([0] * len(m), 1)]
    for p, row in basis:
        b = row[p]
        walk = [([b * y + c * z for y, z in zip(x, row)], b * d)
                for x, d in walk for c in (d * s - x[p] for s in span)]
    return [tuple(y // d for y in x) for x, d in walk
            if all(y % d == 0 and abs(y) <= bound * abs(d) for y in x)]


def _complete(
    d: list[tuple[Vec, int]], filled: tuple[Vec | None, ...], bound: int
) -> Iterator[tuple[Vec, Vec, Vec]]:
    """Every completion of ``filled`` to T(r0) T(r1) T(r2) = D.

    D = T(d0)...T(d3) is given by its factors ``d``; ``filled`` holds the
    three classes r0, r1, r2, None for each unknown, and unknowns range
    over [-bound, bound].  With no unknown the two products are
    compared.  Otherwise stripping the known factors around the first
    unknown r_p gives M = pre^-1 D post^-1, for the product pre of the
    factors before r_p and post of the known ones after it:

    - one unknown: M = T(r_p), recognized directly;
    - two unknowns, the known class k last: M = D T_k^-1 = T(r0) T(r1);
    - k first: M = T_k^-1 D = T(r1) T(r2);
    - k in the middle: M = D T_k^-1 = T(r0) T_k T(r2) T_k^-1 = T(r0) T(T_k r2),
      since T_k T_w T_k^-1 = T_{T_k w}.

    So with two unknowns M = T(r_p) T_w for some w, and M - I maps x to
    <x, w> w + <x, r_p + <w, r_p> w> r_p, whose image lies in
    span(r_p, w) and contains r_p: it is that plane when r_p and w are
    independent, and otherwise the line through them (0 when both vanish).
    Hence rank(M - I) <= 2 (no solution when it is larger) and r_p
    ranges over the integer points of the image of M - I in the box,
    at most (2b+1)^rank of them.  Each point fills r_p, and the
    remaining unknown is decided by the exact one-unknown check, so this
    only narrows the candidates, never the answers.
    """
    identity = sp.mat_identity(len(d[0][0]))
    if None not in filled:
        if sp.twist_product(identity, d) == sp.twist_product(identity, [(v, 1) for v in filled]):
            yield filled
        return
    p = filled.index(None)
    pre_inv = [(v, -1) for v in reversed(filled[:p])]
    post_inv = [(v, -1) for v in reversed(filled[p + 1:]) if v is not None]
    m = sp.twist_product(identity, pre_inv + d + post_inv)
    if filled.count(None) == 1:
        for v in _recognize_transvection(m, bound):
            yield filled[:p] + (v,) + filled[p + 1:]
    else:
        for v in _image_points(m, bound):
            yield from _complete(d, filled[:p] + (v,) + filled[p + 1:], bound)


def solve_lantern_classes(
    system: CurveSystem,
    d_names: Sequence[str],
    right: Sequence[str | None],
    bound: int = 2,
) -> list[tuple[Vec | None, Vec | None, Vec | None]]:
    """Candidate class assignments making the lantern identity hold.

    ``right`` has three entries: a curve name where the class is known,
    or None for an unknown.  Unknown classes are searched over integer
    vectors with coefficients in [-bound, bound] (see ``_complete``).
    Returns the full list of assignments (known positions filled in), in
    deterministic order.  Raises InvalidSearch for a bound below 1, for
    three unknowns, and for two unknowns whose walk of (2b+1)^2 lattice
    points exceeds ``LANTERN_WALK_LIMIT``, whatever the genus.  One
    unknown walks nothing, so its bound is not limited.
    """
    if len(d_names) != 4 or len(right) != 3:
        raise MalformedRelation("lantern needs 4 left names and 3 right entries")
    if bound < 1:
        raise InvalidSearch(f"bound must be at least 1, got {bound}")

    def known_class(name):
        cls = system.class_of(name)
        if cls is None:
            raise UnknownClass(f"curve {name!r} has no declared class")
        return cls

    d = [(known_class(name), 1) for name in d_names]
    filled = tuple(None if entry is None else known_class(entry) for entry in right)
    if filled.count(None) > 2:
        raise InvalidSearch("at least one right-side class must be known")
    if filled.count(None) == 2:
        walk = (2 * bound + 1) ** 2
        if walk > LANTERN_WALK_LIMIT:
            raise InvalidSearch(
                f"two unknown classes at bound {bound} walk up to {walk} lattice points, "
                f"more than the limit of {LANTERN_WALK_LIMIT}"
            )
    return sorted(set(_complete(d, filled, bound)))
