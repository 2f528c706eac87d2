"""Exact symplectic linear algebra over the integers.

Vectors are tuples of ints of length 2g in the basis a1,b1,...,ag,bg;
the symplectic form pairs <a_i, b_i> = +1.  Matrices are tuples of row
tuples.  A right-handed Dehn twist along a curve of class v acts on
homology as the transvection x -> x + <x,v> v; this sign convention is
pinned by the signature calibration in the meyer module.

Every product with transvections goes through ``_twist_rows``, which
applies each factor as a rank-1 update in place and never builds T_v.
A class's nonzero entries, its support (``_support``), are all that the
hot pairings read: ``_twist_rows`` for each row of its matrix,
``CurveSystem.homology_class_of_letter`` for each conjugator twist of
the class walk, and ``system.validate_system`` for each declared fact.
Products of transvections are symplectic by construction, so nothing
here checks it; ``meyer.meyer_tau`` checks its caller's matrices, and
the tests check the products.

Every integer elimination goes through ``_lattice_rows``, an echelon
basis of the lattice a set of vectors spans: H1 reads it directly,
Smith normal form alternates it on rows and columns (``_echelon_factors``,
which H1 enters with its own rows when they are not all of Z^2g), and
``meyer.integer_kernel`` reads a kernel basis from it.

Every rational span question goes through ``_extend_span``: whether a
class lies in the Meyer walk's span, the Meyer solve of (A - I)y = v
with the value of <y, v> (``meyer._transvection_tau``), and the lantern
solver's image of M - I.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd

from .errors import DimensionError, InvalidGroup, UnknownClass
from .records import Frozen
from .words import Letter, Word, _check_in_system

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def pairing(u: Sequence[int], v: Sequence[int]) -> int:
    """The symplectic form <u, v> = u^T J v."""
    if len(u) != len(v) or len(u) % 2:
        raise DimensionError(f"bad vector lengths {len(u)}, {len(v)}")
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


@lru_cache(maxsize=16)
def mat_identity(n: int) -> Mat:
    """The n x n identity, one shared tuple per size since Mat is immutable;
    at most 16 sizes are kept, so the memory held stays bounded."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, v: Sequence[int]) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_symplectic(m: Mat) -> bool:
    """M^T J M = J, that is J^-1 M^T J M = I: the signed transpose
    ``symplectic_inverse`` is a left inverse."""
    n = len(m)
    if n % 2 or any(len(row) != n for row in m):
        return False
    return mat_mul(symplectic_inverse(m), m) == mat_identity(n)


def symplectic_inverse(m: Mat) -> Mat:
    """M^-1 = J^-1 M^T J for symplectic M, as a signed transpose.

    J pairs index i with its partner i ^ 1, so entry (i, j) of -J M^T J
    is +-M[j ^ 1][i ^ 1], negative when i and j differ in parity.
    """
    n = len(m)
    return tuple(
        tuple(m[j ^ 1][i ^ 1] if (i ^ j) & 1 == 0 else -m[j ^ 1][i ^ 1] for j in range(n))
        for i in range(n)
    )


def twist_product(m: Mat, twists: Iterable[tuple[Sequence[int], int]]) -> Mat:
    """M T_{v1}^{s1} ... T_{vk}^{sk} for the factors (v, s) in order."""
    rows = [list(row) for row in m]
    _twist_rows(rows, twists)
    return tuple(tuple(row) for row in rows)


def _support(v: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """The nonzero entries of v as (i, v[i], i ^ 1, f), f = v[i] for odd i
    and -v[i] for even i: (Mv)_r = sum of M[r][i] v[i] over the (i, v[i])
    parts, and <x, v> = sum of f x[j] over the (j, f) parts."""
    return tuple((i, x, i ^ 1, x if i & 1 else -x) for i, x in enumerate(v) if x)


def _twist_rows(rows: list[list[int]], twists: Iterable[tuple[Sequence[int], int]]) -> None:
    """``twist_product`` in place on the row lists of M.  Each factor is the
    rank-1 update M T_v^s = M + s (Mv) <., v>: column i ^ 1 of M gains
    s <e_{i^1}, v> Mv, which is s v[i] Mv for odd i and -s v[i] Mv for
    even i, so no T_v is built.  Both the entry c of Mv and the update
    of a row read only the support of v (``_support``), so a factor
    costs O(n k) for k nonzero entries of v."""
    n = len(rows)
    for v, s in twists:
        if len(v) != n:
            raise DimensionError(f"vector of length {len(v)} against a {n}x{n} matrix")
        support = _support(v)
        if support:
            for row in rows:
                c = 0
                for i, x, _, _ in support:
                    c += row[i] * x
                if c:
                    c *= s
                    for _, _, j, f in support:
                        row[j] += c * f


def transvection(a: Sequence[int], sign: int = 1) -> Mat:
    """The matrix of T_a^sign; T_0 is the identity."""
    n = len(a)
    if n % 2:
        raise DimensionError(f"odd vector length {n}")
    return twist_product(mat_identity(n), ((a, sign),))


def letter_class(system, letter: Letter) -> Vec:
    """u with rho(letter^s) = T_u^s for either sign s: the class of the
    twisted curve, from the one-letter class table (``_known_classes``)."""
    return _known_classes(system, ((letter, 1),))[0][0]


def _class_table(system, pairs: Iterable[tuple[Letter, int]]) -> list[tuple[Vec, int] | None]:
    """(u, s) with rho(letter^s) = T_u^s per (letter, s) pair, or None when opaque.

    The one walk from a word to its classes, through the memo of
    ``CurveSystem.homology_class_of_letter``: a command builds its word's
    table once, for the signature, the relator checks, the census and H1.
    """
    class_of_letter = system.homology_class_of_letter
    return [None if (u := class_of_letter(letter)) is None else (u, sign) for letter, sign in pairs]


def _known_classes(system, pairs: Iterable[tuple[Letter, int]]) -> list[tuple[Vec, int]]:
    """The class table of pairs with no opaque letter.

    Otherwise UnknownClass names the first undeclared curve of the first
    opaque letter in conjugator-then-base order, which is also the first
    undeclared twist of ``letter.flatten(s)``: free reduction of the
    conjugator around the base twist cancels only base-named twists.
    """
    pairs = tuple(pairs)
    table = _class_table(system, pairs)
    if None in table:
        letter = pairs[table.index(None)][0]
        names = [name for name, _ in letter.conj] + [letter.base]
        opaque = next(name for name in names if system.class_of(name) is None)
        raise UnknownClass(f"curve {opaque!r} has no declared homology class")
    return table


def rho_letter(system, letter: Letter, sign: int = 1) -> Mat:
    """Image of a letter: rho([W]c) = rho(W) T_c rho(W)^-1 = T_u, u = rho(W)c."""
    return transvection(letter_class(system, letter), sign)


def rho_image(system, pairs: Iterable[tuple[Letter, int]]) -> Mat:
    """Product of the (letter, sign) pairs, e.g. a Word: one rank-1 update per letter.

    A Word must belong to ``system``; other pairs are read as given.
    """
    if isinstance(pairs, Word):
        _check_in_system(system, pairs)
    return twist_product(mat_identity(2 * system.genus), _known_classes(system, pairs))


def is_homological_relator(system, w: Word) -> bool:
    """True iff rho(w) = I.

    This is a necessary condition for w to be a relator of the mapping
    class group, not a sufficient one.
    """
    return rho_image(system, w) == mat_identity(2 * system.genus)


class AbelianGroup(Frozen):
    """A finitely generated abelian group: Z^rank + sum of Z/t_i."""

    __slots__ = __match_args__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0 or any(t < 2 for t in torsion):
            raise InvalidGroup("bad abelian group data")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise InvalidGroup("torsion coefficients must form a divisibility chain")
        self._set(rank, torsion)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The invariant factors of an integer matrix: d_1 | d_2 | ... | d_r.

    These are the nonzero entries of the Smith normal form D = U A V, as
    positive ints, r the rank of ``a``.  An echelon basis of the row
    lattice (``_lattice_rows``) and one of the column lattice of that
    basis replace ``a`` in turn, each by unimodular operations, until
    every row has one nonzero entry.  The alternation ends: from the
    second pass on the matrix is square and triangular, and a pass makes
    a_00 the gcd of the line through the old a_00, so |a_00| never grows.
    It stays the same only when a_00 divides that line, and then the
    pass leaves row 0 and column 0 clear for good, so the rest of the
    matrix follows the same argument.  One sweep then makes the diagonal
    a divisibility chain, since diag(x, y) ~ diag(gcd, lcm) (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4).  U and V are
    not kept.  Rows of different lengths raise DimensionError.
    """
    n = len(a[0]) if a else 0
    for i, row in enumerate(a):
        if len(row) != n:
            raise DimensionError(f"row {i} has {len(row)} entries, expected {n}")
    return _echelon_factors(_lattice_rows(n, map(tuple, a)))


def _echelon_factors(d: list[list[int]]) -> tuple[int, ...]:
    """The invariant factors of a row lattice given by its echelon basis
    ``d`` from ``_lattice_rows``: the column and row alternation of
    ``smith_normal_form`` from its first column pass on, then the
    divisibility sweep."""
    while any(len(row) - row.count(0) > 1 for row in d):
        d = _lattice_rows(len(d), zip(*d))
    factors = [abs(x) for row in d for x in row if x]
    t = len(factors)
    for i in range(t):
        for j in range(i + 1, t):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return tuple(factors)


def cokernel(a: Sequence[Sequence[int]], ambient_rank: int) -> AbelianGroup:
    """Z^ambient_rank modulo the column span of ``a``."""
    return _cokernel_of(smith_normal_form(a), ambient_rank)


def _cokernel_of(factors: tuple[int, ...], ambient_rank: int) -> AbelianGroup:
    """Z^ambient_rank modulo a lattice with these invariant factors."""
    return AbelianGroup(
        rank=ambient_rank - len(factors),
        torsion=tuple(x for x in factors if x > 1),
    )


def h1_total_space(system, w: Word) -> AbelianGroup:
    """H1 of the Lefschetz fibration total space for a positive relator."""
    _check_in_system(system, w)
    return _h1_of_classes(system.genus, _known_classes(system, w.letters))


def _h1_of_classes(g: int, table: Sequence[tuple[Vec, int]]) -> AbelianGroup:
    """Z^2g modulo the vanishing cycles' classes, from their class table.

    The classes go in order into an echelon basis of their lattice
    (``_lattice_rows``).  Once it holds 2g rows with pivots +-1 it spans
    Z^2g, so H1 = 0, the usual case for a relator, and no further class
    is read.  Otherwise Smith normal form's alternation
    (``_echelon_factors``) starts from its at most 2g rows, which span
    the same lattice as the classes, so the cokernel is the same; they
    are an echelon basis already, so no second row pass is made.
    """
    n = 2 * g
    rows = _lattice_rows(n, (u for u, _ in table))
    if len(rows) == n and all(abs(row[p]) == 1 for p, row in enumerate(rows)):
        return AbelianGroup(0)
    return _cokernel_of(_echelon_factors(rows), n)


def _lattice_rows(n: int, classes: Iterable[Vec]) -> list[list[int]]:
    """An integer echelon basis of the lattice the classes span, in pivot order.

    Each row is zero before its pivot column and no two rows share one.
    A class is cleared against the rows in pivot order: a pivot that
    divides its entry there is subtracted; one that does not is replaced,
    by the extended gcd, with a unimodular combination of its row and
    the class whose pivot is their gcd (Cohen, GTM 138, 2.4), so the rows
    always span the classes read so far.  A row so replaced is then
    reduced modulo the later pivots, so that its entry in each later
    pivot's column is smaller than that pivot and entries stay small
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).  A class left nonzero
    becomes the row of its first nonzero column.  Reading stops at n rows
    with pivots +-1, which span Z^n.  A repeated class is skipped.
    """
    rows: list[list[int] | None] = [None] * n
    units = 0
    seen = set()
    for u in classes:
        if u in seen:
            continue
        seen.add(u)
        for p in range(n):
            f = u[p]
            if not f:
                continue
            row = rows[p]
            if row is None:
                rows[p] = list(u)
                units += abs(f) == 1
                break
            b = row[p]
            if f % b:
                d, x, y = _xgcd(b, f)
                s, t = b // d, f // d
                rows[p] = new = [x * r + y * c for r, c in zip(row, u)]
                u = [s * c - t * r for r, c in zip(row, u)]
                units += abs(d) == 1
                for i, later in enumerate(rows[p + 1 :], p + 1):
                    if later and (k := new[i] // later[i]):
                        for j in range(i, n):
                            new[j] -= k * later[j]
            else:
                q = f // b
                u = [c - q * r for r, c in zip(row, u)]
        if units == n:
            break
    return [row for row in rows if row is not None]


def _extend_span(basis: list[tuple[int, Sequence[int]]], u: Sequence[int]) -> bool:
    """Add u to the echelon rows of a span, or return False if it lies in it.

    Each row (p, b) has b[p] != 0 and is zero at every earlier row's
    pivot, so clearing u at the pivots in order leaves 0 exactly when u
    is in the span.  Rows stay fraction-free, divided by their content.
    A row of content 1 is appended as it is, so it may be the caller's
    own vector u; no row is ever changed.
    """
    for p, row in basis:
        f = u[p]
        if f:
            b = row[p]
            u = [b * x - f * y for x, y in zip(u, row)]
    for p, x in enumerate(u):
        if x:
            g = gcd(*u)
            basis.append((p, u if g == 1 else [y // g for y in u]))
            return True
    return False
