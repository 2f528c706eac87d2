"""Signature of a Lefschetz fibration via the Meyer cocycle.

For symplectic A, B the cocycle value tau(A, B) is the signature of a
bilinear form on V = {(x, y) : (A^-1 - I)x + (B - I)y = 0}, with
q((x1,y1),(x2,y2)) = <x1 + y1, (I - B) y2>, symmetrized.  Summing tau
over the partial products of a positive relator and correcting by -1
per separating (null-homologous) vanishing cycle gives the signature of
the fibration over S^2.

The signature path never needs the general cocycle, because every
letter [W]c^s of a word acts on homology as one transvection T_u^s with
u = rho(W)c.  Against B = T_v^s the form has rank <= 2: (B - I)y =
s<y,v>v, so with phi(x,y) = <y,v> and psi(x,y) = <x+y,v> on z = (x,y),
q(z, z') = -s psi(z) phi(z'), the symmetrized form is
-s(psi(z) phi(z') + phi(z) psi(z')), and V is cut out by
(A^-1 - I)x = -s<y,v>v.

* If v = 0, or v is not in im(A - I) (equivalently v is not in
  im(A^-1 - I) = A^-1 im(A - I), as A v = v + (A - I)v), then
  <y,v> = 0 on V, so phi = 0 there and tau = 0.
* Otherwise pick any rational y0 with (A - I)y0 = v, so x0 = y0 + v
  solves (A - I)x0 = A v.  V is the set of (s t x0 + k, y) with
  t = <y,v> and k in ker(A - I), and <k, v> = 0: im(A - I) =
  ker(A - I)^perp holds v, as A preserves the form and fixes
  ker(A - I).  So on V psi = (1 + s<x0,v>) phi with phi != 0, and the
  form is -2s(1 + s<x0,v>) phi^2: tau(A, T_v^s) = -sign(s + <y0, v>),
  since <x0, v> = <y0, v> + <v, v>, whatever y0 is chosen.

So tau(A, T_v^s) is one of -1, 0, 1 and costs at most one exact linear
solve (``_transvection_tau``, through the rational span routine
``symplectic._extend_span``) instead of a kernel and a symmetric
signature.  The general ``meyer_tau`` keeps the definition and is the
oracle the tests hold the fast path to.

The sum is additive over relator blocks: once the partial product is
back at I or at -I, the sum goes on as if the word started there, as
the cocycle identity telescopes and tau vanishes on {I, -I}^2.
``local_signature`` therefore reads a run of identical blocks, such as
a fiber sum w^k or the two halves of a hyperelliptic relator, once and
adds its value for each repeat.

Most letters need no solve at all.  In a walk from I with prefix
P_k = T_{u_1}^{s_1} ... T_{u_k}^{s_k}, im(P_k - I) lies in
U_k = span(u_1 .. u_k), by induction on
P_k - I = (P_{k-1} - I) T_k + (T_k - I), as T_k maps U_k into itself.
So a class u_{k+1} outside U_k is not in im(P_k - I), and tau is 0 by
the first case above.  The walk keeps a fraction-free echelon basis of
U_k, at O(2g r) per step for rank r, and solves only for a class
inside it; once r = 2g every class is inside, and the basis goes.  The
basis is the package's one rational span routine, ``symplectic._extend_span``.

To keep that skip going, a block between central points is read as two
walks from I: the second starts after the step where the first walk's
span reaches rank 2g (if the block has not closed there), and A is the
first walk's product.  The block closes when the second walk's prefix
is +-A^-1, and by the cocycle identity its value is the two walks' sums
plus tau(A, +-A^-1):

* tau(A, A^-1) = 0.  V is cut out by (A^-1 - I)(x + y) = 0, so
  k = x + y lies in ker(A - I) and q = -<k, (A^-1 - I)y'>, which is 0
  since <k, A^-1 y'> = <A k, y'> = <k, y'>.
* tau(A, -A^-1) is the signature of <p, (A^-1 - A)p'> on Q^2g.  V is
  cut out by A^-1(x - y) = x + y, so it is parametrized by p = x + y,
  with x - y = A p, and q = <p, (I + A^-1)(I - A)p'> / 2
  = <p, (A^-1 - A)p'> / 2, already symmetric; ``signature_of_symmetric``
  reads it.

Steps after the last central point form no block, and tau(Z, P) need
not vanish there: a walk from I gives their true sum only when their
prefix is I and the walk did not split.  Otherwise they are read again
as one walk from the true prefix, with the span skip only from I.

Everything here is exact integer arithmetic: kernels come from the
integer echelon basis of ``symplectic._lattice_rows``, the solve and the
span skip from the content-divided echelon rows of
``symplectic._extend_span`` and the signature from a congruence
recursion, so no floating point ever enters.  The sign conventions
(transvection sign, left-to-right partial products, overall sign of the
sum) are pinned by the calibration sigma = -12 for the 20-letter
genus-2 relator; tests assert this.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache

from . import symplectic as sp
from .errors import DimensionError, InvalidCensus, NotARelator, NotPositive, NotSymplectic
from .symplectic import _extend_span
from .words import Word, _check_in_system, is_positive

Mat = sp.Mat


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """An integer basis of the kernel of the matrix, from an echelon basis.

    The vectors (A e_j, e_j) span the lattice {(A x, x)}, and the rows of
    its echelon basis (``symplectic._lattice_rows``) that vanish on the
    A part are a basis of {(0, x) : A x = 0}: a lattice vector with zero
    A part combines no row pivoted there.  A row whose length is not
    ``ncols`` raises DimensionError.
    """
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise DimensionError(f"row {i} has {len(row)} entries, expected {ncols}")
    k = len(rows)
    columns = (tuple(row[j] for row in rows) + e for j, e in enumerate(sp.mat_identity(ncols)))
    basis = sp._lattice_rows(k + ncols, columns)
    return [tuple(row[k:]) for row in basis if not any(row[:k])]


def signature_of_symmetric(s: Sequence[Sequence[int]]) -> int:
    """Signature of an exact symmetric integer matrix.

    Symmetry is a precondition, not checked; a ragged or non-square
    matrix raises DimensionError.  Congruence recursion with Bareiss's
    exact division (E. H. Bareiss, Math. Comp. 22, 1968): pick a nonzero
    pivot p (swapping in a nonzero diagonal entry, or creating one by a
    symmetric row/column addition if the whole diagonal vanishes), and
    replace the rest of the block by (p a_ij - a_ik a_kj) / prev for the
    previous pivot prev, 1 at the start.  The division is exact, and the
    block stays prev times the Schur complement of the matrix reached by
    these congruences, so the true pivot p / prev has the sign of
    p * prev.  Swaps and the pair addition are congruences, so the block
    stays symmetric: each step computes one entry per unordered pair and
    mirrors it.  The argument is not changed.
    """
    n = len(s)
    for i, row in enumerate(s):
        if len(row) != n:
            raise DimensionError(f"row {i} has {len(row)} entries, expected {n}")
    a = [list(row) for row in s]
    sig = 0
    prev = 1
    while a:
        if a[0][0] == 0:
            swap = next((i for i in range(1, len(a)) if a[i][i]), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                pair = next(
                    ((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j]),
                    None,
                )
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                if i:
                    a[0], a[i] = a[i], a[0]
                    for row in a:
                        row[0], row[i] = row[i], row[0]
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        top = a[0]
        p = top[0]
        sig += 1 if (p > 0) == (prev > 0) else -1
        m = len(a) - 1
        block = [[0] * m for _ in range(m)]
        for i, row in enumerate(a[1:]):
            c = row[0]
            new = block[i]
            for j in range(i, m):
                new[j] = block[j][i] = (p * row[j + 1] - c * top[j + 1]) // prev
        a = block
        prev = p
    return sig


def meyer_tau(a: Mat, b: Mat) -> int:
    """The Meyer cocycle on Sp(2g, Z); |tau| <= 2g."""
    if len(b) != len(a):
        raise NotSymplectic("matrices have different sizes")
    if not sp.is_symplectic(a) or not sp.is_symplectic(b):
        raise NotSymplectic("meyer_tau needs symplectic matrices")
    n = len(a)
    ainv = sp.symplectic_inverse(a)
    rows = [
        [ainv[i][j] - (1 if i == j else 0) for j in range(n)]
        + [b[i][j] - (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    basis = integer_kernel(rows, 2 * n)
    dim = len(basis)
    if dim == 0:
        return 0
    # (I - B) y for the y-part of each basis vector
    imb = [[(1 if i == j else 0) - b[i][j] for j in range(n)] for i in range(n)]
    images = []
    sums = []
    for vec in basis:
        x, y = vec[:n], vec[n:]
        images.append(sp.mat_vec(tuple(tuple(r) for r in imb), y))
        sums.append(tuple(xi + yi for xi, yi in zip(x, y)))
    q = [
        [sp.pairing(sums[i], images[j]) for j in range(dim)]
        for i in range(dim)
    ]
    sym = [[q[i][j] + q[j][i] for j in range(dim)] for i in range(dim)]
    return signature_of_symmetric(sym)


def _transvection_tau(a: Sequence[Sequence[int]], v: Sequence[int], s: int) -> int:
    """tau(A, T_v^s) for symplectic A and s = +-1, as derived above.

    Two uses of ``_extend_span`` on rows of length n + 2.  The rows
    (A - I | v | 0) go in first: (A - I)y = v has no solution exactly
    when one of them pivots on column n, and then tau is 0.  Otherwise
    the row (w | 0 | 1) for the functional w = <., v> goes in.  w lies
    in the row space of A - I (it vanishes on ker(A - I)), so the row
    reduces to (0 | c | d) with d w = z^T (A - I) for some z; d != 0,
    as each step multiplies it by a pivot.  Then c = -z^T v = -d <y, v>,
    so s + <y, v> = (s d - c) / d.
    """
    if not any(v):
        return 0
    n = len(a)
    basis = []
    for i, arow in enumerate(a):
        row = [*arow, v[i], 0]
        row[i] -= 1
        if _extend_span(basis, row) and basis[-1][0] == n:
            return 0
    # <e_j, v> is v[j+1] for even j, -v[j-1] for odd j
    _extend_span(basis, [v[j + 1] if j % 2 == 0 else -v[j - 1] for j in range(n)] + [0, 1])
    *_, c, d = basis[-1][1]
    num = s * d - c
    if num == 0:
        return 0
    return -1 if (num > 0) == (d > 0) else 1


def local_signature(system, steps: Sequence[tuple[Sequence[int], int]]) -> tuple[int, Mat]:
    """sigma_loc of the letters v1..vn, and rho(v1...vn), from their steps.

    sigma_loc = sum_{k=2..n} tau(rho(v1...v_{k-1}), rho(v_k)) minus the
    number of null-homologous letters: the signature sum of the letters
    on their own, started from the identity.  For a relator it is the
    signature; for the two sides of a relation its difference is the
    signature shift of a substitution (see the moves module).

    rho(v_k) = T_u^s, so the steps are the letters' (u, s), the class
    table of a word with no opaque letter.  A null-homologous step counts
    -1 and keeps the prefix; a nonzero step costs one rank-1 update of
    the prefix, made in place on its rows by ``symplectic._twist_rows``,
    and one ``_transvection_tau`` only when its class lies in the span
    of its walk's classes so far (see the module docstring).

    The steps are read in blocks between central points, where the
    prefix is I or -I, each block as one or two walks from I
    (``_read_block``).  A run of identical blocks costs one block.  For
    a block B = T_1 ... T_m with product P_B and partial products P_j,
    read from any prefix Z, Meyer's cocycle identity
    tau(A, B) + tau(AB, C) = tau(A, BC) + tau(B, C) (W. Meyer, "Die
    Signatur von Flaechenbuendeln", Math. Ann. 201, 1973) telescopes to

        sum_j tau(Z P_{j-1}, T_j) = sigma_loc(B) + tau(Z, P_B),

    and a null-homologous letter counts -1 either way.  tau vanishes on
    all four pairs of {I, -I}, so a block read between two central
    points has the same value read from I or from -I, and each repeat
    adds that value and multiplies the prefix by P_B = +-I.  So while
    the steps after a central point repeat the block that ended there,
    its value is added, the prefix's sign moves with P_B and the walk
    jumps past it.  A hyperelliptic relator such as
    (c1 ... c2g c2g+1^2 c2g ... c1)^2, whose half acts as -I, reads its
    half once.  Each central point compares at most the block just
    read, so the checks cost O(n) in all.

    The steps after the last central point are no block, and tau(Z, P)
    need not vanish there: unless they were read as one walk from a
    true prefix of I, they are read again, as one walk from their true
    prefix, I or -I, with the span skip only from I.  A product of I is
    returned as ``symplectic.mat_identity(n)`` itself.
    """
    n = 2 * system.genus
    total = mark = 0
    sign = 1  # the prefix before steps[mark] is sign * I
    while mark < len(steps):
        value, i, close, prefix, split = _read_block(steps, mark, n, 1, True)
        if not close:
            if split or sign == -1:
                value, _, _, prefix, _ = _read_block(steps, mark, n, sign, False)
            return total + value, tuple(map(tuple, prefix))
        total += value
        block = steps[mark:i]
        sign *= close
        while steps[i:i + len(block)] == block:
            i += len(block)
            total += value
            sign *= close
        mark = i
    identity = sp.mat_identity(n)
    return total, identity if sign == 1 else tuple(tuple(-x for x in row) for row in identity)


def _read_block(steps, i: int, n: int, sign: int, split: bool):
    """Read steps[i:] from the prefix sign * I up to the first central point.

    Returns (value, end, close, prefix, split): the steps' Meyer sum
    from sign * I, the index after the central point, the sign of the
    product there (0 when the steps end first), the last walk's prefix
    rows, and whether the block was split into two walks.  With
    ``split``, the first walk from I hands over to a second walk from I
    at the step where its span reaches rank 2g, and the block closes
    when the second prefix is +-A^-1, for A the first walk's product;
    the value then adds tau(A, +-A^-1) (see the module docstring).

    The prefix is compared after each step with the shared row lists of
    I and -I (``_centre_rows``) and starts as a copy of one of them;
    after a split the rows of A^-1 and -A^-1 are built once, from
    ``symplectic.symplectic_inverse``, and take their place.
    """
    ends = centre = _centre_rows(n)
    prefix = [list(row) for row in centre[sign == -1]]
    basis = [] if sign == 1 else None  # the walk's span, until it is all of Q^2g
    first = None  # the first walk's product A, once the block is split
    value = 0
    while i < len(steps):
        step = steps[i]
        i += 1
        if any(step[0]):
            if basis is None or not _extend_span(basis, step[0]):
                value += _transvection_tau(prefix, *step)
            sp._twist_rows(prefix, (step,))
        else:
            value -= 1
        close = 1 if prefix == ends[0] else -1 if prefix == ends[1] else 0
        if close:
            if first is not None and close == -1:
                # tau(A, -A^-1): the form <p, (A^-1 - A)p'> has the matrix
                # J A^-1 - J A = -(K + K^T) for K = J A, as J A^-1 = A^T J;
                # row r of K is A[r + 1] for even r, -A[r - 1] for odd r
                k = [first[r ^ 1] if r % 2 else [-x for x in first[r ^ 1]] for r in range(n)]
                value += signature_of_symmetric(
                    [[x + y for x, y in zip(row, col)] for row, col in zip(k, zip(*k))])
            return value, i, close, prefix, first is not None
        if basis is not None and len(basis) == n:
            basis = None
            if split:
                split = False
                first = prefix
                inverse = [list(row) for row in sp.symplectic_inverse(first)]
                ends = inverse, [[-x for x in row] for row in inverse]
                prefix = [list(row) for row in centre[0]]
                basis = []
    return value, i, 0, prefix, first is not None


@lru_cache(maxsize=16)
def _centre_rows(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The row lists of I and -I, one shared pair per size as in
    ``symplectic.mat_identity``; the walk compares its prefix with them
    and copies them, and never changes them."""
    identity = sp.mat_identity(n)
    return [list(row) for row in identity], [[-x for x in row] for row in identity]


def factorization_signature(system, w: Word) -> int:
    """Signature of the Lefschetz fibration of a positive relator.

    sigma = sum_{k=2..n} tau(rho(v1...v_{k-1}), rho(v_k)) - s, where s
    counts the null-homologous letters.  The overall sign of the tau
    sum is calibrated so that the 20-letter genus-2 chain relator gives
    -12 and the 12-letter torus relator (ab)^6 gives -8 (both classical
    values); with that calibration tau(T_a, T_a) = -1 as constructed
    above.  Raises NotPositive for a word with an inverse letter, before
    any class is read (the walk would count every null-homologous letter
    as -1 whatever its sign), then UnknownClass at the first opaque
    letter, then NotARelator when the homological image is not the
    identity (the fibration would not close up over S^2).
    """
    _check_in_system(system, w)
    if not is_positive(w):
        raise NotPositive("signature needs a positive word")
    return _relator_signature(system, sp._known_classes(system, w.letters))


def _relator_signature(system, steps: Sequence[tuple[Sequence[int], int]]) -> int:
    """``local_signature`` of a relator's steps, checking that their product is I."""
    sigma, product = local_signature(system, steps)
    if product != sp.mat_identity(2 * system.genus):
        raise NotARelator("word is not a homological relator")
    return sigma


def hyperelliptic_signature(g: int, n0: int, nh: Mapping[int, int] | None = None):
    """Closed-form signature of a hyperelliptic fibration census, a Fraction.

    -((g+1)/(2g+1)) n0 + sum_h (4h(g-h)/(2g+1) - 1) n_h.  A non-integer
    value means the census cannot come from a hyperelliptic fibration.
    """
    from fractions import Fraction  # only this function needs a fraction

    return Fraction(_hyperelliptic_numerator(g, n0, nh), 2 * g + 1)


def _hyperelliptic_numerator(g: int, n0: int, nh: Mapping[int, int] | None = None) -> int:
    """(2g+1) times ``hyperelliptic_signature(g, n0, nh)``, an integer."""
    if g < 2 or n0 < 0:
        raise InvalidCensus("need g >= 2 and nonnegative counts")
    total = -(g + 1) * n0
    for h, count in (nh or {}).items():
        if not (1 <= h <= g // 2) or count < 0:
            raise InvalidCensus(f"bad separating census entry h={h}, count={count}")
        total += (4 * h * (g - h) - (2 * g + 1)) * count
    return total
