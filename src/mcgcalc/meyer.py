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

So tau(A, T_v^s) is one of -1, 0, 1 and costs one exact linear solve
(fraction-free elimination, ``_transvection_tau``) instead of a kernel
and a symmetric signature.  The general ``meyer_tau`` keeps the
definition and is the oracle the tests hold the fast path to.

The sum is additive over relator blocks: once the partial product is
back at I or at -I, the sum goes on as if the word started there, as
the cocycle identity telescopes and tau vanishes on {I, -I}^2.
``local_signature`` therefore reads a run of identical blocks, such as
a fiber sum w^k or the two halves of a hyperelliptic relator, once and
adds its value for each repeat.

Everything here is exact integer arithmetic: kernels come from
unimodular column reduction, the solve from fraction-free elimination
and the signature from a congruence recursion, so no floating point
ever enters.  The sign conventions (transvection sign, left-to-right
partial products, overall sign of the sum) are pinned by the
calibration sigma = -12 for the 20-letter genus-2 relator; tests assert
this.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import symplectic as sp
from .errors import InvalidCensus, NotARelator, NotSymplectic
from .words import Word, _check_in_system

Mat = sp.Mat


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """An integer basis of the kernel of the matrix, via column reduction.

    Applies unimodular column operations until each row has at most one
    surviving pivot column; the columns that end up identically zero
    give the kernel basis.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    active = list(range(ncols))
    for r in range(nrows):
        # reduce columns pairwise until one nonzero entry remains in row r
        cols = [c for c in active if m[r][c]]
        while len(cols) > 1:
            cols.sort(key=lambda c: abs(m[r][c]))
            c0, c1 = cols[0], cols[1]
            q = m[r][c1] // m[r][c0]
            for mat in (m, v):
                for row in mat:
                    row[c1] -= q * row[c0]
            cols = [c for c in active if m[r][c]]
        if cols:
            active.remove(cols[0])
    kernel = []
    for c in range(ncols):
        if all(m[r][c] == 0 for r in range(nrows)):
            kernel.append(tuple(v[r][c] for r in range(ncols)))
    return kernel


def signature_of_symmetric(s: Sequence[Sequence[int]]) -> int:
    """Signature of an exact symmetric integer matrix.

    Congruence recursion: pick a nonzero pivot p (creating one by a
    symmetric row/column addition if the whole diagonal vanishes),
    record sign(p), and recurse on p^2 times the Schur complement,
    which is again integral and congruent to the complement up to a
    positive scale.
    """
    n = len(s)
    a = [list(row) for row in s]
    sig = 0
    k = 0
    while k < n:
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next(
                    (
                        (i, jj)
                        for i in range(k, n)
                        for jj in range(i + 1, n)
                        if a[i][jj]
                    ),
                    None,
                )
                if j is None:
                    break  # remaining block is zero
                i, jj = j
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
                for col in range(k, n):
                    a[k][col] += a[jj][col]
                for row in a:
                    row[k] += row[jj]
        p = a[k][k]
        sig += 1 if p > 0 else -1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = p * (p * a[i][j] - a[i][k] * a[k][j])
        for i in range(k + 1, n):
            a[i][k] = a[k][i] = 0
        # scaling the remaining block by a positive constant preserves
        # its signature, so strip the gcd to keep entries small
        g = 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                g = gcd(g, a[i][j])
        if g > 1:
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] //= g
        k += 1
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

    Solves (A - I)y = v by fraction-free (Bareiss) elimination, with
    the functional w = <., v> as row n, after the pivot candidates: it
    is eliminated but never a pivot.  Pivot rows are swapped up to the
    front.  The system is solvable iff the rows left without a pivot
    are zero on the right.  Then w lies in the row space (it vanishes
    on ker(A - I)), so its row ends as (0 | t) with t = -D <y, v> for D
    the last pivot, and s + <y, v> = (s D - t) / D.

    Bareiss keeps every entry an integer minor, but it rescales each
    row by p / d at every pivot p.  A row whose entry in the pivot
    column is 0 is left as stored instead, together with the pivot
    ``ref`` it was exact for: its true value is stored * d / ref, so
    the Bareiss update of that row is (p * row - f * pivot row) // ref.
    Entries left of the current column are never read again.
    """
    if not any(v):
        return 0
    n = len(a)
    # rows of (A - I | v), then w: <e_j, v> is v[j+1] for even j, -v[j-1] for odd j
    rows = [[[*arow[:i], arow[i] - 1, *arow[i + 1:], v[i]], 1] for i, arow in enumerate(a)]
    rows.append([[v[j + 1] if j % 2 == 0 else -v[j - 1] for j in range(n)] + [0], 1])
    d, r = 1, 0  # rows[:r] are the pivot rows so far
    for c in range(n):
        for k in range(r, n):
            if rows[k][0][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow, ref = rows[r]
        r += 1
        p = prow[c] * d // ref
        tail = [x * d // ref for x in prow[c + 1:]] if ref != d else prow[c + 1:]
        for entry in rows[r:]:
            row, ref = entry
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // ref for x, y in zip(row[c + 1:], tail)]
                entry[1] = p
        d = p
    if any(row[n] for row, _ in rows[r:n]):
        return 0
    row, ref = rows[n]
    num = s * d - row[n] * d // ref
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
    -1 and keeps the prefix, and a nonzero step costs one
    ``_transvection_tau`` and one rank-1 update of the prefix, made in
    place on its rows by ``symplectic._twist_rows``.

    A run of identical blocks costs one block.  For a block
    B = T_1 ... T_m with product P_B and partial products P_j, read
    from any prefix Z, Meyer's cocycle identity
    tau(A, B) + tau(AB, C) = tau(A, BC) + tau(B, C) (W. Meyer, "Die
    Signatur von Flaechenbuendeln", Math. Ann. 201, 1973) telescopes to

        sum_j tau(Z P_{j-1}, T_j) = sigma_loc(B) + tau(Z, P_B),

    and a null-homologous letter counts -1 either way.  tau vanishes on
    all four pairs of {I, -I}, so a block read between two central
    points, where the prefix is I or -I, has the same value read from
    I or from -I, and each repeat adds that value and multiplies the
    prefix by P_B = +-I.  So at each central point the steps read since
    the last one are a block, and while the next steps repeat it, its
    value is added, the prefix's sign moves with P_B and the walk jumps
    past it.  A hyperelliptic relator such as
    (c1 ... c2g c2g+1^2 c2g ... c1)^2, whose half acts as -I, reads its
    half once.  Each central point compares at most the block just
    read, so the checks cost O(n) in all.
    """
    identity = [list(row) for row in sp.mat_identity(2 * system.genus)]
    negative = [[-x for x in row] for row in identity]
    prefix = [list(row) for row in identity]
    total = mark_total = mark = i = 0
    mark_sign = 1
    while i < len(steps):
        step = steps[i]
        i += 1
        if any(step[0]):
            total += _transvection_tau(prefix, *step)
            sp._twist_rows(prefix, (step,))
        else:
            total -= 1
        sign = 1 if prefix == identity else -1 if prefix == negative else 0
        if sign:
            block, value, flip = steps[mark:i], total - mark_total, sign * mark_sign
            while steps[i:i + len(block)] == block:
                i += len(block)
                total += value
                sign *= flip
            if sign != prefix[0][0]:
                prefix = [list(row) for row in (identity if sign == 1 else negative)]
            mark, mark_total, mark_sign = i, total, sign
    return total, tuple(tuple(row) for row in prefix)


def factorization_signature(system, w: Word) -> int:
    """Signature of the Lefschetz fibration of a positive relator.

    sigma = sum_{k=2..n} tau(rho(v1...v_{k-1}), rho(v_k)) - s, where s
    counts the null-homologous letters.  The overall sign of the tau
    sum is calibrated so that the 20-letter genus-2 chain relator gives
    -12 and the 12-letter torus relator (ab)^6 gives -8 (both classical
    values); with that calibration tau(T_a, T_a) = -1 as constructed
    above.  Raises UnknownClass at the first opaque letter, then
    NotARelator when the homological image is not the identity (the
    fibration would not close up over S^2).
    """
    _check_in_system(system, w)
    return _relator_signature(system, sp._known_classes(system, w.letters))


def _relator_signature(system, steps: Sequence[tuple[Sequence[int], int]]) -> int:
    """``local_signature`` of a relator's steps, checking that their product is I."""
    sigma, product = local_signature(system, steps)
    if product != sp.mat_identity(2 * system.genus):
        raise NotARelator("word is not a homological relator")
    return sigma


def hyperelliptic_signature(g: int, n0: int, nh: Mapping[int, int] | None = None) -> Fraction:
    """Closed-form signature of a hyperelliptic fibration census.

    -((g+1)/(2g+1)) n0 + sum_h (4h(g-h)/(2g+1) - 1) n_h.  A non-integer
    value means the census cannot come from a hyperelliptic fibration.
    """
    if g < 2 or n0 < 0:
        raise InvalidCensus("need g >= 2 and nonnegative counts")
    total = Fraction(-(g + 1) * n0, 2 * g + 1)
    for h, count in (nh or {}).items():
        if not (1 <= h <= g // 2) or count < 0:
            raise InvalidCensus(f"bad separating census entry h={h}, count={count}")
        total += (Fraction(4 * h * (g - h), 2 * g + 1) - 1) * count
    return total
