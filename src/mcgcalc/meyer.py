"""Signature of a Lefschetz fibration via the Meyer cocycle.

For symplectic A, B the cocycle value tau(A, B) is the signature of a
bilinear form on V = {(x, y) : (A^-1 - I)x + (B - I)y = 0}, with
q((x1,y1),(x2,y2)) = <x1 + y1, (I - B) y2>, symmetrized.  Summing tau
over the partial products of a positive relator and correcting by -1
per separating (null-homologous) vanishing cycle gives the signature of
the fibration over S^2.

Everything here is exact integer arithmetic: kernels come from
unimodular column reduction and the signature from a congruence
recursion, so no floating point ever enters.  The sign conventions
(transvection sign, left-to-right partial products, overall sign of the
sum) are pinned by the calibration sigma = -12 for the 20-letter
genus-2 relator; tests assert this.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import symplectic as sp
from .errors import NotARelator, NotSymplectic, UnknownClass
from .words import Word

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
    return _tau(a, b)


def _tau(a: Mat, b: Mat) -> int:
    """meyer_tau without its input checks, for products of transvections."""
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


def _prefix_products(system, w: Word) -> tuple[list[Mat], list[Mat]]:
    """rho of every prefix v1...vk of w, and of every letter vk."""
    identity = sp.mat_identity(2 * system.genus)
    prefixes, letters = [], []
    acc = identity
    for letter, sign in w.letters:
        twists = list(sp.twist_classes(system, letter.flatten(sign)))
        acc = sp.twist_product(acc, twists)
        prefixes.append(acc)
        letters.append(sp.twist_product(identity, twists))
    return prefixes, letters


def separating_count(system, w: Word) -> int:
    count = 0
    for letter, _ in w.letters:
        cls = system.homology_class_of_letter(letter)
        if cls is None:
            raise UnknownClass(f"letter {letter!r} has no computable class")
        if not any(cls):
            count += 1
    return count


def factorization_signature(system, w: Word) -> int:
    """Signature of the Lefschetz fibration of a positive relator.

    sigma = sum_{k=2..n} tau(rho(v1...v_{k-1}), rho(v_k)) - s, where s
    counts the null-homologous letters.  The overall sign of the tau
    sum is calibrated so that the 20-letter genus-2 chain relator gives
    -12 and the 12-letter torus relator (ab)^6 gives -8 (both classical
    values); with that calibration tau(T_a, T_a) = -1 as constructed
    above.  Raises NotARelator when the homological image is not the
    identity (the fibration would not close up over S^2).
    """
    prefixes, letters = _prefix_products(system, w)
    if prefixes and prefixes[-1] != sp.mat_identity(2 * system.genus):
        raise NotARelator("word is not a homological relator")
    total = 0
    for k in range(1, len(letters)):
        total += _tau(prefixes[k - 1], letters[k])
    return total - separating_count(system, w)


def hyperelliptic_signature(g: int, n0: int, nh: Mapping[int, int] | None = None) -> Fraction:
    """Closed-form signature of a hyperelliptic fibration census.

    -((g+1)/(2g+1)) n0 + sum_h (4h(g-h)/(2g+1) - 1) n_h.  A non-integer
    value means the census cannot come from a hyperelliptic fibration.
    """
    if g < 2 or n0 < 0:
        raise ValueError("need g >= 2 and nonnegative counts")
    total = Fraction(-(g + 1) * n0, 2 * g + 1)
    for h, count in (nh or {}).items():
        if not (1 <= h <= g // 2) or count < 0:
            raise ValueError(f"bad separating census entry h={h}, count={count}")
        total += (Fraction(4 * h * (g - h), 2 * g + 1) - 1) * count
    return total
