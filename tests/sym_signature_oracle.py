"""The signature of a symmetric matrix as the package computed it
before Bareiss division: each Schur step scaled by p^2, then the
remaining block divided by its gcd.  Kept verbatim as the oracle for
``meyer.signature_of_symmetric``."""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd


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
