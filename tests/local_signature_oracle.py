"""The per-letter Meyer sum, kept as the oracle for
``mcgcalc.meyer.local_signature``.

This is the package routine as it was before it learned to read a run
of identical relator blocks once: one tau solve and one rank-1 update
of the prefix for every letter with a nonzero class, and -1 for every
null-homologous letter.

Its tau is its own: ``transvection_tau`` below is the package's solve
as it was before it switched to (A - I)y = v.  It solves
(A - I)x0 = A v, with x0 = y + v, on a pivot list it pops from, so the
two kernels share only the elimination scheme and must agree on every
prefix.
"""

from __future__ import annotations

from mcgcalc import symplectic as sp


def local_signature(system, pairs):
    """sigma_loc of the (letter, sign) pairs and their product, letter by letter."""
    prefix = sp.mat_identity(2 * system.genus)
    total = 0
    separating = 0
    for letter, sign in pairs:
        u = sp.letter_class(system, letter)
        if any(u):
            total += transvection_tau(prefix, u, sign)
            prefix = sp.twist_product(prefix, ((u, sign),))
        else:
            separating += 1
    return total - separating, prefix


def transvection_tau(a, v, s):
    """tau(A, T_v^s) for symplectic A and s = +-1, through (A - I)x = A v.

    Solves (A - I)x = A v by fraction-free (Bareiss) elimination, with
    the functional w = <., v> as an extra row that is eliminated but
    never chosen as pivot.  The system is solvable iff the rows left
    without a pivot are zero on the right.  Then w lies in the row
    space (it vanishes on ker(A - I)), so its row ends as (0 | t) with
    t = -D <x, v> for D the last pivot, and s + <x, v> = (s D - t) / D.

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
    support = [(j, x) for j, x in enumerate(v) if x]
    rows = []
    for i, arow in enumerate(a):
        row = list(arow)
        row[i] -= 1
        row.append(sum(arow[j] * x for j, x in support))  # (A v)_i
        rows.append([row, 1])
    # <e_j, v> is v[j+1] for even j and -v[j-1] for odd j
    rows.append([[v[j + 1] if j % 2 == 0 else -v[j - 1] for j in range(n)] + [0], 1])
    d = 1
    for c in range(n):
        # rows[-1] is w and never a pivot
        k = next((i for i in range(len(rows) - 1) if rows[i][0][c]), None)
        if k is None:
            continue
        prow, ref = rows.pop(k)
        p = prow[c] * d // ref
        tail = [x * d // ref for x in prow[c + 1:]] if ref != d else prow[c + 1:]
        for entry in rows:
            row, ref = entry
            f = row[c]
            if f:
                row[c + 1:] = [(p * x - f * y) // ref for x, y in zip(row[c + 1:], tail)]
                entry[1] = p
        d = p
    if any(row[n] for row, _ in rows[:-1]):
        return 0
    row, ref = rows[-1]
    num = s * d - row[n] * d // ref
    if num == 0:
        return 0
    return -1 if (num > 0) == (d > 0) else 1
