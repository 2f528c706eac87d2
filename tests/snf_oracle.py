"""The (U, D, V) Smith normal form, kept as the oracle for the package's
invariant factors (``mcgcalc.symplectic.smith_normal_form``).

This is the package routine as it was before it stopped building the
transforms: it returns U, D, V with U A V = D, so the tests can check the
reduction itself (unimodular U and V, zero off-diagonal, the chain) and
not only the factors.
"""

from __future__ import annotations

from typing import Sequence

Mat = tuple[tuple[int, ...], ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Mat, Mat, Mat]:
    """Exact integer Smith normal form.

    Returns (U, D, V) with U A V = D, U and V unimodular, and D diagonal
    with nonnegative entries forming a divisibility chain.
    """
    d = [list(row) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def clear_row_entry(t, i):
        # zero d[i][t] against pivot d[t][t]; leaves the pivot row alone
        # when the pivot divides, otherwise installs the gcd at (t,t)
        at, ai = d[t][t], d[i][t]
        if ai % at == 0:
            q = ai // at
            for mat in (d, u):
                rt, ri = mat[t], mat[i]
                for k in range(len(rt)):
                    ri[k] -= q * rt[k]
        else:
            g, x, y = _xgcd(at, ai)
            p, q = -(ai // g), at // g
            for mat in (d, u):
                rt, ri = mat[t], mat[i]
                for k in range(len(rt)):
                    rt[k], ri[k] = x * rt[k] + y * ri[k], p * rt[k] + q * ri[k]

    def clear_col_entry(t, j):
        at, aj = d[t][t], d[t][j]
        if aj % at == 0:
            q = aj // at
            for mat in (d, v):
                for row in mat:
                    row[j] -= q * row[t]
        else:
            g, x, y = _xgcd(at, aj)
            p, q = -(aj // g), at // g
            for mat in (d, v):
                for row in mat:
                    row[t], row[j] = x * row[t] + y * row[j], p * row[t] + q * row[j]

    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (pivot is None or abs(d[i][j]) < pivot[0]):
                    pivot = (abs(d[i][j]), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat in (d, v):
                for row in mat:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    clear_row_entry(t, i)
            if any(d[t][j] for j in range(t + 1, n)):
                for j in range(t + 1, n):
                    if d[t][j]:
                        clear_col_entry(t, j)
            else:
                break
            if not any(d[i][t] for i in range(t + 1, m)):
                break
        t += 1

    r = t
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            ai, aj = d[i][i], d[i + 1][i + 1]
            if aj % ai:
                # add col i+1 to col i, then re-clear the 2x2 block
                for mat in (d, v):
                    for row in mat:
                        row[i] += row[i + 1]
                while d[i + 1][i] or d[i][i + 1]:
                    if d[i + 1][i]:
                        clear_row_entry(i, i + 1)
                    if d[i][i + 1]:
                        clear_col_entry(i, i + 1)
                changed = True
    for i in range(r):
        if d[i][i] < 0:
            for k in range(m):
                u[i][k] = -u[i][k]
            for k in range(n):
                d[i][k] = -d[i][k]
    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
    )


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal of the oracle's D."""
    _, d, _ = smith_normal_form(a)
    return tuple(x for x in (d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))) if x)
