"""The elementary-move rotation, kept as the oracle for
``mcgcalc.moves.rotate``.

This is the package routine as it was before each single rotation was
built in one pass: n - 1 elementary transformations carry the end
letter z to the other end, then the whole word is conjugated by z^(+-1).
Each elementary transformation checks positivity and copies the word,
so one single rotation costs O(n^2).
"""

from __future__ import annotations

from mcgcalc.moves import (
    _require_positive,
    elementary_transformation,
    simultaneous_conjugation,
)
from mcgcalc.words import Word


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation, compiled to elementary moves plus a conjugation.

    k > 0 moves the last k letters to the front, k < 0 the first |k|
    letters to the end.  A single rotation returns the same curves in
    cyclic order, but a letter may come back in another normal form
    (``c1 [c2]c1`` rotated by -1 is ``[c1^-1]c2 c1``), so n single
    rotations need not give back the word itself.  ``rotate(w, k)`` is
    defined as |k| mod n single rotations in the direction of k.
    """
    _require_positive(w)
    n = len(w.letters)
    if n == 0 or k % n == 0:
        return w
    step = 1 if k > 0 else -1
    for _ in range(abs(k) % n):
        n = len(w.letters)
        if step == 1:
            z = w.letters[-1][0]
            for i in range(n - 1, 0, -1):
                w = elementary_transformation(w, i, "R")
            w = simultaneous_conjugation(w, Word(w.system, ((z, 1),), _reduced=True))
        else:
            z = w.letters[0][0]
            for i in range(1, n):
                w = elementary_transformation(w, i, "L")
            w = simultaneous_conjugation(w, Word(w.system, ((z, -1),), _reduced=True))
    return w
