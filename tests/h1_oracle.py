"""H1 of a class table as the package computed it before its echelon
basis: Smith normal form over every distinct class up to sign.  Kept
verbatim as the oracle for ``symplectic._h1_of_classes``, which reads
the same lattice through at most 2g echelon rows."""

from __future__ import annotations

from collections.abc import Sequence

from mcgcalc.symplectic import AbelianGroup, Vec, cokernel


def _h1_of_classes(g: int, table: Sequence[tuple[Vec, int]]) -> AbelianGroup:
    """Z^2g modulo the vanishing cycles' classes, from their class table:
    repeated classes, also up to sign, span nothing new, so each distinct
    class is a single column."""
    cols = dict.fromkeys(max(u, tuple(-x for x in u)) for u in dict.fromkeys(u for u, _ in table))
    matrix = [[col[i] for col in cols] for i in range(2 * g)]
    return cokernel(matrix, 2 * g)
