"""H1 of a class table as the package computed it before its echelon
basis: Smith normal form over every distinct class up to sign.  Kept
as the oracle for ``symplectic._h1_of_classes``, which reads
the same lattice through at most 2g echelon rows.  The invariant factors
come from ``tests/snf_oracle.py``, not from the package's ``cokernel``,
which runs on the echelon routine this oracle checks."""

from __future__ import annotations

from collections.abc import Sequence

from mcgcalc.symplectic import AbelianGroup, Vec
from tests.snf_oracle import invariant_factors


def cokernel(a: Sequence[Sequence[int]], ambient_rank: int) -> AbelianGroup:
    """Z^ambient_rank modulo the column span of ``a``, from the oracle's
    invariant factors."""
    factors = invariant_factors(a)
    return AbelianGroup(ambient_rank - len(factors), tuple(x for x in factors if x > 1))


def _h1_of_classes(g: int, table: Sequence[tuple[Vec, int]]) -> AbelianGroup:
    """Z^2g modulo the vanishing cycles' classes, from their class table:
    repeated classes, also up to sign, span nothing new, so each distinct
    class is a single column."""
    cols = dict.fromkeys(max(u, tuple(-x for x in u)) for u in dict.fromkeys(u for u, _ in table))
    matrix = [[col[i] for col in cols] for i in range(2 * g)]
    return cokernel(matrix, 2 * g)
