"""The per-letter Meyer sum, kept as the oracle for
``mcgcalc.meyer.local_signature``.

This is the package routine as it was before it learned to read a run
of identical relator blocks once: one ``_transvection_tau`` and one
rank-1 update of the prefix for every letter with a nonzero class, and
-1 for every null-homologous letter.
"""

from __future__ import annotations

from mcgcalc import symplectic as sp
from mcgcalc.meyer import _transvection_tau


def local_signature(system, pairs):
    """sigma_loc of the (letter, sign) pairs and their product, letter by letter."""
    prefix = sp.mat_identity(2 * system.genus)
    total = 0
    separating = 0
    for letter, sign in pairs:
        u = sp.letter_class(system, letter)
        if any(u):
            total += _transvection_tau(prefix, u, sign)
            prefix = sp.twist_product(prefix, ((u, sign),))
        else:
            separating += 1
    return total - separating, prefix
