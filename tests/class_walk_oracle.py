"""Each invariant's own walk over a word's letter classes, kept as the
oracle for the one class table (``symplectic._class_table``) that
``full_report`` and ``substitution_delta_report`` now share.

These are the package routines as they were before the table: the
signature and H1 read each letter through the raising ``letter_class``
below, H1 once per distinct letter, and the census calls
``homology_class_of_letter`` for every position.  The per-letter Meyer
sum itself is ``tests/local_signature_oracle.py``, and H1's invariant
factors come from ``tests/snf_oracle.py`` through ``tests/h1_oracle.py``.
"""

from __future__ import annotations

from mcgcalc import symplectic as sp
from mcgcalc.errors import NotARelator, UnknownClass
from mcgcalc.reports import Census
from tests import local_signature_oracle
from tests.h1_oracle import cokernel


def letter_class(system, letter):
    """The class of a letter, or UnknownClass naming its first undeclared
    curve in conjugator-then-base order."""
    u = system.homology_class_of_letter(letter)
    if u is None:
        names = [name for name, _ in letter.conj] + [letter.base]
        opaque = next(name for name in names if system.class_of(name) is None)
        raise UnknownClass(f"curve {opaque!r} has no declared homology class")
    return u


def factorization_signature(system, w):
    """UnknownClass at the first opaque letter, then the per-letter sum and
    NotARelator when the product is not I."""
    for letter, _ in w.letters:
        letter_class(system, letter)
    sigma, product = local_signature_oracle.local_signature(system, w.letters)
    if product != sp.mat_identity(2 * system.genus):
        raise NotARelator("word is not a homological relator")
    return sigma


def singular_fiber_census(system, w):
    n0 = 0
    sep: dict[int, int] = {}
    sep_unknown = 0
    class_unknown = 0
    for letter, _ in w.letters:
        cls = system.homology_class_of_letter(letter)
        if cls is None:
            class_unknown += 1
        elif any(cls):
            n0 += 1
        else:
            h = 1 if system.genus == 2 else system.septype.get(letter.base)
            if h is None:
                sep_unknown += 1
            else:
                sep[h] = sep.get(h, 0) + 1
    return Census(n0, tuple(sorted(sep.items())), sep_unknown, class_unknown)


def h1_total_space(system, w):
    """Z^2g modulo one column per distinct letter's class up to sign."""
    g = system.genus
    cols: dict = {}
    for letter in dict.fromkeys(letter for letter, _ in w.letters):
        u = letter_class(system, letter)
        cols[max(u, tuple(-x for x in u))] = None
    return cokernel([[col[i] for col in cols] for i in range(2 * g)], 2 * g)


def full_report(system, w):
    """(sigma, census, H1) in the order ``full_report`` computed them, so
    the first error is the same."""
    sigma = factorization_signature(system, w)
    return sigma, singular_fiber_census(system, w), h1_total_space(system, w)


def delta_checks(system, final):
    """The H1 and separating-factor lines of the delta report on ``final``."""
    try:
        h1 = h1_total_space(system, final)
        lines = [f"H1 of result trivial: {'yes' if h1.is_trivial() else f'no ({h1})'} (verified)"]
    except UnknownClass:
        lines = ["H1 of result: not machine-checkable (opaque curves)"]
    census = singular_fiber_census(system, final)
    if census.class_unknown:
        verdict = "yes (verified)" if census.n_separating else "undetermined (opaque curves)"
        lines.append(f"separating factor present: {verdict}")
    else:
        lines.append(f"separating factor present: {'yes' if census.n_separating else 'no'} (verified)")
    return lines
