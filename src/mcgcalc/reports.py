"""Fibration- and 4-manifold-level invariants and annotation reports.

The reports stay strictly on the machine-checkable side: H1 = 0 is
reported as a necessary condition for simple connectivity, never as
pi_1 = 1, and manifold identifications coming from handle calculus are
attached as static annotations.
"""

from __future__ import annotations

from . import meyer, symplectic as sp
from .errors import NotARelator, NotPositive, NotRealizable
from .moves import ReplayResult
from .records import Frozen
from .system import CurveSystem
from .words import Word, _check_in_system, is_positive, push_forward_word

# Lefschetz fibrations over D^2 bounded by the two sides of each
# relation kind, and their common boundary (static lookup data).
SECTION_TABLE = {
    "commute": ("D4 u D4", "D4 u D4", "S3 u S3"),
    "braid": ("X(S2,-2)", "X(S2,-2)", "RP3"),
    "chain2": ("Mc(2,3,6) Milnor fiber", "X(T2,-1)", "Sigma(2,3,6)"),
    "lantern": ("C2 = X(S2,-4)", "B2 rational ball", "L(4,1)"),
}


class Census(Frozen):
    """Letter counts by separating type."""

    __slots__ = __match_args__ = ("n0", "separating", "sep_type_unknown", "class_unknown")

    def __init__(self, n0: int = 0, separating: tuple[tuple[int, int], ...] = (),
                 sep_type_unknown: int = 0, class_unknown: int = 0):
        # separating holds (h, count) pairs, h ascending
        self._set(n0, separating, sep_type_unknown, class_unknown)

    @property
    def n_separating(self) -> int:
        return sum(c for _, c in self.separating) + self.sep_type_unknown

    def count(self, h: int) -> int:
        return dict(self.separating).get(h, 0)

    def as_dict(self) -> dict:
        return {
            "n0": self.n0,
            "separating": {str(h): c for h, c in self.separating},
            "sep_type_unknown": self.sep_type_unknown,
            "class_unknown": self.class_unknown,
        }


class InvariantReport(Frozen):
    __slots__ = __match_args__ = (
        "genus", "n", "census", "e", "sigma", "h1", "b2plus", "b2minus", "b1", "flags",
        "annotations",
    )
    # frozen, but ``flags`` is a dict, which has no hash: the report
    # declares none, so ``hash`` refuses it at once, naming its class
    __hash__ = None

    def __init__(self, genus: int, n: int, census: Census, e: int, sigma: int | None,
                 h1: sp.AbelianGroup | None, b2plus: int | None = None,
                 b2minus: int | None = None, b1: int | None = None, flags: dict | None = None,
                 annotations: tuple[str, ...] = ()):
        self._set(genus, n, census, e, sigma, h1, b2plus, b2minus, b1,
                  {} if flags is None else flags, annotations)

    def as_dict(self) -> dict:
        return {
            "genus": self.genus,
            "n": self.n,
            "census": self.census.as_dict(),
            "e": self.e,
            "sigma": self.sigma,
            "h1": None
            if self.h1 is None
            else {"rank": self.h1.rank, "torsion": list(self.h1.torsion)},
            "b2plus": self.b2plus,
            "b2minus": self.b2minus,
            "b1": self.b1,
            "flags": dict(self.flags),
            "annotations": list(self.annotations),
        }


def euler_characteristic(system: CurveSystem, w: Word) -> int:
    """e = 4 - 4g + n for a genus-g fibration with n singular fibers."""
    _check_in_system(system, w)
    if not is_positive(w):
        raise NotPositive("euler characteristic needs a positive word")
    return 4 - 4 * system.genus + len(w.letters)


def singular_fiber_census(system: CurveSystem, w: Word) -> Census:
    _check_in_system(system, w)
    return _census(system, w.letters, sp._class_table(system, w.letters))


def _census(system: CurveSystem, pairs, table) -> Census:
    """The census of the (letter, sign) pairs from their class table."""
    n0 = 0
    sep: dict[int, int] = {}
    sep_unknown = 0
    class_unknown = 0
    for (letter, _), entry in zip(pairs, table):
        if entry is None:
            class_unknown += 1
        elif any(entry[0]):
            n0 += 1
        else:
            # a null-homologous letter is separating; at genus 2 its type
            # can only be 1, beyond that it is the declared septype
            h = 1 if system.genus == 2 else system.septype.get(letter.base)
            if h is None:
                sep_unknown += 1
            else:
                sep[h] = sep.get(h, 0) + 1
    return Census(n0, tuple(sorted(sep.items())), sep_unknown, class_unknown)


def fiber_sum(system: CurveSystem, left: Word, right: Word, conjugator: Word) -> Word:
    """Monodromy of the fiber sum: left * [W]right.

    Both summands must be homological relators; words whose classes are
    not all computable are accepted on assumption (recorded in the
    system's assumption list by the caller if desired).
    """
    _check_in_system(system, left)
    _check_in_system(system, right)
    identity = sp.mat_identity(2 * system.genus)
    for w, name in ((left, "left"), (right, "right")):
        table = sp._class_table(system, w.letters)
        if None not in table and sp.twist_product(identity, table) != identity:
            raise NotARelator(f"{name} fiber summand is not a homological relator")
    return left * push_forward_word(conjugator, right)


def betti_summary(e: int, sigma: int) -> tuple[int, int]:
    """(b2+, b2-) of a simply connected closed oriented 4-manifold."""
    b2p, rem_p = divmod(e + sigma - 2, 2)
    b2m, rem_m = divmod(e - sigma - 2, 2)
    if rem_p or rem_m or b2p < 0 or b2m < 0:
        raise NotRealizable(f"(e, sigma) = ({e}, {sigma}) is not realizable with b1 = 0")
    return b2p, b2m


def full_report(system: CurveSystem, w: Word) -> InvariantReport:
    """Assemble every computable invariant of the fibration of ``w``.

    Requires a positive word, checked before any class is read, and a
    homological relator: raises NotPositive, then UnknownClass when
    opaque curves block the computation, then NotARelator.  The word's
    classes are read once, into one class table that sigma, the census
    and H1 share.
    """
    e = euler_characteristic(system, w)
    g = system.genus
    table = sp._known_classes(system, w.letters)
    sigma = meyer._relator_signature(system, table)
    census = _census(system, w.letters, table)
    h1 = sp._h1_of_classes(g, table)
    b2plus = b2minus = b1 = None
    annotations = [
        "simple connectivity is not verified: H1 = 0 is only the necessary condition",
    ]
    if h1.is_trivial():
        b1 = 0
        b2plus, b2minus = betti_summary(e, sigma)
    flags = {
        "has_separating_factor": census.n_separating > 0,
        "sigma_mod16": sigma % 16,
        "sigma_divisible_by_16": sigma % 16 == 0,
    }
    if census.sep_type_unknown == 0:
        # the closed form is num / (2g+1), compared in integers
        num = meyer._hyperelliptic_numerator(g, census.n0, dict(census.separating))
        hyp, rem = divmod(num, 2 * g + 1)
        if num == (2 * g + 1) * sigma:
            annotations.append(
                "census is hyperelliptic-consistent: closed-form signature matches"
            )
        elif rem == 0:
            annotations.append(
                f"hyperelliptic closed form gives {hyp}, fibration signature is {sigma}"
            )
        else:
            annotations.append("census cannot come from a hyperelliptic fibration")
    return InvariantReport(
        genus=g,
        n=len(w.letters),
        census=census,
        e=e,
        sigma=sigma,
        h1=h1,
        b2plus=b2plus,
        b2minus=b2minus,
        b1=b1,
        flags=flags,
        annotations=tuple(annotations),
    )


class DeltaReport(Frozen):
    __slots__ = __match_args__ = ("k", "delta_e", "delta_sigma", "lines")

    def __init__(self, k: int, delta_e: int, delta_sigma: int | None, lines: tuple[str, ...]):
        self._set(k, delta_e, delta_sigma, lines)

    def as_dict(self) -> dict:
        return {
            "lantern_forward_count": self.k,
            "delta_e": self.delta_e,
            "delta_sigma": self.delta_sigma,
            "lines": list(self.lines),
        }


def substitution_delta_report(system: CurveSystem, replay: ReplayResult) -> DeltaReport:
    """Blowdown bookkeeping for a completed replay.

    k forward lantern substitutions mean the result is a rational
    blowdown along k copies of C2 (boundary L(4,1), replaced by the
    rational ball B2), with delta e = -k and delta sigma = +k.
    """
    k = replay.lantern_forward_count - replay.lantern_reverse_count
    delta_e = len(replay.final.letters) - len(replay.initial.letters)
    delta_sigma = None
    if replay.sigma_initial is not None and replay.sigma_final is not None:
        delta_sigma = replay.sigma_final - replay.sigma_initial
    lhs, rhs, bdry = SECTION_TABLE["lantern"]
    lines = [
        f"{k} forward lantern substitution(s): rational blowdown along {k} "
        f"cop{'y' if k == 1 else 'ies'} of {lhs}, boundary {bdry}, each replaced by {rhs}",
        f"delta e = {delta_e} (expected {-k}), delta sigma = "
        f"{'n/a' if delta_sigma is None else f'{delta_sigma:+d}'} (expected {k:+d})",
    ]
    table = sp._class_table(system, replay.final.letters)
    census = _census(system, replay.final.letters, table)
    if census.class_unknown:
        checks = [
            "H1 of result: not machine-checkable (opaque curves)",
            f"separating factor present: {'yes (verified)' if census.n_separating else 'undetermined (opaque curves)'}",
        ]
    else:
        h1 = sp._h1_of_classes(system.genus, table)
        checks = [
            f"H1 of result trivial: {'yes' if h1.is_trivial() else f'no ({h1})'} (verified)",
            f"separating factor present: {'yes' if census.n_separating else 'no'} (verified)",
        ]
    if replay.sigma_final is not None:
        checks.append(
            f"sigma mod 16 = {replay.sigma_final % 16} "
            f"({'non' if replay.sigma_final % 16 else ''}zero; verified)"
        )
    else:
        checks.append("sigma mod 16: not machine-checkable (opaque curves)")
    checks.append("homeomorphism/diffeomorphism conclusions: not machine-checkable")
    assumed = sorted({s.assumed_relation for s in replay.steps if s.assumed_relation})
    if assumed:
        checks.append(f"relies on assumed relations: {', '.join(assumed)}")
    return DeltaReport(k, delta_e, delta_sigma, tuple(lines + checks))
