"""The package's record types as the dataclasses they were, kept as the
oracle for the plain ``__slots__`` classes that replaced them.

Each class below is copied verbatim from the dataclass definition in
``words``, ``symplectic``, ``system``, ``moves`` or ``reports``, as it
was before the package stopped importing ``dataclasses`` at start-up,
except that ``InvariantReport`` declares no hash, as its record does.
``tests/test_records.py`` holds each record to its dataclass on repr,
equality, hashing, defaults, immutability, ``__match_args__``,
``as_dict``, copy and pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from mcgcalc.errors import InvalidGroup
from mcgcalc.words import Pair, Word, _free_reduce_pairs, render_letter, render_word


@dataclass(frozen=True)
class Letter:
    """A conjugated curve ``[conj]base`` in normal form.

    Construct through ``CurveSystem.letter``; direct construction skips
    normalization, but the conjugator must still be freely reduced.
    """

    conj: tuple[Pair, ...]
    base: str
    # hash((conj, base)), what the generated __hash__ gives, taken once:
    # class tables look a letter up on every read
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.conj, self.base)))

    def __hash__(self) -> int:
        return self._hash

    def is_plain(self) -> bool:
        return not self.conj

    def flatten(self, sign: int = 1) -> tuple[Pair, ...]:
        """The letter as a twist sequence: conj + base^sign + conj^-1."""
        inv = tuple((n, -s) for n, s in reversed(self.conj))
        return tuple(_free_reduce_pairs(self.conj + ((self.base, sign),) + inv))

    def __repr__(self) -> str:
        return render_letter(self)


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: Z^rank + sum of Z/t_i."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(t < 2 for t in self.torsion):
            raise InvalidGroup("bad abelian group data")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvalidGroup("torsion coefficients must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class RelationDecl:
    """A declared relation with its two substitutable sides.

    kind is a key of RELATION_KINDS.  The sides are
    letter tuples; either side may contain conjugated letters.  status
    is "verified" once the homological identity has been checked, or
    "assumed" when opaque curves make the check impossible.
    """

    name: str
    kind: str
    left: tuple[Letter, ...]
    right: tuple[Letter, ...]
    status: str = "unchecked"

    def with_status(self, status: str) -> "RelationDecl":
        return RelationDecl(self.name, self.kind, self.left, self.right, status)


@dataclass(frozen=True)
class Elem:
    index: int  # 1-based position of the left letter of the pair
    direction: str  # "L" | "R"

    def __str__(self):
        return f"elem {self.index} {self.direction}"


@dataclass(frozen=True)
class Conj:
    word: Word

    def __str__(self):
        return f"conj {render_word(self.word)}"


@dataclass(frozen=True)
class Rotate:
    k: int

    def __str__(self):
        return f"rot {self.k}"


@dataclass(frozen=True)
class Subst:
    relation: str
    position: int
    direction: str  # "fwd" | "rev"

    def __str__(self):
        return f"subst {self.relation} @ {self.position} {self.direction}"


@dataclass(frozen=True)
class DerivationScript:
    name: str
    source: str
    steps: tuple[Elem | Conj | Rotate | Subst, ...]
    expect: Optional[str] = None


@dataclass
class StepRecord:
    """One replay step: the move, the word after it and what was checked.

    ``word`` is the Word itself, not its text.  Rendering reads every
    letter, so a step would cost the whole word; only ``replay --trace``
    prints it, with ``render_word(step.word)``.
    """

    index: int
    move: str
    length: int
    word: Word
    # True, or None for an assumed relation's step that no earlier
    # computable word checked
    rho_checked: Optional[bool] = None
    assumed_relation: Optional[str] = None
    sigma: Optional[int] = None
    lantern_forward: bool = False
    lantern_reverse: bool = False


@dataclass
class ReplayResult:
    script: DerivationScript
    initial: Word
    final: Word
    steps: list[StepRecord] = field(default_factory=list)
    expected_matched: Optional[bool] = None
    sigma_initial: Optional[int] = None
    sigma_final: Optional[int] = None

    @property
    def lantern_forward_count(self) -> int:
        return sum(1 for s in self.steps if s.lantern_forward)

    @property
    def lantern_reverse_count(self) -> int:
        return sum(1 for s in self.steps if s.lantern_reverse)


@dataclass(frozen=True)
class Census:
    """Letter counts by separating type."""

    n0: int = 0
    separating: tuple[tuple[int, int], ...] = ()  # (h, count), h ascending
    sep_type_unknown: int = 0
    class_unknown: int = 0

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


@dataclass(frozen=True)
class InvariantReport:
    genus: int
    n: int
    census: Census
    e: int
    sigma: Optional[int]
    h1: Optional[sp.AbelianGroup]
    b2plus: Optional[int] = None
    b2minus: Optional[int] = None
    b1: Optional[int] = None
    flags: dict = field(default_factory=dict)
    annotations: tuple[str, ...] = ()
    # flags is a dict, so the report has no hash to give; without this
    # line the generated hash fails partway through the fields
    __hash__ = None

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


@dataclass(frozen=True)
class DeltaReport:
    k: int
    delta_e: int
    delta_sigma: Optional[int]
    lines: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "lantern_forward_count": self.k,
            "delta_e": self.delta_e,
            "delta_sigma": self.delta_sigma,
            "lines": list(self.lines),
        }
