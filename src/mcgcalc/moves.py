"""Hurwitz moves, relation substitutions, and replayable scripts.

The two primitive equivalence moves on positive words are the
elementary transformation (swap adjacent letters, conjugating one by
the other) and simultaneous conjugation of the whole word.  Rotations
are a convenience compiled down to those primitives.  Substitution
replaces one side of a declared, validated relation by the other.

Every move preserves the homological relator property; replay asserts
that per step whenever the word's classes are computable, and records
the steps whose soundness rests on an assumed (opaque) relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import symplectic as sp
from .errors import (
    InvalidRelation,
    NotARelator,
    ScriptError,
    SubstMismatch,
    UnknownClass,
)
from .meyer import factorization_signature
from .system import CurveSystem, RelationDecl
from .words import (
    Word,
    is_positive,
    push_forward_word,
    render_word,
    twist_conjugate_letter,
)


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


def _require_positive(w: Word) -> None:
    if not is_positive(w):
        raise ValueError("move requires a positive word")


def elementary_transformation(w: Word, i: int, direction: str) -> Word:
    """Swap letters i, i+1 (1-based), conjugating one by the other.

    right: (x, y) -> (y, [y^-1]x); left: (x, y) -> ([x]y, x).  The two
    directions are mutually inverse and both preserve the image under
    the symplectic representation.
    """
    _require_positive(w)
    if not (1 <= i < len(w.letters)):
        raise IndexError(f"elementary transformation index {i} out of range")
    letters = list(w.letters)
    (x, _), (y, _) = letters[i - 1], letters[i]
    system = w.system
    if direction == "R":
        conj = Word(system, ((y, -1),), _reduced=True)
        letters[i - 1 : i + 1] = [(y, 1), (twist_conjugate_letter(conj, x), 1)]
    elif direction == "L":
        conj = Word(system, ((x, 1),), _reduced=True)
        letters[i - 1 : i + 1] = [(twist_conjugate_letter(conj, y), 1), (x, 1)]
    else:
        raise ValueError(f"direction must be 'L' or 'R', got {direction!r}")
    return Word(system, letters, _reduced=True)


def simultaneous_conjugation(w: Word, conjugator: Word) -> Word:
    """Letterwise [W]-conjugation; preserves every fibration invariant."""
    _require_positive(w)
    return push_forward_word(conjugator, w)


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


def _side(rel: RelationDecl, direction: str) -> tuple[tuple, tuple]:
    if direction == "fwd":
        return rel.left, rel.right
    if direction == "rev":
        return rel.right, rel.left
    raise ValueError(f"direction must be 'fwd' or 'rev', got {direction!r}")


def substitute(
    system: CurveSystem, w: Word, rel: RelationDecl, position: int, direction: str
) -> Word:
    """Replace the relation's source side at ``position`` by its target.

    Matching is syntactic on letter normal forms.  The relation must
    have been validated (or recorded as assumed for opaque curves).
    """
    _require_positive(w)
    if rel.status not in ("verified", "assumed"):
        raise InvalidRelation(f"relation {rel.name} is not validated")
    src, dst = _side(rel, direction)
    if not (1 <= position <= len(w.letters) - len(src) + 1):
        raise IndexError(f"substitution position {position} out of range")
    window = w.letters[position - 1 : position - 1 + len(src)]
    if tuple(l for l, _ in window) != tuple(src):
        raise SubstMismatch(
            " ".join(repr(l) for l in src),
            " ".join(repr(l) for l, _ in window),
        )
    letters = (
        w.letters[: position - 1]
        + tuple((l, 1) for l in dst)
        + w.letters[position - 1 + len(src) :]
    )
    if rel.status == "verified":
        # the window is src letter for letter, so rho(w) is kept iff rho(src) = rho(dst)
        try:
            src_image, dst_image = (
                sp.rho_image(w.system, Word(w.system, [(l, 1) for l in side])) for side in (src, dst)
            )
        except UnknownClass:
            src_image = dst_image = None
        if src_image != dst_image:
            raise InvalidRelation(
                f"relation {rel.name}: substitution changed the homological image"
            )
    return Word(w.system, letters, _reduced=True)


def find_sites(system: CurveSystem, w: Word, rel: RelationDecl) -> list[tuple[int, str]]:
    """All (position, direction) pairs where substitute would succeed."""
    sites = []
    letters = tuple(l for l, _ in w.letters)
    for direction in ("fwd", "rev"):
        src, _ = _side(rel, direction)
        m = len(src)
        for pos in range(1, len(letters) - m + 2):
            if letters[pos - 1 : pos - 1 + m] == tuple(src):
                sites.append((pos, direction))
    return sorted(sites)


@dataclass
class StepRecord:
    index: int
    move: str
    length: int
    word: str = ""
    rho_checked: Optional[bool] = None  # None: not computable (opaque)
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

    @property
    def delta_length(self) -> int:
        return len(self.final.letters) - len(self.initial.letters)


def _sigma(system: CurveSystem, w: Word) -> Optional[int]:
    """sigma(w), or None when opaque letters block it.

    The signature ends by checking rho(w) = I and raises NotARelator
    otherwise, so it is also the homological check of the word.
    """
    try:
        return factorization_signature(system, w)
    except UnknownClass:
        return None


def replay_script(system: CurveSystem, script: DerivationScript) -> ReplayResult:
    """Apply a script's moves in order with per-step verification.

    After every step the word must stay positive and, whenever all
    letter classes are computable, be a homological relator; the step's
    signature is that check.  The first failing step raises ScriptError
    with its index and move.
    """
    if script.source not in system.words:
        raise ScriptError(0, "source", f"word {script.source!r} is not declared")
    w = system.words[script.source]
    result = ReplayResult(script, w, w)
    result.sigma_initial = _sigma(system, w)
    computed = result.sigma_initial is not None  # an earlier word had rho = I

    for idx, move in enumerate(script.steps, start=1):
        try:
            if isinstance(move, Elem):
                w = elementary_transformation(w, move.index, move.direction)
            elif isinstance(move, Conj):
                w = simultaneous_conjugation(w, move.word)
            elif isinstance(move, Rotate):
                w = rotate(w, move.k)
            elif isinstance(move, Subst):
                rel = system.relations.get(move.relation)
                if rel is None:
                    raise InvalidRelation(f"relation {move.relation!r} is not declared")
                w = substitute(system, w, rel, move.position, move.direction)
            else:
                raise ValueError(f"unknown move {move!r}")
        except (IndexError, ValueError, SubstMismatch, InvalidRelation) as exc:
            raise ScriptError(idx, str(move), str(exc)) from exc
        if not is_positive(w):
            raise ScriptError(idx, str(move), "word is no longer positive")
        record = StepRecord(idx, str(move), len(w.letters), render_word(w))
        try:
            record.sigma = _sigma(system, w)
        except NotARelator:
            if not computed:
                raise
            raise ScriptError(idx, str(move), "homological image changed") from None
        checked = computed and record.sigma is not None
        computed = computed or record.sigma is not None
        # elementary moves, conjugations and verified substitutions are
        # sound; an assumed relation's step counts only when it was checked
        record.rho_checked = True
        if isinstance(move, Subst):
            rel = system.relations[move.relation]
            if rel.kind == "lantern":
                record.lantern_forward = move.direction == "fwd"
                record.lantern_reverse = move.direction == "rev"
            if rel.status == "assumed":
                record.assumed_relation = rel.name
                if not checked:
                    record.rho_checked = None
        result.steps.append(record)

    result.final = w
    result.sigma_final = _sigma(system, w)
    if script.expect is not None:
        if script.expect not in system.words:
            raise ScriptError(0, "expect", f"word {script.expect!r} is not declared")
        expected = system.words[script.expect]
        result.expected_matched = w == expected
        if not result.expected_matched:
            raise ScriptError(
                len(script.steps),
                "expect",
                f"final word {render_word(w)} does not equal "
                f"{script.expect} = {render_word(expected)}",
            )
    return result
