"""Hurwitz moves, relation substitutions, and replayable scripts.

The two primitive equivalence moves on positive words are the
elementary transformation (swap adjacent letters, conjugating one by
the other) and simultaneous conjugation of the whole word.  A rotation
is a composite of those primitives, built in one pass.  Substitution
replaces one side of a declared, validated relation by the other.

Every move preserves the homological relator property; replay asserts
that per step whenever the word's classes are computable, and records
the steps whose soundness rests on an assumed (opaque) relation.

Replay computes one full signature, for the first computable word, and
after that moves sigma by a shift per step.  For a word v1...vn with
rho(v1...vn) = I and P_k = rho(v1...vk),
sigma = sum_k tau(P_{k-1}, rho(v_k)) - s (s null-homologous letters,
tau(I, .) = 0).  A move that replaces the window X_1...X_m after the
prefix P = P_j by Y_1...Y_l with the same product leaves every P_k
outside the window unchanged.  Inside it, induction on the cocycle
identity tau(A, B) + tau(AB, C) = tau(A, BC) + tau(B, C) gives

    sum_{k=1..m} tau(P X_1...X_{k-1}, X_k)
        = tau(P, X_1...X_m) + sum_{k=2..m} tau(X_1...X_{k-1}, X_k),

and tau(P, X_1...X_m) = tau(P, Y_1...Y_l).  So sigma moves by
sigma_loc(Y) - sigma_loc(X), where sigma_loc is the window's own tau
sum minus its null-homologous letters (``meyer.local_signature``),
wherever the window sits.  For a substitution X is the removed source
side and Y the inserted target side, the two windows of class-table
entries replay compares for its rho check, and it reads the shift and
both products in the same two walks.  The shift depends only on the
relation and the direction, and is the signature of the relation in
the sense of Endo-Nagami: +1 for a forward lantern, 0 for braid and
commute, +7 for a forward 2-chain, and the negative in reverse.  An
elementary move (x, y) -> (y, [y^-1]x) shifts by
tau(Y, Y^-1 X Y) - tau(X, Y) = 0, because tau is invariant under
conjugation (here by Y) and symmetric, and T_y^-1 keeps a class zero
or nonzero.  A simultaneous conjugation conjugates every P_k and
every letter, so it shifts by 0 as well, and so does a rotation,
which is compiled from those two.

The same window argument makes the rho check local: with rho(old) = I,
rho(new) = I iff the new window has the product of the old one.  A
conjugation or rotation changes every letter, so its whole product is
compared with I.
"""

from __future__ import annotations

from . import symplectic as sp
from .errors import (
    InvalidMove,
    InvalidRelation,
    MoveOutOfRange,
    NotARelator,
    NotPositive,
    ScriptError,
    SubstMismatch,
)
from .meyer import _relator_signature, local_signature
from .records import Frozen, Record, _setattr
from .system import CurveSystem, RelationDecl
from .words import (
    Word,
    _check_in_system,
    is_positive,
    push_forward_word,
    render_word,
    twist_conjugate_letter,
)


class Elem(Frozen):
    __slots__ = __match_args__ = ("index", "direction")

    def __init__(self, index: int, direction: str):
        _setattr(self, "index", index)  # 1-based position of the left letter of the pair
        _setattr(self, "direction", direction)  # "L" | "R"

    def __str__(self):
        return f"elem {self.index} {self.direction}"


class Conj(Frozen):
    __slots__ = __match_args__ = ("word",)

    def __init__(self, word: Word):
        _setattr(self, "word", word)

    def __str__(self):
        return f"conj {render_word(self.word)}"


class Rotate(Frozen):
    __slots__ = __match_args__ = ("k",)

    def __init__(self, k: int):
        _setattr(self, "k", k)

    def __str__(self):
        return f"rot {self.k}"


class Subst(Frozen):
    __slots__ = __match_args__ = ("relation", "position", "direction")

    def __init__(self, relation: str, position: int, direction: str):
        _setattr(self, "relation", relation)
        _setattr(self, "position", position)
        _setattr(self, "direction", direction)  # "fwd" | "rev"

    def __str__(self):
        return f"subst {self.relation} @ {self.position} {self.direction}"


class DerivationScript(Frozen):
    __slots__ = __match_args__ = ("name", "source", "steps", "expect")

    def __init__(self, name: str, source: str, steps: tuple[Elem | Conj | Rotate | Subst, ...],
                 expect: str | None = None):
        self._set(name, source, steps, expect)


def _require_positive(w: Word) -> None:
    if not is_positive(w):
        raise NotPositive("move requires a positive word")


def elementary_transformation(w: Word, i: int, direction: str) -> Word:
    """Swap letters i, i+1 (1-based), conjugating one by the other.

    right: (x, y) -> (y, [y^-1]x); left: (x, y) -> ([x]y, x).  The two
    directions are mutually inverse and both preserve the image under
    the symplectic representation.
    """
    _require_positive(w)
    if not (1 <= i < len(w.letters)):
        raise MoveOutOfRange(f"elementary transformation index {i} out of range")
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
        raise InvalidMove(f"direction must be 'L' or 'R', got {direction!r}")
    return Word(system, letters, _reduced=True)


def simultaneous_conjugation(w: Word, conjugator: Word) -> Word:
    """Letterwise [W]-conjugation; preserves every fibration invariant."""
    _require_positive(w)
    return push_forward_word(conjugator, w)


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation, built in one pass per single rotation.

    k > 0 moves the last k letters to the front, k < 0 the first |k|
    letters to the end.  A single rotation by +1 with last letter z is
    the n - 1 elementary moves that carry z to the front, giving z and
    then [z^-1]x for every other letter x, followed by conjugation by z;
    by -1 it is the mirror image.  It makes the normalizations those
    moves make, in one push-forward of the other letters and one
    conjugation, so the letters are the same.  A single rotation returns
    the same curves in cyclic order, but a letter may come back in
    another normal form (``c1 [c2]c1`` rotated by -1 is
    ``[c1^-1]c2 c1``), so n single rotations need not give back the word
    itself.  ``rotate(w, k)`` is defined as |k| mod n single rotations
    in the direction of k.
    """
    _require_positive(w)
    n = len(w.letters)
    if n == 0 or k % n == 0:
        return w
    system = w.system
    step = 1 if k > 0 else -1
    for _ in range(abs(k) % n):
        if step == 1:
            z, others = w.letters[-1][0], w.letters[:-1]
        else:
            z, others = w.letters[0][0], w.letters[1:]
        moved = push_forward_word(
            Word(system, ((z, -step),), _reduced=True), Word(system, others, _reduced=True)
        ).letters
        letters = ((z, 1),) + moved if step == 1 else moved + ((z, 1),)
        w = push_forward_word(
            Word(system, ((z, step),), _reduced=True), Word(system, letters, _reduced=True)
        )
    return w


def _side(rel: RelationDecl, direction: str) -> tuple[tuple, tuple]:
    if direction == "fwd":
        return rel.left, rel.right
    if direction == "rev":
        return rel.right, rel.left
    raise InvalidMove(f"direction must be 'fwd' or 'rev', got {direction!r}")


def substitute(
    system: CurveSystem, w: Word, rel: RelationDecl, position: int, direction: str
) -> Word:
    """Replace the relation's source side at ``position`` by its target.

    Matching is syntactic on letter normal forms.  The relation must be
    the one ``system`` holds under its name: ``add_relation`` checked its
    homological identity (or recorded it as assumed for opaque curves),
    so it is not checked again here.
    """
    _check_in_system(system, w)
    _require_positive(w)
    if system.relations.get(rel.name) is not rel:
        raise InvalidRelation(f"relation {rel.name} is not a relation of this system")
    src, dst = _side(rel, direction)
    if not (1 <= position <= len(w.letters) - len(src) + 1):
        raise MoveOutOfRange(f"substitution position {position} out of range")
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
    return Word(w.system, letters, _reduced=True)


def find_sites(system: CurveSystem, w: Word, rel: RelationDecl) -> list[tuple[int, str]]:
    """All (position, direction) pairs where substitute would succeed."""
    _check_in_system(system, w)
    sites = []
    letters = tuple(l for l, _ in w.letters)
    for direction in ("fwd", "rev"):
        src, _ = _side(rel, direction)
        m = len(src)
        for pos in range(1, len(letters) - m + 2):
            if letters[pos - 1 : pos - 1 + m] == tuple(src):
                sites.append((pos, direction))
    return sorted(sites)


class StepRecord(Record):
    """One replay step: the move, the word after it and what was checked.

    ``word`` is the Word itself, not its text.  Rendering reads every
    letter, so a step would cost the whole word; only ``replay --trace``
    prints it, with ``render_word(step.word)``.
    """

    __slots__ = __match_args__ = (
        "index", "move", "length", "word", "rho_checked", "assumed_relation", "sigma",
        "lantern_forward", "lantern_reverse",
    )

    def __init__(self, index: int, move: str, length: int, word: Word,
                 rho_checked: bool | None = None, assumed_relation: str | None = None,
                 sigma: int | None = None, lantern_forward: bool = False,
                 lantern_reverse: bool = False):
        self.index = index
        self.move = move
        self.length = length
        self.word = word
        # True, or None for an assumed relation's step that no earlier
        # computable word checked
        self.rho_checked = rho_checked
        self.assumed_relation = assumed_relation
        self.sigma = sigma
        self.lantern_forward = lantern_forward
        self.lantern_reverse = lantern_reverse


class ReplayResult(Record):
    __slots__ = __match_args__ = (
        "script", "initial", "final", "steps", "expected_matched", "sigma_initial", "sigma_final",
    )

    def __init__(self, script: DerivationScript, initial: Word, final: Word,
                 steps: list[StepRecord] | None = None, expected_matched: bool | None = None,
                 sigma_initial: int | None = None, sigma_final: int | None = None):
        self._set(script, initial, final, [] if steps is None else steps, expected_matched,
                  sigma_initial, sigma_final)

    @property
    def lantern_forward_count(self) -> int:
        return sum(1 for s in self.steps if s.lantern_forward)

    @property
    def lantern_reverse_count(self) -> int:
        return sum(1 for s in self.steps if s.lantern_reverse)


def replay_script(system: CurveSystem, script: DerivationScript) -> ReplayResult:
    """Apply a script's moves in order with per-step verification.

    Every move refuses a word that is not positive and maps a positive
    word to a positive one, so the word stays positive.  Whenever all
    letter classes are computable it must also be a homological
    relator.  The first computable word gets a full signature, which
    also checks rho = I.  After that each step compares the products of
    the letter classes it removed and inserted, and moves sigma by 0, or
    for a substitution by sigma_loc(inserted) - sigma_loc(removed) (see
    the module docstring).  The first failing step raises ScriptError
    with its index and move.
    """
    if script.source not in system.words:
        raise ScriptError(0, "source", f"word {script.source!r} is not declared")
    w = system.words[script.source]
    result = ReplayResult(script, w, w)
    identity = sp.mat_identity(2 * system.genus)
    classes = sp._class_table(system, w.letters)  # one entry per position of w
    sigma = None if None in classes else _relator_signature(system, classes)
    result.sigma_initial = sigma
    computed = sigma is not None  # an earlier word had rho = I

    for idx, move in enumerate(script.steps, start=1):
        n, rel = len(w.letters), None
        record = StepRecord(idx, str(move), n, w)  # its word is set after the move
        # each move also names the window [start, stop) of the old word
        # that it replaced; only the classes of those letters change
        try:
            if isinstance(move, Elem):
                w = elementary_transformation(w, move.index, move.direction)
                start, stop = move.index - 1, move.index + 1
            elif isinstance(move, Conj):
                w = simultaneous_conjugation(w, move.word)
                start, stop = 0, n
            elif isinstance(move, Rotate):
                w = rotate(w, move.k)
                start, stop = 0, n
            elif isinstance(move, Subst):
                rel = system.relations.get(move.relation)
                if rel is None:
                    raise InvalidRelation(f"relation {move.relation!r} is not declared")
                w = substitute(system, w, rel, move.position, move.direction)
                start = move.position - 1
                stop = start + len(_side(rel, move.direction)[0])
                if rel.kind == "lantern":
                    record.lantern_forward = move.direction == "fwd"
                    record.lantern_reverse = move.direction == "rev"
                if rel.status == "assumed":
                    record.assumed_relation = rel.name
            else:
                raise InvalidMove(f"unknown move {move!r}")
        except (IndexError, ValueError, SubstMismatch, InvalidRelation) as exc:
            raise ScriptError(idx, str(move), str(exc)) from exc
        record.length, record.word = len(w.letters), w
        removed = classes[start:stop]
        inserted = sp._class_table(system, w.letters[start : stop + len(w.letters) - n])
        classes[start:stop] = inserted
        if sigma is not None and None not in inserted:
            # rho(before) = I, so rho(w) = I iff the window keeps its
            # product, which is I when the window is the whole word
            if rel is None:  # elementary moves, conjugations and rotations shift by 0
                shift, new = 0, sp.twist_product(identity, inserted)
                old = identity if stop - start == n else sp.twist_product(identity, removed)
            else:  # a substitution shifts by sigma_loc(inserted) - sigma_loc(removed)
                shift, new = local_signature(system, inserted)
                lost, old = local_signature(system, removed)
                shift -= lost
            if new != old:
                raise ScriptError(idx, str(move), "homological image changed")
            record.sigma = sigma + shift
        elif None not in classes:
            # computable for the first time: one full signature
            try:
                record.sigma = _relator_signature(system, classes)
            except NotARelator:
                if not computed:
                    raise
                raise ScriptError(idx, str(move), "homological image changed") from None
        sigma = record.sigma
        checked = computed and sigma is not None
        computed = computed or sigma is not None
        # elementary moves, conjugations and verified substitutions are
        # sound; an assumed relation's step counts only when it was checked
        record.rho_checked = None if record.assumed_relation and not checked else True
        result.steps.append(record)

    result.final = w
    result.sigma_final = sigma  # the last step's, or sigma_initial without steps
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
