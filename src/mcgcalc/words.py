"""Free-group words over named curves, with twist-conjugated letters.

A Letter stands for a simple closed curve: a base curve name plus a
conjugating twist word, so ``[W]c`` denotes the image of the curve ``c``
under the mapping class of ``W`` (as a group element, W c W^-1).  The
conjugator is stored flattened, as a sequence of (name, sign) twists in
display order: the leftmost twist is applied last, matching the usual
``t_{a_r}^{e_r} ... t_{a_1}^{e_1}(c)`` notation.

Letters are kept in a normal form computed from declared facts only:

* free reduction of the conjugator;
* a rightmost twist along the base curve itself is dropped;
* a twist disjoint from the base and from every later-applied twist is
  dropped (it fixes the curve the rest of the conjugator produces);
* for a declared one-point pair, a rightmost twist rewrites via
  t_a(b) = t_b^-1(a) when the rewrite cancels into the conjugator;
* adjacent commuting twists are sorted into a fixed order.

The normal form is the fixed point of these rules, with the sort an
insertion sort of adjacent swaps: a twist moves left only past a
disjoint twist of an earlier-declared curve.  It is not a trace normal
form of the graph group, and it depends on the order of commuting
twists: in ``genus2_chain.mcg``, c4 is disjoint from c1 and from del, so
``[c1 del c4]c3`` and ``[c4 c1 del]c3`` are one curve, but c4 is declared
after c1 and before del, so neither form sorts into the other.

One pass runs free reduction, the tail rules, the drop scan and the
sort, in that order.  After a drop, and after a sort that moved a twist,
the loop restarts only when the result has an adjacent inverse pair,
ends in a twist along the base, or ends in the meet-once pattern
(``_settled``); otherwise the pass that would follow changes nothing:

* the drop scan cannot fire twice running, since every kept twist still
  has its blocker to the right (the base, or a kept twist it meets);
* the sort swaps only disjoint twists of different names, so those
  blockers stay to the right; a twist along the base cannot become
  last, since the twist it passed would have been dropped; and sorting
  a sorted list moves nothing, since each twist lands right after a
  twist that blocks it.

So the letter is the one the pass loop that always verified with one
more pass gives (kept as the oracle in ``tests/normalize_oracle.py``),
by construction rather than by confluence.

Equality of normal forms is sound for curve equality but not complete;
the homological class is the refuting certificate (different class means
different curve).  All values are immutable and all operations pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby

from .errors import ConjugatorTooLong, McgError, SystemMismatch
from .records import Frozen, _setattr

Pair = tuple[str, int]

# Most letters a word expression may expand to, and most twists a
# conjugator may have.  Powers expand at parse time, so ``c1^1000000000``
# would otherwise allocate gigabytes, and each move that conjugates a
# letter lengthens its conjugator, which normalization then walks: the
# parser checks the length before it expands anything, and the moves
# before they normalize.
MAX_WORD_LETTERS = 100_000


def _free_reduce_pairs(pairs: Iterable[tuple[object, int]]) -> list[tuple[object, int]]:
    """Cancel adjacent (x, s) (x, -s): twists of a conjugator, or letters of a word."""
    out: list[tuple[object, int]] = []
    for name, sign in pairs:
        # the sign first: a positive word never cancels, so its letters are not compared
        if out and out[-1][1] == -sign and out[-1][0] == name:
            out.pop()
        else:
            out.append((name, sign))
    return out


_NO_NAMES: frozenset[str] = frozenset()


def normalize_conjugator(system, pairs: Iterable[Pair], base: str) -> tuple[tuple[Pair, ...], str]:
    """Bring a flattened conjugator over ``base`` into normal form.

    Returns the reduced conjugator and the (possibly rewritten) base.
    After a drop or a sort the loop restarts only when ``_settled`` says
    an earlier rule could fire again (see the module docstring).  The
    first pass reads ``pairs`` as handed over, without a copy, and no
    pass changes it.
    """
    disjoint_of, meet1_of = system._disjoint_of, system._meet1_of
    conj = pairs
    for _ in range(100000):
        # free reduction (``_free_reduce_pairs``, inlined: most letters
        # settle in one pass), into a new list
        reduced: list[Pair] = []
        for twist in conj:
            if reduced and reduced[-1][1] == -twist[1] and reduced[-1][0] == twist[0]:
                reduced.pop()
            else:
                reduced.append(twist)
        conj = reduced
        # the tail rules keep conj freely reduced, so they run to a fixed
        # point within the pass; a pass per firing would cost O(n) each
        while conj:
            if conj[-1][0] == base:
                conj.pop()
            elif (
                len(conj) >= 2
                and base in meet1_of.get(conj[-1][0], _NO_NAMES)
                and conj[-2] == (base, conj[-1][1])
            ):
                # t_a^e(b) = t_b^-e(a); keep only when the new twist cancels.
                base = conj[-1][0]
                del conj[-2:]
            else:
                break
        # a twist disjoint from the base and every later-applied kept
        # twist goes; no name is disjoint from itself, so a repeat stays
        kept: list[Pair] = []
        support = {base}
        for twist in reversed(conj):
            if not support <= disjoint_of.get(twist[0], _NO_NAMES):
                kept.append(twist)
                support.add(twist[0])
        if len(kept) < len(conj):
            conj = kept[::-1]
            if not _settled(system, conj, base):
                continue
        ordered = _sort_commuting(system, conj)
        if ordered == conj or _settled(system, ordered, base):
            return tuple(ordered), base
        conj = ordered
    raise McgError("letter normalization did not stabilize")


def _settled(system, conj: list[Pair], base: str) -> bool:
    """True when neither free reduction nor a tail rule can fire on ``conj``."""
    if conj:
        name, sign = conj[-1]
        if name == base or (len(conj) >= 2 and conj[-2] == (base, sign)
                            and system.is_meet1(name, base)):
            return False
    return not any(a[0] == b[0] and a[1] != b[1] for a, b in zip(conj, conj[1:]))


def _sort_commuting(system, conj: list[Pair]) -> list[Pair]:
    """Sort adjacent commuting twists: a twist moves left past a twist of
    a different, disjoint and earlier-declared curve, and past no other.

    This is the insertion sort of those adjacent swaps: each twist lands
    right after the rightmost placed twist that blocks it.  Whether one
    twist blocks another depends only on the two names, so keeping each
    name's rightmost placed twist, in order, finds that spot in O(curve
    names) per twist, and a linked list places the twist there in O(1).
    """
    disjoint_of = system._disjoint_of
    decl_index = system._decl_index
    head = None  # the placed twists as a linked list of [twist, next] nodes
    last: dict[str, list] = {}  # name -> node of its rightmost placed twist
    order: list[str] = []  # the names in ``last``, in the order of their nodes
    for twist in conj:
        name = twist[0]
        k = len(order)
        disjoint = disjoint_of.get(name)
        if disjoint:
            # only a declared curve has facts, so its index is there
            rank = decl_index[name]
            while k and order[k - 1] in disjoint and decl_index[order[k - 1]] < rank:
                k -= 1
        if k:
            blocker = last[order[k - 1]]
            node = blocker[1] = [twist, blocker[1]]
        else:
            node = head = [twist, head]
        if name in last:
            # a name blocks itself, so it stood at or before the blocker
            order.remove(name)
            k -= 1
        order.insert(k, name)
        last[name] = node
    out = []
    while head is not None:
        out.append(head[0])
        head = head[1]
    return out


class Letter(Frozen):
    """A conjugated curve ``[conj]base`` in normal form.

    Construct through ``CurveSystem.letter``; direct construction skips
    normalization, but the conjugator must still be freely reduced.
    """

    __slots__ = ("conj", "base", "_hash")
    __match_args__ = ("conj", "base")

    def __init__(self, conj: tuple[Pair, ...], base: str):
        _setattr(self, "conj", conj)
        _setattr(self, "base", base)
        # hash((conj, base)), taken once: class tables and memos look a
        # letter up on every read
        _setattr(self, "_hash", hash((conj, base)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.base == other.base and self.conj == other.conj

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


def render_pairs(pairs: Iterable[Pair]) -> str:
    """Render a twist sequence, folding runs into powers: ``c1^-2 c3``."""
    runs = ((name, sign * len(list(run))) for (name, sign), run in groupby(pairs))
    return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in runs)


def render_letter(letter: Letter, sign: int = 1) -> str:
    body = letter.base if letter.is_plain() else f"[{render_pairs(letter.conj)}]{letter.base}"
    return body if sign == 1 else f"{body}^-1"


_SIGNS = frozenset((1, -1))


class Word:
    """A freely reduced word: a sequence of signed letters over one system."""

    __slots__ = ("system", "letters")

    def __init__(self, system, letters: Iterable[tuple[Letter, int]], _reduced: bool = False):
        self.system = system
        if not _reduced:
            letters = tuple(letters)
            # a letter is one twist, T or T^-1: the Meyer solve and the
            # moves read no other sign
            if not {s for _, s in letters} <= _SIGNS:
                sign = next(s for _, s in letters if s not in _SIGNS)
                raise McgError(f"letter sign must be 1 or -1, got {sign!r}")
            letters = _free_reduce_pairs(letters)
        self.letters = tuple(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[tuple[Letter, int]]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.system is other.system
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return compose_words(self, other)

    def __invert__(self) -> "Word":
        return invert_word(self)

    def __repr__(self) -> str:
        return render_word(self)


class _Atom:
    """One atom text of a parse, ``c`` or ``[W]c``: its base and its twists,
    each exponent expanded, and its (letter, 1) pair once built.

    Construction refuses an undeclared curve (UnknownCurve), walking the
    names, base first, only when ``declared`` is false or the base is not
    declared.  The letter is normalized through ``system._twisted`` on the
    first ``read``.  A parse keeps one atom per distinct text, so the words
    and relations that hold the text share one normalization and one Letter.
    """

    __slots__ = ("base", "twists", "pair")

    def __init__(self, system, base: str, twists: list[Pair], declared: bool):
        if not declared or base not in system._curves:
            system._require_letter(base, twists)
        self.base, self.twists, self.pair = base, twists, None

    def read(self, system) -> tuple[Letter, int]:
        if self.pair is None:
            self.pair = (system._twisted(self.base, self.twists), 1)
        return self.pair


class _ParsedWord(Word):
    """A parsed word: one ``_Atom`` per position, read into its letters the
    first time ``letters`` is, so a word no command reads normalizes
    nothing.  It is positive, so free reduction would cancel nothing."""

    __slots__ = ("_atoms", "_letters")

    def __init__(self, system, atoms: list[_Atom]):
        self.system, self._atoms, self._letters = system, atoms, None

    @property
    def letters(self) -> tuple[tuple[Letter, int], ...]:
        if self._letters is None:
            system = self.system
            self._letters = tuple([atom.pair or atom.read(system) for atom in self._atoms])
            self._atoms = None
        return self._letters


def render_word(word: Word) -> str:
    if not word.letters:
        return "1"
    return " ".join(render_letter(l, s) for l, s in word.letters)


def _check_in_system(system, w: Word) -> None:
    """Refuse a word built over another system before any class is read:
    its letter names would be looked up among this system's curves."""
    if w.system is not system:
        raise SystemMismatch("word belongs to a different curve system")


def compose_words(u: Word, v: Word) -> Word:
    """Freely reduced concatenation u * v."""
    _check_in_system(u.system, v)
    return Word(u.system, u.letters + v.letters)


def invert_word(u: Word) -> Word:
    """Reverse the order and flip every sign."""
    return Word(u.system, tuple((l, -s) for l, s in reversed(u.letters)), _reduced=True)


def flatten_word(w: Word) -> tuple[Pair, ...]:
    """The word as a freely reduced sequence of plain twists."""
    pairs: list[Pair] = []
    for letter, sign in w.letters:
        pairs.extend(letter.flatten(sign))
    return tuple(_free_reduce_pairs(pairs))


def twist_conjugate_letter(W: Word, c: Letter) -> Letter:
    """The letter ``[W]c``; satisfies [W1]([W2]c) = [W1 W2]c.

    Before anything is normalized, UnknownCurve names the first curve of
    c, base first, that W's system does not declare, and
    ConjugatorTooLong refuses a conjugator past ``MAX_WORD_LETTERS``.
    """
    W.system._require_letter(c.base, c.conj)
    conj, base = normalize_conjugator(W.system, _conjugator(flatten_word(W), c), c.base)
    return Letter(conj, base)


def push_forward_word(W: Word, V: Word) -> Word:
    """Apply ``[W]`` to every letter of V (a free-group homomorphism).

    W is flattened once, and each distinct letter of V is normalized once.
    V must belong to W's system (SystemMismatch), and no conjugator may
    pass ``MAX_WORD_LETTERS`` (ConjugatorTooLong, before normalizing).
    """
    _check_in_system(W.system, V)
    flat = flatten_word(W)
    image: dict[Letter, Letter] = {}
    letters = []
    for l, s in V.letters:
        m = image.get(l)
        if m is None:
            m = image[l] = Letter(*normalize_conjugator(W.system, _conjugator(flat, l), l.base))
        letters.append((m, s))
    return Word(W.system, letters)


def _conjugator(flat: tuple[Pair, ...], c: Letter) -> tuple[Pair, ...]:
    """The flattened conjugator of [W]c, flat + c.conj for flat the twists
    of W, refused past MAX_WORD_LETTERS twists."""
    n = len(flat) + len(c.conj)
    if n > MAX_WORD_LETTERS:
        raise ConjugatorTooLong(f"conjugator of {n} twists expands past {MAX_WORD_LETTERS} twists")
    return flat + c.conj


def is_positive(w: Word) -> bool:
    """True iff every letter carries sign +1."""
    return all(s == 1 for _, s in w.letters)
