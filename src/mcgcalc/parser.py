"""Line-oriented text formats for curve systems, words, and scripts.

System files (``.mcg``) declare, one statement per line:

    genus N
    curve NAME = <integer combination of a1,b1,...,ag,bg> | 0 | ?
    disjoint A B
    meet1 A B
    septype NAME H
    lantern NAME : d1 d2 d3 d4 => a b c
    braid NAME : a b
    commute NAME : a b
    chain2 NAME : a b => c
    word NAME = EXPR

Word expressions: EXPR := FACTOR+ ; FACTOR := ATOM ('^' INT)? |
'(' EXPR ')' '^' INT ; ATOM := NAME | '[' CONJ ']' NAME ; CONJ :=
(NAME ('^' INT)?)+.  Word powers must be >= 1 and expand at parse time;
conjugator exponents may be negative.  An expression may expand to at
most ``MAX_WORD_LETTERS`` letters, and a conjugator to as many twists;
parentheses nest at most ``MAX_NESTING`` deep and the genus is at most
``MAX_GENUS``.  The conjugator reads in display order: the leftmost
twist is applied last.  ``#`` starts a comment.  Files are UTF-8 text.
Every declared NAME (curve, word, relation, script) is an identifier,
a curve, word, relation, script or septype is declared once, and a
script has at most one ``expect``.  ``load_system`` is the one gate
from a system file to a validated system.

A line is read by one ``findall``.  On ``word`` and relation lines an
atom ``[W]c`` whose W holds only name characters, digits, ``^``, ``-``
and whitespace is one token.  A parse's memo keeps each distinct atom
text's ``words._Atom`` and each distinct W's twists, which ``_read_conj``
reads with one ``findall`` as (name, +-1) twists, noting whether every
name is declared; the script ``conj`` step reads its CONJ alike.  Each
atom text is read and checked once per file, and normalized once, when a
relation holding it is declared or a word holding it is first read.

Script files hold derivations:

    script NAME on WORD:
      elem I L|R
      conj CONJ
      rot K
      subst RELNAME @ I fwd|rev
      expect WORD
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator

from .errors import InvalidSystem, ParseError, UnknownCurve
from .moves import Conj, DerivationScript, Elem, Rotate, Subst
from .system import RELATION_KINDS, CurveSystem, make_relation, validate_system
from .words import MAX_WORD_LETTERS, Pair, Word, _Atom, _ParsedWord

# Largest genus a system may declare.  Every class is a vector of 2g
# integers and every image a 2g x 2g matrix, so a genus of 10^10 would
# allocate before anything else could be checked.
MAX_GENUS = 1000

# Deepest nesting of parentheses in a word expression; each level is a
# recursive call, and past the interpreter's recursion limit that would
# end in a RecursionError instead of a ParseError.
MAX_NESTING = 100

# a token (a name, an integer or an operator) after optional whitespace;
# a character that starts none matches outside the group, read as ""
_PLAIN_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|-?\d+|=>|[-+^\[\]()=:@?])|\S)")
# the same, with a conjugated atom [W]c one token when W holds only name
# characters, digits, "^", "-" and whitespace; else "[" is a token
_TOKEN = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|-?\d+|\[[A-Za-z_\d^\s-]*\]\s*[A-Za-z_][A-Za-z0-9_]*|=>|[-+^\[\]()=:@?])|\S)"
)
# a conjugator's (name, exponent) pair, or (group 3) a character that starts none
_PAIR = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(-?\d+))?|(\S))")


def _shown(tok: str) -> str:
    """The token an error names: "[" for a conjugated atom."""
    return "[" if tok[0] == "[" else tok


class _Tokens:
    """One line's tokens, read by one ``findall`` of ``pattern``, and a cursor over them."""

    __slots__ = ("text", "line", "pattern", "toks", "i")

    def __init__(self, text: str, line: int, i: int = 0, pattern: re.Pattern = _PLAIN_TOKEN):
        self.text, self.line, self.i, self.pattern = text, line, i, pattern
        self.toks = pattern.findall(text)
        if "" in self.toks:
            m = list(pattern.finditer(text))[self.toks.index("")]
            raise ParseError("unrecognized token", line, m.end(), m.group()[-1])

    @property
    def items(self) -> list[tuple[str, int]]:
        """(token, 1-based column) pairs; columns are found only when asked."""
        return [(m.group(1), m.start(1) + 1) for m in self.pattern.finditer(self.text)]

    def next(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise ParseError(
                f"unexpected end of line{f', expected {expected!r}' if expected else ''}",
                self.line,
            )
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}", self.line, self.col(), _shown(tok))
        self.i += 1
        return tok

    def col(self) -> int | None:
        """The column of the next token; None at the end of the line."""
        return self.items[self.i][1] if self.i < len(self.toks) else None

    def last_col(self) -> int:
        """The column of the token ``next`` returned last."""
        return self.items[self.i - 1][1]

    def done(self) -> bool:
        return self.i >= len(self.toks)

    def require_done(self) -> None:
        if not self.done():
            raise ParseError("trailing input", self.line, self.col(), _shown(self.toks[self.i]))

    def args(self, k: int) -> list[str]:
        """The next k tokens, which must end the line: k ``next`` calls and
        ``require_done`` in one step, with their errors."""
        if self.i + k != len(self.toks):
            for _ in range(k):
                self.next()
            self.require_done()
        self.i += k
        return self.toks[-k:]


# a token is a name exactly when its first character may start one: no
# token is empty, and the tokenizer's first alternative reads whole names
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BASIS = re.compile(r"([ab])(\d+)$")
# the statements that hold atoms, read after all others
_ATOM_STATEMENTS = frozenset(("word", *RELATION_KINDS))

# an atom's token, a plain atom's name or a conjugated atom's text, to its
# atom; and a conjugator's "[W]" to its twists and declared flag
_Memo = dict[str, "_Atom | tuple[list[Pair], bool]"]


def _is_name(tok: str | None) -> bool:
    return tok is not None and tok[0] in _NAME_START


def _name(toks: _Tokens) -> str:
    """The next token, which must be a name."""
    tok = toks.next()
    if not _is_name(tok):
        raise ParseError("expected name", toks.line, toks.last_col(), _shown(tok))
    return tok


def _int(tok: str | None, line: int) -> int | None:
    """The integer a token spells, or None when it spells none.

    A token spells an integer when it is digits with an optional "-"
    before them: ``isdecimal`` tests Unicode category Nd, the digits the
    tokenizer reads as a number.  Python refuses to convert a numeral past
    its digit limit (4300 by default); that is a ParseError on the
    token's line.
    """
    if tok is None or not (tok[1:] if tok[:1] == "-" else tok).isdecimal():
        return None
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"integer of {len(tok.lstrip('-'))} digits is too long", line) from None


def _parse_class(toks: _Tokens, genus: int) -> tuple[int, ...] | None:
    """The class the rest of the line spells, read with a local index;
    ``toks.i`` is set before every raise, so an error names the column
    of its token."""
    seq, line, i = toks.toks, toks.line, toks.i
    n = len(seq)
    if i < n and seq[i] == "?":
        toks.i = i + 1
        toks.require_done()
        return None
    vec = [0] * (2 * genus)
    if i == n - 1 and seq[i] == "0":
        toks.i = n
        return tuple(vec)
    if i == n:
        raise ParseError("empty homology class", line)
    while i < n:
        sign, tok = 1, seq[i]
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            i += 1
            tok = seq[i] if i < n else None
        if not _is_name(tok) and (coeff := _int(tok, line)) is not None:
            sign *= coeff
            i += 1
            tok = seq[i] if i < n else None
        toks.i = i
        if not _is_name(tok):
            raise ParseError("expected basis symbol", line, toks.col(), tok)
        toks.i = i = i + 1
        m = _BASIS.match(tok)
        k = _int(m.group(2), line) if m else None
        if k is None or not (1 <= k <= genus):
            raise ParseError(f"unresolved basis symbol for genus {genus}", line, toks.last_col(), tok)
        vec[2 * (k - 1) + (0 if m.group(1) == "a" else 1)] += sign
    return tuple(vec)


def _read_conj(text: str, pos: int, end: int, line: int, curves: dict) -> tuple[list[Pair], re.Match | None, bool]:
    """The twists in ``text[pos:end]`` by one ``findall``, each exponent expanded to (name, +-1)
    twists once the twist cap admits it; the ``_PLAIN_TOKEN`` match where they stop, ``end``
    unless a character that starts no pair comes first; and whether ``curves`` holds every
    name.  An error names a ``_PLAIN_TOKEN`` match's column and token."""
    items = _PAIR.findall(text, pos, end)
    twists = []
    declared, stop, k = True, end, 0
    for name, digits, junk in items:
        if junk:
            stop = [*_PAIR.finditer(text, pos, end)][k].start(3)
            break
        k += 1
        declared = declared and name in curves
        try:
            exp = int(digits) if digits else 1
        except ValueError:
            exp = _int(digits, line)  # past the digit limit: raises its ParseError
        if exp == 0:
            raise ParseError("conjugator exponent must be nonzero", line)
        # a name without an exponent fails first on a "^" right after it
        if len(twists) + abs(exp) > MAX_WORD_LETTERS and (digits or items[k : k + 1] != [("", "", "^")]):
            raise ParseError(f"conjugator expands past {MAX_WORD_LETTERS} twists", line)
        if exp == 1 or exp == -1:
            twists.append((name, exp))
        else:
            twists += [(name, 1 if exp > 0 else -1)] * abs(exp)
    after = _PLAIN_TOKEN.match(text, stop)
    if k and after and after.group(1) == "^" and not items[k - 1][1]:
        if (tok := _PLAIN_TOKEN.match(text, after.end())) is None:
            raise ParseError("unexpected end of line", line)
        raise ParseError("expected integer exponent", line, tok.start(1) + 1, tok.group(1))
    if not k:
        raise ParseError("empty conjugator", line, *((after.start(1) + 1, after.group(1)) if after else ()))
    return twists, after, declared


def _read_atom(text: str, pos: int, line: int, curves: dict) -> tuple[str, list[Pair], bool]:
    """The base name of the atom whose "[" is ``text[pos]``, and what ``_read_conj``
    reads of its conjugator, which stops at the first "]" after it, if not before."""
    end = text.find("]", pos)
    twists, close, declared = _read_conj(text, pos + 1, end if end >= 0 else len(text), line, curves)
    if close is None:
        raise ParseError("unexpected end of line, expected ']'", line)
    if close.group(1) != "]":
        raise ParseError("expected ']'", line, close.start(1) + 1, close.group(1))
    if (base := _PLAIN_TOKEN.match(text, close.end())) is None:
        raise ParseError("unexpected end of line", line)
    if not _is_name(base.group(1)):
        raise ParseError("expected curve name after conjugator", line, base.start(1) + 1, base.group(1))
    return base.group(1), twists, declared


def _parse_atom(toks: _Tokens, system: CurveSystem, memo: _Memo) -> _Atom:
    """The next atom.  ``memo`` holds this parse's atoms, keyed on the token (a name or a
    conjugated atom's text), so a repeated atom costs one lookup, and their conjugators,
    keyed on "[W]", so atoms that share W read it once; it stores only what reads."""
    seq, i = toks.toks, toks.i
    tok = seq[i] if i < len(seq) else toks.next()
    toks.i = i + 1
    atom = memo.get(tok)
    if atom is not None:
        return atom
    base, twists, declared = tok, (), True
    if tok[0] == "[":
        key = tok[: tok.find("]") + 1]  # no atom token ends in "]"
        if key not in memo:
            try:
                memo[key] = _read_atom(tok, 0, toks.line, system._curves)[1:]
            except ParseError:
                # again from the line, for its columns; a lone "[" always fails there
                _read_atom(toks.text, toks.last_col() - 1, toks.line, {})
                raise
        base, (twists, declared) = tok[len(key) :].lstrip(), memo[key]
    elif not _is_name(tok):
        raise ParseError("expected curve name", toks.line, toks.last_col(), tok)
    try:
        atom = memo[tok] = _Atom(system, base, twists, declared)
    except UnknownCurve as exc:
        raise ParseError(str(exc), toks.line) from exc
    return atom


def _word_power(toks: _Tokens) -> int:
    ptok = toks.next()
    power = _int(ptok, toks.line)
    if power is None or power < 1:
        raise ParseError("word powers must be >= 1", toks.line, toks.last_col(), _shown(ptok))
    return power


def _extend(atoms: list[_Atom], unit: list[_Atom], power: int, line: int) -> None:
    """Append ``unit`` ``power`` times, refusing past MAX_WORD_LETTERS."""
    if len(atoms) + len(unit) * power > MAX_WORD_LETTERS:
        raise ParseError(f"word expression expands past {MAX_WORD_LETTERS} letters", line)
    atoms.extend(unit * power)


def _parse_word_expr(toks: _Tokens, system: CurveSystem, memo: _Memo, depth: int = 0) -> list[_Atom]:
    seq, n = toks.toks, len(toks.toks)
    atoms = []
    while toks.i < n:
        tok = seq[toks.i]
        if tok == ")":
            if depth == 0:
                raise ParseError("unbalanced ')'", toks.line, toks.col(), tok)
            break
        if tok == "(":
            if depth >= MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", toks.line)
            toks.next()
            inner = _parse_word_expr(toks, system, memo, depth + 1)
            toks.next(")")
            toks.next("^")
            _extend(atoms, inner, _word_power(toks), toks.line)
            continue
        atom = _parse_atom(toks, system, memo)
        power = 1
        if toks.i < n and seq[toks.i] == "^":
            toks.i += 1
            power = _word_power(toks)
        _extend(atoms, [atom], power, toks.line)
    if not atoms:
        raise ParseError("empty word expression", toks.line)
    return atoms


def _word_body(toks: _Tokens, system: CurveSystem, memo: _Memo) -> Word:
    """The word the rest of the line spells, its letters built at first read."""
    atoms = _parse_word_expr(toks, system, memo)
    toks.require_done()
    return _ParsedWord(system, atoms)


def parse_word(system: CurveSystem, text: str, line: int = 0) -> Word:
    return _word_body(_Tokens(text, line, pattern=_TOKEN), system, {})


def _statements(text: str, atom_statements: frozenset = frozenset()) -> Iterator[tuple[int, bool, _Tokens, str]]:
    """(line number, indented, tokens, statement) for each line that holds
    more than a comment; the statement is the line's first token, and
    the cursor stands after it.  An atom is one token only in a statement
    of ``atom_statements``.  Lines end where ``str.splitlines`` ends them."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body and not body.isspace():
            toks = _Tokens(body, lineno, 1, _TOKEN)
            if "[" in body and toks.toks[0] not in atom_statements:
                toks = _Tokens(body, lineno, 1)
            yield lineno, body[0].isspace(), toks, toks.toks[0]


def parse_system(text: str, source: str = "<string>") -> CurveSystem:
    """Parse a system file; raises ParseError with line/column on errors."""
    system, pending = None, []
    for lineno, _, toks, stmt in _statements(text, _ATOM_STATEMENTS):
        if stmt == "genus":
            if system is not None:
                raise ParseError("duplicate genus statement", lineno)
            tok = toks.next()
            genus = _int(tok, lineno)
            if genus is None or genus < 2:
                raise ParseError("genus must be an integer >= 2", lineno, token=tok)
            if genus > MAX_GENUS:
                raise ParseError(f"genus is at most {MAX_GENUS}", lineno)
            toks.require_done()
            system = CurveSystem(genus)
            continue
        if system is None:
            raise ParseError("genus statement must come first", lineno, token=stmt)
        try:
            if stmt == "curve":
                name = _name(toks)
                toks.next("=")
                system.add_curve(name, _parse_class(toks, system.genus))
            elif stmt in ("disjoint", "meet1"):
                a, b = toks.args(2)
                (system.add_disjoint if stmt == "disjoint" else system.add_meet1)(a, b)
            elif stmt == "septype":
                name, htok = toks.args(2)
                h = _int(htok, lineno)
                if h is None:
                    raise ParseError("septype needs an integer type", lineno, token=htok)
                system.add_septype(name, h)
            elif stmt in _ATOM_STATEMENTS:
                pending.append((lineno, toks, stmt))
            else:
                raise ParseError(f"unknown statement {stmt!r}", lineno, token=stmt)
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc

    if system is None:
        raise ParseError("missing genus statement", 1)

    try:
        _resolve(system, pending)
    except BaseException:
        # nothing can reach the partial system now, but its words hold
        # it: drop them, so that reference counting frees it
        system.words.clear()
        raise
    return system


def _resolve(system: CurveSystem, pending: list) -> None:
    """Add the pending (line number, tokens, statement) relations and words, in file order.

    They resolve after all curves exist, and after every disjoint and
    meet1 fact, so an atom text has one letter per parse.  A relation's
    atoms are normalized here, for ``add_relation`` to check; a word's
    when it is first read.
    """
    memo: _Memo = {}
    for lineno, toks, stmt in pending:
        try:
            name = _name(toks)
            if stmt == "word":
                toks.next("=")
                system.add_word(name, _word_body(toks, system, memo))
                continue
            toks.next(":")
            shape = RELATION_KINDS[stmt]
            atoms = [_parse_atom(toks, system, memo) for _ in range(shape.before)]
            if shape.after:
                toks.next("=>")
                atoms += [_parse_atom(toks, system, memo) for _ in range(shape.after)]
            toks.require_done()
            system.add_relation(make_relation(stmt, name, *(atom.read(system)[0] for atom in atoms)))
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc


def parse_scripts(text: str, system: CurveSystem, source: str = "<string>") -> dict[str, DerivationScript]:
    """Parse a script file against an already-loaded system."""
    sources, expects, steps, current = {}, {}, {}, None
    for lineno, indented, toks, stmt in _statements(text):
        if stmt == "script":
            current = _name(toks)
            if current in steps:
                raise ParseError(f"script {current!r} already declared", lineno, toks.last_col(), current)
            toks.next("on")
            src = toks.next()
            toks.next(":")
            toks.require_done()
            if src not in system.words:
                raise ParseError(f"word {src!r} is not declared in the system", lineno)
            sources[current], steps[current] = src, []
            continue
        if current is None or not indented:
            raise ParseError("script steps must be indented under a script header", lineno, token=stmt)
        add = steps[current].append
        if stmt == "elem":
            tok, direction = toks.args(2)
            idx = _int(tok, lineno)
            if idx is None or idx < 1:
                raise ParseError("elem needs a positive index", lineno, token=tok)
            if direction not in ("L", "R"):
                raise ParseError("elem direction must be L or R", lineno, token=direction)
            add(Elem(idx, direction))
        elif stmt == "conj":
            twists, rest, _ = _read_conj(toks.text, _PLAIN_TOKEN.match(toks.text).end(), len(toks.text), lineno, {})
            if rest:
                raise ParseError("trailing input", lineno, rest.start(1) + 1, rest.group(1))
            try:
                add(Conj(system.word(twists)))
            except UnknownCurve as exc:
                raise ParseError(str(exc), lineno) from exc
        elif stmt == "rot":
            (tok,) = toks.args(1)
            k = _int(tok, lineno)
            if not k:
                raise ParseError("rot needs a nonzero integer", lineno, token=tok)
            add(Rotate(k))
        elif stmt == "subst":
            rel = toks.next()
            toks.next("@")
            tok = toks.next()
            direction = toks.next()
            toks.require_done()
            if rel not in system.relations:
                raise ParseError(f"relation {rel!r} is not declared", lineno, token=rel)
            pos = _int(tok, lineno)
            if pos is None or pos < 1:
                raise ParseError("subst needs a positive position", lineno, token=tok)
            if direction not in ("fwd", "rev"):
                raise ParseError("subst direction must be fwd or rev", lineno, token=direction)
            add(Subst(rel, pos, direction))
        elif stmt == "expect":
            (name,) = toks.args(1)
            if current in expects:
                raise ParseError(f"script {current!r} already has an expect", lineno)
            if name not in system.words:
                raise ParseError(f"word {name!r} is not declared in the system", lineno)
            expects[current] = name
        else:
            raise ParseError(f"unknown script step {stmt!r}", lineno, token=stmt)
    return {n: DerivationScript(n, sources[n], tuple(steps[n]), expects.get(n)) for n in steps}


def read_source(path: str | os.PathLike) -> str:
    """The text of an input file; a ParseError when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_system(path: str | os.PathLike) -> CurveSystem:
    """The one gate from a system file to a validated system.

    Reads the file, parses it and checks its declared facts; raises
    ParseError on text that does not parse and InvalidSystem, carrying
    the violations and the parsed system, on facts that contradict.  A
    relation whose two sides have different products is not such a
    violation: parsing stops at it with InvalidRelation.
    """
    system = parse_system(read_source(path), str(path))
    violations = validate_system(system)
    if violations:
        raise InvalidSystem(violations, system)
    return system
