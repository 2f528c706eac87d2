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
most ``MAX_WORD_LETTERS`` letters, and a conjugator to as many twists.
The conjugator reads in display order: the leftmost twist is applied
last.  ``#`` starts a comment.

Script files hold derivations:

    script NAME on WORD:
      elem I L|R
      conj CONJ
      rot K
      subst RELNAME @ I fwd|rev
      expect WORD
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Optional

from .errors import ParseError, UnknownCurve
from .moves import Conj, DerivationScript, Elem, Rotate, Subst
from .system import (
    CurveSystem,
    RelationDecl,
    make_braid,
    make_chain2,
    make_commute,
    make_lantern,
    validate_system,
)
from .words import Letter, Word, render_word

# Most letters a word expression may expand to.  Powers expand at parse
# time, so ``c1^1000000000`` would otherwise allocate gigabytes; the
# length is checked before anything is expanded.
MAX_WORD_LETTERS = 100_000

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|-?\d+|\+|-|\^|\[|\]|\(|\)|=>|=|:|@|\?)")


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError("unrecognized token", line, pos + 1, text[pos])
            self.items.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def next(self, expected: Optional[str] = None) -> str:
        if self.i >= len(self.items):
            raise ParseError(
                f"unexpected end of line{f', expected {expected!r}' if expected else ''}",
                self.line,
            )
        tok, col = self.items[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}", self.line, col, tok)
        self.i += 1
        return tok

    def col(self) -> int:
        return self.items[self.i][1] if self.i < len(self.items) else 0

    def done(self) -> bool:
        return self.i >= len(self.items)

    def require_done(self) -> None:
        if not self.done():
            tok, col = self.items[self.i]
            raise ParseError("trailing input", self.line, col, tok)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT = re.compile(r"-?\d+$")


def _is_name(tok: Optional[str]) -> bool:
    return tok is not None and _NAME.match(tok) is not None


def _is_int(tok: Optional[str]) -> bool:
    return tok is not None and _INT.match(tok) is not None


def _parse_class(toks: _Tokens, genus: int) -> Optional[tuple[int, ...]]:
    if toks.peek() == "?":
        toks.next()
        toks.require_done()
        return None
    vec = [0] * (2 * genus)
    if toks.peek() == "0" and toks.i == len(toks.items) - 1:
        toks.next()
        return tuple(vec)
    parsed_any = False
    while not toks.done():
        sign = 1
        tok = toks.peek()
        if tok in ("+", "-"):
            toks.next()
            sign = -1 if tok == "-" else 1
            tok = toks.peek()
        coeff = 1
        if _is_int(tok):
            coeff = int(toks.next())
            tok = toks.peek()
        if not _is_name(tok):
            raise ParseError("expected basis symbol", toks.line, toks.col(), tok)
        name = toks.next()
        m = re.match(r"([ab])(\d+)$", name)
        if not m or not (1 <= int(m.group(2)) <= genus):
            raise ParseError(
                f"unresolved basis symbol for genus {genus}", toks.line, toks.col(), name
            )
        idx = 2 * (int(m.group(2)) - 1) + (0 if m.group(1) == "a" else 1)
        vec[idx] += sign * coeff
        parsed_any = True
    if not parsed_any:
        raise ParseError("empty homology class", toks.line)
    return tuple(vec)


def _parse_conj(toks: _Tokens, system: CurveSystem) -> list[tuple[str, int]]:
    out = []
    twists = 0
    while _is_name(toks.peek()):
        name = toks.next()
        exp = 1
        if toks.peek() == "^":
            toks.next()
            tok = toks.next()
            if not _is_int(tok):
                raise ParseError("expected integer exponent", toks.line, toks.col(), tok)
            exp = int(tok)
            if exp == 0:
                raise ParseError("conjugator exponent must be nonzero", toks.line)
        twists += abs(exp)
        if twists > MAX_WORD_LETTERS:
            raise ParseError(f"conjugator expands past {MAX_WORD_LETTERS} twists", toks.line)
        out.append((name, exp))
    if not out:
        raise ParseError("empty conjugator", toks.line, toks.col(), toks.peek())
    return out


def _parse_atom(toks: _Tokens, system: CurveSystem) -> Letter:
    if toks.peek() == "[":
        toks.next()
        conj = _parse_conj(toks, system)
        toks.next("]")
        base = toks.next()
        if not _is_name(base):
            raise ParseError("expected curve name after conjugator", toks.line, toks.col(), base)
        try:
            return system.letter(base, conj)
        except UnknownCurve as exc:
            raise ParseError(str(exc), toks.line) from exc
    tok = toks.next()
    if not _is_name(tok):
        raise ParseError("expected curve name", toks.line, toks.col(), tok)
    try:
        return system.letter(tok)
    except UnknownCurve as exc:
        raise ParseError(str(exc), toks.line) from exc


def _word_power(toks: _Tokens) -> int:
    ptok = toks.next()
    if not _is_int(ptok) or int(ptok) < 1:
        raise ParseError("word powers must be >= 1", toks.line, toks.col(), ptok)
    return int(ptok)


def _extend(letters: list[Letter], unit: list[Letter], power: int, line: int) -> None:
    """Append ``unit`` ``power`` times, refusing past MAX_WORD_LETTERS."""
    if len(letters) + len(unit) * power > MAX_WORD_LETTERS:
        raise ParseError(
            f"word expression expands past {MAX_WORD_LETTERS} letters", line
        )
    letters.extend(unit * power)


def _parse_word_expr(toks: _Tokens, system: CurveSystem, depth: int = 0) -> list[Letter]:
    letters: list[Letter] = []
    while not toks.done():
        tok = toks.peek()
        if tok == ")":
            if depth == 0:
                raise ParseError("unbalanced ')'", toks.line, toks.col(), tok)
            break
        if tok == "(":
            toks.next()
            inner = _parse_word_expr(toks, system, depth + 1)
            toks.next(")")
            toks.next("^")
            _extend(letters, inner, _word_power(toks), toks.line)
            continue
        atom = _parse_atom(toks, system)
        power = 1
        if toks.peek() == "^":
            toks.next()
            power = _word_power(toks)
        _extend(letters, [atom], power, toks.line)
    if not letters:
        raise ParseError("empty word expression", toks.line)
    return letters


def parse_word(system: CurveSystem, text: str, line: int = 0) -> Word:
    toks = _Tokens(text, line)
    letters = _parse_word_expr(toks, system)
    toks.require_done()
    return Word(system, tuple((l, 1) for l in letters))


def render(word: Word) -> str:
    """Inverse of parse_word up to spacing; parses back to the same word."""
    return render_word(word)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.rstrip()


def parse_system(text: str, source: str = "<string>") -> CurveSystem:
    """Parse a system file; raises ParseError with line/column on errors."""
    system: Optional[CurveSystem] = None
    pending: list[tuple[int, _Tokens, str]] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        body = _strip(raw)
        if not body.strip():
            continue
        toks = _Tokens(body, lineno)
        stmt = toks.next()
        if stmt == "genus":
            if system is not None:
                raise ParseError("duplicate genus statement", lineno)
            tok = toks.next()
            if not _is_int(tok) or int(tok) < 2:
                raise ParseError("genus must be an integer >= 2", lineno, token=tok)
            toks.require_done()
            system = CurveSystem(int(tok))
            continue
        if system is None:
            raise ParseError("genus statement must come first", lineno, token=stmt)
        try:
            if stmt == "curve":
                name = toks.next()
                toks.next("=")
                cls = _parse_class(toks, system.genus)
                system.add_curve(name, cls)
            elif stmt == "disjoint":
                a, b = toks.next(), toks.next()
                toks.require_done()
                system.add_disjoint(a, b)
            elif stmt == "meet1":
                a, b = toks.next(), toks.next()
                toks.require_done()
                system.add_meet1(a, b)
            elif stmt == "septype":
                name, h = toks.next(), toks.next()
                toks.require_done()
                if not _is_int(h):
                    raise ParseError("septype needs an integer type", lineno, token=h)
                system.add_septype(name, int(h))
            elif stmt in ("lantern", "braid", "commute", "chain2", "word"):
                pending.append((lineno, toks, stmt))
            else:
                raise ParseError(f"unknown statement {stmt!r}", lineno, token=stmt)
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc

    if system is None:
        raise ParseError("missing genus statement", 1)

    # relations and words resolve after all curves exist
    for lineno, toks, stmt in pending:
        try:
            if stmt == "word":
                name = toks.next()
                toks.next("=")
                letters = _parse_word_expr(toks, system)
                toks.require_done()
                system.add_word(name, Word(system, tuple((l, 1) for l in letters)))
                continue
            name = toks.next()
            toks.next(":")
            if stmt == "lantern":
                d = [_parse_atom(toks, system) for _ in range(4)]
                toks.next("=>")
                abc = [_parse_atom(toks, system) for _ in range(3)]
                toks.require_done()
                system.add_relation(make_lantern(system, name, d, abc))
            elif stmt == "braid":
                a, b = _parse_atom(toks, system), _parse_atom(toks, system)
                toks.require_done()
                system.add_relation(make_braid(system, name, a, b))
            elif stmt == "commute":
                a, b = _parse_atom(toks, system), _parse_atom(toks, system)
                toks.require_done()
                system.add_relation(make_commute(system, name, a, b))
            else:
                a, b = _parse_atom(toks, system), _parse_atom(toks, system)
                toks.next("=>")
                c = _parse_atom(toks, system)
                toks.require_done()
                system.add_relation(make_chain2(system, name, a, b, c))
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc
    return system


def parse_scripts(text: str, system: CurveSystem, source: str = "<string>") -> dict[str, DerivationScript]:
    """Parse a script file against an already-loaded system."""
    scripts: dict[str, DerivationScript] = {}
    current: Optional[dict] = None

    def finish():
        nonlocal current
        if current is not None:
            scripts[current["name"]] = DerivationScript(
                current["name"], current["source"], tuple(current["steps"]), current["expect"]
            )
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        if not body.strip():
            continue
        indented = body[0].isspace()
        toks = _Tokens(body, lineno)
        stmt = toks.next()
        if stmt == "script":
            finish()
            name = toks.next()
            toks.next("on")
            src = toks.next()
            toks.next(":")
            toks.require_done()
            if src not in system.words:
                raise ParseError(f"word {src!r} is not declared in the system", lineno)
            current = {"name": name, "source": src, "steps": [], "expect": None}
            continue
        if current is None or not indented:
            raise ParseError("script steps must be indented under a script header", lineno, token=stmt)
        if stmt == "elem":
            idx = toks.next()
            direction = toks.next()
            toks.require_done()
            if not _is_int(idx) or int(idx) < 1:
                raise ParseError("elem needs a positive index", lineno, token=idx)
            if direction not in ("L", "R"):
                raise ParseError("elem direction must be L or R", lineno, token=direction)
            current["steps"].append(Elem(int(idx), direction))
        elif stmt == "conj":
            pairs = _parse_conj(toks, system)
            toks.require_done()
            try:
                letters = []
                for name, exp in pairs:
                    sign = 1 if exp > 0 else -1
                    letters.extend([(system.letter(name), sign)] * abs(exp))
            except UnknownCurve as exc:
                raise ParseError(str(exc), lineno) from exc
            current["steps"].append(Conj(Word(system, letters)))
        elif stmt == "rot":
            k = toks.next()
            toks.require_done()
            if not _is_int(k) or int(k) == 0:
                raise ParseError("rot needs a nonzero integer", lineno, token=k)
            current["steps"].append(Rotate(int(k)))
        elif stmt == "subst":
            rel = toks.next()
            toks.next("@")
            pos = toks.next()
            direction = toks.next()
            toks.require_done()
            if rel not in system.relations:
                raise ParseError(f"relation {rel!r} is not declared", lineno, token=rel)
            if not _is_int(pos) or int(pos) < 1:
                raise ParseError("subst needs a positive position", lineno, token=pos)
            if direction not in ("fwd", "rev"):
                raise ParseError("subst direction must be fwd or rev", lineno, token=direction)
            current["steps"].append(Subst(rel, int(pos), direction))
        elif stmt == "expect":
            name = toks.next()
            toks.require_done()
            if name not in system.words:
                raise ParseError(f"word {name!r} is not declared in the system", lineno)
            current["expect"] = name
        else:
            raise ParseError(f"unknown script step {stmt!r}", lineno, token=stmt)
    finish()
    return scripts


def parse_inputs(paths: Iterable[str | Path]) -> tuple[CurveSystem, dict[str, Word], dict[str, DerivationScript]]:
    """Load a system file and any number of script files.

    The first path must be the system file; validation failures raise
    ParseError carrying the violation list.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ParseError("no input files")
    system = parse_system(paths[0].read_text(), str(paths[0]))
    violations = validate_system(system)
    if violations:
        raise ParseError(
            f"system {paths[0]} is invalid: " + "; ".join(violations)
        )
    scripts: dict[str, DerivationScript] = {}
    for p in paths[1:]:
        scripts.update(parse_scripts(p.read_text(), system, str(p)))
    return system, dict(system.words), scripts
