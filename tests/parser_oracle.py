"""The token-by-token reader, kept as the oracle for the parser's.

``mcgcalc.parser`` reads a line's tokens with a one-group pattern and
walks declarations, word bodies and conjugators with local indices; it
reads a conjugator in one pass, parses each distinct atom text once per
``parse_system`` and builds a parsed word as already reduced, and
``CurveSystem.letter`` checks each distinct conjugator name once.  This
module is the obvious version they replace: a two-group pattern that
names the character starting no token, one ``peek`` / ``next`` per
token, one regex match per twist, a ``system.letter``-style flattening
with one check per entry and one generator per twist, no memo, and
every word freely reduced.  The tests hold the parser to it on the
systems, scripts and letters it returns and on every field of the
``ParseError`` it raises.
"""

import re
from typing import Optional

from mcgcalc.errors import ParseError, UnknownCurve
from mcgcalc.moves import Conj, DerivationScript, Elem, Rotate, Subst
from mcgcalc.parser import MAX_GENUS, MAX_NESTING, MAX_WORD_LETTERS, _int
from mcgcalc.system import RELATION_KINDS, CurveSystem, make_relation
from mcgcalc.words import Letter, Word, normalize_conjugator

# a token after optional whitespace, or else (group 2) the character
# that starts no token
TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|-?\d+|\+|-|\^|\[|\]|\(|\)|=>|=|:|@|\?)|(\S))")


class Tokens:
    """One line's tokens, with every column found from its own match."""

    def __init__(self, text, line):
        self.line = line
        self.items = []
        for m in TOKEN.finditer(text):
            if m.group(2) is not None:
                raise ParseError("unrecognized token", line, m.start(2) + 1, m.group(2))
            self.items.append((m.group(1), m.start(1) + 1))
        self.toks = [tok for tok, _ in self.items]
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expected=None):
        if self.i >= len(self.toks):
            raise ParseError(
                f"unexpected end of line{f', expected {expected!r}' if expected else ''}",
                self.line,
            )
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}", self.line, self.col(), tok)
        self.i += 1
        return tok

    def col(self):
        return self.items[self.i][1] if self.i < len(self.toks) else None

    def last_col(self):
        return self.items[self.i - 1][1]

    def done(self):
        return self.i >= len(self.toks)

    def require_done(self):
        if not self.done():
            raise ParseError("trailing input", self.line, self.col(), self.toks[self.i])


def statements(text):
    """(line number, indented, tokens, statement) for each line that holds
    more than a comment, one ``str.splitlines`` line at a time."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body:
            toks = Tokens(body, lineno)
            yield lineno, body[0].isspace(), toks, toks.next()

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def is_name(tok):
    return tok is not None and _NAME.match(tok) is not None


def letter(system, base, conj=()):
    """The normalized letter ``[conj]base``, flattened twist by twist."""
    system._require(base)
    pairs = []
    for name, exp in conj:
        system._require(name)
        if exp == 0:
            raise ValueError("conjugator exponent must be nonzero")
        sign = 1 if exp > 0 else -1
        pairs.extend((name, sign) for _ in range(abs(exp)))
    return Letter(*normalize_conjugator(system, pairs, base))


def parse_conj(toks):
    out = []
    twists = 0
    while is_name(toks.peek()):
        name = toks.next()
        exp = 1
        if toks.peek() == "^":
            toks.next()
            tok = toks.next()
            exp = _int(tok, toks.line)
            if exp is None:
                raise ParseError("expected integer exponent", toks.line, toks.last_col(), tok)
            if exp == 0:
                raise ParseError("conjugator exponent must be nonzero", toks.line)
        twists += abs(exp)
        if twists > MAX_WORD_LETTERS:
            raise ParseError(f"conjugator expands past {MAX_WORD_LETTERS} twists", toks.line)
        out.append((name, exp))
    if not out:
        raise ParseError("empty conjugator", toks.line, toks.col(), toks.peek())
    return out


def parse_atom(toks, system):
    conj = []
    if toks.peek() == "[":
        toks.next()
        conj = parse_conj(toks)
        toks.next("]")
    base = toks.next()
    if not is_name(base):
        where = " after conjugator" if conj else ""
        raise ParseError(f"expected curve name{where}", toks.line, toks.last_col(), base)
    try:
        return letter(system, base, conj)
    except UnknownCurve as exc:
        raise ParseError(str(exc), toks.line) from exc


def _word_power(toks):
    ptok = toks.next()
    power = _int(ptok, toks.line)
    if power is None or power < 1:
        raise ParseError("word powers must be >= 1", toks.line, toks.last_col(), ptok)
    return power


def _extend(letters, unit, power, line):
    if len(letters) + len(unit) * power > MAX_WORD_LETTERS:
        raise ParseError(f"word expression expands past {MAX_WORD_LETTERS} letters", line)
    letters.extend(unit * power)


def parse_word_expr(toks, system, depth=0):
    """The letters of a word expression, before free reduction."""
    letters = []
    while not toks.done():
        tok = toks.peek()
        if tok == ")":
            if depth == 0:
                raise ParseError("unbalanced ')'", toks.line, toks.col(), tok)
            break
        if tok == "(":
            if depth >= MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", toks.line)
            toks.next()
            inner = parse_word_expr(toks, system, depth + 1)
            toks.next(")")
            toks.next("^")
            _extend(letters, inner, _word_power(toks), toks.line)
            continue
        atom = parse_atom(toks, system)
        power = 1
        if toks.peek() == "^":
            toks.next()
            power = _word_power(toks)
        _extend(letters, [atom], power, toks.line)
    if not letters:
        raise ParseError("empty word expression", toks.line)
    return letters


def word_body(toks, system):
    """The (letter, sign) pairs the rest of the line spells."""
    letters = parse_word_expr(toks, system)
    toks.require_done()
    return [(l, 1) for l in letters]


def conj_step(toks, system):
    """The (letter, sign) pairs of a script ``conj`` step's conjugator."""
    pairs = parse_conj(toks)
    toks.require_done()
    try:
        letters = []
        for name, exp in pairs:
            sign = 1 if exp > 0 else -1
            letters.extend([(letter(system, name), sign)] * abs(exp))
    except UnknownCurve as exc:
        raise ParseError(str(exc), toks.line) from exc
    return letters


_BASIS = re.compile(r"([ab])(\d+)$")


def name(toks):
    tok = toks.next()
    if not is_name(tok):
        raise ParseError("expected name", toks.line, toks.last_col(), tok)
    return tok


def parse_class(toks, genus):
    if toks.peek() == "?":
        toks.next()
        toks.require_done()
        return None
    vec = [0] * (2 * genus)
    if toks.peek() == "0" and toks.i == len(toks.toks) - 1:
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
        coeff = _int(tok, toks.line)
        if coeff is None:
            coeff = 1
        else:
            toks.next()
            tok = toks.peek()
        if not is_name(tok):
            raise ParseError("expected basis symbol", toks.line, toks.col(), tok)
        basis = toks.next()
        m = _BASIS.match(basis)
        k = _int(m.group(2), toks.line) if m else None
        if k is None or not (1 <= k <= genus):
            raise ParseError(
                f"unresolved basis symbol for genus {genus}", toks.line, toks.last_col(), basis
            )
        vec[2 * (k - 1) + (0 if m.group(1) == "a" else 1)] += sign * coeff
        parsed_any = True
    if not parsed_any:
        raise ParseError("empty homology class", toks.line)
    return tuple(vec)


def parse_system(text):
    """``parse_system`` as it read a file line by line, without a memo."""
    system = None
    pending = []
    for lineno, _, toks, stmt in statements(text):
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
                curve = name(toks)
                toks.next("=")
                system.add_curve(curve, parse_class(toks, system.genus))
            elif stmt in ("disjoint", "meet1"):
                a, b = toks.next(), toks.next()
                toks.require_done()
                (system.add_disjoint if stmt == "disjoint" else system.add_meet1)(a, b)
            elif stmt == "septype":
                curve, htok = toks.next(), toks.next()
                toks.require_done()
                h = _int(htok, lineno)
                if h is None:
                    raise ParseError("septype needs an integer type", lineno, token=htok)
                system.add_septype(curve, h)
            elif stmt in RELATION_KINDS or stmt == "word":
                pending.append((lineno, toks, stmt))
            else:
                raise ParseError(f"unknown statement {stmt!r}", lineno, token=stmt)
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc
    if system is None:
        raise ParseError("missing genus statement", 1)
    for lineno, toks, stmt in pending:
        try:
            declared = name(toks)
            if stmt == "word":
                toks.next("=")
                system.add_word(declared, Word(system, word_body(toks, system)))
                continue
            toks.next(":")
            shape = RELATION_KINDS[stmt]
            atoms = [parse_atom(toks, system) for _ in range(shape.before)]
            if shape.after:
                toks.next("=>")
                atoms += [parse_atom(toks, system) for _ in range(shape.after)]
            toks.require_done()
            system.add_relation(make_relation(stmt, declared, *atoms))
        except (ValueError, UnknownCurve) as exc:
            raise ParseError(str(exc), lineno) from exc
    return system


def parse_scripts(text, system):
    """``parse_scripts`` as it read a file line by line."""
    sources, expects, steps = {}, {}, {}
    current = None
    for lineno, indented, toks, stmt in statements(text):
        if stmt == "script":
            current = name(toks)
            if current in steps:
                raise ParseError(
                    f"script {current!r} already declared", lineno, toks.last_col(), current
                )
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
        if stmt == "elem":
            tok = toks.next()
            direction = toks.next()
            toks.require_done()
            idx = _int(tok, lineno)
            if idx is None or idx < 1:
                raise ParseError("elem needs a positive index", lineno, token=tok)
            if direction not in ("L", "R"):
                raise ParseError("elem direction must be L or R", lineno, token=direction)
            steps[current].append(Elem(idx, direction))
        elif stmt == "conj":
            steps[current].append(Conj(Word(system, conj_step(toks, system))))
        elif stmt == "rot":
            tok = toks.next()
            toks.require_done()
            k = _int(tok, lineno)
            if not k:
                raise ParseError("rot needs a nonzero integer", lineno, token=tok)
            steps[current].append(Rotate(k))
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
            steps[current].append(Subst(rel, pos, direction))
        elif stmt == "expect":
            expected = toks.next()
            toks.require_done()
            if current in expects:
                raise ParseError(f"script {current!r} already has an expect", lineno)
            if expected not in system.words:
                raise ParseError(f"word {expected!r} is not declared in the system", lineno)
            expects[current] = expected
        else:
            raise ParseError(f"unknown script step {stmt!r}", lineno, token=stmt)
    return {n: DerivationScript(n, sources[n], tuple(steps[n]), expects.get(n)) for n in steps}
