"""The token-by-token atom reader, kept as the oracle for the parser's.

``mcgcalc.parser`` reads a conjugator in one pass over the line's tokens
and parses each distinct atom text once per ``parse_system``, and
``CurveSystem.letter`` checks each distinct conjugator name once.  This
module is the obvious version they replace: one ``peek`` / ``next`` and
one regex match per twist, a ``system.letter``-style flattening with one
check per entry and one generator per twist, and no memo.  The tests
hold the parser to it on the letters it returns and on every field of
the ``ParseError`` it raises.
"""

import re

from mcgcalc.errors import ParseError, UnknownCurve
from mcgcalc.parser import MAX_NESTING, MAX_WORD_LETTERS, _int
from mcgcalc.words import Letter, normalize_conjugator

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
