"""Exception types shared across the package."""


class McgError(Exception):
    """Base class for all errors raised by this package."""


class SystemMismatch(McgError):
    """Operands were built over different curve systems."""


class UnknownCurve(McgError):
    """A curve name is not declared in the ambient system."""


class UnknownClass(McgError):
    """A homology class is needed but the curve was declared opaque."""


class DimensionError(McgError):
    """A vector or matrix has the wrong size for the ambient genus."""


class NotSymplectic(McgError):
    """A matrix does not preserve the standard symplectic form."""


class NotARelator(McgError):
    """A word whose homological image is not the identity."""


class MalformedRelation(McgError):
    """A relation declaration with the wrong arity or shape."""


class InvalidRelation(McgError):
    """A relation that failed homological validation."""


class InvalidSearch(McgError, ValueError):
    """A search request out of range: a bound below 1, nothing known, or
    a lattice walk past its documented limit.  Also a ValueError, the
    type these requests raised before they had their own."""


class NotPositive(McgError, ValueError):
    """A word with an inverse letter where a positive word is needed: a
    move's input, or a fibration's Euler characteristic.  Also a
    ValueError, the type it raised before it had its own."""


class InvalidMove(McgError, ValueError):
    """A move with an unknown direction, or a script step that is no move.
    Also a ValueError, the type it raised before it had its own."""


class ConjugatorTooLong(McgError, ValueError):
    """A move or ``CurveSystem.letter`` would build a flattened conjugator
    of more than ``words.MAX_WORD_LETTERS`` twists, the most the parser
    admits; it is refused before it is built.  Also a ValueError, so a
    script step that builds one fails like any other step."""


class MoveOutOfRange(McgError, IndexError):
    """A move's index or position outside its word.  Also an IndexError,
    the type it raised before it had its own."""


class InvalidDeclaration(McgError, ValueError):
    """A system declaration the registry refuses: a genus below 2, a name
    declared twice, a pair that names one curve twice, a zero conjugator
    exponent, or a class entry or septype x that is not int(x), such as
    1.5 or '3'.  Also a ValueError, the type it raised before it had its own."""


class InvalidCensus(McgError, ValueError):
    """A census the hyperelliptic closed form cannot read: a genus below
    2, a negative count, or a separating type outside 1..g/2.  Also a
    ValueError, the type it raised before it had its own."""


class NotRealizable(McgError, ValueError):
    """An (e, sigma) pair no simply connected closed 4-manifold has.
    Also a ValueError, the type it raised before it had its own."""


class InvalidGroup(McgError, ValueError):
    """Abelian group data with a negative rank, a torsion coefficient
    below 2, or coefficients that do not form a divisibility chain.  Also
    a ValueError, the type it raised before it had its own."""


class FrozenRecord(McgError, AttributeError):
    """An assignment to, or a deletion of, a field of a frozen record: a
    Letter, a move, a relation or a report.  Also an AttributeError, the
    type a frozen dataclass raised when the records were dataclasses."""


class SubstMismatch(McgError):
    """The word does not match the relation side at the given position."""

    def __init__(self, expected, found):
        super().__init__(f"expected subword {expected!r}, found {found!r}")
        self.expected = expected
        self.found = found


class ScriptError(McgError):
    """A derivation script step failed; carries the 1-based step index."""

    def __init__(self, step, move, message):
        super().__init__(f"step {step} ({move}): {message}")
        self.step = step
        self.move = move


class InvalidSystem(McgError):
    """A system file that parses but breaks its declared facts.

    Carries the violation list and the parsed system; the message is the
    violations joined by "; ".
    """

    def __init__(self, violations, system):
        super().__init__("; ".join(violations))
        self.violations = violations
        self.system = system


class ParseError(McgError):
    """A syntax or resolution error in an input file."""

    def __init__(self, message, line=None, col=None, token=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            loc += ": "
        tok = f" (at {token!r})" if token else ""
        super().__init__(f"{loc}{message}{tok}")
        self.line = line
        self.col = col
        self.token = token
