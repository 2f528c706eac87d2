"""Positive-relator calculus for mapping class groups.

Verifies and manipulates positive relators in Dehn-twist generators
(elementary transformations, simultaneous conjugations, lantern and
other relation substitutions) and computes the invariants of the
associated Lefschetz fibrations: Euler characteristic, Meyer-cocycle
signature, H1 of the total space, and the singular fiber census.
"""

from .errors import (
    ConjugatorTooLong,
    DimensionError,
    FrozenRecord,
    InvalidCensus,
    InvalidDeclaration,
    InvalidGroup,
    InvalidMove,
    InvalidRelation,
    InvalidSearch,
    InvalidSystem,
    MalformedRelation,
    McgError,
    MoveOutOfRange,
    NotARelator,
    NotPositive,
    NotRealizable,
    NotSymplectic,
    ParseError,
    ScriptError,
    SubstMismatch,
    SystemMismatch,
    UnknownClass,
    UnknownCurve,
)
from .meyer import factorization_signature, hyperelliptic_signature, meyer_tau
from .moves import (
    Conj,
    DerivationScript,
    Elem,
    Rotate,
    Subst,
    elementary_transformation,
    find_sites,
    replay_script,
    rotate,
    simultaneous_conjugation,
    substitute,
)
from .parser import load_system, parse_scripts, parse_system, parse_word
from .reports import (
    Census,
    InvariantReport,
    betti_summary,
    euler_characteristic,
    fiber_sum,
    full_report,
    singular_fiber_census,
    substitution_delta_report,
)
from .symplectic import (
    AbelianGroup,
    h1_total_space,
    is_homological_relator,
    pairing,
    rho_image,
    smith_normal_form,
    transvection,
)
from .system import (
    CurveSystem,
    RelationDecl,
    solve_lantern_classes,
    validate_relation_decl,
    validate_system,
)
from .words import (
    Letter,
    Word,
    compose_words,
    invert_word,
    is_positive,
    push_forward_word,
    twist_conjugate_letter,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled fixture file, e.g. ``genus2_chain.mcg``."""
    # imported here: no command reads a bundled fixture, and the import
    # (with pathlib) costs more than most commands
    from importlib import resources

    return resources.files(__package__) / "fixtures" / name
