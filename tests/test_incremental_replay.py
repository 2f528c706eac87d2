"""Incremental replay against the full-recompute oracle.

``replay_script`` computes one full signature, for the first computable
word, and after that checks each step on the window of letters it
changed and moves sigma by the step's shift (0, or the relation's
constant).  ``replay_full`` below is the direct definition it replaced:
the whole word's signature after every step, which also checks
rho = I.  The two must agree on every step record, on the result and on
the step and text of any error.
"""

import json
import random

import pytest

from mcgcalc import fixture_path
from mcgcalc import moves, symplectic, words
from mcgcalc.cli import run_command
from mcgcalc.errors import (
    InvalidRelation,
    McgError,
    NotARelator,
    ScriptError,
    SubstMismatch,
    UnknownClass,
)
from mcgcalc.meyer import factorization_signature
from mcgcalc.moves import (
    Conj,
    DerivationScript,
    Elem,
    ReplayResult,
    Rotate,
    StepRecord,
    Subst,
    elementary_transformation,
    find_sites,
    replay_script,
    rotate,
    simultaneous_conjugation,
    substitute,
)
from mcgcalc.parser import parse_scripts, parse_system
from mcgcalc.system import RelationDecl
from mcgcalc.words import Word, is_positive, render_word


def _sigma(system, w):
    try:
        return factorization_signature(system, w)
    except UnknownClass:
        return None


def apply_move(system, w, move):
    if isinstance(move, Elem):
        return elementary_transformation(w, move.index, move.direction)
    if isinstance(move, Conj):
        return simultaneous_conjugation(w, move.word)
    if isinstance(move, Rotate):
        return rotate(w, move.k)
    return substitute(system, w, system.relations[move.relation], move.position, move.direction)


def replay_full(system, script):
    """Replay with the whole word's signature after every step."""
    if script.source not in system.words:
        raise ScriptError(0, "source", f"word {script.source!r} is not declared")
    w = system.words[script.source]
    result = ReplayResult(script, w, w)
    result.sigma_initial = _sigma(system, w)
    computed = result.sigma_initial is not None
    for idx, move in enumerate(script.steps, start=1):
        try:
            if isinstance(move, Subst) and move.relation not in system.relations:
                raise InvalidRelation(f"relation {move.relation!r} is not declared")
            w = apply_move(system, w, move)
        except (IndexError, ValueError, SubstMismatch, InvalidRelation) as exc:
            raise ScriptError(idx, str(move), str(exc)) from exc
        if not is_positive(w):
            raise ScriptError(idx, str(move), "word is no longer positive")
        record = StepRecord(idx, str(move), len(w.letters), w)
        try:
            record.sigma = _sigma(system, w)
        except NotARelator:
            if not computed:
                raise
            raise ScriptError(idx, str(move), "homological image changed") from None
        checked = computed and record.sigma is not None
        computed = computed or record.sigma is not None
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


def outcome(replay, system, script):
    try:
        r = replay(system, script)
    except McgError as exc:
        return type(exc).__name__, getattr(exc, "step", None), str(exc)
    return r.steps, render_word(r.final), r.expected_matched, r.sigma_initial, r.sigma_final


def assert_same_as_oracle(system, script):
    fast = outcome(replay_script, system, script)
    assert fast == outcome(replay_full, system, script)
    return fast


# --- generated derivations on the genus-2..4 ladder relators ----------------


def chain_class(g, i):
    """The class of c_i in the genus-g chain: a1, b1, a1 + a2, b2, ..., a_g."""
    if i % 2 == 0:
        return f"b{i // 2}"
    return " + ".join(f"a{j}" for j in ((i - 1) // 2, (i + 1) // 2) if 1 <= j <= g)


def chain_text(g):
    """The genus-g chain c1..c_{2g+1} and its hyperelliptic relator ``w``."""
    m = 2 * g + 1
    lines = [f"genus {g}"] + [f"curve c{i} = {chain_class(g, i)}" for i in range(1, m + 1)]
    lines += [f"meet1 c{i} c{i + 1}" for i in range(1, m)]
    lines += [f"disjoint c{i} c{j}" for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    up = " ".join(f"c{i}" for i in range(1, 2 * g + 1))
    down = " ".join(f"c{i}" for i in range(2 * g, 0, -1))
    lines.append(f"word w = ({up} c{m}^2 {down})^2")
    return "\n".join(lines) + "\n"


def chain_relations(g):
    """Braid and commute relations along the chain, and the 2-chain
    (c1 c2)^6 = t_bd for the boundary bd of a neighbourhood of c1 u c2."""
    m = 2 * g + 1
    lines = ["curve bd = 0"] + [f"disjoint bd c{i}" for i in range(1, m + 1) if i != 3]
    lines += [f"braid B{i} : c{i} c{i + 1}" for i in range(1, m)]
    lines += [f"commute C{i}_{j} : c{i} c{j}" for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    lines.append("chain2 CH : c1 c2 => bd")
    return "\n".join(lines) + "\n"


# genus 2 and 3 reuse the fixtures' chains (and their lanterns); the
# source is each genus's hyperelliptic relator
LADDERS = {
    2: (lambda: fixture_path("genus2_chain.mcg").read_text(), "rho"),
    3: (lambda: fixture_path("genus3_chain.mcg").read_text(), "sigma3"),
    4: (lambda: chain_text(4), "w"),
}
WALKS = {2: 6, 3: 6, 4: 5}  # with three padded ex53 scripts: 20 derivations
MAX_CONJ = 4  # cap on a letter's conjugator length, so words stay small


@pytest.fixture(scope="module")
def ladders():
    out = {}
    for g, (base, source) in LADDERS.items():
        out[g] = (parse_system(base() + "\n" + chain_relations(g)), source)
    return out


def random_derivation(system, source, seed, steps=200):
    """A seeded script of elementary moves, conjugations, rotations and
    substitutions at sites found in the current word, in both directions."""
    rng = random.Random(seed)
    w = system.words[source]
    curves = [f"c{i}" for i in range(1, 2 * system.genus + 2)]
    out = []
    while len(out) < steps:
        r = rng.random()
        move = None
        if r < 0.4:
            sites = {
                rel.name: found
                for rel in system.relations.values()
                if rel.status == "verified" and (found := find_sites(system, w, rel))
            }
            if sites:
                name = rng.choice(sorted(sites))
                position, direction = rng.choice(sites[name])
                move = Subst(name, position, direction)
        elif r < 0.5:
            move = Conj(system.word([(rng.choice(curves), rng.choice((1, -1)))]))
        elif r < 0.58:
            move = Rotate(rng.choice((1, -1, 2, -2, 3)))
        if move is None:
            move = Elem(rng.randrange(1, len(w)), rng.choice("LR"))
        after = apply_move(system, w, move)
        if max(len(letter.conj) for letter, _ in after.letters) <= MAX_CONJ:
            w = after
            out.append(move)
    return DerivationScript(f"walk{seed}", source, tuple(out))


def padded_script(system, script, seed, pairs):
    """``script`` with move pairs that undo each other inserted between
    its steps, so every scripted substitution still finds its site."""
    rng = random.Random(seed)
    w = system.words[script.source]
    curves = [f"c{i}" for i in range(1, 2 * system.genus + 2)]
    out = []
    for move in script.steps:
        for _ in range(pairs):
            kind = rng.randrange(3)
            if kind == 0:
                i = rng.randrange(1, len(w))
                pair = (Elem(i, "L"), Elem(i, "R"))
            elif kind == 1:
                c, s = rng.choice(curves), rng.choice((1, -1))
                pair = (Conj(system.word([(c, s)])), Conj(system.word([(c, -s)])))
            else:
                k = rng.choice((1, -1, 2))
                pair = (Rotate(k), Rotate(-k))
            if apply_move(system, apply_move(system, w, pair[0]), pair[1]) == w:
                out += pair
        out.append(move)
        w = apply_move(system, w, move)
    return DerivationScript(f"{script.name}_padded{seed}", script.source, tuple(out), script.expect)


@pytest.fixture(scope="module")
def generated(ladders, g2, ex53):
    scripts = []
    for g, (system, source) in ladders.items():
        scripts += [(system, random_derivation(system, source, 100 * g + seed)) for seed in range(WALKS[g])]
    scripts += [(g2, padded_script(g2, ex53, seed, 6)) for seed in range(3)]
    return scripts


def test_generated_derivations_are_long_and_mixed(generated):
    assert len(generated) >= 20
    kinds = set()
    for system, script in generated:
        assert len(script.steps) >= 200
        for move in script.steps:
            if isinstance(move, Subst):
                kinds.add((system.relations[move.relation].kind, move.direction))
            else:
                kinds.add(type(move).__name__)
    assert {"Elem", "Conj", "Rotate"} <= kinds
    assert {("braid", "fwd"), ("braid", "rev"), ("commute", "fwd"), ("commute", "rev")} <= kinds
    assert ("lantern", "fwd") in kinds


@pytest.fixture
def full_signatures(monkeypatch):
    """The lengths of the words replay_script takes a full signature of,
    which it reads from the class table it keeps for the word."""
    calls = []
    original = moves._relator_signature

    def counting(system, table):
        calls.append(len(table))
        return original(system, table)

    monkeypatch.setattr(moves, "_relator_signature", counting)
    return calls


def assert_one_signature_and_same_as_oracle(system, script, calls):
    calls.clear()
    fast = assert_same_as_oracle(system, script)
    # one full signature per replay, of the source when it is computable
    # (ex52's words never are)
    assert len(calls) == (fast[3] is not None)
    return fast[0]


def test_fixture_scripts_match_the_oracle(g2, g3, ex53, ex52, full_signatures):
    for system, script in [(g2, ex53)] + [(g3, s) for s in ex52.values()]:
        steps = assert_one_signature_and_same_as_oracle(system, script, full_signatures)
        assert len(steps) == len(script.steps)


def test_generated_derivations_match_the_oracle(generated, full_signatures):
    for system, script in generated:
        steps = assert_one_signature_and_same_as_oracle(system, script, full_signatures)
        assert all(step.sigma is not None for step in steps)


# --- steps that change rho ------------------------------------------------


def test_window_check_catches_a_step_that_changes_rho():
    # no loaded relation can do this: an assumed relation has an opaque
    # letter, and substitute compares the sides of a verified one.  A
    # hand-made "assumed" commutation of two curves that meet once is the
    # one way a step between computable words can change rho
    system = parse_system(
        "genus 2\ncurve c1 = a1\ncurve c2 = b1\ncurve c3 = a2\nmeet1 c1 c2\n"
        "disjoint c1 c3\ndisjoint c2 c3\nword w = (c1 c2)^6 (c2 c1)^6\n"
    )
    c1, c2 = system.letter("c1"), system.letter("c2")
    system.relations["FAKE"] = RelationDecl("FAKE", "commute", (c1, c2), (c2, c1), "assumed")
    fake = system.relations["FAKE"]
    for prefix in [(), (Elem(13, "L"), Elem(13, "R")), (Rotate(2),), (Conj(system.word(["c3"])),)]:
        w = system.words["w"]
        for move in prefix:
            w = apply_move(system, w, move)
        position, direction = find_sites(system, w, fake)[-1]
        script = DerivationScript("s", "w", prefix + (Subst("FAKE", position, direction),))
        assert assert_same_as_oracle(system, script) == (
            "ScriptError",
            len(prefix) + 1,
            f"step {len(prefix) + 1} (subst FAKE @ {position} {direction}): homological image changed",
        )


ROUND_TRIP = """
genus 2
curve c1 = a1
curve c2 = b1
curve p = ?
curve q = ?
curve r = ?
meet1 c1 c2
lantern LX : c1 c2 c1 c2 => p q r
lantern LY : c1 c1 c1 c1 => p q r
word src = (c1 c2)^6
word opaque = p q r (c1 c2)^4
word bad = c1 c2 c1 c2
"""

ROUND_TRIP_SCRIPTS = """
script roundtrip on src:
  elem 5 R
  subst LX @ 1 fwd
  subst LY @ 1 rev

script back on src:
  subst LX @ 1 fwd
  subst LX @ 1 rev
  elem 2 L

script fromopaque on opaque:
  subst LY @ 1 rev

script notrelator on bad:
  subst LX @ 1 fwd
"""


@pytest.fixture(scope="module")
def round_trip():
    system = parse_system(ROUND_TRIP)
    scripts = parse_scripts(ROUND_TRIP_SCRIPTS, system)
    # the parser refuses these three, but replay_script takes any script
    scripts["nosource"] = DerivationScript("nosource", "nothing", (Rotate(1),))
    scripts["norelation"] = DerivationScript("norelation", "src", (Elem(1, "R"), Subst("LZ", 1, "fwd")))
    scripts["noexpect"] = DerivationScript("noexpect", "src", (Rotate(1),), expect="nothing")
    return system, scripts


@pytest.mark.parametrize(
    "name, expected",
    [
        ("roundtrip", ("ScriptError", 3, "step 3 (subst LY @ 1 rev): homological image changed")),
        ("fromopaque", ("NotARelator", None, "word is not a homological relator")),
        ("notrelator", ("NotARelator", None, "word is not a homological relator")),
        ("nosource", ("ScriptError", 0, "step 0 (source): word 'nothing' is not declared")),
        ("norelation", ("ScriptError", 2, "step 2 (subst LZ @ 1 fwd): relation 'LZ' is not declared")),
        ("noexpect", ("ScriptError", 0, "step 0 (expect): word 'nothing' is not declared")),
    ],
)
def test_failing_scripts_match_the_oracle(round_trip, name, expected):
    # a word that becomes computable again gets a full signature, so an
    # assumed relation that changes rho still fails at its step
    system, scripts = round_trip
    assert assert_same_as_oracle(system, scripts[name]) == expected


def test_opaque_and_back_matches_the_oracle(round_trip):
    system, scripts = round_trip
    steps = assert_same_as_oracle(system, scripts["back"])[0]
    assert [(s.sigma, s.rho_checked, s.assumed_relation) for s in steps] == [
        (None, None, "LX"),
        (-8, True, "LX"),
        (-8, True, None),
    ]


# --- relation shifts --------------------------------------------------------

SHIFTS = {"LA": 1, "LB": 1, "LC": 1, "LFTV": 1, "BR12": 0, "CM13": 0, "CH12": 7}

# a few moves from the declared relators expose sites the declared words lack
SITE_SCRIPTS = {
    # c2, c4 and c6 move right out of the first half of sigma3: c1 c3 c5 c7 ...
    "genus3_chain.mcg": "script s on sigma3:\n" + "".join(
        f"  elem {i} R\n" for i in (2, 3, 4, 5, 6, 3, 4, 5, 4)
    ),
    # c2 moves right past c1: ... c3 c1 [c1^-1]c2 c1 ...
    "relations_g2.mcg": "script s on rho:\n  elem 4 R\n",
}


def script_words(system, script):
    w = system.words[script.source]
    out = [w]
    for move in script.steps:
        w = apply_move(system, w, move)
        out.append(w)
    return out


def test_relation_shift_table(g2, g3, rel_g2, ex53):
    # a substitution moves sigma by a constant of its relation and
    # direction, at every computable site of every word; substituting
    # back at the same site undoes it, so each site checks both directions
    seen, declared = set(), set()
    for name, system in [("genus2_chain.mcg", g2), ("genus3_chain.mcg", g3), ("relations_g2.mcg", rel_g2)]:
        # ex53's words expose the sites of genus2_chain's relations
        script = ex53 if system is g2 else parse_scripts(SITE_SCRIPTS[name], system)["s"]
        words = list(system.words.values()) + script_words(system, script)
        declared |= set(system.relations)
        for rel in system.relations.values():
            for w in words:
                for position, direction in find_sites(system, w, rel):
                    after = substitute(system, w, rel, position, direction)
                    back = "rev" if direction == "fwd" else "fwd"
                    assert substitute(system, after, rel, position, back) == w
                    try:
                        delta = factorization_signature(system, after) - factorization_signature(system, w)
                    except UnknownClass:
                        continue  # ex52's words: opaque letters
                    shift = SHIFTS[rel.name] if direction == "fwd" else -SHIFTS[rel.name]
                    assert delta == shift, (rel.name, position, direction)
                    seen |= {(rel.name, direction), (rel.name, back)}
    assert declared == set(SHIFTS)
    assert seen == {(name, direction) for name in SHIFTS for direction in ("fwd", "rev")}


@pytest.fixture
def class_reads(monkeypatch):
    """The number of class tables read with ``_known_classes``."""
    calls = []
    original = symplectic._known_classes

    def counting(system, pairs):
        calls.append(1)
        return original(system, pairs)

    monkeypatch.setattr(symplectic, "_known_classes", counting)
    return calls


def test_replay_reads_classes_only_while_loading(class_reads, capsys):
    # loading checks the relations through _known_classes; replay reads
    # its words' classes and its substitutions' shifts from the class
    # table it keeps.  test_fixture_scripts_match_the_oracle holds each
    # ex53 step's sigma to factorization_signature of the step's word
    system = str(fixture_path("genus2_chain.mcg"))
    counts = []
    for argv in (["check", system], ["replay", system, str(fixture_path("ex53.script")), "--json"]):
        class_reads.clear()
        assert run_command(argv) == 0
        counts.append(len(class_reads))
    capsys.readouterr()
    assert counts == [10, 10]


# --- rendering --------------------------------------------------------------


@pytest.fixture
def rendered(monkeypatch):
    """The words moves renders and the letters anything renders."""
    calls = {"render_word": 0, "render_letter": 0}
    for module, name in [(moves, "render_word"), (words, "render_letter")]:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_replay_renders_no_step_word(g2, ex53, rendered):
    # ex53 has no conj step, whose move text renders its conjugator
    assert not any(isinstance(move, Conj) for move in ex53.steps)
    result = replay_script(g2, ex53)
    assert rendered == {"render_word": 0, "render_letter": 0}
    assert all(isinstance(step.word, Word) for step in result.steps)
    assert result.steps[-1].word == result.final


def script_text(script):
    lines = [f"script {script.name} on {script.source}:"]
    lines += [f"  {move}" for move in script.steps] + [f"  expect {script.expect}"]
    return "\n".join(lines) + "\n"


def test_replay_json_renders_the_same_letters_for_a_padded_script(
    g2, ex53, rendered, tmp_path, capsys
):
    # padded_script's conj pairs undo each other as pairs, so dropping
    # them leaves elem and rot pairs that undo each other
    padded = padded_script(g2, ex53, 0, 6)
    padded = DerivationScript(
        padded.name, padded.source,
        tuple(m for m in padded.steps if not isinstance(m, Conj)), padded.expect,
    )
    assert len(padded.steps) > 4 * len(ex53.steps)
    counts = []
    for script in (ex53, padded):
        path = tmp_path / f"{script.name}.script"
        path.write_text(script_text(script))
        rendered["render_letter"] = 0
        assert run_command(["replay", str(fixture_path("genus2_chain.mcg")), str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == len(script.steps)
        counts.append(rendered["render_letter"])
    # the final word, once
    assert counts == [len(g2.words["rhoprime"])] * 2
