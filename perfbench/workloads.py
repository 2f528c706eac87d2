"""Workload inputs: generated system files, op lists and their oracles.

Each builder writes its input files into a fresh directory, parses
them once with the program's own parser (that is part of set-up), and
returns the op list: one CLI argument vector per operation together
with the oracle its output must match.  Builders take the workload
seed; the same seed gives byte-identical files and the same ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from oracles import (
    REPLAY_ORACLES,
    chain_class,
    class_text,
    hyperelliptic_oracle,
    letter_class,
    plus_minus,
)

Pair = tuple[str, int]
GenLetter = tuple[tuple[Pair, ...], str]  # (conjugator in display order, base curve)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    kind: str  # key into oracles.CHECKERS
    oracle: dict


# -- genus-g chain systems ---------------------------------------------


def chain_system_text(g: int, words: dict[str, str]) -> str:
    """The chain c1..c_{2g+1} with classes, meet1 and disjoint facts."""
    m = 2 * g + 1
    lines = [f"# genus-{g} chain c1..c{m}", f"genus {g}"]
    lines += [f"curve c{i} = {class_text(chain_class(g, i))}" for i in range(1, m + 1)]
    lines += [f"meet1 c{i} c{i + 1}" for i in range(1, m)]
    lines += [f"disjoint c{i} c{j}" for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    lines += [f"word {name} = {expr}" for name, expr in words.items()]
    return "\n".join(lines) + "\n"


def hyperelliptic_letters(g: int) -> list[str]:
    """One copy of c1 ... c_{2g} c_{2g+1}^2 c_{2g} ... c1 (half the relator)."""
    up = [f"c{i}" for i in range(1, 2 * g + 1)]
    return up + [f"c{2 * g + 1}"] * 2 + up[::-1]


def hyperelliptic_expr(g: int, k: int) -> str:
    """w^k with w = (c1 ... c_{2g} c_{2g+1}^2 c_{2g} ... c1)^2."""
    up = " ".join(f"c{i}" for i in range(1, 2 * g + 1))
    down = " ".join(f"c{i}" for i in range(2 * g, 0, -1))
    return f"({up} c{2 * g + 1}^2 {down})^{2 * k}"


# -- seeded Hurwitz rewriting (the benchmark's own word algebra) --------


def _free_reduce(pairs) -> tuple[Pair, ...]:
    out: list[Pair] = []
    for name, sign in pairs:
        if out and out[-1] == (name, -sign):
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def _conjugate(prefix: tuple[Pair, ...], letter: GenLetter) -> GenLetter:
    """[prefix]([conj]base); twists along the base itself fix it and go."""
    conj, base = letter
    pairs = list(_free_reduce(prefix + conj))
    while pairs and pairs[-1][0] == base:
        pairs.pop()
    return _free_reduce(pairs), base


def _flatten(letter: GenLetter, sign: int) -> tuple[Pair, ...]:
    conj, base = letter
    inv = tuple((n, -s) for n, s in reversed(conj))
    return _free_reduce(conj + ((base, sign),) + inv)


MAX_MOVE_CONJ = 12  # cap on a letter's conjugator length during the move phase


def hurwitz_rewrite(letters: list[GenLetter], g: int, rng: random.Random) -> list[GenLetter]:
    """About one elementary transformation per letter, then a conjugation.

    R at i: (x, y) -> (y, [y^-1]x); L at i: (x, y) -> ([x]y, x).  A move
    that would push a conjugator past MAX_MOVE_CONJ twists is redrawn.
    The final simultaneous conjugation is by u (c1 c2^-1)^m v, whose
    pseudo-Anosov factor makes the homology classes grow.  Only the moves
    are seeded: u = c3 c2, v = c4^-1 c3 and m = 3 + (g mod 2) are fixed,
    because seeded outer twists changed the work per op by 10-25 % from
    seed to seed, while with them fixed it varies by about 6 %.
    """
    word = list(letters)
    for _ in range(len(word)):
        for _attempt in range(16):
            i = rng.randrange(len(word) - 1)
            x, y = word[i], word[i + 1]
            if rng.random() < 0.5:
                pair = (y, _conjugate(_flatten(y, -1), x))
            else:
                pair = (_conjugate(_flatten(x, 1), y), x)
            if all(len(c) <= MAX_MOVE_CONJ for c, _ in pair):
                word[i : i + 2] = pair
                break
    conj = (("c3", 1), ("c2", 1)) + (("c1", 1), ("c2", -1)) * (3 + g % 2) + (("c4", -1), ("c3", 1))
    return [_conjugate(conj, letter) for letter in word]


def render_gen_letter(letter: GenLetter) -> str:
    conj, base = letter
    if not conj:
        return base
    runs: list[list] = []
    for name, sign in conj:
        if runs and runs[-1][0] == name and (runs[-1][1] > 0) == (sign > 0):
            runs[-1][1] += sign
        else:
            runs.append([name, sign])
    body = " ".join(n if e == 1 else f"{n}^{e}" for n, e in runs)
    return f"[{body}]{base}"


# -- builders ----------------------------------------------------------


LADDER_GENERA = range(2, 7)
LADDER_POWERS = (1, 2, 4)
CONJ_POINTS = [(g, k) for g in range(2, 6) for k in (1, 2)] + [(6, 1)]


def _parse_check(prog, path: Path, words: dict[str, list[GenLetter]] | None = None):
    """Parse a written system file and assert the render -> parse round trip.

    For generated rewritten words, every parsed letter must carry the
    class of the generated letter (up to sign: the normal form may move
    to the other end of a one-point pair), and mcgcalc's rendering of
    the parsed word must parse back to identical letters.
    """
    system = prog.parser.parse_system(path.read_text(), str(path))
    violations = prog.system.validate_system(system)
    if violations:
        raise RuntimeError(f"{path.name}: {violations}")
    g = system.genus
    classes = {f"c{i}": chain_class(g, i) for i in range(1, 2 * g + 2)}
    for name, gen in (words or {}).items():
        parsed = system.words[name]
        if len(parsed.letters) != len(gen):
            raise RuntimeError(f"{path.name}:{name}: {len(parsed.letters)} letters, generated {len(gen)}")
        for (letter, _), (conj, base) in zip(parsed.letters, gen):
            got = letter_class(classes, letter.conj, letter.base)
            if not plus_minus(got, letter_class(classes, conj, base)):
                raise RuntimeError(f"{path.name}:{name}: letter {letter!r} changed class")
        text = prog.words.render_word(parsed)
        again = prog.parser.parse_word(system, text)
        if again.letters != parsed.letters:
            raise RuntimeError(f"{path.name}:{name}: render -> parse is not the identity")
    return system


def build_ladder(prog, workdir: Path, seed: int) -> list[Op]:
    """invariants --json on w^k, g = 2..6, k in {1, 2, 4}: n = 20 .. 208."""
    ops = []
    for g in LADDER_GENERA:
        path = workdir / f"ladder_g{g}.mcg"
        words = {f"w{k}": hyperelliptic_expr(g, k) for k in LADDER_POWERS}
        path.write_text(chain_system_text(g, words))
        _parse_check(prog, path)
        for k in LADDER_POWERS:
            oracle = hyperelliptic_oracle(f"w{k}", g, k)
            closed = prog.meyer.hyperelliptic_signature(g, oracle["n"])
            if closed != oracle["sigma"]:
                raise RuntimeError(f"hyperelliptic_signature({g}, {oracle['n']}) = {closed}")
            ops.append(Op(f"g{g}k{k}", ("invariants", str(path), f"w{k}", "--json"),
                          "invariants", oracle))
    return ops


def build_conjugated(prog, workdir: Path, seed: int) -> list[Op]:
    """The ladder relators for g = 2..5, k in {1, 2} (and g = 6, k = 1),
    rewritten by seeded Hurwitz moves and a simultaneous conjugation.
    e, sigma and H1 are Hurwitz invariants, so the plain oracle holds."""
    ops = []
    for g in sorted({g for g, _ in CONJ_POINTS}):
        rng = random.Random(f"conjugated:{seed}:{g}")
        gen = {}
        for k in (k for gg, k in CONJ_POINTS if gg == g):
            plain = [((), name) for name in hyperelliptic_letters(g) * (2 * k)]
            gen[f"v{k}"] = hurwitz_rewrite(plain, g, rng)
        path = workdir / f"conjugated_g{g}.mcg"
        path.write_text(chain_system_text(
            g, {name: " ".join(map(render_gen_letter, letters)) for name, letters in gen.items()}))
        _parse_check(prog, path, gen)
        for name in gen:
            k = int(name[1:])
            ops.append(Op(f"g{g}k{k}c", ("invariants", str(path), name, "--json"),
                          "invariants", hyperelliptic_oracle(name, g, k)))
    return ops


def _copy_fixture(prog, workdir: Path, name: str) -> Path:
    path = workdir / name
    path.write_text(prog.fixture_path(name).read_text())
    return path


def build_replay(prog, workdir: Path, seed: int) -> list[Op]:
    """replay --json of ex53 and the three ex52 scripts, plus ex53 --trace."""
    g2 = _copy_fixture(prog, workdir, "genus2_chain.mcg")
    g3 = _copy_fixture(prog, workdir, "genus3_chain.mcg")
    ex53 = _copy_fixture(prog, workdir, "ex53.script")
    ex52 = _copy_fixture(prog, workdir, "ex52.script")
    for sys_path, script in ((g2, ex53), (g3, ex52)):
        system = _parse_check(prog, sys_path)
        prog.parser.parse_scripts(script.read_text(), system, str(script))
    ops = [Op("ex53", ("replay", str(g2), str(ex53), "--json"), "replay_json", REPLAY_ORACLES["ex53"])]
    for name in ("ex52_tau", "ex52_tauprime", "ex52_blowdown"):
        ops.append(Op(name, ("replay", str(g3), str(ex52), "--name", name, "--json"),
                      "replay_json", REPLAY_ORACLES[name]))
    ops.append(Op("ex53_trace", ("replay", str(g2), str(ex53), "--trace"),
                  "replay_text", REPLAY_ORACLES["ex53"]))
    return ops


def build_lantern(prog, workdir: Path, seed: int) -> list[Op]:
    """solve-lantern with two unknowns: genus 2 at bounds 2 and 3, genus 3 at bound 1.

    Genus 3 at bound 2 (about 12 s per op at the seed commit) is left
    out and recorded as a known slow case.
    """
    g2 = _copy_fixture(prog, workdir, "genus2_chain.mcg")
    g3 = _copy_fixture(prog, workdir, "genus3_chain.mcg")
    _parse_check(prog, g2)
    _parse_check(prog, g3)
    c2 = {f"c{i}": chain_class(2, i) for i in range(1, 6)}
    c3 = {f"c{i}": chain_class(3, i) for i in range(1, 8)}
    a2 = (0, 0, 1, 0, 0, 0)
    g2_case = {"count": 4, "genus": 2, "d": [c2["c3"], c2["c5"], c2["c5"], c2["c3"]],
               "known": c2["c1"], "declared": [(0, 0, 0, 0), (1, 0, 2, 0)]}  # (k, h)
    g3_case = {"count": 8, "genus": 3, "d": [c3["c1"], c3["c3"], c3["c5"], c3["c7"]],
               "known": a2, "declared": [(1, 0, 0, 0, -1, 0), (1, 0, 1, 0, 1, 0)]}  # (t, v)
    ops = []
    for bound in (2, 3):
        ops.append(Op(f"g2b{bound}", ("solve-lantern", str(g2), "c3", "c5", "c5", "c3",
                                      "--known", "c1", "--bound", str(bound)),
                      "lantern", {**g2_case, "bound": bound}))
    ops.append(Op("g3b1", ("solve-lantern", str(g3), "c1", "c3", "c5", "c7",
                           "--known", "f1", "--bound", "1"),
                  "lantern", {**g3_case, "bound": 1}))
    return ops


BUILDERS = {
    "ladder": build_ladder,
    "conjugated": build_conjugated,
    "replay": build_replay,
    "lantern": build_lantern,
}
