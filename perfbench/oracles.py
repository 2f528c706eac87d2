"""Independent oracles for the benchmark's operations.

Nothing here imports mcgcalc: the expected values come from closed
forms (the hyperelliptic chain relator), from the paper's recorded
results for the bundled derivations, and from a small symplectic
algebra of the benchmark's own.  Each checker takes an oracle dict,
the command's exit code and its standard output, and returns None when
the output agrees and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Sequence

Vec = tuple[int, ...]

# -- symplectic algebra, basis a1, b1, ..., ag, bg ----------------------


def pairing(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2))


def transvect(v: Sequence[int], a: Sequence[int], sign: int = 1) -> Vec:
    """T_a^sign applied to v: v + sign * <v, a> a."""
    c = sign * pairing(v, a)
    return tuple(x + c * y for x, y in zip(v, a))


def letter_class(classes: dict[str, Vec], conj: Sequence[tuple[str, int]], base: str) -> Vec:
    """Class of [conj]base; the leftmost twist of conj is applied last."""
    v = classes[base]
    for name, sign in reversed(conj):
        v = transvect(v, classes[name], sign)
    return v


def twist_product(vectors: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Matrix of T_{v1} ... T_{vr} as a tuple of images of the basis."""
    images = []
    for j in range(dim):
        x = tuple(1 if i == j else 0 for i in range(dim))
        for v in reversed(vectors):
            x = transvect(x, v)
        images.append(x)
    return tuple(images)


def chain_class(g: int, i: int) -> Vec:
    """Class of the chain curve c_i on the genus-g surface (1 <= i <= 2g+1)."""
    v = [0] * (2 * g)
    if i % 2 == 0:
        v[2 * (i // 2 - 1) + 1] = 1
    else:
        j = (i - 1) // 2  # c_{2j+1} = a_j + a_{j+1}, with a_0 = a_{g+1} = 0
        if j >= 1:
            v[2 * (j - 1)] = 1
        if j + 1 <= g:
            v[2 * j] = 1
    return tuple(v)


def class_text(v: Sequence[int]) -> str:
    """A class in the system-file syntax, e.g. ``a1 - 2 b2``."""
    terms = []
    for idx, c in enumerate(v):
        if c:
            name = f"{'ab'[idx % 2]}{idx // 2 + 1}"
            mag = "" if abs(c) == 1 else f"{abs(c)} "
            terms.append(("- " if c < 0 else "+ ") + mag + name)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


_TERM = re.compile(r"([+-])?\s*(\d+)?\s*([ab])(\d+)")


def parse_class_text(text: str, g: int) -> Vec:
    """Inverse of ``class_text``; also reads solve-lantern's listing."""
    v = [0] * (2 * g)
    text = text.strip()
    if text == "0":
        return tuple(v)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"bad class text {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2) or 1)
        v[2 * (int(m.group(4)) - 1) + (0 if m.group(3) == "a" else 1)] += sign * coeff
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return tuple(v)


def plus_minus(u: Vec, v: Vec) -> bool:
    return u == v or u == tuple(-x for x in v)


# -- oracles ----------------------------------------------------------


def hyperelliptic_oracle(word: str, g: int, k: int) -> dict:
    """Invariants of w^k for the genus-g hyperelliptic chain relator w.

    w has n = 4(2g+1) letters and signature -4(g+1); fiber sums add
    both, and the chain classes span H1 of the fiber, so H1 = 0.
    """
    n = 4 * k * (2 * g + 1)
    return {"word": word, "genus": g, "n": n, "e": 4 - 4 * g + n, "sigma": -4 * k * (g + 1)}


def check_invariants(oracle: dict, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    for key in ("word", "genus", "n", "e", "sigma"):
        if doc.get(key) != oracle[key]:
            return f"{key} = {doc.get(key)!r}, oracle {oracle[key]!r}"
    if doc.get("h1") != {"rank": 0, "torsion": []}:
        return f"h1 = {doc.get('h1')!r}, oracle trivial"
    census = doc.get("census", {})
    if census.get("n0") != oracle["n"] or census.get("separating") != {}:
        return f"census = {census!r}, oracle n0 = {oracle['n']} with no separating fibers"
    return None


# Values recorded for the bundled derivations (ex53: rho -> rhoprime on
# genus 2; ex52: the genus-3 alignments and blowdown, opaque curves so
# no signature).
REPLAY_ORACLES = {
    "ex53": {"script": "ex53", "steps": 37, "expected_matched": True,
             "sigma_initial": -12, "sigma_final": -8,
             "lantern_forward_count": 4, "delta_e": -4, "delta_sigma": 4},
    "ex52_tau": {"script": "ex52_tau", "steps": 74, "expected_matched": True,
                 "sigma_initial": None, "sigma_final": None,
                 "lantern_forward_count": 0, "delta_e": 0, "delta_sigma": None},
    "ex52_tauprime": {"script": "ex52_tauprime", "steps": 19, "expected_matched": True,
                      "sigma_initial": None, "sigma_final": None,
                      "lantern_forward_count": 0, "delta_e": 0, "delta_sigma": None},
    "ex52_blowdown": {"script": "ex52_blowdown", "steps": 3, "expected_matched": True,
                      "sigma_initial": None, "sigma_final": None,
                      "lantern_forward_count": 3, "delta_e": -3, "delta_sigma": None},
}


def check_replay_json(oracle: dict, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    for key, want in oracle.items():
        if doc.get(key) != want:
            return f"{key} = {doc.get(key)!r}, oracle {want!r}"
    return None


_STEP_LINE = re.compile(r"  step +\d+ ")


def check_replay_text(oracle: dict, rc: int, out: str) -> Optional[str]:
    """The human-readable ``replay --trace`` listing of ex53."""
    if rc != 0:
        return f"exit code {rc}"
    steps = [line for line in out.splitlines() if _STEP_LINE.match(line)]
    if len(steps) != oracle["steps"]:
        return f"{len(steps)} step lines, oracle {oracle['steps']}"
    if not steps[-1].endswith(f"sigma={oracle['sigma_final']}"):
        return f"last step {steps[-1].strip()!r} does not end at sigma={oracle['sigma_final']}"
    summary = (
        f"replayed {oracle['script']}: {oracle['steps']} steps, "
        f"{oracle['lantern_forward_count']} L-substitutions, "
        f"Δe={oracle['delta_e']:+d}, Δσ={oracle['delta_sigma']:+d}"
    )
    if summary not in out.splitlines():
        return f"summary line missing, oracle {summary!r}"
    return None


def check_lantern(oracle: dict, rc: int, out: str) -> Optional[str]:
    """solve-lantern listing: count, known class, identity, declared pair.

    Every listed triple (r1, r2, r3) must satisfy the lantern identity
    T_d1 T_d2 T_d3 T_d4 = T_r1 T_r2 T_r3, checked here with the
    benchmark's own transvections, and the declared classes of the two
    unknown curves must be among the solutions up to sign.
    """
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    head = f"{oracle['count']} solution(s) with coefficients in [-{oracle['bound']}, {oracle['bound']}]:"
    if not lines or lines[0] != head:
        return f"header {lines[:1]!r}, oracle {head!r}"
    g = oracle["genus"]
    dim = 2 * g
    d = [tuple(x) for x in oracle["d"]]
    target = twist_product(d, dim)
    sols = []
    for line in lines[1:]:
        body = line.strip()
        if not (body.startswith("(") and body.endswith(")")):
            return f"unreadable solution line {line!r}"
        sols.append(tuple(parse_class_text(part, g) for part in body[1:-1].split(", ")))
    if len(sols) != oracle["count"]:
        return f"{len(sols)} solution lines, oracle {oracle['count']}"
    known = tuple(oracle["known"])
    for sol in sols:
        if len(sol) != 3 or sol[0] != known:
            return f"solution {sol} does not keep the known class {known}"
        if twist_product(sol, dim) != target:
            return f"solution {sol} fails the lantern identity"
    want = [tuple(x) for x in oracle["declared"]]
    if not any(plus_minus(s[1], want[0]) and plus_minus(s[2], want[1]) for s in sols):
        return f"declared classes {want} are not among the solutions"
    return None


CHECKERS = {
    "invariants": check_invariants,
    "replay_json": check_replay_json,
    "replay_text": check_replay_text,
    "lantern": check_lantern,
}
