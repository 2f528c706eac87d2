"""Command-line interface.

Exit codes: 0 success / verified, 1 verification failure, 2 usage or
parse error.  ``--json`` emits a single JSON document with the stable
field names of the report types.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    InvalidSearch,
    InvalidSystem,
    McgError,
    NotARelator,
    ParseError,
    ScriptError,
    UnknownClass,
    UnknownCurve,
)
from .moves import find_sites, replay_script
from .parser import load_system, parse_scripts, read_source
from .reports import full_report, substitution_delta_report
from .system import solve_lantern_classes
from .words import render_word


def _print_json(doc: dict) -> None:
    import json  # imported here: only --json output needs it

    print(json.dumps(doc, indent=2))


def _load(args):
    """The command's system, also kept as ``args.loaded``, where
    ``run_command`` finds it when the command returns; a system that
    breaks its facts is kept too, from the InvalidSystem it raises."""
    try:
        args.loaded = load_system(args.system)
    except InvalidSystem as exc:
        args.loaded = exc.system
        raise
    return args.loaded


def _cmd_check(args) -> int:
    try:
        system, violations = _load(args), []
    except InvalidSystem as exc:
        system, violations = exc.system, exc.violations
    for v in violations:
        print(f"violation: {v}")
    for a in system.assumptions:
        print(f"assumption: {a}")
    if violations:
        print(f"{args.system}: INVALID ({len(violations)} violation(s))")
        return 1
    print(
        f"{args.system}: ok (genus {system.genus}, {len(system.curve_names)} curves, "
        f"{len(system.relations)} relations, {len(system.words)} words)"
    )
    return 0


def _cmd_invariants(args) -> int:
    system = _load(args)
    if args.word not in system.words:
        print(f"word {args.word!r} is not declared in {args.system}", file=sys.stderr)
        return 2
    try:
        report = full_report(system, system.words[args.word])
    except (NotARelator, UnknownClass) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"word": args.word, **report.as_dict()}
        _print_json(doc)
    else:
        c = report.census
        sep = ", ".join(f"n{h}={cnt}" for h, cnt in c.separating) or "none"
        print(f"word {args.word}: genus {report.genus}, {report.n} letters")
        print(f"  e = {report.e}")
        print(f"  sigma = {report.sigma}")
        print(f"  census: n0 = {c.n0}, separating: {sep}" + (
            f", type unknown: {c.sep_type_unknown}" if c.sep_type_unknown else ""))
        print(f"  H1 = {report.h1}")
        if report.b2plus is not None:
            print(f"  b1 = 0, b2+ = {report.b2plus}, b2- = {report.b2minus}")
        for line in report.annotations:
            print(f"  note: {line}")
    return 0


def _cmd_replay(args) -> int:
    system = _load(args)
    scripts = parse_scripts(read_source(args.script), system, args.script)
    if not scripts:
        print(f"no scripts in {args.script}", file=sys.stderr)
        return 2
    name = args.name or next(iter(scripts))
    if name not in scripts:
        print(f"script {name!r} not found in {args.script}", file=sys.stderr)
        return 2
    try:
        result = replay_script(system, scripts[name])
    except ScriptError as exc:
        print(f"replay failed at step {exc.step}: {exc}", file=sys.stderr)
        return 1
    delta = substitution_delta_report(system, result)
    if args.trace:
        for step in result.steps:
            sig = "" if step.sigma is None else f"  sigma={step.sigma}"
            rho = "rho ok" if step.rho_checked else "rho n/a"
            print(f"  step {step.index:3d}  {step.move:24s} len={step.length}  {rho}{sig}")
            print(f"           {render_word(step.word)}")
    if args.json:
        doc = {
            "script": name,
            "source": result.script.source,
            "steps": len(result.steps),
            "final": render_word(result.final),
            "expected_matched": result.expected_matched,
            "sigma_initial": result.sigma_initial,
            "sigma_final": result.sigma_final,
            **delta.as_dict(),
        }
        _print_json(doc)
    else:
        d_sig = "n/a" if delta.delta_sigma is None else f"{delta.delta_sigma:+d}"
        print(
            f"replayed {name}: {len(result.steps)} steps, "
            f"{delta.k} L-substitutions, Δe={delta.delta_e:+d}, Δσ={d_sig}"
        )
        for line in delta.lines:
            print(f"  {line}")
    return 0


def _cmd_sites(args) -> int:
    system = _load(args)
    if args.word not in system.words:
        print(f"word {args.word!r} is not declared", file=sys.stderr)
        return 2
    if args.relation not in system.relations:
        print(f"relation {args.relation!r} is not declared", file=sys.stderr)
        return 2
    sites = find_sites(system, system.words[args.word], system.relations[args.relation])
    for pos, direction in sites:
        print(f"{pos} {direction}")
    if not sites:
        print("no sites")
    return 0


def _cmd_solve_lantern(args) -> int:
    system = _load(args)
    known = list(args.known)
    if len(known) == 1:
        known = known + ["?", "?"]
    if len(known) != 3:
        print("--known takes one name or three entries (use ? for unknowns)", file=sys.stderr)
        return 2
    right = [None if k == "?" else k for k in known]
    try:
        solutions = solve_lantern_classes(system, args.d, right, bound=args.bound)
    except (InvalidSearch, UnknownCurve) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    g = system.genus
    basis = [f"{ab}{i}" for i in range(1, g + 1) for ab in ("a", "b")]

    def fmt(vec):
        terms = []
        for coeff, name in zip(vec, basis):
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(f"+ {name}")
            elif coeff == -1:
                terms.append(f"- {name}")
            else:
                terms.append(f"{'+' if coeff > 0 else '-'} {abs(coeff)} {name}")
        if not terms:
            return "0"
        out = " ".join(terms)
        return out[2:] if out.startswith("+ ") else out

    print(f"{len(solutions)} solution(s) with coefficients in [-{args.bound}, {args.bound}]:")
    for sol in solutions:
        print("  (" + ", ".join(fmt(v) for v in sol) + ")")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` leaves the parser unchanged, so every ``run_command``
    can share it.
    """
    ap = argparse.ArgumentParser(
        prog="mcgcalc",
        description="Positive-relator calculus and Lefschetz fibration invariants",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a system file")
    p.add_argument("system")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="full invariant report for a declared word")
    p.add_argument("system")
    p.add_argument("word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("replay", help="replay a derivation script with verification")
    p.add_argument("system")
    p.add_argument("script")
    p.add_argument("--name", help="script name (default: first in file)")
    # the trace is text and --json promises one document, so not both
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("sites", help="list substitution sites for a relation in a word")
    p.add_argument("system")
    p.add_argument("word")
    p.add_argument("relation")
    p.set_defaults(func=_cmd_sites)

    p = sub.add_parser("solve-lantern", help="enumerate lantern class solutions")
    p.add_argument("system")
    p.add_argument("d", nargs=4, metavar="D")
    p.add_argument("--known", nargs="+", required=True, metavar="NAME|?")
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(func=_cmd_solve_lantern)
    return ap


def run_command(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidSystem as exc:
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except McgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # the system's words hold the system, so dropping them lets
        # reference counting free it, and its class memo, on return
        # instead of the cyclic collector some time later
        loaded = getattr(args, "loaded", None)
        if loaded is not None:
            loaded.words.clear()


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
