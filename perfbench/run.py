"""mcgcalc benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  Every operation is an
in-process ``mcgcalc.cli.run_command([...])`` call, so it pays what a
user pays: the file read, ``parse_system`` with relation validation,
the computation and the output rendering.  Each op's output is checked
against an independent oracle (``oracles.py``).

The loop runs whole rounds of the workload's op list, shuffled by the
seed each round, until the next round would end past ``--seconds``.
Every op is timed between two runs of a fixed reference computation,
and the bounded time metrics are op costs in units of it (see
``reference_ms``).  With ``--trace 0`` the last line is the end-to-end
metrics; with ``--trace 1`` every op runs once untraced and once
traced, and the last line is the per-layer metrics (spans written under
``.perfbench_out/``).  Working files live in ``.perfbench_work/`` and
are removed at exit.  ``perfbench/DESIGN.md`` describes it all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from oracles import CHECKERS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SETUP_REPS = 3  # set-ups before the loop; one more runs after each round
REF_NOMINAL_MS = 2.5  # setup_s is given for a machine on which reference_ms() takes this long


def _program_modules() -> list[str]:
    return [n for n in sys.modules if n == "mcgcalc" or n.startswith("mcgcalc.")]


def load_program() -> SimpleNamespace:
    """Import mcgcalc afresh from the checkout's src/ (set-up pays the import)."""
    for name in _program_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("mcgcalc")
    if Path(pkg.__file__).resolve().parent != (SRC / "mcgcalc").resolve():
        raise RuntimeError(f"mcgcalc imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"mcgcalc.{m}") for m in ("cli", "parser", "system", "words", "meyer")}
    return SimpleNamespace(fixture_path=pkg.fixture_path, **mods)


def set_up(workload: str, seed: int, rep_dir: Path):
    """One set-up: import, generate, write, parse and check.

    Returns (seconds, mean reference ms around it, prog, ops)."""
    before = reference_ms()
    t0 = time.perf_counter()
    prog = load_program()
    rep_dir.mkdir(parents=True)
    ops = BUILDERS[workload](prog, rep_dir, seed)
    secs = time.perf_counter() - t0
    return secs, (before + reference_ms()) / 2, prog, ops


def extra_set_up(workload: str, seed: int, rep_dir: Path) -> tuple[float, float]:
    """A timed set-up between rounds that leaves the loaded program in place."""
    saved = {name: sys.modules[name] for name in _program_modules()}
    try:
        return set_up(workload, seed, rep_dir)[:2]
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        shutil.rmtree(rep_dir, ignore_errors=True)
        gc.collect()  # free the dropped module copies now, so peak RSS does not grow with rounds


_REF_MATRIX = tuple(tuple((7 * i + 3 * j) % 11 - 5 for j in range(6)) for i in range(6))


def reference_ms() -> float:
    """Time (ms) of a fixed pure-Python computation shaped like mcgcalc's
    hot loop: 60 products of 6x6 integer tuple matrices.

    The machine this runs on is shared and its speed swings by up to 2x
    within seconds and drifts over minutes; timing this probe next to
    every op measures that speed, so an op's time divided by it is the
    op's cost in machine-independent units (``ref``).  Garbage
    collection is off during the probe so that the program's garbage
    does not land in it.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        m = _REF_MATRIX
        for _ in range(60):
            cols = tuple(zip(*_REF_MATRIX))
            m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 1000003 for col in cols) for row in m)
        return (time.perf_counter() - t0) * 1e3
    finally:
        if gc_was_on:
            gc.enable()


def run_op(prog, op) -> tuple[float, str | None]:
    """Run one op; return its wall latency (ms) and the failure reason, if any."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = prog.cli.run_command(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return (time.perf_counter() - t0) * 1e3, f"raised {exc!r}"
    ms = (time.perf_counter() - t0) * 1e3
    try:
        return ms, CHECKERS[op.kind](op.oracle, rc, out.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ms, f"unreadable output: {exc!r}"


def self_test(prog, op) -> None:
    """A deliberately wrong oracle value must make the op count as failed."""
    key = next(k for k, v in op.oracle.items() if type(v) is int)
    wrong = replace(op, oracle={**op.oracle, key: op.oracle[key] + 1})
    if run_op(prog, wrong)[1] is None:
        raise RuntimeError(f"self-test: {op.label} passed with a wrong {key}")


def run_rounds(ops, rng, seconds, step, between=None) -> tuple[int, float]:
    """Closed loop over whole rounds, each shuffled by the seed, until the
    next round would end past ``seconds``; ``step(op)`` runs one op and
    ``between()`` runs after each round.  Returns the rounds and the
    seconds spent in them."""
    rounds = 0
    busy = 0.0
    t0 = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        r0 = time.perf_counter()
        for op in order:
            step(op)
        busy += time.perf_counter() - r0
        rounds += 1
        if between is not None:
            between()
        if (time.perf_counter() - t0) * (rounds + 1) / rounds > seconds:
            return rounds, busy


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mcgcalc" / "__init__.py").is_file():
        print(f"no mcgcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        setups = []  # (seconds, reference ms)
        for rep in range(SETUP_REPS):
            secs, ref, prog, ops = set_up(args.workload, args.seed, work / f"setup{rep}")
            setups.append((secs, ref))
        for kind in dict.fromkeys(op.kind for op in ops):
            self_test(prog, next(op for op in ops if op.kind == kind))
        rng = random.Random(f"order:{args.workload}:{args.seed}")
        if args.trace:
            return traced_run(prog, ops, rng, args)

        def between():
            setups.append(extra_set_up(args.workload, args.seed, work / f"setup{len(setups)}"))

        return timed_run(prog, ops, rng, args, setups, between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def report(args, attempted: int, failures: list[str], metrics: dict, lines: list[str]) -> int:
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    print(f"  fail_ratio = {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(prog, ops, rng, args, setups: list[tuple[float, float]], between) -> int:
    samples: list[tuple[str, float, float]] = []  # label, ms, ms / reference ms
    refs: list[float] = []
    failures: list[str] = []

    def step(op):
        before = reference_ms()
        ms, problem = run_op(prog, op)
        after = reference_ms()
        samples.append((op.label, ms, 2 * ms / (before + after)))
        refs.extend((before, after))
        if problem is not None:
            failures.append(f"{op.label}: {problem}")

    rounds, wall = run_rounds(ops, rng, args.seconds, step, between)
    ok = len(samples) - len(failures)
    lat = [ms for _, ms, _ in samples]
    cost = [r for _, _, r in samples]
    by_label: dict[str, list[tuple[float, float]]] = {}
    for label, ms, r in samples:
        by_label.setdefault(label, []).append((ms, r))

    def geomean(i):
        return statistics.geometric_mean([statistics.fmean(x[i] for x in v) for v in by_label.values()])

    tail_ref, tail_pct, beyond = tail(cost)
    metrics = {
        "ops_per_kref": (1000 * ok / sum(cost), "1/kref"),
        "op_ref_geomean": (geomean(1), "ref"),
        "op_ref_tail": (tail_ref, "ref"),
        "setup_s": (statistics.median(secs * REF_NOMINAL_MS / ref for secs, ref in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    lines = [
        f"{len(ops)} ops per round, {rounds} rounds, {len(samples)} ops in {wall:.2f} s",
        f"reference computation: median {statistics.median(refs):.4g} ms"
        f" (quartiles {' / '.join(f'{q:.4g}' for q in statistics.quantiles(refs, n=4))})",
        f"ops_per_s = {1000 * ok / sum(lat):.6g} 1/s",
        f"op_ms_p50 = {statistics.median(lat):.6g} ms",
        f"op_ms_geomean = {geomean(0):.6g} ms",
        f"op_ms_tail = {tail(lat)[0]:.6g} ms",
        f"op_ref_tail and op_ms_tail are p{tail_pct:.1f} of {len(lat)} samples ({beyond} beyond it)",
        f"setup_s is the median of {len(setups)} set-ups, {SETUP_REPS} before the loop and one"
        f" after each round, scaled to a {REF_NOMINAL_MS} ms reference; unscaled median"
        f" {statistics.median(secs for secs, _ in setups):.4g} s",
        "per-op mean ms: " + ", ".join(
            f"{k} {statistics.fmean(ms for ms, _ in v):.1f}" for k, v in sorted(by_label.items())),
    ]
    return report(args, len(samples), failures, metrics, lines)


def traced_run(prog, ops, rng, args) -> int:
    """Each op runs twice back to back, untraced and traced, in alternating
    order; the per-layer metrics come from the traced runs and the overhead
    from the paired difference, so machine drift between rounds cancels."""
    tracer = Tracer()
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    failures: list[str] = []

    def step(op):
        for traced in ((False, True) if len(plain_ms) % 2 else (True, False)):
            if traced:
                tracer.install()
            try:
                ms, problem = run_op(prog, op)
            finally:
                tracer.uninstall()
            (traced_ms if traced else plain_ms).append(ms)
            if problem is not None:
                failures.append(f"{op.label}: {problem}")

    rounds, _ = run_rounds(ops, rng, args.seconds, step)
    metrics = tracer.metrics(len(traced_ms))
    metrics["trace.op_ms"] = (statistics.fmean(traced_ms), "ms/op")
    metrics["trace.overhead_pct"] = (100.0 * (sum(traced_ms) / sum(plain_ms) - 1), "%")
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}.json"
    tracer.dump(out, {"workload": args.workload, "seed": args.seed, "ops": len(traced_ms)})
    lines = [
        f"{len(ops)} ops per round, {rounds} rounds, each op untraced and traced",
        f"first {len(tracer.spans) // 4} spans written to {out.relative_to(ROOT)}"
        f" ({tracer.spans_dropped} later spans counted but not kept)",
    ]
    return report(args, len(plain_ms) + len(traced_ms), failures, metrics, lines)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # set-up or self-test failure: no result line
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        sys.exit(1)
