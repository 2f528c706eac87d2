"""Spans and counts around the program's public functions.

The tracer replaces each listed function, in every mcgcalc module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent) and a call count.  Self time (a span minus the part its
child spans cover) is accumulated online through a stack, so it is
exact for every call; the raw spans are kept in memory up to a cap and
written out when the run ends.  ``uninstall`` puts the originals back;
``install`` may be called again and reuses the same wrappers.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (layer, function) pairs; the function is looked up in mcgcalc.<layer>.
TRACED = [
    ("cli", "run_command"),
    ("parser", "parse_system"),
    ("parser", "parse_scripts"),
    ("words", "normalize_conjugator"),
    ("system", "validate_relation_decl"),
    ("system", "solve_lantern_classes"),
    ("symplectic", "rho_image"),
    ("symplectic", "rho_letter"),
    ("symplectic", "transvection"),
    ("symplectic", "mat_mul"),
    ("symplectic", "is_symplectic"),
    ("symplectic", "smith_normal_form"),
    ("meyer", "factorization_signature"),
    ("meyer", "meyer_tau"),
    ("meyer", "integer_kernel"),
    ("meyer", "signature_of_symmetric"),
    ("moves", "replay_script"),
    ("moves", "elementary_transformation"),
    ("moves", "substitute"),
    ("reports", "full_report"),
    ("reports", "substitution_delta_report"),
]

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.nonzero: dict[str, int] = defaultdict(int)
        self.lantern_candidates = 0
        self.lantern_solutions = 0
        self.sigma_recompute = 0
        self.sigma_steps = 0
        self.sigma_changed = 0
        self.step_ms: list[float] = []
        self.spans = array("q")  # name id, start ns, end ns, parent span index (-1: root)
        self.spans_dropped = 0
        self._stack: list[list] = []  # [name id, start ns, child ns, span index, payload]
        self._bindings: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if not self._bindings:
            mods = [m for n, m in sys.modules.items() if n == "mcgcalc" or n.startswith("mcgcalc.")]
            for layer, fname in TRACED:
                original = getattr(sys.modules[f"mcgcalc.{layer}"], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                self._bindings += [(m, fname, original, wrapper)
                                   for m in mods if getattr(m, fname, None) is original]
        for mod, fname, _original, wrapper in self._bindings:
            setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original, _wrapper in self._bindings:
            setattr(mod, fname, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = len(spans) // 4
            if index < SPAN_CAP:
                spans.extend((nid, 0, 0, parent))
            else:
                index = -1
                tracer.spans_dropped += 1
            frame = [nid, 0, 0, index, None]
            stack.append(frame)
            frame[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, perf_counter_ns(), args, kwargs, exc=exc)
                raise
            tracer._close(name, frame, perf_counter_ns(), args, kwargs, result=result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- accounting -----------------------------------------------------

    def _close(self, name, frame, end, args, kwargs, result=None, exc=None):
        stack = self._stack
        stack.pop()
        start = frame[1]
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[2]
        self.total_ns[name] += dur
        if stack:
            stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[4 * frame[3] + 1] = start
            self.spans[4 * frame[3] + 2] = end
        if exc is not None:
            self.raised[(name, type(exc).__name__)] += 1
        if name == "meyer.meyer_tau" and exc is None and result:
            self.nonzero[name] += 1
        elif name == "system.solve_lantern_classes" and exc is None:
            system, right = args[0], args[2]
            bound = kwargs.get("bound", args[3] if len(args) > 3 else 2)
            if sum(1 for r in right if r is None) == 2:
                # the box search's candidates, computed from the arguments
                self.lantern_candidates += (2 * bound + 1) ** (2 * system.genus)
                self.lantern_solutions += len(result)
        elif name == "meyer.factorization_signature" and stack and \
                self.names[stack[-1][0]] == "moves.replay_script":
            replay = stack[-1]
            if replay[4] is None:
                replay[4] = []
            replay[4].append((end, None if exc is not None else result))
            self.sigma_recompute += 1
        elif name == "moves.replay_script" and frame[4]:
            self._replay_steps(frame[4])

    def _replay_steps(self, seq) -> None:
        """Per-step sigma records of one replay: initial, one per step, final."""
        steps = seq[1:-1]
        prev_end, prev_sigma = seq[0]
        for end, sigma in steps:
            self.step_ms.append((end - prev_end) / 1e6)
            if sigma is not None:
                self.sigma_steps += 1
                if prev_sigma is not None and sigma != prev_sigma:
                    self.sigma_changed += 1
            prev_end, prev_sigma = end, sigma

    # -- results --------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced op where the unit says so."""

        def ms(name):
            return (self.self_ns[name] / 1e6 / ops, "ms/op")

        def calls(name):
            return (self.calls[name] / ops, "count/op")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        c = self.calls
        return {
            "parser.parse_system_ms": ms("parser.parse_system"),
            "parser.parse_scripts_ms": ms("parser.parse_scripts"),
            "cli.self_ms": ms("cli.run_command"),
            "words.normalize_calls": calls("words.normalize_conjugator"),
            "words.normalize_ms": ms("words.normalize_conjugator"),
            "system.validate_relation_calls": calls("system.validate_relation_decl"),
            "system.validate_relation_ms": ms("system.validate_relation_decl"),
            "system.solve_lantern_ms": ms("system.solve_lantern_classes"),
            "system.lantern_candidates": (self.lantern_candidates / ops, "count/op"),
            "system.lantern_hit_ratio": ratio(self.lantern_solutions, self.lantern_candidates),
            "symplectic.rho_image_calls": calls("symplectic.rho_image"),
            "symplectic.rho_image_ms": ms("symplectic.rho_image"),
            "symplectic.rho_refused_ratio": ratio(
                self.raised[("symplectic.rho_image", "UnknownClass")], c["symplectic.rho_image"]),
            "symplectic.rho_letter_calls": calls("symplectic.rho_letter"),
            "symplectic.rho_letter_ms": ms("symplectic.rho_letter"),
            "symplectic.transvection_calls": calls("symplectic.transvection"),
            "symplectic.transvection_ms": ms("symplectic.transvection"),
            "symplectic.mat_mul_calls": calls("symplectic.mat_mul"),
            "symplectic.mat_mul_ms": ms("symplectic.mat_mul"),
            "symplectic.is_symplectic_calls": calls("symplectic.is_symplectic"),
            "symplectic.is_symplectic_ms": ms("symplectic.is_symplectic"),
            "symplectic.snf_calls": calls("symplectic.smith_normal_form"),
            "symplectic.snf_ms": ms("symplectic.smith_normal_form"),
            "meyer.signature_calls": calls("meyer.factorization_signature"),
            "meyer.signature_ms": ms("meyer.factorization_signature"),
            "meyer.tau_calls": calls("meyer.meyer_tau"),
            "meyer.tau_ms": ms("meyer.meyer_tau"),
            "meyer.tau_nonzero_ratio": ratio(self.nonzero["meyer.meyer_tau"], c["meyer.meyer_tau"]),
            "meyer.kernel_ms": ms("meyer.integer_kernel"),
            "meyer.sym_signature_ms": ms("meyer.signature_of_symmetric"),
            "moves.replay_ms": ms("moves.replay_script"),
            "moves.step_ms_p50": (statistics.median(self.step_ms) if self.step_ms else 0.0, "ms"),
            "moves.elem_calls": calls("moves.elementary_transformation"),
            "moves.elem_ms": ms("moves.elementary_transformation"),
            "moves.subst_calls": calls("moves.substitute"),
            "moves.subst_ms": ms("moves.substitute"),
            "moves.sigma_recompute_calls": (self.sigma_recompute / ops, "count/op"),
            "moves.sigma_changed_ratio": ratio(self.sigma_changed, self.sigma_steps),
            "reports.full_report_ms": ms("reports.full_report"),
            "reports.delta_report_ms": ms("reports.substitution_delta_report"),
        }

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans (columns) and the per-function totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [self.spans[i::4].tolist() for i in range(4)]
        doc = {
            **extra,
            "names": self.names,
            "spans": {"name": cols[0], "start_ns": cols[1], "end_ns": cols[2], "parent": cols[3]},
            "spans_dropped": self.spans_dropped,
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "raised": {f"{n}:{e}": v for (n, e), v in self.raised.items()},
        }
        path.write_text(json.dumps(doc))
