"""Share of traced op time spent in each traced function.

    python3 perfbench/shares.py [.perfbench_out/trace-ladder.json ...]

Reads the span files a ``--trace 1`` run writes and prints, per
function, calls per op, self ms per op, and self and inclusive time as
a share of the traced ops' wall time (inclusive time counts a function
with everything it called; nested calls of one function count once per
call, so inclusive shares can add up to more than 100 %).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted((ROOT / ".perfbench_out").glob("trace-*.json"))
    for path in files:
        doc = json.loads(path.read_text())
        ops = doc["ops"]
        op_ns = doc["total_ns"]["cli.run_command"]
        print(f"{doc['workload']} (seed {doc['seed']}, {ops} traced ops, "
              f"{op_ns / 1e6 / ops:.1f} ms per op in run_command)")
        for name in sorted(doc["total_ns"], key=doc["total_ns"].get, reverse=True):
            self_ns, total_ns = doc["self_ns"][name], doc["total_ns"][name]
            print(f"  {name:40s} {doc['calls'][name] / ops:10.1f} calls/op "
                  f"{self_ns / 1e6 / ops:9.2f} self ms/op {100 * self_ns / op_ns:6.1f} % self "
                  f"{100 * total_ns / op_ns:6.1f} % incl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
