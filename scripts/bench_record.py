#!/usr/bin/env python3
"""Record one benchmark baseline as ``BENCH_<k>.json`` at the root of this checkout.

    python3 scripts/bench_record.py

Runs ``python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0``
in the checkout that holds this script and writes ``BENCH_<k>.json`` there,
k one past the largest already present, with three keys:

* ``env``: the environment line that the bench prints (Python version,
  ``nproc``, CPU model, git commit, seed);
* ``result``: the bench's final JSON object (``correct``, ``attempted``,
  ``failed`` and each workload's end-to-end metrics);
* ``round``: the exact work of one seed-1 round of each workload, the
  values of ``ROUND_WORK``, ``ROUND_PRODUCTS``, ``ORACLE_WALK``,
  ``ROUND_SWEEPS`` and ``ROUND_FRACTIONS`` that ``tests/test_bench_round.py``
  pins, read from that file without importing it.

The bench reads the commit from ``.git``, so run this in a ``git clone``:
an archive or a copy names no commit.  ``peak_rss_mib`` also moves with how
the checkout was made, so compare files made the same way.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "25", "--trace", "0"]
PIN_GROUPS = ("ROUND_WORK", "ROUND_PRODUCTS", "ORACLE_WALK", "ROUND_SWEEPS", "ROUND_FRACTIONS")


def round_pins(path: Path) -> dict:
    """The pin groups assigned at the top level of the test module at ``path``."""
    pins = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in PIN_GROUPS:
                pins[name] = ast.literal_eval(node.value)
    missing = [name for name in PIN_GROUPS if name not in pins]
    if missing:
        sys.exit(f"bench_record: {path} assigns no {', '.join(missing)}")
    return {name: pins[name] for name in PIN_GROUPS}


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> int:
    pins = round_pins(ROOT / "tests" / "test_bench_round.py")
    proc = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_record: bench/run.py exited with {proc.returncode}")
    envs = {line[len("env "):] for line in lines if line.startswith("env ")}
    if len(envs) != 1:
        sys.exit(f"bench_record: expected one environment, the bench printed {len(envs)}")
    record = {"env": json.loads(envs.pop()), "result": json.loads(lines[-1]), "round": pins}
    out = next_path(ROOT)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines[:-1]))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
