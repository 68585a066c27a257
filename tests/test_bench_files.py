"""Every committed ``BENCH_*.json`` is a whole benchmark record.

``scripts/bench_record.py`` writes one from a run of ``bench/run.py`` on a
git clone.  Each must parse, name the 40-hex commit it measured, report a
correct run with no failed request, and hold, for every workload that
``BENCHMARK.json`` declares, each of its end-to-end metrics and the
round's exact work under each of the five pin groups of
``tests/test_bench_round.py``.
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
METRICS = [m["name"] for m in DECLARED["end_to_end"]]
PIN_GROUPS = ("ROUND_WORK", "ROUND_PRODUCTS", "ORACLE_WALK", "ROUND_SWEEPS", "ROUND_FRACTIONS")
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_is_whole(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["env"]["commit"])
    result = record["result"]
    assert result["correct"] is True and result["failed"] == 0
    for workload in WORKLOADS:
        metrics = result["metrics"][workload]
        for name in METRICS:
            assert isinstance(metrics[name]["value"], Real), (workload, name)
        for group in PIN_GROUPS:
            assert workload in record["round"][group], (workload, group)
