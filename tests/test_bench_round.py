"""One seed-1 round of every benchmark workload, with the benchmark's own checks.

``bench/run.py`` times rounds of these requests and counts a run with any
failed check as incorrect.  Running one round here catches the same
failure at test time: an output the checks refuse, or a name or signature
of ``hnzz`` that the bench calls and a change broke.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path):
    work = tmp_path / name
    work.mkdir()
    requests = WORKLOADS[name].setup(1, work)
    assert requests
    problems = [problem for _, problem, _ in map(harness.run_request, requests) if problem]
    assert problems == []
