#!/usr/bin/env python3
"""Pin the traced per-layer counts of one small seeded request round.

    python3 bench/selftest.py           # exit 0 iff the counts match PINNED
    python3 bench/selftest.py --print   # print the current counts

Runs the round twice, each time under a fresh tracer, and checks that
every ``.count`` and ``.ratio`` metric is identical between the two runs
and equal to the pinned values.  A change in algorithmic work (more
eliminations, another barcode per lift, a larger oracle scan) fails here
even when wall time is too noisy to show it; re-pin deliberately, with
the reason in the change that moves the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

import run

PINNED = {
    "affine.barcodes_per_lift.ratio": 2.0,
    "affine.bars_kept.ratio": 0.3793103448275862,
    "affine.window_positions.count": 158,
    "cli.failed.count": 0,
    "cli.request.count": 5,
    "hn.oracle.count": 3,
    "hn.subreps_per_step.ratio": 102.5,
    "hn.subreps_visited.count": 410,
    "linalg.column_echelon.count": 1787,
    "linalg.image.count": 325,
    "linalg.kernel_basis.count": 354,
    "linalg.matmul.count": 589,
    "linalg.matrix.count": 9526,
    "linalg.preimage.count": 354,
    "linalg.rank.count": 14,
    "linalg.rref.count": 2148,
    "linalg.subspaces_enumerated.count": 580,
    "serialize.bytes_out.count": 1557,
    "zigzag.barcode.count": 7,
    "zigzag.bars.count": 49,
    "zigzag.positions.count": 168,
}


def small_round(d):
    """lift + hn on a 6-cycle probe instance, a zigzag barcode, an oracle
    hn and a short verify: every traced layer does some work."""
    from hnzz import linalg, quiver, zigzag

    import workloads as wl

    aq, rep, truth_n, truth_t = wl.probe_instance(6, 1)
    path = d / "probe6.json"
    wl._write_instance(path, rep, aq, n_classes=truth_n, t_classes=truth_t)
    summands = json.loads((d / "probe6.json.truth.json").read_text())["summands"]
    requests = wl._affine_requests(path, aq, rep.dims, summands)

    rng = random.Random(1)
    q = quiver.Quiver(6, ((0, 1), (2, 1), (2, 3), (3, 4), (5, 4)))
    truth = {zigzag.Interval(0, 3): 1, zigzag.Interval(2, 5): 2, zigzag.Interval(1, 1): 1}
    rep = wl._conjugated(wl._interval_sum(q, truth, linalg.QQ), rng)
    path = d / "zigzag6.json"
    wl._write_instance(path, rep, intervals=truth)
    out = str(path) + ".out"
    requests.append(wl.Request("barcode", ["barcode", str(path), "--out", out], out,
                               wl.check_barcode(truth)))

    q, truth = wl._at_cap_path(2, random.Random(wl.POOL_SEED))
    requests.append(wl._path_oracle(d, "oracle_gf2", q, truth, linalg.GF(2), rng))
    requests.append(wl.Request("verify", ["verify", "--theorem", "b", "--cases", "2", "--seed", "1"],
                               None, wl.check_verify))
    return requests


def traced_counts(d) -> dict:
    import harness
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        requests = small_round(d)
        outcome, per_round = harness.Outcome(), []
        harness.run_rounds(requests, 1, outcome, tracer, per_round)
    finally:
        tracer.uninstall()
    if outcome.failed:
        sys.exit("selftest: requests failed: " + "; ".join(outcome.problems))
    metrics = harness.round_metrics(per_round[0])
    return {k: v for k, v in metrics.items() if k.endswith((".count", ".ratio"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true", help="print the counts and exit")
    args = parser.parse_args()
    run.bootstrap()
    work = run.BENCH_DIR / ".work" / f"selftest-{os.getpid()}"
    try:
        runs = []
        for i in range(2):
            d = work / str(i)
            d.mkdir(parents=True)
            runs.append(traced_counts(d))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.print:
        print(json.dumps(runs[0], indent=4, sort_keys=True))
        return 0
    bad = [k for k in runs[0] if runs[0][k] != runs[1][k]]
    if bad:
        print(f"selftest: counts differ between two runs of the same round: {bad}")
        return 1
    bad = sorted(k for k in set(PINNED) | set(runs[0]) if PINNED.get(k) != runs[0].get(k))
    for k in bad:
        print(f"selftest: {k} = {runs[0].get(k)}, pinned {PINNED.get(k)}")
    if bad:
        return 1
    print(f"selftest: {len(PINNED)} counts match the pinned values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
