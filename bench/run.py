#!/usr/bin/env python3
"""Benchmark of the hnzz subcommands: end-to-end and traced per-layer metrics.

    python3 bench/run.py --workload lift-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --scaling-table --seed 1

Run from the repository root (or any checkout holding src/hnzz).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for every metric, workload and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("lift-long", "zigzag-rational", "oracle-certify")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# "ref" is the time of harness.reference() measured beside each request:
# request times in that unit do not follow the host's speed drift
END_TO_END_UNITS = {
    "request_ref.p50": "ref",
    "request_ref.tail": "ref",
    "requests_per_kref": "1/kref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# printed with the metrics above, but kept out of the JSON line: wall-clock
# figures follow the host's speed, and failed_ratio is 0 on a correct
# program (the result's "failed" field carries it)
RAW_UNITS = {
    "setup_wall_s": "s",
    "reference_s": "s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "requests_per_s": "1/s",
    "failed_ratio": "ratio",
}
LAYER_UNITS = {"count": "count", "self_s": "s", "ratio": "ratio"}


def bootstrap() -> None:
    """Import hnzz from this checkout's src/, and refuse a modified guard."""
    src = ROOT / "src"
    if not (src / "hnzz" / "__init__.py").is_file():
        sys.exit(f"bench: no hnzz sources under {src}; run from a checkout of the repository")
    if os.environ.get("HNZZ_GUARD_OVERRIDE"):
        sys.exit("bench: HNZZ_GUARD_OVERRIDE is set; it changes the program under test")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import hnzz

    if Path(hnzz.__file__).resolve().parent != (src / "hnzz").resolve():
        sys.exit(f"bench: imported hnzz from {hnzz.__file__}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _rounds(seconds: int, round_s: float) -> int:
    return max(MIN_ROUNDS, round(seconds / round_s))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import harness
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    work = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    rounds = _rounds(seconds, w.round_s)
    try:
        setup_times, setup_refs = [], []
        for i in range(1 if trace else SETUP_REPEATS):
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            ref_before = harness.reference_s()
            t0 = time.perf_counter()
            requests = w.setup(seed, d)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(setup_times[-1] / ((ref_before + harness.reference_s()) / 2))

        outcome = harness.Outcome()
        print(f"workload {name}: {w.why}")
        print(f"  seed {seed}, {rounds} rounds of {len(requests)} requests, closed loop, 1 client")
        if not trace:
            harness.run_rounds(requests, rounds, outcome)
            e2e = harness.end_to_end(outcome, setup_times, setup_refs)
            _report_end_to_end(name, e2e)
            _report_requests(requests, outcome)
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        else:
            metrics = _traced_run(w, seed, rounds, requests, work, outcome)
        for problem in outcome.problems[:5]:
            print(f"FAILED {problem}")
        print("env " + json.dumps(environment(seed)))
        _print_result(outcome.failed == 0, outcome.attempted, outcome.failed, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _traced_run(w, seed: int, rounds: int, requests, work: Path, outcome) -> dict:
    """Per-layer metrics: a traced set-up pass, then untraced and traced
    rounds alternately, so host drift falls on both sides of the
    tracing-overhead ratio."""
    import harness
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        d = work / "setup-traced"
        d.mkdir()
        w.setup(seed, d)
        setup_snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    traced = harness.Outcome()
    per_round: list[dict] = []
    for _ in range(max(MIN_ROUNDS, rounds // 3)):
        harness.run_rounds(requests, 1, outcome)
        tracer.install()
        try:
            harness.run_rounds(requests, 1, traced, tracer, per_round)
        finally:
            tracer.uninstall()
    overhead = statistics.median(traced.latencies) / statistics.median(outcome.latencies)
    layers = harness.layer_metrics(per_round, setup_snap, overhead)
    _report_layers(w.name, per_round, layers)
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    outcome.problems += traced.problems
    return {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[1]]} for k, v in layers.items()}


def _report_end_to_end(name: str, e2e: dict) -> None:
    for key, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        line = f"  {name} {key} = {e2e[key]:.6g} {unit}"
        if key.endswith(".tail"):
            line += (f"  (p{e2e['tail_percentile']:.1f} of {e2e['requests']} "
                     f"requests in {e2e['rounds']} rounds, {e2e['tail_beyond']} beyond)")
        print(line)


def _report_requests(requests, outcome) -> None:
    k = len(requests)
    for i, req in enumerate(requests):
        wall = statistics.median(outcome.latencies[i::k])
        ref = statistics.median(outcome.ref_times[i])
        print(f"    median {wall:9.4f} s {ref:9.2f} ref  hnzz {' '.join(req.argv)}")


def _report_layers(name: str, per_round: list[dict], layers: dict) -> None:
    import harness

    print(f"  {name}: spans per round (median of {len(per_round)} traced rounds)")
    for span, calls, self_s in harness.span_table(per_round):
        print(f"    {span:45s} calls {calls:>10} self {self_s:10.6f} s")
    for key, value in layers.items():
        print(f"  {name} {key} = {value:.6g} {LAYER_UNITS[key.rsplit('.', 1)[1]]}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"{'metric':38s} " + " ".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    for key in results[WORKLOAD_NAMES[0]]["metrics"]:
        cells = [results[n]["metrics"][key] for n in WORKLOAD_NAMES]
        print(f"{key + ' [' + cells[0]['unit'] + ']':38s} "
              + " ".join(f"{c['value']:16.6g}" for c in cells))
    ratios = [results[n]["failed"] / results[n]["attempted"] for n in WORKLOAD_NAMES]
    print(f"{'failed_ratio [ratio]':38s} "
          + " ".join(f"{r:16.6g}" for r in ratios))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {n: r["metrics"] for n, r in results.items()},
    }))
    return 0


def scaling_table(seed: int, sizes: list[int]) -> int:
    """The scripts/scaling_probe.py table: best-of-3 eta_from_lift per size."""
    from hnzz.affine import eta_from_lift
    from workloads import probe_instance

    prev = None
    for n in sizes:
        _, rep, _, _ = probe_instance(n, seed)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            eta_from_lift(rep)
            best = min(best, time.perf_counter() - t0)
        line = f"n={n:5d}  window={(rep.dims[0] + 2) * n:6d}  best={best:8.3f}s"
        if prev is not None:
            line += f"  ratio={best / prev:5.2f}"
        print(line)
        prev = best
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25,
                        help="sets the number of rounds: 6 for lift-long and 5 for the "
                             f"others at 25 s, at least {MIN_ROUNDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling-table", type=int, nargs="*", metavar="N",
                        help="print the scaling_probe table for these cycle lengths "
                             "(default 25 50 100 200) instead of running a workload")
    args = parser.parse_args(argv)
    bootstrap()
    if args.scaling_table is not None:
        return scaling_table(args.seed, args.scaling_table or [25, 50, 100, 200])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
