"""Closed-loop client, latency statistics and per-layer metrics.

One client, one thread: each request is the public ``hnzz.cli.main(argv)``
entry point called in-process, sent after the previous one has finished
and its output has been checked (the check is not timed).  A run is a
fixed number of rounds, each round one pass over the workload's request
list, so every run sees the same request mix and the same sample count.

The host is shared, and its speed drifts by 20-40% within a minute, CPU
time with wall time.  So the untimed gap before and after every request
times ``reference()``, a fixed piece of pure-Python work that runs no
hnzz code, and the end-to-end times are given in units of it: a
request's ``ref`` time is its wall time divided by the mean of the
reference times measured just before and just after it.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from hnzz import cli

from tracer import Tracer
from workloads import Request

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
REF_BLOCKS = 3  # timed runs of reference() per measurement; the fastest counts
# seconds of one reference() on an idle 2-core Xeon VM: setup_s is the
# set-up's ref time in these seconds, so that it too does not follow the
# host's drift (in wall seconds, the medians of two sets of ten runs of the
# same code differed by up to 66%)
REF_NOMINAL_S = 0.014
MAX_RUN_S = 120  # no round starts later than this, however slow the program


def reference() -> int:
    """Fixed pure-Python work (about 14 ms on an idle 2-core Xeon VM).

    Gauss-Jordan elimination of a 7 x 7 rational matrix, twelve times,
    plus dict updates: the kind of work the subcommands spend their time
    on, so a host that slows the program slows this by about as much.
    It uses only the standard library, so no change to hnzz moves it.
    """
    n = 7
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
            for i in range(n)]
    piv = 0
    for _ in range(12):
        m = [r[:] for r in rows]
        piv = 0
        for c in range(n):
            p = next((r for r in range(piv, n) if m[r][c] != 0), None)
            if p is None:
                continue
            m[piv], m[p] = m[p], m[piv]
            inv = 1 / m[piv][c]
            m[piv] = [x * inv for x in m[piv]]
            for r in range(n):
                if r != piv and m[r][c] != 0:
                    f = m[r][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[piv])]
            piv += 1
        d: dict[int, int] = {}
        for k in range(2000):
            d[k % 97] = d.get(k % 97, 0) + k
    return piv


def reference_s() -> float:
    """Seconds of the fastest of REF_BLOCKS runs of ``reference()``."""
    best = float("inf")
    for _ in range(REF_BLOCKS):
        t0 = perf_counter()
        reference()
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    # per request of the round list: its ref times, one per round
    ref_times: dict[int, list[float]] = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_request(req: Request, tracer: Tracer | None = None) -> tuple[float, str | None, int]:
    """Send one request; return (seconds, problem or None, output bytes)."""
    if req.out is not None and os.path.exists(req.out):
        os.remove(req.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request_kind = req.kind
    raised = None
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(req.argv)
    except (Exception, SystemExit):
        raised = traceback.format_exc(limit=3).strip().splitlines()[-1]
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.request_kind = None
    if raised is not None:
        return dt, f"{' '.join(req.argv[:2])} raised: {raised}", 0
    nbytes = len(stdout.getvalue().encode())
    doc = None
    try:
        if rc == 0 and req.out is not None:
            nbytes += os.path.getsize(req.out)
            with open(req.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        with tracer.paused() if tracer is not None else nullcontext():
            problem = req.check(rc, stdout.getvalue(), doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem is not None:
        problem = f"{' '.join(req.argv[:2])}: {problem}; stderr: {stderr.getvalue().strip()[:200]}"
    return dt, problem, nbytes


def run_rounds(requests: list[Request], rounds: int, outcome: Outcome,
               tracer: Tracer | None = None, per_round: list[dict] | None = None) -> None:
    """Run ``rounds`` rounds, but start none after MAX_RUN_S.

    Without a tracer, every request is bracketed by ``reference_s()``
    measurements and its ref time is recorded.  With a tracer, its
    counters are reset before each round and a snapshot of each round is
    appended to ``per_round``.
    """
    start = perf_counter()
    ref_before = reference_s() if tracer is None else 0.0
    for _ in range(rounds):
        if perf_counter() - start > MAX_RUN_S:
            break
        if tracer is not None:
            tracer.reset()
        failed = 0
        for i, req in enumerate(requests):
            gc.collect()  # every request starts from the same heap state
            dt, problem, nbytes = run_request(req, tracer)
            outcome.attempted += 1
            outcome.latencies.append(dt)
            if problem is not None:
                failed += 1
                outcome.problems.append(problem)
            if tracer is not None:
                tracer.tally["requests." + req.kind] += 1
                tracer.tally["serialize.bytes_out"] += nbytes
            else:
                ref_after = reference_s()
                outcome.reference_s.append(ref_after)
                outcome.ref_times.setdefault(i, []).append(dt / ((ref_before + ref_after) / 2))
                ref_before = ref_after
        outcome.failed += failed
        outcome.rounds += 1
        if tracer is not None:
            tracer.tally["cli.failed"] += failed
            per_round.append(tracer.snapshot())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, beyond): the sample of ascending rank
    N - TAIL_BEYOND, which has exactly TAIL_BEYOND samples above it; with
    fewer samples, the maximum (and fewer beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return xs[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(outcome: Outcome, setup_times: list[float], setup_refs: list[float]) -> dict:
    """The gated metrics (in ref units, plus set-up and memory) and the raw
    wall-clock figures printed beside them.  ``setup_times`` are the
    set-ups' wall seconds, ``setup_refs`` the same in ref units."""
    refs = [x for xs in outcome.ref_times.values() for x in xs]
    per_request = [statistics.median(xs) for xs in outcome.ref_times.values()]
    lat = outcome.latencies
    ref_tail, pct, beyond = tail(refs)
    return {
        "request_ref.p50": statistics.median(refs),
        "request_ref.tail": ref_tail,
        "requests_per_kref": 1000.0 * len(per_request) / sum(per_request),
        "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
        "setup_wall_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "requests": len(lat),
        "rounds": outcome.rounds,
        "reference_s": statistics.median(outcome.reference_s),
        "request_s.p50": statistics.median(lat),
        "request_s.tail": tail(lat)[0],
        "requests_per_s": len(lat) / sum(lat),
        "failed_ratio": outcome.failed / outcome.attempted,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from traced rounds
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(snap: dict) -> dict:
    c, s, t = snap["count"], snap["self_s"], snap["tally"]

    def cnt(name):
        return c.get(name, 0)

    def sel(name):
        return s.get(name, 0.0)

    def group(prefix, pred):
        return sum(v for k, v in s.items() if k.startswith(prefix) and pred(k))

    lifts = t.get("requests.lift", 0)
    return {
        "linalg.matrix.count": cnt("linalg.matrix"),
        "linalg.matrix.self_s": sel("linalg.matrix"),
        "linalg.rref.count": cnt("linalg.rref"),
        "linalg.rref.self_s": sel("linalg.rref"),
        "linalg.rank.count": cnt("linalg.rank"),
        "linalg.rank.self_s": sel("linalg.rank"),
        "linalg.column_echelon.count": cnt("linalg.column_echelon"),
        "linalg.kernel_basis.count": cnt("linalg.kernel_basis"),
        "linalg.matmul.count": cnt("linalg.matmul"),
        "linalg.matmul.self_s": sel("linalg.matmul"),
        "linalg.image.count": cnt("linalg.image"),
        "linalg.image.self_s": sel("linalg.image"),
        "linalg.preimage.count": cnt("linalg.preimage"),
        "linalg.preimage.self_s": sel("linalg.preimage"),
        "linalg.subspaces_enumerated.count": t.get("linalg.subspace_enumerator.yielded", 0),
        "linalg.superspace_enum.self_s": sel("linalg.superspace_enumerator"),
        "zigzag.barcode.count": cnt("zigzag.barcode"),
        "zigzag.barcode.self_s": sel("zigzag.barcode"),
        "zigzag.positions.count": t.get("zigzag.positions", 0),
        "zigzag.bars.count": t.get("zigzag.bars", 0),
        "affine.lift_truncated.self_s": sel("affine.lift_truncated"),
        "affine.lifted_multiplicities.self_s": sel("affine.lifted_multiplicities"),
        "affine.window_positions.count": t.get("affine.window_positions", 0),
        "affine.barcodes_per_lift.ratio": _ratio(t.get("lift.barcodes", 0), lifts),
        "affine.bars_kept.ratio": _ratio(t.get("affine.bars_kept", 0), t.get("affine.window_bars", 0)),
        "hn.oracle.count": cnt("hn.hn_bruteforce"),
        "hn.oracle.self_s": sel("hn.hn_bruteforce"),
        "hn.subreps_visited.count": t.get("hn.subrepresentations.yielded", 0),
        "hn.subreps_per_step.ratio": _ratio(
            t.get("hn.subrepresentations.yielded", 0), t.get("hn.oracle_steps", 0)
        ),
        "hn.from_barcode.self_s": sel("hn.hn_from_barcode"),
        "serialize.parse.self_s": group(
            "serialize.", lambda k: k.endswith("from_json") or k.endswith("load_json")
        ),
        "serialize.emit.self_s": group(
            "serialize.", lambda k: k.endswith("to_json") or k.endswith("write_json")
        ),
        "serialize.bytes_out.count": t.get("serialize.bytes_out", 0),
        "cli.request.count": cnt("cli.main"),
        "cli.failed.count": t.get("cli.failed", 0),
        "cli.self_s": sel("cli.main"),
    }


def layer_metrics(per_round: list[dict], setup_snap: dict, overhead: float) -> dict:
    """Median over traced rounds of each per-round metric, plus set-up spans."""
    rows = [round_metrics(snap) for snap in per_round]
    # counts and ratios repeat exactly from round to round; median_low
    # keeps them exact (ints stay ints) even if they did not
    out = {
        name: (statistics.median if name.endswith("_s") else statistics.median_low)(
            r[name] for r in rows)
        for name in rows[0]
    }
    s = setup_snap["self_s"]
    out["generators.gen.self_s"] = sum(v for k, v in s.items() if k.startswith("generators."))
    out["quiver.conjugate.self_s"] = s.get("quiver.conjugate", 0.0)
    out["trace.overhead.ratio"] = overhead
    return out


def span_table(per_round: list[dict]) -> list[tuple[str, float, float]]:
    """(span, calls per round, median self seconds per round), by self time."""
    names = sorted({k for snap in per_round for k in snap["count"]} |
                   {k for snap in per_round for k in snap["self_s"]})
    rows = []
    for name in names:
        calls = statistics.median_low(snap["count"].get(name, 0) for snap in per_round)
        self_s = statistics.median(snap["self_s"].get(name, 0.0) for snap in per_round)
        rows.append((name, calls, self_s))
    rows.sort(key=lambda r: -r[2])
    return rows
